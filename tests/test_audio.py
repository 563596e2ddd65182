import struct

import numpy as np
import pytest
from scipy.io import wavfile

from vlafp.audio import Waveform, load_audio, read_raw_f32, read_wav, write_wav

FS = 8000


class TestWaveform:
    def test_mono_only(self):
        with pytest.raises(ValueError, match="mono"):
            Waveform(np.zeros((100, 2)), FS)

    def test_positive_rate_required(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(np.zeros(10), 0)

    def test_duration_and_peak(self):
        w = Waveform(np.array([0.0, -0.5, 0.25]), FS)
        assert w.duration == pytest.approx(3 / FS)
        assert w.peak == 0.5

    def test_slice_with_padding(self):
        w = Waveform(np.arange(10.0), FS)
        chunk = w.slice_samples(8, 5)
        np.testing.assert_allclose(chunk.samples, [8.0, 9.0, 0.0, 0.0, 0.0])


class TestWavIo:
    def test_float32_roundtrip(self, tmp_path):
        w = Waveform(np.random.default_rng(0).uniform(-0.9, 0.9, FS), FS)
        path = tmp_path / "f.wav"
        write_wav(path, w)
        back = read_wav(path, expected_rate=FS)
        assert back.sample_rate == FS
        np.testing.assert_allclose(back.samples, w.samples.astype(np.float32), atol=0)

    def test_pcm16_roundtrip(self, tmp_path):
        w = Waveform(np.random.default_rng(1).uniform(-0.9, 0.9, FS), FS)
        path = tmp_path / "p.wav"
        write_wav(path, w, pcm16=True)
        back = read_wav(path)
        # half-step quantization plus the 32767/32768 scale asymmetry
        assert np.abs(back.samples - w.samples).max() < 1.0 / 16384

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.wav"
        write_wav(path, Waveform(np.zeros(100), 16000))
        with pytest.raises(ValueError, match="sample rate"):
            read_wav(path, expected_rate=FS)

    def test_raw_f32(self, tmp_path):
        data = np.random.default_rng(2).standard_normal(500).astype("<f4")
        path = tmp_path / "x.f32"
        data.tofile(path)
        w = read_raw_f32(path, FS)
        np.testing.assert_allclose(w.samples, data.astype(np.float64))

    def test_load_audio_dispatch(self, tmp_path):
        w = Waveform(np.zeros(100), FS)
        wav_path = tmp_path / "a.wav"
        write_wav(wav_path, w)
        assert len(load_audio(wav_path, FS)) == 100
        with pytest.raises(ValueError, match="unsupported"):
            load_audio(tmp_path / "a.mp3", FS)

    def test_empty_raw_rejected(self, tmp_path):
        path = tmp_path / "empty.f32"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty audio") as exc:
            load_audio(path, FS)
        assert str(path) in str(exc.value)

    def test_empty_wav_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, Waveform(np.zeros(0), FS))
        with pytest.raises(ValueError, match="empty audio") as exc:
            load_audio(path, FS)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("suffix", [".wav", ".f32"])
    def test_non_finite_sample_names_the_file(self, tmp_path, bad, suffix):
        data = np.zeros(FS, dtype="<f4")
        data[123] = bad
        path = tmp_path / f"bad{suffix}"
        if suffix == ".wav":
            write_wav(path, Waveform(data, FS))
        else:
            data.tofile(path)
        with pytest.raises(ValueError, match="non-finite") as exc:
            load_audio(path, FS)
        assert str(path) in str(exc.value) and "sample 123" in str(exc.value)

    @pytest.mark.parametrize("content", [b"", b"not a wav file at all", b"RIFF", b"RIFF" + b"\xff" * 60])
    def test_unparsable_wav_names_the_file(self, tmp_path, content):
        path = tmp_path / "junk.wav"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not a readable WAV") as exc:
            load_audio(path, FS)
        assert str(path) in str(exc.value)

    def test_truncated_wav_names_the_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(FS), FS))
        path.write_bytes(path.read_bytes()[:3000])
        with pytest.raises(ValueError, match="not a readable WAV.*EOF") as exc:
            read_wav(path, FS)
        assert str(path) in str(exc.value)

    def test_unknown_chunk_still_loads(self, tmp_path):
        path = tmp_path / "extra.wav"
        w = Waveform(np.random.default_rng(3).uniform(-0.5, 0.5, 100), FS)
        write_wav(path, w)
        data = bytearray(path.read_bytes() + b"abcd" + struct.pack("<I", 4) + b"\0" * 4)
        data[4:8] = struct.pack("<I", len(data) - 8)
        path.write_bytes(bytes(data))
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            back = read_wav(path, FS)
        assert np.array_equal(back.samples, w.samples.astype(np.float32))
