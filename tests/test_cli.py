import gc
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.io import wavfile

from oracles import read_manifest

import vlafp
from vlafp.audio import load_audio
from vlafp.cli import THREAD_VARS, main
from vlafp.index import FingerprintIndex, IndexEntry
from vlafp.model import load_checkpoint, save_checkpoint
from vlafp.segmentation import METHODS
from vlafp.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--n", "6", "--dur", "6", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("model") / "model.vlfp"
    rc = main(
        [
            "train",
            "--corpus",
            str(corpus_dir),
            "--method",
            "fixed",
            "--epochs",
            "1",
            "--lr",
            "1e-3",
            "--batch",
            "8",
            "--npos",
            "1",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_writes_wavs_and_manifest(self, corpus_dir):
        wavs = sorted(corpus_dir.glob("*.wav"))
        assert len(wavs) == 6
        manifest = json.loads((corpus_dir / "corpus.manifest.json").read_text())
        assert manifest["argv"] == ["synth", "--n", "6", "--dur", "6", "--seed", "3", "--out", str(corpus_dir)]
        assert manifest["config_digest"] == hashlib.sha256(json.dumps(manifest["argv"]).encode()).hexdigest()
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        }

    def test_seed_defaults_to_the_spec_seed(self, tmp_path):
        assert main(["synth", "--n", "2", "--dur", "2", "--out", str(tmp_path)]) == 0
        for aid, w in generate(SynthSpec(n_audios=2, duration_range=(2.0, 2.0))):
            written = load_audio(tmp_path / f"audio_{aid:04d}.wav").samples
            assert np.array_equal(written, w.samples.astype(np.float32))

    def test_infinite_duration_exit_1(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--n", "1", "--dur", "inf", "--out", str(out)]) == 1
        _one_error_line(capsys, "need 0 < duration low <= high < inf")
        assert not out.exists()


class TestSegment:
    def test_theta_limit_counts(self, corpus_dir, tmp_path):
        out0 = tmp_path / "theta0.txt"
        outinf = tmp_path / "thetainf.txt"
        assert main(["segment", "--audio", str(corpus_dir), "--theta", "0", "--out", str(out0)]) == 0
        assert (
            main(["segment", "--audio", str(corpus_dir), "--theta", "inf", "--out", str(outinf)])
            == 0
        )
        def per_file(path):
            counts = {}
            for rec in read_manifest(path):
                counts[rec[0]] = counts.get(rec[0], 0) + 1
            return counts

        c0, cinf = per_file(out0), per_file(outinf)
        assert set(c0) == set(cinf)
        for aid in c0:
            assert c0[aid] >= cinf[aid]

    def test_theta_inf_token(self, corpus_dir, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["segment", "--audio", str(corpus_dir), "--theta", "inf", "--out", str(out)]) == 0
        records = read_manifest(out)
        assert all(math.isinf(r[4]) for r in records)

    def test_missing_input_exit_1(self, tmp_path, capsys):
        rc = main(["segment", "--audio", str(tmp_path / "nope"), "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("suffix", [".wav", ".f32"])
    def test_non_finite_sample_exit_1(self, tmp_path, capsys, method, suffix):
        data = np.zeros(2 * 8000, dtype="<f4")
        data[4000] = np.nan
        path = tmp_path / f"nan{suffix}"
        if suffix == ".wav":
            wavfile.write(str(path), 8000, data)
        else:
            data.tofile(path)
        rc = main(["segment", "--audio", str(path), "--method", method, "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _one_error_line(capsys, str(path), "non-finite")

    @pytest.mark.parametrize("method", METHODS)
    def test_unparsable_wav_exit_1(self, tmp_path, capsys, method):
        path = tmp_path / "text.wav"
        path.write_text("not a wav file at all")
        rc = main(["segment", "--audio", str(path), "--method", method, "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _one_error_line(capsys, str(path), "not a readable WAV")

    @pytest.mark.parametrize(
        "rate,shape,needle",
        [(16000, (16000,), "sample rate 16000 != expected 8000"), (8000, (8000, 2), "mono only, got 2 channels")],
        ids=["wrong-rate", "stereo"],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_wrong_rate_or_stereo_wav_exit_1(self, tmp_path, capsys, method, rate, shape, needle):
        path = tmp_path / "bad.wav"
        wavfile.write(str(path), rate, np.zeros(shape, dtype=np.float32))
        rc = main(["segment", "--audio", str(path), "--method", method, "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _one_error_line(capsys, str(path), needle)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("suffix", [".wav", ".f32"])
    def test_empty_audio_exit_1(self, tmp_path, capsys, method, suffix):
        path = tmp_path / f"empty{suffix}"
        if suffix == ".wav":
            wavfile.write(str(path), 8000, np.zeros(0, dtype=np.float32))
        else:
            path.write_bytes(b"")
        rc = main(["segment", "--audio", str(path), "--method", method, "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _one_error_line(capsys, str(path), "empty audio")

    def test_truncated_wav_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cut.wav"
        wavfile.write(str(path), 8000, np.zeros(8000, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:3000])
        rc = main(["segment", "--audio", str(path), "--out", str(tmp_path / "m.txt")])
        assert rc == 1
        _one_error_line(capsys, str(path), "not a readable WAV", "EOF")

    def test_silent_audio_under_pelt(self, tmp_path, capsys):
        path = tmp_path / "silence.wav"
        wavfile.write(str(path), 8000, np.zeros(10 * 8000, dtype=np.float32))
        out = tmp_path / "m.txt"
        assert main(["segment", "--audio", str(path), "--method", "pelt", "--out", str(out)]) == 0
        assert len(read_manifest(out)) == 2  # one span, split only by t_max

    def test_unknown_flag_exit_2(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--audio", str(corpus_dir), "--bogus", "1", "--out", str(tmp_path / "m")])
        assert exc.value.code == 2


class TestTrainArtifacts:
    def test_checkpoint_and_history(self, ckpt):
        params, cfg = load_checkpoint(ckpt)
        assert cfg.d == 32
        assert len(params) > 10
        hist = Path(ckpt).with_suffix(".loss.csv").read_text().splitlines()
        assert hist[0] == "epoch,mean_loss"
        assert len(hist) == 2
        assert (Path(str(ckpt) + ".manifest.json")).exists()

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--epochs", "0"], "epochs must be >= 1, got 0"),
            (["--batch", "3"], "3 positives, got 3"),
            (["--snr", "1:inf"], "need finite snr_range_db"),
            (["--aug", "ts", "--ts", "1:inf"], "need 0 < ts_range"),
            (["--alpha", "0"], "ffn_alpha must be finite and > 0, got 0.0"),
            (["--tau", "inf"], "tau must be finite and > 0, got inf"),
            (["--tau", "nan"], "tau must be finite and > 0, got nan"),
            (["--lr", "0"], "lr must be finite and > 0, got 0.0"),
            (["--lr", "-1"], "lr must be finite and > 0, got -1.0"),
            (["--lr", "nan"], "lr must be finite and > 0, got nan"),
        ],
        ids=[
            "no-epochs", "batch-below-one-group", "infinite-snr", "infinite-stretch", "zero-alpha",
            "infinite-tau", "nan-tau", "zero-lr", "negative-lr", "nan-lr",
        ],
    )
    def test_config_that_cannot_train_exit_1(self, corpus_dir, tmp_path, capsys, flags, needle):
        out = tmp_path / "model.vlfp"
        rc = main(["train", "--corpus", str(corpus_dir), "--method", "fixed", "--out", str(out)] + flags)
        assert rc == 1
        _one_error_line(capsys, needle)
        assert list(tmp_path.iterdir()) == []


class TestFingerprintIndexQuery:
    def test_full_flow(self, corpus_dir, ckpt, tmp_path, capsys):
        fps = tmp_path / "fps.vlix"
        rc = main(
            [
                "fingerprint",
                "--audio",
                str(corpus_dir),
                "--ckpt",
                str(ckpt),
                "--method",
                "fixed",
                "--out",
                str(fps),
            ]
        )
        assert rc == 0
        idx = tmp_path / "db.vlix"
        assert main(["index", "build", "--fingerprints", str(fps), "--out", str(idx)]) == 0
        loaded = FingerprintIndex.load(idx)
        assert len(loaded) == len(FingerprintIndex.load(fps))
        capsys.readouterr()  # flush build/fingerprint chatter
        assert main(["index", "query", "--idx", str(idx), "--fingerprints", str(fps), "--k", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("query_ord,rank,audio_id")
        assert len(rows) == len(loaded)
        # every stored fingerprint's own top-1 is itself (score 1)
        for qi, row in enumerate(rows):
            fields = row.split(",")
            assert int(fields[0]) == qi
            assert float(fields[6]) == pytest.approx(1.0, abs=1e-4)


def _unit_index(n, dim, first_id, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, dim))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    index = FingerprintIndex(dim)
    for i in range(n):
        index.insert(IndexEntry(v[i], first_id + i // 2, i, 0.5 * i, 1.0))
    return index


def _one_error_line(capsys, *needles):
    """Check that stderr is one error line holding every needle; return stdout."""
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for needle in needles:
        assert needle in lines[0]
    return out


class TestIndexBuild:
    def test_merge_is_header_then_parts_in_order(self, tmp_path):
        a, b, out = tmp_path / "a.vlix", tmp_path / "b.vlix", tmp_path / "ab.vlix"
        _unit_index(3, 8, 0, seed=1).save(a)
        _unit_index(4, 8, 10, seed=2).save(b)
        assert main(["index", "build", "--fingerprints", str(a), str(b), "--out", str(out)]) == 0
        header = b"VLIX" + struct.pack("<IIQ", 1, 8, 7)
        assert out.read_bytes() == header + a.read_bytes()[20:] + b.read_bytes()[20:]

    def test_dim_mismatch_exit_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.vlix", tmp_path / "b.vlix"
        _unit_index(2, 8, 0, seed=1).save(a)
        _unit_index(2, 4, 0, seed=2).save(b)
        assert main(["index", "build", "--fingerprints", str(a), str(b), "--out", str(tmp_path / "o")]) == 1
        _one_error_line(capsys, str(b))


class TestIndexQuery:
    @pytest.mark.parametrize(
        "n_queries,query_dim,k,needles",
        [
            (0, 8, "-3", ["--k must be >= 1, got -3"]),
            (3, 8, "0", ["--k must be >= 1, got 0"]),
            (3, 4, "1", ["q.vlix", "idx.vlix", "dim 4 != 8"]),
        ],
        ids=["negative-k-no-queries", "zero-k", "dim-mismatch"],
    )
    def test_bad_query_writes_nothing(self, tmp_path, capsys, n_queries, query_dim, k, needles):
        idx, queries = tmp_path / "idx.vlix", tmp_path / "q.vlix"
        _unit_index(4, 8, 0, seed=1).save(idx)
        (_unit_index(n_queries, query_dim, 0, seed=2) if n_queries else FingerprintIndex(query_dim)).save(queries)
        assert main(["index", "query", "--idx", str(idx), "--fingerprints", str(queries), "--k", k]) == 1
        assert _one_error_line(capsys, *needles) == ""


class TestHostileInput:
    @pytest.mark.parametrize("keep", [30, 2000])
    def test_inspect_truncated_checkpoint(self, ckpt, tmp_path, capsys, keep):
        path = tmp_path / "cut.vlfp"
        path.write_bytes(Path(ckpt).read_bytes()[:keep])
        assert main(["inspect", str(path)]) == 1
        _one_error_line(capsys, str(path), "truncated")

    def test_inspect_truncated_index(self, tmp_path, capsys):
        good = tmp_path / "good.vlix"
        _unit_index(3, 8, 0, seed=1).save(good)
        path = tmp_path / "cut.vlix"
        path.write_bytes(good.read_bytes()[:-1])
        assert main(["inspect", str(path)]) == 1
        _one_error_line(capsys, str(path))

    def test_unknown_commercial_id_exit_1(self, corpus_dir, ckpt, tmp_path, capsys):
        rc = main(
            ["eval", "cbr", "--audio", str(corpus_dir), "--ckpt", str(ckpt),
             "--commercial-id", "999", "--out", str(tmp_path / "cbr.csv")]
        )
        assert rc == 1
        _one_error_line(capsys, "999", "0..5")

    def test_negative_others_exit_1(self, corpus_dir, ckpt, tmp_path, capsys):
        out = tmp_path / "cbr.csv"
        rc = main(["eval", "cbr", "--audio", str(corpus_dir), "--ckpt", str(ckpt), "--others", "-1", "--out", str(out)])
        assert rc == 1
        _one_error_line(capsys, "n_others must be >= 0, got -1")
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--targets", "0"], "0 targets"),
            (["--queries-per-target", "0"], "0 queries per target"),
            (["--durations", "0"], "positive number of seconds"),
            (["--durations", "1,-2"], "positive number of seconds"),
            (["--targets", "4", "--dummies", "-3"], "--dummies must be >= 0"),
            (["--targets", "7"], "--targets 7 exceeds the corpus of 6 audios"),
            (["--targets", "4", "--dummies", "3"], "--dummies 3 exceeds the 2 audios left after 4 targets"),
            (["--snr", "1:inf"], "need finite snr_range_db"),
            (["--snr", "nan:1"], "need finite snr_range_db"),
            (["--durations", "0.02", "--aug", "ts,bg,ir"], "input of 160 samples is shorter than one hop (256 samples)"),
            (["--durations", "0.02", "--aug", "none"], "query duration 0.02 s: input of 160 samples"),
            (["--durations", "0.02", "--aug", "bg,ir"], "query duration 0.02 s: input of 160 samples"),
            (["--durations", "0.02", "--aug", "ts"], "query duration 0.02 s: input of 160 samples"),
        ],
        ids=[
            "no-targets",
            "no-queries",
            "zero-duration",
            "negative-duration",
            "negative-dummies",
            "targets-beyond-corpus",
            "dummies-beyond-corpus",
            "infinite-snr",
            "nan-snr",
            "sub-hop-stretched-duration",
            "sub-hop-duration-no-aug",
            "sub-hop-duration-bg-ir",
            "sub-hop-duration-ts",
        ],
    )
    def test_eval_dtr_without_queries_exit_1(self, corpus_dir, ckpt, tmp_path, capsys, flags, needle):
        out = tmp_path / "dtr.csv"
        rc = main(["eval", "dtr", "--audio", str(corpus_dir), "--ckpt", str(ckpt), "--out", str(out)] + flags)
        assert rc == 1
        _one_error_line(capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize(
        "durations,needle",
        [
            ("1,x", "could not convert string to float: 'x'"),
            ("0", "positive number of seconds, got 0.0"),
            ("0.02", "query duration 0.02 s: input of 160 samples is shorter than one hop"),
        ],
        ids=["not-a-number", "zero", "sub-hop"],
    )
    def test_eval_dtr_checks_durations_before_indexing(
        self, corpus_dir, ckpt, tmp_path, capsys, monkeypatch, durations, needle
    ):
        def build_index(*args):
            pytest.fail("the database was indexed before --durations was checked")

        monkeypatch.setattr("vlafp.cli.build_index", build_index)
        out = tmp_path / "dtr.csv"
        argv = ["eval", "dtr", "--audio", str(corpus_dir), "--ckpt", str(ckpt), "--durations", durations]
        assert main(argv + ["--out", str(out)]) == 1
        _one_error_line(capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("aug", ["none", "ts,bg,ir"])
    def test_eval_dtr_one_hop_duration_runs(self, corpus_dir, ckpt, tmp_path, aug):
        out = tmp_path / "dtr.csv"
        argv = ["eval", "dtr", "--audio", str(corpus_dir), "--ckpt", str(ckpt), "--durations", "0.032", "--aug", aug]
        assert main(argv + ["--out", str(out)]) == 0  # 256 samples: exactly one hop
        assert out.read_text().splitlines()[1].startswith("0.032,")

    def test_inspect_unequal_header_widths(self, ckpt, tmp_path, capsys):
        data = bytearray(Path(ckpt).read_bytes())
        struct.pack_into("<I", data, 16, 7)  # second of the three width slots
        path = tmp_path / "widths.vlfp"
        path.write_bytes(bytes(data))
        assert main(["inspect", str(path)]) == 1
        _one_error_line(capsys, str(path), "widths must be equal")

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 1e-5], ids=["nan", "negative", "not-the-default"])
    @pytest.mark.parametrize("command", ["fingerprint", "inspect"])
    def test_checkpoint_eps_not_finite_and_positive(self, corpus_dir, ckpt, tmp_path, capsys, command, eps):
        data = bytearray(Path(ckpt).read_bytes())
        struct.pack_into("<d", data, 4 + 8 * 4 + 8, eps)  # the header's last double, after ffn_alpha
        path = tmp_path / "eps.vlfp"
        path.write_bytes(bytes(data))
        out = tmp_path / "fp.vlix"
        if command == "inspect":
            argv = ["inspect", str(path)]
        else:
            argv = ["fingerprint", "--audio", str(corpus_dir), "--ckpt", str(path), "--out", str(out)]
        assert main(argv) == 1
        _one_error_line(capsys, str(path), "header eps must be 1e-06, got")
        assert not out.exists()

    def test_inspect_unknown_binary_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "noise.bin"
        path.write_bytes(np.random.default_rng(0).integers(0, 256, 100, dtype=np.uint8).tobytes())
        assert main(["inspect", str(path)]) == 1
        _one_error_line(capsys, str(path))


    @pytest.mark.parametrize(
        "edit,needle",
        [
            (lambda p: p.pop("w0"), "missing tensor 'w0'"),
            (lambda p: p.update({"block0.ffn.w1": p["block0.ffn.w1"][:, :-1]}), "tensor 'block0.ffn.w1' has shape"),
            (lambda p: p["b0"].__setitem__(0, np.nan), "tensor 'b0' has non-finite values"),
        ],
        ids=["missing", "shape", "nan"],
    )
    @pytest.mark.parametrize("command", ["fingerprint", "inspect"])
    def test_checkpoint_tensors_not_matching_the_header(self, corpus_dir, ckpt, tmp_path, capsys, command, edit, needle):
        params, cfg = load_checkpoint(ckpt)
        edit(params)
        path = tmp_path / "bad.vlfp"
        save_checkpoint(path, params, cfg)
        out = tmp_path / "fp.vlix"
        if command == "inspect":
            argv = ["inspect", str(path)]
        else:
            argv = ["fingerprint", "--audio", str(corpus_dir), "--ckpt", str(path), "--out", str(out)]
        assert main(argv) == 1
        _one_error_line(capsys, str(path), needle)
        assert not out.exists()

    @pytest.mark.parametrize(
        "window,hop,needle",
        [
            ("0.01", "0.01", "shorter than one hop"),
            ("1", "0.00001", "rounds to 0 samples"),
            ("inf", "0.5", "need finite window >= hop > 0"),
        ],
        ids=["window-below-one-hop", "hop-below-one-sample", "infinite-window"],
    )
    @pytest.mark.parametrize("command", ["segment", "train", "fingerprint", "eval dtr", "eval cbr"])
    def test_fixed_window_without_a_hop_exit_1(
        self, corpus_dir, ckpt, tmp_path, capsys, command, window, hop, needle
    ):
        out = tmp_path / "out"
        flags = {
            "segment": ["--audio", str(corpus_dir), "--method", "fixed"],
            "train": ["--corpus", str(corpus_dir), "--method", "fixed", "--epochs", "1"],
            "fingerprint": ["--audio", str(corpus_dir), "--ckpt", str(ckpt), "--method", "fixed"],
            "eval dtr": ["--audio", str(corpus_dir), "--ckpt", str(ckpt)],
            "eval cbr": ["--audio", str(corpus_dir), "--ckpt", str(ckpt), "--method", "fixed", "--others", "3"],
        }[command]
        rc = main(command.split() + flags + ["--window", window, "--hop", hop, "--out", str(out)])
        assert rc == 1
        _one_error_line(capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "train", "fingerprint", "eval dtr", "eval cbr"])
    def test_bad_window_refused_before_any_input_is_read(self, tmp_path, capsys, command):
        # Under the default method, not only "fixed", and with no audio or checkpoint to read.
        missing = str(tmp_path / "missing")
        flags = {
            "segment": ["--audio", missing],
            "train": ["--corpus", missing],
            "fingerprint": ["--audio", missing, "--ckpt", missing],
            "eval dtr": ["--audio", missing, "--ckpt", missing],
            "eval cbr": ["--audio", missing, "--ckpt", missing],
        }[command]
        out = tmp_path / "out"
        assert main(command.split() + flags + ["--window", "inf", "--out", str(out)]) == 1
        _one_error_line(capsys, "need finite window >= hop > 0, got inf, 0.5")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "fingerprint", "eval cbr", "eval dtr"])
    def test_rate_below_8k_exit_1(self, tmp_path, capsys, command):
        # The mel bands reach MEL_FMAX = 4000 Hz, which a 4 kHz rate cannot hold.
        corpus, ckpt, out = tmp_path / "corpus", tmp_path / "init.vlfp", tmp_path / "out"
        assert main(["synth", "--n", "2", "--dur", "3", "--rate", "4000", "--out", str(corpus)]) == 0
        assert main(["init", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        flags = {
            "train": ["--corpus", str(corpus), "--epochs", "1"],
            "fingerprint": ["--audio", str(corpus), "--ckpt", str(ckpt)],
            "eval cbr": ["--audio", str(corpus), "--ckpt", str(ckpt), "--others", "1"],
            "eval dtr": ["--audio", str(corpus), "--ckpt", str(ckpt), "--durations", "1"],
        }[command]
        assert main(command.split() + flags + ["--rate", "4000", "--out", str(out)]) == 1
        _one_error_line(
            capsys, "sample rate 4000 Hz is too low: the mel bands reach 4000 Hz, above its Nyquist frequency 2000 Hz"
        )
        assert not out.exists()

    @pytest.mark.parametrize("durations", [["--tmax", "inf"], ["--tmin", "inf", "--tmax", "inf"]], ids=["tmax", "both"])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_duration_exit_1(self, corpus_dir, tmp_path, capsys, method, durations):
        out = tmp_path / "m.txt"
        rc = main(["segment", "--audio", str(corpus_dir), "--method", method, "--out", str(out)] + durations)
        assert rc == 1
        _one_error_line(capsys, "need 0 < t_min <= t_max < inf")
        assert not out.exists()


class TestEvalCommands:
    def test_cbr_manifest_independent_of_hash_seed(self, corpus_dir, ckpt, tmp_path):
        # The two hash seeds order the frozenset {"ts", "bg", "ir"} differently.
        src = str(Path(vlafp.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            cwd = tmp_path / f"hash{hash_seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
            cmd = [sys.executable, "-m", "vlafp.cli", "eval", "cbr", "--audio", str(corpus_dir),
                   "--ckpt", str(ckpt), "--others", "2", "--out", "cbr.csv"]
            subprocess.run(cmd, cwd=cwd, env=env, check=True, capture_output=True, timeout=300)
            outputs.append(((cwd / "cbr.csv.manifest.json").read_text(), (cwd / "cbr.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["argv"] == cmd[3:]

    def test_dtr_self_match_100(self, corpus_dir, ckpt, tmp_path):
        out = tmp_path / "dtr.csv"
        rc = main(
            [
                "eval",
                "dtr",
                "--audio",
                str(corpus_dir),
                "--ckpt",
                str(ckpt),
                "--durations",
                "1,2",
                "--aug",
                "none",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "duration_s,hit_rate"
        assert [float(r.split(",")[1]) for r in rows[1:]] == [1.0, 1.0]
        results = Path(out).with_suffix(".results.csv").read_text().splitlines()
        for r in results[1:]:
            target_id, dur, retrieved, hit, n_lookups = r.split(",")
            assert int(n_lookups) == 2 * int(float(dur)) - 1

    def test_cbr_report_format(self, corpus_dir, ckpt, tmp_path):
        out = tmp_path / "cbr.csv"
        rc = main(
            [
                "eval",
                "cbr",
                "--audio",
                str(corpus_dir),
                "--ckpt",
                str(ckpt),
                "--others",
                "5",
                "--method",
                "fixed",
                "--aug",
                "none",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "threshold,tp,fp,fn,precision,recall,f1,best"
        assert sum(int(r.split(",")[-1]) for r in rows[1:]) == 1
        assert Path(out).with_suffix(".scores.csv").exists()

    def test_determinism_byte_identical(self, corpus_dir, ckpt, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                [
                    "eval",
                    "dtr",
                    "--audio",
                    str(corpus_dir),
                    "--ckpt",
                    str(ckpt),
                    "--durations",
                    "1",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Each artifact-writing command, writing into out/ under the working directory.
REPLAYED = {
    "synth": lambda corpus, ckpt: ["synth", "--n", "2", "--dur", "2", "--seed", "4", "--out", "out"],
    "segment": lambda corpus, ckpt: ["segment", "--audio", corpus, "--method", "pelt", "--out", "out/m.txt"],
    "train": lambda corpus, ckpt: ["train", "--corpus", corpus, "--epochs", "1", "--lr", "1e-3", "--batch", "8",
                                   "--npos", "1", "--aug", "ts,bg", "--out", "out/model.vlfp"],
    "fingerprint": lambda corpus, ckpt: ["fingerprint", "--audio", corpus, "--ckpt", ckpt, "--out", "out/fp.vlix"],
    "index build": lambda corpus, ckpt: ["index", "build", "--fingerprints", "a.vlix", "b.vlix", "--out", "out/db.vlix"],
    "eval cbr": lambda corpus, ckpt: ["eval", "cbr", "--audio", corpus, "--ckpt", ckpt, "--others", "2",
                                      "--out", "out/cbr.csv"],
    "eval dtr": lambda corpus, ckpt: ["eval", "dtr", "--audio", corpus, "--ckpt", ckpt, "--durations", "1,2",
                                      "--targets", "3", "--out", "out/dtr.csv"],
    "init": lambda corpus, ckpt: ["init", "--dim", "16", "--seed", "2", "--out", "out/init.vlfp"],
}


class TestReplay:
    @pytest.mark.parametrize("command", REPLAYED)
    def test_manifest_argv_remakes_every_output(self, corpus_dir, ckpt, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        _unit_index(3, 8, 0, seed=1).save("a.vlix")
        _unit_index(4, 8, 10, seed=2).save("b.vlix")
        out = Path("out")
        out.mkdir()
        assert main(REPLAYED[command](str(corpus_dir), str(ckpt))) == 0
        first = out.rename("first")
        (manifest,) = first.glob("*.manifest.json")
        out.mkdir()
        assert main(json.loads(manifest.read_text())["argv"]) == 0
        written = {p.name: p.read_bytes() for p in first.iterdir()}
        assert len(written) >= 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written


class TestInspectAndInit:
    def test_init_and_inspect(self, tmp_path, capsys):
        ck = tmp_path / "r.vlfp"
        assert main(["init", "--out", str(ck), "--seed", "1"]) == 0
        assert main(["inspect", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "model checkpoint" in out

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan"])
    def test_init_bad_alpha_exit_1(self, tmp_path, capsys, alpha):
        out = tmp_path / "r.vlfp"
        assert main(["init", "--alpha", alpha, "--out", str(out)]) == 1
        _one_error_line(capsys, "ffn_alpha must be finite and > 0")
        assert not out.exists()

    def test_inspect_index(self, tmp_path, capsys):
        idx = FingerprintIndex(4)
        v = np.zeros(4, np.float32)
        v[0] = 1.0
        idx.insert(IndexEntry(v, 0, 0, 0.0, 1.0))
        p = tmp_path / "one.vlix"
        idx.save(p)
        assert main(["inspect", str(p)]) == 0
        assert "entries=1" in capsys.readouterr().out

    def test_inspect_closes_the_file(self, ckpt, tmp_path):
        idx = tmp_path / "one.vlix"
        _unit_index(2, 4, 0, seed=1).save(idx)
        for path in (idx, ckpt):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["inspect", str(path)]) == 0
                gc.collect()
            assert not [w for w in caught if issubclass(w.category, ResourceWarning)], path

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing.bin")]) == 1
        assert "error:" in capsys.readouterr().err


def test_import_loads_no_scipy_signal():
    # A fresh interpreter: this one has scipy.signal already, through tests/oracles.py.
    src = str(Path(vlafp.__file__).resolve().parents[1])
    code = "import sys, vlafp, vlafp.cli; print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.strip() == "[]"
