"""Variable-length audio fingerprinting toolkit."""

__version__ = "0.1.0"

from .audio import Waveform, load_audio, read_wav, write_wav
from .dsp import MelConfig, MelSpectrogram, StftFrames, stft
from .model import ModelConfig, PackedBatch, fingerprint, init_parameters
from .segmentation import Segment, SegmenterConfig, segment
from .index import FingerprintIndex, IndexEntry
from .training import TrainConfig, train
from .synth import SynthSpec, generate

__all__ = [
    "Waveform",
    "load_audio",
    "read_wav",
    "write_wav",
    "MelConfig",
    "MelSpectrogram",
    "StftFrames",
    "stft",
    "ModelConfig",
    "PackedBatch",
    "fingerprint",
    "init_parameters",
    "Segment",
    "SegmenterConfig",
    "segment",
    "FingerprintIndex",
    "IndexEntry",
    "TrainConfig",
    "train",
    "SynthSpec",
    "generate",
]
