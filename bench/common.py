"""Process bootstrap shared by the benchmark scripts.

Import this module before numpy: it pins every BLAS/OpenMP pool to one
thread (the load shape is one process, one thread) and puts the
checkout's own ``src`` first on ``sys.path`` so the benchmark always
measures the source tree it ships with.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# OpenBLAS reads its thread count when numpy loads it; the scripts import
# this module first, and the environment record says whether that held.
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHECKPOINT = BENCH_DIR / "desk.vlfp"
CHECKPOINT_DIGEST = BENCH_DIR / "desk.vlfp.sha256"
FS = 8000


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or checkpoint)."""


def use_checkout_sources() -> None:
    """Import vlafp from ROOT/src, never from an installed copy."""
    if not (SRC / "vlafp" / "__init__.py").is_file():
        raise SetupError(f"no vlafp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vlafp

    if Path(vlafp.__file__).resolve().parent != SRC / "vlafp":
        raise SetupError(f"imported vlafp from {vlafp.__file__}, expected {SRC / 'vlafp'}")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def committed_digest() -> str:
    """The checkpoint digest recorded next to the checkpoint (sha256sum format)."""
    if not CHECKPOINT_DIGEST.is_file():
        raise SetupError(f"missing {CHECKPOINT_DIGEST.name}")
    return CHECKPOINT_DIGEST.read_text().split()[0]


def verified_checkpoint() -> tuple[Path, str]:
    """Path and digest of the frozen checkpoint; refuses a mismatching file."""
    if not CHECKPOINT.is_file():
        raise SetupError(f"missing frozen checkpoint {CHECKPOINT.name}")
    want = committed_digest()
    got = sha256_file(CHECKPOINT)
    if got != want:
        raise SetupError(f"{CHECKPOINT.name} sha256 {got} != committed {want}")
    return CHECKPOINT, got
