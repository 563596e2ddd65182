"""The benchmark's traced run patches vlafp functions by name; every name must exist.

bench/tracing.py is read and executed here, never imported as a package
module, so the benchmark directory gains no files when this test runs.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_patch_site_installs_and_is_removed():
    tracing = load_tracing()
    # Import every patched module first, as the benchmark's workloads do: a
    # module first imported while install() runs would bind a wrapper.
    for name in tracing.VLAFP_MODULES:
        importlib.import_module(name)
    handle = tracing.install(tracing.Tracer())
    try:
        assert tracing.leftover_wrappers()
    finally:
        handle.remove()
    assert tracing.leftover_wrappers() == []
