"""Smoke test for the benchmark: every workload at a tiny size, in process.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names,
passes its correctness checks, and that neither an untraced nor a traced
run leaves a wrapper installed on any vlafp attribute.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (pins BLAS threads, finds the checkout's sources)
import run  # noqa: E402

common.use_checkout_sources()

import tracing  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result_of(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_spec_matches_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()
    assert WORKLOADS == ["train", "dtr", "cbr", "catalog"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    code, result = result_of(capsys, argv)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert tracing.leftover_wrappers() == []


def test_leftover_wrappers_are_found():
    handle = tracing.install(tracing.Tracer())
    try:
        found = tracing.leftover_wrappers()
    finally:
        handle.remove()
    assert "vlafp.pipeline.fingerprint" in found
    assert "vlafp.index.FingerprintIndex.load" in found
    assert "vlafp.autodiff.Tensor.backward" in found
    assert tracing.leftover_wrappers() == []


def test_same_seed_same_inputs():
    import workloads

    a = workloads.make("catalog", "tiny", common.BENCH_DIR)
    b = workloads.make("catalog", "tiny", common.BENCH_DIR)
    a.setup(5)
    b.setup(5)
    assert (a.vectors == b.vectors).all() and (a.queries == b.queries).all() and a.keys == b.keys
