"""scripts/bench_pairs.py's regression verdict on made-up pairs of runs, and
the resource-usage delta it takes around each run.

The script is read and executed here, never imported, so scripts/ gains no
files when this test runs.
"""

import math
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs() -> types.ModuleType:
    module = types.ModuleType("bench_pairs")
    module.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(), str(SCRIPT), "exec"), module.__dict__)
    return module


def verdict(bench_pairs, better, base, change, bound=0.25):
    summary = bench_pairs.summarize({"better": better, "bound": bound}, list(zip(base, change)))
    return summary["regression"]


TIGHT = [9.8, 10.0, 10.0, 10.2]  # interquartile range 2% of the median
WIDE = [6.0, 8.0, 12.0, 14.0]  # interquartile range 50% of the median


@pytest.mark.parametrize(
    "better, base, change, expected",
    [
        ("lower", TIGHT, [12.0, 12.4, 12.4, 12.5], "ok"),  # +24%: inside the bound
        ("lower", TIGHT, [12.6, 12.6, 12.6, 12.6], "worse"),  # +26%
        ("higher", TIGHT, [7.6, 7.6, 7.6, 7.6], "ok"),  # -24%
        ("higher", TIGHT, [7.4, 7.4, 7.4, 7.4], "worse"),  # -26%
        ("lower", WIDE, [6.0, 8.0, 12.0, 14.0], "unresolved"),
        ("lower", WIDE, [5.0, 5.0, 5.5, 5.9], "ok"),  # every change run beats every base run
        ("higher", WIDE, [5.0, 5.0, 5.5, 5.9], "worse"),
        ("higher", WIDE, [14.1, 15.0, 15.0, 15.0], "ok"),
    ],
)
def test_regression_verdict(bench_pairs, better, base, change, expected):
    assert verdict(bench_pairs, better, base, change) == expected


def test_usage_delta_subtracts_faults_and_system_seconds(bench_pairs):
    before = types.SimpleNamespace(ru_minflt=1200, ru_stime=0.75, ru_utime=2.0, ru_nivcsw=40)
    after = types.SimpleNamespace(ru_minflt=4500, ru_stime=1.25, ru_utime=7.5, ru_nivcsw=65)
    usage = bench_pairs.usage_delta(before, after)
    assert usage == {"minor_faults": 3300, "sys_s": 0.5, "user_s": 5.5, "involuntary_switches": 25}
    assert bench_pairs.cpu_s_per_op(usage, 20) == 0.3
    assert math.isnan(bench_pairs.cpu_s_per_op(usage, 0))


def test_usage_delta_counts_a_child_that_touches_memory(bench_pairs):
    # 40 MB written byte by byte is about 10 000 fresh pages.
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "b = bytearray(b'x' * 40_000_000)"], check=True)
    delta = bench_pairs.usage_delta(before, resource.getrusage(resource.RUSAGE_CHILDREN))
    assert delta["minor_faults"] >= 9_000
    assert delta["sys_s"] >= 0.0
    assert delta["user_s"] > 0.0  # writing 40 MB byte by byte takes CPU
    assert delta["involuntary_switches"] >= 0
