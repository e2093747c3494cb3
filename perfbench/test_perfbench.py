"""Tests of the benchmark harness: tracing leaves no trace, spans add up, counts repeat.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys

import pytest

import run

run.pin_threads()
run.load_library()

import numpy as np  # noqa: E402

from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings() -> dict:
    """Every attribute of the dghlab modules and the patched numpy/Field names."""
    import dghlab.cli  # noqa: F401
    from dghlab.grid import Field

    out = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "dghlab" or name.startswith("dghlab.")
        for attr, value in vars(mod).items()
    }
    out[("Field", "__post_init__")] = Field.__dict__["__post_init__"]
    out[("numpy.fft", "rfft")] = np.fft.rfft
    out[("numpy.fft", "irfft")] = np.fft.irfft
    return out


def _traced_pass(workload: str, seed: int, tmp_path) -> Tracer:
    runner = run.Runner(WORKLOADS[workload], seed, tmp_path / f"{workload}-{seed}")
    tracer = Tracer()
    runner.one_pass(tracer)
    assert runner.failed == 0, runner.failed_names
    return tracer


def test_wrappers_are_gone_after_the_run(tmp_path):
    before = _bindings()
    tracer = _traced_pass("line_suite", 1, tmp_path)
    after = _bindings()
    assert tracer.calls["solver.rhs"] > 0 and tracer.calls["grid.Field"] > 0
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_self_times_sum_to_no_more_than_the_root_span(tmp_path):
    tracer = _traced_pass("trajectory_analysis", 1, tmp_path)
    root = tracer.total[run.ROOT_SPAN]
    children = sum(tracer.self_time[name] for name in SPAN_NAMES)
    assert all(tracer.self_time[name] >= 0.0 for name in SPAN_NAMES)
    assert 0.0 < children <= root
    assert children + tracer.self_time[run.ROOT_SPAN] == pytest.approx(root)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_give_identical_call_counts(workload, tmp_path):
    a = _traced_pass(workload, 1, tmp_path)
    b = _traced_pass(workload, 2, tmp_path)
    assert a.calls == b.calls
    assert a.counts["numpy.fft.calls"] == b.counts["numpy.fft.calls"]
    assert a.counts["numpy.fft.points"] == b.counts["numpy.fft.points"]
    if workload == "line_suite":
        assert a.counts["numpy.fft.calls"] == 0
