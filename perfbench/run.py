"""The dghlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload periodic_suite --seed 1 --seconds 15 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``; the
workloads themselves live in ``workloads.py``.  The library is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: median over fresh interpreters of ``import dghlab.cli`` plus
  the preparation of the workload's inputs;
* ``wall_s``: seconds of one pass after a warm-up pass, taken as the sum over
  the pass's requests of each request's fastest time across the run's passes
  (min-of-k per request).  On a shared machine the CPU flips between a fast
  state and one about 1.6 times slower every second or so, often for a whole
  run; the median pass measures those neighbours, the fastest request the
  program.  The median pass time is printed as ``wall_median_s`` beside it;
* ``peak_rss_mb``: peak resident set of this process;
* ``check_pass_rate``: passed checks over attempted checks.  It is
  1 - check_fail_rate, reported this way round because a metric must never
  read 0; ``check_fail_rate`` itself is printed beside it.

``--trace 1`` alternates untraced and traced passes (see ``tracing.py``),
then times single calls of the hot layer functions (``micro.py``).  It
reports the per-layer metrics: call counts and counters from the first
traced pass, self times as the minimum over the traced passes, and
``trace.overhead_s`` as the fastest traced minus the fastest untraced pass.

The last line of stdout is the result as one JSON object.  The line before
it stamps the machine, the library versions, the acceptance numbers the
passes measured and the values not declared in ``BENCHMARK.json``, so that a
timing can be read next to them.

Tests of the harness itself: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROOT_SPAN = "pass"
MIN_PASSES = 3
SETUP_REPEATS = 5
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Single-threaded BLAS/OpenMP pools; must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def _spin() -> float:
    """Seconds for a fixed slice of interpreter work (a CPU-speed probe)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus: frozenset[int]) -> None:
    """Move this process to whichever allowed CPU currently runs fastest.

    On a shared host each virtual CPU flips between a fast and a contended
    state; probing each one briefly before a request and running the request
    on the faster one keeps part of the neighbours' load out of the timings.
    """
    if len(cpus) < 2:
        return
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
    except OSError:
        pass  # affinity cannot be changed here; run wherever the process is


def load_library() -> None:
    """Import dghlab from ``src/`` beside the benchmark, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dghlab.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dghlab from {src}: {exc}") from None
    if Path(dghlab.__file__).resolve().parent != src / "dghlab":
        raise SystemExit(f"perfbench: imported dghlab from {dghlab.__file__}, not {src}")


class Runner:
    """Passes over one workload's inputs, with their checks and acceptance numbers."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.inputs = workload.prepare(seed, workdir / "inputs")
        self.attempted = 0
        self.failed = 0
        self.failed_names: set[str] = set()
        self.acceptance: dict = {}
        self._passes = 0
        self.cpus = frozenset(os.sched_getaffinity(0))

    def one_pass(self, tracer=None) -> dict[str, float]:
        """Run one pass, check it, remove its outputs; returns seconds per request."""
        self._passes += 1
        outdir = self.workdir / f"pass-{self._passes}"
        requests = self.workload.requests(self.inputs, outdir)
        results, seconds = {}, {}

        def run_all():
            for name, request in requests:
                pin_to_fastest_cpu(self.cpus)
                t0 = time.perf_counter()
                results[name] = request()
                seconds[name] = time.perf_counter() - t0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    run_all()
                else:
                    with tracer.installed():
                        tracer.span(ROOT_SPAN, run_all)()
                    tracer.counts["warnings.count"] = len(caught)
        outcome = self.workload.check(self.inputs, outdir, results)
        shutil.rmtree(outdir, ignore_errors=True)
        self.attempted += len(outcome.checks)
        bad = [name for name, ok in outcome.checks.items() if not ok]
        self.failed += len(bad)
        self.failed_names.update(bad)
        self.acceptance = outcome.acceptance
        return seconds

    def passes(self, seconds: float) -> list[dict[str, float]]:
        """Back-to-back passes for ``seconds`` (at least MIN_PASSES)."""
        out = []
        start = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - start < seconds:
            out.append(self.one_pass())
        return out


def setup_seconds(workload: str, seed: int, workdir: Path, cpus: frozenset[int]) -> float:
    """Median over fresh interpreters of import plus input preparation."""
    samples = []
    for i in range(SETUP_REPEATS):
        pin_to_fastest_cpu(cpus)  # the child inherits the affinity
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                workload,
                str(seed),
                str(workdir / f"setup-{i}"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def fastest_pass(passes: list[dict[str, float]]) -> float:
    """Sum over requests of each request's fastest time across the passes."""
    return sum(min(p[name] for p in passes) for name in passes[0])


def end_to_end(runner: Runner, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup = setup_seconds(name, seed, workdir, runner.cpus)
    runner.one_pass()  # warm-up: lazy imports, caches, page faults
    passes = runner.passes(seconds)
    return {
        "setup_s": setup,
        "wall_s": fastest_pass(passes),
        "wall_median_s": statistics.median(sum(p.values()) for p in passes),
        "passes": len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_pass_rate": (runner.attempted - runner.failed) / runner.attempted,
        "check_fail_rate": runner.failed / runner.attempted,
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    import micro
    from tracing import SPAN_NAMES, Tracer

    runner.one_pass()
    # Untraced and traced passes alternate, so that drift in the machine's
    # speed does not leak into the tracing overhead.
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(sum(runner.one_pass().values()))
        tracers.append(Tracer())
        traced.append(sum(runner.one_pass(tracers[-1]).values()))
    first = tracers[0]
    out: dict[str, float] = {"passes": len(tracers)}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = first.calls[span]
        out[f"{span}.self_s"] = min(t.self_time[span] for t in tracers)
    out["grid.Field.constructions"] = first.calls["grid.Field"]
    for key in ("numpy.fft.calls", "numpy.fft.points", "artifacts.bytes", "warnings.count"):
        out[key] = first.counts[key]
    out["trace.overhead_s"] = min(traced) - min(untraced)
    out.update(micro.measure())
    return out


def machine_stamp(cpus: frozenset[int]) -> dict:
    import numpy
    import scipy
    import yaml

    stamp = {
        "nproc": len(cpus),
        "cpu_model": None,
        "caches": {},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                stamp["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            stamp["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return stamp


def main(argv: list[str] | None = None) -> int:
    pin_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    from workloads import WORKLOADS

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        runner = Runner(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            values = per_layer(runner, args.seconds)
        else:
            values = end_to_end(runner, args.workload, args.seed, args.seconds, workdir)

    names = {m["name"] for m in declared}
    missing = sorted(names - values.keys())
    if missing:
        raise SystemExit(f"perfbench: no value for declared metrics {missing}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "extra_metrics": {k: v for k, v in values.items() if k not in names},
        "machine": machine_stamp(runner.cpus),
        "acceptance": runner.acceptance,
        "failed_checks": sorted(runner.failed_names),
    }
    print(json.dumps(info))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
