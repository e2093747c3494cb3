"""Per-layer tracing of dghlab from outside the package.

``Tracer.installed()`` replaces the listed public functions with timing
wrappers in every ``dghlab`` module that binds them, wraps
``Field.__post_init__`` and counts calls to ``numpy.fft.rfft``/``irfft``; on
exit every original binding is restored.  No file of the library changes.

Spans are aggregated per name in memory: call count, total time and self
time (a span's duration minus the part covered by its child spans).  FFT
wrappers only count; their time stays in the calling layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

__all__ = ["SPAN_NAMES", "SPANS", "Tracer"]

# (module, function, span name).  rhs_dissipative calls rhs_nonlocal, so every
# right-hand-side evaluation is counted once as ``solver.rhs``.
SPANS = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("profiles", "make_profile", "profiles.make_profile"),
    ("grid", "derivative", "grid.derivative"),
    ("helmholtz", "apply_lambda2", "helmholtz.apply_lambda2"),
    ("helmholtz", "invert_lambda2", "helmholtz.invert_lambda2"),
    ("helmholtz", "dx_invert_lambda2", "helmholtz.dx_invert_lambda2"),
    ("solver", "rhs_nonlocal", "solver.rhs"),
    ("solver", "step_rk4", "solver.step_rk4"),
    ("solver", "simulate", "solver.simulate"),
    ("invariants", "drift_series", "invariants.drift_series"),
    ("characteristics", "evolve_characteristics", "characteristics.evolve_characteristics"),
    ("characteristics", "transport_residual", "characteristics.transport_residual"),
    ("diagnostics", "support_interval", "diagnostics.support_interval"),
    ("diagnostics", "continuation_probe", "diagnostics.continuation_probe"),
    ("diagnostics", "tail_decay_fit", "diagnostics.tail_decay_fit"),
    ("diagnostics", "vanishing_rectangle", "diagnostics.vanishing_rectangle"),
    ("dissipative", "map_solution", "dissipative.map_solution"),
    ("dissipative", "equivalence_report", "dissipative.equivalence_report"),
    ("experiments", "execute", "experiments.execute"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(span for _, _, span in SPANS) + (
    "solver.manufactured_forcing",
    "artifacts.write",
    "grid.Field",
)
ARTIFACT_WRITERS = (
    "write_metadata",
    "write_series_csv",
    "write_snapshot_csv",
    "write_svg_lineplot",
)


class Tracer:
    """Aggregated spans and counters of the dghlab layers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        calls, total, self_time = self.calls, self.total, self.self_time
        stack = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _fft_counter(self, fn, inverse: bool):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            counts["numpy.fft.calls"] += 1
            if n is None:
                size = len(a)
                n = 2 * (size - 1) if inverse else size
            counts["numpy.fft.points"] += n
            return fn(a, n, *args, **kwargs)

        return wrapper

    def _artifact_writer(self, fn):
        timed = self.span("artifacts.write", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = timed(*args, **kwargs)
            counts["artifacts.bytes"] += os.stat(path).st_size
            return path

        return wrapper

    def _forcing_builder(self, fn):
        # Construction is trivial; each evaluation of the returned forcing is a span.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span("solver.manufactured_forcing", fn(*args, **kwargs))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's bindings for the duration of the block."""
        import numpy as np

        import dghlab.cli  # noqa: F401  (loads every module that binds a target)

        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "dghlab" or name.startswith("dghlab.")
        }
        replace: dict[int, tuple[object, object]] = {}
        for modname, fname, span in SPANS:
            orig = getattr(mods[f"dghlab.{modname}"], fname)
            replace[id(orig)] = (orig, self.span(span, orig))
        solver = mods["dghlab.solver"]
        orig = solver.manufactured_forcing
        replace[id(orig)] = (orig, self._forcing_builder(orig))
        for fname in ARTIFACT_WRITERS:
            orig = getattr(mods["dghlab.artifacts"], fname)
            replace[id(orig)] = (orig, self._artifact_writer(orig))

        patched: list[tuple[object, str, object]] = []
        try:
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            field_cls = mods["dghlab.grid"].Field
            orig_post_init = field_cls.__dict__["__post_init__"]
            patched.append((field_cls, "__post_init__", orig_post_init))
            field_cls.__post_init__ = self.span("grid.Field", orig_post_init)
            for fname, inverse in (("rfft", False), ("irfft", True)):
                orig = getattr(np.fft, fname)
                patched.append((np.fft, fname, orig))
                setattr(np.fft, fname, self._fft_counter(orig, inverse))
            yield self
        finally:
            for obj, attr, value in reversed(patched):
                setattr(obj, attr, value)
