"""Command-line front end: run scenario configs, list and describe experiment kinds.

Verbs:
    dghlab run <config.yaml>     run one scenario, write artifacts
    dghlab list                  enumerate experiment kinds
    dghlab describe <kind>       explain what one kind checks, list its options
    dghlab version               print the package version

Exit codes: 0 all checks passed; 1 at least one check failed; 2 invalid
configuration or an output directory that cannot be created, found before
anything runs; 3 numerical failure (partial artifacts are kept); 4 an
unexpected error, whose traceback goes to stderr and to metadata.json.  A
reader that closes stdout early does not change the exit code.  Config
numbers must be finite, and the keys of the ``initial`` section are the
parameters of its family.  The output root defaults to ./runs and can be
overridden with DGHLAB_OUTPUT_ROOT.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .artifacts import write_metadata, write_series_csv, write_snapshot_csv, write_svg_lineplot
from .experiments import KINDS, ExperimentResult, Option, execute
from .grid import NonFiniteFieldError
from .helmholtz import apply_lambda2
from .invariants import relative_drift
from .scenario import Scenario, ScenarioError, _member, load_scenario

__all__ = ["describe", "entrypoint", "list_kinds", "main", "run_scenario"]

OUTPUT_ROOT_ENV = "DGHLAB_OUTPUT_ROOT"

def list_kinds() -> str:
    lines = ["Available experiment kinds:"]
    for name, spec in KINDS.items():
        first = spec.description.splitlines()[0]
        lines.append(f"  {name:24s} {first}")
    return "\n".join(lines)


def describe(kind_name: str) -> str:
    spec = _member(KINDS, kind_name, "kind")
    lines = [kind_name, "", spec.description]
    if spec.options:
        lines += ["", "Options:"]
        lines += [f"  {name}: {_option_summary(opt)}" for name, opt in spec.options.items()]
    return "\n".join(lines)


def _option_summary(opt: Option) -> str:
    text = {float: "float", bool: "bool", list: "list of floats"}[opt.type]
    if opt.low is not None and opt.high is not None:
        text += f" in ({opt.low:g}, {opt.high:g})"
    elif opt.low is not None:
        text += f" > {opt.low:g}"
    if not callable(opt.default):  # a derived default is stated in the help
        text += f", default {opt.default!r}"
    return f"{text} -- {opt.help}"


def _output_dir(scn: Scenario, root_override: str | None) -> Path:
    root = Path(root_override or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    if scn.output_dir is not None:
        out = Path(scn.output_dir)
        return out if out.is_absolute() else root / out
    return root / scn.name


def _write_artifacts(scn: Scenario, result: ExperimentResult, outdir: Path) -> list[str]:
    written: list[str] = []
    for name, (times, values) in result.series.items():
        p = write_series_csv(outdir / f"series_{name}.csv", times, values)
        written.append(p.name)
    for label, snap in result.snapshots:
        m = apply_lambda2(snap)
        p = write_snapshot_csv(outdir / f"snapshot_{label}.csv", snap.x, snap.values, m.values)
        written.append(p.name)
    drift_like = {
        name: (t, relative_drift(v))
        for name, (t, v) in result.series.items()
        if name in ("energy_h1", "mass") and len(v)
    }
    if drift_like:
        p = write_svg_lineplot(
            outdir / "plot_drift.svg", drift_like, scn.name, "t", "|drift|"
        )
        written.append(p.name)
    if result.snapshots:
        snaps = {label: (snap.x, snap.values) for label, snap in result.snapshots}
        p = write_svg_lineplot(outdir / "plot_snapshots.svg", snaps, scn.name, "x", "u")
        written.append(p.name)
    return written


def run_scenario(config_path: str | Path, output_root: str | None = None) -> int:
    """Run one scenario config; returns the process exit code."""
    try:
        scn = load_scenario(config_path)
    except ScenarioError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    outdir = _output_dir(scn, output_root)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create the output directory: {exc}", file=sys.stderr)
        return 2
    meta_path = outdir / "metadata.json"
    payload = {"config": scn.echo(), "version": __version__}
    try:
        result = execute(scn)
        written = _write_artifacts(scn, result, outdir)
        rc = 3 if result.numerical_failure else 0 if result.all_passed else 1
        done = {
            "status": {0: "ok", 1: "check_failed", 3: "numerical_failure"}[rc],
            "checks": [dataclasses.asdict(c) for c in result.checks],
            "results": result.metadata,
            "artifacts": sorted(written),
        }
        write_metadata(meta_path, {**payload, **done})
    except (NonFiniteFieldError, FloatingPointError, OverflowError) as exc:
        write_metadata(meta_path, {**payload, "status": "numerical_failure", "error": str(exc)})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, or results that are not strict JSON: keep a trail
        error = {"status": "error", "error": repr(exc), "trace": traceback.format_exc()}
        write_metadata(meta_path, {**payload, **error})
        print(error["trace"], end="", file=sys.stderr)
        return 4

    _emit("\n".join([*(c.line() for c in result.checks), f"artifacts: {outdir}"]))
    if rc == 3:
        print("numerical failure: the run went non-finite", file=sys.stderr)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dghlab",
        description="Scenario-driven experiments for the DGH shallow-water equation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a YAML scenario file")
    p_run.add_argument("--output-root", default=None, help=f"artifact root (or ${OUTPUT_ROOT_ENV})")
    sub.add_parser("list", help="list experiment kinds")
    p_desc = sub.add_parser("describe", help="describe one experiment kind")
    p_desc.add_argument("kind", help="experiment kind name")
    sub.add_parser("version", help="print version")

    args = parser.parse_args(argv)
    if args.verb == "run":
        return run_scenario(args.config, args.output_root)
    if args.verb == "list":
        _emit(list_kinds())
        return 0
    if args.verb == "describe":
        try:
            text = describe(args.kind)
        except ScenarioError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _emit(text)
        return 0
    if args.verb == "version":
        _emit(__version__)
        return 0
    return 2


def _emit(text: str) -> None:
    """Print text to stdout; if the reader has closed it, drop the rest quietly."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Send later writes, and the flush at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
