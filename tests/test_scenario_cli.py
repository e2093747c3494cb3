import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import dghlab as d
from dghlab import scenario
from dghlab.cli import describe, main, run_scenario
from dghlab.experiments import KINDS, execute
from dghlab.scenario import ScenarioError, load_scenario, parse_scenario


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def _base_doc(**over):
    doc = {
        "name": "unit",
        "kind": "FreeRun",
        "grid": {"kind": "periodic", "n": 64},
        "params": {"omega": 0.1, "gamma": -0.2},
        "initial": {"family": "zero"},
        "solver": {"dt": 1.0e-3, "t_end": 0.05, "snapshot_stride": 10},
    }
    doc.update(over)
    return doc


def _write(tmp_path: Path, doc, name="scn.yaml") -> Path:
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return p


# -- parsing and validation ---------------------------------------------------


def test_parse_minimal_scenario():
    scn = parse_scenario(_base_doc())
    assert scn.kind == "FreeRun"
    assert scn.grid.n == 64 and scn.grid.is_periodic
    assert scn.params.omega == 0.1 and scn.params.lam == 0.0
    assert scn.initial["space"] == "u"
    assert scn.solver["blowup_guard"] == 1e3


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="typo_key"):
        parse_scenario(_base_doc(typo_key=1))
    doc = _base_doc()
    doc["grid"]["resolution"] = 64
    with pytest.raises(ScenarioError, match="resolution"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["solver"]["dt_max"] = 0.1
    with pytest.raises(ScenarioError, match="dt_max"):
        parse_scenario(doc)


def test_parse_rejects_bad_values():
    with pytest.raises(ScenarioError, match="kind"):
        parse_scenario(_base_doc(kind="Bogus"))
    doc = _base_doc()
    doc["initial"]["family"] = "sawtooth"
    with pytest.raises(ScenarioError, match="family"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["initial"] = {"family": "zero", "space": "q"}
    with pytest.raises(ScenarioError, match="space"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["params"]["lambda"] = -0.5
    with pytest.raises(ScenarioError):
        parse_scenario(doc)
    doc = _base_doc()
    doc["grid"] = {"kind": "periodic", "n": 64, "half_width": 5.0}
    with pytest.raises(ScenarioError, match="half_width"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["grid"] = {"kind": "line", "n": 64}
    with pytest.raises(ScenarioError, match="half_width"):
        parse_scenario(doc)
    doc = _base_doc(kind="TailFormation", options={"rate_tol": "0.05"})
    doc["grid"] = {"kind": "line", "n": 64, "half_width": 5.0}
    with pytest.raises(ScenarioError, match="rate_tol must be a number"):
        parse_scenario(doc)
    doc = _base_doc(kind="InvariantAudit", options={"discriminate_h2": "no"})
    with pytest.raises(ScenarioError, match="discriminate_h2 must be true or false"):
        parse_scenario(doc)
    doc = _base_doc(kind="DissipativeEquivalence", options={"lambdas": []})
    doc["params"] = {"omega": 0.0, "gamma": 0.0}
    with pytest.raises(ScenarioError, match="lambdas must be a nonempty list"):
        parse_scenario(doc)
    doc["options"] = {"lambdas": [0]}
    with pytest.raises(ScenarioError, match=r"lambdas\[0\] must be > 0"):
        parse_scenario(doc)
    # list entries are told apart by their :g spelling, which names checks and result keys
    doc["options"] = {"lambdas": [0.5, 0.5000001]}
    repeated = r"lambdas must not repeat an entry, got \['0.5', '0.5'\]"
    with pytest.raises(ScenarioError, match=repeated):
        parse_scenario(doc)
    doc = _base_doc(kind="ManufacturedConvergence", options={"dts": [3.2e-3, 3.2e-3]})
    with pytest.raises(ScenarioError, match="options.dts must not repeat an entry"):
        parse_scenario(doc)
    doc = _base_doc()
    doc["solver"]["t_end"] = 0.0505
    with pytest.raises(ScenarioError, match="solver.dt: t_end = 0.0505 is not an integer"):
        parse_scenario(doc)
    doc = _base_doc(kind="ManufacturedConvergence", options={"dts": [1.6e-3, 7.0e-4]})
    doc["solver"]["t_end"] = 0.096
    with pytest.raises(ScenarioError, match=r"options.dts\[1\]: t_end = 0.096 is not an integer"):
        parse_scenario(doc)
    # the ladder is every run ManufacturedConvergence makes; solver.dt only seeds its default
    doc["options"] = {"dts": [1.6e-3, 8.0e-4]}
    doc["solver"]["dt"] = 7.0e-4
    assert parse_scenario(doc).solver["dt"] == 7.0e-4
    line = {"kind": "line", "n": 64, "half_width": 5.0}
    for section, value, match in [
        ("initial", {"family": "zero", "amplitude": 1.0}, "initial: zero.*'amplitude'"),
        ("initial", {"family": "gaussian", "modes": 2}, "initial: gaussian.*'modes'"),
        ("initial", {"family": "gaussian", "amplitude": "big"}, "initial.amplitude must be a number"),
        ("initial", {"family": "gaussian", "amplitude": 1e400}, "initial.amplitude must be finite"),
        ("initial", {"family": "cosine", "modes": 1.5}, "initial: modes must be a whole number"),
        ("initial", {"family": "gaussian", "width": -1}, "initial: width must be positive"),
        ("grid", {"kind": "periodic", "n": 8}, "grid: need at least 16 nodes"),
        ("grid", {"kind": "torus", "n": 64}, "grid.kind must be one of"),
        ("params", {"omega": math.nan}, "params.omega must be finite"),
        ("solver", {"dt": 1e-3, "t_end": math.inf}, "solver.t_end must be finite"),
        ("solver", {"dt": 1e-3, "t_end": 0.05, "snapshot_stride": 2.5}, "snapshot_stride must be an integer"),
        ("solver", {"dt": 0.05, "t_end": 0.5}, "solver.dt: dt = 0.05 exceeds twice the advisory CFL"),
        ("solver", {"dt": 1e-310, "t_end": 0.05}, "solver.dt: t_end / dt = 0.05 / 1e-310 is not a finite"),
        ("solver", {"dt": 1e-10, "t_end": 1e300}, "solver.dt: t_end / dt = 1e.300 / 1e-10 is not a finite"),
        ("solver", {"dt": 1e-10, "t_end": 1e5}, "solver.dt: t_end / dt = 1e.15 steps exceeds the cap"),
        ("solver", {"dt": 1e-3, "t_end": 1e5, "snapshot_stride": 1}, "solver.dt: t_end / dt = 1e.08 steps"),
        ("solver", {"dt": 1e-3, "t_end": 5e3, "snapshot_stride": 1}, "solver.dt: the run would store 3.2e.08"),
        ("grid", {"kind": "periodic", "n": 10**12}, "grid: at most 16777216 nodes"),
    ]:
        doc = _base_doc(initial={"family": "cosine", "amplitude": 0.05})
        doc[section] = value
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(doc)
    doc = _base_doc(grid=line, initial={"family": "cosine"})
    with pytest.raises(ScenarioError, match="initial: cosine initial data needs a periodic grid"):
        parse_scenario(doc)
    # runs a kind derives from the configured one are held to the same caps
    doc = _base_doc(kind="DissipativeEquivalence", options={"lambdas": [1e-6]})
    doc["params"] = {"omega": 0.0, "gamma": 0.0}
    doc["solver"] = {"dt": 1e-3, "t_end": 8000, "snapshot_stride": 2}
    with pytest.raises(ScenarioError, match="options.lambdas: the run would store 5.1e.08"):
        parse_scenario(doc)
    doc = _base_doc(kind="InvariantAudit", options={"discriminate_h2": False})
    assert parse_scenario(doc).options["discriminate_h2"] is False


def test_parse_fills_and_normalizes_options():
    doc = _base_doc(kind="ManufacturedConvergence", options={"order": 4, "error_tol": 1e-7})
    scn = parse_scenario(doc)
    assert scn.options == {"dts": [2e-3, 1e-3], "error_tol": 1e-7, "order": 4.0, "order_tol": 0.2}
    assert type(scn.options["order"]) is float
    assert set(parse_scenario(_base_doc(kind="InvariantAudit")).options) == set(
        KINDS["InvariantAudit"].options
    )


def test_parse_kind_specific_constraints():
    doc = _base_doc(kind="DissipativeEquivalence")
    with pytest.raises(ScenarioError, match="omega = gamma = 0"):
        parse_scenario(doc)
    doc = _base_doc(kind="ContinuationProbe")
    doc["params"] = {"omega": 0.1, "gamma": 0.3}
    with pytest.raises(ScenarioError, match="-2 omega"):
        parse_scenario(doc)
    # gamma = -2 omega up to rounding relative to |gamma|: the probe's own rule
    doc["params"] = {"omega": 10.0, "gamma": -20.0 + 1e-11}
    doc["solver"]["dt"] = 1e-4
    scn = parse_scenario(doc)
    (cfg,) = scn.runs.values()
    d.continuation_probe(d.Trajectory(cfg, [0.0], [scn.u0], d.Termination.COMPLETED))
    doc = _base_doc(kind="ManufacturedConvergence")
    doc["grid"] = {"kind": "line", "n": 64, "half_width": 5.0}
    with pytest.raises(ScenarioError, match="periodic"):
        parse_scenario(doc)
    line = {"kind": "line", "n": 64, "half_width": 5.0}
    for kind in ("SupportPropagation", "TailFormation"):
        with pytest.raises(ScenarioError, match=f"{kind} runs on line grids"):
            parse_scenario(_base_doc(kind=kind))
        # decaying line data have a compact m + omega + gamma/2 only for gamma = -2 omega
        with pytest.raises(ScenarioError, match=f"{kind} requires gamma = -2 omega"):
            parse_scenario(_base_doc(kind=kind, grid=line, params={"omega": 0.1, "gamma": 0.0}))
        assert parse_scenario(_base_doc(kind=kind, grid=line)).params.gamma == -0.2


def test_load_scenario_io_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("{unclosed: [")
    with pytest.raises(ScenarioError, match="YAML"):
        load_scenario(bad)


LOADERS = [
    yaml.SafeLoader,
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml"),
    ),
]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_every_config_loads_alike_under_both_yaml_loaders(path, monkeypatch):
    text = path.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    echoes = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        echoes.append(load_scenario(path).echo())
    assert echoes[0] == echoes[1]


@pytest.mark.parametrize("loader", LOADERS, ids=["SafeLoader", "CSafeLoader"])
def test_malformed_yaml_exits_two_under_each_loader(loader, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
    bad = tmp_path / "bad.yaml"
    for text in ("{unclosed: [", "name: a\n  kind: b\n- c", "a: b: c"):
        bad.write_text(text)
        assert run_scenario(bad, str(tmp_path / "out")) == 2
        assert "is not valid YAML" in capsys.readouterr().err


# -- CLI verbs ----------------------------------------------------------------


def test_cli_list_and_describe(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "SupportPropagation" in out and "ManufacturedConvergence" in out
    assert len([l for l in out.splitlines() if l.startswith("  ")]) == 7

    assert main(["describe", "TailFormation"]) == 0
    out = capsys.readouterr().out
    assert "exponential tails" in out

    assert main(["describe", "Bogus"]) == 2


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == d.__version__


def test_describe_covers_every_kind():
    for kind in KINDS:
        text = describe(kind)
        assert kind in text and len(text) > 80
        for name in KINDS[kind].options:
            assert f"  {name}: " in text


def test_module_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(d.__file__).resolve().parents[1])}
    for module in ("dghlab.cli", "dghlab"):
        out = subprocess.run(
            [sys.executable, "-m", module, "version"], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0
        assert out.stdout.strip() == d.__version__


def test_a_closed_stdout_ends_quietly_with_the_verbs_exit_code(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(d.__file__).resolve().parents[1])}
    failing = _base_doc(name="impossible", kind="InvariantAudit", initial={"family": "cosine"})
    failing["options"] = {"energy_tol": 1e-30}
    out = str(tmp_path / "out")
    for argv, code in [
        (["describe", "FreeRun"], 0),
        (["list"], 0),
        (["version"], 0),
        (["run", str(_write(tmp_path, _base_doc())), "--output-root", out], 0),
        (["run", str(_write(tmp_path, failing, "fail.yaml")), "--output-root", out], 1),
    ]:
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dghlab", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code, argv
        assert "Error" not in proc.stderr and "Traceback" not in proc.stderr, argv


# -- CLI run: exit codes and artifacts ----------------------------------------


def test_run_zero_scenario_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, _base_doc(name="zero-run"))
    rc = main(["run", str(cfg), "--output-root", str(tmp_path / "out")])
    assert rc == 0
    outdir = tmp_path / "out" / "zero-run"
    meta = json.loads((outdir / "metadata.json").read_text())
    assert meta["status"] == "ok"
    assert (outdir / "series_energy_h1.csv").exists()
    assert (outdir / "series_mass.csv").exists()
    assert (outdir / "plot_drift.svg").exists()
    assert (outdir / "plot_snapshots.svg").exists()
    assert any(f.startswith("snapshot_") for f in meta["artifacts"])
    # zero data: every table entry is exactly zero
    for name in ("series_energy_h1.csv", "series_mass.csv"):
        rows = (outdir / name).read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)
    out = capsys.readouterr().out
    assert "PASS finite_trajectory" in out


def test_run_cfl_rejection_exit_two(tmp_path, capsys):
    doc = _base_doc(name="toolarge")
    doc["initial"] = {"family": "cosine", "amplitude": 0.05}
    doc["solver"] = {"dt": 0.05, "t_end": 0.5, "snapshot_stride": 2}
    cfg = _write(tmp_path, doc)
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 2
    assert "CFL" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before anything is written


@pytest.mark.parametrize("stride", [1, 5])
def test_run_of_zero_steps_exit_two(tmp_path, capsys, stride):
    doc = _base_doc(name="zero-steps")
    doc["solver"] = {"dt": 1.0e-3, "t_end": 1.0e-12, "snapshot_stride": stride}
    cfg = _write(tmp_path, doc)
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 2
    assert "shorter than one step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_odd_step_count_under_the_default_ladder_names_the_default(tmp_path, capsys):
    # the default ladder [2 dt, dt] needs t_end to be an even number of dt steps
    doc = _base_doc(name="odd-ladder", kind="ManufacturedConvergence")
    doc["initial"] = {"family": "cosine", "amplitude": 0.05}
    doc["solver"] = {"dt": 1.0e-3, "t_end": 3.0e-3}
    cfg = _write(tmp_path, doc)
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "options.dts" in err and "default" in err


def test_run_is_deterministic(tmp_path):
    doc = _base_doc(name="det", kind="InvariantAudit")
    doc["initial"] = {"family": "cosine", "amplitude": 0.02, "modes": 1}
    doc["solver"] = {"dt": 5.0e-4, "t_end": 0.02, "snapshot_stride": 4}
    cfg = _write(tmp_path, doc)
    rc1 = run_scenario(cfg, output_root=str(tmp_path / "a"))
    rc2 = run_scenario(cfg, output_root=str(tmp_path / "b"))
    assert rc1 == rc2 == 0
    for name in ("series_energy_h1.csv", "series_mass.csv", "series_h2_as_written.csv"):
        a = (tmp_path / "a" / "det" / name).read_bytes()
        b = (tmp_path / "b" / "det" / name).read_bytes()
        assert a == b


def test_run_invalid_config_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, _base_doc(unknown_top_key=True))
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_consecutive_main_calls_carry_no_state(tmp_path, capsys, monkeypatch):
    bad = _write(tmp_path, _base_doc(unknown_top_key=True), "bad.yaml")
    good = _write(tmp_path, _base_doc(), "good.yaml")
    assert main(["run", str(bad), "--output-root", str(tmp_path / "first")]) == 2
    assert main(["list"]) == 0
    out = capsys.readouterr()
    assert "invalid config" in out.err and "Available experiment kinds" in out.out
    with pytest.raises(SystemExit) as exc:
        main(["describe"])
    assert exc.value.code == 2
    assert main(["describe", "FreeRun"]) == 0
    # The root given to the first run must not become the default of the next.
    monkeypatch.setenv("DGHLAB_OUTPUT_ROOT", str(tmp_path / "env"))
    assert main(["run", str(good)]) == 0
    assert (tmp_path / "env" / "unit" / "metadata.json").is_file()
    assert not (tmp_path / "first").exists()
    assert main(["version"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == d.__version__


def test_run_unwritable_output_dir_exit_two(tmp_path, capsys):
    root = tmp_path / "out"
    root.mkdir()
    (root / "afile").write_text("")
    cfg = _write(tmp_path, _base_doc(output_dir="afile/sub"))
    assert main(["run", str(cfg), "--output-root", str(root)]) == 2
    assert "cannot create the output directory" in capsys.readouterr().err
    assert [p.name for p in root.iterdir()] == ["afile"]  # nothing written


def test_run_failing_check_exit_one(tmp_path, capsys):
    doc = _base_doc(name="impossible", kind="InvariantAudit")
    doc["initial"] = {"family": "cosine", "amplitude": 0.02}
    doc["solver"] = {"dt": 5.0e-4, "t_end": 0.02, "snapshot_stride": 4}
    doc["options"] = {"energy_tol": 1e-30}
    cfg = _write(tmp_path, doc)
    rc = main(["run", str(cfg), "--output-root", str(tmp_path / "out")])
    assert rc == 1
    meta = json.loads((tmp_path / "out" / "impossible" / "metadata.json").read_text())
    assert meta["status"] == "check_failed"
    assert meta["config"]["options"]["mass_tol"] == 1e-8  # defaults are echoed
    assert "FAIL energy_drift" in capsys.readouterr().out


def test_run_numerical_failure_exit_three(tmp_path, capsys, monkeypatch):
    # the run goes non-finite while stepping: every right-hand side is NaN
    kernel = d.solver._kernel

    def nan_kernel(grid, p):
        decode, _ = kernel(grid, p)
        return decode, lambda v, rows: np.full_like(v, np.nan)

    monkeypatch.setattr(d.solver, "_kernel", nan_kernel)
    doc = _base_doc(name="blowup")
    doc["initial"] = {"family": "gaussian", "amplitude": 1.0, "width": 1.0}
    doc["grid"] = {"kind": "line", "n": 64, "half_width": 5.0}
    cfg = _write(tmp_path, doc)
    rc = main(["run", str(cfg), "--output-root", str(tmp_path / "out")])
    assert rc == 3
    # the metadata document is still written on the failure path
    meta = json.loads((tmp_path / "out" / "blowup" / "metadata.json").read_text())
    assert meta["status"] == "numerical_failure"
    assert "numerical failure" in capsys.readouterr().err
    # every kind, and the damped audit, reports such a run as a numerical failure
    damped = _base_doc(name="damped", kind="InvariantAudit", initial={"family": "cosine"})
    damped["params"] = {"omega": 0.0, "gamma": 0.0, "lambda": 0.5}
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    for cfg in configs + [_write(tmp_path, damped)]:
        assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 3, cfg.name
        assert "numerical failure" in capsys.readouterr().err


def test_run_error_exit_four(tmp_path, capsys, monkeypatch):
    def runner(scn):
        raise RuntimeError("a bug in the runner")

    kind = "FreeRun"
    monkeypatch.setitem(KINDS, kind, replace(KINDS[kind], runner=runner))
    cfg = _write(tmp_path, _base_doc(name="bug"))
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 4
    meta = json.loads((tmp_path / "out" / "bug" / "metadata.json").read_text())
    assert meta["status"] == "error"
    assert "RuntimeError: a bug in the runner" in meta["trace"]
    assert "RuntimeError: a bug in the runner" in capsys.readouterr().err


def test_results_that_are_not_strict_json_exit_four(tmp_path, capsys, monkeypatch):
    kind = "FreeRun"
    free_run = KINDS[kind].runner

    def runner(scn):
        result = free_run(scn)
        result.metadata["bad"] = float("nan")
        return result

    monkeypatch.setitem(KINDS, kind, replace(KINDS[kind], runner=runner))
    cfg = _write(tmp_path, _base_doc(name="nan"))
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 4
    text = (tmp_path / "out" / "nan" / "metadata.json").read_text()
    meta = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in metadata.json"))
    assert meta["status"] == "error"
    assert "results" not in meta
    assert "Out of range float values are not JSON compliant" in meta["error"]
    assert "ValueError" in capsys.readouterr().err


def test_run_zero_data_fails_checks_exit_one(tmp_path, capsys):
    line = {"kind": "line", "n": 64, "half_width": 5.0}
    still = {"omega": 0.0, "gamma": 0.0}
    for kind, checks in [
        ("SupportPropagation", ["support_in_characteristic_cone"]),
        ("TailFormation", ["right_tail_rate", "left_tail_rate"]),
    ]:
        cfg = _write(tmp_path, _base_doc(name=kind, kind=kind, grid=line, params=still))
        assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 1
        meta = json.loads((tmp_path / "out" / kind / "metadata.json").read_text())
        assert meta["status"] == "check_failed"
        failed = [c["name"] for c in meta["checks"] if not c["passed"]]
        assert failed == checks
        out = capsys.readouterr().out
        assert all(f"FAIL {name}" in out for name in checks)


def _line_bump_doc(name, kind, n, half_width, amplitude, t_end):
    doc = _base_doc(
        name=name,
        kind=kind,
        grid={"kind": "line", "n": n, "half_width": half_width},
        params={"omega": 0.0, "gamma": 0.0},
    )
    doc["initial"] = {"family": "bump", "amplitude": amplitude, "width": 1.0, "space": "m"}
    doc["solver"] = {"dt": 1.0e-3, "t_end": t_end, "snapshot_stride": 10}
    return doc


def _failed_checks(tmp_path, doc):
    """Run doc through the CLI, expect exit 1 and return its checks by name."""
    cfg = _write(tmp_path, doc)
    assert main(["run", str(cfg), "--output-root", str(tmp_path / "out")]) == 1
    meta = json.loads((tmp_path / "out" / doc["name"] / "metadata.json").read_text())
    assert meta["status"] == "check_failed"
    return {c["name"]: c for c in meta["checks"]}


def test_support_leaving_the_cone_fails_the_check(tmp_path, monkeypatch):
    # A cone that does not follow the flow: both edge paths moved 2 to the right.
    # The grid resolves the bump's edges, so the cone is seeded near [-1, 1].
    def shifted(traj, seeds):
        paths = d.evolve_characteristics(traj, seeds)
        return replace(paths, q=paths.q + 2.0)

    monkeypatch.setattr("dghlab.experiments.evolve_characteristics", shifted)
    doc = _line_bump_doc("cone", "SupportPropagation", 2048, 20.0, 0.5, 0.05)
    checks = _failed_checks(tmp_path, doc)
    cone = checks["support_in_characteristic_cone"]
    assert not cone["passed"] and cone["value"] > 0.0
    assert checks["run_completed"]["passed"]


def test_the_cone_check_keeps_the_right_edge_after_the_left_seed_left():
    # (omega, gamma) = (-0.5, 1) carries the bump left: its left seed leaves the
    # line while the right edge is still tracked, and that edge must still count.
    doc = _line_bump_doc("cone", "SupportPropagation", 256, 4.0, 0.5, 4.0)
    doc["params"] = {"omega": -0.5, "gamma": 1.0}
    doc["solver"] = {"dt": 4.0e-3, "t_end": 4.0, "snapshot_stride": 25}
    scn = parse_scenario(doc)
    with pytest.warns(d.BoundaryDecayWarning):  # u reaches the ends
        result = execute(scn)
    s = {name: values for name, (_, values) in result.series.items()}
    slack = 3.0 * scn.grid.spacing
    left = s["char_lo"] - slack - s["support_lo"]
    right = s["support_hi"] - (s["char_hi"] + slack)
    assert 0 < np.isnan(left).sum() < left.size and not np.isnan(right).any()
    (cone,) = [c for c in result.checks if c.name == "support_in_characteristic_cone"]
    assert cone.value == max(np.nanmax(left), np.nanmax(right)) > np.nanmax(left)


def test_tail_windows_past_the_domain_fail_both_rates(tmp_path):
    # both fit windows start 15 beyond the momentum support, past the domain's ends
    doc = _line_bump_doc("tails", "TailFormation", 512, 10.0, 1.0, 0.1)
    doc["options"] = {"window_offset": 15.0}
    with pytest.warns(d.BoundaryDecayWarning):  # u ~ e^{-10} is not decayed at the ends
        checks = _failed_checks(tmp_path, doc)
    for side in ("right", "left"):
        rate = checks[f"{side}_tail_rate"]
        assert not rate["passed"] and rate["value"] is None
        assert rate["detail"] == "field is below the noise floor throughout the window"
    assert checks["run_completed"]["passed"]


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DGHLAB_OUTPUT_ROOT", str(tmp_path / "envroot"))
    cfg = _write(tmp_path, _base_doc(name="envrun"))
    assert run_scenario(cfg) == 0
    assert (tmp_path / "envroot" / "envrun" / "metadata.json").exists()


def test_scenario_output_dir_is_respected(tmp_path):
    doc = _base_doc(name="custom", output_dir="deep/nest")
    cfg = _write(tmp_path, doc)
    assert run_scenario(cfg, output_root=str(tmp_path / "root")) == 0
    assert (tmp_path / "root" / "deep" / "nest" / "metadata.json").exists()


# -- experiment runners through the scenario layer ----------------------------


def test_invariant_audit_with_discrimination(tmp_path):
    doc = {
        "name": "audit-h2",
        "kind": "InvariantAudit",
        "grid": {"kind": "periodic", "n": 128},
        "params": {"omega": 0.2, "gamma": 0.05},
        "initial": {"family": "cosine", "amplitude": 0.15},
        "solver": {"dt": 1.0e-3, "t_end": 0.25, "snapshot_stride": 25},
        "options": {"discriminate_h2": True, "energy_tol": 1e-6, "mass_tol": 1e-8},
    }
    cfg = _write(tmp_path, doc)
    rc = run_scenario(cfg, output_root=str(tmp_path / "out"))
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "audit-h2" / "metadata.json").read_text())
    assert meta["results"]["h2_conserved_variant"] == "cubic_gradient"


def test_invariant_audit_evaluates_each_h2_series_once(monkeypatch):
    snapshots, calls = [], []

    def counting_h2(u, p, variant):
        calls.append(variant)
        return d.hamiltonian_h2(u, p, variant)

    _patch_runs(monkeypatch, lambda cfg, traj: snapshots.append(len(traj.times)) or traj)
    monkeypatch.setattr("dghlab.experiments.hamiltonian_h2", counting_h2)
    doc = _base_doc(kind="InvariantAudit", options={"discriminate_h2": True})
    doc["initial"] = {"family": "cosine", "amplitude": 0.05}
    result = execute(parse_scenario(doc))
    assert len(snapshots) == 1  # one run decides the variant
    assert len(calls) == 2 * sum(snapshots)
    assert set(result.metadata["h2_drifts"]) == {v.value for v in d.H2Variant}


def test_dissipative_equivalence_scenario(tmp_path):
    doc = {
        "name": "equiv",
        "kind": "DissipativeEquivalence",
        "grid": {"kind": "periodic", "n": 128},
        "params": {"omega": 0.0, "gamma": 0.0},
        "initial": {"family": "cosine", "amplitude": 0.05},
        "solver": {"dt": 1.0e-3, "t_end": 0.5, "snapshot_stride": 10},
        "options": {"lambdas": [0.5], "error_tol": 1.0e-5},
    }
    cfg = _write(tmp_path, doc)
    assert run_scenario(cfg, output_root=str(tmp_path / "out")) == 0
    meta = json.loads((tmp_path / "out" / "equiv" / "metadata.json").read_text())
    assert meta["results"]["max_error_by_lambda"]["0.5"] < 1e-5


def _equivalence_scenario(t_end):
    doc = _base_doc(kind="DissipativeEquivalence", params={"omega": 0.0, "gamma": 0.0})
    doc["initial"] = {"family": "cosine", "amplitude": 0.05}
    doc["solver"] = {"dt": 1.0e-3, "t_end": t_end, "snapshot_stride": 10}
    return parse_scenario(doc)


def _patch_runs(monkeypatch, per_run=lambda cfg, traj: traj):
    """Pass every trajectory the runners start through ``per_run(cfg, traj)``.

    Runners start their runs at ``experiments._simulate_rows``, the batched
    entry.  per_run sees the rows in the order they were passed.  Returns the
    list of calls, each the list of configs it started.
    """
    simulate_rows = d.solver._simulate_rows
    calls = []

    def patched(cfgs, u0, *args):
        calls.append(list(cfgs))
        return [per_run(cfg, traj) for cfg, traj in zip(cfgs, simulate_rows(cfgs, u0, *args))]

    monkeypatch.setattr("dghlab.experiments._simulate_rows", patched)
    return calls


def test_dissipative_equivalence_runs_the_undamped_problem_once(monkeypatch):
    calls = []
    _patch_runs(monkeypatch, lambda cfg, traj: calls.append(cfg.params.lam) or traj)
    result = execute(_equivalence_scenario(0.1))
    assert calls == [0.0, 0.1, 0.5, 1.0]
    assert [c.name for c in result.checks] == [
        "equivalence_lambda_0.1", "equivalence_lambda_0.5", "equivalence_lambda_1",
    ]
    assert result.all_passed


def test_dissipative_equivalence_fails_lambdas_beyond_a_short_undamped_run(monkeypatch):
    # an undamped run that stops between the horizons of lambda = 0.5 and 0.1
    scn = _equivalence_scenario(0.5)
    tau = {lam: d.to_conservative_time(0.5, lam) for lam in (0.1, 0.5, 1.0)}
    assert tau[1.0] < tau[0.5] < 0.46 < tau[0.1]

    def truncated(cfg, traj):
        if cfg.params.lam > 0:
            return traj
        keep = int(np.count_nonzero(traj.times <= 0.46))
        return replace(
            traj,
            times=traj.times[:keep],
            snapshots=traj.snapshots[:keep],
            termination=d.Termination.BLOWUP_GUARD,
        )

    _patch_runs(monkeypatch, truncated)
    checks = {c.name: c for c in execute(scn).checks}
    assert not checks["equivalence_lambda_0.1"].passed
    assert checks["equivalence_lambda_0.1"].detail == "undamped run: termination=blowup_guard"
    assert checks["equivalence_lambda_0.5"].passed and checks["equivalence_lambda_1"].passed


def _cut_short(target, termination, share=0.5):
    """A per-run patch: the run of SimConfig target stops with termination
    after that share of its snapshots (halfway by default)."""

    def cut(cfg, traj):
        if cfg != target:
            return traj
        keep = int(len(traj.times) * share)
        guarded = termination is d.Termination.BLOWUP_GUARD
        return replace(
            traj,
            times=traj.times[:keep],
            snapshots=traj.snapshots[:keep],
            termination=termination,
            guard_time=float(traj.times[keep - 1]) if guarded else None,
        )

    return cut


@pytest.mark.parametrize(
    "kind, where",
    [
        ("ManufacturedConvergence", "options.dts[1]"),
        ("DissipativeEquivalence", "options.lambdas[1]"),
    ],
)
def test_a_later_run_going_non_finite_exits_three(tmp_path, monkeypatch, kind, where):
    doc = _base_doc(name="later", kind=kind, initial={"family": "cosine", "amplitude": 0.05})
    if kind == "ManufacturedConvergence":
        doc["solver"] = {"dt": 8.0e-4, "t_end": 0.096, "snapshot_stride": 12}
        doc["options"] = {"dts": [1.6e-3, 8.0e-4]}
    if kind == "DissipativeEquivalence":
        doc["params"] = {"omega": 0.0, "gamma": 0.0}
        doc["solver"]["t_end"] = 0.1
    plan = parse_scenario(doc).runs
    assert list(plan).index(where) > 0  # a run after the first
    _patch_runs(monkeypatch, _cut_short(plan[where], d.Termination.NON_FINITE))
    cfg = _write(tmp_path, doc)
    assert run_scenario(cfg, output_root=str(tmp_path / "out")) == 3
    meta = json.loads((tmp_path / "out" / "later" / "metadata.json").read_text())
    assert meta["status"] == "numerical_failure"
    assert meta["results"]["termination"] == "non_finite"


def test_dissipative_equivalence_fails_a_lambda_whose_direct_run_stopped(monkeypatch):
    scn = _equivalence_scenario(0.1)
    _patch_runs(monkeypatch, _cut_short(scn.runs["options.lambdas[1]"], d.Termination.BLOWUP_GUARD))
    result = execute(scn)
    checks = {c.name: c for c in result.checks}
    assert not checks["equivalence_lambda_0.5"].passed
    assert checks["equivalence_lambda_0.5"].detail == "direct run: termination=blowup_guard"
    assert checks["equivalence_lambda_0.1"].passed and checks["equivalence_lambda_1"].passed
    assert result.metadata["termination"] == "blowup_guard"
    assert result.metadata["guard_time"] == 0.04
    assert "0.5" not in result.metadata["max_error_by_lambda"]


@pytest.mark.parametrize(
    "shares, non_finite",
    [((0.8, 0.3), False), ((0.3, 0.8), False), ((0.8, 0.3), True)],
    ids=["first_stops_later", "first_stops_earlier", "with_a_non_finite_row"],
)
def test_a_batch_keeps_the_first_guard_time_and_the_worst_termination(monkeypatch, shares, non_finite):
    # lambdas[1] and lambdas[2] both trip the guard; lambdas[0] may go non-finite
    scn = _equivalence_scenario(0.1)
    guarded = d.Termination.BLOWUP_GUARD
    cuts = [
        _cut_short(scn.runs[f"options.lambdas[{i}]"], guarded, share)
        for i, share in zip((1, 2), shares)
    ]
    if non_finite:
        cuts.append(_cut_short(scn.runs["options.lambdas[0]"], d.Termination.NON_FINITE))
    guard_times = {}

    def per_run(cfg, traj):
        for cut in cuts:
            traj = cut(cfg, traj)
        guard_times[cfg.params.lam] = traj.guard_time
        return traj

    _patch_runs(monkeypatch, per_run)
    result = execute(scn)
    assert guard_times[0.0] is None and guard_times[0.1] is None
    assert guard_times[0.5] != guard_times[1.0]  # the times differ, so the order shows
    assert result.metadata["guard_time"] == guard_times[0.5]  # lambdas[1], first in plan order
    assert result.metadata["termination"] == ("non_finite" if non_finite else "blowup_guard")
    assert result.numerical_failure is non_finite


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_runners_start_only_the_planned_runs(path, monkeypatch):
    scn = load_scenario(path)
    calls = _patch_runs(monkeypatch)
    execute(scn)
    started = [id(cfg) for call in calls for cfg in call]
    planned = [  # DissipativeEquivalence's solver.dt entry is only checked
        id(cfg)
        for where, cfg in scn.runs.items()
        if (scn.kind, where) != ("DissipativeEquivalence", "solver.dt")
    ]
    assert sorted(started) == sorted(planned)
    assert len(set(started)) == len(started)  # each planned run starts exactly once
    assert len(calls) == 1  # one batch per runner, the forced ladder included


def test_manufactured_scenario(tmp_path):
    doc = {
        "name": "mms",
        "kind": "ManufacturedConvergence",
        "grid": {"kind": "periodic", "n": 128},
        "params": {"omega": 0.0, "gamma": 0.0},
        "initial": {"family": "cosine", "amplitude": 1.0},
        "solver": {"dt": 8.0e-4, "t_end": 1.0, "snapshot_stride": 100},
        "options": {"dts": [1.6e-3, 8.0e-4], "error_tol": 1.0e-6},
    }
    cfg = _write(tmp_path, doc)
    assert run_scenario(cfg, output_root=str(tmp_path / "out")) == 0
    meta = json.loads((tmp_path / "out" / "mms" / "metadata.json").read_text())
    assert abs(meta["results"]["observed_order"] - 4.0) <= 0.2


@pytest.mark.parametrize("initial", [{"family": "cosine", "amplitude": 0.0}, {"family": "zero"}])
def test_manufactured_zero_solution_fails_the_order_exit_one(tmp_path, initial):
    # every rung reproduces u = 0 exactly: no order can be measured from zero errors
    doc = {
        "name": "mms-zero",
        "kind": "ManufacturedConvergence",
        "grid": {"kind": "periodic", "n": 32},
        "params": {"omega": 0.0, "gamma": 0.0},
        "initial": initial,
        "solver": {"dt": 3.2e-3, "t_end": 0.096, "snapshot_stride": 30},
    }
    checks = _failed_checks(tmp_path, doc)
    assert checks["exact_solution_reproduced"]["passed"]
    order = checks["temporal_order"]
    assert not order["passed"] and order["value"] is None
    assert order["detail"] == "order undefined: an error is exactly 0"
    meta = json.loads((tmp_path / "out" / "mms-zero" / "metadata.json").read_text())
    assert meta["results"]["observed_order"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_manufactured_one_rung_ladder_writes_strict_json(tmp_path):
    # one time step measures no order; metadata.json must stay RFC 8259 JSON
    config = Path(__file__).resolve().parents[1] / "configs" / "manufactured_convergence.yaml"
    doc = yaml.safe_load(config.read_text())
    doc["options"]["dts"] = [3.2e-3]
    checks = _failed_checks(tmp_path, doc)
    assert checks["exact_solution_reproduced"]["passed"]
    text = (tmp_path / "out" / doc["name"] / "metadata.json").read_text()
    meta = json.loads(text, parse_constant=_reject_constant)
    order = checks["temporal_order"]
    assert not order["passed"] and order["value"] is None
    assert order["detail"] == "order undefined: it needs two time steps"
    assert meta["results"]["observed_order"] is None


def test_manufactured_scenario_with_damping(tmp_path):
    # the forcing must be built from the damped right-hand side that is stepped
    doc = {
        "name": "mms-damped",
        "kind": "ManufacturedConvergence",
        "grid": {"kind": "periodic", "n": 128},
        "params": {"omega": 0.0, "gamma": 0.0, "lambda": 0.5},
        "initial": {"family": "cosine", "amplitude": 1.0},
        "solver": {"dt": 8.0e-4, "t_end": 0.096, "snapshot_stride": 12},
        "options": {"dts": [1.6e-3, 8.0e-4]},
    }
    cfg = _write(tmp_path, doc)
    assert run_scenario(cfg, output_root=str(tmp_path / "out")) == 0
    meta = json.loads((tmp_path / "out" / "mms-damped" / "metadata.json").read_text())
    assert all(c["passed"] for c in meta["checks"]) and len(meta["checks"]) == 2


def _ladder_doc(t_end):
    return {
        "name": "mms-ladder",
        "kind": "ManufacturedConvergence",
        "grid": {"kind": "periodic", "n": 128},
        "params": {"omega": 0.0, "gamma": 0.0},
        "initial": {"family": "cosine", "amplitude": 1.0},
        "solver": {"dt": 8.0e-4, "t_end": t_end, "snapshot_stride": 12},
        "options": {"dts": [1.6e-3, 8.0e-4]},
    }


def test_manufactured_errors_are_taken_where_each_rung_ended():
    # t_end lies 5e-10 past the rungs' last step, inside the slack a SimConfig
    # allows: exp(-t_end) u0 would floor both errors near 4.5e-10.
    result = execute(parse_scenario(_ladder_doc(0.096 + 5e-10)))
    checks = {c.name: c for c in result.checks}
    errors = result.metadata["errors"]
    assert errors["0.0016"] == pytest.approx(4.2e-12, rel=0.02)
    assert errors["0.0008"] == pytest.approx(2.6e-13, rel=0.02)
    assert checks["temporal_order"].passed and abs(checks["temporal_order"].value - 4.0) < 0.01


def test_manufactured_fails_a_rung_that_stopped(monkeypatch):
    scn = parse_scenario(_ladder_doc(0.096))
    _patch_runs(monkeypatch, _cut_short(scn.runs["options.dts[1]"], d.Termination.BLOWUP_GUARD))
    result = execute(scn)
    checks = {c.name: c for c in result.checks}
    exact = checks["exact_solution_reproduced"]
    assert not exact.passed and exact.detail == "termination=blowup_guard"
    order = checks["temporal_order"]
    assert not order.passed and order.detail == "order undefined: termination=blowup_guard"
    assert result.metadata["observed_order"] is None


# -- a fuzz over the registry -------------------------------------------------

# numbers at the edges every validator has to draw a line at, and non-numbers
_EDGES = (0.0, -0.0, 5e-324, 1e-300, 0.5, -1.0, 1e300, math.inf, math.nan, "x", True, None)
# (omega, gamma) pairs; each kind runs on the ones its parameter rule admits
_PARAMS = ((0.0, 0.0), (0.1, -0.2), (-0.3, 0.6), (0.2, 0.1))


def _option_values(opt, dt: float, t_end: float) -> tuple[list, list]:
    """Values an option accepts, and edge values, from its type and bounds."""
    if opt.type is bool:
        return [True, False], [1, "yes", None]
    if opt.type is list:
        # entries that divide t_end into a few steps, as a time-step ladder needs
        accepted = [[dt], sorted({t_end, dt}, reverse=True)]
        return accepted, [[], [dt, dt], [2 * t_end], [1e-300], [-1.0], "x", 0.5]
    bounds = [b for b in (opt.low, opt.high) if b is not None]
    near = [math.nextafter(b, s) for b in bounds for s in (-math.inf, math.inf)]
    return [opt.default], [*bounds, *near, *_EDGES]


@st.composite
def _fuzzed_config(draw):
    """A config the kind accepts, from KINDS, with up to two leaves set to edge values."""
    name = draw(st.sampled_from(sorted(KINDS)))
    kind = KINDS[name]
    grid_kind = kind.grid or draw(st.sampled_from(list(d.GridKind)))
    line = grid_kind is d.GridKind.TRUNCATED_LINE
    grid = {"kind": grid_kind.value, "n": draw(st.sampled_from([16, 17, 33, 64]))}
    if line:
        grid["half_width"] = draw(st.sampled_from([4.0, 8.0]))
    allowed = [pq for pq in _PARAMS if kind.params is None or kind.params[0](d.PhysParams(*pq))]
    omega, gamma = draw(st.sampled_from(allowed))
    lam = draw(st.sampled_from([0.0, 0.1]))
    family = draw(st.sampled_from(["zero", "gaussian", "bump"] + ([] if line else ["cosine"])))
    initial = {"family": family}
    if family != "zero":
        initial["amplitude"] = draw(st.sampled_from([0.05, 0.5]))
    if family in ("gaussian", "bump"):
        initial.update(center=0.0 if line else 0.5, width=1.0 if line else 0.2)
    initial["space"] = draw(st.sampled_from(["u", "m"]))
    dt = draw(st.sampled_from([1e-3, 1e-2]))
    t_end = dt * draw(st.sampled_from([1, 2, 4]))
    solver = {"dt": dt, "t_end": t_end, "snapshot_stride": draw(st.sampled_from([1, 2]))}
    values = {k: _option_values(o, dt, t_end) for k, o in kind.options.items()}
    options = {k: draw(st.sampled_from(ok)) for k, (ok, _) in values.items() if draw(st.booleans())}
    doc = {
        "name": "fuzz",
        "kind": name,
        "grid": grid,
        "params": {"omega": omega, "gamma": gamma, "lambda": lam},
        "initial": initial,
        "solver": solver,
        "options": options,
    }
    leaves = [
        ("grid", "kind", ["periodic", "line", "circle", 1]),
        ("grid", "n", [15, 16, 32.0, True, -16, 2**40, *_EDGES]),
        ("grid", "half_width", [1e-3, 1.0, *_EDGES]),
        ("params", "omega", _EDGES),
        ("params", "gamma", _EDGES),
        ("params", "lambda", [1e3, *_EDGES]),
        ("initial", "family", ["cosine", "sawtooth", 1.0]),
        ("initial", "space", ["v", None]),
        ("initial", "amplitude", [1e3, *_EDGES]),
        ("initial", "width", _EDGES),
        ("initial", "modes", [2, 1.5, *_EDGES]),
        ("initial", "mean", _EDGES),
        # no dt or t_end of many valid steps: those only make the run long
        ("solver", "dt", [0.25, *_EDGES]),
        ("solver", "t_end", [2.5 * dt, *_EDGES]),
        ("solver", "snapshot_stride", [0, 1.5, 10**9, *_EDGES]),
        ("solver", "blowup_guard", [1e-12, 1e308, *_EDGES]),
        *(("options", k, edges) for k, (_, edges) in values.items()),
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        section, key, edges = draw(st.sampled_from(leaves))
        doc[section][key] = draw(st.sampled_from(edges))
    return doc


@given(doc=_fuzzed_config())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path_factory, doc):
    # 0 ok, 1 failed check, 2 invalid config, 3 numerical failure; 4 is a bug
    root = tmp_path_factory.mktemp("fuzz")
    cfg = _write(root, doc)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # CFL and boundary-decay warnings are expected
            rc = run_scenario(cfg, output_root=str(root / "out"))
    assert rc in (0, 1, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    for meta in (root / "out").rglob("metadata.json"):
        json.loads(meta.read_text(), parse_constant=_reject_constant)
