"""Scenario configs: a YAML document describing one experiment run.

Every field is validated before the run and unknown keys are rejected, so a
typo in a config never silently changes an experiment.  Parsing builds the
grid, parameters and initial data, and the ``SimConfig`` of every run the
kind makes, each checked by ``check_run``, so a scenario that parses can run.
The options, grid and parameter constraints and the run plan of each kind
come from ``experiments.KINDS``; the parsed scenario carries every option of
its kind, defaults filled in, and its run plan as ``Scenario.runs``.  See
the README for the schema and ``dghlab describe <kind>`` for the options.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .experiments import KINDS, Option
from .grid import Field, Grid, GridKind, make_grid
from .profiles import make_profile
from .solver import CflWarning, PhysParams, SimConfig, check_run

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


_GRID_KEYS = {"kind", "n", "half_width"}
_PARAM_KEYS = ("omega", "gamma", "lambda")
_SOLVER_KEYS = {"dt", "t_end", "snapshot_stride", "blowup_guard"}
_TOP_KEYS = {"name", "kind", "grid", "params", "initial", "solver", "output_dir", "options"}


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # a key of KINDS
    grid: Grid
    params: PhysParams
    initial: dict
    u0: Field
    solver: dict
    options: dict = field(default_factory=dict)
    # every run the kind makes, by the config key it comes from, as parsing checked it
    runs: dict[str, SimConfig] = field(default_factory=dict)
    output_dir: str | None = None

    def echo(self) -> dict:
        """Plain-data copy of the configuration for run metadata."""
        return {
            "name": self.name,
            "kind": self.kind,
            "grid": {
                "kind": self.grid.kind.value,
                "n": self.grid.n,
                "length": self.grid.length,
            },
            "params": {
                "omega": self.params.omega,
                "gamma": self.params.gamma,
                "lambda": self.params.lam,
            },
            "initial": dict(self.initial),
            "solver": dict(self.solver),
            "options": dict(self.options),
        }


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _section(doc: dict, key: str, allowed) -> dict:
    sec = _require_mapping(doc[key], key)
    _reject_unknown(sec, allowed, key)
    return sec


def _member(choices: dict, value, where: str):
    """choices[value]; ScenarioError listing the names of choices when value is none."""
    if isinstance(value, str) and value in choices:
        return choices[value]
    raise ScenarioError(f"{where} must be one of {list(choices)}, got {value!r}")


def _number(where: str, v, integer: bool = False):
    """v as a float (an int when ``integer``); ScenarioError unless it is finite."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ScenarioError(f"{where} must be {'an integer' if integer else 'a number'}, got {v!r}")
    if not (integer or math.isfinite(v)):
        raise ScenarioError(f"{where} must be finite, got {v!r}")
    return v if integer else float(v)


def _option(name: str, opt: Option, v):
    """The validated value of one option, as the runner reads it."""
    where = f"options.{name}"
    if opt.type is bool:
        if not isinstance(v, bool):
            raise ScenarioError(f"{where} must be true or false, got {v!r}")
        return v
    if opt.type is list:
        if not isinstance(v, list) or not v:
            raise ScenarioError(f"{where} must be a nonempty list of numbers, got {v!r}")
        values = [_bounded(f"{where}[{i}]", opt, x) for i, x in enumerate(v)]
        spelled = [f"{x:g}" for x in values]  # as check names and result keys spell them
        if len(set(spelled)) < len(spelled):
            raise ScenarioError(f"{where} must not repeat an entry, got {spelled}")
        return values
    return _bounded(where, opt, v)


def _bounded(where: str, opt: Option, v) -> float:
    v = _number(where, v)
    if opt.low is not None and not v > opt.low:
        raise ScenarioError(f"{where} must be > {opt.low:g}, got {v}")
    if opt.high is not None and not v < opt.high:
        raise ScenarioError(f"{where} must be < {opt.high:g}, got {v}")
    return v


def parse_scenario(doc: dict, source: str = "<config>") -> Scenario:
    """Validate a config and build the objects of its run.

    Value types are checked here; every other rule is left to the
    constructors of the run's objects (grid, parameters, initial data, solver
    settings) and to ``check_run``, whose errors become ScenarioErrors.
    ``Kind.runs`` plans every run the kind's runner makes from the configured
    one, ``check_run`` sees each, and the scenario keeps the plan, so a
    scenario that parses can run.
    """
    doc = _require_mapping(doc, source)
    _reject_unknown(doc, _TOP_KEYS, source)
    for key in ("name", "kind", "grid", "params", "initial", "solver"):
        if key not in doc:
            raise ScenarioError(f"missing required key '{key}' in {source}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name must be a nonempty string")
    kind = doc["kind"]
    spec = _member(KINDS, kind, "kind")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string path")

    gsec = _section(doc, "grid", _GRID_KEYS)
    gkind = _member({k.value: k for k in GridKind}, gsec.get("kind"), "grid.kind")
    n = _number("grid.n", gsec.get("n"), integer=True)
    if gkind is GridKind.PERIODIC and "half_width" in gsec:
        raise ScenarioError("grid.half_width applies to line grids only")
    half_width = None if gkind is GridKind.PERIODIC else _number(
        "grid.half_width", gsec.get("half_width")
    )
    psec = _section(doc, "params", _PARAM_KEYS)
    omega, gamma, lam = (_number(f"params.{k}", psec.get(k, 0.0)) for k in _PARAM_KEYS)
    isec = _require_mapping(doc["initial"], "initial")
    family, space = isec.get("family"), isec.get("space", "u")
    profile = {
        k: _number(f"initial.{k}", v) for k, v in isec.items() if k not in ("family", "space")
    }
    ssec = _section(doc, "solver", _SOLVER_KEYS)
    solver = {
        "dt": _number("solver.dt", ssec.get("dt")),
        "t_end": _number("solver.t_end", ssec.get("t_end")),
        "snapshot_stride": _number(
            "solver.snapshot_stride", ssec.get("snapshot_stride", 1), integer=True
        ),
        "blowup_guard": _number("solver.blowup_guard", ssec.get("blowup_guard", 1e3)),
    }

    if spec.grid is not None and gkind is not spec.grid:
        raise ScenarioError(f"{kind} runs on {spec.grid.value} grids")
    given = _require_mapping(doc.get("options", {}), "options")
    _reject_unknown(given, set(spec.options), "options")
    options = {}
    for key, opt in spec.options.items():
        default = opt.default(solver) if callable(opt.default) else opt.default
        options[key] = _option(key, opt, given.get(key, default))

    initial = {"family": family, "space": space, **profile}
    where = "grid"
    try:
        grid = make_grid(gkind, n, half_width)
        where = "params"
        params = PhysParams(omega, gamma, lam)
        where = "initial"
        u0 = make_profile(grid, family, space, **profile)
        where = "solver"
        runs = spec.runs(SimConfig(grid, params, **solver), options)
        with warnings.catch_warnings():  # simulate warns when the run starts
            warnings.simplefilter("ignore", CflWarning)
            for where, config in runs.items():
                check_run(config, u0)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None

    if spec.params is not None and not spec.params[0](params):
        raise ScenarioError(spec.params[1])
    return Scenario(name, kind, grid, params, initial, u0, solver, options, runs, output_dir)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_scenario(doc, source=str(path))
