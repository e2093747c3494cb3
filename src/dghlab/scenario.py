"""Scenario configs: a YAML document describing one experiment run.

Every field is validated before the run and unknown keys are rejected, so a
typo in a config never silently changes an experiment.  The options, grid
and parameter constraints of each kind come from ``experiments.KINDS``; the
parsed scenario carries every option of its kind, defaults filled in.  See
the README for the schema and ``dghlab describe <kind>`` for the options.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .experiments import KINDS, ExperimentKind, Option
from .grid import Grid, GridKind, make_grid
from .solver import PhysParams, SimConfig, step_count

__all__ = ["ExperimentKind", "Scenario", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


_GRID_KEYS = {"kind", "n", "half_width"}
_PARAM_KEYS = {"omega", "gamma", "lambda"}
_INITIAL_KEYS = {"family", "amplitude", "center", "width", "modes", "mean", "space"}
_SOLVER_KEYS = {"dt", "t_end", "snapshot_stride", "blowup_guard"}
_TOP_KEYS = {"name", "kind", "grid", "params", "initial", "solver", "output_dir", "options"}


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: ExperimentKind
    grid: Grid
    params: PhysParams
    initial: dict
    solver: dict
    options: dict = field(default_factory=dict)
    output_dir: str | None = None

    def sim_config(self, lam: float | None = None, **overrides) -> SimConfig:
        """The scenario's solver settings, with a damping rate or any of them replaced."""
        params = self.params if lam is None else replace(self.params, lam=lam)
        return SimConfig(self.grid, params, **{**self.solver, **overrides})

    def echo(self) -> dict:
        """Plain-data copy of the configuration for run metadata."""
        return {
            "name": self.name,
            "kind": self.kind.value,
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


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _number(mapping: dict, key: str, where: str, default=None, minimum=None):
    if key not in mapping:
        if default is None:
            raise ScenarioError(f"missing required key '{key}' in {where}")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number, got {v!r}")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{where}.{key} must be >= {minimum}, got {v}")
    return float(v)


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
        return [_bounded(f"{where}[{i}]", opt, x) for i, x in enumerate(v)]
    return _bounded(where, opt, v)


def _bounded(where: str, opt: Option, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {v!r}")
    if opt.low is not None and not v > opt.low:
        raise ScenarioError(f"{where} must be > {opt.low:g}, got {v}")
    if opt.high is not None and not v < opt.high:
        raise ScenarioError(f"{where} must be < {opt.high:g}, got {v}")
    return float(v)


def parse_scenario(doc: dict, source: str = "<config>") -> Scenario:
    doc = _require_mapping(doc, source)
    _reject_unknown(doc, _TOP_KEYS, source)
    for key in ("name", "kind", "grid", "params", "initial", "solver"):
        if key not in doc:
            raise ScenarioError(f"missing required key '{key}' in {source}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name must be a nonempty string")
    try:
        kind = ExperimentKind(doc["kind"])
    except ValueError:
        raise ScenarioError(
            f"unknown experiment kind {doc['kind']!r}; choose from "
            f"{[k.value for k in ExperimentKind]}"
        ) from None

    gsec = _require_mapping(doc["grid"], "grid")
    _reject_unknown(gsec, _GRID_KEYS, "grid")
    gkind = gsec.get("kind")
    if gkind not in ("periodic", "line"):
        raise ScenarioError(f"grid.kind must be 'periodic' or 'line', got {gkind!r}")
    n = gsec.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ScenarioError(f"grid.n must be an integer, got {n!r}")
    if gkind == "periodic":
        if "half_width" in gsec:
            raise ScenarioError("grid.half_width applies to line grids only")
        grid = make_grid(GridKind.PERIODIC, n)
    else:
        half_width = _number(gsec, "half_width", "grid", minimum=1e-12)
        grid = make_grid(GridKind.TRUNCATED_LINE, n, half_width)

    psec = _require_mapping(doc["params"], "params")
    _reject_unknown(psec, _PARAM_KEYS, "params")
    params = PhysParams(
        omega=_number(psec, "omega", "params", default=0.0),
        gamma=_number(psec, "gamma", "params", default=0.0),
        lam=_number(psec, "lambda", "params", default=0.0, minimum=0.0),
    )

    isec = _require_mapping(doc["initial"], "initial")
    _reject_unknown(isec, _INITIAL_KEYS, "initial")
    family = isec.get("family")
    if family not in ("zero", "gaussian", "cosine", "bump"):
        raise ScenarioError(f"initial.family must name a known family, got {family!r}")
    space = isec.get("space", "u")
    if space not in ("u", "m"):
        raise ScenarioError(f"initial.space must be 'u' or 'm', got {space!r}")
    initial = dict(isec)
    initial.setdefault("space", "u")

    ssec = _require_mapping(doc["solver"], "solver")
    _reject_unknown(ssec, _SOLVER_KEYS, "solver")
    solver = {
        "dt": _number(ssec, "dt", "solver", minimum=1e-15),
        "t_end": _number(ssec, "t_end", "solver", minimum=1e-15),
        "snapshot_stride": int(_number(ssec, "snapshot_stride", "solver", default=1, minimum=1)),
        "blowup_guard": _number(ssec, "blowup_guard", "solver", default=1e3, minimum=1e-15),
    }

    spec = KINDS[kind]
    given = _require_mapping(doc.get("options", {}), "options")
    _reject_unknown(given, set(spec.options), "options")
    options = {}
    for key, opt in spec.options.items():
        default = opt.default(solver) if callable(opt.default) else opt.default
        options[key] = _option(key, opt, given.get(key, default))

    steps = {"solver.dt": solver["dt"]}
    steps.update((f"options.dts[{i}]", dt) for i, dt in enumerate(options.get("dts", [])))
    for where, dt in steps.items():
        try:
            step_count(solver["t_end"], dt)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string path")

    if spec.grid is not None and grid.kind is not spec.grid:
        raise ScenarioError(f"{kind.value} runs on {spec.grid.value} grids")
    if spec.params is not None and not spec.params[0](params):
        raise ScenarioError(spec.params[1])

    return Scenario(name, kind, grid, params, initial, solver, options, output_dir)


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
