"""JSON configuration parsing with key-path error reporting.

Schema (all sections except ``mesh``/``problem``/``solver`` optional):

- ``mesh.axes``: list of per-axis specs, either ``{"breakpoints": [...]}`` or
  ``{"n": int, "lo": float, "hi": float, "stretch": float}`` (geometric
  width growth, total last/first ratio).
- ``problem``: ``{"name": str, "params": {...}}``.
- ``solver``: the fields of :class:`~macflow.solver.SolverConfig`; ``dt`` and
  ``t_end`` are required, any other key is an error.
- ``output``: ``vtk``, ``staggered``, ``diagnostics``, ``snapshot_prefix``,
  ``dump_operators``.
- ``convergence``: ``levels``, ``dt_coarsest``, ``t_end``, ``reference_n``;
  :func:`~macflow.convergence.convergence_study` runs each level as this
  config with its cell counts and time step changed.

A JSON boolean is accepted only where a boolean is expected, never as a
number.
"""

import dataclasses
import json

from .mesh import AxisPartition, MeshError, build_mesh
from .problems import PROBLEM_NAMES, make_problem
from .solver import SolverConfig

__all__ = ["ConfigError", "load_config", "RunSetup"]


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_type(value, path, types):
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(path, f"expected {names}, got {type(value).__name__}")
    return value


def _expect(mapping, key, path, types, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return _check_type(mapping[key], f"{path}.{key}", types)


def _parse_axis(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(path, "axis spec must be an object")
    if "breakpoints" in spec:
        bp = spec["breakpoints"]
        if not isinstance(bp, list) or len(bp) < 2:
            raise ConfigError(f"{path}.breakpoints", "need a list of at least 2 numbers")
        try:
            return AxisPartition(bp)
        except MeshError as exc:
            raise ConfigError(f"{path}.breakpoints", str(exc)) from None
    n = _expect(spec, "n", path, int, required=True)
    lo = float(_expect(spec, "lo", path, (int, float), default=0.0))
    hi = float(_expect(spec, "hi", path, (int, float), default=1.0))
    stretch = float(_expect(spec, "stretch", path, (int, float), default=1.0))
    try:
        return AxisPartition.geometric(lo, hi, n, stretch)
    except MeshError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_mesh(cfg, path="mesh"):
    axes = _expect(cfg, "axes", path, list, required=True)
    if not 2 <= len(axes) <= 3:
        raise ConfigError(f"{path}.axes", "need 2 or 3 axes")
    partitions = [_parse_axis(spec, f"{path}.axes[{k}]")
                  for k, spec in enumerate(axes)]
    try:
        return build_mesh(partitions)
    except MeshError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_solver(cfg, path="solver"):
    """:class:`SolverConfig` from its JSON section; the dataclass fields name
    the keys, their types and which are required (those without a default)."""
    fields = {f.name: f for f in dataclasses.fields(SolverConfig)}
    for key in cfg:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown key")
    kwargs = {}
    for name, field in fields.items():
        if name in cfg or field.default is dataclasses.MISSING:
            types = (int, float) if field.type is float else field.type
            kwargs[name] = field.type(_expect(cfg, name, path, types,
                                              required=True))
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


class RunSetup:
    def __init__(self, mesh, problem, solver, output, convergence, raw):
        self.mesh = mesh
        self.problem = problem
        self.solver = solver
        self.output = output
        self.convergence = convergence
        self.raw = raw


def load_config(path_or_dict):
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("<file>", f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")

    mesh_cfg = _expect(raw, "mesh", "<root>", dict, required=True)
    mesh = parse_mesh(mesh_cfg)

    problem_cfg = _expect(raw, "problem", "<root>", dict, required=True)
    name = _expect(problem_cfg, "name", "problem", str, required=True)
    if name not in PROBLEM_NAMES:
        raise ConfigError("problem.name",
                          f"unknown problem {name!r}; available: "
                          f"{', '.join(PROBLEM_NAMES)}")
    params = _expect(problem_cfg, "params", "problem", dict, default={})

    solver = parse_solver(_expect(raw, "solver", "<root>", dict, required=True))
    try:
        problem = make_problem(name, mesh, params)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None

    output_cfg = _expect(raw, "output", "<root>", dict, default={})
    output = {
        "vtk": bool(_expect(output_cfg, "vtk", "output", bool, default=True)),
        "staggered": bool(_expect(output_cfg, "staggered", "output", bool,
                                  default=True)),
        "diagnostics": _expect(output_cfg, "diagnostics", "output", str,
                               default="diagnostics.csv"),
        "snapshot_prefix": _expect(output_cfg, "snapshot_prefix", "output",
                                   str, default="snapshot"),
        "dump_operators": bool(_expect(output_cfg, "dump_operators", "output",
                                       bool, default=False)),
    }

    conv_cfg = _expect(raw, "convergence", "<root>", dict, default=None)
    convergence = None
    if conv_cfg is not None:
        levels = _expect(conv_cfg, "levels", "convergence", list, required=True)
        if len(levels) < 3:
            raise ConfigError("convergence.levels",
                              "a study needs at least 3 levels")
        for k, n in enumerate(levels):
            _check_type(n, f"convergence.levels[{k}]", int)
        convergence = {
            "levels": levels,
            "dt_coarsest": float(_expect(conv_cfg, "dt_coarsest", "convergence",
                                         (int, float), required=True)),
            "t_end": float(_expect(conv_cfg, "t_end", "convergence",
                                   (int, float), required=True)),
            "reference_n": _expect(conv_cfg, "reference_n", "convergence",
                                   (int, type(None))),
        }
    return RunSetup(mesh, problem, solver, output, convergence, raw)
