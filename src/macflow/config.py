"""JSON configuration parsing with key-path error reporting.

Every section is declared once, in :data:`SCHEMA`, and read by
:func:`~macflow.schema.parse_section`, so a key a section does not declare
is an error at its key path.  ``mesh.axes`` holds 2 or 3 axes, each given by
``breakpoints`` or by ``n`` cells on ``[lo, hi]`` whose widths grow
geometrically to ``stretch`` times the first.  ``solver`` takes the fields
of :class:`~macflow.solver.SolverConfig`, and each problem declares its
``params`` beside its factory in :mod:`macflow.problems`.
:func:`~macflow.convergence.convergence_study` runs each level as this
config with its cell counts and time step changed; a config that loads
has a ``convergence`` section it can run (:func:`_check_study`).
"""

import dataclasses
import json

from .mesh import AxisPartition, MeshError, build_mesh
from .problems import PROBLEM_NAMES, make_problem
from .schema import REQUIRED, ConfigError, parse_section
from .solver import SolverConfig

__all__ = ["ConfigError", "load_config", "RunSetup"]

SCHEMA = {
    "<root>": {"mesh": (dict, REQUIRED), "problem": (dict, REQUIRED),
               "solver": (dict, REQUIRED), "output": (dict, {}),
               "convergence": (dict, None)},
    "mesh": {"axes": ([dict], REQUIRED)},
    "axis": {"n": (int, REQUIRED), "lo": (float, 0.0), "hi": (float, 1.0),
             "stretch": (float, 1.0)},
    "breakpoint axis": {"breakpoints": ([float], REQUIRED)},
    "problem": {"name": (str, REQUIRED), "params": (dict, {})},
    "solver": {f.name: (f.type, REQUIRED if f.default is dataclasses.MISSING
                        else f.default)
               for f in dataclasses.fields(SolverConfig)},
    "output": {"vtk": (bool, True), "staggered": (bool, True),
               "diagnostics": (str, "diagnostics.csv"),
               "snapshot_prefix": (str, "snapshot"),
               "dump_operators": (bool, False)},
    "convergence": {"levels": ([int], REQUIRED),
                    "dt_coarsest": (float, REQUIRED),
                    "t_end": (float, REQUIRED), "reference_n": (int, None)},
}


def _parse_axis(spec, path):
    form = "breakpoint axis" if "breakpoints" in spec else "axis"
    axis = parse_section(spec, SCHEMA[form], path)
    try:
        if form == "axis":
            return AxisPartition.geometric(axis["lo"], axis["hi"], axis["n"],
                                           axis["stretch"])
        return AxisPartition(axis["breakpoints"])
    except MeshError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_mesh(cfg, path="mesh"):
    axes = parse_section(cfg, SCHEMA["mesh"], path)["axes"]
    partitions = [_parse_axis(spec, f"{path}.axes[{k}]")
                  for k, spec in enumerate(axes)]
    try:
        return build_mesh(partitions)
    except MeshError as exc:
        raise ConfigError(f"{path}.axes", str(exc)) from None


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
    root = parse_section(raw, SCHEMA["<root>"], "<root>")
    mesh = parse_mesh(root["mesh"])

    problem_cfg = parse_section(root["problem"], SCHEMA["problem"], "problem")
    name = problem_cfg["name"]
    if name not in PROBLEM_NAMES:
        raise ConfigError("problem.name",
                          f"unknown problem {name!r}; available: "
                          f"{', '.join(PROBLEM_NAMES)}")

    solver = parse_section(root["solver"], SCHEMA["solver"], "solver")
    try:
        solver = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError("solver", str(exc)) from None
    try:
        problem = make_problem(name, mesh, problem_cfg["params"])
    except ConfigError:
        raise       # a problem.params key, already at its key path
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None

    output = parse_section(root["output"], SCHEMA["output"], "output")
    convergence = root["convergence"]
    if convergence is not None:
        convergence = parse_section(convergence, SCHEMA["convergence"],
                                    "convergence")
        _check_study(convergence, root["mesh"]["axes"], problem)
    return RunSetup(mesh, problem, solver, output, convergence, raw)


def _check_study(convergence, axes, problem):
    """A study of ``problem`` that ``convergence_study`` can run as given."""
    if len(convergence["levels"]) < 3:
        raise ConfigError("convergence.levels",
                          "a study needs at least 3 levels")
    for k, axis in enumerate(axes):
        if "breakpoints" in axis:
            raise ConfigError(f"mesh.axes[{k}]",
                              "an axis given by breakpoints cannot be refined")
    if (problem.exact is None) == (convergence["reference_n"] is None):
        reason = ("has no analytic solution; a reference level is required"
                  if problem.exact is None else "is measured against its "
                  "analytic solution; a reference level would go unused")
        raise ConfigError("convergence.reference_n",
                          f"problem {problem.name!r} {reason}")
