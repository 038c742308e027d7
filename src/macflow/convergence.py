"""Refinement harness: runs a configured problem across mesh levels (cells
per axis of the configured mesh, in 2d or 3d, uniform or stretched) with the
time step scaled proportionally to the mesh size, measures L2 errors against
an analytic solution or a fine-grid reference, and fits observed orders.

Fields are piecewise constant on axis-aligned boxes, so the difference
between solutions on two different meshes is integrated exactly by
intersecting the two box partitions axis by axis.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, load_config
from .mesh import mesh_metrics
from .solver import run_simulation

__all__ = [
    "ConvergenceLevel",
    "ConvergenceTable",
    "cell_field_difference",
    "velocity_difference",
    "convergence_study",
    "fit_order",
    "ERROR_FLOOR",
]

ERROR_FLOOR = 1e-13


def _overlap_1d(breaks_a, breaks_b):
    """Common refinement of two 1d partitions of the same interval: interval
    lengths plus the source indices on either side."""
    if abs(breaks_a[0] - breaks_b[0]) > 1e-12 or abs(breaks_a[-1] - breaks_b[-1]) > 1e-12:
        raise ValueError("partitions cover different intervals")
    merged = np.union1d(breaks_a, breaks_b)
    lengths = np.diff(merged)
    mids = 0.5 * (merged[:-1] + merged[1:])
    ia = np.clip(np.searchsorted(breaks_a, mids) - 1, 0, breaks_a.size - 2)
    ib = np.clip(np.searchsorted(breaks_b, mids) - 1, 0, breaks_b.size - 2)
    return lengths, ia, ib


def _box_l2_difference(breaks_a, values_a, breaks_b, values_b):
    """Exact L2 distance between piecewise-constant fields on two box
    partitions (one breakpoint array per axis each)."""
    dim = len(breaks_a)
    lengths, idx_a, idx_b = [], [], []
    for a in range(dim):
        ln, ia, ib = _overlap_1d(breaks_a[a], breaks_b[a])
        lengths.append(ln)
        idx_a.append(ia)
        idx_b.append(ib)
    diff = values_a[np.ix_(*idx_a)] - values_b[np.ix_(*idx_b)]
    weight = lengths[0]
    for ln in lengths[1:]:
        weight = np.multiply.outer(weight, ln)
    return math.sqrt(float(np.sum(weight * diff ** 2)))


def cell_field_difference(mesh_a, values_a, mesh_b, values_b) -> float:
    """L2 norm of the difference of two cell fields on different meshes."""
    return _box_l2_difference(
        [mesh_a.breaks[a] for a in range(mesh_a.dim)],
        np.asarray(values_a).reshape(mesh_a.cells_shape),
        [mesh_b.breaks[a] for a in range(mesh_b.dim)],
        np.asarray(values_b).reshape(mesh_b.cells_shape))


def velocity_difference(mesh_a, u_a, mesh_b, u_b) -> float:
    """L2 norm of the difference of two velocity fields, component by
    component on the dual-cell partitions."""
    total = 0.0
    for i in range(mesh_a.dim):
        breaks_a = [mesh_a.dual_breaks[a] if a == i else mesh_a.breaks[a]
                    for a in range(mesh_a.dim)]
        breaks_b = [mesh_b.dual_breaks[a] if a == i else mesh_b.breaks[a]
                    for a in range(mesh_b.dim)]
        # dual breakpoints repeat the bound when n == 1; they are strictly
        # increasing for any mesh with at least one interior face
        diff = _box_l2_difference(
            breaks_a, u_a.shaped(i), breaks_b, u_b.shaped(i))
        total += diff ** 2
    return math.sqrt(total)


@dataclass
class ConvergenceLevel:
    n: int
    h: float
    dt: float
    errors: dict
    bv_sum: float
    h1_time_integral: float
    max_u_l2: float


@dataclass
class ConvergenceTable:
    problem: str
    levels: list
    orders: dict
    flags: list
    reference_n: int | None = None

    def format(self):
        lines = [f"convergence study: {self.problem}"
                 + (f" (reference n={self.reference_n})" if self.reference_n else "")]
        lines.append(f"{'n':>6} {'h':>12} {'dt':>12} {'err_u':>13} "
                     f"{'err_p':>13} {'err_rho':>13}")
        for lv in self.levels:
            lines.append(
                f"{lv.n:6d} {lv.h:12.5e} {lv.dt:12.5e} "
                f"{lv.errors['u']:13.5e} {lv.errors['p']:13.5e} "
                f"{lv.errors['rho']:13.5e}")
        for key, order in self.orders.items():
            shown = "undefined" if order is None or math.isnan(order) else f"{order:.3f}"
            lines.append(f"order[{key}] = {shown}")
        for flag in self.flags:
            lines.append(f"note: {flag}")
        return "\n".join(lines)


def fit_order(hs, errors):
    """Least-squares slope of log(error) against log(h); None when the data
    cannot support a fit (repeated h or errors at the roundoff floor)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.unique(hs).size < hs.size or hs.size < 2:
        return None
    if np.any(errors <= ERROR_FLOOR):
        return None
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


def convergence_study(setup, levels=None, progress=None) -> ConvergenceTable:
    """Refinement study of a :class:`~macflow.config.RunSetup`: level n is
    ``load_config`` of ``setup.raw`` with n cells on every axis (bounds,
    stretch and dimension kept) and dt proportional to h.  ``levels``
    defaults to ``convergence.levels``.  Errors are against the analytic
    solution when the problem has one, else against a ``reference_n`` run
    (``load_config`` has checked that exactly one of the two is there)."""
    conv = setup.convergence
    if conv is None:
        raise ConfigError("convergence", "config has no convergence section")
    levels = list(conv["levels"] if levels is None else levels)
    if len(levels) < 3:
        raise ConfigError("convergence.levels",
                          "a study needs at least 3 levels")
    reference_n = conv["reference_n"]
    t_end = conv["t_end"]
    flags = []

    def run_one(n):
        raw = copy.deepcopy(setup.raw)
        for axis in raw["mesh"]["axes"]:
            axis["n"] = n
        n_steps = max(1, round(t_end / (conv["dt_coarsest"] * levels[0] / n)))
        raw["solver"].update(dt=t_end / n_steps, t_end=t_end)
        level = load_config(raw)
        if progress:
            shape = "x".join([str(n)] * level.mesh.dim)
            progress(f"level {shape}: dt={level.solver.dt:g}, {n_steps} steps")
        return level, run_simulation(level.problem, level.solver)

    if reference_n is not None:
        ref, ref_result = run_one(reference_n)
        ref_state = ref_result.final_state

    rows = []
    for n in levels:
        level, result = run_one(n)
        mesh, state = level.mesh, result.final_state
        if reference_n is None:
            errors = level.problem.errors_vs_exact(state)
        else:
            errors = {
                "u": velocity_difference(mesh, state.u, ref.mesh, ref_state.u),
                "p": cell_field_difference(mesh, state.p.values,
                                           ref.mesh, ref_state.p.values),
                "rho": cell_field_difference(mesh, state.rho.values,
                                             ref.mesh, ref_state.rho.values),
            }
        rows.append(ConvergenceLevel(
            n=n, h=mesh_metrics(mesh).h, dt=level.solver.dt, errors=errors,
            bv_sum=result.bv_accumulated,
            h1_time_integral=result.h1_time_integral,
            max_u_l2=result.max_u_l2))

    hs = [row.h for row in rows]
    orders = {}
    for key in ("u", "p", "rho"):
        orders[key] = order = fit_order(hs, [row.errors[key] for row in rows])
        if order is None:
            reason = ("repeated mesh size" if np.unique(hs).size < len(hs)
                      else "errors at roundoff floor")
            flags.append(f"order[{key}] undefined: {reason}")
    return ConvergenceTable(problem=setup.problem.name, levels=rows,
                            orders=orders, flags=flags, reference_n=reference_n)
