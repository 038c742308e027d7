"""Problem library: initial data, forcing, viscosity laws and (where they
exist) analytic reference solutions for the named configurations the CLI
exposes.

All spatial callables take broadcastable coordinate arrays; forcing
components additionally take the time first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import (CellScalarField, VelocityField, _gauss01, norm_l2,
                     project_face)
from .mesh import MacMesh
from .schema import REQUIRED, ConfigError, parse_section

__all__ = [
    "Problem",
    "ExactSolution",
    "constant_viscosity",
    "linear_viscosity",
    "table_viscosity",
    "make_problem",
    "PROBLEM_NAMES",
]


# -- viscosity laws -----------------------------------------------------------------

def constant_viscosity(value):
    value = float(value)
    if value <= 0.0:
        raise ValueError("viscosity must be positive")
    return lambda rho: np.full_like(np.asarray(rho, dtype=float), value)


def linear_viscosity(a, b):
    """mu(rho) = a + b rho."""
    a, b = float(a), float(b)
    return lambda rho: a + b * np.asarray(rho, dtype=float)


def table_viscosity(rho_points, mu_points):
    rho_points = np.asarray(rho_points, dtype=float)
    mu_points = np.asarray(mu_points, dtype=float)
    if rho_points.ndim != 1 or rho_points.size < 2 or mu_points.shape != rho_points.shape:
        raise ValueError("viscosity table needs matching 1d arrays of length >= 2")
    if not np.all(np.diff(rho_points) > 0.0):
        raise ValueError("viscosity table densities must be strictly increasing")
    if np.any(mu_points <= 0.0):
        raise ValueError("tabulated viscosities must be positive")
    return lambda rho: np.interp(np.asarray(rho, dtype=float), rho_points, mu_points)


# -- problem container --------------------------------------------------------------

@dataclass
class ExactSolution:
    u: tuple          # callables u_i(t, *X)
    p: object         # callable p(t, *X)
    rho: object       # callable rho(t, *X)


@dataclass
class Problem:
    name: str
    mesh: MacMesh
    rho0: object
    u0: tuple
    mu_law: object
    forcing: tuple | None = None
    time_independent_forcing: bool = False
    exact: ExactSolution | None = None

    def forcing_faces(self, t, cfg):
        """Dual-cell mean projection of the forcing at time ``t``, the end of
        the step, or its 3-point Gauss average over the step ``(t - dt, t]``,
        as ``cfg.forcing_time`` says."""
        if self.forcing is None:
            return None
        if cfg.forcing_time == "endpoint":
            fns = [(lambda *X, _f=f: _f(t, *X)) for f in self.forcing]
        else:
            nodes, tw = _gauss01(3)
            times = t - cfg.dt + nodes * cfg.dt

            def make(fc):
                def averaged(*X):
                    out = tw[0] * fc(times[0], *X)
                    for k in range(1, times.size):
                        out = out + tw[k] * fc(times[k], *X)
                    return out
                return averaged

            fns = [make(f) for f in self.forcing]
        proj = project_face(self.mesh, fns, variant="dual",
                            order=cfg.quadrature_order)
        return [proj.shaped(i).copy() for i in range(self.mesh.dim)]

    def errors_vs_exact(self, state):
        """Weighted L2 errors of a state against the analytic solution; the
        pressure is compared up to its discrete mean."""
        if self.exact is None:
            return None
        mesh = self.mesh
        t = state.t
        diffs = []
        for i in range(mesh.dim):
            centers = mesh.face_centers(i)
            exact = np.asarray(self.exact.u[i](t, *[centers[:, a] for a in
                                                    range(mesh.dim)]))
            exact = np.where(mesh.interior_mask(i).ravel(), exact, 0.0)
            diffs.append(state.u.components[i] - exact)
        centers = mesh.cell_centers()
        coords = [centers[:, a] for a in range(mesh.dim)]
        vols = mesh.cell_volumes.ravel()
        p_ex = np.asarray(self.exact.p(t, *coords), dtype=float)
        p_ex = p_ex - np.dot(vols, p_ex) / mesh.domain_measure
        rho_ex = np.asarray(self.exact.rho(t, *coords), dtype=float)
        return {"u": norm_l2(VelocityField(mesh, diffs)),
                "p": norm_l2(CellScalarField(mesh, state.p.values - p_ex)),
                "rho": norm_l2(CellScalarField(mesh, state.rho.values - rho_ex))}


_LAWS = {
    "constant": (constant_viscosity, {"value": (float, REQUIRED)}),
    "linear": (linear_viscosity, {"a": (float, REQUIRED),
                                  "b": (float, REQUIRED)}),
    "table": (table_viscosity, {"rho": ([float], REQUIRED),
                                "mu": ([float], REQUIRED)}),
}


def viscosity_from_params(params):
    """Viscosity law selected by the ``mu_law`` problem parameter, an object
    whose ``type`` names a law of ``_LAWS`` and whose other keys are exactly
    that law's arguments."""
    spec = params["mu_law"]
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ValueError(f"unknown viscosity law type {kind!r}; available: "
                         f"{', '.join(_LAWS)}")
    law, keys = _LAWS[kind]
    try:
        args = parse_section(spec, {"type": (str, REQUIRED), **keys}, "mu_law")
    except ConfigError as exc:
        # a plain ValueError, so that it is reported at the problem like
        # the law's own checks of its arguments
        raise ValueError(str(exc)) from None
    return law(*(args[key] for key in keys))


# -- polynomial bump helpers --------------------------------------------------------

def _g(s):
    return s * s * (1.0 - s) ** 2


def _dg(s):
    return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3


def _d2g(s):
    return 2.0 - 12.0 * s + 12.0 * s ** 2


def _d3g(s):
    return -12.0 + 24.0 * s


# -- named problems -----------------------------------------------------------------

_PROBLEMS = {}


def _problem(name, **params):
    """Register the decorated factory as problem ``name``, which takes the
    parameters ``key=(kind, default)`` (see :mod:`macflow.schema`)."""
    def register(factory):
        _PROBLEMS[name] = (factory, params)
        return factory
    return register


def _require_unit_box(mesh, name, dims):
    """Reject a mesh that is not the unit box [0, 1]^d of a dimension d in
    ``dims``."""
    lo, hi = mesh.bounds
    if mesh.dim not in dims or not (np.allclose(lo, 0.0)
                                    and np.allclose(hi, 1.0)):
        box = " or ".join({2: "square", 3: "cube"}[d] for d in dims)
        raise ValueError(f"problem {name!r} is defined on the unit {box}")


@_problem("mms_a", rho=(float, 1.0),
          mu_law=(dict, {"type": "constant", "value": 0.1}))
def _mms_a(mesh, params):
    """Constant density, stream-function velocity with double zeros on the
    boundary, smooth pressure; the forcing is the closed-form residual of the
    momentum equation."""
    _require_unit_box(mesh, "mms_a", (2,))
    if params["mu_law"].get("type") != "constant":
        raise ValueError("mms_a derives its forcing for a constant viscosity; "
                         "give 'mu_law' the type 'constant'")
    mu_law = viscosity_from_params(params)
    rho0_val, mu_val = params["rho"], float(params["mu_law"]["value"])
    pi = math.pi

    def u1(t, x, y):
        return _g(x) * _dg(y) * math.cos(t)

    def u2(t, x, y):
        return -_dg(x) * _g(y) * math.cos(t)

    def p_exact(t, x, y):
        return np.sin(pi * x) * np.cos(pi * y)

    def f1(t, x, y):
        ct, st = math.cos(t), math.sin(t)
        conv = _g(x) * _dg(x) * (_dg(y) ** 2 - _g(y) * _d2g(y)) * ct * ct
        lap = (_d2g(x) * _dg(y) + _g(x) * _d3g(y)) * ct
        return (rho0_val * (-_g(x) * _dg(y) * st + conv)
                - 0.5 * mu_val * lap
                + pi * np.cos(pi * x) * np.cos(pi * y))

    def f2(t, x, y):
        ct, st = math.cos(t), math.sin(t)
        conv = _g(y) * _dg(y) * (_dg(x) ** 2 - _g(x) * _d2g(x)) * ct * ct
        lap = (_d3g(x) * _g(y) + _dg(x) * _d2g(y)) * ct
        return (rho0_val * (_dg(x) * _g(y) * st + conv)
                + 0.5 * mu_val * lap
                - pi * np.sin(pi * x) * np.sin(pi * y))

    return Problem(
        name="mms_a",
        mesh=mesh,
        rho0=lambda x, y: np.full_like(np.asarray(x, dtype=float), rho0_val),
        u0=(lambda x, y: u1(0.0, x, y), lambda x, y: u2(0.0, x, y)),
        mu_law=mu_law,
        forcing=(f1, f2),
        exact=ExactSolution(
            u=(u1, u2),
            p=p_exact,
            rho=lambda t, x, y: np.full_like(np.asarray(x, dtype=float), rho0_val),
        ),
    )


# axis e of mms_b's 3d vortex A grad(g(x) g(y) g(z)) x e
STIR_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


@_problem("mms_b", velocity_amplitude=(float, 5.0), gravity=(float, 2.0),
          mu_law=(dict, {"type": "linear", "a": 0.1, "b": 0.05}))
def _mms_b(mesh, params):
    """Smooth variable density stirred by a decaying vortex under frozen
    buoyancy along the last axis; no analytic solution, accuracy is judged
    against a fine-grid run.  On the unit square the vortex is the stream
    function A g(x) g(y); on the unit cube it is A grad(g(x) g(y) g(z)) x e
    with e = ``STIR_AXIS``.  Either vanishes on every wall."""
    _require_unit_box(mesh, "mms_b", (2, 3))
    amp, grav = params["velocity_amplitude"], params["gravity"]
    two_pi = 2.0 * math.pi

    if mesh.dim == 2:
        def rho0(x, y):
            return 1.5 + 0.5 * np.sin(two_pi * x) * np.sin(two_pi * y)

        def u1(x, y):
            return amp * _g(x) * _dg(y)

        def u2(x, y):
            return -amp * _dg(x) * _g(y)

        u0 = (u1, u2)
    else:
        def rho0(x, y, z):
            return 1.5 + 0.5 * (np.sin(two_pi * x) * np.sin(two_pi * y)
                                * np.sin(two_pi * z))

        def velocity(k):
            a, b = (k + 1) % 3, (k + 2) % 3

            def u(x, y, z):
                gp = (_dg(x) * _g(y) * _g(z), _g(x) * _dg(y) * _g(z),
                      _g(x) * _g(y) * _dg(z))
                return amp * (gp[a] * STIR_AXIS[b] - gp[b] * STIR_AXIS[a])
            return u

        u0 = tuple(velocity(k) for k in range(3))

    def zero(t, *X):
        return np.zeros_like(np.asarray(X[0], dtype=float))

    def buoyancy(t, *X):
        return -grav * (rho0(*X) - 1.5)

    return Problem(
        name="mms_b",
        mesh=mesh,
        rho0=rho0,
        u0=u0,
        mu_law=viscosity_from_params(params),
        forcing=((zero,) * (mesh.dim - 1) + (buoyancy,)
                 if grav != 0.0 else None),
        time_independent_forcing=True,
    )


@_problem("rayleigh_taylor", rho_light=(float, 1.0), rho_heavy=(float, 3.0),
          amplitude=(float, 0.05), interface_width=(float, 0.02),
          gravity=(float, 1.0), perturbation=(float, 0.0),
          mu_law=(dict, {"type": "linear", "a": 0.1, "b": 0.05}))
def _rayleigh_taylor(mesh, params):
    """Heavy-over-light layering with a cosine interface and gravity acting
    on the frozen initial density; optionally seeded with a small solenoidal
    velocity so zero-forcing runs have kinetic energy to dissipate."""
    if mesh.dim != 2:
        raise ValueError("rayleigh_taylor is a 2d configuration")
    lo, hi = mesh.bounds
    lx, ly = hi[0] - lo[0], hi[1] - lo[1]
    rho_light, rho_heavy = params["rho_light"], params["rho_heavy"]
    amplitude = params["amplitude"] * ly
    width = params["interface_width"] * ly
    gravity, eps = params["gravity"], params["perturbation"]
    y_mid = lo[1] + 0.5 * ly
    if rho_light <= 0.0 or rho_heavy <= rho_light:
        raise ValueError("need 0 < rho_light < rho_heavy")

    def interface(x):
        return y_mid + amplitude * np.cos(2.0 * math.pi * (x - lo[0]) / lx)

    def rho0(x, y):
        return rho_light + (rho_heavy - rho_light) * 0.5 * (
            1.0 + np.tanh((y - interface(x)) / width))

    def u1(x, y):
        return eps * _g((x - lo[0]) / lx) * _dg((y - lo[1]) / ly) / ly

    def u2(x, y):
        return -eps * _dg((x - lo[0]) / lx) * _g((y - lo[1]) / ly) / lx

    def f1(t, x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def f2(t, x, y):
        return -gravity * rho0(x, y)

    return Problem(
        name="rayleigh_taylor",
        mesh=mesh,
        rho0=rho0,
        u0=(u1, u2),
        mu_law=viscosity_from_params(params),
        forcing=(f1, f2) if gravity != 0.0 else None,
        time_independent_forcing=True,
    )


@_problem("quiescent", rho=(float, 1.0),
          mu_law=(dict, {"type": "constant", "value": 1.0}))
def _quiescent(mesh, params):
    rho_val = params["rho"]
    zero = lambda *X: np.zeros_like(np.asarray(X[0], dtype=float))
    return Problem(
        name="quiescent",
        mesh=mesh,
        rho0=lambda *X: np.full_like(np.asarray(X[0], dtype=float), rho_val),
        u0=tuple([zero] * mesh.dim),
        mu_law=viscosity_from_params(params),
        exact=ExactSolution(
            u=tuple([lambda t, *X: np.zeros_like(np.asarray(X[0], dtype=float))]
                    * mesh.dim),
            p=lambda t, *X: np.zeros_like(np.asarray(X[0], dtype=float)),
            rho=lambda t, *X: np.full_like(np.asarray(X[0], dtype=float), rho_val),
        ),
    )


PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def make_problem(name, mesh, params=None) -> Problem:
    """Problem ``name`` on ``mesh``.  A parameter absent from ``params``
    takes its declared default; an undeclared or mistyped one is a
    :class:`~macflow.schema.ConfigError` (a ``ValueError``) at
    ``problem.params.<key>``."""
    try:
        factory, spec = _PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        ) from None
    return factory(mesh, parse_section(params or {}, spec, "problem.params"))
