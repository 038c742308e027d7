"""Executable checks of the discrete structure: exact identities, sharp
inequalities, and per-step invariants.

Every audited quantity is recomputed from the fields alone so the checks
double as integration tests of the operator layer.  Random trial fields have
i.i.d. uniform [-1, 1] entries (densities are shifted positive), exterior
velocity entries forced to zero, and a recorded seed.
"""

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import operators as ops
from .fields import (CellScalarField, VelocityField, _lp, norm_h1, norm_l2,
                     norm_lp, project_cell, project_face,
                     reconstruct_cell_to_face, reconstruct_face_to_cell,
                     reconstruct_face_to_pair, velocity_inner)
from .mesh import MacMesh, _slab, mesh_metrics

__all__ = [
    "DiagnosticsRecord",
    "check_dualities",
    "check_inequalities",
    "check_fortin",
    "step_audit",
    "coupled_residuals",
    "kinetic_energy",
    "EXACT_IDENTITY_TOL",
]

EXACT_IDENTITY_TOL = 1e-12


@dataclass
class DiagnosticsRecord:
    """Per-step audit of the invariants the scheme guarantees."""

    step: int
    t: float
    kinetic_energy: float
    dissipation: float            # integral of mu D(u):D(u) at the new level
    total_mass: float
    rho_l2: float
    rho_min: float
    rho_max: float
    bv_increment: float           # dt * sum |sigma| (rho_L - rho_K)^2 |u|
    div_max: float
    picard_iterations: int
    mass_residual: float
    momentum_residual: float
    rho_identity_residual: float
    dual_mass_residual: float
    energy_residual: float
    mass_drift: float
    p_l2: float
    u_l2: float
    u_h1_sq: float
    violations: tuple = ()

    def __post_init__(self):
        for f in dc_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"non-finite diagnostics entry {f.name}")


def kinetic_energy(rho_dual, u: VelocityField) -> float:
    """E = 1/2 sum |D_sigma| rho_{D_sigma} u_sigma^2."""
    mesh = u.mesh
    total = 0.0
    for i in range(mesh.dim):
        vols = mesh.dual_volumes(i).ravel()
        total += 0.5 * float(np.dot(vols * np.asarray(rho_dual[i]).ravel(),
                                    u.components[i] ** 2))
    return total


# -- random trial fields ------------------------------------------------------------

def _random_velocity(mesh, rng):
    return VelocityField.from_interior(
        mesh, [rng.uniform(-1.0, 1.0, mesh.faces_shape(i))
               for i in range(mesh.dim)])


def _random_cell(mesh, rng, positive=False):
    vals = rng.uniform(-1.0, 1.0, mesh.n_cells)
    if positive:
        vals = 1.5 + 0.5 * vals
    return CellScalarField(mesh, vals)


def _rel(residual, scale):
    return residual / scale if scale > 0.0 else residual


# -- exact identities ---------------------------------------------------------------

def _div_grad_residual(mesh, rng):
    q = _random_cell(mesh, rng)
    v = _random_velocity(mesh, rng)
    a = float(np.dot(mesh.cell_volumes.ravel() * q.values,
                     ops.divergence(v).values))
    b = velocity_inner(ops.pressure_gradient(q), v)
    return _rel(abs(a + b), abs(a) + abs(b))


def _diffusion_residual(mesh, rng):
    u = _random_velocity(mesh, rng)
    v = _random_velocity(mesh, rng)
    rho = _random_cell(mesh, rng, positive=True)
    mu_t = ops.viscosity_tensor(rho, lambda r: 0.5 + r)
    a = velocity_inner(ops.diffusion_apply(mu_t, u), v)
    b = ops.strain_product(mu_t, u, v)
    return _rel(abs(a + b), abs(a) + abs(b))


def _convection_duality_residual(mesh, rng, scheme="centered"):
    rho = _random_cell(mesh, rng, positive=True)
    adv = _random_velocity(mesh, rng)
    v = _random_velocity(mesh, rng)
    w = _random_velocity(mesh, rng)
    fluxes = ops.mass_fluxes(rho, adv)
    cv = ops.convection_apply(fluxes, v, scheme)
    worst = 0.0
    for i in range(mesh.dim):
        lhs = float(np.dot(mesh.dual_volumes(i).ravel() * cv.components[i],
                           w.components[i]))
        rhs = 0.0
        vs, ws = v.shaped(i), w.shaped(i)
        for j in range(mesh.dim):
            dual_phi = fluxes.dual_phi[(i, j)]
            rho_u = fluxes.rho_tilde[(i, j)] * fluxes.u_hat[(i, j)]
            val = ops._advected_values(mesh, vs, i, j, dual_phi, scheme)
            grad_w = ops._grad(mesh, ws, i, j)
            rhs -= float(np.sum(mesh.pair_volumes(i, j) * rho_u * val * grad_w))
        worst = max(worst, _rel(abs(lhs - rhs), abs(lhs) + abs(rhs)))
    return worst


def _two_path_residual(mesh, rng, scheme):
    rho = _random_cell(mesh, rng, positive=True)
    adv = _random_velocity(mesh, rng)
    v = _random_velocity(mesh, rng)
    w = _random_velocity(mesh, rng)
    fluxes = ops.mass_fluxes(rho, adv)
    a = ops.trilinear_form(fluxes, v, w, scheme)
    b = ops.trilinear_form_reconstructed(fluxes, v, w, scheme)
    return _rel(abs(a - b), abs(a) + abs(b))


def _dual_mass_residual_random(mesh, rng, dt):
    """Construct (rho_n, rho_np1, u) satisfying the primal balance exactly,
    then measure the dual-cell balance defect."""
    rho_np1 = _random_cell(mesh, rng, positive=True)
    u = _random_velocity(mesh, rng)
    fluxes = ops.mass_fluxes(rho_np1, u)
    rho_n = CellScalarField(
        mesh, rho_np1.values + dt * ops.mass_divergence(fluxes).values)
    return dual_mass_balance_residual(rho_n, fluxes, dt)


def dual_mass_balance_residual(rho_n, fluxes, dt) -> float:
    """max over interior faces of the dual-cell mass balance defect from
    ``rho_n`` to the density ``fluxes`` was built from, relative to the
    density scale."""
    mesh = rho_n.mesh
    rho_np1 = fluxes.rho
    dual_n = ops.dual_cell_density(rho_n)
    dual_np1 = ops.dual_cell_density(rho_np1)
    scale = max(float(np.max(np.abs(rho_n.values))),
                float(np.max(np.abs(rho_np1.values))),
                np.finfo(float).tiny)
    worst = 0.0
    for i in range(mesh.dim):
        flux_div = ops.dual_flux_divergence(fluxes, i)
        res = (dual_np1[i] - dual_n[i]) / dt + flux_div
        interior = mesh.interior_mask(i)
        if np.any(interior):
            worst = max(worst, float(np.max(np.abs(res[interior]))) * dt / scale)
    return worst


def _korn_identity_residual(mesh, rng):
    u = _random_velocity(mesh, rng)
    a = ops.gradient_transpose_inner(u, u)
    div = ops.divergence(u)
    b = float(np.dot(mesh.cell_volumes.ravel(), div.values ** 2))
    return _rel(abs(a - b), abs(a) + abs(b))


def _h1_gradient_residual(mesh, rng):
    u = _random_velocity(mesh, rng)
    a = norm_h1(u) ** 2
    b = ops.gradient_inner(u, u)
    return _rel(abs(a - b), abs(a) + abs(b))


def check_dualities(mesh: MacMesh, trials=100, seed=0, dt=0.1) -> dict:
    """Max relative residual over random trials for each exact identity."""
    rng = np.random.default_rng(seed)
    out = {
        "div_grad_duality": 0.0,
        "diffusion_duality": 0.0,
        "convection_duality": 0.0,
        "trilinear_two_path": 0.0,
        "dual_mass_balance": 0.0,
        "korn_identity": 0.0,
        "h1_norm_gradient": 0.0,
    }
    for k in range(trials):
        out["div_grad_duality"] = max(out["div_grad_duality"],
                                      _div_grad_residual(mesh, rng))
        out["diffusion_duality"] = max(out["diffusion_duality"],
                                       _diffusion_residual(mesh, rng))
        out["convection_duality"] = max(out["convection_duality"],
                                        _convection_duality_residual(mesh, rng))
        scheme = "centered" if k % 2 == 0 else "upwind"
        out["trilinear_two_path"] = max(out["trilinear_two_path"],
                                        _two_path_residual(mesh, rng, scheme))
        out["dual_mass_balance"] = max(out["dual_mass_balance"],
                                       _dual_mass_residual_random(mesh, rng, dt))
        out["korn_identity"] = max(out["korn_identity"],
                                   _korn_identity_residual(mesh, rng))
        out["h1_norm_gradient"] = max(out["h1_norm_gradient"],
                                      _h1_gradient_residual(mesh, rng))
    return out


# -- inequalities -------------------------------------------------------------------

def check_inequalities(mesh: MacMesh, trials=1000, seed=0) -> dict:
    """Worst observed ratios for the sharp discrete inequalities, plus the
    viscosity-bound and reconstruction-stability margins."""
    rng = np.random.default_rng(seed)
    metrics = mesh_metrics(mesh)
    c_eta = 1.0 + metrics.eta ** 2
    out = {
        "korn_ratio_max": 0.0,
        "korn_bound": math.sqrt(2.0),
        "poincare_ratio_max": 0.0,
        "poincare_bound": mesh.diameter,
        "viscosity_bound_violation": 0.0,
        "cell_face_reconstruction_ratio_max": 0.0,
        "face_cell_reconstruction_ratio_max": 0.0,
        "pair_reconstruction_ratio_max": 0.0,
        "pair_reconstruction_bound": 0.0,
        "trilinear_two_path": 0.0,
    }
    pair_bound = 0.0
    for k in range(trials):
        u = _random_velocity(mesh, rng)
        h1 = norm_h1(u)
        strain = ops.strain_tensor(u)
        strain_sq = 0.0
        for i in range(mesh.dim):
            for j in range(mesh.dim):
                strain_sq += float(np.sum(mesh.pair_volumes(i, j)
                                          * strain[(i, j)].shaped ** 2))
        if strain_sq > 0.0:
            out["korn_ratio_max"] = max(out["korn_ratio_max"],
                                        h1 / math.sqrt(strain_sq))
        if h1 > 0.0:
            out["poincare_ratio_max"] = max(out["poincare_ratio_max"],
                                            norm_l2(u) / h1)
        # viscosity bounds under convex combination
        rho = _random_cell(mesh, rng, positive=True)
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        lo, hi = rho.values.min(), rho.values.max()
        for i in range(mesh.dim):
            for j in range(i + 1, mesh.dim):
                mu = mu_t.pair(i, j)
                out["viscosity_bound_violation"] = max(
                    out["viscosity_bound_violation"],
                    float(np.max(np.maximum(lo - mu, mu - hi))) / (hi - lo + 1e-300))
        # reconstruction stability (every Lp tested non-expansive)
        q = _random_cell(mesh, rng)
        for p in (1.0, 2.0, np.inf):
            nq = norm_lp(q, p)
            for i in range(mesh.dim):
                rec = reconstruct_cell_to_face(q, i)
                # face scalars live on the dual-cell partition
                rec_norm = _face_lp(mesh, rec, i, p)
                if nq > 0.0:
                    out["cell_face_reconstruction_ratio_max"] = max(
                        out["cell_face_reconstruction_ratio_max"], rec_norm / nq)
                vi = rng.uniform(-1.0, 1.0, mesh.n_faces(i))
                cell_rec = reconstruct_face_to_cell(mesh, vi, i)
                v_norm = _face_lp(mesh, vi, i, p)
                if v_norm > 0.0:
                    out["face_cell_reconstruction_ratio_max"] = max(
                        out["face_cell_reconstruction_ratio_max"],
                        norm_lp(cell_rec, p) / v_norm)
                for j in range(mesh.dim):
                    if j == i:
                        continue
                    ui = u.components[i]
                    pair_field = reconstruct_face_to_pair(mesh, ui, i, j)
                    u_norm = _face_lp(mesh, ui, i, p)
                    if u_norm > 0.0 and not np.isinf(p):
                        ratio = norm_lp(pair_field, p) / u_norm
                        bound = 2.0 ** ((p - 1.0) / p) * c_eta
                        out["pair_reconstruction_ratio_max"] = max(
                            out["pair_reconstruction_ratio_max"], ratio / bound)
                        pair_bound = max(pair_bound, bound)
        out["trilinear_two_path"] = max(
            out["trilinear_two_path"],
            _two_path_residual(mesh, rng, "centered" if k % 2 == 0 else "upwind"))
    out["pair_reconstruction_bound"] = pair_bound
    return out


def _face_lp(mesh, values, i, p):
    return _lp(mesh.dual_volumes(i).ravel(), np.asarray(values).ravel(), p)


def check_fortin(mesh: MacMesh, order=7) -> dict:
    """Divergence preservation of the face-mean projection on polynomial
    fields vanishing on the boundary: div_M(proj v) equals the cell
    projection of div v, and is exactly zero for divergence-free v."""

    def g(s):
        return s ** 2 * (1.0 - s) ** 2

    def dg(s):
        return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3

    lo, hi = mesh.bounds
    span = hi - lo

    def xi(x, a):
        return (x - lo[a]) / span[a]

    # divergence-free stream-function field (third axis untouched in 3d)
    def u0(*X):
        return g(xi(X[0], 0)) * dg(xi(X[1], 1)) / span[1]

    def u1(*X):
        return -dg(xi(X[0], 0)) / span[0] * g(xi(X[1], 1))

    comps = [u0, u1] + [lambda *X: np.zeros_like(X[0])] * (mesh.dim - 2)
    proj = project_face(mesh, comps, variant="fortin", order=order)
    div_free_max = float(np.max(np.abs(ops.divergence(proj).values)))

    # generic (non-solenoidal) polynomial field vanishing on the boundary
    def w0(*X):
        out = np.ones_like(X[0])
        for a in range(mesh.dim):
            out = out * g(xi(X[a], a))
        return out

    comps_w = [w0] * mesh.dim

    def div_fn(*X):
        total = np.zeros_like(X[0])
        prod = [g(xi(X[a], a)) for a in range(mesh.dim)]
        for a in range(mesh.dim):
            term = dg(xi(X[a], a)) / span[a]
            for b in range(mesh.dim):
                if b != a:
                    term = term * prod[b]
            total = total + term
        return total

    proj_w = project_face(mesh, comps_w, variant="fortin", order=order)
    lhs = ops.divergence(proj_w).values
    rhs = project_cell(mesh, div_fn, order=order).values
    scale = max(float(np.max(np.abs(rhs))), np.finfo(float).tiny)
    return {
        "fortin_divergence_free": div_free_max,
        "fortin_commutes": float(np.max(np.abs(lhs - rhs))) / scale,
    }


# -- step audit ---------------------------------------------------------------------

def coupled_residuals(prev, fluxes, p, mu_t, forcing, dt, scheme):
    """Relative residuals ``(mass, momentum)`` of the coupled step equations
    from ``prev`` (a time state) to the candidate ``(rho_new, u_new, p)``.

    ``fluxes`` are the mass fluxes of the candidate ``(rho_new, u_new)``,
    which they carry, and ``mu_t`` the viscosity tensor of ``rho_new``; the
    new dual densities are derived from ``rho_new``.  Each residual is the
    dual-volume (cell-volume for the mass balance) weighted L2 norm of the
    equation, relative to the norm of its time term (mass) or to the root
    sum of squares of the norms of its separate terms (momentum)."""
    mesh, rho_new, u_new = fluxes.mesh, fluxes.rho, fluxes.u
    rho_dual_new = ops.dual_cell_density(rho_new)
    mass_r = ((rho_new.values - prev.rho.values) / dt
              + ops.mass_divergence(fluxes).values)
    mass_res = norm_l2(CellScalarField(mesh, mass_r))
    mass_scale = norm_l2(CellScalarField(mesh, prev.rho.values / dt))

    conv = ops.convection_apply(fluxes, u_new, scheme)
    diff = ops.diffusion_apply(mu_t, u_new)
    grad = ops.pressure_gradient(p)
    res_sq = 0.0
    scale_sq = 0.0
    for i in range(mesh.dim):
        vols = mesh.dual_volumes(i).ravel()
        interior = mesh.interior_mask(i).ravel()
        time_term = (rho_dual_new[i].ravel() * u_new.components[i]
                     - prev.rho_dual[i].ravel() * prev.u.components[i]) / dt
        terms = [time_term, conv.components[i], -diff.components[i],
                 grad.components[i]]
        if forcing is not None:
            terms.append(-np.asarray(forcing[i]).ravel())
        r = np.zeros(mesh.n_faces(i))
        for term in terms:
            r += term
            scale_sq += float(np.dot(vols[interior], term.ravel()[interior] ** 2))
        res_sq += float(np.dot(vols[interior], r[interior] ** 2))
    return (_rel(mass_res, mass_scale),
            _rel(np.sqrt(res_sq), np.sqrt(scale_sq)))


def step_audit(prev, next_state, cfg, mu_law, forcing=None,
               picard_iterations=0, step=0) -> DiagnosticsRecord:
    """Populate a diagnostics record from two consecutive states; violations
    beyond the configured tolerances are flagged, never raised."""
    mesh = next_state.rho.mesh
    dt = cfg.dt
    rho_n, rho_np1 = prev.rho, next_state.rho
    u_np1 = next_state.u
    violations = []

    fluxes = ops.mass_fluxes(rho_np1, u_np1)
    vols = mesh.cell_volumes.ravel()
    total_mass = float(np.dot(vols, rho_np1.values))
    prev_mass = float(np.dot(vols, rho_n.values))
    mass_drift = _rel(abs(total_mass - prev_mass), abs(prev_mass))
    if mass_drift > 1e-12:
        violations.append("mass_conservation")

    lo, hi = next_state.rho_bounds
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if rho_np1.values.min() < lo - slack or rho_np1.values.max() > hi + slack:
        violations.append("maximum_principle")

    # density L2 identity (holds when div u = 0 and the mass balance holds)
    bv_step = _bv_sum(mesh, rho_np1, u_np1)
    half_np1 = 0.5 * float(np.dot(vols, rho_np1.values ** 2))
    half_n = 0.5 * float(np.dot(vols, rho_n.values ** 2))
    half_diff = 0.5 * float(np.dot(vols, (rho_np1.values - rho_n.values) ** 2))
    rho_identity = _rel(abs(half_np1 + 0.5 * dt * bv_step + half_diff - half_n),
                        half_n)
    if rho_identity > 10.0 * cfg.linear_tol:
        violations.append("density_l2_identity")

    dual_res = dual_mass_balance_residual(rho_n, fluxes, dt)
    if dual_res > 1e-12:
        violations.append("dual_mass_balance")

    div_max = float(np.max(np.abs(ops.divergence(u_np1).values)))
    if div_max > 1e-10:
        violations.append("divergence")

    mu_t = ops.viscosity_tensor(rho_np1, mu_law)
    mass_residual, momentum_residual = coupled_residuals(
        prev, fluxes, next_state.p, mu_t, forcing, dt, cfg.advection_scheme)
    dissipation = ops.strain_product(mu_t, u_np1)
    e_new = kinetic_energy(next_state.rho_dual, u_np1)
    e_old = kinetic_energy(prev.rho_dual, prev.u)
    inertia = 0.0
    work = 0.0
    for i in range(mesh.dim):
        dv = mesh.dual_volumes(i).ravel()
        du = u_np1.components[i] - prev.u.components[i]
        inertia += 0.5 * float(np.dot(dv * np.asarray(prev.rho_dual[i]).ravel(),
                                      du ** 2))
        if forcing is not None:
            work += float(np.dot(dv * np.asarray(forcing[i]).ravel(),
                                 u_np1.components[i]))
    energy_balance = e_new - e_old + inertia + dt * dissipation - dt * work
    energy_scale = max(e_old, e_new, dt * dissipation, abs(dt * work),
                       np.finfo(float).tiny)
    energy_residual = energy_balance / energy_scale
    tol = 10.0 * cfg.picard_tol
    if cfg.advection_scheme == "centered":
        if abs(energy_residual) > tol:
            violations.append("kinetic_energy_identity")
    elif energy_residual > tol:
        violations.append("kinetic_energy_inequality")

    return DiagnosticsRecord(
        step=step,
        t=next_state.t,
        kinetic_energy=e_new,
        dissipation=dissipation,
        total_mass=total_mass,
        rho_l2=norm_l2(rho_np1),
        rho_min=float(rho_np1.values.min()),
        rho_max=float(rho_np1.values.max()),
        bv_increment=dt * bv_step,
        div_max=div_max,
        picard_iterations=picard_iterations,
        mass_residual=mass_residual,
        momentum_residual=momentum_residual,
        rho_identity_residual=rho_identity,
        dual_mass_residual=dual_res,
        energy_residual=energy_residual,
        mass_drift=mass_drift,
        p_l2=norm_l2(next_state.p),
        u_l2=norm_l2(u_np1),
        u_h1_sq=norm_h1(u_np1) ** 2,
        violations=tuple(violations),
    )


def velocity_estimate_bounds(result, mu_law) -> dict:
    """A-priori velocity estimates with their explicit data-dependent
    constants, evaluated from the run data.

    With the centered advected value the discrete kinetic energy identity
    and Young's inequality on the forcing work give

        rho_min max_n ||u^n||^2        <= rho_max ||u^0||^2 + (2 diam^2/mu_min) F
        (mu_min/4) sum_n dt ||u^n||^2_1 <= rho_max ||u^0||^2 / 2 + (diam^2/mu_min) F

    with F = sum_n dt ||f^{n+1}||^2.  Both sides are reported; the bounds are
    guaranteed for the centered scheme and observed for the upwind one."""
    rho_min, rho_max = result.final_state.rho_bounds
    sample = np.linspace(rho_min, rho_max, 1001)
    mu_min = float(np.min(mu_law(sample)))
    diam = result.final_state.rho.mesh.diameter
    forcing = result.forcing_sq_time_integral
    data = rho_max * result.initial_u_l2 ** 2
    linf_lhs = rho_min * result.max_u_l2 ** 2
    linf_rhs = data + 2.0 * diam ** 2 / mu_min * forcing
    h1_lhs = 0.25 * mu_min * result.h1_time_integral
    h1_rhs = 0.5 * data + diam ** 2 / mu_min * forcing
    slack = 1e-10 * max(linf_rhs, h1_rhs, 1e-300)
    return {
        "linf_l2_lhs": linf_lhs,
        "linf_l2_bound": linf_rhs,
        "l2_h1_lhs": h1_lhs,
        "l2_h1_bound": h1_rhs,
        "linf_l2_satisfied": bool(linf_lhs <= linf_rhs + slack),
        "l2_h1_satisfied": bool(h1_lhs <= h1_rhs + slack),
        "mu_min": mu_min,
    }


def _bv_sum(mesh, rho, u):
    """sum over interior faces of |sigma| (rho_L - rho_K)^2 |u_sigma|."""
    rs = rho.shaped
    total = 0.0
    for i in range(mesh.dim):
        inner = _slab(mesh.dim, i, 1, -1)
        area = mesh.face_measures(i)[inner]
        jump = np.diff(rs, axis=i)
        total += float(np.sum(area * jump ** 2 * np.abs(u.shaped(i)[inner])))
    return total
