"""Implicit time stepping: coupled mass/momentum/divergence system advanced
by Picard (frozen-flux) iteration.

Each iteration solves the linear implicit upwind transport system for the
density, rebuilds fluxes, dual densities and face viscosities, then solves
the linearized (Oseen-type) saddle-point system for velocity and pressure
with the zero-mean pressure constraint imposed through a single Lagrange
multiplier row/column.  Convergence is declared on the nonlinear residuals of
the coupled system; a trailing transport solve with the accepted velocity
leaves the published state satisfying the mass balance in every cell to a
residual of at most ``TRANSPORT_RTOL`` (1e-14) times the largest entry of
the right-hand side.

Linear solves follow one policy.  Transport systems are solved by
Jacobi-preconditioned BiCGSTAB, whose answer is accepted only within that
max-norm bound; otherwise the system is factored directly.  In 2d,
:class:`LinearSolve` keeps the SuperLU factor of the first reduced
stream-function system of a run and solves every later one by GMRES, applied
matrix-free and preconditioned by that lagged factor (Knoll & Keyes,
J. Comput. Phys. 193, 2004).  It refactors only when GMRES stagnates or the
residual check of the original equations fails.  A 2d step whose Picard
loop stalls is retried once with every reduced system factored afresh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import operators as ops
from . import verification
from .fields import (CellScalarField, VelocityField, norm_l2, project_cell,
                     project_face)
from .mesh import MacMesh

__all__ = [
    "SolverError",
    "TransportSolveError",
    "LinearSolveError",
    "PicardDivergenceError",
    "SolverConfig",
    "TimeState",
    "StepStats",
    "StepSolver",
    "transport_solve",
    "advance_timestep",
    "initial_state",
    "run_simulation",
    "SimulationResult",
]

# Krylov tolerances of the solve policy (see the module docstring).
TRANSPORT_RTOL = 1e-14     # accepted max-norm residual of a transport solve,
                           # relative to the largest right-hand side entry
TRANSPORT_MAXITER = 50     # BiCGSTAB iterations before the direct fallback
# GMRES on the reduced system aims at REDUCED_RTOL in the relative
# preconditioned residual: at dt = 1e-3 on 32x64 (rayleigh-taylor-decay)
# the Picard loop stalls above picard_tol = 1e-10 with 1e-13.  The roundoff
# floor of that residual grows with the grid (up to ~3e-14 at 256^2, where
# a direct solve is no more accurate), so an answer that misses REDUCED_RTOL
# is still kept at REDUCED_ACCEPT or below.
REDUCED_RTOL = 1e-15
REDUCED_ACCEPT = 1e-13
GMRES_RESTART = 20         # one cycle; missing REDUCED_ACCEPT is stagnation


class SolverError(RuntimeError):
    pass


class TransportSolveError(SolverError):
    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class LinearSolveError(SolverError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PicardDivergenceError(SolverError):
    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_tol: float = 1e-10
    picard_max: int = 50
    linear_tol: float = 1e-9
    advection_scheme: str = "centered"
    quadrature_order: int = 5
    output_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        for name in ("picard_tol", "linear_tol"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.picard_max < 1:
            raise ValueError("picard_max must be at least 1")
        if self.advection_scheme not in ("centered", "upwind"):
            raise ValueError(f"unknown advection scheme {self.advection_scheme!r}")
        if self.quadrature_order < 1:
            raise ValueError("quadrature order must be at least 1")
        if self.output_every < 1:
            raise ValueError("output cadence must be at least 1")


class TimeState:
    """Solution snapshot: (t, rho, u, p) plus the cached dual-cell densities
    the next momentum step needs.  rho must stay inside the bounds recorded
    at initialization (discrete maximum principle)."""

    BOUNDS_SLACK = 1e-10

    def __init__(self, t, rho, u, p, rho_dual, rho_bounds):
        self.t = float(t)
        self.rho = rho
        self.u = u
        self.p = p
        self.rho_dual = tuple(np.asarray(a, dtype=float) for a in rho_dual)
        self.rho_bounds = (float(rho_bounds[0]), float(rho_bounds[1]))
        lo, hi = self.rho_bounds
        slack = self.BOUNDS_SLACK * max(abs(lo), abs(hi), 1.0)
        if rho.values.min() < lo - slack or rho.values.max() > hi + slack:
            raise SolverError(
                f"density left its recorded bounds [{lo}, {hi}]: "
                f"[{rho.values.min()}, {rho.values.max()}]")
        mesh = rho.mesh
        mean = float(np.dot(mesh.cell_volumes.ravel(), p.values))
        scale = max(float(np.max(np.abs(p.values))), 1.0) * mesh.domain_measure
        if abs(mean) > 1e-11 * scale:
            raise SolverError(f"pressure mean {mean:g} violates the zero-mean constraint")


@dataclass
class StepStats:
    """Outcome of one step: Picard iterations and the last residuals, plus
    the work of all its linear solves, which ``transport_solve`` and
    ``StepSolver.momentum_solve`` add to the two counts."""
    iterations: int = 0
    mass_residual: float = float("nan")
    momentum_residual: float = float("nan")
    linear_residual: float = float("nan")
    factorizations: int = 0        # SuperLU factorizations
    krylov_iterations: int = 0     # GMRES and BiCGSTAB iterations


def _splu(matrix, what, symmetric_pattern=False):
    # MMD on the A^T+A pattern beats COLAMD on the Poisson-like reduced
    # systems but degrades badly on the indefinite saddle matrix
    kwargs = {"permc_spec": "MMD_AT_PLUS_A"} if symmetric_pattern else {}
    try:
        return spla.splu(matrix.tocsc(), **kwargs)
    except RuntimeError as exc:
        raise LinearSolveError(f"{what}: factorization failed: {exc}") from exc


def transport_solve(rho_n: CellScalarField, u: VelocityField, dt,
                    linear_tol=1e-9, stats: StepStats | None = None
                    ) -> CellScalarField:
    """Implicit upwind mass balance for fixed velocity: linear in the new
    density.

    Jacobi-preconditioned BiCGSTAB comes first; its answer is accepted only
    when no cell's residual exceeds ``TRANSPORT_RTOL`` times the largest
    right-hand side entry, which bounds the dual-cell mass defect that
    :func:`~macflow.verification.step_audit` checks on any grid.  Otherwise
    the system is factored and solved directly, which must meet
    ``linear_tol``.  Work is counted into ``stats`` when given."""
    stats = StepStats() if stats is None else stats
    mesh = rho_n.mesh
    T = ops.transport_matrix(mesh, u)
    A = sp.eye(mesh.n_cells, format="csr") / dt + T
    rhs = rho_n.values / dt
    scale = max(np.linalg.norm(rhs), np.finfo(float).tiny)
    bound = TRANSPORT_RTOL * np.max(np.abs(rhs))

    def count(_):
        stats.krylov_iterations += 1

    # BiCGSTAB stops on the 2-norm, which bounds the max-norm accepted below
    rho, _ = spla.bicgstab(A, rhs, rtol=0.0, atol=bound,
                           maxiter=TRANSPORT_MAXITER,
                           M=sp.diags(1.0 / A.diagonal()), callback=count)
    if np.max(np.abs(A @ rho - rhs)) <= bound:
        return CellScalarField(mesh, rho)
    stats.factorizations += 1
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        diag = np.abs(A.diagonal())
        est = float(diag.max() / max(diag.min(), np.finfo(float).tiny))
        raise TransportSolveError(
            f"transport matrix factorization failed: {exc}",
            condition_estimate=est) from exc
    rho = lu.solve(rhs)
    res = np.linalg.norm(A @ rho - rhs)
    if not np.all(np.isfinite(rho)) or res > max(linear_tol * scale, linear_tol):
        raise TransportSolveError(
            f"transport solve residual {res / scale:g} above bound {linear_tol:g}",
            condition_estimate=float(res / scale))
    return CellScalarField(mesh, rho)


class LinearSolve:
    """Lagged-factor solve of a sequence of slowly changing systems.

    Holds the SuperLU factor of the last system it assembled and solves each
    later system by GMRES, applied matrix-free and preconditioned by that
    stale factor.  The factor is rebuilt, and the system solved directly
    with it, when GMRES does not reach ``REDUCED_ACCEPT`` within one cycle
    of ``GMRES_RESTART`` iterations or when the caller's check of the
    original equations rejects the Krylov answer.  The old factor is
    dropped before the new system is assembled, and the assembled matrix is
    dropped once factored, so a held factor never coexists with an
    assembled matrix (together they would raise the peak memory of a 256^2
    run by about a fifth).  The factorization uses the MMD ordering on the
    A^T+A pattern, which suits the Poisson-like reduced systems it serves.
    With ``lagged`` False every system is factored afresh.
    """

    def __init__(self, what):
        self.what = what
        self.lagged = True
        self._lu = None

    def solve(self, apply, assemble, rhs, check, tol, stats: StepStats):
        """Solve the system whose product is ``apply(x)`` and whose matrix
        ``assemble()`` builds, for ``rhs``.

        ``check(x)`` maps a solution to a tuple whose last entry is the
        residual of the original equations; a Krylov answer is returned
        only when that residual is at most ``tol``.  The answer of a fresh
        factor is returned whatever its residual: rejecting it is the
        caller's job."""
        if self.lagged and self._lu is not None:
            x = self._krylov(apply, rhs, stats)
            if x is not None:
                out = check(x)
                if out[-1] <= tol:
                    return out
        self._lu = None     # freed before assemble() allocates
        self._lu = _splu(assemble(), self.what, symmetric_pattern=True)
        stats.factorizations += 1
        return check(self._lu.solve(rhs))

    def _krylov(self, apply, rhs, stats):
        # left preconditioning spelled out, so that GMRES tests M^-1 r,
        # which approximates the error: the true residual of the reduced
        # system has a roundoff floor that grows with its condition number
        n = rhs.size
        solve = self._lu.solve
        op = spla.LinearOperator((n, n), matvec=lambda v: solve(apply(v)),
                                 dtype=float)
        pr_norm = np.inf    # GMRES's estimate of it, relative, at its last step

        def count(value):
            nonlocal pr_norm
            stats.krylov_iterations += 1
            pr_norm = value

        x, info = spla.gmres(op, solve(rhs), rtol=REDUCED_RTOL,
                             restart=GMRES_RESTART, maxiter=1, callback=count,
                             callback_type="pr_norm")
        return x if info == 0 or pr_norm <= REDUCED_ACCEPT else None


def _stream_curl_matrix(mesh: MacMesh, dofs: ops.FaceDofMap):
    """2d only: sparse map from interior-vertex stream values to the
    interior-face velocity vector.  Its range is exactly the discretely
    divergence-free subspace of the homogeneous Dirichlet space (boundary
    stream values are fixed to zero)."""
    n0, n1 = mesh.n
    nv = (n0 - 1) * (n1 - 1)

    def vertex_id(vx, vy):
        # -1 for boundary vertices (stream value 0)
        vid = np.where((vx >= 1) & (vx <= n0 - 1) & (vy >= 1) & (vy <= n1 - 1),
                       (vx - 1) * (n1 - 1) + (vy - 1), -1)
        return vid

    rows, cols, vals = [], [], []
    # u_x[f, c] = (psi[f, c+1] - psi[f, c]) / h_y[c]
    f, c = np.meshgrid(np.arange(1, n0), np.arange(n1), indexing="ij")
    face = dofs.dof[0].reshape(mesh.faces_shape(0))[f, c]
    inv_h = 1.0 / mesh.widths[1][c]
    for vy, sgn in ((c + 1, 1.0), (c, -1.0)):
        vid = vertex_id(f, vy)
        keep = vid >= 0
        rows.append(face[keep])
        cols.append(vid[keep])
        vals.append((sgn * inv_h)[keep])
    # u_y[c, g] = -(psi[c+1, g] - psi[c, g]) / h_x[c]
    c, g = np.meshgrid(np.arange(n0), np.arange(1, n1), indexing="ij")
    face = dofs.dof[1].reshape(mesh.faces_shape(1))[c, g]
    inv_h = 1.0 / mesh.widths[0][c]
    for vx, sgn in ((c + 1, -1.0), (c, 1.0)):
        vid = vertex_id(vx, g)
        keep = vid >= 0
        rows.append(face[keep])
        cols.append(vid[keep])
        vals.append((sgn * inv_h)[keep])
    return sp.csr_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofs.n_dofs, nv))


class StepSolver:
    """Holds the mesh-constant blocks of the velocity-pressure solve.

    The route follows the dimension.  In 2d the divergence constraint is
    eliminated through the stream-function parametrization ("nullspace"),
    followed by a pressure recovery from a pre-factorized normal-equation
    Poisson system.  The reduced system ``curl^T W A curl`` goes through a
    :class:`LinearSolve`: the first one of a run is factored, and every
    later one is solved by GMRES preconditioned with that lagged factor,
    with ``A`` applied matrix-free; the factor is rebuilt only when GMRES
    stagnates or the residual check below fails.  The pressure recovery and
    the check apply the same matrix-free ``A``.  In 3d the Lagrange-augmented
    saddle system is factored and solved directly ("saddle") on every call.
    ``method`` overrides the choice only so that tests can run the
    algebraically equivalent 2d saddle route as a reference.  Both routes
    check the residual of the original equations against ``linear_tol``.
    """

    def __init__(self, mesh: MacMesh, method=None):
        self.mesh = mesh
        self.dofs = ops.FaceDofMap(mesh)
        self.grad = ops.pressure_gradient_matrix(mesh, self.dofs)
        self.div_c = ops.divergence_constraint_matrix(mesh, self.dofs)
        self.cell_vol = mesh.cell_volumes.ravel()
        self.dual_vol = np.concatenate(
            [mesh.dual_volumes(i).ravel()[self.dofs.interior[i]]
             for i in range(mesh.dim)])
        if method is None:
            method = "nullspace" if mesh.dim == 2 else "saddle"
        if method == "nullspace" and mesh.dim != 2:
            raise SolverError("the stream-function route only exists in 2d")
        self.method = method
        if method == "nullspace":
            self.curl = _stream_curl_matrix(mesh, self.dofs)
            self.weight = sp.diags(self.dual_vol)
            gw = self.grad.T @ self.weight @ self.grad
            m = self.cell_vol
            aug = sp.bmat([[gw, m[:, None]], [m[None, :], None]], format="csc")
            self._pressure_lu = _splu(aug, "pressure recovery system",
                                      symmetric_pattern=True)
            self.reduced = LinearSolve("reduced momentum system")

    def _assemble_momentum(self, rho_dual_new, fluxes, mu_t, dt, scheme):
        return (sp.diags(self.dofs.pack(rho_dual_new) / dt)
                + ops.convection_matrix(fluxes, scheme, self.dofs)
                - ops.diffusion_matrix(self.mesh, mu_t, self.dofs))

    def _momentum_apply(self, rho_dual_new, fluxes, mu_t, dt, scheme):
        """Matrix-free product with the matrix of :meth:`_assemble_momentum`."""
        mesh, dofs = self.mesh, self.dofs
        mass = dofs.pack(rho_dual_new) / dt

        def apply(u_vec):
            u = VelocityField(mesh, dofs.unpack(u_vec))
            return (mass * u_vec
                    + dofs.pack(ops.convection_apply(fluxes, u, scheme).components)
                    - dofs.pack(ops.diffusion_apply(mu_t, u).components))

        return apply

    def _residual(self, Au, u_vec, p_vec, b):
        """Relative residual of the momentum rows, the divergence constraint
        and the zero-mean pressure constraint; ``Au`` is ``A @ u_vec``."""
        if not (np.all(np.isfinite(u_vec)) and np.all(np.isfinite(p_vec))):
            return np.inf
        res_mom = np.linalg.norm(Au + self.grad @ p_vec - b)
        res_div = np.linalg.norm(self.div_c @ u_vec)
        res_mean = abs(float(np.dot(self.cell_vol, p_vec)))
        return float((res_mom + res_div + res_mean) / max(np.linalg.norm(b), 1.0))

    def momentum_solve(self, rho_dual_new, rho_dual_old, u_old: VelocityField,
                       fluxes: ops.MassFluxSet, mu_t, f_faces, dt,
                       scheme="centered", linear_tol=1e-9,
                       stats: StepStats | None = None):
        """One Oseen solve with frozen fluxes; returns (u, p) satisfying the
        momentum rows, the divergence constraint and the zero-mean pressure
        constraint to within ``linear_tol``.  Work is counted into
        ``stats`` when given."""
        stats = StepStats() if stats is None else stats
        mesh, dofs = self.mesh, self.dofs
        nu, nc = dofs.n_dofs, mesh.n_cells
        b = dofs.pack(rho_dual_old) * dofs.pack(
            [u_old.shaped(i) for i in range(mesh.dim)]) / dt
        if f_faces is not None:
            b = b + dofs.pack(f_faces)
        if self.method == "saddle":
            A = self._assemble_momentum(rho_dual_new, fluxes, mu_t, dt, scheme)
            m = self.cell_vol
            K = sp.bmat(
                [[A, self.grad, None],
                 [self.div_c, None, m[:, None]],
                 [None, m[None, :], None]],
                format="csc")
            rhs = np.zeros(nu + nc + 1)
            rhs[:nu] = b
            lu = _splu(K, "momentum saddle system")
            stats.factorizations += 1
            sol = lu.solve(rhs)
            # one step of iterative refinement with the same factor: the
            # pivoting on the indefinite matrix alone leaves max |div u|
            # near the 1e-10 that step_audit flags on stretched 3d grids
            sol += lu.solve(rhs - K @ sol)
            u_vec = sol[:nu]
            p_vec = sol[nu:nu + nc]
            res = self._residual(A @ u_vec, u_vec, p_vec, b)
        else:
            apply = self._momentum_apply(rho_dual_new, fluxes, mu_t, dt, scheme)
            curl, weight = self.curl, self.weight

            def apply_reduced(psi):
                return curl.T @ (weight @ apply(curl @ psi))

            def assemble_reduced():
                A = self._assemble_momentum(rho_dual_new, fluxes, mu_t, dt,
                                            scheme)
                return (curl.T @ (weight @ (A @ curl))).tocsc()

            def recover(psi):
                u_vec = curl @ psi
                Au = apply(u_vec)
                p_rhs = np.zeros(nc + 1)
                p_rhs[:nc] = self.grad.T @ (weight @ (b - Au))
                p_vec = self._pressure_lu.solve(p_rhs)[:nc]
                return u_vec, p_vec, self._residual(Au, u_vec, p_vec, b)

            u_vec, p_vec, res = self.reduced.solve(
                apply_reduced, assemble_reduced, curl.T @ (weight @ b),
                recover, linear_tol, stats)
        if res > linear_tol:
            raise LinearSolveError(
                f"momentum solve residual {res:g} above bound {linear_tol:g}; "
                "a singular constraint block signals an inf-sup degenerate "
                "configuration", residual=float(res))
        u = VelocityField(mesh, dofs.unpack(u_vec))
        p = CellScalarField(mesh, p_vec)
        return u, p, float(res)


def advance_timestep(state: TimeState, cfg: SolverConfig, mu_law,
                     f_faces=None, step_solver: StepSolver | None = None):
    """Advance one implicit step by Picard iteration.

    ``f_faces`` is the face-projected forcing at the new time level (list of
    full per-direction arrays) or None.  Returns ``(new_state, StepStats)``;
    raises :class:`PicardDivergenceError` when the iteration cap is hit (a
    solver signal: a solution of the nonlinear system exists regardless).
    In 2d a stalled step is first retried with every reduced system
    factored afresh: a lagged-factor answer within ``linear_tol`` can still
    hold the Picard residual above a ``picard_tol`` near its roundoff floor.
    The returned stats count the work of both attempts.
    """
    solver = step_solver or StepSolver(state.rho.mesh)
    stats = StepStats()
    try:
        return _picard_step(state, cfg, mu_law, f_faces, solver, stats)
    except PicardDivergenceError:
        if solver.method != "nullspace":
            raise
    solver.reduced.lagged = False
    try:
        return _picard_step(state, cfg, mu_law, f_faces, solver, stats)
    finally:
        solver.reduced.lagged = True


def _picard_step(state, cfg, mu_law, f_faces, solver, stats):
    dt = cfg.dt
    u_iter = state.u
    for k in range(cfg.picard_max):
        rho_new = transport_solve(state.rho, u_iter, dt, cfg.linear_tol, stats)
        mu_t = ops.viscosity_tensor(rho_new, mu_law)
        fluxes = ops.mass_fluxes(rho_new, u_iter)
        rho_dual_new = ops.dual_cell_density(rho_new)
        u_new, p_new, stats.linear_residual = solver.momentum_solve(
            rho_dual_new, state.rho_dual, state.u, fluxes, mu_t, f_faces, dt,
            cfg.advection_scheme, cfg.linear_tol, stats)
        # nonlinear residuals of the coupled system at the updated iterate
        stats.mass_residual, stats.momentum_residual = \
            verification.coupled_residuals(
                state, rho_new, rho_dual_new, u_new, p_new, mu_t,
                ops.mass_fluxes(rho_new, u_new), f_faces, dt,
                cfg.advection_scheme)
        stats.iterations = k + 1
        u_iter = u_new
        if max(stats.mass_residual, stats.momentum_residual) <= cfg.picard_tol:
            break
    else:
        raise PicardDivergenceError(
            f"no convergence in {cfg.picard_max} Picard iterations "
            f"(residual {max(stats.mass_residual, stats.momentum_residual):g})",
            residual=max(stats.mass_residual, stats.momentum_residual),
            iterations=cfg.picard_max)
    # re-solve transport with the accepted velocity so the published pair
    # satisfies the mass balance in every cell to within TRANSPORT_RTOL
    rho_final = transport_solve(state.rho, u_iter, dt, cfg.linear_tol, stats)
    new_state = TimeState(
        t=state.t + dt,
        rho=rho_final,
        u=u_iter,
        p=CellScalarField(rho_final.mesh, p_new.values),
        rho_dual=ops.dual_cell_density(rho_final),
        rho_bounds=state.rho_bounds,
    )
    return new_state, stats


def initial_state(mesh: MacMesh, rho0, u0, quadrature_order=5) -> TimeState:
    """Project the initial data: cell averages for the density, dual-cell
    means for the velocity, zero pressure, dual densities from the convex
    half-cell combination."""
    rho = project_cell(mesh, rho0, quadrature_order)
    if rho.values.min() <= 0.0:
        raise SolverError("initial density must be positive")
    u = project_face(mesh, u0, variant="dual", order=quadrature_order)
    p = CellScalarField(mesh, np.zeros(mesh.n_cells))
    return TimeState(
        t=0.0, rho=rho, u=u, p=p,
        rho_dual=ops.dual_cell_density(rho),
        rho_bounds=(float(rho.values.min()), float(rho.values.max())),
    )


@dataclass
class SimulationResult:
    final_state: TimeState
    records: list
    bv_accumulated: float
    h1_time_integral: float        # sum_n dt ||u^{n+1}||^2_{1,E,0}
    max_u_l2: float
    initial_u_l2: float = 0.0
    initial_rho_l2: float = 0.0
    forcing_sq_time_integral: float = 0.0   # sum_n dt ||f^{n+1}||^2_{L2}


def run_simulation(problem, cfg: SolverConfig, diagnostics_sink=None,
                   snapshot_writer=None) -> SimulationResult:
    """Run a full simulation of ``problem`` (see :mod:`macflow.problems`).

    ``diagnostics_sink`` receives one :class:`~macflow.verification.DiagnosticsRecord`
    per step; ``snapshot_writer(state, step)`` is called at the configured
    cadence and for the final state.  Step failures abort with the step index
    attached.
    """
    mesh = problem.mesh
    state = initial_state(mesh, problem.rho0, problem.u0, cfg.quadrature_order)
    try:
        solver = StepSolver(mesh)
    except SolverError as exc:
        exc.step = 0
        raise
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        raise SolverError(
            f"t_end {cfg.t_end} is not a whole number of steps of dt {cfg.dt}")
    forcing_cache = None
    records = []
    bv_accum = 0.0
    h1_sq_sum = 0.0
    f_sq_sum = 0.0
    initial_u = norm_l2(state.u)
    initial_rho = float(np.sqrt(np.dot(mesh.cell_volumes.ravel(),
                                       state.rho.values ** 2)))
    max_u = initial_u
    if snapshot_writer is not None:
        snapshot_writer(state, 0)
    for step in range(1, n_steps + 1):
        t_new = step * cfg.dt
        if problem.forcing is None:
            f_faces = None
        elif problem.time_independent_forcing:
            if forcing_cache is None:
                forcing_cache = problem.forcing_faces(mesh, t_new, cfg)
            f_faces = forcing_cache
        else:
            f_faces = problem.forcing_faces(mesh, t_new, cfg)
        try:
            new_state, stats = advance_timestep(state, cfg, problem.mu_law,
                                                f_faces, solver)
        except SolverError as exc:
            exc.step = step
            raise
        record = verification.step_audit(
            state, new_state, cfg, mu_law=problem.mu_law, forcing=f_faces,
            picard_iterations=stats.iterations, step=step)
        bv_accum += record.bv_increment
        h1_sq_sum += cfg.dt * record.u_h1_sq
        if f_faces is not None:
            for i in range(mesh.dim):
                f_sq_sum += cfg.dt * float(np.dot(
                    mesh.dual_volumes(i).ravel(),
                    np.asarray(f_faces[i]).ravel() ** 2))
        max_u = max(max_u, record.u_l2)
        records.append(record)
        if diagnostics_sink is not None:
            diagnostics_sink(record)
        state = new_state
        if snapshot_writer is not None and (step % cfg.output_every == 0
                                            or step == n_steps):
            snapshot_writer(state, step)
    return SimulationResult(
        final_state=state, records=records, bv_accumulated=bv_accum,
        h1_time_integral=h1_sq_sum, max_u_l2=max_u,
        initial_u_l2=initial_u, initial_rho_l2=initial_rho,
        forcing_sq_time_integral=f_sq_sum)
