"""Implicit time stepping: coupled mass/momentum/divergence system advanced
by Picard (frozen-flux) iteration.

Each iteration solves the linear implicit upwind transport system for the
density, rebuilds fluxes, dual densities and face viscosities, then solves
the linearized (Oseen-type) saddle-point system for velocity and pressure
with the zero-mean pressure constraint imposed through a single Lagrange
multiplier row/column; in 2d, where the pressure is recovered after the
velocity, by a shift to zero mean instead.  That recovery inverts the
mesh-constant ``G^T W G``, a tensor-product Laplacian on the Cartesian grid,
by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): a 2d
run holds no factor before its first momentum system.
Convergence is declared on the nonlinear residuals of the coupled system;
a trailing transport solve with the accepted velocity leaves the published
state satisfying the mass balance in every cell to a residual of at most
``TRANSPORT_RTOL`` (1e-14) times the largest entry of the right-hand side.

Linear solves follow one policy.  Both systems go through
:class:`LinearSolve`, one chain of links per system, each of which builds a
preconditioner for the current system; the last link builds its exact
inverse.  The link that answered a system is held, and every later system
is solved by a Krylov cycle preconditioned by that lagged one (Knoll &
Keyes, J. Comput. Phys. 193, 2004).  The transport chain is a Jacobi link
and the SuperLU factor of the transport matrix, and its cycle is BiCGSTAB,
whose answer is accepted only within that max-norm bound.  The momentum
cycle is GMRES.  In 2d the momentum chain is one link, the SuperLU
factor of the reduced stream-function system, and GMRES applies the
momentum operator matrix-free.  In 3d, on the saddle route, both
approximate links are one block upper-triangular form (Cahouet &
Chabard, IJNMF 8, 1988; Elman, Silvester & Wathen, Finite Elements and
Fast Iterative Solvers, 2nd ed., 2014, ch. 9), which each fills with an
approximation of the velocity block and a variable-density
Cahouet-Chabard approximation of the pressure Schur complement; GMRES
multiplies by the momentum matrix, assembled once per solve.  The first
blocks factor nothing: at constant coefficients both have a
tensor-product form on the Cartesian grid, inverted by fast
diagonalization (Deville, Fischer & Mund, High-Order Methods for
Incompressible Fluid Flow, 2002), so a 3d run at moderate density contrast
makes no SuperLU factorization.  SuperLU factors of the two blocks are the
second link, and the LU of the saddle matrix, assembled afresh and applied
with one step of iterative refinement, is the exact third.  Every Krylov
cycle starts from the last answer its chain accepted, the previous Picard
iterate or the last one of the previous step (Saad, Iterative Methods for
Sparse Linear Systems, 2nd ed., 2003, ch. 6); that changes only the
cycle's starting point, never its target, the residual check or the
fallbacks.  No SuperLU factor relaxes its supernodes (see :func:`_splu`):
scipy's default stored 1.4-2x the true fill of the 3d factors in explicit
zeros, which every triangular solve walks and a held factor keeps
resident.  GMRES is macflow's own cycle (:func:`_gmres`), scipy's
``gmres`` operation for operation except that it does not apply the
preconditioned operator once more to the answer: scipy needs that product
only for its ``info``, and acceptance does not need it (see
:class:`LinearSolve`).  A preconditioner is rebuilt only when the
cycle misses its target or the residual check of the original equations
fails; the momentum check always applies the operator matrix-free.  The
rebuild walks the chain from its first link, each approximate link given
one cycle, and the exact link answers with no Krylov cycle.  A step whose
Picard loop stalls is retried once with every momentum system answered by
the exact link.

Each step's Picard loop starts from the second-order extrapolation ``u* =
2 u^n - u^{n-1}`` (Karniadakis, Israeli & Orszag, J. Comput. Phys. 97,
1991, there as the advecting velocity of a semi-implicit scheme; here only
as the starting iterate of the implicit one): its first transport solve and
mass fluxes use ``u*`` instead of ``u^n``.  The first Picard residual comes
almost entirely from the O(dt) gap between ``u^n`` and ``u^{n+1}``, which
``u*`` closes to O(dt^2); a 3d stirred step at 10^3 takes 3 iterations
instead of 4.  The start changes how much work the loop does, never its
target or the state it is judged on.  :class:`StepSolver` extrapolates only
along its own trajectory: when it is handed the very state it published
last, at the dt of that step.  A first step, a copied or foreign state, a
changed dt and the stall retry start from ``u^n``.

Mesh-constant work is done once per mesh: :class:`StepSolver` holds the
CSR pattern of the transport matrix and, on the saddle route, of the
momentum matrix, so that later assemblies only sum new values into it, and
the per-axis eigenpairs of ``G^T W G`` (the 2d pressure recovery, the
separable pressure block) and of the separable velocity blocks.

On glibc, importing this module fixes malloc's mmap threshold (see
:func:`_fix_mmap_threshold`), so that the resident memory of a run does not
depend on what earlier runs in the same process freed.
"""

import ctypes
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, get_lapack_funcs

from . import operators as ops
from . import verification
from .fields import (CellScalarField, VelocityField, _neighbours, norm_l2,
                     project_cell, project_face)
from .mesh import MacMesh, _axis_view

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
TRANSPORT_MAXITER = 50     # BiCGSTAB iterations of one transport cycle,
                           # after which the chain's next link builds
# GMRES on the reduced system aims at REDUCED_RTOL in the relative
# preconditioned residual: at dt = 1e-3 on 32x64 (rayleigh-taylor-decay)
# the Picard loop stalls above picard_tol = 1e-10 with 1e-13.  The roundoff
# floor of that residual grows with the grid (up to ~3e-14 at 256^2, where
# a direct solve is no more accurate), so an answer that misses REDUCED_RTOL
# is still kept at REDUCED_ACCEPT or below.  GMRES on the 3d saddle system
# uses the same two bounds.
REDUCED_RTOL = 1e-15
REDUCED_ACCEPT = 1e-13
GMRES_RESTART = 20         # one cycle; missing REDUCED_ACCEPT is stagnation
SADDLE_RESTART = 80        # the same for the block-preconditioned saddle
                           # system: with the separable blocks its first
                           # solve of a step takes 45 iterations at 10^3,
                           # 54 at 16^3, 59 at 20^3 and 61 at 24^3


MMAP_THRESHOLD = 4 << 20   # bytes; see _fix_mmap_threshold


def _fix_mmap_threshold():
    """Serve every allocation of ``MMAP_THRESHOLD`` bytes or more by mmap.

    glibc raises its mmap threshold to the size of each mmapped block freed,
    up to 32 MiB, after which blocks of that size come from the heap, and
    their pages stay resident when freed.  A 256^2 run factors and frees
    blocks of 4-32 MiB (assembly temporaries, SuperLU storage), so the peak
    resident memory of a later run in the same process depended on how
    earlier ones had left the heap: 300 MB in most processes, 335-347 MB in
    some.  A fixed threshold turns that adjustment off.  4 MiB keeps the
    face vectors of a 256^2 run (~1 MiB), which Krylov iterations allocate
    many times over, in the heap.  The trim threshold stays at glibc's
    128 KiB: twice the mmap threshold, which glibc's adjustment would set,
    saves page faults at 256^2 but keeps up to 8 MiB resident, 5% of a
    10^3 run's peak."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    M_MMAP_THRESHOLD = -3
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


_fix_mmap_threshold()


class SolverError(RuntimeError):
    pass


class TransportSolveError(SolverError):
    def __init__(self, message, condition_estimate=None, residual=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.residual = residual


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
    forcing_time: str = "endpoint"     # endpoint | slab_average

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ValueError(f"t_end {self.t_end} is not a whole number of "
                             f"steps of dt {self.dt}")
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
        if self.forcing_time not in ("endpoint", "slab_average"):
            raise ValueError("forcing_time must be 'endpoint' or 'slab_average'")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


class TimeState:
    """Solution snapshot: (t, rho, u, p) plus the dual-cell densities
    ``rho_dual``, derived here from rho, that the next momentum step and the
    kinetic energy need.  rho must stay inside the bounds recorded at
    initialization (discrete maximum principle)."""

    BOUNDS_SLACK = 1e-10

    def __init__(self, t, rho, u, p, rho_bounds):
        self.t = float(t)
        self.rho = rho
        self.u = u
        self.p = p
        self.rho_dual = tuple(ops.dual_cell_density(rho))
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
    """Outcome of one step: Picard iterations, the last residuals and the
    residual history of the attempt that returned, plus the work of all its
    linear solves, which ``transport_solve`` and ``StepSolver.momentum_solve``
    add to the counts."""
    iterations: int = 0
    mass_residual: float = float("nan")
    momentum_residual: float = float("nan")
    factorizations: int = 0        # SuperLU factorizations
    factor_nnz: int = 0            # entries SuperLU stores for them
    krylov_iterations: int = 0     # GMRES and BiCGSTAB iterations
    # max(mass, momentum) residual after each Picard iteration
    picard_residuals: list = field(default_factory=list)
    # the first Picard iteration started from 2 u^n - u^{n-1}, not u^n
    predicted: bool = False


SUPERNODE_RELAX = 1    # SuperLU relaxes no supernode: no stored zeros


def _splu(matrix, what, stats, symmetric_pattern=False):
    """SuperLU factors of ``matrix``, counted into ``stats``.  A failed
    factorization, a singular matrix or an allocation SuperLU could not
    make, raises :class:`LinearSolveError` naming the system ``what``."""
    # MMD on the A^T+A pattern beats COLAMD on the 2d reduced systems, the
    # 3d velocity block and the bordered pressure Laplacian, but degrades
    # badly on the indefinite saddle matrix, which keeps COLAMD.  On the
    # transport matrix, whose stencil is symmetric, MMD stores 1.19 M entries
    # for the first 256^2 system against COLAMD's 1.29 M (3.41 M and 6.24 M
    # with its zero couplings kept); a held factor stays resident, so fill
    # is memory as well as time.
    # No factor relaxes its supernodes: scipy's default pads the 3d factors
    # to 1.4-2x their fill with zeros that every triangular solve walks
    kwargs = {"permc_spec": "MMD_AT_PLUS_A"} if symmetric_pattern else {}
    try:
        lu = spla.splu(matrix.tocsc(), relax=SUPERNODE_RELAX, **kwargs)
    except (RuntimeError, MemoryError) as exc:
        raise LinearSolveError(
            f"{what}: factorization failed: {exc!r}") from exc
    stats.factorizations += 1
    stats.factor_nnz += lu.nnz
    return lu


def transport_solve(rho_n: CellScalarField, u: VelocityField, dt,
                    linear_tol=1e-9, stats: StepStats | None = None,
                    step_solver: "StepSolver | None" = None) -> CellScalarField:
    """Implicit upwind mass balance for fixed velocity: linear in the new
    density.

    The system goes through the transport chain (see
    :class:`_TransportSolve`): BiCGSTAB preconditioned by the held link,
    then by a fresh Jacobi link, then a fresh SuperLU factor, the exact
    link.  A BiCGSTAB answer is accepted only when no cell's residual
    exceeds ``TRANSPORT_RTOL`` times the largest right-hand side entry,
    which bounds the dual-cell mass defect that
    :func:`~macflow.verification.step_audit` checks on any grid; an exact
    answer that misses that bound must still meet ``linear_tol`` in the
    relative 2-norm, or :class:`TransportSolveError` carries that residual
    in ``residual`` and the diagonal ratio of the matrix in
    ``condition_estimate``, as a failed factorization does.  Work is
    counted into ``stats`` when given.  ``step_solver`` supplies the CSR
    pattern of the matrix and the chain, whose held link and last accepted
    density carry over to the next system; without it a fresh chain starts
    from zero with Jacobi."""
    stats = StepStats() if stats is None else stats
    mesh = rho_n.mesh
    if step_solver is None:
        pattern, chain = None, _TransportSolve(TRANSPORT_MAXITER)
    else:
        pattern, chain = step_solver.transport_pattern, step_solver.transport
    A = ops.transport_matrix(mesh, u, 1.0 / dt, pattern)
    rhs = rho_n.values / dt
    bound = TRANSPORT_RTOL * np.max(np.abs(rhs))

    def jacobi():
        inv_diag = 1.0 / A.diagonal()
        return lambda r: inv_diag * r

    def condition_estimate():
        diag = np.abs(A.diagonal())
        return float(diag.max() / max(diag.min(), np.finfo(float).tiny))

    def factor():
        # of the two couplings across a face only the upwind one is nonzero;
        # with the others stored, the factor keeps their fill too: 3.41 M
        # entries instead of 1.19 M on the first 256^2 system
        matrix = A.tocsc(copy=True)
        matrix.eliminate_zeros()
        try:
            return _splu(matrix, "transport matrix", stats,
                         symmetric_pattern=True).solve
        except LinearSolveError as exc:
            raise TransportSolveError(
                str(exc), condition_estimate=condition_estimate()) from exc

    def check(rho):
        return rho, np.max(np.abs(A @ rho - rhs))

    rho, res = chain.solve(A, (jacobi, factor), rhs, check, bound, stats)
    if not res <= bound:    # an exact answer: the 2-norm test decides
        scale = max(np.linalg.norm(rhs), np.finfo(float).tiny)
        res = np.linalg.norm(A @ rho - rhs)
        if not np.all(np.isfinite(rho)) or res > max(linear_tol * scale,
                                                     linear_tol):
            raise TransportSolveError(
                f"transport solve residual {res / scale:g} above bound "
                f"{linear_tol:g}", condition_estimate=condition_estimate(),
                residual=float(res / scale))
    return CellScalarField(mesh, rho)


def _gmres(matvec, b, x0=None, *, rtol, restart, callback):
    """One cycle of left-preconditioned GMRES(``restart``) for ``matvec(x)
    = b``, where ``matvec`` already applies the preconditioner.

    Operation for operation the cycle of scipy 1.17.1's ``gmres`` with
    ``maxiter=1``: modified Gram-Schmidt, LAPACK ``lartg`` rotations and the
    same back substitution, with ``callback`` given the relative Arnoldi
    residual estimate after every iteration.  It stops when that estimate
    meets ``rtol``, and returns ``(x, info)`` with ``info`` 0 exactly then
    and 1 otherwise; an ``x0`` whose residual is already within the target
    comes back unchanged with ``info`` 0.  Unlike scipy it does not apply
    ``matvec`` once more to the answer for a true residual: a caller that
    needs one computes it.  ``x0`` is not modified."""
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = rtol * bnrm2
    ptol = bnrm2 * min(1.0, atol / bnrm2)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    if np.linalg.norm(r) < atol:
        return x, 0
    eps = np.finfo(float).eps
    lartg = get_lapack_funcs("lartg", dtype=x.dtype)
    restart = min(restart, b.size)
    v = np.empty((restart + 1, b.size))
    h = np.zeros((restart, restart + 1))
    givens = []     # (c, s) of each rotation, Python floats
    s = np.zeros(restart + 1)
    v[0] = r
    s[0] = np.linalg.norm(v[0])
    v[0] *= 1 / s[0]
    presid = np.inf
    for col in range(restart):
        w = matvec(v[col])
        # modified Gram-Schmidt; h holds the Hessenberg matrix transposed
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            tmp = np.dot(v[k], w)
            h[col, k] = tmp
            w -= tmp * v[k]
        h1 = np.linalg.norm(w)
        h[col, col + 1] = h1
        v[col + 1] = w
        breakdown = h1 <= eps * h0      # the Krylov space holds the answer
        if breakdown:
            h[col, col + 1] = 0
        else:
            v[col + 1] *= 1 / h1
        # the rotations run on Python floats: indexing h entry by entry
        # costs more than their arithmetic, which stays the same
        row = h[col].tolist()
        for k in range(col):
            c, sn = givens[k]
            n0, n1 = row[k], row[k + 1]
            row[k], row[k + 1] = c * n0 + sn * n1, -sn * n0 + c * n1
        c, sn, mag = lartg(row[col], row[col + 1])
        givens.append((c, sn))
        row[col], row[col + 1] = mag, 0.0
        h[col] = row
        tmp = -sn * s[col]
        s[col], s[col + 1] = c * s[col], tmp
        presid = abs(tmp)
        callback(presid / bnrm2)
        if presid <= ptol or breakdown:
            break
    # back substitution on the triangular factor, pseudo-solving a singular
    # last pivot
    if h[col, col] == 0:
        s[col] = 0
    y = s[:col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            tmp = y[k]
            y[:k] -= tmp * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x += y @ v[:col + 1]
    return x, 0 if presid <= ptol else 1


class LinearSolve:
    """Lagged-preconditioner solve of a sequence of slowly changing systems.

    Holds the preconditioner that one of the caller's ``links`` built for
    an earlier system and solves each later system by one Krylov cycle
    with the caller's operator ``apply``, preconditioned by that stale
    one: GMRES here, BiCGSTAB for the transport systems (see
    :class:`_TransportSolve`).  When the cycle does not reach its target
    within ``restart`` iterations, or the caller's check of the original
    equations rejects the Krylov answer, the held preconditioner is
    dropped and the links are tried in order, each built afresh for the
    current system.  Every link but the last is approximate and given one
    cycle; the last builds the exact inverse ``M^-1`` of the current
    system, and its answer is ``M^-1 rhs``, with no Krylov cycle.  An exact
    answer is returned whatever its residual, so that one the link cannot
    deliver within tolerance surfaces as the caller's typed error.
    Whichever link answered is held, the exact one like any other, and
    preconditions the cycle on the next system.  On the 2d reduced route
    the chain is one link, the factor of the reduced system; on the saddle
    route it is the separable blocks, the SuperLU blocks and the LU of the
    saddle matrix; on the transport systems it is Jacobi and the LU of the
    transport matrix.
    A held preconditioner is dropped before a link builds, so that on the
    2d route, which assembles only inside its link, a held factor never
    coexists with a newly assembled matrix.  With ``lagged`` False only
    the exact link runs: no Krylov answer is tried.

    The cycle starts from the last answer ``solve`` returned within
    ``tol``, whether it came from a cycle or from the exact link; a
    rejected answer never becomes the starting point.  The start is all it
    changes: GMRES's target stays relative to the preconditioned
    right-hand side, BiCGSTAB's to the right-hand side, and the acceptance
    bounds, the residual check and the fallbacks are those above.  The
    systems of one ``LinearSolve`` therefore all have one size.  The
    preconditioned right-hand side is
    held with the preconditioner and the right-hand side it came from, and
    reused while both are the same: within a step every Picard iteration
    has the same right-hand side, so it costs one preconditioner
    application per step and held preconditioner, not one per
    iteration.

    The GMRES cycle is :func:`_gmres`, which reports success from the Arnoldi
    estimate of the preconditioned residual, without the product with the
    answer by which scipy's ``gmres`` checks the true one.  Acceptance is
    unchanged by it: an answer is kept when ``info`` is 0 or the last
    estimate is at most ``REDUCED_ACCEPT``, and an estimate that meets
    ``REDUCED_RTOL`` is below ``REDUCED_ACCEPT`` either way; the two tests
    could differ only for a true residual below ``REDUCED_RTOL`` with an
    estimate above ``REDUCED_ACCEPT``, a hundred times larger.
    """

    def __init__(self, restart):
        self.restart = restart
        self.lagged = True
        self._precond = None
        self._guess = None      # the last answer returned within tol
        self._held_rhs = None   # (preconditioner, rhs, its M^-1 rhs)

    def solve(self, apply, links, rhs, check, tol, stats: StepStats):
        """Solve the system whose operator is ``apply`` for ``rhs``:
        the product ``apply(x)`` for GMRES, the matrix for BiCGSTAB.

        Each of ``links`` builds a preconditioner for the current system,
        counting its factorizations into ``stats``, and returns it as a
        function of a residual; the last link's is the exact inverse.
        ``check(x)`` maps a solution to a tuple whose last entry is the
        residual of the original equations; a Krylov answer is returned
        only when that residual is at most ``tol``.  The exact link's
        answer is returned whatever its residual: rejecting it is the
        caller's job."""
        if self.lagged and self._precond is not None:
            out = self._attempt(apply, rhs, check, tol, stats)
            if out is not None:
                return out
        *approximate, exact = links if self.lagged else links[-1:]
        for build in approximate:
            self._drop()
            self._precond = build()
            out = self._attempt(apply, rhs, check, tol, stats)
            if out is not None:
                return out
        self._drop()    # freed before the exact link allocates
        self._precond = exact()
        return self._checked(self._preconditioned(rhs), check, tol)

    def _drop(self):
        self._precond = None
        self._held_rhs = None

    def _preconditioned(self, rhs):
        # M^-1 rhs, reused while the held preconditioner and rhs stay the
        # same: the right-hand side of every Picard iteration of a step is
        # rho_D^n u^n / dt + f, so only the first one pays this solve
        held = self._held_rhs
        if (held is None or held[0] is not self._precond
                or not np.array_equal(held[1], rhs)):
            held = self._held_rhs = (self._precond, rhs, self._precond(rhs))
        return held[2]

    def _checked(self, x, check, tol):
        # only an answer within tol becomes the next GMRES starting point
        out = check(x)
        if out[-1] <= tol:
            self._guess = x
        return out

    def _attempt(self, apply, rhs, check, tol, stats):
        x = self._krylov(apply, rhs, stats)
        if x is None:
            return None
        out = self._checked(x, check, tol)
        return out if out[-1] <= tol else None

    def _krylov(self, apply, rhs, stats):
        # left preconditioning spelled out, so that GMRES tests M^-1 r,
        # which approximates the error: the true residual of the reduced
        # system has a roundoff floor that grows with its condition number
        solve = self._precond
        pr_norm = np.inf    # GMRES's estimate of it, relative, at its last step

        def count(value):
            nonlocal pr_norm
            stats.krylov_iterations += 1
            pr_norm = value

        # the target stays relative to |M^-1 rhs|: the guess only shortens
        # the way to it
        x, info = _gmres(lambda v: solve(apply(v)), self._preconditioned(rhs),
                         x0=self._guess, rtol=REDUCED_RTOL,
                         restart=self.restart, callback=count)
        return x if info == 0 or pr_norm <= REDUCED_ACCEPT else None


class _TransportSolve(LinearSolve):
    """The :class:`LinearSolve` of the transport systems, whose Krylov
    cycle is BiCGSTAB (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992)
    of at most ``restart`` iterations, and whose ``apply`` is the transport
    matrix itself.  Its chain is a Jacobi link and the exact SuperLU link
    (see :func:`transport_solve`).  BiCGSTAB stops once the 2-norm of the
    residual, which bounds its max-norm, is within the acceptance bound;
    GMRES's test bounds the preconditioned 2-norm instead, and on a 128^2
    system it missed the max-norm bound at every restart from 20 to 80."""

    def _krylov(self, A, rhs, stats):
        def count(_):
            stats.krylov_iterations += 1

        # through the module attribute, with x0 by keyword, so that it can
        # be replaced by a stand-in
        x, _ = spla.bicgstab(A, rhs, x0=self._guess, rtol=0.0,
                             atol=TRANSPORT_RTOL * np.max(np.abs(rhs)),
                             maxiter=self.restart,
                             M=spla.LinearOperator(A.shape, self._precond,
                                                   dtype=float),
                             callback=count)
        return x


def _axis_modes(kind, widths, dual_widths):
    """Eigenpairs ``(lam, V)`` of ``K V = M V diag(lam)``, ``V^T M V = I``,
    for one axis of the Cartesian grid, ``lam`` ascending.  ``kind`` names
    the unknowns along the axis and their boundary condition:

    - ``"neumann"``: cells with no flux through the walls, as the pressure.
      ``K = D^T diag(1/d) D``, with ``D`` the difference of neighbouring
      cells and ``d`` the interior dual widths; ``M`` holds the cell
      widths, and ``lam`` ascends from the constant mode's 0.
    - ``"dirichlet"``: the interior vertices, zero on the walls, as a
      velocity component along its own axis.  ``K = D^T diag(1/h) D``, with
      ``D`` the difference across each cell and ``h`` the cell widths;
      ``M`` holds the interior dual widths.
    - ``"wall"``: cells with zero ghosts beyond the walls, as a velocity
      component across another axis.  ``K = E^T diag(1/d) E``, with ``E``
      the difference across every dual interval, the two boundary half
      cells included, and ``d`` their widths; ``M`` holds the cell widths.
    """
    n = widths.size
    if kind == "neumann":
        diff = np.diff(np.eye(n), axis=0)
        dist, mass = dual_widths[1:-1], widths
    elif kind == "dirichlet":
        diff = np.diff(np.eye(n + 1), axis=0)[:, 1:-1]
        dist, mass = widths, dual_widths[1:-1]
    else:   # "wall"
        diff = np.diff(np.eye(n + 2), axis=0)[:, 1:-1]
        dist, mass = dual_widths, widths
    t = diff.T @ (diff / dist[:, None])
    return eigh(t, np.diag(mass))


def _along(q, x, axis):
    """``q`` applied along ``axis`` of the array ``x``, by matmul."""
    shape = x.shape
    lead, rest = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    if axis == x.ndim - 1:
        return (x.reshape(lead, shape[axis]) @ q.T).reshape(shape)
    if lead == 1:
        return (q @ x.reshape(shape[axis], rest)).reshape(shape)
    return np.matmul(q, x.reshape(lead, shape[axis], rest)).reshape(shape)


class _Separable:
    """Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964) of
    ``S = sum_a s_a K_a (x) M_(others)`` on the Cartesian grid, one
    :func:`_axis_modes` pair ``(K_a, M_a)`` of the given kind per axis and
    ``M_(others)`` the Kronecker product of the other axes' ``M_b``.  With
    ``V = V_0 (x) V_1 ...`` and ``M = M_0 (x) M_1 ...``, ``V^T S V =
    diag(eig)`` and ``V^T M V = I``, so ``(c M + S)^-1 = V diag(1 / (c +
    eig)) V^T``:
    :meth:`solve` applies ``V diag(inv) V^T`` by one dense product per axis
    each way."""

    def __init__(self, mesh, kinds, weights):
        pairs = [_axis_modes(kind, mesh.widths[a], mesh.dual_widths[a])
                 for a, kind in enumerate(kinds)]
        self.modes = [v for _, v in pairs]
        self.shape = tuple(v.shape[0] for v in self.modes)
        self.eig = sum(s * _axis_view(lam, a, mesh.dim)
                       for a, (s, (lam, _)) in enumerate(zip(weights, pairs)))

    def solve(self, inv, r):
        """``V diag(inv) V^T r`` for a flat ``r`` in C order of ``shape``."""
        x = r.reshape(self.shape)
        for a, v in enumerate(self.modes):
            x = _along(v.T, x, a)
        x = x * inv
        for a, v in enumerate(self.modes):
            x = _along(v, x, a)
        return x.ravel()


def _velocity_blocks(mesh):
    """One :class:`_Separable` per velocity component ``i``: its
    ``eig`` are those of ``W_i`` times the component-diagonal block of the
    constant-viscosity ``-div_E(D(u))``, Dirichlet vertices along axis
    ``i`` and walls across it, where the strain rate halves the
    coefficient."""
    return [_Separable(mesh, ["dirichlet" if a == i else "wall"
                              for a in range(mesh.dim)],
                       [1.0 if a == i else 0.5 for a in range(mesh.dim)])
            for i in range(mesh.dim)]


def _stream_curl_matrix(mesh: MacMesh, dofs: ops.FaceDofMap):
    """2d only: sparse map from interior-vertex stream values to the
    interior-face velocity vector.  Its range is exactly the discretely
    divergence-free subspace of the homogeneous Dirichlet space (boundary
    stream values are fixed to zero)."""
    n0, n1 = mesh.n
    nv = (n0 - 1) * (n1 - 1)
    # vertex ids, -1 on the boundary (stream value 0)
    vertex = np.pad(np.arange(nv).reshape(n0 - 1, n1 - 1), 1, constant_values=-1)
    coo = ops._Coo((dofs.n_dofs, nv))
    # u_0 = +d_1 psi and u_1 = -d_0 psi: the difference of the two vertices
    # of each face along the other axis
    for i, axis, sign in ((0, 1, 1.0), (1, 0, -1.0)):
        rows = dofs.dof[i].reshape(mesh.faces_shape(i))
        lo, hi = _neighbours(vertex, axis)
        coef = sign / _axis_view(mesh.widths[axis], axis, mesh.dim)
        coo.add(rows, hi, coef)
        coo.add(rows, lo, -coef)
    return coo.build()


class StepSolver:
    """Holds the mesh-constant blocks of the velocity-pressure solve and
    the :class:`LinearSolve` chains of its momentum systems (``linear``)
    and its transport systems (``transport``).

    The route follows the dimension.  In 2d the divergence constraint is
    eliminated through the stream-function parametrization ("nullspace"),
    followed by a pressure recovery from the normal equations ``G^T W G p =
    G^T W (b - A u)``, whose answer is shifted to zero mean; this is exact
    because ``G 1 = 0``, so the right-hand side sums to zero.  ``W`` holds
    dual volumes only, so ``G^T W G = T_0 (x) H_1 + H_0 (x) T_1`` on the
    Cartesian grid, with ``H_a`` the cell widths and ``T_a`` the 1d Neumann
    operator of axis ``a``: the solver holds the eigenpairs of each ``(T_a,
    H_a)`` and inverts it by four dense products (see :class:`_Separable`).
    The first reduced system ``curl^T W A curl`` of a run is factored, and
    every later one is solved by GMRES preconditioned with that lagged
    factor, with ``A`` applied matrix-free: the factor is the chain's one
    link, and exact (see :class:`LinearSolve`).

    In 3d ("saddle") the Lagrange-bordered system ``[[A, G, 0], [D, 0,
    m], [0, m^T, 0]]`` is solved by GMRES.  ``A`` is assembled once per
    solve, through the held ``momentum_pattern``, and serves the GMRES
    product.  Both approximate links are one block upper-triangular
    preconditioner (Elman, Silvester & Wathen, 2014, ch. 9), which differ
    only in the two blocks they supply: a Schur part that gives the
    multiplier ``lam`` and ``y ~ L^-1 (r_p - m lam)`` with the mean the
    last row asks for, ``L = D diag(1/rho_D) G``, and a velocity part
    ``~ A^-1``.  Then ``z_p = y / dt - (mu_K/|K|) (r_p - m lam)``, its
    viscous term projected to zero mean so that ``z_p`` keeps the mean of
    ``y / dt``, and ``z_u = A^-1 (r_u - G z_p)``.  The chain has three
    links (see :class:`LinearSolve`), the last of them exact, of which the
    solver holds the one that last answered:

    1. Separable blocks, which factor nothing.  Both blocks have a
       tensor-product form on the Cartesian grid at constant coefficients
       (see :class:`_Separable`), inverted by fast diagonalization with
       eigenpairs the solver holds.  ``L ~ -kappa G^T W G``, with
       ``kappa`` the dual-volume mean of ``1/rho_D``: ``G 1 = 0``, so the
       multiplier is ``lam = sum(r_p) / |Omega|``, and ``L^-1 (r_p - m
       lam)`` is the pseudo-inverse's zero-mean answer plus the constant
       the last row asks for.  Velocity component ``i`` is ``W_i^-1 (c_1
       W_i + c_2 S_i)`` with ``S_i`` its constant-viscosity diffusion
       block (see :func:`_velocity_blocks`), ``c_1`` the dual-volume mean
       of ``rho_D / dt`` and ``c_2`` the cell-volume mean of ``mu``, scaled
       on both sides by ``sqrt(rho_D / (dt c_1))`` so that its mass term
       is exact.  Convection and the cross-component viscous coupling are
       left to GMRES.
    2. SuperLU blocks: a factor of ``A`` and one of ``L`` bordered by the
       cell volumes ``m``, whose bordered solve also gives the multiplier.
       At density ratio 1000 with the viscosity falling 500-fold,
       the separable blocks can miss where these answer.
    3. The saddle matrix assembled afresh and factored, applied with one
       step of iterative refinement: the exact link.  It answers the
       system it was built for with no GMRES and is then held like the
       other two, so that a nearby system is answered by GMRES with it
       instead of walking the chain again.

    A new link is built only when GMRES misses its target or the residual
    check below fails.  Both routes
    check the residual of the original equations against ``linear_tol``,
    with ``A`` applied matrix-free: an assembled matrix never decides
    whether an answer is accepted.  ``transport_pattern`` holds the CSR
    pattern of the transport matrix for :func:`transport_solve`, and
    ``transport`` the chain of its systems (see :class:`_TransportSolve`),
    whose held link and last accepted density carry over from one
    transport system to the next, across steps too.

    A solver also remembers the state its last step published, with the
    velocity of the state before it and that step's dt, so that the next
    step from that very state can start its Picard loop from the
    extrapolated velocity (see :meth:`_picard_start`).
    """

    def __init__(self, mesh: MacMesh):
        self.mesh = mesh
        self.dofs = ops.FaceDofMap(mesh)
        self.grad = ops.pressure_gradient_matrix(mesh, self.dofs)
        self.grad_t = self.grad.T       # CSC views sharing the CSR data
        self.div_c = ops.divergence_constraint_matrix(mesh, self.dofs)
        self.cell_vol = mesh.cell_volumes.ravel()
        self.dual_vol = self.dofs.pack([mesh.dual_volumes(i)
                                        for i in range(mesh.dim)])
        self.linear = LinearSolve(GMRES_RESTART if mesh.dim == 2
                                  else SADDLE_RESTART)
        self.transport_pattern = ops._Pattern()
        self.transport = _TransportSolve(TRANSPORT_MAXITER)
        self._last_step = None      # (published state, u before it, dt)
        if mesh.dim == 2:
            self.curl = _stream_curl_matrix(mesh, self.dofs)
            self.curl_t = self.curl.T
            self.weight = sp.diags(self.dual_vol)
        else:
            # the saddle route assembles A on every solve; the reduced
            # route only to factor it, and at 256^2 holding the map beside
            # that factor would add ~5% to the peak memory
            self.momentum_pattern = ops._Pattern()
            self._velocity = _velocity_blocks(mesh)
        # the modes of G^T W G: the pressure recovery of the reduced route
        # and the separable pressure block of the saddle route
        self._pressure = _Separable(mesh, ["neumann"] * mesh.dim,
                                    [1.0] * mesh.dim)
        # G 1 = 0: G^T W G is singular along the constants only, the
        # (0, ..., 0) mode, whose coefficient in every right-hand side
        # G^T W r is zero but for roundoff
        eig = self._pressure.eig.copy()
        eig.flat[0] = 1.0
        self._pressure_inv = 1.0 / eig
        self._pressure_inv.flat[0] = 0.0

    def _picard_start(self, state: TimeState, dt):
        """The velocity from which the Picard loop of a step from ``state``
        at ``dt`` starts: ``2 u^n - u^{n-1}`` when this solver's last step
        went from a state with velocity ``u^{n-1}`` to ``state`` itself at
        ``dt``; ``u^n`` otherwise.  Its exterior faces are exactly zero, as
        those of both velocities are."""
        if self._last_step is None:
            return state.u
        published, u_before, last_dt = self._last_step
        if state is not published or dt != last_dt:
            return state.u
        return VelocityField(self.mesh, [
            2.0 * u_n - u_b
            for u_n, u_b in zip(state.u.components, u_before.components)])

    def _recover_pressure(self, rhs):
        """The zero-mean solution of ``G^T W G p = rhs`` for a ``rhs`` that
        sums to zero: in 2d ``V_0 [(V_0^T R V_1) / (lam_0i + lam_1j)]
        V_1^T`` (see :class:`_Separable`) with the constant mode dropped,
        shifted to zero mean for roundoff."""
        p = self._pressure.solve(self._pressure_inv, rhs)
        return p - np.dot(self.cell_vol, p) / self.mesh.domain_measure

    def _momentum_apply(self, mass, fluxes, mu_t, scheme):
        """Matrix-free product with the matrix of ``ops._momentum_matrix``."""
        mesh, dofs = self.mesh, self.dofs

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

    def _reduced(self, apply, assemble, b, linear_tol, stats):
        """2d: the reduced stream-function system, then the pressure."""
        curl, curl_t, w = self.curl, self.curl_t, self.dual_vol

        # W is applied to vectors elementwise; as a DIA product it would add
        # the same d * x to zeros
        def apply_reduced(psi):
            return curl_t @ (w * apply(curl @ psi))

        def factor_reduced():
            # A and the CSR product are freed before SuperLU allocates
            lu = _splu((curl_t @ (self.weight @ (assemble() @ curl))).tocsc(),
                       "reduced momentum system", stats, symmetric_pattern=True)
            return lu.solve

        def recover(psi):
            u_vec = curl @ psi
            Au = apply(u_vec)
            p_vec = self._recover_pressure(self.grad_t @ (w * (b - Au)))
            return u_vec, p_vec, self._residual(Au, u_vec, p_vec, b)

        return self.linear.solve(apply_reduced, (factor_reduced,),
                                 curl_t @ (w * b), recover, linear_tol,
                                 stats)

    def _saddle(self, apply, assemble, b, rho_dual_new, mu_t, dt, linear_tol,
                stats):
        """The bordered saddle system, block-preconditioned (see the class
        docstring)."""
        nu, nc = b.size, self.mesh.n_cells
        grad, div_c, m = self.grad, self.div_c, self.cell_vol
        rhs = np.zeros(nu + nc + 1)
        rhs[:nu] = b
        A = assemble(self.momentum_pattern)

        def apply_saddle(x):
            u_vec, p_vec = x[:nu], x[nu:nu + nc]
            out = np.empty_like(x)
            out[:nu] = A @ u_vec + grad @ p_vec
            out[nu:nu + nc] = div_c @ u_vec + m * x[-1]
            out[-1] = np.dot(m, p_vec)
            return out

        rho_d = self.dofs.pack(rho_dual_new)
        visc = mu_t.mu_cells.ravel() / m
        vol = self.mesh.domain_measure

        def block_triangular(schur, velocity):
            # the preconditioner of both approximate links (see the class
            # docstring): schur(r) gives (y, lam), velocity(x) ~ A^-1 x
            def precond(r):
                y, lam = schur(r)
                v = visc * (r[nu:nu + nc] - m * lam)
                v -= np.dot(m, v) / vol
                z_p = y / dt - v
                return np.concatenate([velocity(r[:nu] - grad @ z_p), z_p,
                                       [lam]])

            return precond

        def separable_blocks():
            # the blocks at constant coefficients, inverted by fast
            # diagonalization (see the class docstring); the held
            # preconditioner refers to no StepSolver, so that a solver
            # is freed without waiting for the cycle collector
            w, pressure, pressure_inv = (self.dual_vol, self._pressure,
                                         self._pressure_inv)
            c_mass = np.dot(w, rho_d) / (dt * w.sum())
            c_visc = np.dot(m, mu_t.mu_cells.ravel()) / vol
            kappa = np.dot(w, 1.0 / rho_d) / w.sum()
            scale = np.sqrt(c_mass * dt / rho_d)
            blocks = [(blk, 1.0 / (c_mass + c_visc * blk.eig),
                       slice(off, off + ids.size))
                      for blk, off, ids in zip(self._velocity,
                                               self.dofs.offsets,
                                               self.dofs.interior)]

            def schur(r):
                # G 1 = 0, so that L y = r_p - m lam is solvable; the
                # pseudo-inverse's answer has zero mean, and the last row
                # asks for the mean dt r_-1
                lam = r[nu:nu + nc].sum() / vol
                return (dt * r[-1] / vol
                        - pressure.solve(pressure_inv, r[nu:nu + nc] - m * lam)
                        / kappa), lam

            def velocity(x):
                x = scale * w * x
                z_u = np.empty(nu)
                for blk, inv, part in blocks:
                    z_u[part] = blk.solve(inv, x[part])
                return scale * z_u

            return block_triangular(schur, velocity)

        def factor_blocks():
            a_lu = _splu(A.tocsc(), "momentum block", stats,
                         symmetric_pattern=True)
            lap = div_c @ sp.diags(1.0 / rho_d) @ grad
            l_lu = _splu(sp.bmat([[lap, m[:, None]], [m[None, :], None]],
                                 format="csc"),
                         "pressure Schur approximation", stats,
                         symmetric_pattern=True)

            def schur(r):
                # the bordered solve gives L^-1 r_p with the mean the last
                # row asks for, and the multiplier
                y = l_lu.solve(np.append(r[nu:nu + nc], dt * r[-1]))
                return y[:nc], y[-1]

            return block_triangular(schur, a_lu.solve)

        def saddle_lu():
            # assembled afresh: the exact link shares no pattern with the
            # Krylov product and the blocks
            K = sp.bmat([[assemble(), grad, None],
                         [div_c, None, m[:, None]],
                         [None, m[None, :], None]], format="csc")
            lu = _splu(K, "momentum saddle system", stats)

            def precond(r):
                # one step of iterative refinement with the same factor:
                # the pivoting on the indefinite matrix alone leaves
                # max |div u| near the 1e-10 that step_audit flags on
                # stretched 3d grids
                sol = lu.solve(r)
                return sol + lu.solve(r - K @ sol)

            return precond

        def split(x):
            # the check applies A matrix-free, never the assembled A
            u_vec, p_vec = x[:nu], x[nu:nu + nc]
            return u_vec, p_vec, self._residual(apply(u_vec), u_vec, p_vec, b)

        return self.linear.solve(apply_saddle,
                                 (separable_blocks, factor_blocks, saddle_lu),
                                 rhs, split, linear_tol, stats)

    def momentum_solve(self, prev: TimeState, fluxes: ops.MassFluxSet, mu_t,
                       f_faces, dt, scheme="centered", linear_tol=1e-9,
                       stats: StepStats | None = None):
        """One Oseen solve from the state ``prev`` with frozen fluxes;
        returns (u, p, residual) satisfying the momentum rows, the
        divergence constraint and the zero-mean pressure constraint to
        within ``linear_tol``.  The new dual densities are those of the
        density ``fluxes`` carry.  Work is counted into ``stats`` when
        given."""
        stats = StepStats() if stats is None else stats
        mesh, dofs = self.mesh, self.dofs
        rho_dual_new = ops.dual_cell_density(fluxes.rho)
        b = dofs.pack(prev.rho_dual) * dofs.pack(
            [prev.u.shaped(i) for i in range(mesh.dim)]) / dt
        if f_faces is not None:
            b = b + dofs.pack(f_faces)
        mass = dofs.pack(rho_dual_new) / dt
        apply = self._momentum_apply(mass, fluxes, mu_t, scheme)

        def assemble(pattern=None):
            return ops._momentum_matrix(mass, fluxes, mu_t, scheme, dofs,
                                        pattern)

        if mesh.dim == 2:
            u_vec, p_vec, res = self._reduced(apply, assemble, b, linear_tol,
                                              stats)
        else:
            u_vec, p_vec, res = self._saddle(apply, assemble, b, rho_dual_new,
                                             mu_t, dt, linear_tol, stats)
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
    A stalled step is first retried with every momentum system answered
    by the exact link (see :class:`LinearSolve`): a lagged answer within
    ``linear_tol`` can still hold the Picard residual above a
    ``picard_tol`` near its roundoff floor.  The returned stats count the
    work of both attempts.

    The first attempt starts from :meth:`StepSolver._picard_start`, the
    extrapolated velocity when ``step_solver`` published ``state`` at this
    dt; the retry starts from ``state.u``.
    """
    solver = step_solver or StepSolver(state.rho.mesh)
    stats = StepStats()
    try:
        out = _picard_step(state, cfg, mu_law, f_faces, solver, stats,
                           solver._picard_start(state, cfg.dt))
    except PicardDivergenceError:
        out = None
    if out is None:
        solver.linear.lagged = False
        try:
            out = _picard_step(state, cfg, mu_law, f_faces, solver, stats,
                               state.u)
        finally:
            solver.linear.lagged = True
    solver._last_step = (out[0], state.u, cfg.dt)
    return out


def _picard_step(state, cfg, mu_law, f_faces, solver, stats, u_start):
    dt = cfg.dt
    u_iter = u_start
    stats.predicted = u_start is not state.u
    stats.picard_residuals.clear()     # a retry keeps its own history
    for k in range(cfg.picard_max):
        rho_new = transport_solve(state.rho, u_iter, dt, cfg.linear_tol, stats,
                                  solver)
        mu_t = ops.viscosity_tensor(rho_new, mu_law)
        u_new, p_new, _ = solver.momentum_solve(
            state, ops.mass_fluxes(rho_new, u_iter), mu_t, f_faces, dt,
            cfg.advection_scheme, cfg.linear_tol, stats)
        # nonlinear residuals of the coupled system at the updated iterate
        stats.mass_residual, stats.momentum_residual = \
            verification.coupled_residuals(
                state, ops.mass_fluxes(rho_new, u_new), p_new, mu_t, f_faces,
                dt, cfg.advection_scheme)
        stats.iterations = k + 1
        stats.picard_residuals.append(max(stats.mass_residual,
                                          stats.momentum_residual))
        u_iter = u_new
        if stats.picard_residuals[-1] <= cfg.picard_tol:
            break
    else:
        raise PicardDivergenceError(
            f"no convergence in {cfg.picard_max} Picard iterations "
            f"(residual {stats.picard_residuals[-1]:g})",
            residual=stats.picard_residuals[-1], iterations=cfg.picard_max)
    # re-solve transport with the accepted velocity so the published pair
    # satisfies the mass balance in every cell to within TRANSPORT_RTOL
    rho_final = transport_solve(state.rho, u_iter, dt, cfg.linear_tol, stats,
                                solver)
    new_state = TimeState(
        t=state.t + dt,
        rho=rho_final,
        u=u_iter,
        p=p_new,
        rho_bounds=state.rho_bounds,
    )
    return new_state, stats


def initial_state(mesh: MacMesh, rho0, u0, quadrature_order=5) -> TimeState:
    """Project the initial data: cell averages for the density, dual-cell
    means for the velocity, zero pressure."""
    rho = project_cell(mesh, rho0, quadrature_order)
    if rho.values.min() <= 0.0:
        raise SolverError("initial density must be positive")
    u = project_face(mesh, u0, variant="dual", order=quadrature_order)
    p = CellScalarField(mesh, np.zeros(mesh.n_cells))
    return TimeState(
        t=0.0, rho=rho, u=u, p=p,
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
    solver = StepSolver(mesh)
    n_steps = cfg.n_steps
    forcing_cache = None
    records = []
    bv_accum = 0.0
    h1_sq_sum = 0.0
    f_sq_sum = 0.0
    initial_u = norm_l2(state.u)
    initial_rho = norm_l2(state.rho)
    max_u = initial_u
    if snapshot_writer is not None:
        snapshot_writer(state, 0)
    for step in range(1, n_steps + 1):
        t_new = step * cfg.dt
        if problem.forcing is None:
            f_faces = None
        elif problem.time_independent_forcing:
            if forcing_cache is None:
                forcing_cache = problem.forcing_faces(t_new, cfg)
            f_faces = forcing_cache
        else:
            f_faces = problem.forcing_faces(t_new, cfg)
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
