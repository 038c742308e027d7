import numpy as np
import pytest

from macflow.mesh import AxisPartition, build_mesh


@pytest.fixture
def mesh22():
    return build_mesh([AxisPartition.uniform(0.0, 1.0, 2)] * 2)


@pytest.fixture
def mesh33():
    # non-uniform in both directions
    return build_mesh([[0.0, 0.2, 0.5, 1.0], [0.0, 0.4, 0.7, 1.0]])


@pytest.fixture
def mesh_stretched():
    return build_mesh([AxisPartition.geometric(0.0, 1.0, 16, 3.0)] * 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_velocity(mesh, rng):
    from macflow.fields import VelocityField
    return VelocityField.from_interior(
        mesh, [rng.uniform(-1.0, 1.0, mesh.faces_shape(i))
               for i in range(mesh.dim)])


def random_cells(mesh, rng, lo=-1.0, hi=1.0):
    from macflow.fields import CellScalarField
    return CellScalarField(mesh, rng.uniform(lo, hi, mesh.n_cells))


def state_at(rho, u):
    """A time state with density ``rho``, velocity ``u`` and zero pressure:
    the previous state of a momentum solve."""
    from macflow.fields import CellScalarField
    from macflow.solver import TimeState
    p = CellScalarField(rho.mesh, np.zeros(rho.mesh.n_cells))
    return TimeState(0.0, rho, u, p, (rho.values.min(), rho.values.max()))


class SpluFault:
    """Stand-in for ``scipy.sparse.linalg.splu`` that counts its calls,
    keeps the keyword arguments and the factor of each call that returned
    in ``factors``, and raises RuntimeError, as SuperLU does on a singular
    matrix, from call ``fail_from`` on (1-based; None never fails)."""

    def __init__(self, real, fail_from=None):
        self.real = real
        self.fail_from = fail_from
        self.calls = 0
        self.factors = []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.fail_from is not None and self.calls >= self.fail_from:
            raise RuntimeError("Factor is exactly singular")
        lu = self.real(*args, **kwargs)
        self.factors.append((kwargs, lu))
        return lu


def true_fill(factors):
    """The L and U entries summed over ``factors`` (``SpluFault.factors``),
    after checking that each was ordered on the symmetric pattern and
    stores exactly those entries, no zeros of relaxed supernodes."""
    for kwargs, lu in factors:
        assert kwargs.get("permc_spec") == "MMD_AT_PLUS_A"
        assert lu.nnz == lu.L.nnz + lu.U.nnz
    return sum(lu.L.nnz + lu.U.nnz for _, lu in factors)


# monkeypatch target of the momentum GMRES cycle
GMRES = "macflow.solver._gmres"


class KrylovStall:
    """Stand-in for a Krylov solver (``scipy.sparse.linalg.bicgstab`` or
    ``macflow.solver._gmres``) that counts its calls and, on calls
    ``stall_from`` to ``stall_to`` (1-based, inclusive; None leaves that
    end open, and ``stall_from=None`` never stalls), stagnates: it returns
    an unconverged iterate (all ones) with ``info``, by default positive as
    from a solver that ran out of iterations; 0 reports a wrong iterate as
    converged.  ``kwargs`` holds the keyword arguments of every call."""

    def __init__(self, real, stall_from=None, stall_to=None, info=1):
        self.real = real
        self.stall_from = stall_from
        self.stall_to = stall_to
        self.info = info
        self.calls = 0
        self.kwargs = []

    def __call__(self, A, b, *args, **kwargs):
        self.calls += 1
        self.kwargs.append(kwargs)
        if self.stall_from is not None and self.calls >= self.stall_from \
                and (self.stall_to is None or self.calls <= self.stall_to):
            return np.ones_like(b), self.info
        return self.real(A, b, *args, **kwargs)


# monkeypatch target of the transport solve of the Picard loop
TRANSPORT = "macflow.solver.transport_solve"


class TransportSpy:
    """Stand-in for ``macflow.solver.transport_solve`` that keeps the
    velocity of every call in ``velocities``."""

    def __init__(self, real):
        self.real = real
        self.velocities = []

    def __call__(self, rho_n, u, *args, **kwargs):
        self.velocities.append(u)
        return self.real(rho_n, u, *args, **kwargs)


def same_velocity(u, v):
    return all(np.array_equal(a, b) for a, b in zip(u.components,
                                                     v.components))


def extrapolated(u_n, u_before):
    """``2 u_n - u_before``; building the field checks that its exterior
    faces are zero."""
    from macflow.fields import VelocityField
    return VelocityField(u_n.mesh, [2.0 * a - b for a, b in
                                    zip(u_n.components, u_before.components)])


def picard_start_gain(problem, cfg, step):
    """Runs ``problem`` under ``cfg`` for ``step - 1`` steps with one
    ``StepSolver``, then takes step ``step`` twice from the same state: with
    that solver, whose Picard loop starts from the extrapolated velocity,
    and with a fresh one, which starts from the state's.  Checks that the
    two converged states agree within ``1e3 max(picard_tol, linear_tol)``
    relative to each field's largest entry, as the benchmark fingerprints
    do, and returns the two first Picard residuals, own solver first."""
    from macflow.solver import StepSolver, advance_timestep, initial_state

    solver = StepSolver(problem.mesh)
    state = initial_state(problem.mesh, problem.rho0, problem.u0)

    def forcing(k):
        if problem.forcing is None:
            return None
        return problem.forcing_faces(k * cfg.dt, cfg)

    for k in range(1, step):
        state, _ = advance_timestep(state, cfg, problem.mu_law, forcing(k),
                                    solver)
    runs = [advance_timestep(state, cfg, problem.mu_law, forcing(step), s)
            for s in (solver, StepSolver(problem.mesh))]
    (own, own_stats), (fresh, fresh_stats) = runs
    assert own_stats.predicted and not fresh_stats.predicted
    tol = 1e3 * max(cfg.picard_tol, cfg.linear_tol)
    for a, b in ((own.rho.values, fresh.rho.values),
                 (np.concatenate(own.u.components),
                  np.concatenate(fresh.u.components)),
                 (own.p.values, fresh.p.values)):
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))
    return own_stats.picard_residuals[0], fresh_stats.picard_residuals[0]


def warm_started_solve(problem, cfg):
    """Runs ``problem`` under ``cfg`` and returns the positional arguments
    and the answer ``(u, p, res)`` of its last momentum solve that GMRES
    answered with the held preconditioner, starting from a held answer."""
    from macflow.solver import StepSolver, advance_timestep, initial_state

    solver = StepSolver(problem.mesh)
    real = solver.momentum_solve
    found = []

    def spy(*args):
        warm = solver.linear._guess is not None
        held = solver.linear._precond
        out = real(*args)
        if warm and held is not None and solver.linear._precond is held:
            found.append((args, out))
        return out

    solver.momentum_solve = spy
    state = initial_state(problem.mesh, problem.rho0, problem.u0)
    for step in range(1, cfg.n_steps + 1):
        state, _ = advance_timestep(state, cfg, problem.mu_law,
                                    problem.forcing_faces(step * cfg.dt, cfg),
                                    solver)
    assert found, "no momentum solve was answered by warm-started GMRES"
    return found[-1]


def rhs_preconditionings(problem, cfg):
    """Runs ``problem`` under ``cfg`` with one ``StepSolver`` and returns,
    per step, its ``StepStats`` and how often a preconditioner that the
    solver's ``LinearSolve`` built was applied to that step's momentum
    right-hand side, after checking that every momentum solve of the step
    had the same one."""
    from macflow.solver import StepSolver, advance_timestep, initial_state

    solver = StepSolver(problem.mesh)
    real = solver.linear.solve
    step_rhs, counts = [], []

    def spy(apply, links, rhs, *args):
        if step_rhs[-1] is None:
            step_rhs[-1] = rhs
        assert np.array_equal(rhs, step_rhs[-1])

        def counted_link(build):
            def counted_build():
                precond = build()

                def counted(r):
                    counts[-1] += np.array_equal(r, step_rhs[-1])
                    return precond(r)

                return counted

            return counted_build

        return real(apply, tuple(map(counted_link, links)), rhs, *args)

    solver.linear.solve = spy
    state = initial_state(problem.mesh, problem.rho0, problem.u0)
    per_step = []
    for step in range(1, cfg.n_steps + 1):
        step_rhs.append(None)
        counts.append(0)
        f = (None if problem.forcing is None
             else problem.forcing_faces(step * cfg.dt, cfg))
        state, stats = advance_timestep(state, cfg, problem.mu_law, f, solver)
        per_step.append((stats, counts[-1]))
    return per_step


def assert_matches_direct_solve(mesh, args, answer):
    """The answer ``(u, p, res)`` of ``StepSolver.momentum_solve(*args)``
    meets ``linear_tol`` and matches a ``lagged=False`` solve of the same
    system, which the exact last link of the chain answers alone.  Each answer's residual ``r`` is relative to ``max(|b|, 1)`` and
    bounds the 2-norm of ``K x - rhs`` for the bordered saddle matrix ``K``,
    so two answers within ``linear_tol`` differ by at most ``2 linear_tol
    max(|b|, 1) / sigma_min(K)`` in velocity and pressure together."""
    import scipy.sparse as sp

    from macflow import operators as ops
    from macflow.solver import StepSolver, StepStats

    prev, fluxes, mu_t, f_faces, dt, scheme, linear_tol, _ = args
    u, p, res = answer
    assert res <= linear_tol
    ref = StepSolver(mesh)
    ref.linear.lagged = False
    stats = StepStats()
    u_ref, p_ref, res_ref = ref.momentum_solve(*args[:-1], stats)
    assert stats.krylov_iterations == 0 and res_ref <= linear_tol

    dofs = ops.FaceDofMap(mesh)
    b = dofs.pack(prev.rho_dual) * dofs.pack(
        [prev.u.shaped(i) for i in range(mesh.dim)]) / dt
    if f_faces is not None:
        b = b + dofs.pack(f_faces)
    A = (sp.diags(dofs.pack(ops.dual_cell_density(fluxes.rho)) / dt)
         + ops.convection_matrix(fluxes, scheme, dofs)
         - ops.diffusion_matrix(mesh, mu_t, dofs))
    m = mesh.cell_volumes.ravel()
    K = sp.bmat([[A, ops.pressure_gradient_matrix(mesh, dofs), None],
                 [ops.divergence_constraint_matrix(mesh, dofs), None,
                  m[:, None]],
                 [None, m[None, :], None]])
    sigma_min = np.linalg.svd(K.toarray(), compute_uv=False)[-1]
    bound = 2.0 * linear_tol * max(np.linalg.norm(b), 1.0) / sigma_min
    du = dofs.pack([u.shaped(i) - u_ref.shaped(i) for i in range(mesh.dim)])
    dp = p.values - p_ref.values
    assert np.hypot(np.linalg.norm(du), np.linalg.norm(dp)) <= bound
    # and, as the direct-solve oracles of the solver tests ask, entrywise
    assert np.max(np.abs(du)) <= linear_tol
    assert np.max(np.abs(dp)) <= linear_tol
