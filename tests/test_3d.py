"""The geometry and operator code paths are dimension-generic; exercise them
once on a small 3d grid (full acceptance coverage is 2d), and the 3d saddle
solve: block-preconditioned GMRES with held preconditioner blocks and its
fallback chain."""

import gc
import os
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (GMRES, TRANSPORT, KrylovStall, SpluFault,
                      TransportSpy, assert_matches_direct_solve,
                      direct_saddle_solve, extrapolated, picard_start_gain,
                      rhs_preconditionings, same_velocity, state_at,
                      true_fill, warm_started_solve)
from macflow import operators as ops
from macflow.config import load_config
from macflow.fields import CellScalarField, VelocityField, norm_h1
from macflow.mesh import AxisPartition, build_mesh
from macflow.problems import Problem, linear_viscosity, make_problem
from macflow import solver as solver_module
from macflow.solver import (LinearSolve, LinearSolveError, SolverConfig,
                            SolverError, StepSolver, StepStats,
                            _gmres, advance_timestep, initial_state,
                            run_simulation, transport_solve)
from macflow.verification import check_dualities, velocity_estimate_bounds

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.fixture(scope="module")
def mesh3d():
    return build_mesh([[0.0, 0.4, 1.0], [0.0, 0.5, 1.0], [0.0, 0.3, 1.0]])


def test_identities_hold_in_3d(mesh3d):
    report = check_dualities(mesh3d, trials=10, seed=8)
    for name, value in report.items():
        assert value <= 1e-12, name


def test_partitions_in_3d(mesh3d):
    omega = mesh3d.domain_measure
    for i in range(3):
        assert mesh3d.dual_volumes(i).sum() == pytest.approx(omega)
        for j in range(3):
            assert mesh3d.pair_volumes(i, j).sum() == pytest.approx(omega)


def test_transport_in_3d(mesh3d, rng):
    rho = CellScalarField(mesh3d, rng.uniform(1.0, 2.0, mesh3d.n_cells))
    u = VelocityField.from_interior(
        mesh3d, [rng.uniform(-1, 1, mesh3d.faces_shape(i)) for i in range(3)])
    out = transport_solve(rho, u, 0.05)
    assert out.values.min() >= 0.0
    vols = mesh3d.cell_volumes.ravel()
    assert np.dot(vols, out.values) == pytest.approx(np.dot(vols, rho.values))


def test_norms_and_strain_in_3d(mesh3d, rng):
    u = VelocityField.from_interior(
        mesh3d, [rng.uniform(-1, 1, mesh3d.faces_shape(i)) for i in range(3)])
    assert norm_h1(u) ** 2 == pytest.approx(ops.gradient_inner(u, u), rel=1e-12)
    strain = ops.strain_tensor(u)
    assert set(strain) == {(i, j) for i in range(3) for j in range(3)}


def test_saddle_solve_is_divergence_free_on_stretched_3d(rng):
    mesh = build_mesh([AxisPartition.geometric(0.0, 1.0, 6, 3.0)] * 3)
    rho = CellScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
    mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
    adv = VelocityField.from_interior(
        mesh, [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(3)])
    f = [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(3)]
    u, _, _ = StepSolver(mesh).momentum_solve(
        state_at(rho, adv), ops.mass_fluxes(rho, adv), mu_t, f, 0.01)
    assert np.max(np.abs(ops.divergence(u).values)) <= 1e-12


def stretched_mesh(n):
    return build_mesh([AxisPartition.geometric(0.0, 1.0, n, 3.0)] * 3)


def stirred_problem(mesh):
    """mms_b on the unit cube: a solenoidal vortex
    u = 60 grad(g(x) g(y) g(z)) x e, which vanishes on every wall, in a
    sinusoidal density under buoyancy along z."""
    return make_problem("mms_b", mesh, {"velocity_amplitude": 60.0})


def test_shipped_stirred_config_runs_clean():
    # configs/stir-3d.json: mms_b on a uniform 10^3 unit cube, 3 steps
    setup = load_config(os.path.join(CONFIGS, "stir-3d.json"))
    problem = setup.problem
    assert setup.mesh.dim == 3
    lo, hi = initial_state(setup.mesh, problem.rho0, problem.u0).rho_bounds
    result = run_simulation(problem, setup.solver)
    assert len(result.records) == 3
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    for record in result.records:
        assert record.violations == ()
        assert lo - slack <= record.rho_min <= record.rho_max <= hi + slack
    est = velocity_estimate_bounds(result, problem.mu_law)
    assert est["linf_l2_satisfied"] and est["l2_h1_satisfied"]


class TestBlockPreconditionedSaddle:
    """The 3d saddle system is solved by GMRES with a held block
    preconditioner: separable velocity and Cahouet-Chabard pressure blocks
    first.  A rejected answer builds fresh separable blocks, then a fresh
    factor pair of the velocity block and the variable-density pressure
    Laplacian, then the exact link, the saddle LU, which is then held like
    the others.  Answers are checked against the direct solve of the
    bordered system assembled from the operator matrices
    (``conftest.direct_saddle_solve``)."""

    DT = 0.02

    @staticmethod
    def _system(mesh, rng, near=None):
        """A random system, or, given the mass fluxes ``near`` of another
        one, a system 5% away from their (rho, u), as between two Picard
        iterations."""
        axes = range(mesh.dim)
        rho = rng.uniform(1.0, 2.0, mesh.n_cells)
        adv = [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in axes]
        if near is not None:
            rho = near.rho.values * (1.0 + 0.05 * (rho - 1.5))
            adv = [near.u.shaped(i) + 0.05 * adv[i] for i in axes]
        rho = CellScalarField(mesh, rho)
        adv = VelocityField.from_interior(mesh, adv)
        return (state_at(rho, adv), ops.mass_fluxes(rho, adv),
                ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r),
                [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in axes])

    def _solve(self, solver, system, stats, linear_tol=1e-9):
        return solver.momentum_solve(*system, self.DT, linear_tol=linear_tol,
                                     stats=stats)

    def _assert_matches(self, mesh, system, u, p):
        u_ref, p_ref, _, _ = direct_saddle_solve(*system, self.DT)
        u_vec = ops.FaceDofMap(mesh).pack([u.shaped(i)
                                           for i in range(mesh.dim)])
        assert np.max(np.abs(u_vec - u_ref)) <= 1e-9
        assert np.max(np.abs(p.values - p_ref)) <= 1e-9

    def test_krylov_answers_match_direct_oracle(self, rng):
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        stats = StepStats()
        near = held = None
        for _ in range(2):
            # fresh separable blocks first, then the held ones on nearby
            # data; neither factors anything
            system = self._system(mesh, rng, near)
            iterations = stats.krylov_iterations
            u, p, res = self._solve(solver, system, stats)
            assert stats.factorizations == 0
            assert stats.krylov_iterations > iterations
            assert res <= 1e-9
            self._assert_matches(mesh, system, u, p)
            assert held is None or solver.linear._precond is held
            held = solver.linear._precond
            near = system[1]

    @pytest.mark.parametrize("info", [1, 0],
                             ids=["stagnated", "wrong_converged"])
    def test_rejected_krylov_answer_refactors_both_blocks_once(
            self, rng, monkeypatch, info):
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        stats = StepStats()
        self._solve(solver, self._system(mesh, rng), stats)
        system = self._system(mesh, rng)
        lu_calls = SpluFault(spla.splu)
        stall = KrylovStall(_gmres, stall_from=1, stall_to=2, info=info)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(GMRES, stall)
        u, p, res = self._solve(solver, system, stats)
        # the held and the fresh separable blocks stall; the fresh factor
        # pair answers
        assert stall.calls == 3
        assert lu_calls.calls == 2 and stats.factorizations == 2
        assert res <= 1e-9
        monkeypatch.undo()
        self._assert_matches(mesh, system, u, p)

    def test_second_stall_reaches_direct_saddle_lu(self, rng, monkeypatch):
        # a first system has no held blocks: the separable blocks, then the
        # factor pair stall, and the saddle LU answers
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        stats = StepStats()
        system = self._system(mesh, rng)
        lu_calls = SpluFault(spla.splu)
        stall = KrylovStall(_gmres, stall_from=1)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(GMRES, stall)
        u, p, res = self._solve(solver, system, stats)
        assert stall.calls == 2
        assert lu_calls.calls == 3 and stats.factorizations == 3
        assert res <= 1e-9
        monkeypatch.undo()
        self._assert_matches(mesh, system, u, p)
        assert np.max(np.abs(ops.divergence(u).values)) <= 1e-12

    def test_wrong_assembled_product_is_caught_by_matrix_free_check(
            self, rng, monkeypatch):
        # GMRES and the factored blocks use A assembled through the held
        # pattern; scaled by 1 + 1e-6 it still gives converged GMRES
        # answers, to the wrong system, which the matrix-free residual check
        # rejects with the held and the fresh separable blocks and the
        # fresh factor pair; the direct saddle LU assembles A afresh
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        stats = StepStats()
        first = self._system(mesh, rng)
        self._solve(solver, first, stats)
        real = ops._momentum_matrix

        def perturbed(mass, fluxes, mu_t, scheme, dofs, pattern=None):
            mat = real(mass, fluxes, mu_t, scheme, dofs, pattern)
            return mat if pattern is None else mat * (1.0 + 1e-6)

        real_krylov = LinearSolve._krylov
        answers = []

        def krylov(self, *args):
            x = real_krylov(self, *args)
            answers.append(x is not None)
            return x

        monkeypatch.setattr(ops, "_momentum_matrix", perturbed)
        monkeypatch.setattr(LinearSolve, "_krylov", krylov)
        system = self._system(mesh, rng, near=first[1])
        u, p, res = self._solve(solver, system, stats)
        assert answers == [True, True, True]
        # the fresh factor pair and the saddle LU; the first system was
        # answered with separable blocks
        assert stats.factorizations == 2 + 1
        assert res <= 1e-9
        monkeypatch.undo()
        self._assert_matches(mesh, system, u, p)

    def test_direct_saddle_lu_failure_is_typed(self, rng, monkeypatch):
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        stats = StepStats()
        self._solve(solver, self._system(mesh, rng), stats)
        fault = SpluFault(spla.splu, fail_from=3)
        stall = KrylovStall(_gmres, stall_from=1)
        monkeypatch.setattr(spla, "splu", fault)
        monkeypatch.setattr(GMRES, stall)
        with pytest.raises(LinearSolveError, match="momentum saddle system"):
            self._solve(solver, self._system(mesh, rng), stats)
        # held and fresh separable blocks, the factor pair, the saddle LU
        assert fault.calls == 3 and stall.calls == 3

    def test_run_names_failing_step(self, monkeypatch):
        problem = stirred_problem(build_mesh([AxisPartition.uniform(0, 1, 4)] * 3))
        real = spla.splu
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(GMRES, one_step_gmres)
        run_simulation(problem, SolverConfig(dt=0.02, t_end=0.02))
        assert one_step.calls == 0 and one_step_gmres.calls >= 1
        # from step 2 on GMRES stagnates, which builds fresh separable
        # blocks, factors both blocks and then reaches the direct saddle
        # LU; fail at that LU
        stall = KrylovStall(_gmres, stall_from=one_step_gmres.calls + 1)
        monkeypatch.setattr(GMRES, stall)
        fault = SpluFault(real, fail_from=one_step.calls + 3)
        monkeypatch.setattr(spla, "splu", fault)
        with pytest.raises(SolverError) as info:
            run_simulation(problem, SolverConfig(dt=0.02, t_end=0.06))
        assert info.value.step == 2
        assert fault.calls == one_step.calls + 3
        assert stall.calls == one_step_gmres.calls + 3

    def test_blocks_factored_in_first_step_only(self):
        # the separable blocks are built by the first momentum solve and
        # held through every later one; no step factors a block
        mesh = stretched_mesh(6)
        problem = stirred_problem(mesh)
        cfg = SolverConfig(dt=self.DT, t_end=3 * self.DT)
        state = initial_state(mesh, problem.rho0, problem.u0)
        solver = StepSolver(mesh)
        f = problem.forcing_faces(cfg.dt, cfg)
        per_step, held = [], []
        for _ in range(3):
            state, stats = advance_timestep(state, cfg, problem.mu_law, f,
                                            solver)
            per_step.append(stats)
            held.append(solver.linear._precond)
        assert [s.factorizations for s in per_step] == [0, 0, 0]
        assert held[0] is not None and held[0] is held[1] is held[2]
        assert all(s.krylov_iterations > 0 for s in per_step)

    def test_rhs_preconditioned_once_per_step(self):
        problem = stirred_problem(stretched_mesh(6))
        per_step = rhs_preconditionings(
            problem, SolverConfig(dt=self.DT, t_end=3 * self.DT))
        assert [stats.factorizations for stats, _ in per_step] == [0, 0, 0]
        assert all(stats.iterations >= 2 for stats, _ in per_step)
        assert [count for _, count in per_step] == [1, 1, 1]

    def test_blocks_stored_at_true_fill(self, monkeypatch):
        # both factors of a stirred step whose separable blocks stall once;
        # with relaxed supernodes the velocity block stored 88,728 entries
        # for 54,628
        mesh = stretched_mesh(6)
        problem = stirred_problem(mesh)
        cfg = SolverConfig(dt=self.DT, t_end=self.DT)
        state = initial_state(mesh, problem.rho0, problem.u0)
        lu_calls = SpluFault(spla.splu)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(GMRES, KrylovStall(_gmres, stall_from=1,
                                               stall_to=1))
        _, stats = advance_timestep(state, cfg, problem.mu_law,
                                    problem.forcing_faces(cfg.dt, cfg),
                                    StepSolver(mesh))
        assert stats.factorizations == len(lu_calls.factors) == 2
        fill = true_fill(lu_calls.factors)
        assert stats.factor_nnz == fill

    def test_stalled_picard_loop_retries_with_direct_solves(self, monkeypatch):
        # GMRES answers within linear_tol that hold the Picard residual above
        # picard_tol: the step is retried with the direct saddle solve
        mesh = stretched_mesh(6)
        problem = stirred_problem(mesh)
        cfg = SolverConfig(dt=self.DT, t_end=self.DT, picard_max=4,
                           linear_tol=1e-6)
        state = initial_state(mesh, problem.rho0, problem.u0)
        f = problem.forcing_faces(cfg.dt, cfg)
        ref, _ = advance_timestep(state, cfg, problem.mu_law, f)
        calls = []

        def loose(matvec, b, **kwargs):
            calls.append(1)
            x, _ = _gmres(matvec, b, **kwargs)
            return x * (1.0 + 1e-8), 0

        monkeypatch.setattr(GMRES, loose)
        solver = StepSolver(mesh)
        new, stats = advance_timestep(state, cfg, problem.mu_law, f, solver)
        # every iteration of the first attempt used GMRES with separable
        # blocks, factoring nothing, and ran into the cap; the retry used
        # no GMRES and one saddle LU per iteration
        assert len(calls) == cfg.picard_max
        assert max(stats.mass_residual, stats.momentum_residual) <= cfg.picard_tol
        assert stats.factorizations == stats.iterations
        assert solver.linear.lagged
        for i in range(3):
            assert np.allclose(new.u.components[i], ref.u.components[i],
                               rtol=0, atol=1e-9)
        # the next step's first attempt starts from 2 u^n - u^{n-1} and
        # stalls too; the retry starts from u^n
        spy = TransportSpy(transport_solve)
        monkeypatch.setattr(TRANSPORT, spy)
        _, stats = advance_timestep(new, cfg, problem.mu_law, f, solver)
        assert not stats.predicted
        first, retry = spy.velocities[0], spy.velocities[cfg.picard_max]
        assert same_velocity(first, extrapolated(new.u, state.u))
        assert same_velocity(retry, new.u)

    def test_warm_started_answer_matches_direct_solve(self):
        mesh = stretched_mesh(6)
        args, answer = warm_started_solve(
            stirred_problem(mesh), SolverConfig(dt=self.DT, t_end=2 * self.DT))
        assert_matches_direct_solve(mesh, args, answer)

    def test_rejected_answer_never_becomes_the_start(self, rng, monkeypatch):
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        first = self._system(mesh, rng)
        u, p, _ = self._solve(solver, first, StepStats())
        accepted = np.concatenate([solver.dofs.pack(list(u.components)),
                                   p.values])
        # wrong iterates reported as converged with the held and the fresh
        # separable blocks, rejected by the residual check; GMRES with
        # every link, the fresh factor pair last, must start from the
        # answer to the first system
        lu_calls = SpluFault(spla.splu)
        stall = KrylovStall(_gmres, stall_from=1, stall_to=2, info=0)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(GMRES, stall)
        _, _, res = self._solve(
            solver, self._system(mesh, rng, near=first[1]),
            StepStats())
        assert stall.calls == 3 and lu_calls.calls == 2 and res <= 1e-9
        for kwargs in stall.kwargs:
            assert np.array_equal(kwargs["x0"][:accepted.size], accepted)

    def test_warm_start_saves_krylov_iterations(self, monkeypatch):
        mesh = stretched_mesh(6)
        problem = stirred_problem(mesh)
        cfg = SolverConfig(dt=self.DT, t_end=3 * self.DT)
        f = problem.forcing_faces(cfg.dt, cfg)

        def run():
            state = initial_state(mesh, problem.rho0, problem.u0)
            solver = StepSolver(mesh)
            picard, krylov = [], 0
            for _ in range(3):
                state, stats = advance_timestep(state, cfg, problem.mu_law,
                                                f, solver)
                picard.append(stats.iterations)
                krylov += stats.krylov_iterations
            return picard, krylov

        warm_picard, warm = run()
        real_solve = LinearSolve.solve

        def cold_start(self, *args, **kwargs):
            self._guess = None
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(LinearSolve, "solve", cold_start)
        cold_picard, cold = run()
        assert warm_picard == cold_picard
        assert warm < cold

    def test_extrapolated_start_cuts_first_picard_residual(self):
        # measured: 1/8 of the residual of a fresh solver at step 3; step 2
        # gains only 1/2.1, inside the initial layer
        own, fresh = picard_start_gain(
            stirred_problem(stretched_mesh(6)),
            SolverConfig(dt=self.DT, t_end=3 * self.DT), 3)
        assert own <= fresh / 3

    def test_separable_pressure_link_matches_bordered_solve(self, rng):
        # at constant density L = D diag(1/rho) G is -G^T W G / rho, which
        # the separable pressure block inverts exactly
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        links = []
        real = solver.linear.solve

        def spy(apply, chain, *args):
            links.extend(chain)
            return real(apply, chain, *args)

        solver.linear.solve = spy
        rho = CellScalarField(mesh, np.full(mesh.n_cells, 1.7))
        adv = VelocityField.from_interior(
            mesh, [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(3)])
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        solver.momentum_solve(state_at(rho, adv), ops.mass_fluxes(rho, adv),
                              mu_t, None, self.DT)
        nu, nc, m = solver.dofs.n_dofs, mesh.n_cells, solver.cell_vol
        r = rng.uniform(-1, 1, nu + nc + 1)
        z = links[0]()(r)
        lap = solver.div_c @ solver.grad / 1.7
        y = spla.spsolve(sp.bmat([[lap, m[:, None]], [m[None, :], None]],
                                 format="csc"),
                         np.append(r[nu:nu + nc], self.DT * r[-1]))
        v = mu_t.mu_cells.ravel() / m * (r[nu:nu + nc] - m * y[-1])
        z_p = y[:nc] / self.DT - (v - np.dot(m, v) / mesh.domain_measure)
        assert (np.max(np.abs(z[nu:nu + nc] - z_p))
                <= 1e-10 * np.max(np.abs(z_p)))
        assert abs(z[-1] - y[-1]) <= 1e-12 * abs(y[-1])

    def test_chain_order(self, rng, monkeypatch):
        # every GMRES cycle stalls: the held blocks, fresh separable blocks
        # and the fresh factor pair each get one cycle, in that order, and
        # the saddle LU answers
        real_splu = solver_module._splu
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        self._solve(solver, self._system(mesh, rng), StepStats())
        log = []
        stall = KrylovStall(_gmres, stall_from=1)

        def logged_gmres(*args, **kwargs):
            log.append("GMRES")
            return stall(*args, **kwargs)

        def logged_splu(matrix, what, *args, **kwargs):
            log.append(what)
            return real_splu(matrix, what, *args, **kwargs)

        monkeypatch.setattr(GMRES, logged_gmres)
        monkeypatch.setattr(solver_module, "_splu", logged_splu)
        system = self._system(mesh, rng)
        u, p, res = self._solve(solver, system, StepStats())
        assert log == ["GMRES", "GMRES", "momentum block",
                       "pressure Schur approximation", "GMRES",
                       "momentum saddle system"]
        assert res <= 1e-9
        monkeypatch.undo()
        self._assert_matches(mesh, system, u, p)
        assert np.max(np.abs(ops.divergence(u).values)) <= 1e-12

    def test_exact_link_is_held(self, rng, monkeypatch):
        # a first system whose every GMRES cycle stalls is answered by the
        # saddle LU, which is then held: GMRES with it answers a nearby
        # system, with no factorization and no walk down the chain
        mesh = stretched_mesh(6)
        solver = StepSolver(mesh)
        first = self._system(mesh, rng)
        monkeypatch.setattr(GMRES, KrylovStall(_gmres, stall_from=1))
        stats = StepStats()
        self._solve(solver, first, stats)
        assert stats.factorizations == 3
        held = solver.linear._precond
        monkeypatch.undo()
        system = self._system(mesh, rng, near=first[1])
        stats = StepStats()
        u, p, res = self._solve(solver, system, stats)
        assert solver.linear._precond is held
        assert stats.factorizations == 0 and stats.krylov_iterations > 0
        assert res <= 1e-9
        self._assert_matches(mesh, system, u, p)

    def test_density_ratio_1000_never_reaches_direct_saddle_lu(
            self, monkeypatch):
        # density 1 to 1000 with mu falling from 1 to 0.002: the separable
        # blocks alone miss in the first step, and the factor pair must
        # answer there rather than the direct saddle LU
        mesh = build_mesh([AxisPartition.uniform(0, 1, 10)] * 3)
        stirred = stirred_problem(mesh)

        def rho0(x, y, z):
            return 500.5 + 499.5 * (np.sin(2 * np.pi * x)
                                    * np.sin(2 * np.pi * y)
                                    * np.sin(2 * np.pi * z))

        def zero(t, x, y, z):
            return np.zeros_like(np.asarray(x, dtype=float))

        def buoyancy(t, x, y, z):
            return -2.0 * (rho0(x, y, z) - 500.5)

        problem = Problem(name="stirred-1000", mesh=mesh, rho0=rho0,
                          u0=stirred.u0,
                          mu_law=linear_viscosity(1.0 + 0.998 / 999,
                                                  -0.998 / 999),
                          forcing=(zero, zero, buoyancy),
                          time_independent_forcing=True)
        factored = []
        real_splu = solver_module._splu

        def logged_splu(matrix, what, *args, **kwargs):
            factored.append(what)
            return real_splu(matrix, what, *args, **kwargs)

        monkeypatch.setattr(solver_module, "_splu", logged_splu)
        result = run_simulation(problem, SolverConfig(dt=self.DT,
                                                      t_end=2 * self.DT))
        assert "momentum saddle system" not in factored
        assert all(record.violations == () for record in result.records)

    def test_stirred_16cubed_run_factors_nothing(self, monkeypatch):
        problem = stirred_problem(
            build_mesh([AxisPartition.uniform(0, 1, 16)] * 3))
        lu_calls = SpluFault(spla.splu)
        monkeypatch.setattr(spla, "splu", lu_calls)
        result = run_simulation(problem, SolverConfig(dt=self.DT,
                                                      t_end=2 * self.DT))
        assert lu_calls.calls == 0
        assert all(record.violations == () for record in result.records)
        assert max(record.div_max for record in result.records) <= 1e-12

    def test_held_blocks_free_their_solver_without_gc(self, rng):
        # a held preconditioner that referred to its StepSolver kept every
        # solver of a process alive until the cycle collector ran, and
        # stir-3d's peak RSS grew by ~1.3 MB per run
        mesh = stretched_mesh(4)
        solver = StepSolver(mesh)
        self._solve(solver, self._system(mesh, rng), StepStats())
        assert solver.linear._precond is not None
        ref = weakref.ref(solver)
        gc.disable()
        try:
            del solver
            assert ref() is None
        finally:
            gc.enable()

    def test_stirred_step_audit_on_stretched_12cubed(self):
        problem = stirred_problem(stretched_mesh(12))
        result = run_simulation(problem, SolverConfig(dt=self.DT, t_end=self.DT))
        (record,) = result.records
        assert record.violations == ()
        assert record.div_max <= 1e-12
