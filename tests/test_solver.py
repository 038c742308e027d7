import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import KrylovStall, SpluFault, random_cells, random_velocity
from macflow import operators as ops
from macflow.fields import CellScalarField, VelocityField
from macflow.mesh import AxisPartition, build_mesh, dual_faces_of
from macflow.problems import make_problem
from macflow.solver import (TRANSPORT_RTOL, LinearSolveError,
                            PicardDivergenceError, SolverConfig, SolverError,
                            StepSolver, StepStats, TimeState,
                            TransportSolveError, advance_timestep,
                            initial_state, run_simulation, transport_solve)
from macflow.verification import dual_mass_balance_residual


def rotation_velocity(mesh22, speed=1.0):
    comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
    comps[0][1, 0] = speed      # rightward along the bottom row
    comps[0][1, 1] = -speed     # leftward along the top row
    comps[1][1, 1] = speed      # upward in the right column
    comps[1][0, 1] = -speed     # downward in the left column
    return VelocityField.from_interior(mesh22, comps)


class TestTransport:
    def test_zero_velocity_fixed_point(self, mesh33, rng):
        rho = random_cells(mesh33, rng, 0.5, 2.0)
        out = transport_solve(rho, VelocityField.zero(mesh33), 0.1)
        assert np.allclose(out.values, rho.values, atol=1e-14)

    def test_constant_density_fixed_point(self, mesh22):
        rho = CellScalarField(mesh22, np.full(4, 1.3))
        out = transport_solve(rho, rotation_velocity(mesh22), 0.05)
        assert np.allclose(out.values, 1.3, atol=1e-13)

    def test_four_cell_hand_built_oracle(self, mesh22):
        """One implicit upwind step against an explicitly written 4x4 solve."""
        dt = 0.1
        rho_n = CellScalarField(mesh22, [1.0, 2.0, 3.0, 4.0])
        u = rotation_velocity(mesh22, speed=0.7)
        out = transport_solve(rho_n, u, dt)

        cells = np.arange(4).reshape(2, 2)
        area = {0: mesh22.face_measures(0), 1: mesh22.face_measures(1)}
        us = {i: u.shaped(i) for i in range(2)}
        A = np.zeros((4, 4))
        b = np.zeros(4)
        for cx in range(2):
            for cy in range(2):
                k = cells[cx, cy]
                vol = mesh22.cell_volumes[cx, cy]
                A[k, k] += vol / dt
                b[k] = vol * rho_n.values[k] / dt
                for i, (lo_idx, hi_idx, lo_nb, hi_nb) in enumerate([
                        ((cx, cy), (cx + 1, cy), (cx - 1, cy), (cx + 1, cy)),
                        ((cx, cy), (cx, cy + 1), (cx, cy - 1), (cx, cy + 1))]):
                    # upper face: outward velocity +u
                    un = us[i][hi_idx]
                    a = area[i][hi_idx]
                    if un >= 0:
                        A[k, k] += a * un
                    elif 0 <= hi_nb[0] < 2 and 0 <= hi_nb[1] < 2:
                        A[k, cells[hi_nb]] += a * un
                    # lower face: outward velocity -u
                    un = us[i][lo_idx]
                    a = area[i][lo_idx]
                    if -un >= 0:
                        A[k, k] += a * -un
                    elif 0 <= lo_nb[0] < 2 and 0 <= lo_nb[1] < 2:
                        A[k, cells[lo_nb]] += a * -un
        expected = np.linalg.solve(A, b)
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_conserves_mass(self, mesh33, rng):
        rho = random_cells(mesh33, rng, 0.5, 2.0)
        u = random_velocity(mesh33, rng)
        out = transport_solve(rho, u, 0.02)
        vols = mesh33.cell_volumes.ravel()
        assert np.dot(vols, out.values) == pytest.approx(
            np.dot(vols, rho.values), rel=1e-13)

    def test_stagnation_falls_back_to_direct_solve(self, mesh33, rng,
                                                   monkeypatch):
        rho = random_cells(mesh33, rng, 0.5, 2.0)
        u = random_velocity(mesh33, rng)
        krylov_stats = StepStats()
        expected = transport_solve(rho, u, 0.05, stats=krylov_stats)
        assert krylov_stats.factorizations == 0
        assert krylov_stats.krylov_iterations > 0
        monkeypatch.setattr(spla, "bicgstab",
                            KrylovStall(spla.bicgstab, stall_from=1))
        stats = StepStats()
        out = transport_solve(rho, u, 0.05, stats=stats)
        assert stats.factorizations == 1
        assert np.allclose(out.values, expected.values, rtol=0, atol=1e-13)

    def test_concentrated_residual_falls_back(self, rng, monkeypatch):
        """A Krylov answer that is off in one cell is refused although its
        residual is small in the 2-norm."""
        mesh = build_mesh([AxisPartition.uniform(0, 1, 32)] * 2)
        rho = random_cells(mesh, rng, 1.0, 2.0)
        u = random_velocity(mesh, rng)
        dt = 0.01
        expected = transport_solve(rho, u, dt)
        real = spla.bicgstab
        seen = {}

        def one_cell_off(A, b, **kwargs):
            x, info = real(A, b, **kwargs)
            k = b.size // 2
            x[k] += 20 * TRANSPORT_RTOL * np.max(np.abs(b)) / A[k, k]
            seen["r"], seen["b"] = A @ x - b, b
            return x, info

        monkeypatch.setattr(spla, "bicgstab", one_cell_off)
        stats = StepStats()
        out = transport_solve(rho, u, dt, stats=stats)
        r, b = seen["r"], seen["b"]
        assert np.linalg.norm(r) <= TRANSPORT_RTOL * np.linalg.norm(b)
        assert np.max(np.abs(r)) > 10 * TRANSPORT_RTOL * np.max(np.abs(b))
        assert stats.factorizations == 1
        assert np.allclose(out.values, expected.values, rtol=0, atol=1e-13)

    def test_dual_mass_balance_on_fine_grid(self, rng):
        # 16384 cells: the accepted Krylov answer keeps the dual-cell defect
        # that step_audit flags above 1e-12 at the 1e-14 level in every cell
        mesh = build_mesh([AxisPartition.uniform(0, 1, 128)] * 2)
        rho = random_cells(mesh, rng, 1.0, 2.0)
        u = random_velocity(mesh, rng)
        dt = 0.004
        stats = StepStats()
        out = transport_solve(rho, u, dt, stats=stats)
        assert stats.factorizations == 0 and stats.krylov_iterations > 0
        res = dual_mass_balance_residual(rho, out, ops.mass_fluxes(out, u), dt)
        assert res <= 10 * TRANSPORT_RTOL


def _dense_stokes_oracle(mesh, rho_dual, mu, f_faces, dt):
    """Dense momentum system assembled by explicit entity loops through the
    dual-face query API (convection off, constant viscosity)."""
    dofs = ops.FaceDofMap(mesh)
    nu, nc = dofs.n_dofs, mesh.n_cells
    N = nu + nc + 1
    A = np.zeros((N, N))
    b = np.zeros(N)
    for i in range(mesh.dim):
        shape = mesh.faces_shape(i)
        dvol = mesh.dual_volumes(i)
        for fid in range(mesh.n_faces(i)):
            row = dofs.dof[i][fid]
            if row < 0:
                continue
            idx = np.unravel_index(fid, shape)
            A[row, row] += rho_dual[i][idx] / dt
            b[row] = f_faces[i][idx]
            for df in dual_faces_of(mesh, i, fid):
                coeff = df.normal_sign * df.measure / dvol[idx]
                if df.case == "parallel":
                    if df.exterior:
                        continue   # u vanishes outside; no parallel flux term
                    cidx = np.unravel_index(df.cell, mesh.cells_shape)
                    w = mesh.widths[i][cidx[i]]
                    lo = list(cidx)
                    hi = list(cidx)
                    hi[i] += 1
                    flo = dofs.dof[i][np.ravel_multi_index(lo, shape)]
                    fhi = dofs.dof[i][np.ravel_multi_index(hi, shape)]
                    # flux = |sigma~| mu (u_hi - u_lo)/w, normal toward +e_i
                    for col, sgn in ((fhi, 1.0), (flo, -1.0)):
                        if col >= 0:
                            A[row, col] -= coeff * mu * sgn / w
                else:
                    j = df.direction
                    g = idx[j] if df.normal_sign < 0 else idx[j] + 1
                    # d_j u_i term (one-sided at the boundary, ghost zero)
                    pairs = []
                    if g >= 1:
                        pairs.append((np.ravel_multi_index(
                            tuple(v if a != j else g - 1 for a, v in enumerate(idx)),
                            shape), -1.0))
                    if g <= mesh.n[j] - 1:
                        pairs.append((np.ravel_multi_index(
                            tuple(v if a != j else g for a, v in enumerate(idx)),
                            shape), 1.0))
                    for face_flat, sgn in pairs:
                        col = dofs.dof[i][face_flat]
                        if col >= 0:
                            A[row, col] -= coeff * 0.5 * mu * sgn / df.distance
                    # d_i u_j term through the perpendicular faces
                    tau_lo, tau_hi = df.perp_faces
                    dist_i = mesh.dual_widths[i][idx[i]]
                    for tau, sgn in ((tau_hi, 1.0), (tau_lo, -1.0)):
                        if tau is None:
                            continue
                        col = dofs.dof[j][tau]
                        if col >= 0:
                            A[row, col] -= coeff * 0.5 * mu * sgn / dist_i
            # pressure gradient on interior faces
            lo_cell = list(idx)
            lo_cell[i] -= 1
            hi_cell = list(idx)
            kc = np.ravel_multi_index(tuple(lo_cell), mesh.cells_shape)
            lc = np.ravel_multi_index(tuple(hi_cell), mesh.cells_shape)
            dw = mesh.dual_widths[i][idx[i]]
            A[row, nu + lc] += 1.0 / dw
            A[row, nu + kc] -= 1.0 / dw
    # divergence constraint rows and the mean multiplier
    vols = mesh.cell_volumes
    for kc in range(nc):
        cidx = np.unravel_index(kc, mesh.cells_shape)
        for i in range(mesh.dim):
            shape = mesh.faces_shape(i)
            area = mesh.face_measures(i)
            lo = list(cidx)
            hi = list(cidx)
            hi[i] += 1
            for fidx, sgn in ((tuple(hi), 1.0), (tuple(lo), -1.0)):
                col = dofs.dof[i][np.ravel_multi_index(fidx, shape)]
                if col >= 0:
                    A[nu + kc, col] += sgn * area[fidx]
        A[nu + kc, N - 1] = vols[cidx]
        A[N - 1, nu + kc] = vols[cidx]
    sol = np.linalg.solve(A, b)
    return dofs, sol[:nu], sol[nu:nu + nc]


class TestMomentumSolve:
    def test_rest_state_stays_at_rest(self, mesh33):
        rho = CellScalarField(mesh33, np.full(mesh33.n_cells, 2.0))
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        fluxes = ops.mass_fluxes(rho, VelocityField.zero(mesh33))
        rho_dual = ops.dual_cell_density(rho)
        u, p, res = StepSolver(mesh33, "saddle").momentum_solve(
            rho_dual, rho_dual, VelocityField.zero(mesh33), fluxes, mu_t,
            None, 0.1)
        assert all(np.all(c == 0.0) for c in u.components)
        assert np.allclose(p.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["saddle", "nullspace"])
    def test_divergence_constraint(self, mesh33, rng, method):
        rho = random_cells(mesh33, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        fluxes = ops.mass_fluxes(rho, random_velocity(mesh33, rng))
        f = [rng.uniform(-1, 1, mesh33.faces_shape(i)) for i in range(2)]
        rho_dual = ops.dual_cell_density(rho)
        u, p, res = StepSolver(mesh33, method).momentum_solve(
            rho_dual, rho_dual, VelocityField.zero(mesh33), fluxes, mu_t,
            f, 0.05)
        div = ops.divergence(u)
        assert np.max(np.abs(div.values)) <= 1e-10
        assert abs(np.dot(mesh33.cell_volumes.ravel(), p.values)) <= 1e-10

    @pytest.mark.parametrize("method", ["saddle", "nullspace"])
    def test_dense_stokes_oracle(self, rng, method):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 4)] * 2)
        mu = 0.7
        rho = CellScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        rho_dual = ops.dual_cell_density(rho)
        mu_t = ops.viscosity_tensor(rho, lambda r: np.full_like(r, mu))
        f = [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(2)]
        dt = 0.2
        # convection off: zero fluxes
        fluxes = ops.mass_fluxes(rho, VelocityField.zero(mesh))
        u, p, _ = StepSolver(mesh, method).momentum_solve(
            rho_dual, rho_dual, VelocityField.zero(mesh), fluxes, mu_t, f, dt)
        dofs, u_expect, p_expect = _dense_stokes_oracle(mesh, rho_dual, mu, f, dt)
        u_vec = dofs.pack([u.shaped(i) for i in range(2)])
        assert np.max(np.abs(u_vec - u_expect)) <= 1e-10
        assert np.max(np.abs(p.values - p_expect)) <= 1e-10

    def test_methods_agree_with_convection(self, mesh33, rng):
        rho = random_cells(mesh33, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.2 + 0.1 * r)
        adv = random_velocity(mesh33, rng)
        fluxes = ops.mass_fluxes(rho, adv)
        f = [rng.uniform(-1, 1, mesh33.faces_shape(i)) for i in range(2)]
        rho_dual = ops.dual_cell_density(rho)
        results = {}
        for method in ("saddle", "nullspace"):
            u, p, _ = StepSolver(mesh33, method).momentum_solve(
                rho_dual, rho_dual, adv, fluxes, mu_t, f, 0.05,
                scheme="upwind")
            results[method] = (u, p)
        for i in range(2):
            assert np.allclose(results["saddle"][0].components[i],
                               results["nullspace"][0].components[i],
                               atol=1e-9)
        assert np.allclose(results["saddle"][1].values,
                           results["nullspace"][1].values, atol=1e-9)


class TestAdvanceTimestep:
    def test_quiescent_fixed_point(self, mesh33):
        problem = make_problem("quiescent", mesh33)
        cfg = SolverConfig(dt=0.1, t_end=0.1)
        state = initial_state(mesh33, problem.rho0, problem.u0)
        new, stats = advance_timestep(state, cfg, problem.mu_law)
        assert new.t == pytest.approx(0.1)
        assert np.allclose(new.rho.values, state.rho.values, atol=1e-14)
        assert all(np.all(c == 0.0) for c in new.u.components)
        assert stats.iterations == 1

    def test_density_bounds_preserved(self, rng):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01)
        state = initial_state(mesh, problem.rho0, problem.u0)
        f = problem.forcing_faces(mesh, cfg.dt, cfg)
        new, _ = advance_timestep(state, cfg, problem.mu_law, f)
        lo, hi = state.rho_bounds
        assert new.rho.values.min() >= lo - 1e-12
        assert new.rho.values.max() <= hi + 1e-12

    def test_picard_cap_raises(self, rng):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01, picard_max=1, picard_tol=1e-14)
        state = initial_state(mesh, problem.rho0, problem.u0)
        f = problem.forcing_faces(mesh, cfg.dt, cfg)
        with pytest.raises(PicardDivergenceError) as info:
            advance_timestep(state, cfg, problem.mu_law, f)
        assert info.value.iterations == 1
        assert info.value.residual > 0


class TestRunSimulation:
    def test_mass_conserved_and_errors(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.02, t_end=0.1)
        result = run_simulation(problem, cfg)
        masses = [rec.total_mass for rec in result.records]
        assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])
        assert all(rec.violations == () for rec in result.records)
        assert result.bv_accumulated >= 0.0

    def test_rejects_non_integer_step_count(self, mesh22):
        problem = make_problem("quiescent", mesh22)
        with pytest.raises(SolverError):
            run_simulation(problem, SolverConfig(dt=0.3, t_end=1.0))

    def test_upwind_advection_end_to_end(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.05, advection_scheme="upwind")
        result = run_simulation(problem, cfg)
        assert all(rec.violations == () for rec in result.records)
        # upwinding only adds dissipation: the energy-balance defect is
        # nonpositive up to solver tolerance
        for rec in result.records:
            assert rec.energy_residual <= 10 * cfg.picard_tol

    def test_deterministic_repeat(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        runs = []
        for _ in range(2):
            problem = make_problem("mms_a", mesh)
            cfg = SolverConfig(dt=0.05, t_end=0.1)
            result = run_simulation(problem, cfg)
            runs.append(result.final_state)
        assert np.array_equal(runs[0].u.components[0], runs[1].u.components[0])
        assert np.array_equal(runs[0].p.values, runs[1].p.values)
        assert np.array_equal(runs[0].rho.values, runs[1].rho.values)


class TestTypedErrors:
    """A failing sparse factorization surfaces as the typed error of the
    solve that hit it, and a run names the step."""

    def test_transport_failure(self, mesh33, rng, monkeypatch):
        # a stagnating BiCGSTAB falls back to the direct factorization
        monkeypatch.setattr(spla, "bicgstab",
                            KrylovStall(spla.bicgstab, stall_from=1))
        fault = SpluFault(spla.splu, fail_from=1)
        monkeypatch.setattr(spla, "splu", fault)
        with pytest.raises(TransportSolveError) as info:
            transport_solve(random_cells(mesh33, rng, 0.5, 2.0),
                            random_velocity(mesh33, rng), 0.05)
        assert fault.calls == 1
        est = info.value.condition_estimate
        assert est is not None and np.isfinite(est) and est >= 1.0

    @pytest.mark.parametrize("method", ["saddle", "nullspace"])
    def test_momentum_failure(self, mesh33, rng, monkeypatch, method):
        solver = StepSolver(mesh33, method)
        rho = random_cells(mesh33, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        fluxes = ops.mass_fluxes(rho, random_velocity(mesh33, rng))
        rho_dual = ops.dual_cell_density(rho)
        monkeypatch.setattr(spla, "splu", SpluFault(spla.splu, fail_from=1))
        with pytest.raises(LinearSolveError):
            solver.momentum_solve(rho_dual, rho_dual, VelocityField.zero(mesh33),
                                  fluxes, mu_t, None, 0.05)

    def test_run_names_failing_step(self, monkeypatch):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 4)] * 2)
        problem = make_problem("mms_b", mesh)
        real, real_gmres = spla.splu, spla.gmres
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(real_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(spla, "gmres", one_step_gmres)
        run_simulation(problem, SolverConfig(dt=0.02, t_end=0.02))
        # from step 2 on GMRES stagnates, which forces a refactorization of
        # the reduced system; fail at that first factorization after step 1
        monkeypatch.setattr(spla, "gmres",
                            KrylovStall(real_gmres,
                                        stall_from=one_step_gmres.calls + 1))
        monkeypatch.setattr(spla, "splu",
                            SpluFault(real, fail_from=one_step.calls + 1))
        with pytest.raises(SolverError) as info:
            run_simulation(problem, SolverConfig(dt=0.02, t_end=0.06))
        assert info.value.step == 2


class TestLaggedFactor:
    """The 2d reduced system keeps its first factor and solves later
    systems by GMRES; a stagnation refactors instead of returning a loose
    answer."""

    @staticmethod
    def _system(mesh, rng):
        rho = random_cells(mesh, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        adv = random_velocity(mesh, rng)
        f = [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(2)]
        return (ops.dual_cell_density(rho), adv, ops.mass_fluxes(rho, adv),
                mu_t, f)

    @pytest.mark.parametrize("info", [1, 0],
                             ids=["stagnated", "wrong_converged"])
    def test_rejected_krylov_answer_refactors_once(self, mesh_stretched, rng,
                                                   monkeypatch, info):
        # a stagnation (info > 0), or a wrong iterate reported as converged
        # that the residual check rejects, costs one refactor, never a loose
        # answer
        mesh = mesh_stretched
        solver = StepSolver(mesh)
        stats = StepStats()
        rho_dual, adv, fluxes, mu_t, f = self._system(mesh, rng)
        solver.momentum_solve(rho_dual, rho_dual, adv, fluxes, mu_t, f, 0.05,
                              stats=stats)
        assert stats.factorizations == 1
        rho_dual, adv, fluxes, mu_t, f = self._system(mesh, rng)
        lu_calls = SpluFault(spla.splu)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(spla, "gmres",
                            KrylovStall(spla.gmres, stall_from=1, stall_to=1,
                                        info=info))
        linear_tol = 1e-9
        u, p, res = solver.momentum_solve(rho_dual, rho_dual, adv, fluxes,
                                          mu_t, f, 0.05, linear_tol=linear_tol,
                                          stats=stats)
        assert lu_calls.calls == 1 and stats.factorizations == 2
        assert res <= linear_tol
        monkeypatch.undo()
        u_ref, p_ref, _ = StepSolver(mesh, "saddle").momentum_solve(
            rho_dual, rho_dual, adv, fluxes, mu_t, f, 0.05)
        for i in range(2):
            assert np.allclose(u.components[i], u_ref.components[i], atol=1e-9)
        assert np.allclose(p.values, p_ref.values, atol=1e-9)

    def test_reduced_system_factored_in_first_step_only(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 16)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.02, t_end=0.06)
        state = initial_state(mesh, problem.rho0, problem.u0)
        solver = StepSolver(mesh)
        per_step = []
        for step in range(1, 4):
            f = problem.forcing_faces(mesh, step * cfg.dt, cfg)
            state, stats = advance_timestep(state, cfg, problem.mu_law, f,
                                            solver)
            per_step.append(stats)
        assert [s.factorizations for s in per_step] == [1, 0, 0]
        assert all(s.krylov_iterations > 0 for s in per_step)

    def test_stalled_picard_loop_retries_with_fresh_factors(self, monkeypatch):
        # GMRES answers within linear_tol that hold the Picard residual above
        # picard_tol: the step is retried factoring every reduced system
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01, picard_max=4, linear_tol=1e-6)
        state = initial_state(mesh, problem.rho0, problem.u0)
        f = problem.forcing_faces(mesh, cfg.dt, cfg)
        ref, _ = advance_timestep(state, cfg, problem.mu_law, f)
        real = spla.gmres
        calls = []

        def loose(A, b, **kwargs):
            calls.append(1)
            x, _ = real(A, b, **kwargs)
            return x * (1.0 + 1e-8), 0

        monkeypatch.setattr(spla, "gmres", loose)
        solver = StepSolver(mesh)
        new, stats = advance_timestep(state, cfg, problem.mu_law, f, solver)
        # the first attempt used GMRES after its first iteration and ran
        # into the cap; the retry used none
        assert len(calls) == cfg.picard_max - 1
        assert max(stats.mass_residual, stats.momentum_residual) <= cfg.picard_tol
        assert stats.factorizations >= 1 + stats.iterations
        assert solver.reduced.lagged
        for i in range(2):
            assert np.allclose(new.u.components[i], ref.u.components[i],
                               rtol=0, atol=1e-9)


class TestTimeState:
    def test_rejects_out_of_bounds_density(self, mesh22):
        rho = CellScalarField(mesh22, np.full(4, 2.0))
        u = VelocityField.zero(mesh22)
        p = CellScalarField(mesh22, np.zeros(4))
        with pytest.raises(SolverError):
            TimeState(0.0, rho, u, p, ops.dual_cell_density(rho),
                      rho_bounds=(0.5, 1.5))

    def test_rejects_nonzero_mean_pressure(self, mesh22):
        rho = CellScalarField(mesh22, np.full(4, 1.0))
        p = CellScalarField(mesh22, np.full(4, 1.0))
        with pytest.raises(SolverError):
            TimeState(0.0, rho, VelocityField.zero(mesh22), p,
                      ops.dual_cell_density(rho), rho_bounds=(0.5, 1.5))
