import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import macflow
from conftest import (GMRES, TRANSPORT, KrylovStall, SpluFault,
                      TransportSpy, assert_matches_direct_solve, extrapolated,
                      picard_start_gain, random_cells, random_velocity,
                      rhs_preconditionings, same_velocity, state_at,
                      true_fill, warm_started_solve)
from macflow import operators as ops
from macflow.config import load_config
from macflow.fields import CellScalarField, VelocityField
from macflow.mesh import AxisPartition, build_mesh, dual_faces_of
from macflow.problems import make_problem
from macflow.solver import (TRANSPORT_RTOL, LinearSolveError,
                            PicardDivergenceError, SolverConfig, SolverError,
                            StepSolver, StepStats, TimeState,
                            TransportSolveError, _gmres, _stream_curl_matrix,
                            _velocity_blocks, advance_timestep, initial_state,
                            run_simulation, transport_solve)
from macflow.verification import (dual_mass_balance_residual,
                                  velocity_estimate_bounds)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


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
        stall = KrylovStall(spla.bicgstab, stall_from=1)
        monkeypatch.setattr(spla, "bicgstab", stall)
        stats = StepStats()
        out = transport_solve(rho, u, 0.05, stats=stats)
        assert stall.calls == 1 and stats.factorizations == 1
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
        res = dual_mass_balance_residual(rho, ops.mass_fluxes(out, u), dt)
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
        rest = VelocityField.zero(mesh33)
        u, p, res = StepSolver(mesh33, "saddle").momentum_solve(
            state_at(rho, rest), ops.mass_fluxes(rho, rest), mu_t, None, 0.1)
        assert all(np.all(c == 0.0) for c in u.components)
        assert np.allclose(p.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["saddle", "nullspace"])
    def test_divergence_constraint(self, mesh33, rng, method):
        rho = random_cells(mesh33, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        fluxes = ops.mass_fluxes(rho, random_velocity(mesh33, rng))
        f = [rng.uniform(-1, 1, mesh33.faces_shape(i)) for i in range(2)]
        u, p, res = StepSolver(mesh33, method).momentum_solve(
            state_at(rho, VelocityField.zero(mesh33)), fluxes, mu_t, f, 0.05)
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
        rest = VelocityField.zero(mesh)
        u, p, _ = StepSolver(mesh, method).momentum_solve(
            state_at(rho, rest), ops.mass_fluxes(rho, rest), mu_t, f, dt)
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
        results = {}
        for method in ("saddle", "nullspace"):
            u, p, _ = StepSolver(mesh33, method).momentum_solve(
                state_at(rho, adv), fluxes, mu_t, f, 0.05, scheme="upwind")
            results[method] = (u, p)
        for i in range(2):
            assert np.allclose(results["saddle"][0].components[i],
                               results["nullspace"][0].components[i],
                               atol=1e-9)
        assert np.allclose(results["saddle"][1].values,
                           results["nullspace"][1].values, atol=1e-9)


class TestStreamCurl:
    def test_curl_spans_divergence_free_space(self, mesh_stretched):
        """D curl = 0 and curl has full column rank, so its range is the
        discretely divergence-free subspace the 2d route solves in."""
        mesh = mesh_stretched
        dofs = ops.FaceDofMap(mesh)
        curl = _stream_curl_matrix(mesh, dofs)
        div_c = ops.divergence_constraint_matrix(mesh, dofs)
        n0, n1 = mesh.n
        assert curl.shape == (dofs.n_dofs, (n0 - 1) * (n1 - 1))
        assert spla.norm(div_c @ curl) <= 1e-12 * spla.norm(curl)
        assert np.linalg.matrix_rank(curl.toarray()) == (n0 - 1) * (n1 - 1)


class TestPressureRecovery:
    """The 2d pressure recovery inverts G^T W G by fast diagonalization of
    its tensor-product form and shifts its answer to zero mean instead of
    bordering the matrix by the cell volumes."""

    def test_recovery_matches_bordered_solve(self, mesh_stretched, rng):
        mesh = mesh_stretched
        solver = StepSolver(mesh)
        m = solver.cell_vol
        gw = solver.grad.T @ solver.weight @ solver.grad
        bordered = sp.bmat([[gw, m[:, None]], [m[None, :], None]],
                           format="csc")
        # a recovery right-hand side G^T W r, which sums to zero
        rhs = solver.grad.T @ (solver.weight
                               @ rng.uniform(-1, 1, solver.dofs.n_dofs))
        p = solver._recover_pressure(rhs)
        ref = spla.spsolve(bordered, np.append(rhs, 0.0))[:-1]
        assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))
        mean = np.dot(m, p) / mesh.domain_measure
        assert abs(mean) <= 1e-14 * np.max(np.abs(p))

    @pytest.mark.parametrize("axes", [
        [AxisPartition.uniform(0.0, 1.0, 1),
         AxisPartition.geometric(0.0, 1.0, 9, 5.0)],
        [AxisPartition.geometric(0.0, 3.0, 7, 4.0),
         AxisPartition.uniform(0.0, 1.0, 1)],
        [AxisPartition.uniform(0.0, 1.0, 1)] * 2,
        # anisotropic: stretch 100 along x, 30 along y, on [0,1]x[0,2]
        [AxisPartition.geometric(0.0, 1.0, 64, 100.0),
         AxisPartition.geometric(0.0, 2.0, 48, 30.0)],
    ], ids=["one-cell-x", "one-cell-y", "one-cell", "stretched-64x48"])
    def test_recovers_known_pressure(self, axes, rng):
        mesh = build_mesh(axes)
        solver = StepSolver(mesh)
        m = solver.cell_vol
        gw = solver.grad_t @ solver.weight @ solver.grad
        p_true = rng.uniform(-1.0, 1.0, mesh.n_cells)
        p_true -= np.dot(m, p_true) / mesh.domain_measure
        rhs = gw @ p_true
        p = solver._recover_pressure(rhs)
        assert np.max(np.abs(p - p_true)) <= 1e-11 * np.max(np.abs(p_true))
        assert np.linalg.norm(gw @ p - rhs) <= 1e-13 * np.linalg.norm(rhs)
        mean = np.dot(m, p) / mesh.domain_measure
        assert abs(mean) <= 1e-14 * np.max(np.abs(p), initial=0.0)


class TestSeparableBlocks:
    """The separable velocity blocks of the 3d saddle preconditioner are
    exact at constant coefficients: ``W_i`` times the component-diagonal
    block of the assembled constant-viscosity ``-div_E(D(u))``.  The
    helper is dimension-generic; only the 3d saddle route uses it."""

    @pytest.mark.parametrize("axes", [
        [AxisPartition.geometric(0.0, 1.0, 6, 3.0),
         AxisPartition.geometric(0.0, 2.0, 7, 0.3)],
        [AxisPartition.geometric(0.0, 1.0, 6, 3.0),
         AxisPartition.uniform(0.0, 0.5, 5),
         AxisPartition.geometric(0.0, 2.0, 7, 0.3)],
    ], ids=["2d", "3d"])
    def test_velocity_block_matches_assembled_constant_mu_block(self, axes):
        mesh = build_mesh(axes)
        dofs = ops.FaceDofMap(mesh)
        rho = CellScalarField(mesh, np.ones(mesh.n_cells))
        diffusion = ops.diffusion_matrix(
            mesh, ops.viscosity_tensor(rho, np.ones_like), dofs)
        w = dofs.pack([mesh.dual_volumes(i) for i in range(mesh.dim)])
        for i, blk in enumerate(_velocity_blocks(mesh)):
            part = slice(dofs.offsets[i],
                         dofs.offsets[i] + dofs.interior[i].size)
            ref = -w[part, None] * diffusion[part, part].toarray()
            # V^T W_i V = I and V^T S V = diag(eig), so S = W V eig V^T W
            v = functools.reduce(np.kron, blk.modes)
            wv = w[part, None] * v
            sep = (wv * blk.eig.ravel()) @ wv.T
            assert np.max(np.abs(sep - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(v.T @ wv - np.eye(v.shape[0]))) <= 1e-12


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
        f = problem.forcing_faces(cfg.dt, cfg)
        new, _ = advance_timestep(state, cfg, problem.mu_law, f)
        lo, hi = state.rho_bounds
        assert new.rho.values.min() >= lo - 1e-12
        assert new.rho.values.max() <= hi + 1e-12

    def test_picard_residual_history(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 16)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.02, t_end=0.02)
        state = initial_state(mesh, problem.rho0, problem.u0)
        _, stats = advance_timestep(state, cfg, problem.mu_law,
                                    problem.forcing_faces(cfg.dt, cfg))
        assert stats.iterations > 1
        assert len(stats.picard_residuals) == stats.iterations
        assert stats.picard_residuals[-1] == max(stats.mass_residual,
                                                 stats.momentum_residual)
        assert stats.picard_residuals[-1] <= cfg.picard_tol
        assert all(r > cfg.picard_tol for r in stats.picard_residuals[:-1])

    def test_picard_cap_raises(self, rng):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01, picard_max=1, picard_tol=1e-14)
        state = initial_state(mesh, problem.rho0, problem.u0)
        f = problem.forcing_faces(cfg.dt, cfg)
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
        with pytest.raises(ValueError, match="whole number of steps"):
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

    def test_density_ratio_1000_at_large_time_step(self):
        """The paper puts no smallness condition on the density ratio or the
        time step.  Rayleigh-Taylor at density ratio 1000 and dt 0.2 takes
        tens of Picard iterations per step; every step must stay
        audit-clean, inside the initial density bounds and within the
        a-priori velocity estimates."""
        setup = load_config(os.path.join(CONFIGS,
                                         "rayleigh-taylor-stress.json"))
        problem = setup.problem
        lo, hi = initial_state(problem.mesh, problem.rho0,
                               problem.u0).rho_bounds
        # the slack of step_audit's maximum-principle check: a transport
        # solve is exact only to rounding, and rho_max here ends a few ulps
        # above the heavy density
        slack = 1e-12 * hi
        result = run_simulation(problem, setup.solver)
        assert len(result.records) == 2
        for rec in result.records:
            assert rec.violations == ()
            assert lo - slack <= rec.rho_min and rec.rho_max <= hi + slack
        est = velocity_estimate_bounds(result, problem.mu_law)
        assert est["linf_l2_satisfied"] and est["l2_h1_satisfied"]


class TestTypedErrors:
    """A failing sparse factorization surfaces as the typed error of the
    solve that hit it, and a run names the step."""

    def test_transport_failure(self, mesh33, rng, monkeypatch):
        # a stagnating BiCGSTAB falls back to the direct factorization
        stall = KrylovStall(spla.bicgstab, stall_from=1)
        monkeypatch.setattr(spla, "bicgstab", stall)
        fault = SpluFault(spla.splu, fail_from=1)
        monkeypatch.setattr(spla, "splu", fault)
        with pytest.raises(TransportSolveError) as info:
            transport_solve(random_cells(mesh33, rng, 0.5, 2.0),
                            random_velocity(mesh33, rng), 0.05)
        assert stall.calls == 1 and fault.calls == 1
        est = info.value.condition_estimate
        assert est is not None and np.isfinite(est) and est >= 1.0

    @pytest.mark.parametrize("method", ["saddle", "nullspace"])
    def test_momentum_failure(self, mesh33, rng, monkeypatch, method):
        solver = StepSolver(mesh33, method)
        rho = random_cells(mesh33, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        fluxes = ops.mass_fluxes(rho, random_velocity(mesh33, rng))
        # on the saddle route GMRES stalls with the separable blocks, so
        # that the chain reaches its first SuperLU link; the reduced
        # route's first link is its factor
        monkeypatch.setattr(GMRES, KrylovStall(_gmres, stall_from=1))
        fault = SpluFault(spla.splu, fail_from=1)
        monkeypatch.setattr(spla, "splu", fault)
        with pytest.raises(LinearSolveError):
            solver.momentum_solve(state_at(rho, VelocityField.zero(mesh33)),
                                  fluxes, mu_t, None, 0.05)
        assert fault.calls == 1

    @staticmethod
    def _momentum_system(mesh, rng):
        rho = random_cells(mesh, rng, 1.0, 2.0)
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.1 * r)
        fluxes = ops.mass_fluxes(rho, random_velocity(mesh, rng))
        f = [rng.uniform(-1, 1, mesh.faces_shape(i)) for i in range(mesh.dim)]
        return state_at(rho, VelocityField.zero(mesh)), fluxes, mu_t, f

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direct_answer_above_tolerance(self, mesh33, rng, dim):
        # no Krylov answer meets 1e-30, so the last resort is a direct
        # answer, which the final guard must reject rather than return
        mesh = mesh33 if dim == 2 else build_mesh(
            [AxisPartition.uniform(0, 1, 3)] * 3)
        prev, fluxes, mu_t, f = self._momentum_system(mesh, rng)
        with pytest.raises(LinearSolveError) as info:
            StepSolver(mesh).momentum_solve(prev, fluxes, mu_t, f, 0.05,
                                            linear_tol=1e-30)
        assert np.isfinite(info.value.residual)
        assert info.value.residual > 1e-30

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_answer_reads_as_infinite_residual(self, mesh33, rng,
                                                          monkeypatch, dim):
        class NanLU:
            nnz = 0

            def solve(self, rhs):
                return np.full(rhs.shape, np.nan)

        mesh = mesh33 if dim == 2 else build_mesh(
            [AxisPartition.uniform(0, 1, 3)] * 3)
        solver = StepSolver(mesh)
        prev, fluxes, mu_t, f = self._momentum_system(mesh, rng)
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: NanLU())
        # in 3d GMRES stalls with the separable blocks and the factor pair,
        # so that the direct saddle LU answers; in 2d the fresh reduced
        # factor answers with no GMRES
        stall = KrylovStall(_gmres, stall_from=1)
        monkeypatch.setattr(GMRES, stall)
        with pytest.raises(LinearSolveError) as info:
            solver.momentum_solve(prev, fluxes, mu_t, f, 0.05)
        assert info.value.residual == np.inf
        assert stall.calls == (0 if dim == 2 else 2)

    def test_run_names_failing_step(self, monkeypatch):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 4)] * 2)
        problem = make_problem("mms_b", mesh)
        real = spla.splu
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(GMRES, one_step_gmres)
        run_simulation(problem, SolverConfig(dt=0.02, t_end=0.02))
        assert one_step.calls >= 1 and one_step_gmres.calls >= 1
        # from step 2 on GMRES stagnates, which forces a refactorization of
        # the reduced system; fail at that first factorization after step 1
        stall = KrylovStall(_gmres, stall_from=one_step_gmres.calls + 1)
        fault = SpluFault(real, fail_from=one_step.calls + 1)
        monkeypatch.setattr(GMRES, stall)
        monkeypatch.setattr(spla, "splu", fault)
        with pytest.raises(SolverError) as info:
            run_simulation(problem, SolverConfig(dt=0.02, t_end=0.06))
        assert info.value.step == 2
        assert stall.calls == one_step_gmres.calls + 1
        assert fault.calls == one_step.calls + 1


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
        return state_at(rho, adv), ops.mass_fluxes(rho, adv), mu_t, f

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
        solver.momentum_solve(*self._system(mesh, rng), 0.05, stats=stats)
        assert stats.factorizations == 1
        prev, fluxes, mu_t, f = self._system(mesh, rng)
        lu_calls = SpluFault(spla.splu)
        stall = KrylovStall(_gmres, stall_from=1, stall_to=1, info=info)
        monkeypatch.setattr(spla, "splu", lu_calls)
        monkeypatch.setattr(GMRES, stall)
        linear_tol = 1e-9
        u, p, res = solver.momentum_solve(prev, fluxes, mu_t, f, 0.05,
                                          linear_tol=linear_tol, stats=stats)
        # the fresh factor is the chain's exact link: it answers with no
        # second GMRES
        assert stall.calls == 1
        assert lu_calls.calls == 1 and stats.factorizations == 2
        assert res <= linear_tol
        monkeypatch.undo()
        u_ref, p_ref, _ = StepSolver(mesh, "saddle").momentum_solve(
            prev, fluxes, mu_t, f, 0.05)
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
            f = problem.forcing_faces(step * cfg.dt, cfg)
            state, stats = advance_timestep(state, cfg, problem.mu_law, f,
                                            solver)
            per_step.append(stats)
        assert [s.factorizations for s in per_step] == [1, 0, 0]
        assert all(s.krylov_iterations > 0 for s in per_step)

    def test_factors_stored_at_true_fill(self, mesh_stretched, monkeypatch):
        # the set-up factors nothing, and the reduced factor of the step
        # holds its true fill; with relaxed supernodes it stored 12,550
        # entries for 9,280
        problem = make_problem("mms_b", mesh_stretched)
        cfg = SolverConfig(dt=0.02, t_end=0.02)
        state = initial_state(mesh_stretched, problem.rho0, problem.u0)
        lu_calls = SpluFault(spla.splu)
        monkeypatch.setattr(spla, "splu", lu_calls)
        solver = StepSolver(mesh_stretched)
        assert lu_calls.calls == 0
        _, stats = advance_timestep(state, cfg, problem.mu_law,
                                    problem.forcing_faces(cfg.dt, cfg), solver)
        assert stats.factorizations == len(lu_calls.factors) == 1
        fill = true_fill(lu_calls.factors)
        assert stats.factor_nnz == fill

    def test_rhs_preconditioned_once_per_step(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 16)] * 2)
        problem = make_problem("mms_b", mesh)
        per_step = rhs_preconditionings(problem,
                                        SolverConfig(dt=0.02, t_end=0.06))
        assert [stats.factorizations for stats, _ in per_step] == [1, 0, 0]
        assert all(stats.iterations >= 2 for stats, _ in per_step)
        assert [count for _, count in per_step] == [1, 1, 1]

    def test_step_never_builds_convex_pair(self, monkeypatch):
        # the Picard loop and the step audit read dual_phi only
        def fail(fluxes):
            raise AssertionError("convex pair built")

        monkeypatch.setattr(ops, "_convex_pair", fail)
        mesh = build_mesh([AxisPartition.geometric(0, 1, 8, 3.0)] * 2)
        result = run_simulation(make_problem("mms_b", mesh),
                                SolverConfig(dt=0.02, t_end=0.04))
        assert len(result.records) == 2

    def test_stalled_picard_loop_retries_with_fresh_factors(self, monkeypatch):
        # GMRES answers within linear_tol that hold the Picard residual above
        # picard_tol: the step is retried factoring every reduced system
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01, picard_max=4, linear_tol=1e-6)
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
        # the first attempt used GMRES after its first iteration and ran
        # into the cap; the retry used none
        assert len(calls) == cfg.picard_max - 1
        assert max(stats.mass_residual, stats.momentum_residual) <= cfg.picard_tol
        # the history is that of the retry alone
        assert len(stats.picard_residuals) == stats.iterations
        assert stats.factorizations >= 1 + stats.iterations
        assert solver.linear.lagged
        for i in range(2):
            assert np.allclose(new.u.components[i], ref.u.components[i],
                               rtol=0, atol=1e-9)
        # the next step's first attempt starts from 2 u^n - u^{n-1} and
        # stalls too; the retry starts from u^n
        spy = TransportSpy(transport_solve)
        monkeypatch.setattr(TRANSPORT, spy)
        _, stats = advance_timestep(new, cfg, problem.mu_law,
                                    problem.forcing_faces(2 * cfg.dt, cfg),
                                    solver)
        assert not stats.predicted
        first, retry = spy.velocities[0], spy.velocities[cfg.picard_max]
        assert same_velocity(first, extrapolated(new.u, state.u))
        assert same_velocity(retry, new.u)


class TestGmres:
    """macflow's GMRES cycle against scipy's ``gmres`` with ``maxiter=1``, on
    a nonsymmetric system left-preconditioned by the LU of a perturbed copy.
    The two are compared to roundoff, not bytes: scipy is not pinned."""

    N = 80
    RTOL = 1e-12

    @pytest.fixture
    def system(self, rng):
        n = self.N
        A = (sp.random(n, n, density=0.1, random_state=rng, format="csr")
             + sp.diags(rng.uniform(2.0, 4.0, n)))
        lu = spla.splu((A + 0.01 * sp.random(n, n, density=0.05,
                                             random_state=rng)).tocsc())
        products = []

        def matvec(v):
            products.append(1)
            return lu.solve(A @ v)

        exact = rng.uniform(-1.0, 1.0, n)
        return matvec, lu.solve(A @ exact), exact, products

    @staticmethod
    def _run(solve, matvec, b, x0, restart, **kwargs):
        estimates = []
        x, info = solve(matvec, b, x0=x0, rtol=TestGmres.RTOL,
                        restart=restart, callback=estimates.append, **kwargs)
        return x, info, estimates

    @staticmethod
    def _scipy(matvec, b, **kwargs):
        op = spla.LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
        return spla.gmres(op, b, maxiter=1, callback_type="pr_norm", **kwargs)

    @pytest.mark.parametrize("start", ["zero", "nonzero"])
    def test_matches_scipy_and_spares_the_trailing_product(self, system, rng,
                                                           start):
        matvec, b, exact, products = system
        x0 = None if start == "zero" else rng.uniform(-1.0, 1.0, b.size)
        kept = None if x0 is None else x0.copy()
        x, info, estimates = self._run(_gmres, matvec, b, x0, 40)
        assert info == 0 and estimates[-1] <= self.RTOL
        assert x0 is None or np.array_equal(x0, kept)
        # one product per iteration, and one for the initial residual of a
        # nonzero start; none for the answer
        assert len(products) == len(estimates) + (x0 is not None)
        ref, ref_info, ref_estimates = self._run(self._scipy, matvec, b, x0,
                                                 40)
        assert ref_info == 0 and len(ref_estimates) == len(estimates)
        assert np.allclose(ref_estimates, estimates, rtol=1e-6, atol=0)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_solved_start_returns_without_iterating(self, system):
        matvec, b, exact, products = system
        # the preconditioned residual of the exact answer is roundoff,
        # far below RTOL |b|
        x, info, estimates = self._run(_gmres, matvec, b, exact, 40)
        assert info == 0 and estimates == [] and len(products) == 1
        assert np.array_equal(x, exact) and x is not exact

    def test_too_small_restart_reports_failure(self, system):
        matvec, b, _, products = system
        x, info, estimates = self._run(_gmres, matvec, b, None, 2)
        assert info == 1 and len(estimates) == 2 and len(products) == 2
        assert estimates[-1] > self.RTOL


class TestWarmStart:
    """Every GMRES solve starts from the last answer accepted within
    ``linear_tol``; only its starting point changes."""

    def test_warm_started_answer_matches_direct_solve(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 16)] * 2)
        args, answer = warm_started_solve(make_problem("mms_b", mesh),
                                          SolverConfig(dt=0.02, t_end=0.06))
        assert_matches_direct_solve(mesh, args, answer)

    def test_rejected_answer_never_becomes_the_start(self, mesh_stretched,
                                                     rng, monkeypatch):
        mesh = mesh_stretched
        solver = StepSolver(mesh)
        systems = [TestLaggedFactor._system(mesh, rng) for _ in range(3)]

        def solve(system):
            u, _, _ = solver.momentum_solve(*system, 0.05)
            return solver.dofs.pack(list(u.components))

        first = solve(systems[0])
        # a wrong iterate reported as converged; the residual check rejects
        # it and the fresh factor answers
        stall = KrylovStall(_gmres, stall_from=1, stall_to=1, info=0)
        monkeypatch.setattr(GMRES, stall)
        second = solve(systems[1])
        solve(systems[2])
        assert stall.calls == 2
        starts = [solver.curl @ kw["x0"] for kw in stall.kwargs]
        assert np.array_equal(starts[0], first)
        assert np.array_equal(starts[1], second)


class TestPicardStart:
    """A step starts its Picard loop from 2 u^n - u^{n-1} only along the
    trajectory of its own ``StepSolver`` at unchanged dt; everywhere else
    from u^n."""

    @pytest.fixture
    def stepped(self):
        # one step of a solver: (problem, cfg, solver, u^0 state, u^1 state)
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        problem = make_problem("mms_b", mesh)
        cfg = SolverConfig(dt=0.01, t_end=0.01)
        state0 = initial_state(mesh, problem.rho0, problem.u0)
        solver = StepSolver(mesh)
        state1, stats = advance_timestep(state0, cfg, problem.mu_law,
                                         problem.forcing_faces(cfg.dt, cfg),
                                         solver)
        assert not stats.predicted
        return problem, cfg, solver, state0, state1

    @staticmethod
    def _step(problem, cfg, state, solver, monkeypatch):
        spy = TransportSpy(transport_solve)
        monkeypatch.setattr(TRANSPORT, spy)
        _, stats = advance_timestep(
            state, cfg, problem.mu_law,
            problem.forcing_faces(state.t + cfg.dt, cfg), solver)
        return stats, spy.velocities[0]

    def test_own_trajectory_starts_from_extrapolation(self, stepped,
                                                      monkeypatch):
        problem, cfg, solver, state0, state1 = stepped
        stats, start = self._step(problem, cfg, state1, solver, monkeypatch)
        assert stats.predicted
        assert same_velocity(start, extrapolated(state1.u, state0.u))

    @pytest.mark.parametrize("case", ["no_solver", "fresh", "foreign",
                                      "copied_state", "changed_dt"])
    def test_other_steps_start_from_the_state(self, stepped, monkeypatch,
                                              case):
        problem, cfg, solver, state0, state = stepped
        if case == "no_solver":
            solver = None
        elif case == "fresh":
            solver = StepSolver(problem.mesh)
        elif case == "foreign":
            # a solver that published a state of its own from the same start
            solver = StepSolver(problem.mesh)
            advance_timestep(state0, cfg, problem.mu_law,
                             problem.forcing_faces(cfg.dt, cfg), solver)
        elif case == "copied_state":
            state = TimeState(state.t, state.rho, state.u, state.p,
                              state.rho_bounds)
        else:
            cfg = SolverConfig(dt=0.005, t_end=0.005)
        stats, start = self._step(problem, cfg, state, solver, monkeypatch)
        assert not stats.predicted
        assert same_velocity(start, state.u)

    def test_rayleigh_taylor_first_residual_falls(self):
        # measured: 1/41 of the residual of a fresh solver at step 3
        setup = load_config(os.path.join(CONFIGS, "rayleigh-taylor.json"))
        own, fresh = picard_start_gain(setup.problem, setup.solver, 3)
        assert own <= fresh / 5


class TestTimeState:
    def test_rejects_out_of_bounds_density(self, mesh22):
        rho = CellScalarField(mesh22, np.full(4, 2.0))
        u = VelocityField.zero(mesh22)
        p = CellScalarField(mesh22, np.zeros(4))
        with pytest.raises(SolverError):
            TimeState(0.0, rho, u, p, rho_bounds=(0.5, 1.5))

    def test_rejects_nonzero_mean_pressure(self, mesh22):
        rho = CellScalarField(mesh22, np.full(4, 1.0))
        p = CellScalarField(mesh22, np.full(4, 1.0))
        with pytest.raises(SolverError):
            TimeState(0.0, rho, VelocityField.zero(mesh22), p,
                      rho_bounds=(0.5, 1.5))


# Runs in a fresh interpreter: free heap that earlier tests leave in this
# process (say, eight freed 3 MiB arrays below a live 200 kB block) can serve
# an 8 MiB block whatever the mmap threshold is.
_MMAP_PROBE = """
import ctypes
import sys

from macflow.solver import MMAP_THRESHOLD
import numpy as np


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except (OSError, TypeError, AttributeError):
    sys.exit(3)
mallinfo2.restype = Mallinfo2
big = np.empty(3 * MMAP_THRESHOLD // 4)     # 8-byte items: 24 MiB
del big
before = mallinfo2().hblkhd
block = np.empty(MMAP_THRESHOLD // 4)       # 8 MiB
print(mallinfo2().hblkhd - before, block.nbytes)
"""


class TestMmapThreshold:
    def test_large_block_is_mmapped_after_a_larger_free(self):
        """With glibc's sliding threshold, freeing a 24 MiB mmapped block
        moves every later block up to 24 MiB into the heap; with the
        threshold fixed, an 8 MiB block is still mmapped."""
        src = os.path.dirname(os.path.dirname(macflow.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _MMAP_PROBE],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, check=False)
        if proc.returncode == 3:
            pytest.skip("no glibc mallinfo2")
        assert proc.returncode == 0, proc.stderr
        grown, nbytes = map(int, proc.stdout.split())
        assert grown >= nbytes
