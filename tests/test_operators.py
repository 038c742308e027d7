import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_cells, random_velocity
from macflow import operators as ops
from macflow.fields import (CellScalarField, VelocityField, norm_h1,
                            velocity_inner)
from macflow.mesh import AxisPartition, build_mesh


def positive_cells(mesh, rng):
    return random_cells(mesh, rng, lo=0.5, hi=2.0)


class TestDivergence:
    def test_single_cell_flux_sum(self, mesh22):
        comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
        comps[0][1, 0] = 1.0   # right face of the lower-left cell
        u = VelocityField.from_interior(mesh22, comps)
        div = ops.divergence(u)
        # (1/|K|) |sigma| u = (1/0.25) * 0.5 * 1
        assert div.shaped[0, 0] == pytest.approx(2.0)

    def test_entity_loop_oracle(self, mesh33, rng):
        u = random_velocity(mesh33, rng)
        div = ops.divergence(u)
        oracle = np.zeros(mesh33.n_cells)
        cells = np.arange(mesh33.n_cells).reshape(mesh33.cells_shape)
        vols = mesh33.cell_volumes
        for cidx in np.ndindex(*mesh33.cells_shape):
            acc = 0.0
            for i in range(2):
                us = u.shaped(i)
                area = mesh33.face_measures(i)
                lo = list(cidx)
                hi = list(cidx)
                hi[i] += 1
                acc += area[tuple(hi)] * us[tuple(hi)] - area[tuple(lo)] * us[tuple(lo)]
            oracle[cells[cidx]] = acc / vols[cidx]
        assert np.allclose(div.values, oracle, atol=1e-14)

    def test_matrix_matches_apply(self, mesh33, rng):
        dofs = ops.FaceDofMap(mesh33)
        mat = ops.divergence_matrix(mesh33, dofs)
        u = random_velocity(mesh33, rng)
        vec = dofs.pack([u.shaped(i) for i in range(2)])
        assert np.allclose(mat @ vec, ops.divergence(u).values, atol=1e-13)


class TestPressureGradient:
    def test_constant_pressure(self, mesh33):
        p = CellScalarField(mesh33, np.full(mesh33.n_cells, 7.0))
        g = ops.pressure_gradient(p)
        assert all(np.all(c == 0.0) for c in g.components)

    def test_two_cell_jump(self, mesh22):
        vals = np.zeros((2, 2))
        vals[0, 0], vals[1, 0] = 1.0, 2.0
        p = CellScalarField(mesh22, vals.ravel())
        g = ops.pressure_gradient(p)
        # (|sigma| / |D_sigma|) (p_L - p_K) = (0.5 / 0.25) * 1
        assert g.shaped(0)[1, 0] == pytest.approx(2.0)

    def test_duality_with_divergence(self, mesh_stretched, rng):
        mesh = mesh_stretched
        for _ in range(10):
            q = random_cells(mesh, rng)
            v = random_velocity(mesh, rng)
            a = float(np.dot(mesh.cell_volumes.ravel() * q.values,
                             ops.divergence(v).values))
            b = velocity_inner(ops.pressure_gradient(q), v)
            assert abs(a + b) <= 1e-12 * (abs(a) + abs(b) + 1e-300)

    def test_matrix_matches_apply(self, mesh33, rng):
        dofs = ops.FaceDofMap(mesh33)
        mat = ops.pressure_gradient_matrix(mesh33, dofs)
        q = random_cells(mesh33, rng)
        grad = ops.pressure_gradient(q)
        assert np.allclose(mat @ q.values,
                           dofs.pack([grad.shaped(i) for i in range(2)]),
                           atol=1e-13)


class TestGradientsAndStrain:
    def test_zero_velocity(self, mesh33):
        u = VelocityField.zero(mesh33)
        for i in range(2):
            for g in ops.velocity_gradient(mesh33, u.components[i], i):
                assert np.all(g.values == 0.0)
        for fld in ops.strain_tensor(u).values():
            assert np.all(fld.values == 0.0)

    def test_difference_quotient(self, mesh22):
        comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
        comps[0][1, 1] = 1.0   # interior x-face, upper row
        u = VelocityField.from_interior(mesh22, comps)
        grads = ops.velocity_gradient(mesh22, u.components[0], 0)
        # transverse derivative across the horizontal midline: spacing 0.5
        g01 = grads[1].shaped
        assert g01[1, 1] == pytest.approx((1.0 - 0.0) / 0.5)
        assert g01[1, 2] == pytest.approx((0.0 - 1.0) / 0.25)  # one-sided at top

    def test_korn_inequality_and_identity(self, mesh_stretched, rng):
        mesh = mesh_stretched
        for _ in range(20):
            u = random_velocity(mesh, rng)
            strain = ops.strain_tensor(u)
            strain_sq = sum(
                float(np.sum(mesh.pair_volumes(i, j) * strain[(i, j)].shaped ** 2))
                for i in range(2) for j in range(2))
            assert norm_h1(u) <= np.sqrt(2.0 * strain_sq) * (1 + 1e-12)
            # intermediate identity: grad:grad^T integral = ||div||^2
            div = ops.divergence(u)
            div_sq = float(np.dot(mesh.cell_volumes.ravel(), div.values ** 2))
            assert ops.gradient_transpose_inner(u, u) == pytest.approx(
                div_sq, rel=1e-12, abs=1e-14)


class TestViscosity:
    def test_constant_density_identity_law(self, mesh33):
        rho = CellScalarField(mesh33, np.full(mesh33.n_cells, 1.7))
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        assert np.allclose(mu_t.mu_cells, 1.7)
        assert np.allclose(mu_t.pair(0, 1), 1.7)

    def test_interior_four_cell_average(self, mesh22):
        rho = CellScalarField(mesh22, [1.0, 2.0, 3.0, 4.0])
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        # equal cell measures: plain mean of the four values at the center
        assert mu_t.pair(0, 1)[1, 1] == pytest.approx(2.5)

    def test_boundary_two_cell_average(self, mesh22):
        vals = np.zeros((2, 2))
        vals[0, 0], vals[1, 0] = 1.0, 3.0
        vals[0, 1], vals[1, 1] = 10.0, 20.0
        rho = CellScalarField(mesh22, vals.ravel())
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        # bottom boundary of the (0,1) grid: cells (0,0) and (1,0)
        assert mu_t.pair(0, 1)[1, 0] == pytest.approx(2.0)

    def test_convexity_bounds(self, mesh_stretched, rng):
        rho = positive_cells(mesh_stretched, rng)
        mu_t = ops.viscosity_tensor(rho, lambda r: 2.0 + r)
        mu = 2.0 + rho.values
        assert mu_t.pair(0, 1).min() >= mu.min() - 1e-13
        assert mu_t.pair(0, 1).max() <= mu.max() + 1e-13

    def test_rejects_bad_law(self, mesh22, rng):
        rho = positive_cells(mesh22, rng)
        with pytest.raises(ops.ViscosityError):
            ops.viscosity_tensor(rho, lambda r: r - 10.0)
        with pytest.raises(ops.ViscosityError):
            ops.viscosity_tensor(rho, lambda r: np.full_like(r, np.nan))


class TestDiffusion:
    def test_zero_velocity(self, mesh33, rng):
        mu_t = ops.viscosity_tensor(positive_cells(mesh33, rng), lambda r: r)
        out = ops.diffusion_apply(mu_t, VelocityField.zero(mesh33))
        assert all(np.all(c == 0.0) for c in out.components)

    def test_duality(self, mesh_stretched, rng):
        mesh = mesh_stretched
        for _ in range(10):
            mu_t = ops.viscosity_tensor(positive_cells(mesh, rng), lambda r: r)
            u = random_velocity(mesh, rng)
            v = random_velocity(mesh, rng)
            a = velocity_inner(ops.diffusion_apply(mu_t, u), v)
            b = ops.strain_product(mu_t, u, v)
            assert abs(a + b) <= 1e-12 * (abs(a) + abs(b))

    def test_weighted_matrix_symmetric(self, mesh33, rng):
        mu_t = ops.viscosity_tensor(positive_cells(mesh33, rng), lambda r: r)
        dofs = ops.FaceDofMap(mesh33)
        # rows scaled by |D_sigma|: the matrix of the bilinear form
        vol = dofs.pack([mesh33.dual_volumes(i) for i in range(mesh33.dim)])
        mat = sp.diags(vol) @ ops.diffusion_matrix(mesh33, mu_t, dofs)
        asym = abs(mat - mat.T).max()
        assert asym <= 1e-12 * max(abs(mat).max(), 1.0)

    def test_matrix_matches_apply(self, mesh33, rng):
        dofs = ops.FaceDofMap(mesh33)
        mu_t = ops.viscosity_tensor(positive_cells(mesh33, rng), lambda r: r)
        mat = ops.diffusion_matrix(mesh33, mu_t, dofs)
        u = random_velocity(mesh33, rng)
        vec = dofs.pack([u.shaped(i) for i in range(2)])
        applied = ops.diffusion_apply(mu_t, u)
        assert np.allclose(mat @ vec,
                           dofs.pack([applied.shaped(i) for i in range(2)]),
                           atol=1e-12)


class TestFluxes:
    def test_upwind_tie_takes_cell_behind(self, mesh22):
        rho = CellScalarField(mesh22, [1.0, 1.0, 5.0, 5.0])
        u = VelocityField.zero(mesh22)
        fluxes = ops.primal_fluxes(rho, u)
        assert fluxes.rho_face[0][1, 0] == pytest.approx(1.0)

    def test_upwind_picks_donor(self, mesh22):
        # rho_K = 1, rho_L = 5, u across = -2: donor is L, F_K = |s| rho_L u
        vals = np.zeros((2, 2))
        vals[0, 0], vals[1, 0] = 1.0, 5.0
        rho = CellScalarField(mesh22, vals.ravel())
        comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
        comps[0][1, 0] = -2.0
        u = VelocityField.from_interior(mesh22, comps)
        fluxes = ops.primal_fluxes(rho, u)
        assert fluxes.phi[0][1, 0] == pytest.approx(0.5 * 5.0 * -2.0)

    def test_conservativity_is_structural(self, mesh33, rng):
        """F_{K,sigma} = -F_{L,sigma} holds because one signed flux per face
        is stored; check the cell-wise sums telescope to zero total."""
        rho = positive_cells(mesh33, rng)
        u = random_velocity(mesh33, rng)
        fluxes = ops.primal_fluxes(rho, u)
        div = ops.mass_divergence(fluxes)
        total = float(np.dot(mesh33.cell_volumes.ravel(), div.values))
        assert abs(total) <= 1e-14 * max(np.abs(fluxes.phi[0]).max(), 1.0)

    def test_parallel_dual_flux_average(self, mesh22):
        # phi through the two x-faces of a cell 3 and 5 -> dual flux 4
        rho = CellScalarField(mesh22, np.ones(4))
        comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
        u = VelocityField.from_interior(mesh22, comps)
        fluxes = ops.primal_fluxes(rho, u)
        fluxes.phi[0] = fluxes.phi[0].copy()
        fluxes.phi[0][0, 0], fluxes.phi[0][1, 0] = 3.0, 5.0
        fluxes = ops.dual_fluxes(fluxes)
        assert fluxes.dual_phi[(0, 0)][0, 0] == pytest.approx(4.0)

    def test_dual_pair_example(self):
        # three cells in a row; interior faces carry (rho, u) = (1, 2), (3, 0)
        mesh = build_mesh([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0]])
        rho = CellScalarField(mesh, [1.0, 3.0, 99.0])
        comps = [np.zeros(mesh.faces_shape(i)) for i in range(2)]
        comps[0][1, 0] = 2.0
        comps[0][2, 0] = 0.0
        u = VelocityField.from_interior(mesh, comps)
        fluxes = ops.mass_fluxes(rho, u)
        # upwind face densities: u=2 >= 0 takes rho_K=1; u=0 tie takes rho_K=3
        assert fluxes.rho_face[0][1, 0] == 1.0
        assert fluxes.rho_face[0][2, 0] == 3.0
        assert fluxes.rho_tilde[(0, 0)][1, 0] == pytest.approx(2.0)
        assert fluxes.u_hat[(0, 0)][1, 0] == pytest.approx(0.5)

    def test_dual_flux_consistency_with_pairs(self, mesh33, rng):
        """F_{sigma,sigma~} = |sigma~| rho~ u_hat on every dual-dual cell."""
        mesh = mesh33
        rho = positive_cells(mesh, rng)
        u = random_velocity(mesh, rng)
        fluxes = ops.mass_fluxes(rho, u)
        for i in range(2):
            cross = mesh.cell_volumes / np.expand_dims(mesh.widths[i],
                                                       axis=1 - i)
            recon = cross * fluxes.rho_tilde[(i, i)] * fluxes.u_hat[(i, i)]
            assert np.allclose(recon, fluxes.dual_phi[(i, i)], atol=1e-13)
            for j in range(2):
                if j == i:
                    continue
                sigma = mesh.pair_volumes(i, j) / np.expand_dims(
                    mesh.dual_widths[j], axis=1 - j)
                recon = sigma * fluxes.rho_tilde[(i, j)] * fluxes.u_hat[(i, j)]
                assert np.allclose(recon, fluxes.dual_phi[(i, j)],
                                   atol=1e-13)

    def test_dual_mass_balance(self, mesh33, rng):
        from macflow.verification import dual_mass_balance_residual
        dt = 0.05
        rho_np1 = positive_cells(mesh33, rng)
        u = random_velocity(mesh33, rng)
        fluxes = ops.mass_fluxes(rho_np1, u)
        rho_n = CellScalarField(
            mesh33, rho_np1.values + dt * ops.mass_divergence(fluxes).values)
        assert dual_mass_balance_residual(rho_n, fluxes, dt) <= 1e-12


class TestDualCellDensity:
    def test_constant(self, mesh33):
        rho = CellScalarField(mesh33, np.full(mesh33.n_cells, 2.0))
        for arr in ops.dual_cell_density(rho):
            assert np.allclose(arr, 2.0)

    def test_uniform_half_cells(self, mesh22):
        vals = np.zeros((2, 2))
        vals[0, 0], vals[1, 0] = 1.0, 3.0
        rho = CellScalarField(mesh22, vals.ravel())
        dual = ops.dual_cell_density(rho)
        assert dual[0][1, 0] == pytest.approx(2.0)
        assert dual[0][0, 0] == pytest.approx(1.0)   # exterior copies the cell

    def test_convex_bounds(self, mesh_stretched, rng):
        rho = positive_cells(mesh_stretched, rng)
        for arr in ops.dual_cell_density(rho):
            assert arr.min() >= rho.values.min() - 1e-14
            assert arr.max() <= rho.values.max() + 1e-14


class TestConvection:
    def test_zero_advected_field(self, mesh33, rng):
        fluxes = ops.mass_fluxes(positive_cells(mesh33, rng),
                                 random_velocity(mesh33, rng))
        out = ops.convection_apply(fluxes, VelocityField.zero(mesh33))
        assert all(np.all(c == 0.0) for c in out.components)

    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    def test_two_path_equality(self, mesh33, rng, scheme):
        for _ in range(10):
            fluxes = ops.mass_fluxes(positive_cells(mesh33, rng),
                                     random_velocity(mesh33, rng))
            v = random_velocity(mesh33, rng)
            w = random_velocity(mesh33, rng)
            a = ops.trilinear_form(fluxes, v, w, scheme)
            b = ops.trilinear_form_reconstructed(fluxes, v, w, scheme)
            assert np.isfinite(a)
            assert abs(a - b) <= 1e-12 * (abs(a) + abs(b))

    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    def test_matrix_matches_apply(self, mesh33, rng, scheme):
        dofs = ops.FaceDofMap(mesh33)
        fluxes = ops.mass_fluxes(positive_cells(mesh33, rng),
                                 random_velocity(mesh33, rng))
        mat = ops.convection_matrix(fluxes, scheme, dofs)
        v = random_velocity(mesh33, rng)
        vec = dofs.pack([v.shaped(i) for i in range(2)])
        applied = ops.convection_apply(fluxes, v, scheme)
        assert np.allclose(mat @ vec,
                           dofs.pack([applied.shaped(i) for i in range(2)]),
                           atol=1e-13)

    def test_invalid_scheme(self, mesh22, rng):
        fluxes = ops.mass_fluxes(positive_cells(mesh22, rng),
                                 VelocityField.zero(mesh22))
        with pytest.raises(ops.OperatorError):
            ops.convection_apply(fluxes, VelocityField.zero(mesh22), "qck")


class TestTransportMatrix:
    def test_matrix_matches_flux_divergence(self, mesh33, rng):
        u = random_velocity(mesh33, rng)
        rho = positive_cells(mesh33, rng)
        mat = ops.transport_matrix(mesh33, u)
        fluxes = ops.primal_fluxes(rho, u)
        assert np.allclose(mat @ rho.values, ops.mass_divergence(fluxes).values,
                           atol=1e-13)


def _scipy_build(coo):
    """scipy's own COO -> CSR conversion of the triples a fresh ``_Coo``
    holds, in place of the slot map."""
    keys = np.concatenate(coo.keys)
    vals = np.concatenate([np.ravel(v) for v in coo.vals])
    n_rows, n_cols = coo.shape
    real = keys < n_rows * n_cols
    return sp.csr_matrix((vals[real], (keys[real] // n_cols,
                                       keys[real] % n_cols)),
                         shape=coo.shape)


PATTERN_MESHES = {
    "mesh33": lambda: build_mesh([[0.0, 0.2, 0.5, 1.0], [0.0, 0.4, 0.7, 1.0]]),
    "mesh345": lambda: build_mesh([AxisPartition.geometric(0.0, 1.0, 3, 2.0),
                                   AxisPartition.geometric(0.0, 1.0, 4, 3.0),
                                   AxisPartition.geometric(0.0, 1.0, 5, 1.5)]),
    "stretched_3d": lambda: build_mesh(
        [AxisPartition.geometric(0.0, 1.0, 4, 3.0)] * 3),
}


class TestAssemblyPattern:
    """A pattern filled by one assembly serves a later one with other values
    (upwind donors flipped included) exactly as a fresh COO -> CSR build."""

    @staticmethod
    def _assert_same(held, fresh):
        assert np.array_equal(held.indptr, fresh.indptr)
        assert np.array_equal(held.indices, fresh.indices)
        scale = np.max(np.abs(fresh.data))
        assert np.max(np.abs(held.data - fresh.data)) <= 1e-15 * scale

    @pytest.mark.parametrize("mesh_name", list(PATTERN_MESHES))
    def test_transport(self, mesh_name, rng, monkeypatch):
        mesh = PATTERN_MESHES[mesh_name]()
        pattern = ops._Pattern()
        ops.transport_matrix(mesh, random_velocity(mesh, rng), 3.0, pattern)
        u = random_velocity(mesh, rng)
        held = ops.transport_matrix(mesh, u, 7.0, pattern)
        monkeypatch.setattr(ops._Coo, "build", _scipy_build)
        fresh = ops.transport_matrix(mesh, u, 7.0)
        self._assert_same(held, fresh)

    @pytest.mark.parametrize("scheme", ["centered", "upwind"])
    @pytest.mark.parametrize("mesh_name", list(PATTERN_MESHES))
    def test_momentum(self, mesh_name, scheme, rng, monkeypatch):
        mesh = PATTERN_MESHES[mesh_name]()
        dofs = ops.FaceDofMap(mesh)
        pattern = ops._Pattern()

        def momentum(pattern=None):
            rho = positive_cells(mesh, rng)
            fluxes = ops.mass_fluxes(rho, random_velocity(mesh, rng))
            mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.2 * r)
            mass = rng.uniform(1.0, 2.0, dofs.n_dofs)
            args = (mass, fluxes, mu_t, scheme, dofs)
            return args, ops._momentum_matrix(*args, pattern)

        momentum(pattern)
        args, _ = momentum()
        held = ops._momentum_matrix(*args, pattern)
        monkeypatch.setattr(ops._Coo, "build", _scipy_build)
        self._assert_same(held, ops._momentum_matrix(*args))

    def test_pattern_of_another_shape_rejected(self, mesh33, rng):
        pattern = ops._Pattern()
        ops.transport_matrix(mesh33, random_velocity(mesh33, rng), 1.0,
                             pattern)
        mesh = build_mesh([AxisPartition.uniform(0.0, 1.0, 4)] * 2)
        with pytest.raises(ops.OperatorError):
            ops.transport_matrix(mesh, VelocityField.zero(mesh), 1.0, pattern)

    @pytest.mark.parametrize("breaks", [[[0.0, 1.0], [0.0, 1.0]],
                                        [[0.0, 1.0], [0.0, 0.4, 1.0]]],
                             ids=["1x1", "1x2"])
    def test_diagonal_stored_on_one_cell_axis(self, breaks):
        mesh = build_mesh(breaks)
        mat = ops.transport_matrix(mesh, VelocityField.zero(mesh), 5.0)
        assert np.array_equal(mat.diagonal(), np.full(mesh.n_cells, 5.0))


class TestMatrixDump:
    def test_coo_roundtrip(self, mesh22, tmp_path):
        mat = ops.divergence_matrix(mesh22)
        path = tmp_path / "div.coo"
        ops.dump_matrix_coo(mat, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split()
        assert header[1:3] == [str(mat.shape[0]), str(mat.shape[1])]
        rebuilt = np.zeros(mat.shape)
        for line in lines[1:]:
            r, c, v = line.split()
            rebuilt[int(r), int(c)] = float(v)
        assert np.allclose(rebuilt, mat.toarray())
