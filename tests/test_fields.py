import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cells, random_velocity
from macflow.fields import (CellScalarField, FieldError, VelocityField,
                            norm_h1, norm_l2, norm_lp, project_cell,
                            project_face, reconstruct_cell_to_face,
                            reconstruct_face_to_cell, reconstruct_face_to_pair)
from macflow.mesh import AxisPartition, build_mesh, dual_faces_of
from macflow import operators as ops
from macflow.verification import check_fortin


class TestFieldInvariants:
    def test_cell_field_length(self, mesh22):
        with pytest.raises(FieldError):
            CellScalarField(mesh22, np.zeros(5))

    def test_exterior_entries_must_vanish(self, mesh22):
        comps = [np.ones(mesh22.n_faces(i)) for i in range(2)]
        with pytest.raises(FieldError):
            VelocityField(mesh22, comps)
        # from_interior zeroes them silently
        u = VelocityField.from_interior(mesh22, comps)
        assert np.all(u.shaped(0)[[0, 2], :] == 0.0)

    def test_fields_are_immutable(self, mesh22, rng):
        q = random_cells(mesh22, rng)
        with pytest.raises(ValueError):
            q.values[0] = 3.0


class TestProjections:
    def test_constant_projects_to_constant(self, mesh33):
        q = project_cell(mesh33, lambda x, y: np.full_like(x, 3.25))
        assert np.allclose(q.values, 3.25, atol=1e-14)

    def test_linear_projects_to_column_averages(self, mesh22):
        q = project_cell(mesh22, lambda x, y: x)
        assert np.allclose(q.shaped[0, :], 0.25, atol=1e-14)
        assert np.allclose(q.shaped[1, :], 0.75, atol=1e-14)

    def test_projection_nonexpansive_on_block_data(self, rng):
        # piecewise-constant data on a 4x4 refinement of a 2x2 mesh: the cell
        # average is an exact block mean, and every Lp norm shrinks
        coarse = build_mesh([AxisPartition.uniform(0, 1, 2)] * 2)
        fine_vals = rng.uniform(-1, 1, (4, 4))
        blocks = fine_vals.reshape(2, 2, 2, 2).mean(axis=(1, 3))
        proj = CellScalarField(coarse, blocks.ravel())
        for p in (1.0, 2.0, np.inf):
            fine_norm = _block_lp(fine_vals, p, 0.25 ** 2)
            assert norm_lp(proj, p) <= fine_norm + 1e-14

    def test_dual_cell_mean_of_linear(self, mesh22):
        u = project_face(mesh22, [lambda x, y: x, lambda x, y: 0.0 * x],
                         variant="dual")
        assert u.shaped(0)[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert np.all(u.components[1] == 0.0)

    def test_zero_function(self, mesh33):
        u = project_face(mesh33, [lambda x, y: 0.0 * x] * 2)
        assert all(np.all(c == 0.0) for c in u.components)

    def test_fortin_preserves_divergence_free(self, mesh33):
        def u0(x, y):
            g = x ** 2 * (1 - x) ** 2
            dh = 2 * y - 6 * y ** 2 + 4 * y ** 3
            return g * dh

        def u1(x, y):
            dg = 2 * x - 6 * x ** 2 + 4 * x ** 3
            h = y ** 2 * (1 - y) ** 2
            return -dg * h

        proj = project_face(mesh33, [u0, u1], variant="fortin")
        div = ops.divergence(proj)
        assert np.max(np.abs(div.values)) <= 1e-12

    def test_quadrature_failure_reported(self, mesh22):
        from macflow.fields import QuadratureError
        with pytest.raises(QuadratureError):
            project_cell(mesh22, lambda x, y: np.where(x > 0.3, np.nan, 1.0))


class TestProjections3d:
    """Projections on a 3d mesh stretched differently along each axis,
    against closed-form means of a degree-9-per-axis polynomial, which the
    default 5-point rule averages exactly."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return build_mesh([AxisPartition.geometric(0.0, 1.0, 5, 3.0),
                           AxisPartition.geometric(0.0, 2.0, 4, 0.5),
                           AxisPartition.geometric(-1.0, 1.0, 3, 2.0)])

    @pytest.fixture(scope="class")
    def terms(self):
        # a sum of two separable terms: one degree-9 polynomial per axis each
        rng = np.random.default_rng(93)
        return [[Polynomial(rng.uniform(-1.0, 1.0, 10)) for _ in range(3)]
                for _ in range(2)]

    @staticmethod
    def _fn(terms):
        return lambda *X: sum(np.prod([P(x) for P, x in zip(term, X)], axis=0)
                              for term in terms)

    @staticmethod
    def _closed_form(terms, axes):
        """Means over the product partition: an interval mean on each axis
        given as ``(breakpoints, True)``, point values on one given as
        ``(breakpoints, False)``."""
        total = 0.0
        for term in terms:
            factors = []
            for P, (b, averaged) in zip(term, axes):
                if averaged:
                    F = P.integ()
                    factors.append(np.diff(F(b)) / np.diff(b))
                else:
                    factors.append(P(b))
            total = total + np.einsum("i,j,k->ijk", *factors)
        return total

    def test_cell_means(self, mesh, terms):
        q = project_cell(mesh, self._fn(terms))
        exact = self._closed_form(terms, [(b, True) for b in mesh.breaks])
        assert np.allclose(q.shaped, exact, rtol=0.0,
                           atol=1e-12 * np.abs(exact).max())

    @pytest.mark.parametrize("variant", ["dual", "fortin"])
    def test_face_means(self, mesh, terms, variant):
        u = project_face(mesh, [self._fn(terms)] * 3, variant=variant)
        for i in range(3):
            if variant == "dual":
                axes = [(mesh.dual_breaks[a] if a == i else mesh.breaks[a], True)
                        for a in range(3)]
            else:
                axes = [(mesh.breaks[a], a != i) for a in range(3)]
            exact = np.where(mesh.interior_mask(i),
                             self._closed_form(terms, axes), 0.0)
            assert np.allclose(u.shaped(i), exact, rtol=0.0,
                               atol=1e-12 * np.abs(exact).max())

    def test_fortin_commutes_with_divergence(self, mesh):
        report = check_fortin(mesh)
        assert report["fortin_divergence_free"] <= 1e-12
        assert report["fortin_commutes"] <= 1e-12

    def test_unknown_variant_rejected(self, mesh, terms):
        with pytest.raises(ValueError, match="variant"):
            project_face(mesh, [self._fn(terms)] * 3, variant="mean")


def _block_lp(vals, p, cell_measure):
    flat = np.abs(vals.ravel())
    if np.isinf(p):
        return float(flat.max())
    return float((cell_measure * (flat ** p)).sum() ** (1.0 / p))


class TestReconstructions:
    def test_cell_to_face_constant(self, mesh33):
        q = CellScalarField(mesh33, np.full(mesh33.n_cells, 2.5))
        assert np.allclose(reconstruct_cell_to_face(q, 0), 2.5)
        assert np.allclose(reconstruct_cell_to_face(q, 1), 2.5)

    def test_cell_to_face_midpoint(self, mesh22):
        vals = np.zeros((2, 2))
        vals[0, 0], vals[1, 0] = 1.0, 3.0
        q = CellScalarField(mesh22, vals.ravel())
        rec = reconstruct_cell_to_face(q, 0).reshape(mesh22.faces_shape(0))
        assert rec[1, 0] == pytest.approx(2.0)
        assert rec[0, 0] == pytest.approx(1.0)    # boundary copies the cell
        assert rec[2, 0] == pytest.approx(3.0)

    def test_cell_to_face_weights_nonuniform(self):
        mesh = build_mesh([[0.0, 0.25, 1.0], [0.0, 1.0]])
        q = CellScalarField(mesh, [1.0, 3.0])
        rec = reconstruct_cell_to_face(q, 0).reshape(mesh.faces_shape(0))
        # alpha = |D_{K,sigma}| / |D_sigma| = 0.125 / 0.5
        assert rec[1, 0] == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)

    def test_face_to_cell_mean(self, mesh22):
        v = np.zeros(mesh22.faces_shape(0))
        v[1, 0] = 4.0
        rec = reconstruct_face_to_cell(mesh22, v.ravel(), 0)
        assert rec.shaped[0, 0] == pytest.approx(2.0)
        assert rec.shaped[1, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_reconstructions_nonexpansive(self, mesh_stretched, rng, p):
        mesh = mesh_stretched
        for _ in range(25):
            q = random_cells(mesh, rng)
            for i in range(mesh.dim):
                rec = reconstruct_cell_to_face(q, i)
                assert _face_lp(mesh, rec, i, p) <= norm_lp(q, p) + 1e-13
                v = rng.uniform(-1, 1, mesh.n_faces(i))
                assert norm_lp(reconstruct_face_to_cell(mesh, v, i), p) \
                    <= _face_lp(mesh, v, i, p) + 1e-13

    def test_pair_reconstruction_bounded(self, mesh_stretched, rng):
        from macflow.mesh import mesh_metrics
        mesh = mesh_stretched
        c_eta = 1.0 + mesh_metrics(mesh).eta ** 2
        for _ in range(25):
            u = random_velocity(mesh, rng)
            for p in (1.0, 2.0):
                bound = 2.0 ** ((p - 1.0) / p) * c_eta
                for i in range(2):
                    for j in range(2):
                        if i == j:
                            continue
                        rec = reconstruct_face_to_pair(mesh, u.components[i], i, j)
                        ratio = norm_lp(rec, p) / max(
                            _face_lp(mesh, u.components[i], i, p), 1e-300)
                        assert ratio <= bound


def _face_lp(mesh, values, i, p):
    vals = np.asarray(values).ravel()
    if np.isinf(p):
        return float(np.max(np.abs(vals)))
    vols = mesh.dual_volumes(i).ravel()
    return float(np.dot(vols, np.abs(vals) ** p) ** (1.0 / p))


class TestNorms:
    def test_zero_field(self, mesh22):
        u = VelocityField.zero(mesh22)
        assert norm_h1(u) == 0.0
        assert norm_l2(u) == 0.0

    def test_h1_against_entity_loop_oracle(self, mesh22):
        comps = [np.zeros(mesh22.faces_shape(i)) for i in range(2)]
        comps[0][1, 0] = 1.0
        u = VelocityField.from_interior(mesh22, comps)
        assert norm_h1(u) ** 2 == pytest.approx(_h1_sq_oracle(mesh22, u), rel=1e-13)

    def test_h1_oracle_random(self, mesh33, rng):
        for _ in range(5):
            u = random_velocity(mesh33, rng)
            assert norm_h1(u) ** 2 == pytest.approx(_h1_sq_oracle(mesh33, u),
                                                    rel=1e-12)

    def test_h1_equals_gradient_inner(self, mesh_stretched, rng):
        u = random_velocity(mesh_stretched, rng)
        assert norm_h1(u) ** 2 == pytest.approx(ops.gradient_inner(u, u),
                                                rel=1e-12)

    def test_poincare_sample(self, mesh33, rng):
        for _ in range(50):
            u = random_velocity(mesh33, rng)
            assert norm_l2(u) <= mesh33.diameter * norm_h1(u) + 1e-12


def _h1_sq_oracle(mesh, u):
    """Brute-force face-pair sum over every dual face of every dual mesh,
    driven by the dual-face query API (independent of the vectorized path)."""
    total = 0.0
    for i in range(mesh.dim):
        us = u.shaped(i)
        seen = set()
        for fid in range(mesh.n_faces(i)):
            idx = np.unravel_index(fid, mesh.faces_shape(i))
            for df in dual_faces_of(mesh, i, fid):
                if df.id in seen:
                    continue
                seen.add(df.id)
                if df.case == "parallel":
                    if df.exterior:
                        total += df.measure / df.distance * us[idx] ** 2
                    else:
                        # neighbour across the cell df.cell along axis i
                        cidx = np.unravel_index(df.cell, mesh.cells_shape)
                        lo = list(cidx)
                        hi = list(cidx)
                        hi[i] += 1
                        diff = us[tuple(hi)] - us[tuple(lo)]
                        total += df.measure / df.distance * diff ** 2
                else:
                    j = df.direction
                    if df.exterior:
                        total += df.measure / df.distance * us[idx] ** 2
                    else:
                        other = list(idx)
                        other[j] += df.normal_sign
                        diff = us[tuple(other)] - us[idx]
                        total += df.measure / df.distance * diff ** 2
    return total


@settings(max_examples=25, deadline=None)
@given(vals=st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_face_to_cell_mean_bounds(vals):
    """Hypothesis: the cell reconstruction stays inside the face value hull."""
    mesh = build_mesh([[0.0, 1.0], [0.0, 0.2, 0.5, 1.0]])
    v = np.asarray(vals).reshape(1, 4)
    rec = reconstruct_face_to_cell(mesh, v.ravel(), 1)
    assert rec.values.min() >= min(vals) - 1e-12
    assert rec.values.max() <= max(vals) + 1e-12
