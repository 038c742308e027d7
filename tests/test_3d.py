"""The geometry and operator code paths are dimension-generic; exercise them
once on a small 3d grid (full acceptance coverage is 2d)."""

import numpy as np
import pytest

from macflow import operators as ops
from macflow.fields import CellScalarField, VelocityField, norm_h1
from macflow.mesh import AxisPartition, build_mesh
from macflow.solver import StepSolver, transport_solve
from macflow.verification import check_dualities


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
    rho_dual = ops.dual_cell_density(rho)
    u, _, _ = StepSolver(mesh).momentum_solve(
        rho_dual, rho_dual, adv, ops.mass_fluxes(rho, adv), mu_t, f, 0.01)
    assert np.max(np.abs(ops.divergence(u).values)) <= 1e-12
