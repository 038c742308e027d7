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


class SpluFault:
    """Stand-in for ``scipy.sparse.linalg.splu`` that counts its calls and
    raises RuntimeError, as SuperLU does on a singular matrix, from call
    ``fail_from`` on (1-based; None never fails)."""

    def __init__(self, real, fail_from=None):
        self.real = real
        self.fail_from = fail_from
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.fail_from is not None and self.calls >= self.fail_from:
            raise RuntimeError("Factor is exactly singular")
        return self.real(*args, **kwargs)


class KrylovStall:
    """Stand-in for a ``scipy.sparse.linalg`` Krylov solver that counts its
    calls and, on calls ``stall_from`` to ``stall_to`` (1-based, inclusive;
    None leaves that end open, and ``stall_from=None`` never stalls),
    stagnates: it returns an unconverged iterate (all ones) with ``info``,
    by default positive as from a solver that ran out of iterations; 0
    reports a wrong iterate as converged."""

    def __init__(self, real, stall_from=None, stall_to=None, info=1):
        self.real = real
        self.stall_from = stall_from
        self.stall_to = stall_to
        self.info = info
        self.calls = 0

    def __call__(self, A, b, *args, **kwargs):
        self.calls += 1
        if self.stall_from is not None and self.calls >= self.stall_from \
                and (self.stall_to is None or self.calls <= self.stall_to):
            return np.ones_like(b), self.info
        return self.real(A, b, *args, **kwargs)
