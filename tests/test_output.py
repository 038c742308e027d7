"""The snapshot writers and the matrix dump format a whole block at once; they
must write the same bytes as formatting each value on its own, which the
oracles below do."""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from macflow import operators as ops
from macflow.fields import CellScalarField, VelocityField
from macflow.mesh import AxisPartition, build_mesh
from macflow.output import (CHUNK_ROWS, _cell_velocity, _vtk_order,
                            write_staggered_csv, write_vtk_rectilinear)

# values whose shortest round trip and exponent spelling are the edge cases
# of %g: signed zero, 17-digit integers, subnormals, extreme exponents
SPECIAL = np.array([-0.0, 1e16, 5e-324, 1e-300, -2.5e-308, 1e-200,
                    -1.2345678901234567e-250, 1.0000000000000002,
                    123456789012.34568, -1.0 / 3.0, 0.0, 9.999999999999999e22])


def _oracle_vtk(state, path, title="macflow snapshot"):
    mesh = state.rho.mesh
    axes = [mesh.breaks[a] for a in range(mesh.dim)]
    while len(axes) < 3:
        axes.append(np.array([0.0]))
    dims = [a.size for a in axes]
    buf = io.StringIO()
    buf.write("# vtk DataFile Version 2.0\n")
    buf.write(f"{title} t={state.t:.12g}\n")
    buf.write("ASCII\nDATASET RECTILINEAR_GRID\n")
    buf.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
    for name, arr in zip(("X", "Y", "Z"), axes):
        buf.write(f"{name}_COORDINATES {arr.size} double\n")
        buf.write(" ".join(f"{x:.12g}" for x in arr) + "\n")
    buf.write(f"CELL_DATA {mesh.n_cells}\n")
    for name, values in (("density", state.rho.values),
                         ("pressure", state.p.values)):
        buf.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        vals = _vtk_order(mesh, values)
        for start in range(0, vals.size, 6):
            buf.write(" ".join(f"{v:.12g}" for v in vals[start:start + 6]))
            buf.write("\n")
    comps = [_vtk_order(mesh, c) for c in _cell_velocity(state)]
    buf.write("VECTORS velocity double\n")
    for k in range(mesh.n_cells):
        buf.write(f"{comps[0][k]:.12g} {comps[1][k]:.12g} {comps[2][k]:.12g}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _oracle_staggered_csv(state, path):
    def xyz(coords):
        vals = list(np.asarray(coords, dtype=float))
        while len(vals) < 3:
            vals.append(0.0)
        return [f"{v:.17g}" for v in vals]

    mesh = state.rho.mesh
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field", "id", "x", "y", "z", "value"])
        centers = mesh.cell_centers()
        for name, values in (("rho", state.rho.values), ("p", state.p.values)):
            for k in range(mesh.n_cells):
                writer.writerow([name, k, *xyz(centers[k]), f"{values[k]:.17g}"])
        for i in range(mesh.dim):
            fc = mesh.face_centers(i)
            comp = state.u.components[i]
            for k in range(comp.size):
                writer.writerow([f"u{i}", k, *xyz(fc[k]), f"{comp[k]:.17g}"])


def _oracle_dump(matrix, path):
    coo = sp.coo_matrix(matrix)
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")


def _state(mesh, rng, special):
    """Fields of random values; with ``special``, the entries cycle through
    SPECIAL instead, and exterior faces hold -0.0.  Not a ``TimeState``:
    the writers read only t, rho, p and u, and these values need not meet
    its bounds or zero-mean pressure."""
    def values(n):
        if special:
            return np.resize(SPECIAL, n) * rng.choice([1.0, -1.0], n)
        return rng.uniform(-2.0, 2.0, n)

    comps = []
    for i in range(mesh.dim):
        comp = np.where(mesh.interior_mask(i).ravel(),
                        values(mesh.n_faces(i)), 0.0)
        if special:
            comp[~mesh.interior_mask(i).ravel()] = -0.0
        comps.append(comp)
    return SimpleNamespace(
        t=1.0 / 3.0,
        rho=CellScalarField(mesh, values(mesh.n_cells)),
        p=CellScalarField(mesh, values(mesh.n_cells)),
        u=VelocityField(mesh, comps))


CASES = {
    # 71 x 65 cells: more rows than a formatting chunk in every block, and
    # a short last line in each VTK scalar block
    "stretched_2d": (lambda: build_mesh(
        [AxisPartition.geometric(0.0, 1.0, 71, 3.0),
         AxisPartition.geometric(0.0, 2.0, 65, 0.5)]), False),
    "special_3d": (lambda: build_mesh(
        [[0.0, 0.1, 0.35, 1.0], [0.0, 1e-7, 0.5, 0.75, 1.0],
         [-1.0, -0.2, 0.0, 1e-12, 0.5, 3.0]]), True),
}


@pytest.fixture(params=sorted(CASES))
def state(request, rng):
    make_mesh, special = CASES[request.param]
    return _state(make_mesh(), rng, special)


def test_stretched_case_spans_several_chunks():
    mesh = CASES["stretched_2d"][0]()
    assert mesh.n_cells > 4 * CHUNK_ROWS and mesh.n_cells % 6


def test_vtk_bytes_match_per_value_formatting(state, tmp_path):
    write_vtk_rectilinear(state, tmp_path / "new.vtk")
    _oracle_vtk(state, tmp_path / "old.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == \
        (tmp_path / "old.vtk").read_bytes()


def test_staggered_csv_bytes_match_per_value_formatting(state, tmp_path):
    write_staggered_csv(state, tmp_path / "new.csv")
    _oracle_staggered_csv(state, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


def test_matrix_dump_bytes_match_per_entry_formatting(state, tmp_path):
    mesh = state.rho.mesh
    mu_t = ops.viscosity_tensor(
        CellScalarField(mesh, np.abs(state.rho.values) + 1.0), lambda r: r)
    # the diffusion matrix carries the mesh's widths; scaling a copy of its
    # entries by the state's values brings in the special ones too
    mat = ops.diffusion_matrix(mesh, mu_t).tocoo()
    mat.data = mat.data * np.resize(state.p.values, mat.nnz)
    for name, matrix in (("div", ops.divergence_matrix(mesh)), ("diff", mat)):
        ops.dump_matrix_coo(matrix, tmp_path / f"{name}.new")
        _oracle_dump(matrix, tmp_path / f"{name}.old")
        assert (tmp_path / f"{name}.new").read_bytes() == \
            (tmp_path / f"{name}.old").read_bytes()
