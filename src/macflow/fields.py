"""Discrete fields on a MAC mesh and the maps between them.

Three kinds of piecewise-constant fields appear: scalars on primal cells
(density, pressure, viscosity), one scalar per face and direction for the
velocity (with homogeneous Dirichlet values stored as exact zeros on exterior
faces), and scalars on the dual-dual cells of an ordered direction pair
(gradients, strain components, face viscosities).

Integration over the MAC partitions lives here.  One tensor-product
Gauss-Legendre averaging routine gives cell means, velocity control-volume
means and Fortin face means (``project_cell``, ``project_face``), and its
rule on [0, 1] is the forcing's time-slab average; ``order`` is the number of
points per axis, so polynomials up to degree ``2*order - 1`` are averaged
exactly.  The discrete norms and the velocity inner product below are the
ones every other module uses.
"""

import numpy as np

from .mesh import MacMesh, _axis_view, _slab

__all__ = [
    "FieldError",
    "QuadratureError",
    "CellScalarField",
    "VelocityField",
    "DualGridField",
    "project_cell",
    "project_face",
    "reconstruct_cell_to_face",
    "reconstruct_face_to_cell",
    "reconstruct_face_to_pair",
    "norm_l2",
    "norm_h1",
    "norm_lp",
    "velocity_inner",
]

class FieldError(ValueError):
    """Field data inconsistent with its mesh or declared invariants."""


class QuadratureError(RuntimeError):
    """Sampled data produced non-finite quadrature values."""


def _frozen(values, size, what):
    arr = np.ascontiguousarray(values, dtype=float).ravel()
    if arr.size != size:
        raise FieldError(f"{what}: expected {size} values, got {arr.size}")
    arr.flags.writeable = False
    return arr


class CellScalarField:
    """One real per primal cell, lexicographic order."""

    def __init__(self, mesh: MacMesh, values):
        self.mesh = mesh
        self.values = _frozen(values, mesh.n_cells, "cell field")

    @property
    def shaped(self):
        return self.values.reshape(self.mesh.cells_shape)

    def __repr__(self):
        return f"CellScalarField(n={self.values.size})"


class VelocityField:
    """One real per face of each directional face set, exterior entries
    exactly zero (homogeneous Dirichlet space)."""

    def __init__(self, mesh: MacMesh, components):
        self.mesh = mesh
        comps = []
        if len(components) != mesh.dim:
            raise FieldError(f"need {mesh.dim} components, got {len(components)}")
        for i, comp in enumerate(components):
            arr = _frozen(comp, mesh.n_faces(i), f"velocity component {i}")
            ext = ~mesh.interior_mask(i).ravel()
            if np.any(arr[ext] != 0.0):
                raise FieldError(f"component {i} has nonzero exterior-face entries")
            comps.append(arr)
        self.components = tuple(comps)

    def shaped(self, i):
        return self.components[i].reshape(self.mesh.faces_shape(i))

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, [np.zeros(mesh.n_faces(i)) for i in range(mesh.dim)])

    @classmethod
    def from_interior(cls, mesh, components):
        """Build from arbitrary per-face arrays, zeroing exterior entries."""
        comps = []
        for i, comp in enumerate(components):
            arr = np.array(comp, dtype=float).reshape(mesh.faces_shape(i))
            arr[~mesh.interior_mask(i)] = 0.0
            comps.append(arr.ravel())
        return cls(mesh, comps)

    def __repr__(self):
        sizes = "+".join(str(c.size) for c in self.components)
        return f"VelocityField(n={sizes})"


class DualGridField:
    """One real per dual-dual cell of the ordered pair (i, j)."""

    def __init__(self, mesh: MacMesh, i, j, values):
        self.mesh = mesh
        self.pair = (int(i), int(j))
        size = int(np.prod(mesh.pair_shape(i, j)))
        self.values = _frozen(values, size, f"dual grid field ({i},{j})")

    @property
    def shaped(self):
        return self.values.reshape(self.mesh.pair_shape(*self.pair))

    def __repr__(self):
        return f"DualGridField(pair={self.pair}, n={self.values.size})"


# -- quadrature -----------------------------------------------------------------

def _gauss01(order):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to one."""
    x, w = np.polynomial.legendre.leggauss(int(order))
    return 0.5 * (x + 1.0), 0.5 * w


def _axis_points(breaks, nodes):
    lo = breaks[:-1]
    width = np.diff(breaks)
    return (lo[:, None] + width[:, None] * nodes[None, :]).ravel()


def _sample(fn, grids):
    samples = np.asarray(fn(*grids), dtype=float)
    if samples.shape != grids[0].shape:
        samples = np.broadcast_to(samples, grids[0].shape)
    if not np.all(np.isfinite(samples)):
        raise QuadratureError("non-finite samples in quadrature")
    return samples


def _partition_average(axes, fn, order):
    """Means of ``fn`` over an axis-product partition, one ``(breakpoints,
    averaged)`` pair per axis: an averaged axis is Gauss-averaged over each
    interval between its breakpoints, a sampled axis is evaluated at each
    breakpoint.  Returns the array of means in C order."""
    nodes, weights = _gauss01(order)
    pts, shape, qpos = [], [], []
    for breaks, averaged in axes:
        if averaged:
            pts.append(_axis_points(breaks, nodes))
            qpos.append(len(shape) + 1)
            shape.extend([breaks.size - 1, nodes.size])
        else:
            pts.append(breaks)
            shape.append(breaks.size)
    samples = _sample(fn, np.meshgrid(*pts, indexing="ij")).reshape(shape)
    # descending order keeps the remaining positions valid
    for pos in reversed(qpos):
        samples = np.tensordot(samples, weights, axes=([pos], [0]))
    return samples


def project_cell(mesh: MacMesh, fn, order=5) -> CellScalarField:
    """Cell averages of an integrable scalar ``fn(x0, .., x_{d-1})`` (numpy
    broadcasting callable)."""
    avg = _partition_average([(b, True) for b in mesh.breaks], fn, order)
    return CellScalarField(mesh, avg.ravel())


def project_face(mesh: MacMesh, fns, variant="dual", order=5) -> VelocityField:
    """Project a vector function onto the velocity space.

    ``variant="dual"`` averages component ``i`` over the velocity control
    volume around each face; ``variant="fortin"`` averages over the face
    itself, which commutes with the discrete divergence.  Exterior faces are
    forced to zero either way.
    """
    if len(fns) != mesh.dim:
        raise FieldError(f"need {mesh.dim} component callables")
    if variant not in ("dual", "fortin"):
        raise ValueError(f"unknown projection variant {variant!r}")
    comps = []
    for i, fn in enumerate(fns):
        if variant == "dual":
            axes = [(mesh.dual_breaks[a] if a == i else mesh.breaks[a], True)
                    for a in range(mesh.dim)]
        else:
            axes = [(mesh.breaks[a], a != i) for a in range(mesh.dim)]
        arr = _partition_average(axes, fn, order).reshape(mesh.faces_shape(i))
        arr[~mesh.interior_mask(i)] = 0.0
        comps.append(arr.ravel())
    return VelocityField(mesh, comps)


# -- reconstructions --------------------------------------------------------------

def reconstruct_cell_to_face(q: CellScalarField, i) -> np.ndarray:
    """Convex interpolation of a cell field to direction-i faces: on interior
    faces the half-cell weighted average
    (|D_{K,sigma}| q_K + |D_{L,sigma}| q_L) / |D_sigma| (the dual-cell density
    rho_{D_sigma} of the scheme); boundary faces copy the adjacent cell.
    Returns the flat face array."""
    mesh = q.mesh
    w = mesh.widths[i]
    lo_w = _axis_view(0.5 * w[:-1], i, mesh.dim)
    hi_w = _axis_view(0.5 * w[1:], i, mesh.dim)
    dw = _axis_view(mesh.dual_widths[i][1:-1], i, mesh.dim)
    behind, ahead = _neighbours(q.shaped, i)
    return _face_from_cells(q.shaped, i, (lo_w * behind + hi_w * ahead) / dw).ravel()


def reconstruct_face_to_cell(mesh: MacMesh, v, i) -> CellScalarField:
    """Arithmetic mean of the two direction-i faces of each cell."""
    vs = np.asarray(v, dtype=float).reshape(mesh.faces_shape(i))
    lo, hi = _neighbours(vs, i)
    return CellScalarField(mesh, (0.5 * (lo + hi)).ravel())


def reconstruct_face_to_pair(mesh: MacMesh, v, i, j) -> DualGridField:
    """Interpolate direction-i face scalars onto the (i, j) dual-dual grid:
    the mean of the two faces on either side of each dual face; exterior
    dual faces keep half of their single neighbour."""
    vs = np.asarray(v, dtype=float).reshape(mesh.faces_shape(i))
    lo, hi = _neighbours(vs, j, None if i == j else 0.0)
    return DualGridField(mesh, i, j, (0.5 * (lo + hi)).ravel())


# -- axis stencils ---------------------------------------------------------------

def _neighbours(arr, axis, fill=None):
    """The two entries along ``axis`` on either side of each gap between
    consecutive entries, ``arr[..., :-1, ...]`` and ``arr[..., 1:, ...]``.
    With ``fill`` the array is first extended by one ``fill`` entry at both
    ends of ``axis``: 0 is the zero ghost value beyond a homogeneous
    Dirichlet boundary, -1 a missing id."""
    if fill is not None:
        shape = list(arr.shape)
        shape[axis] += 2
        padded = np.full(shape, fill, dtype=arr.dtype)
        padded[_slab(arr.ndim, axis, 1, -1)] = arr
        arr = padded
    return arr[_slab(arr.ndim, axis, None, -1)], arr[_slab(arr.ndim, axis, 1, None)]


def _face_from_cells(cells, axis, interior):
    """Direction-``axis`` face array holding ``interior`` on the interior
    faces; each boundary face copies its adjacent cell of ``cells``."""
    shape = list(cells.shape)
    shape[axis] += 1
    out = np.empty(shape)
    first, last = _slab(cells.ndim, axis, 0, 1), _slab(cells.ndim, axis, -1, None)
    out[_slab(cells.ndim, axis, 1, -1)] = interior
    out[first] = cells[first]
    out[last] = cells[last]
    return out


# -- norms -----------------------------------------------------------------------

def norm_l2(field) -> float:
    """L2 norm of the piecewise-constant representation of a field."""
    if isinstance(field, CellScalarField):
        return float(np.sqrt(np.dot(field.mesh.cell_volumes.ravel(), field.values ** 2)))
    if isinstance(field, VelocityField):
        total = 0.0
        for i, comp in enumerate(field.components):
            total += float(np.dot(field.mesh.dual_volumes(i).ravel(), comp ** 2))
        return float(np.sqrt(total))
    raise TypeError(f"no L2 norm for {type(field).__name__}")


def norm_lp(field, p) -> float:
    """Lp norm (p >= 1 or inf) of a piecewise-constant field."""
    if isinstance(field, CellScalarField):
        vols, vals = field.mesh.cell_volumes.ravel(), field.values
    elif isinstance(field, DualGridField):
        vols, vals = field.mesh.pair_volumes(*field.pair).ravel(), field.values
    else:
        raise TypeError(f"no Lp norm for {type(field).__name__}")
    return _lp(vols, vals, p)


def _lp(vols, vals, p):
    """Lp norm of the piecewise-constant function taking ``vals`` on cells of
    measures ``vols``."""
    if np.isinf(p):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    return float(np.dot(vols, np.abs(vals) ** p) ** (1.0 / p))


def norm_h1(u: VelocityField) -> float:
    """Discrete H1_0 seminorm: face-pair differences weighted by
    |sigma~| / d_sigma~ plus the matching boundary terms."""
    mesh = u.mesh
    total = 0.0
    for i in range(mesh.dim):
        us = u.shaped(i)
        for j in range(mesh.dim):
            # pairs inside each cell along axis i; across axis j, the zero
            # beyond the boundary pairs with the outermost face
            lo, hi = _neighbours(us, j, None if j == i else 0.0)
            total += float(np.sum(mesh.dual_face_measures(i, j)
                                  / mesh.dual_face_distances(i, j) * (hi - lo) ** 2))
    return float(np.sqrt(total))


def velocity_inner(u: VelocityField, v: VelocityField) -> float:
    total = 0.0
    for i in range(u.mesh.dim):
        total += float(np.dot(u.mesh.dual_volumes(i).ravel() * u.components[i],
                              v.components[i]))
    return total
