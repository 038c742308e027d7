"""Staggered Cartesian (MAC) mesh: primal cells, directional face sets, dual
cells, dual-dual cells and regularity metrics.

Entity numbering is lexicographic (C-order raveling of the axis-product
index), one id space per entity class and direction.  All geometry is stored
as flat numpy arrays so neighbour lookups during assembly are O(1) index
arithmetic.  A mesh is immutable after construction and safe to share.

Face metadata is stored at construction: the face-grid shapes and counts,
the interior-face masks and one dual-dual volume array per unordered pair of
directions.  The accessors return these stored arrays, read-only, so the
matrix-free products that ask for them on every call allocate nothing.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "AxisPartition",
    "MeshMetrics",
    "MacMesh",
    "build_mesh",
    "mesh_metrics",
    "dual_faces_of",
    "DualFace",
]


class MeshError(ValueError):
    """Invalid mesh description."""


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


# Axis-stencil index helpers of the field maps and operators.  They live here,
# below ``fields``, because ``MacMesh`` uses them too; ``fields`` builds the
# neighbour-pair and face-from-cells stencils on them.

def _slab(dim, axis, start, stop):
    """Index tuple selecting ``start:stop`` along ``axis`` and everything
    along the other axes of a ``dim``-dimensional array."""
    index = [slice(None)] * dim
    index[axis] = slice(start, stop)
    return tuple(index)


def _axis_view(arr, axis, dim):
    """A 1d per-axis array shaped to broadcast along ``axis``."""
    sh = [1] * dim
    sh[axis] = arr.size
    return arr.reshape(sh)


@dataclass(frozen=True)
class AxisPartition:
    """Strictly increasing breakpoints of one axis; first/last are the domain
    bounds along that axis."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise MeshError("axis partition needs at least two breakpoints")
        if not np.all(np.diff(bp) > 0.0):
            raise MeshError("axis breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", _freeze(bp))

    @property
    def n(self):
        """Number of cells along the axis."""
        return self.breakpoints.size - 1

    @property
    def widths(self):
        return np.diff(self.breakpoints)

    @property
    def centers(self):
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    @classmethod
    def uniform(cls, lo, hi, n):
        return cls(np.linspace(lo, hi, n + 1))

    @classmethod
    def geometric(cls, lo, hi, n, ratio):
        """Partition with geometrically growing widths.

        ``ratio`` is the total stretch, i.e. the width of the last cell over
        the width of the first.  ``ratio == 1`` recovers the uniform grid.
        """
        if ratio <= 0.0:
            raise MeshError("stretch ratio must be positive")
        if n < 1:
            raise MeshError("need at least one cell")
        if n == 1 or ratio == 1.0:
            return cls.uniform(lo, hi, n)
        r = ratio ** (1.0 / (n - 1))
        w = r ** np.arange(n)
        bp = lo + (hi - lo) * np.concatenate(([0.0], np.cumsum(w))) / w.sum()
        bp[-1] = hi
        return cls(bp)


@dataclass(frozen=True)
class MeshMetrics:
    """Non-uniformity measures: ``eta`` is the exhaustive maximum of face
    measure ratios across different directions (>= 1), ``h`` the maximum cell
    diameter."""

    eta: float
    h: float


@dataclass(frozen=True)
class DualFace:
    """One face of a velocity control volume, as seen from a primal face.

    ``case`` is ``"parallel"`` (normal along the face's own direction,
    carries the enclosing cell) or ``"transverse"`` (normal along another
    direction, carries the two perpendicular primal faces, one of which may
    be missing next to the boundary).
    """

    id: int
    case: str
    direction: int          # j: axis of the face normal n_{sigma,sigma~}
    normal_sign: int        # n_{sigma,sigma~} . e_j in {-1, +1}
    measure: float
    distance: float         # d_sigma~ between the face centers it separates
    exterior: bool
    cell: int | None = None            # parallel: enclosing cell id
    perp_faces: tuple = ()             # transverse: (tau, tau') face ids


class MacMesh:
    """Axis-product MAC grid of dimension 2 or 3.

    Geometry arrays (per axis ``a``):

    - ``widths[a]``, ``centers[a]``: cell widths and centers (``n[a]``,)
    - ``dual_breaks[a]``: domain bound, cell centers, domain bound
      (``n[a] + 2``,)
    - ``dual_widths[a]``: widths of the dual intervals around each face
      position (``n[a] + 1``,); half cells at the two boundary positions.

    Per direction ``i``, velocity faces live on the axis-product grid with
    axis ``i`` replaced by the ``n[i] + 1`` face positions.  The dual-dual
    partition of an ordered pair ``(i, j)`` with ``i != j`` is the tensor
    product of the dual intervals of axes ``i`` and ``j`` with the cells of
    the remaining axes; the ``(i, i)`` partition reproduces the primal cells.
    Both orderings of a pair share one geometric grid.  The +e_j-normal faces
    of the direction-i control volumes sit at the cells of the (i, j) grid;
    their distance and measure (``dual_face_distances``,
    ``dual_face_measures``) depend on the order of the pair.
    """

    def __init__(self, partitions):
        partitions = tuple(partitions)
        if len(partitions) not in (2, 3):
            raise MeshError(f"dimension {len(partitions)} not supported (need 2 or 3)")
        for axis, part in enumerate(partitions):
            if not isinstance(part, AxisPartition):
                try:
                    part = AxisPartition(np.asarray(part, dtype=float))
                except MeshError as exc:
                    raise MeshError(f"axis {axis}: {exc}") from None
                partitions = partitions[:axis] + (part,) + partitions[axis + 1:]
        self.dim = len(partitions)
        self.n = tuple(p.n for p in partitions)
        self.breaks = [p.breakpoints for p in partitions]
        self.widths = [_freeze(p.widths) for p in partitions]
        self.centers = [_freeze(p.centers) for p in partitions]
        self.dual_breaks = [
            _freeze(np.concatenate(([p.breakpoints[0]], p.centers, [p.breakpoints[-1]])))
            for p in partitions
        ]
        self.dual_widths = [_freeze(np.diff(db)) for db in self.dual_breaks]

        self.cells_shape = self.n
        self.n_cells = int(np.prod(self.n))
        self.cell_volumes = _freeze(self._outer([self.widths[a] for a in range(self.dim)]))

        self.domain_measure = float(self.cell_volumes.sum())
        lo = np.array([p.breakpoints[0] for p in partitions])
        hi = np.array([p.breakpoints[-1] for p in partitions])
        self.bounds = (_freeze(lo), _freeze(hi))
        self.diameter = float(np.linalg.norm(hi - lo))

        self._faces_shape = tuple(
            tuple(self.n[a] + 1 if a == i else self.n[a] for a in range(self.dim))
            for i in range(self.dim))
        self._n_faces = tuple(int(np.prod(shape)) for shape in self._faces_shape)
        self._interior_mask = []
        for i in range(self.dim):
            mask = np.zeros(self._faces_shape[i], dtype=bool)
            mask[_slab(self.dim, i, 1, -1)] = True
            mask.flags.writeable = False
            self._interior_mask.append(mask)
        # one array per unordered pair: (i, j) and (j, i) share their grid
        self._pair_volumes = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                vols = self.cell_volumes if i == j else _freeze(self._outer([
                    self.dual_widths[a] if a in (i, j) else self.widths[a]
                    for a in range(self.dim)]))
                self._pair_volumes[(i, j)] = self._pair_volumes[(j, i)] = vols

        self._face_measures = [_freeze(self._cross_section(i)) for i in range(self.dim)]
        self._dual_volumes = [
            _freeze(self._product(i, self.dual_widths[i])) for i in range(self.dim)
        ]
        self._dual_face_distances = {}
        self._dual_face_measures = {}
        for i in range(self.dim):
            for j in range(self.dim):
                dist = _axis_view(self.widths[i] if j == i else self.dual_widths[j],
                                  j, self.dim)
                self._dual_face_distances[(i, j)] = dist
                self._dual_face_measures[(i, j)] = _freeze(
                    self.pair_volumes(i, j) / dist)

    # -- axis-product helpers -------------------------------------------------

    def _outer(self, axis_arrays):
        out = axis_arrays[0]
        for arr in axis_arrays[1:]:
            out = np.multiply.outer(out, arr)
        return out

    def _cross_section(self, i):
        """|sigma| for direction-i faces: product of the other axes' widths,
        broadcast to the face grid shape."""
        arrays = [
            np.ones(self.n[a] + 1) if a == i else self.widths[a]
            for a in range(self.dim)
        ]
        return self._outer(arrays)

    def _product(self, i, along_i):
        arrays = [along_i if a == i else self.widths[a] for a in range(self.dim)]
        return self._outer(arrays)

    # -- faces ----------------------------------------------------------------

    def faces_shape(self, i):
        return self._faces_shape[i]

    def n_faces(self, i):
        return self._n_faces[i]

    def face_measures(self, i):
        """|sigma| on the direction-i face grid."""
        return self._face_measures[i]

    def dual_volumes(self, i):
        """|D_sigma| on the direction-i face grid."""
        return self._dual_volumes[i]

    def interior_mask(self, i):
        """Read-only bool mask of the interior direction-i faces."""
        return self._interior_mask[i]

    def face_centers(self, i):
        """(N_i, dim) coordinates of direction-i face centers, lexicographic."""
        axes = [self.breaks[a] if a == i else self.centers[a] for a in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def cell_centers(self):
        grids = np.meshgrid(*self.centers, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    # -- dual-dual partitions ---------------------------------------------------

    def pair_shape(self, i, j):
        """Shape of the (i, j) dual-dual cell grid (shared by (j, i))."""
        if i == j:
            return self.cells_shape
        return tuple(
            self.n[a] + 1 if a in (i, j) else self.n[a] for a in range(self.dim)
        )

    def pair_volumes(self, i, j):
        """|D_sigma~| on the (i, j) dual-dual grid, read-only; one array
        serves both orderings of the pair."""
        return self._pair_volumes[(i, j)]

    def dual_face_distances(self, i, j):
        """d_sigma~ across the +e_j-normal faces of the direction-i control
        volumes, shaped to broadcast over the (i, j) dual-dual grid: the cell
        width along ``i`` when ``j == i``, the dual width along ``j``
        otherwise."""
        return self._dual_face_distances[(i, j)]

    def dual_face_measures(self, i, j):
        """|sigma~| = |D_sigma~| / d_sigma~ on the (i, j) dual-dual grid."""
        return self._dual_face_measures[(i, j)]

    # -- dual-face ids (faces of the i-th dual mesh) ----------------------------

    def _parallel_shape(self, i):
        # one plane per dual break of axis i: n+2 planes per cross column
        return tuple(self.n[a] + 2 if a == i else self.n[a] for a in range(self.dim))

    def dual_face_blocks(self, i):
        """(name, shape, id offset) of the dual-face id blocks of direction i."""
        blocks = [("parallel", self._parallel_shape(i), 0)]
        offset = int(np.prod(self._parallel_shape(i)))
        for j in range(self.dim):
            if j == i:
                continue
            shape = self.pair_shape(i, j)
            blocks.append((f"transverse{j}", shape, offset))
            offset += int(np.prod(shape))
        return blocks

    def __repr__(self):
        return f"MacMesh(dim={self.dim}, cells={'x'.join(str(k) for k in self.n)})"


def build_mesh(partitions) -> MacMesh:
    """Construct a MAC mesh from one ``AxisPartition`` (or breakpoint array)
    per axis.  Rejects non-increasing breakpoints naming the failing axis."""
    return MacMesh(partitions)


def mesh_metrics(mesh: MacMesh) -> MeshMetrics:
    """Anisotropy ratio over all cross-direction face pairs and maximum cell
    diameter, both by exhaustive evaluation."""
    eta = 1.0
    for i in range(mesh.dim):
        mi = mesh.face_measures(i)
        for j in range(mesh.dim):
            if j == i:
                continue
            mj = mesh.face_measures(j)
            eta = max(eta, float(mi.max() / mj.min()))
    # cell diameters: sqrt of sum of squared widths, maximised per axis
    diam_sq = np.zeros(())
    for a in range(mesh.dim):
        diam_sq = diam_sq + _axis_view(mesh.widths[a], a, mesh.dim) ** 2
    return MeshMetrics(eta=eta, h=float(np.sqrt(diam_sq.max())))


def dual_faces_of(mesh: MacMesh, i: int, face_id: int):
    """Enumerate the faces of the velocity control volume ``D_sigma``.

    Returns a list of :class:`DualFace` (2*dim entries).  Parallel entries
    carry the enclosing primal cell; transverse entries carry the two
    perpendicular primal faces whose halves form the dual face.  For a face
    on the boundary the control volume degenerates to a half cell and the
    boundary plane itself appears as an exterior parallel entry.
    """
    if not 0 <= i < mesh.dim:
        raise MeshError(f"direction {i} out of range")
    shape = mesh.faces_shape(i)
    if not 0 <= face_id < int(np.prod(shape)):
        raise MeshError(f"unknown direction-{i} face id {face_id}")
    idx = list(np.unravel_index(face_id, shape))
    f = idx[i]
    blocks = dict((name, (shp, off)) for name, shp, off in mesh.dual_face_blocks(i))
    out = []

    def cell_id(cidx):
        return int(np.ravel_multi_index(cidx, mesh.cells_shape))

    cross = float(np.prod([mesh.widths[a][idx[a]] for a in range(mesh.dim) if a != i]))

    # parallel faces: planes at dual breaks f and f+1 of axis i
    pshape, poff = blocks["parallel"]
    for plane, sign in ((f, -1), (f + 1, +1)):
        pidx = list(idx)
        pidx[i] = plane
        fid = poff + int(np.ravel_multi_index(pidx, pshape))
        exterior = plane in (0, mesh.n[i] + 1)
        if exterior:
            # the boundary plane is the primal face itself
            cidx = list(idx)
            cidx[i] = 0 if plane == 0 else mesh.n[i] - 1
            distance = mesh.dual_widths[i][f]
        else:
            cidx = list(idx)
            cidx[i] = plane - 1
            distance = mesh.widths[i][plane - 1]
        out.append(DualFace(
            id=fid, case="parallel", direction=i, normal_sign=sign,
            measure=cross, distance=float(distance), exterior=exterior,
            cell=cell_id(cidx),
        ))

    # transverse faces: one pair per other direction j
    for j in range(mesh.dim):
        if j == i:
            continue
        tshape, toff = blocks[f"transverse{j}"]
        cross_j = mesh.dual_widths[i][f] * float(np.prod(
            [mesh.widths[a][idx[a]] for a in range(mesh.dim) if a not in (i, j)]
        ))
        for g, sign in ((idx[j], -1), (idx[j] + 1, +1)):
            tidx = list(idx)
            tidx[i] = f
            tidx[j] = g
            fid = toff + int(np.ravel_multi_index(tidx, tshape))
            exterior = g in (0, mesh.n[j])
            perp = []
            fshape_j = mesh.faces_shape(j)
            for ci in (f - 1, f):      # cells behind/ahead of sigma along axis i
                if 0 <= ci < mesh.n[i]:
                    pidx = list(idx)
                    pidx[i] = ci
                    pidx[j] = g
                    perp.append(int(np.ravel_multi_index(pidx, fshape_j)))
                else:
                    perp.append(None)
            out.append(DualFace(
                id=fid, case="transverse", direction=j, normal_sign=sign,
                measure=cross_j, distance=float(mesh.dual_widths[j][g]),
                exterior=exterior, perp_faces=tuple(perp),
            ))
    return out
