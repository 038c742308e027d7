"""Spatial operators of the staggered scheme.

Sign conventions used throughout:

- direction-i faces are ordered along axis i; for an interior face the cell
  behind (lower axis-i index) plays the role of K, so the face normal out of
  K is +e_i and ``u_{K,sigma} = +u_sigma``.
- primal mass fluxes are stored as the flux in the +e_i direction,
  ``phi_sigma = |sigma| rho_sigma u_sigma``; the flux outward a cell is
  ``+phi`` through its upper face and ``-phi`` through its lower face.
- the faces of the direction-i velocity control volumes with normal e_j
  live on the (i, j) dual-dual grid, the primal cells for ``j == i``.  Every
  quantity on them is keyed by the ordered pair ``(i, j)``, ``(i, i)``
  included: dual mass fluxes ``MassFluxSet.dual_phi[(i, j)]`` (stored like
  the primal ones, directed along +e_j), viscous fluxes, gradients
  ``d_j u_i``, and the face geometry ``MacMesh.dual_face_distances`` (d) and
  ``MacMesh.dual_face_measures`` (|sigma~|).  Diffusion, convection and the
  dual mass balance are all one sum of such fluxes over each control volume,
  ``_dual_divergence``.

Every operator exists both matrix-free (``*_apply`` / plain functions) and as
an assembled sparse matrix over the interior-face unknowns; equality of the
two paths is part of the acceptance suite.

All axis stencils are built from three index helpers: ``mesh._slab`` (the
index of ``start:stop`` along one axis), ``fields._neighbours`` (the pair
``[..., :-1]``, ``[..., 1:]`` along an axis, optionally padded by a zero
ghost value or, for id arrays, by -1) and ``fields._face_from_cells`` (a
face array whose boundary faces copy their adjacent cell).  Both sides of
an oracle pair (a matrix-free operator and its assembled matrix, and each
identity checked by ``verification``: ``norm_h1`` vs ``gradient_inner``,
``trilinear_form`` vs ``trilinear_form_reconstructed``, the convection
duality) may share these index helpers and the mesh's geometry accessors,
but never a kernel: neither side is computed through the other, and
``_dual_divergence`` serves the matrix-free side only.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fields import (CellScalarField, DualGridField, VelocityField,
                     _face_from_cells, _neighbours, reconstruct_cell_to_face,
                     velocity_inner)
from .mesh import MacMesh, _axis_view, _slab

__all__ = [
    "OperatorError",
    "ViscosityError",
    "MassFluxSet",
    "ViscosityTensorField",
    "FaceDofMap",
    "divergence",
    "mass_divergence",
    "pressure_gradient",
    "velocity_gradient",
    "strain_tensor",
    "viscosity_tensor",
    "diffusion_apply",
    "strain_product",
    "gradient_inner",
    "gradient_transpose_inner",
    "primal_fluxes",
    "dual_fluxes",
    "dual_cell_density",
    "convection_apply",
    "trilinear_form",
    "trilinear_form_reconstructed",
    "divergence_matrix",
    "divergence_constraint_matrix",
    "pressure_gradient_matrix",
    "diffusion_matrix",
    "convection_matrix",
    "transport_matrix",
    "dump_matrix_coo",
]


class OperatorError(ValueError):
    """Operator applied to inconsistent data."""


class ViscosityError(ValueError):
    """Viscosity law produced non-positive or non-finite values."""


# -- gradient kernels (array level) ----------------------------------------------

def _grad(mesh, us, i, j):
    """d(u_i)/dx_j on the (i, j) dual-dual grid: on primal cells when
    ``j == i``, with a zero ghost beyond the boundary (homogeneous
    Dirichlet) otherwise."""
    lo, hi = _neighbours(us, j, None if i == j else 0.0)
    return (hi - lo) / mesh.dual_face_distances(i, j)


def velocity_gradient(mesh: MacMesh, u_i, i):
    """All d partial derivatives of one velocity component, each piecewise
    constant on the matching (i, j) dual-dual grid."""
    us = np.asarray(u_i, dtype=float).reshape(mesh.faces_shape(i))
    return [DualGridField(mesh, i, j, _grad(mesh, us, i, j).ravel())
            for j in range(mesh.dim)]


def strain_tensor(u: VelocityField):
    """Symmetrised gradient; entries (i, j) and (j, i) share one array on the
    shared dual-dual grid."""
    mesh = u.mesh
    out = {}
    for i in range(mesh.dim):
        out[(i, i)] = DualGridField(mesh, i, i, _grad(mesh, u.shaped(i), i, i).ravel())
    for i in range(mesh.dim):
        for j in range(i + 1, mesh.dim):
            sym = 0.5 * (_grad(mesh, u.shaped(i), i, j)
                         + _grad(mesh, u.shaped(j), j, i))
            fld = DualGridField(mesh, i, j, sym.ravel())
            out[(i, j)] = fld
            out[(j, i)] = fld
    return out


# -- divergence and pressure gradient ---------------------------------------------

def divergence(u: VelocityField) -> CellScalarField:
    """(div u)_K = (1/|K|) sum over the faces of K of |sigma| u_{K,sigma}."""
    mesh = u.mesh
    acc = np.zeros(mesh.cells_shape)
    for i in range(mesh.dim):
        acc += _grad(mesh, u.shaped(i), i, i)
    return CellScalarField(mesh, acc.ravel())


def pressure_gradient(p: CellScalarField) -> VelocityField:
    """(grad p)_sigma = (|sigma| / |D_sigma|)(p_L - p_K) on interior faces,
    zero on exterior faces."""
    mesh = p.mesh
    ps = p.shaped
    comps = []
    for i in range(mesh.dim):
        out = np.zeros(mesh.faces_shape(i))
        dw = _axis_view(mesh.dual_widths[i][1:-1], i, mesh.dim)
        out[_slab(mesh.dim, i, 1, -1)] = np.diff(ps, axis=i) / dw
        comps.append(out.ravel())
    return VelocityField(mesh, comps)


# -- viscosity --------------------------------------------------------------------

class ViscosityTensorField:
    """mu on primal cells plus one value per dual-dual cell of every pair,
    symmetric under pair transposition by construction."""

    def __init__(self, mesh, mu_cells, mu_transverse):
        self.mesh = mesh
        self.mu_cells = mu_cells            # shaped array
        self._transverse = mu_transverse    # {(i, j) with i < j: shaped array}

    def pair(self, i, j):
        """mu on the (i, j) dual-dual grid."""
        if i == j:
            return self.mu_cells
        return self._transverse[(min(i, j), max(i, j))]


def viscosity_tensor(rho: CellScalarField, mu_law) -> ViscosityTensorField:
    """Cellwise viscosity mu_K = mu(rho_K) and the measure-weighted averages
    over the cells meeting each transverse dual-dual cell (the two-cell
    boundary rule is the degenerate case of the four-cell interior one)."""
    mesh = rho.mesh
    mu_cells = np.asarray(mu_law(rho.values), dtype=float)
    if mu_cells.shape != rho.values.shape:
        mu_cells = np.broadcast_to(mu_cells, rho.values.shape).copy()
    if not np.all(np.isfinite(mu_cells)) or np.any(mu_cells <= 0.0):
        raise ViscosityError("viscosity law produced non-positive or non-finite values")
    mu_cells = mu_cells.reshape(mesh.cells_shape)
    weighted = mesh.cell_volumes * mu_cells
    transverse = {}
    for i in range(mesh.dim):
        for j in range(i + 1, mesh.dim):
            num = _corner_sum(weighted, i, j)
            den = _corner_sum(mesh.cell_volumes, i, j)
            transverse[(i, j)] = num / den
    return ViscosityTensorField(mesh, mu_cells, transverse)


def _corner_sum(arr, i, j):
    """Sum of the up-to-four entries adjacent to each (axis-i, axis-j) corner."""
    lo, hi = _neighbours(arr, i, 0.0)
    lo, hi = _neighbours(lo + hi, j, 0.0)
    return lo + hi


# -- sum of dual fluxes over a velocity control volume ----------------------------

def _dual_divergence(mesh, i, flux_of_j):
    """(1/|D_sigma|) sum of the dual fluxes outward each direction-i control
    volume, zero on exterior faces.  ``flux_of_j(j)`` is the +e_j-directed
    flux on the (i, j) grid; for ``j == i`` it lives on the primal cells and
    its differences fill the interior faces only."""
    acc = np.zeros(mesh.faces_shape(i))
    for j in range(mesh.dim):
        flux = flux_of_j(j)
        if j == i:
            acc[_slab(mesh.dim, i, 1, -1)] += np.diff(flux, axis=i)
        else:
            acc += np.diff(flux, axis=j)
    acc /= mesh.dual_volumes(i)
    acc[~mesh.interior_mask(i)] = 0.0
    return acc


# -- diffusion --------------------------------------------------------------------

def _viscous_flux(mesh, mu_t, u, i, j):
    """+e_j-directed viscous flux |sigma~| (mu/2)(d_j u_i + d_i u_j) on the
    (i, j) grid; on primal cells (``j == i``) both derivatives are d_i u_i."""
    grad = _grad(mesh, u.shaped(i), i, j)
    if j != i:
        grad = 0.5 * (grad + _grad(mesh, u.shaped(j), j, i))
    return mesh.dual_face_measures(i, j) * mu_t.pair(i, j) * grad


def diffusion_apply(mu_t: ViscosityTensorField, u: VelocityField) -> VelocityField:
    """div_E(mu D(u)): per interior face, the dual-face viscous fluxes summed
    with outward signs and divided by |D_sigma|."""
    mesh = u.mesh
    return VelocityField(mesh, [
        _dual_divergence(mesh, i, lambda j: _viscous_flux(mesh, mu_t, u, i, j)).ravel()
        for i in range(mesh.dim)])


def strain_product(mu_t: ViscosityTensorField, u: VelocityField,
                   v: VelocityField | None = None) -> float:
    """Integral of mu D(u) : D(v) over the domain (v defaults to u)."""
    v = u if v is None else v
    mesh = u.mesh
    du, dv = strain_tensor(u), strain_tensor(v)
    total = 0.0
    for i in range(mesh.dim):
        for j in range(mesh.dim):
            vols = mesh.pair_volumes(i, j)
            mu = mu_t.pair(i, j)
            total += float(np.sum(vols * mu * du[(i, j)].shaped * dv[(i, j)].shaped))
    return total


def gradient_inner(u: VelocityField, v: VelocityField) -> float:
    """Integral of grad u : grad v (equals the discrete H1 inner product)."""
    mesh = u.mesh
    total = 0.0
    for i in range(mesh.dim):
        us, vs = u.shaped(i), v.shaped(i)
        for j in range(mesh.dim):
            total += float(np.sum(mesh.pair_volumes(i, j)
                                  * _grad(mesh, us, i, j) * _grad(mesh, vs, i, j)))
    return total


def gradient_transpose_inner(u: VelocityField, v: VelocityField) -> float:
    """Integral of grad u : (grad v)^T, pairing d_j u_i with d_i v_j on the
    shared dual-dual cells."""
    mesh = u.mesh
    total = 0.0
    for i in range(mesh.dim):
        us = u.shaped(i)
        for j in range(mesh.dim):
            gij = _grad(mesh, us, i, j)
            gji = _grad(mesh, v.shaped(j), j, i)
            total += float(np.sum(mesh.pair_volumes(i, j) * gij * gji))
    return total


# -- mass fluxes ------------------------------------------------------------------

class MassFluxSet:
    """Primal and dual mass fluxes of a (density, velocity) pair.

    ``phi[i]``: +e_i-directed flux per direction-i face.
    ``rho_face[i]``: upwind face densities.
    ``dual_phi[(i, j)]``: +e_j-directed dual flux through the faces of the
    direction-i control volumes, on the (i, j) grid (the primal cells for
    ``j == i``).
    ``rho_tilde[(i, j)]`` / ``u_hat[(i, j)]``: the convex pair with
    ``dual_phi = |sigma~| rho_tilde u_hat`` on the same grids, computed from
    ``rho_face`` and ``u`` on first access: the solver never reads it.
    """

    def __init__(self, mesh, rho, u):
        self.mesh = mesh
        self.rho = rho
        self.u = u
        self.phi = []
        self.rho_face = []
        self.dual_phi = {}

    @cached_property
    def _pair(self):
        return _convex_pair(self)

    @property
    def rho_tilde(self):
        return self._pair[0]

    @property
    def u_hat(self):
        return self._pair[1]


def primal_fluxes(rho: CellScalarField, u: VelocityField) -> MassFluxSet:
    """Upwind face densities and primal mass fluxes; the donor at zero
    velocity is the cell behind, matching the non-strict upwind inequality."""
    mesh = rho.mesh
    fluxes = MassFluxSet(mesh, rho, u)
    rs = rho.shaped
    for i in range(mesh.dim):
        us = u.shaped(i)
        behind, ahead = _neighbours(rs, i)
        u_in = us[_slab(mesh.dim, i, 1, -1)]
        rho_f = _face_from_cells(rs, i, np.where(u_in >= 0.0, behind, ahead))
        fluxes.rho_face.append(rho_f)
        fluxes.phi.append(mesh.face_measures(i) * rho_f * us)
    return fluxes


def dual_fluxes(fluxes: MassFluxSet) -> MassFluxSet:
    """Fill the dual fluxes from the primal fluxes; antisymmetry across
    every interior dual face is structural."""
    mesh = fluxes.mesh
    for i in range(mesh.dim):
        phi_lo, phi_hi = _neighbours(fluxes.phi[i], i)
        fluxes.dual_phi[(i, i)] = 0.5 * (phi_lo + phi_hi)
        for j in range(mesh.dim):
            if j == i:
                continue
            phi_lo, phi_hi = _neighbours(fluxes.phi[j], i, 0.0)
            fluxes.dual_phi[(i, j)] = 0.5 * (phi_lo + phi_hi)
    return fluxes


def _convex_pair(fluxes: MassFluxSet):
    """The (rho_tilde, u_hat) dicts of ``fluxes`` (see :class:`MassFluxSet`),
    from its upwind face densities and velocity."""
    mesh = fluxes.mesh
    rho_tilde, u_hat = {}, {}
    for i in range(mesh.dim):
        r_lo, r_hi = _neighbours(fluxes.rho_face[i], i)
        u_lo, u_hi = _neighbours(fluxes.u.shaped(i), i)
        rsum = r_lo + r_hi
        rho_tilde[(i, i)] = 0.5 * rsum
        mom = r_lo * u_lo + r_hi * u_hi
        with np.errstate(invalid="ignore", divide="ignore"):
            u_hat[(i, i)] = np.where(rsum != 0.0, mom / rsum, 0.0)
        for j in range(mesh.dim):
            if j == i:
                continue
            # measure-weighted density / flux-weighted velocity across axis i
            wlo, whi = (_axis_view(w, i, mesh.dim)
                        for w in _neighbours(mesh.widths[i], 0, 0.0))
            r_lo, r_hi = _neighbours(fluxes.rho_face[j], i, 0.0)
            u_lo, u_hi = _neighbours(fluxes.u.shaped(j), i, 0.0)
            num_r = wlo * r_lo + whi * r_hi
            rho_tilde[(i, j)] = num_r / (wlo + whi)
            num_u = wlo * r_lo * u_lo + whi * r_hi * u_hi
            with np.errstate(invalid="ignore", divide="ignore"):
                u_hat[(i, j)] = np.where(num_r != 0.0, num_u / num_r, 0.0)
    return rho_tilde, u_hat


def mass_fluxes(rho: CellScalarField, u: VelocityField) -> MassFluxSet:
    return dual_fluxes(primal_fluxes(rho, u))


def mass_divergence(fluxes: MassFluxSet) -> CellScalarField:
    """(1/|K|) sum of the primal fluxes outward each cell."""
    mesh = fluxes.mesh
    acc = np.zeros(mesh.cells_shape)
    for i in range(mesh.dim):
        acc += np.diff(fluxes.phi[i], axis=i)
    return CellScalarField(mesh, (acc / mesh.cell_volumes).ravel())


def dual_flux_divergence(fluxes: MassFluxSet, i):
    """(1/|D_sigma|) sum of the dual fluxes outward each direction-i control
    volume (zero entries on exterior faces)."""
    return _dual_divergence(fluxes.mesh, i, lambda j: fluxes.dual_phi[(i, j)])


def dual_cell_density(rho: CellScalarField):
    """rho_{D_sigma}: half-cell weighted average on interior faces, adjacent
    cell value on exterior faces.  One array per direction."""
    mesh = rho.mesh
    return [reconstruct_cell_to_face(rho, i).reshape(mesh.faces_shape(i))
            for i in range(mesh.dim)]


# -- convection -------------------------------------------------------------------

def _advected_values(mesh, vs, i, j, dual_phi, scheme):
    """Single-valued advected quantity on each dual face of the (i, j) grid:
    centered mean of the two straddling faces, or the donor by flux sign
    (lower face on ties)."""
    vlo, vhi = _neighbours(vs, j, None if i == j else 0.0)
    if scheme == "centered":
        return 0.5 * (vlo + vhi)
    if scheme == "upwind":
        return np.where(dual_phi >= 0.0, vlo, vhi)
    raise OperatorError(f"unknown advection scheme {scheme!r}")


def convection_apply(fluxes: MassFluxSet, v: VelocityField,
                     scheme="centered") -> VelocityField:
    """(C v)_sigma = (1/|D_sigma|) sum of dual fluxes times the advected
    value, outward signs; exterior dual fluxes vanish with the homogeneous
    boundary velocity."""
    mesh = fluxes.mesh

    def flux(i, j):
        dual_phi = fluxes.dual_phi[(i, j)]
        return dual_phi * _advected_values(mesh, v.shaped(i), i, j, dual_phi, scheme)

    return VelocityField(mesh, [
        _dual_divergence(mesh, i, lambda j: flux(i, j)).ravel()
        for i in range(mesh.dim)])


def trilinear_form(fluxes: MassFluxSet, v: VelocityField, w: VelocityField,
                   scheme="centered") -> float:
    """b(rho u, v, w) evaluated through the convection operator."""
    return velocity_inner(convection_apply(fluxes, v, scheme), w)


def trilinear_form_reconstructed(fluxes: MassFluxSet, v: VelocityField,
                                 w: VelocityField, scheme="centered") -> float:
    """b(rho u, v, w) through the dual-grid reconstruction: minus the sum over
    all dual-dual cells of |D| (rho u)~ v~ d_j w_i."""
    mesh = fluxes.mesh
    total = 0.0
    for i in range(mesh.dim):
        vs, ws = v.shaped(i), w.shaped(i)
        for j in range(mesh.dim):
            dual_phi = fluxes.dual_phi[(i, j)]
            rho_u = dual_phi / mesh.dual_face_measures(i, j)
            val = _advected_values(mesh, vs, i, j, dual_phi, scheme)
            grad_w = _grad(mesh, ws, i, j)
            total -= float(np.sum(mesh.pair_volumes(i, j) * rho_u * val * grad_w))
    return total


# -- interior-face unknown numbering ----------------------------------------------

class FaceDofMap:
    """Numbering of the interior faces of every direction as one unknown
    vector (direction blocks in order)."""

    def __init__(self, mesh: MacMesh):
        self.mesh = mesh
        self.dof = []
        self.interior = []
        self.offsets = []
        offset = 0
        for i in range(mesh.dim):
            mask = mesh.interior_mask(i).ravel()
            ids = np.flatnonzero(mask)
            dof = np.full(mesh.n_faces(i), -1, dtype=np.int64)
            dof[ids] = offset + np.arange(ids.size)
            self.dof.append(dof)
            self.interior.append(ids)
            self.offsets.append(offset)
            offset += ids.size
        self.n_dofs = offset

    def pack(self, components) -> np.ndarray:
        vec = np.empty(self.n_dofs)
        for i, comp in enumerate(components):
            vec[self.offsets[i]:self.offsets[i] + self.interior[i].size] = \
                np.asarray(comp).ravel()[self.interior[i]]
        return vec

    def unpack(self, vec):
        comps = []
        for i in range(self.mesh.dim):
            arr = np.zeros(self.mesh.n_faces(i))
            arr[self.interior[i]] = vec[self.offsets[i]:self.offsets[i]
                                        + self.interior[i].size]
            comps.append(arr)
        return comps


def _cell_ids(mesh):
    return np.arange(mesh.n_cells).reshape(mesh.cells_shape)


class _Pattern:
    """CSR sparsity of an assembly and the slot of each of its triples in
    the CSR ``data``, computed by the first build and reused by every later
    build that adds the same (rows, cols) in the same order: a mesh-constant
    stencil with new values.  Triples with a ghost index (-1) share one
    extra slot, which is dropped.  Index arrays are int32, and every matrix
    built through the pattern shares them: none may change them in place."""

    def __init__(self):
        self.slot = None

    def fill(self, key_blocks, shape):
        """``key_blocks`` hold ``row * n_cols + col`` per triple, ``n_rows *
        n_cols`` for a ghost, which sorts last."""
        keys = np.concatenate(key_blocks)
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        uniq = keys[first]
        del keys, first
        # block by block, so that no int64 copy of every slot is made
        self.slot = np.concatenate([np.searchsorted(uniq, k).astype(np.int32)
                                    for k in key_blocks])
        uniq = uniq[uniq < shape[0] * shape[1]]
        self.indices = (uniq % shape[1]).astype(np.int32)
        self.indptr = np.searchsorted(
            uniq, np.arange(shape[0] + 1) * shape[1]).astype(np.int32)
        self.shape = shape


class _Coo:
    """Triples of one ``shape`` assembly, summed into a CSR matrix through
    ``pattern``.  A new pattern is filled by ``build``, from the triples
    kept until then; with a filled one each ``add`` sums its values into
    the CSR ``data`` at once and nothing else is kept."""

    def __init__(self, shape, pattern: _Pattern | None = None):
        self.shape = shape
        self.pattern = _Pattern() if pattern is None else pattern
        self.count = 0
        if self.pattern.slot is None:
            self.keys, self.vals = [], []
        else:
            self._check(self.pattern.shape == shape)
            self.data = np.zeros(self.pattern.indices.size + 1)

    @staticmethod
    def _check(matches):
        if not matches:
            raise OperatorError("assembly does not match its stored pattern")

    def add(self, rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        if self.pattern.slot is None:
            n_rows, n_cols = self.shape
            self.keys.append(np.where((rows >= 0) & (cols >= 0),
                                      rows * n_cols + cols,
                                      n_rows * n_cols).ravel())
            self.vals.append(vals)
        else:
            self._sum(vals)

    def _sum(self, vals):
        start, self.count = self.count, self.count + vals.size
        self._check(self.count <= self.pattern.slot.size)
        np.add.at(self.data, self.pattern.slot[start:self.count],
                  vals.ravel())

    def build(self):
        if self.pattern.slot is None:
            self.pattern.fill(self.keys, self.shape)
            blocks, self.keys, self.vals = self.vals, None, None
            self.data = np.zeros(self.pattern.indices.size + 1)
            for vals in blocks:
                self._sum(vals)
        self._check(self.count == self.pattern.slot.size)
        return sp.csr_matrix((self.data[:-1], self.pattern.indices,
                              self.pattern.indptr), shape=self.shape)


# -- assembled matrices ------------------------------------------------------------

def divergence_matrix(mesh: MacMesh, dofs: FaceDofMap | None = None):
    """Sparse matrix mapping the interior-face vector to (div u)_K."""
    dofs = dofs or FaceDofMap(mesh)
    coo = _Coo((mesh.n_cells, dofs.n_dofs))
    cells = _cell_ids(mesh)
    for i in range(mesh.dim):
        f_lo, f_hi = _neighbours(dofs.dof[i].reshape(mesh.faces_shape(i)), i)
        inv_w = 1.0 / _axis_view(mesh.widths[i], i, mesh.dim)
        coo.add(cells, f_lo, -inv_w * np.ones(mesh.cells_shape))
        coo.add(cells, f_hi, +inv_w * np.ones(mesh.cells_shape))
    return coo.build()


def divergence_constraint_matrix(mesh: MacMesh, dofs: FaceDofMap | None = None):
    """Rows sum |sigma| u_{K,sigma} (not divided by |K|), as the saddle
    constraint block."""
    dofs = dofs or FaceDofMap(mesh)
    div = divergence_matrix(mesh, dofs)
    return sp.diags(mesh.cell_volumes.ravel()) @ div


def pressure_gradient_matrix(mesh: MacMesh, dofs: FaceDofMap | None = None):
    """Sparse matrix mapping cell values to the face gradient on interior
    faces."""
    dofs = dofs or FaceDofMap(mesh)
    coo = _Coo((dofs.n_dofs, mesh.n_cells))
    cells = _cell_ids(mesh)
    for i in range(mesh.dim):
        rows = dofs.dof[i].reshape(mesh.faces_shape(i))[_slab(mesh.dim, i, 1, -1)]
        behind, ahead = _neighbours(cells, i)
        inv_dw = 1.0 / _axis_view(mesh.dual_widths[i][1:-1], i, mesh.dim)
        ones = np.ones_like(rows, dtype=float)
        coo.add(rows, behind, -inv_dw * ones)
        coo.add(rows, ahead, +inv_dw * ones)
    return coo.build()


def diffusion_matrix(mesh: MacMesh, mu_t: ViscosityTensorField,
                     dofs: FaceDofMap | None = None):
    """Matrix of u -> div_E(mu D(u)) on interior faces."""
    dofs = dofs or FaceDofMap(mesh)
    coo = _Coo((dofs.n_dofs, dofs.n_dofs))
    _add_diffusion(coo, mesh, mu_t, dofs, 1.0)
    return coo.build()


def _add_diffusion(coo, mesh, mu_t, dofs, sign):
    """Triples of ``sign`` times the matrix of :func:`diffusion_matrix`."""
    for i in range(mesh.dim):
        dof_i = dofs.dof[i].reshape(mesh.faces_shape(i))
        inv_vol = sign / mesh.dual_volumes(i)
        for j in range(mesh.dim):
            # flux = |sigma~| mu (d_j u_i + d_i u_j) / 2 through each (i, j)
            # dual face, +flux to the row below it, -flux to the row above;
            # on primal cells (j == i) both derivatives are d_i u_i
            coef = mesh.dual_face_measures(i, j) * mu_t.pair(i, j)
            # ids of u_i below/above the dual face (ghost -> -1): the rows,
            # and the columns of d_j u_i
            ui_lo, ui_hi = _neighbours(dof_i, j, None if j == i else -1)
            ivol_lo, ivol_hi = _neighbours(inv_vol, j, None if j == i else 0.0)
            derivatives = [(ui_lo, ui_hi, mesh.dual_face_distances(i, j))]
            if j != i:
                coef = 0.5 * coef
                # column ids of u_j behind/ahead across axis i
                dof_j = dofs.dof[j].reshape(mesh.faces_shape(j))
                derivatives.append((*_neighbours(dof_j, i, -1),
                                    mesh.dual_face_distances(j, i)))
            for rows, ivol in ((ui_lo, ivol_lo), (ui_hi, -ivol_hi)):
                for col_lo, col_hi, dist in derivatives:
                    coo.add(rows, col_hi, ivol * coef / dist)
                    coo.add(rows, col_lo, -ivol * coef / dist)


def convection_matrix(fluxes: MassFluxSet, scheme="centered",
                      dofs: FaceDofMap | None = None):
    """Matrix of v -> C(rho u) v for frozen fluxes."""
    dofs = dofs or FaceDofMap(fluxes.mesh)
    coo = _Coo((dofs.n_dofs, dofs.n_dofs))
    _add_convection(coo, fluxes, scheme, dofs)
    return coo.build()


def _add_convection(coo, fluxes, scheme, dofs):
    """Triples of the matrix of :func:`convection_matrix`."""
    mesh = fluxes.mesh
    for i in range(mesh.dim):
        dof_i = dofs.dof[i].reshape(mesh.faces_shape(i))
        inv_vol = 1.0 / mesh.dual_volumes(i)
        for j in range(mesh.dim):
            dual_phi = fluxes.dual_phi[(i, j)]
            # the faces below/above each dual face are both rows and columns;
            # across axis j != i the ghost beyond the boundary has no id
            ui_lo, ui_hi = _neighbours(dof_i, j, None if j == i else -1)
            ivol_lo, ivol_hi = _neighbours(inv_vol, j, None if j == i else 0.0)
            w_lo, w_hi = _advection_weights(dual_phi, scheme)
            for rows, sgn, ivol in ((ui_lo, 1.0, ivol_lo), (ui_hi, -1.0, ivol_hi)):
                coo.add(rows, ui_lo, sgn * ivol * dual_phi * w_lo)
                coo.add(rows, ui_hi, sgn * ivol * dual_phi * w_hi)


def _momentum_matrix(mass, fluxes: MassFluxSet, mu_t: ViscosityTensorField,
                     scheme, dofs: FaceDofMap,
                     pattern: _Pattern | None = None):
    """Matrix of v -> diag(mass) v + C(rho u) v - div_E(mu D(v)), the
    linearized momentum operator, in one assembly through ``pattern``."""
    mesh = fluxes.mesh
    coo = _Coo((dofs.n_dofs, dofs.n_dofs), pattern)
    ids = np.arange(dofs.n_dofs)
    coo.add(ids, ids, mass)
    _add_convection(coo, fluxes, scheme, dofs)
    _add_diffusion(coo, mesh, mu_t, dofs, -1.0)
    return coo.build()


def _advection_weights(dual_phi, scheme):
    if scheme == "centered":
        half = np.full_like(dual_phi, 0.5)
        return half, half
    if scheme == "upwind":
        take_lo = dual_phi >= 0.0
        return take_lo.astype(float), (~take_lo).astype(float)
    raise OperatorError(f"unknown advection scheme {scheme!r}")


def transport_matrix(mesh: MacMesh, u: VelocityField, diagonal=0.0,
                     pattern: _Pattern | None = None):
    """Matrix of rho -> diagonal rho + (1/|K|) sum_sigma F_{K,sigma}(rho; u)
    with upwind face densities (linear in rho for frozen u), assembled
    through ``pattern``.  Its sparsity does not depend on u or on
    ``diagonal``, whose entries are always stored."""
    coo = _Coo((mesh.n_cells, mesh.n_cells), pattern)
    cells = _cell_ids(mesh)
    inv_vol = 1.0 / mesh.cell_volumes
    for i in range(mesh.dim):
        inner = _slab(mesh.dim, i, 1, -1)
        u_in = u.shaped(i)[inner]
        a_in = mesh.face_measures(i)[inner]
        up = a_in * np.maximum(u_in, 0.0)      # donor: cell behind
        dn = a_in * np.maximum(-u_in, 0.0)     # donor: cell ahead
        kb, ka = _neighbours(cells, i)
        vb, va = _neighbours(inv_vol, i)
        # flux in +e_i: phi = up * rho_b - dn * rho_a; +phi out of behind cell
        coo.add(kb, kb, vb * up)
        coo.add(kb, ka, -vb * dn)
        coo.add(ka, kb, -va * up)
        coo.add(ka, ka, va * dn)
    coo.add(cells, cells, diagonal)
    return coo.build()


def dump_matrix_coo(matrix, path):
    """Write a sparse matrix as text lines ``row col value``."""
    # imported here: output imports verification, which imports this module
    from .output import _write_rows
    coo = sp.coo_matrix(matrix)
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        _write_rows(fh, "%d %d %.17g\n", coo.row, coo.col, coo.data)
