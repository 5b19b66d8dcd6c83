"""Assembly of the discrete operator family on a masked grid.

Every operator is a SparseOperator between weighted DOF spaces of one
GridDomain.  Conventions:

  * gradients difference across faces, (u_b - u_a) / h, owner a below b;
  * Laplacians are the negative ones (positive semidefinite);
  * Dirichlet values enter through penalty rows of weight sqrt(2)/h on
    boundary faces, equivalently a 2/h^2 diagonal penalty on the owner
    cell, so the penalized operator is again a gradient normal product;
  * the interior Laplacian maps depth>=1 cells to the ambient space by
    applying the raw 5-point stencil to the zero extension.

With h = 1/n all stencil coefficients are exact small integers times n^2,
so several identities below hold to the last bit, not just to rounding.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDomainError, StencilReachError
from .grid import DIRICHLET, GridDomain
from .linalg import SparseOperator

# 13-point bilaplacian stencil, coefficients times h^-4
_BIHARMONIC_STENCIL = (
    ((0, 0), 20.0),
    ((1, 0), -8.0), ((-1, 0), -8.0), ((0, 1), -8.0), ((0, -1), -8.0),
    ((1, 1), 2.0), ((1, -1), 2.0), ((-1, 1), 2.0), ((-1, -1), 2.0),
    ((2, 0), 1.0), ((-2, 0), 1.0), ((0, 2), 1.0), ((0, -2), 1.0),
)


def assemble_gradient(domain: GridDomain, include_boundary: bool = False) -> SparseOperator:
    """Face-difference gradient.

    include_boundary=False: interior faces only; the adjoint is the
    zero-flux divergence, so adjoint(G) G is the Neumann Laplacian.
    include_boundary=True: appends one row per boundary face with entry
    -sqrt(2)/h on the owner cell, so adjoint(G) G is the Dirichlet
    Laplacian up to rounding in the penalty coefficient.
    """
    h = domain.h
    e = domain.face_cells.shape[0]
    rows, cols, vals = [], [], []
    for r in range(e):
        a, b = domain.face_cells[r]
        rows += [r, r]
        cols += [int(b), int(a)]
        vals += [1.0 / h, -1.0 / h]
    if include_boundary:
        coeff = -np.sqrt(2.0) / h
        for r, (k, _) in enumerate(domain.boundary_faces):
            rows.append(e + r)
            cols.append(k)
            vals.append(coeff)
        codomain = domain.all_face_space
    else:
        codomain = domain.edge_space
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(codomain.dim, domain.n_cells)
    )
    return SparseOperator(mat, domain.cell_space, codomain)


def assemble_laplacian(domain: GridDomain, kind: str) -> SparseOperator:
    """Cell-centered Laplacian: "neumann", "dirichlet", or "mixed".

    All three share the interior stencil; they differ only in the 2/h^2
    diagonal penalty (none, every boundary face, Dirichlet-labeled faces).
    The mixed kind with no Dirichlet-labeled face equals the Neumann one
    entrywise, and with all faces labeled Dirichlet equals the Dirichlet
    one entrywise.
    """
    grad = assemble_gradient(domain)
    base = (grad.adjoint() @ grad).matrix
    if kind == "neumann":
        counts = None
    elif kind == "dirichlet":
        counts = domain.count_boundary_faces()
    elif kind == "mixed":
        counts = domain.count_boundary_faces(DIRICHLET)
    else:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    if counts is not None and counts.any():
        base = base + sp.diags((2.0 / domain.h**2) * counts.astype(float))
    return SparseOperator(base.tocsr(), domain.cell_space, domain.cell_space)


def assemble_interior_laplacian(domain: GridDomain) -> SparseOperator:
    """Raw 5-point stencil of the zero extension: depth>=1 cells to all cells.

    Injective on connected masks; the weighted adjoint maps a cell field to
    its raw 5-point Laplacian sampled on the depth>=1 cells.
    """
    ring = domain.ring_cells(1)
    if ring.size == 0:
        raise EmptyDomainError("no cells of depth >= 1: interior stencil is empty")
    h2 = domain.h**2
    rows, cols, vals = [], [], []
    for col, k in enumerate(ring):
        rows.append(int(k))
        cols.append(col)
        vals.append(4.0 / h2)
        for nb in domain.neighbors[k]:
            if nb < 0:
                raise StencilReachError(
                    "depth >= 1 cell is missing a neighbor; inconsistent mask"
                )
            rows.append(int(nb))
            cols.append(col)
            vals.append(-1.0 / h2)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(domain.n_cells, ring.size))
    return SparseOperator(mat, domain.ring_space(1), domain.cell_space)


def assemble_interior_biharmonic(domain: GridDomain) -> SparseOperator:
    """13-point bilaplacian of the zero extension: depth>=2 cells to all cells.

    Equals the square of the 5-point stencil applied to the zero extension,
    exactly, because the extension's Laplacian already vanishes outside the
    mask for depth>=2 supports.
    """
    ring = domain.ring_cells(2)
    if ring.size == 0:
        raise EmptyDomainError("no cells of depth >= 2: biharmonic stencil is empty")
    h4 = domain.h**4
    rows, cols, vals = [], [], []
    for col, k in enumerate(ring):
        i, j = map(int, domain.cells[k])
        for (di, dj), c in _BIHARMONIC_STENCIL:
            if not domain.contains(i + di, j + dj):
                raise StencilReachError(
                    f"cell ({i}, {j}) at depth >= 2 cannot reach offset ({di}, {dj})"
                )
            rows.append(domain.index_of(i + di, j + dj))
            cols.append(col)
            vals.append(c / h4)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(domain.n_cells, ring.size))
    return SparseOperator(mat, domain.ring_space(2), domain.cell_space)


def assemble_overdetermined(domain: GridDomain, order: str) -> SparseOperator:
    if order == "laplacian":
        return assemble_interior_laplacian(domain)
    if order == "biharmonic":
        return assemble_interior_biharmonic(domain)
    raise ValueError(f"order must be 'laplacian' or 'biharmonic', got {order!r}")


def assemble_pad(domain: GridDomain, k: int) -> SparseOperator:
    """Zero extension of depth>=k cells into the ambient cell space."""
    ring = domain.ring_cells(k)
    mat = sp.csr_matrix(
        (np.ones(ring.size), (ring, np.arange(ring.size))),
        shape=(domain.n_cells, ring.size),
    )
    return SparseOperator(mat, domain.ring_space(k), domain.cell_space)


def assemble_curl_pair(domain: GridDomain):
    """Vertex-centered curl on interior faces and its adjoint.

    Rows live on lattice vertices all of whose four incident cells exist.
    Composed with the gradient the curl vanishes identically: the two
    1/h^2 contributions a cell sends around each vertex cancel exactly.
    """
    verts = domain.interior_vertices
    h = domain.h
    # face row lookup by (owner index, axis)
    face_row = {
        (int(domain.face_cells[r, 0]), int(domain.face_axes[r])): r
        for r in range(domain.face_cells.shape[0])
    }
    rows, cols, vals = [], [], []
    for r, (vi, vj) in enumerate(verts):
        sw = domain.index_of(vi - 1, vj - 1)
        se = domain.index_of(vi, vj - 1)
        nw = domain.index_of(vi - 1, vj)
        entries = (
            (face_row[(sw, 0)], 1.0 / h),   # bottom x-face
            (face_row[(nw, 0)], -1.0 / h),  # top x-face
            (face_row[(sw, 1)], -1.0 / h),  # left y-face
            (face_row[(se, 1)], 1.0 / h),   # right y-face
        )
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(verts.shape[0], domain.face_cells.shape[0])
    )
    curl = SparseOperator(mat, domain.edge_space, domain.vertex_space)
    return curl, curl.adjoint()


def _three_point_second(domain, i, j, axis):
    """Offsets/coefficients of a 3-point second difference along an axis."""
    def has(t):
        return domain.contains(i + t, j) if axis == 0 else domain.contains(i, j + t)

    for shifts in ((-1, 0, 1), (0, 1, 2), (-2, -1, 0)):
        if all(has(t) for t in shifts):
            return tuple(zip(shifts, (1.0, -2.0, 1.0)))
    raise StencilReachError(
        f"cell ({i}, {j}) has no 3-cell run along axis {axis}"
    )


def _three_point_first(domain, i, j, axis):
    """Offsets/coefficients (times 1/h) of a 3-point first difference."""
    def has(t):
        return domain.contains(i + t, j) if axis == 0 else domain.contains(i, j + t)

    if has(-1) and has(1):
        return ((-1, -0.5), (1, 0.5))
    if has(1) and has(2):
        return ((0, -1.5), (1, 2.0), (2, -0.5))
    if has(-1) and has(-2):
        return ((-2, 0.5), (-1, -2.0), (0, 1.5))
    raise StencilReachError(
        f"cell ({i}, {j}) has no 3-cell run along axis {axis}"
    )


def assemble_hessian(domain: GridDomain, zero_extension: bool = False) -> SparseOperator:
    """Componentwise Hessian: rows (xx, xy, yy) per cell, exact on quadratics.

    Stencils fall back from centered to one-sided near the boundary; the
    mixed derivative composes a 3-point x-difference with per-column
    3-point y-differences, which stays exact on quadratics.  Requires
    every maximal straight run of cells to hold at least 3 cells.

    With ``zero_extension`` the stencils stay centered everywhere and
    out-of-mask neighbours read as zero.  That variant is only meaningful
    on fields vanishing near the boundary (its kernel is trivial, not the
    affine functions), which is exactly the padded-subspace use.
    """
    h2 = domain.h**2
    rows, cols, vals = [], [], []
    if zero_extension:
        for k in range(domain.n_cells):
            i, j = map(int, domain.cells[k])
            for t, c in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                if domain.contains(i + t, j):
                    rows.append(3 * k)
                    cols.append(domain.index_of(i + t, j))
                    vals.append(c / h2)
            for si in (-1, 1):
                for sj in (-1, 1):
                    if domain.contains(i + si, j + sj):
                        rows.append(3 * k + 1)
                        cols.append(domain.index_of(i + si, j + sj))
                        vals.append(si * sj / (4.0 * h2))
            for t, c in ((-1, 1.0), (0, -2.0), (1, 1.0)):
                if domain.contains(i, j + t):
                    rows.append(3 * k + 2)
                    cols.append(domain.index_of(i, j + t))
                    vals.append(c / h2)
        mat = sp.csr_matrix(
            (vals, (rows, cols)), shape=(3 * domain.n_cells, domain.n_cells)
        )
        return SparseOperator(mat, domain.cell_space, domain.hessian_space)
    for k in range(domain.n_cells):
        i, j = map(int, domain.cells[k])
        for t, c in _three_point_second(domain, i, j, 0):
            rows.append(3 * k)
            cols.append(domain.index_of(i + t, j))
            vals.append(c / h2)
        for ti, ci in _three_point_first(domain, i, j, 0):
            for tj, cj in _three_point_first(domain, i + ti, j, 1):
                rows.append(3 * k + 1)
                cols.append(domain.index_of(i + ti, j + tj))
                vals.append(ci * cj / h2)
        for t, c in _three_point_second(domain, i, j, 1):
            rows.append(3 * k + 2)
            cols.append(domain.index_of(i, j + t))
            vals.append(c / h2)
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(3 * domain.n_cells, domain.n_cells)
    )
    mat.sum_duplicates()
    return SparseOperator(mat, domain.cell_space, domain.hessian_space)


class OperatorCatalog:
    """Caching facade over the assembly routines for one domain."""

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def gradient(self) -> SparseOperator:
        return self._get("gradient", lambda: assemble_gradient(self.domain))

    @property
    def gradient_dirichlet(self) -> SparseOperator:
        return self._get(
            "gradient_dirichlet", lambda: assemble_gradient(self.domain, True)
        )

    @property
    def laplacian_neumann(self) -> SparseOperator:
        return self._get(
            "laplacian_neumann", lambda: assemble_laplacian(self.domain, "neumann")
        )

    @property
    def laplacian_dirichlet(self) -> SparseOperator:
        return self._get(
            "laplacian_dirichlet", lambda: assemble_laplacian(self.domain, "dirichlet")
        )

    @property
    def laplacian_mixed(self) -> SparseOperator:
        return self._get(
            "laplacian_mixed", lambda: assemble_laplacian(self.domain, "mixed")
        )

    @property
    def interior_laplacian(self) -> SparseOperator:
        return self._get(
            "interior_laplacian", lambda: assemble_interior_laplacian(self.domain)
        )

    @property
    def interior_biharmonic(self) -> SparseOperator:
        return self._get(
            "interior_biharmonic", lambda: assemble_interior_biharmonic(self.domain)
        )

    @property
    def free_laplacian(self) -> SparseOperator:
        """Raw 5-point values on depth>=1 cells; adjoint of interior_laplacian."""
        return self.interior_laplacian.adjoint()

    @property
    def curl(self) -> SparseOperator:
        return self._get("curl", lambda: assemble_curl_pair(self.domain)[0])

    @property
    def hessian(self) -> SparseOperator:
        return self._get("hessian", lambda: assemble_hessian(self.domain))

    @property
    def hessian_zero_extension(self) -> SparseOperator:
        return self._get(
            "hessian_zero_extension",
            lambda: assemble_hessian(self.domain, zero_extension=True),
        )

    @property
    def pad1(self) -> SparseOperator:
        return self._get("pad1", lambda: assemble_pad(self.domain, 1))

    @property
    def pad2(self) -> SparseOperator:
        return self._get("pad2", lambda: assemble_pad(self.domain, 2))

    @property
    def interior_normal(self) -> SparseOperator:
        """adjoint(A) A on depth>=1 cells, the workhorse of clamped solves."""
        return self._get(
            "interior_normal",
            lambda: self.interior_laplacian.adjoint() @ self.interior_laplacian,
        )

    @property
    def hessian_dirichlet_normal(self) -> SparseOperator:
        """adjoint(Hp) Hp on depth>=1 cells, Hp the zero-extension Hessian
        of the padded field; built once, since Hp and its cached adjoint
        form a reference cycle."""
        def build():
            hp = self.hessian_zero_extension @ self.pad1
            return hp.adjoint() @ hp

        return self._get("hessian_dirichlet_normal", build)

    @property
    def biharmonic_normal(self) -> SparseOperator:
        return self._get(
            "biharmonic_normal",
            lambda: self.interior_biharmonic.adjoint() @ self.interior_biharmonic,
        )
