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
Every stencil is an offset/coefficient table read off the domain's index
image for all its cells at once (_triplets); the gradient writes its CSR
arrays straight from the faces, and free_stencil sums the interior
stencils' adjoints over the neighbor table without assembling them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDomainError, StencilReachError
from .grid import DIRICHLET, DofSpace, GridDomain
from .linalg import (
    SparseOperator,
    _piecewise_constants,
    identity_operator,
    normal_product,
    piecewise_affine,
)

# offset/coefficient tables; values are divided by h^2 (h^4 for the
# 13-point bilaplacian, h for first differences) at assembly
_LAPLACIAN_STENCIL = (
    ((0, 0), 4.0), ((1, 0), -1.0), ((-1, 0), -1.0), ((0, 1), -1.0), ((0, -1), -1.0),
)
_BIHARMONIC_STENCIL = (
    ((0, 0), 20.0),
    ((1, 0), -8.0), ((-1, 0), -8.0), ((0, 1), -8.0), ((0, -1), -8.0),
    ((1, 1), 2.0), ((1, -1), 2.0), ((-1, 1), 2.0), ((-1, -1), 2.0),
    ((2, 0), 1.0), ((-2, 0), 1.0), ((0, 2), 1.0), ((0, -2), 1.0),
)
# the interior stencils of reach k = 1, 2, with the power of h dividing each
_INTERIOR = ((_LAPLACIAN_STENCIL, 2), (_BIHARMONIC_STENCIL, 4))

# 3-point differences along one axis in three variants: centered, forward,
# backward.  A cell takes the first variant whose two off-center cells
# (_RUNS) are in the mask.
_RUNS = ((-1, 1), (1, 2), (-1, -2))
_SECOND = (
    ((-1, 1.0), (0, -2.0), (1, 1.0)),
    ((0, 1.0), (1, -2.0), (2, 1.0)),
    ((-2, 1.0), (-1, -2.0), (0, 1.0)),
)
_FIRST = (
    ((-1, -0.5), (1, 0.5)),
    ((0, -1.5), (1, 2.0), (2, -0.5)),
    ((-2, 0.5), (-1, -2.0), (0, 1.5)),
)


def _step(axis, t):
    return (t, 0) if axis == 0 else (0, t)


def _along(axis, table):
    """A 1D offset table as 2D offsets along the given axis."""
    return tuple((_step(axis, t), c) for t, c in table)


def _mixed(first_x, first_y):
    """Table of a first difference in x composed with one in y."""
    return tuple(((ti, tj), ci * cj) for ti, ci in first_x for tj, cj in first_y)


def _triplets(domain: GridDomain, cells, rows, table, scale: float):
    """COO triplets of an offset/coefficient table read around cells.

    Entry ((di, dj), c) of the table puts c / scale at (rows[p], the cell
    at cells[p] + (di, dj)) for every position p; that column is -1 where
    the offset leaves the mask.
    """
    at = domain.cells[cells]
    cols = [domain.cell_at(at[:, 0] + di, at[:, 1] + dj) for (di, dj), _ in table]
    vals = np.repeat([c for _, c in table], len(cells)) / scale
    return np.tile(rows, len(table)), np.concatenate(cols), vals


def _csr(parts, shape):
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def assemble_gradient(domain: GridDomain, include_boundary: bool = False) -> SparseOperator:
    """Face-difference gradient.

    include_boundary=False: interior faces only; the adjoint is the
    zero-flux divergence, so adjoint(G) G is the Neumann Laplacian.
    include_boundary=True: appends one row per boundary face with entry
    -sqrt(2)/h on the owner cell, so adjoint(G) G is the Dirichlet
    Laplacian up to rounding in the penalty coefficient.

    The canonical CSR arrays are written straight from face_cells, whose
    owner precedes its neighbor in the cell order, and from the boundary
    faces' owners.
    """
    e = domain.face_cells.shape[0]
    indices = [domain.face_cells.ravel()]
    data = [np.tile([-1.0 / domain.h, 1.0 / domain.h], e)]
    codomain = domain.edge_space
    if include_boundary:
        owners = np.nonzero(domain.neighbors < 0)[0]  # boundary_faces order
        indices.append(owners)
        data.append(np.full(owners.size, -np.sqrt(2.0) / domain.h))
        codomain = domain.all_face_space
    indptr = np.concatenate([np.arange(0, 2 * e, 2), 2 * e + np.arange(codomain.dim - e + 1)])
    mat = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                        shape=(codomain.dim, domain.n_cells))
    return SparseOperator(mat, domain.cell_space, codomain)


def assemble_laplacian(domain: GridDomain, kind: str,
                       gradient: SparseOperator | None = None) -> SparseOperator:
    """Cell-centered Laplacian: "neumann", "dirichlet", or "mixed".

    All three share the interior stencil; they differ only in the 2/h^2
    diagonal penalty (none, every boundary face, Dirichlet-labeled faces).
    The mixed kind with no Dirichlet-labeled face equals the Neumann one
    entrywise, and with all faces labeled Dirichlet equals the Dirichlet
    one entrywise.  `gradient` is the domain's interior gradient when the
    caller already holds it; otherwise it is assembled here.
    """
    grad = gradient if gradient is not None else assemble_gradient(domain)
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


def _interior_stencil(domain: GridDomain, k: int) -> SparseOperator:
    """Zero-extension stencil from depth>=k cells to all cells.

    A cell at depth >= k has every cell within taxicab distance k in the
    mask, so a table of reach k never leaves it.
    """
    ring = domain.ring_cells(k)
    if ring.size == 0:
        raise EmptyDomainError(f"no cells of depth >= {k}: interior stencil is empty")
    table, power = _INTERIOR[k - 1]
    # the table is read around each ring cell; that cell's position is the column
    pos, nb, vals = _triplets(domain, ring, np.arange(ring.size), table, domain.h**power)
    mat = sp.csr_matrix((vals, (nb, pos)), shape=(domain.n_cells, ring.size))
    return SparseOperator(mat, domain.ring_space(k), domain.cell_space)


def assemble_interior_laplacian(domain: GridDomain) -> SparseOperator:
    """Raw 5-point stencil of the zero extension: depth>=1 cells to all cells.

    Injective on every mask, connected or not: centred one cell right of
    a support cell in the support's rightmost column, the stencil sees
    that one support cell alone, so a field in the kernel vanishes there,
    and column by column everywhere.  The weighted adjoint maps a cell
    field to its raw 5-point Laplacian sampled on the depth>=1 cells.
    """
    return _interior_stencil(domain, 1)


def assemble_interior_biharmonic(domain: GridDomain) -> SparseOperator:
    """13-point bilaplacian of the zero extension: depth>=2 cells to all cells.

    Equals the square of the 5-point stencil applied to the zero extension,
    exactly, because the extension's Laplacian already vanishes outside the
    mask for depth>=2 supports.
    """
    return _interior_stencil(domain, 2)


def free_stencil(domain: GridDomain, k: int, u: np.ndarray) -> np.ndarray:
    """The raw 5-point (k = 1) or 13-point (k = 2) stencil of a cell field
    on the depth>=k cells, without assembling an operator.

    Each offset's cells are reached by walking domain.neighbors, first
    along x, then along y; from a depth>=k cell every step of a walk of
    at most k steps stays in the mask.  The result equals the adjoint of
    the interior stencil applied to u to the last bit: each coefficient is
    the table value over h^2 or h^4, as assembled, and the terms are added
    from zero in increasing cell order, which is the order of that
    adjoint's CSR matvec.
    """
    table, power = _INTERIOR[k - 1]
    steps = np.ascontiguousarray(domain.neighbors.T)  # +x, -x, +y, -y
    ring = domain.ring_cells(k)
    total = np.zeros(ring.size)
    # cells are numbered row by row: order the offsets by (dj, di)
    for (di, dj), c in sorted(table, key=lambda entry: entry[0][::-1]):
        cells = ring
        for d in [0] * di + [1] * -di + [2] * dj + [3] * -dj:
            cells = steps[d][cells]
        total += c / domain.h**power * u[cells]
    return total


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
    e = domain.face_cells.shape[0]
    face_row = np.full((domain.n_cells, 2), -1, dtype=np.int64)
    face_row[domain.face_cells[:, 0], domain.face_axes] = np.arange(e)
    sw = domain.cell_at(verts[:, 0] - 1, verts[:, 1] - 1)
    parts = []
    for axis, table in (
        (0, (((0, 0), 1.0), ((0, 1), -1.0))),  # bottom and top x-faces
        (1, (((0, 0), -1.0), ((1, 0), 1.0))),  # left and right y-faces
    ):
        rows, owners, vals = _triplets(
            domain, sw, np.arange(sw.size), table, domain.h
        )
        parts.append((rows, face_row[owners, axis], vals))
    curl = SparseOperator(
        _csr(parts, (verts.shape[0], e)), domain.edge_space, domain.vertex_space
    )
    return curl, curl.adjoint()


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
    cells = np.arange(domain.n_cells)
    if zero_extension:  # the centered variant at every cell
        variants = 1
        variant = [np.zeros(domain.n_cells, dtype=np.int64)] * 2
    else:
        variants = 3
        variant = [
            np.select(
                [(domain.shifted(*_step(axis, a)) >= 0)
                 & (domain.shifted(*_step(axis, b)) >= 0) for a, b in _RUNS],
                [0, 1, 2], -1,
            )
            for axis in (0, 1)
        ]
        short = np.flatnonzero((variant[0] < 0) | (variant[1] < 0))
        if short.size:
            k = int(short[0])
            i, j = map(int, domain.cells[k])
            axis = 0 if variant[0][k] < 0 else 1
            raise StencilReachError(f"cell ({i}, {j}) has no 3-cell run along axis {axis}")
    parts = []
    for v in range(variants):
        for comp, axis in ((0, 0), (2, 1)):
            at = cells[variant[axis] == v]
            parts.append(_triplets(domain, at, 3 * at + comp, _along(axis, _SECOND[v]), h2))
        at = cells[variant[0] == v]
        for ti, ci in _FIRST[v]:
            # the y-difference is the one of the column's cell (i + ti, j)
            column = variant[1][domain.shifted(ti, 0)[at]]
            for w in range(variants):
                sub = at[column == w]
                parts.append(_triplets(
                    domain, sub, 3 * sub + 1, _mixed(((ti, ci),), _FIRST[w]), h2
                ))
    if zero_extension:  # out-of-mask cells read as zero
        r, c, x = (np.concatenate(a) for a in zip(*parts))
        parts = [(r[c >= 0], c[c >= 0], x[c >= 0])]
    shape = (3 * domain.n_cells, domain.n_cells)
    return SparseOperator(_csr(parts, shape), domain.cell_space, domain.hessian_space)


def _with_kernel(op: SparseOperator, kernel=None) -> SparseOperator:
    """op with its kernel set; without one given, the trivial kernel."""
    op.kernel = kernel if kernel is not None else ([], np.empty(0, dtype=np.int64))
    return op


class OperatorCatalog:
    """Caching facade over the assembly routines for one domain.

    Operators whose kernel the domain's topology determines carry it
    (SparseOperator.kernel): the gradient's is the constants on each
    4-connected piece, with one pinned cell per piece, which the Neumann
    Laplacian shares, and the one-sided Hessian's the affine functions on
    each piece, which its normal product shares; the Dirichlet gradient
    and Laplacian, both interior stencils and the curl adjoint are
    injective.
    """

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def gradient(self) -> SparseOperator:
        return self._get("gradient", lambda: _with_kernel(
            assemble_gradient(self.domain),
            _piecewise_constants(self.domain.cell_space, self.domain.component_labels),
        ))

    @property
    def gradient_dirichlet(self) -> SparseOperator:
        return self._get(
            "gradient_dirichlet",
            lambda: _with_kernel(assemble_gradient(self.domain, True)),
        )

    @property
    def laplacian_neumann(self) -> SparseOperator:
        return self._get("laplacian_neumann", lambda: _with_kernel(
            assemble_laplacian(self.domain, "neumann", self.gradient),
            self.gradient.kernel,
        ))

    @property
    def laplacian_dirichlet(self) -> SparseOperator:
        return self._get("laplacian_dirichlet", lambda: _with_kernel(
            assemble_laplacian(self.domain, "dirichlet", self.gradient)
        ))

    @property
    def laplacian_mixed(self) -> SparseOperator:
        """Kernel: the constants on each piece with no Dirichlet-labelled face."""
        def build():
            labels = self.domain.component_labels
            faces = np.bincount(labels, self.domain.count_boundary_faces(DIRICHLET))
            free = faces[labels] == 0  # cells of the pieces with no such face
            basis, pinned = self.gradient.kernel
            return _with_kernel(
                assemble_laplacian(self.domain, "mixed", self.gradient),
                ([b for b in basis if not b[~free].any()], pinned[free[pinned]]),
            )

        return self._get("laplacian_mixed", build)

    @property
    def interior_laplacian(self) -> SparseOperator:
        return self._get(
            "interior_laplacian",
            lambda: _with_kernel(assemble_interior_laplacian(self.domain)),
        )

    @property
    def interior_biharmonic(self) -> SparseOperator:
        return self._get("interior_biharmonic", lambda: _with_kernel(
            assemble_interior_biharmonic(self.domain)))

    @property
    def free_laplacian(self) -> SparseOperator:
        """Raw 5-point values on depth>=1 cells; adjoint of interior_laplacian."""
        return self.interior_laplacian.adjoint()

    @property
    def curl(self) -> SparseOperator:
        def build():
            curl, adjoint = assemble_curl_pair(self.domain)
            _with_kernel(adjoint)
            return curl

        return self._get("curl", build)

    @property
    def hessian(self) -> SparseOperator:
        """The one-sided Hessian; kernel: the affine functions on each piece."""
        d = self.domain
        return self._get("hessian", lambda: _with_kernel(
            assemble_hessian(d),
            piecewise_affine(d.cell_space, d.component_labels, d.cell_centers()),
        ))

    @property
    def hessian_normal(self) -> SparseOperator:
        """adjoint(H) H, H the one-sided Hessian, sharing its kernel."""
        return self._get("hessian_normal", lambda: _with_kernel(
            normal_product(self.hessian), self.hessian.kernel))

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
            "interior_normal", lambda: normal_product(self.interior_laplacian)
        )

    @property
    def hessian_dirichlet_normal(self) -> SparseOperator:
        """adjoint(Hp) Hp on depth>=1 cells, Hp the zero-extension Hessian
        of the padded field; built once."""
        return self._get(
            "hessian_dirichlet_normal",
            lambda: normal_product(self.hessian_zero_extension @ self.pad1),
        )

    @property
    def regularized(self) -> SparseOperator:
        """L* L + 1 on all cells, L the free Laplacian, assembled as
        interior_laplacian @ free_laplacian + 1; its first-order operator
        is the stack [L; 1], into L's codomain and the cells side by side."""
        def build():
            space, lap = self.domain.cell_space, self.free_laplacian
            cod = lap.codomain_space
            both = DofSpace(f"{cod.name}+{space.name}", cod.dim + space.dim,
                            np.concatenate([cod.weights, space.weights]))
            op = self.interior_laplacian @ lap + identity_operator(space)
            op.first_order = SparseOperator(
                sp.vstack([lap.matrix, sp.identity(space.dim)]), space, both
            )
            return op

        return self._get("regularized", build)

    @property
    def biharmonic_normal(self) -> SparseOperator:
        """adjoint(B) B, B the 13-point interior stencil; `under`'s factor."""
        return self._get(
            "biharmonic_normal", lambda: normal_product(self.interior_biharmonic)
        )
