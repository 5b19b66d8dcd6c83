"""Assembly of the discrete operator family on a masked grid.

Every operator is a SparseOperator between weighted DOF spaces of one
GridDomain.  Conventions:

  * gradients difference across faces, (u_b - u_a) / h, owner a below b;
  * Laplacians are the negative ones (positive semidefinite);
  * Dirichlet values enter through penalty rows of weight sqrt(2)/h on
    boundary faces, equivalently a 2/h^2 diagonal penalty on the owner
    cell, so the penalized operator equals a gradient normal product
    (a tested identity: the Laplacians are not built as one);
  * the interior Laplacian maps depth>=1 cells to the ambient space by
    applying the raw 5-point stencil to the zero extension.

With h = 1/n all stencil coefficients are exact small integers times n^2,
so several identities below hold to the last bit, not just to rounding.
Every operator's compressed arrays are written straight from the domain's
tables for all its cells at once, in the stored order that a COO or
sparse-product construction would give: the gradient from the faces, the
Laplacians from the neighbor table and boundary-face counts, the interior
stencils (and free_stencil, which applies their adjoints without
assembling them) from walks over the neighbor table, the Hessians from a
table of each cell's rows by its stencil variants.  Every laplace and zoo
solve is a catalog's (OperatorCatalog.solve), at the tolerance and on the
banded factors of its solve session, whose declared factors carry to the
next solve on it; at most one catalog in the process carries any.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import weakref

import numpy as np
import scipy.sparse as sp

from .errors import EmptyDomainError, StencilReachError
from .grid import DIRICHLET, DofSpace, Field, GridDomain
from .linalg import (
    SolverConfig,
    SparseOperator,
    _piecewise_constants,
    direct_solve,
    identity_operator,
    normal_product,
    piecewise_affine,
)

# offset/coefficient tables in cell order, by (dj, di); values are divided
# by h^2 (h^4 for the 13-point bilaplacian) at assembly
_LAPLACIAN_STENCIL = (
    ((0, -1), -1.0), ((-1, 0), -1.0), ((0, 0), 4.0), ((1, 0), -1.0), ((0, 1), -1.0),
)
_BIHARMONIC_STENCIL = (
    ((0, -2), 1.0), ((-1, -1), 2.0), ((0, -1), -8.0), ((1, -1), 2.0),
    ((-2, 0), 1.0), ((-1, 0), -8.0), ((0, 0), 20.0), ((1, 0), -8.0), ((2, 0), 1.0),
    ((-1, 1), 2.0), ((0, 1), -8.0), ((1, 1), 2.0), ((0, 2), 1.0),
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
# per x-variant, the offsets of its first difference, padded with 0
_FIRST_OFFSETS = np.array([[t for t, _ in table] + [0] * (3 - len(table)) for table in _FIRST])


@functools.cache
def _hessian_slots():
    """A cell's Hessian entries per variant signature (vx, vy, w0, w1, w2),
    numbered in base 3: its x- and y-variants and the y-variants of the
    cells at its x-difference's offsets, whose y-differences the xy row
    composes.  Returns (di, dj, coefficient) arrays of shape (243, 15):
    the xx row in slots 0-2, xy in 3-11, yy in 12-14, each by (dj, di),
    which is cell order; unused slots are zero.
    """
    table = np.zeros((243, 15, 3))
    for s, (vx, vy, *w) in enumerate(itertools.product(range(3), repeat=5)):
        xy = sorted((tj, ti, ci * cj) for (ti, ci), wk in zip(_FIRST[vx], w)
                    for tj, cj in _FIRST[wk])
        rows = ([(t, 0, c) for t, c in _SECOND[vx]], [(ti, tj, c) for tj, ti, c in xy],
                [(0, t, c) for t, c in _SECOND[vy]])
        for first, row in zip((0, 3, 12), rows):
            table[s, first:first + len(row)] = row
    return table[..., 0].astype(np.int64), table[..., 1].astype(np.int64), table[..., 2]


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


def assemble_laplacian(domain: GridDomain, kind: str) -> SparseOperator:
    """Cell-centered Laplacian: "neumann", "dirichlet", or "mixed".

    All three share the interior stencil; they differ only in the 2/h^2
    diagonal penalty (none, every boundary face, Dirichlet-labeled faces).
    The mixed kind with no Dirichlet-labeled face equals the Neumann one
    entrywise, and with all faces labeled Dirichlet equals the Dirichlet
    one entrywise.  Each equals adjoint(G) G, G the interior gradient,
    plus the penalty diagonal, bit for bit and in stored order: a tested
    identity, not the construction.

    The CSR arrays are written from domain.neighbors: -(1/h)(1/h) per
    interior face off the diagonal; on it (1/h)(1/h) added once per face,
    from zero, plus (2/h^2) times the penalized face count.  A row stores
    its columns in the order they first appear over the cell's faces in
    face order (-y, -x, +x, +y): [-y, self, -x, +x, +y], or [-x, self,
    +x, +y] without a -y face, or [self, +x, +y] without either.  The
    kind without a penalty stores its rows reversed, as the sparse
    product does before a diagonal is added to it.
    """
    if kind == "neumann":
        counts = np.zeros(domain.n_cells, dtype=np.int64)
    elif kind == "dirichlet":
        counts = domain.count_boundary_faces()
    elif kind == "mixed":
        counts = domain.count_boundary_faces(DIRICHLET)
    else:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    has = domain.neighbors >= 0
    off = (1.0 / domain.h) * (1.0 / domain.h)
    diag = np.cumsum(np.r_[0.0, np.full(4, off)])[has @ np.ones(4, dtype=np.int64)]
    penalized = bool(counts.any())
    if penalized:
        diag = diag + (2.0 / domain.h**2) * counts
    xp, xm, yp, ym = domain.neighbors.T
    hxp, hxm, hyp, hym = has.T
    me = np.arange(domain.n_cells)
    # (column, present, is the cell itself) per slot, in first-appearance order
    slots = (
        (me, ~(hym | hxm) & (hxp | hyp | (counts > 0)), True), (ym, hym, False),
        (me, hym, True), (xm, hxm, False), (me, hxm & ~hym, True),
        (xp, hxp, False), (yp, hyp, False),
    )
    if not penalized:
        slots = slots[::-1]
    cols, keep, mine = zip(*slots)
    keep = np.column_stack(keep)
    at = np.flatnonzero(keep)
    indptr = np.concatenate([[0], np.cumsum(keep @ np.ones(7, dtype=np.int64))])
    data = np.where(mine, diag[:, None], -off).ravel()[at]
    mat = sp.csr_matrix((data, np.column_stack(cols).ravel()[at], indptr),
                        shape=(domain.n_cells,) * 2)
    return SparseOperator(mat, domain.cell_space, domain.cell_space)


def _reach(domain: GridDomain, k: int, d: int):
    """The depth>=d cells (d >= k) and, per coefficient of the interior
    stencil of reach k in cell order, its value over h^2 or h^4 and the
    cells at its offset from them, reached by walking domain.neighbors
    first along x, then along y: from a depth>=k cell no walk of k steps
    leaves the mask.
    """
    table, power = _INTERIOR[k - 1]
    steps = np.ascontiguousarray(domain.neighbors.T)  # +x, -x, +y, -y
    ring = domain.ring_cells(d)
    coefs, cells = [], []
    for (di, dj), c in table:
        at = ring
        for d in [0] * di + [1] * -di + [2] * dj + [3] * -dj:
            at = steps[d][at]
        coefs.append(c / domain.h**power)
        cells.append(at)
    return ring, coefs, cells


def require_depth(domain: GridDomain, d: int) -> None:
    """Raise EmptyDomainError unless a cell has depth >= d, as every
    interior stencil from the depth>=d cells needs."""
    if domain.depth.max() < d:
        raise EmptyDomainError(f"no cells of depth >= {d}: interior stencil is empty")


def _interior_stencil(domain: GridDomain, k: int, d: int) -> SparseOperator:
    """Zero-extension stencil of reach k from depth>=d cells (d >= k) to
    depth>=d-k cells, all cells where d = k.

    A cell at depth >= k has every cell within taxicab distance k in the
    mask, so a table of reach k never leaves it, and from depth >= d it
    reaches no cell of depth below d - k.  Its CSC arrays are written
    directly, one column per ring cell with the table's cells in cell
    order, numbered among the depth>=d-k cells; they are also its
    adjoint's CSR arrays.
    """
    require_depth(domain, d)
    ring, coefs, cells = _reach(domain, k, d)
    width = len(coefs)
    rows = np.column_stack(cells).ravel()
    if d > k:  # each cell's place among the depth>=d-k cells
        rows = (np.cumsum(domain.depth >= d - k) - 1)[rows]
    codomain = domain.ring_space(d - k)
    mat = sp.csc_matrix(
        (np.tile(coefs, ring.size), rows, np.arange(0, width * ring.size + 1, width)),
        shape=(codomain.dim, ring.size),
    )
    return SparseOperator(mat, domain.ring_space(d), codomain)


def assemble_interior_laplacian(domain: GridDomain) -> SparseOperator:
    """Raw 5-point stencil of the zero extension: depth>=1 cells to all cells.

    Injective on every mask, connected or not: centred one cell right of
    a support cell in the support's rightmost column, the stencil sees
    that one support cell alone, so a field in the kernel vanishes there,
    and column by column everywhere.  The weighted adjoint maps a cell
    field to its raw 5-point Laplacian sampled on the depth>=1 cells.
    """
    return _interior_stencil(domain, 1, 1)


def assemble_interior_biharmonic(domain: GridDomain) -> SparseOperator:
    """13-point bilaplacian of the zero extension: depth>=2 cells to all cells.

    Equals the square of the 5-point stencil applied to the zero extension,
    exactly, because the extension's Laplacian already vanishes outside the
    mask for depth>=2 supports: it is interior_laplacian @ M, M the 5-point
    stencil of the zero extension from depth>=2 cells to depth>=1 cells
    (OperatorCatalog.nested_normal records it).
    """
    return _interior_stencil(domain, 2, 2)


def free_stencil(domain: GridDomain, k: int, u: np.ndarray) -> np.ndarray:
    """The raw 5-point (k = 1) or 13-point (k = 2) stencil of a cell field
    on the depth>=k cells, without assembling an operator.

    The result equals the adjoint of the interior stencil applied to u to
    the last bit: each coefficient is the table value over h^2 or h^4, as
    assembled, and the terms are added from zero in increasing cell
    order, which is the order of that adjoint's CSR matvec.
    """
    ring, coefs, cells = _reach(domain, k, k)
    total = np.zeros(ring.size)
    for c, at in zip(coefs, cells):
        total += c * u[at]
    return total


def assemble_pad(domain: GridDomain, k: int) -> SparseOperator:
    """Zero extension of depth>=k cells into the ambient cell space."""
    deep = domain.depth >= k
    size = int(deep.sum())
    mat = sp.csr_matrix((np.ones(size), np.arange(size), np.concatenate([[0], np.cumsum(deep)])),
                        shape=(domain.n_cells, size))
    return SparseOperator(mat, domain.ring_space(k), domain.cell_space)


def assemble_curl_pair(domain: GridDomain):
    """Vertex-centered curl on interior faces and its adjoint.

    Rows live on lattice vertices all of whose four incident cells exist.
    Composed with the gradient the curl vanishes identically: the two
    1/h^2 contributions a cell sends around each vertex cancel exactly.
    A row's four faces, in face order, are the x- and y-faces of its
    south-west cell sw, the y-face of the cell right of sw and the
    x-face of the cell above sw.
    """
    verts = domain.interior_vertices
    e = domain.face_cells.shape[0]
    face_row = np.full((domain.n_cells, 2), -1, dtype=np.int64)
    face_row[domain.face_cells[:, 0], domain.face_axes] = np.arange(e)
    sw = domain.cell_at(verts[:, 0] - 1, verts[:, 1] - 1)
    faces = np.column_stack([face_row[sw], face_row[domain.neighbors[sw, 0], 1],
                             face_row[domain.neighbors[sw, 2], 0]])
    mat = sp.csr_matrix(
        (np.tile(np.array([1.0, -1.0, 1.0, -1.0]) / domain.h, sw.size), faces.ravel(),
         np.arange(0, 4 * sw.size + 1, 4)),
        shape=(sw.size, e),
    )
    curl = SparseOperator(mat, domain.edge_space, domain.vertex_space)
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

    Each cell's three rows are one row of a table indexed by the cell's
    variant signature (_hessian_slots), which lists them in cell order, so
    the CSR arrays are read off it for all cells at once.
    """
    n = domain.n_cells
    if zero_extension:  # the centered variant at every cell
        sig = np.zeros(n, dtype=np.int64)
    else:
        t = np.arange(-2, 3)[None]
        vx, vy = (
            np.select([(line[:, a + 2] >= 0) & (line[:, b + 2] >= 0) for a, b in _RUNS],
                      [0, 1, 2], -1)
            for line in (domain.shifted(t, 0), domain.shifted(0, t))
        )
        short = np.flatnonzero((vx < 0) | (vy < 0))
        if short.size:
            k = int(short[0])
            i, j = map(int, domain.cells[k])
            axis = 0 if vx[k] < 0 else 1
            raise StencilReachError(f"cell ({i}, {j}) has no 3-cell run along axis {axis}")
        columns = domain.shifted(_FIRST_OFFSETS[vx], 0)
        sig = (vx * 3 + vy) * 27 + vy[columns] @ np.array([9, 3, 1])
    di, dj, coef = _hessian_slots()
    cols = domain.shifted(di[sig], dj[sig])
    coef = coef[sig]
    keep = coef != 0
    if zero_extension:  # out-of-mask cells read as zero
        keep &= cols >= 0
    at = np.flatnonzero(keep)
    ends = np.cumsum(keep).reshape(n, 15)[:, [2, 11, 14]]  # of each row
    mat = sp.csr_matrix(
        (coef.ravel()[at] / domain.h**2, cols.ravel()[at], np.concatenate([[0], ends.ravel()])),
        shape=(3 * n, n),
    )
    return SparseOperator(mat, domain.cell_space, domain.hessian_space)


def _with_kernel(op: SparseOperator, kernel=None) -> SparseOperator:
    """op with its kernel set; without one given, the trivial kernel."""
    op.kernel = kernel if kernel is not None else ([], np.empty(0, dtype=np.int64))
    return op


# the one catalog that holds carried factors (OperatorCatalog.solve_session),
# by weak reference, and the lock that swaps it
_HOLDER_LOCK = threading.Lock()
_holder = None


def _cached(build):
    """A catalog entry: a property that calls build(catalog) on first
    access and keeps the result in catalog._cache under build's name."""
    key = build.__name__

    @functools.wraps(build)
    def get(self):
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    return property(get)


class OperatorCatalog:
    """Caching facade over the assembly routines for one domain.

    Each cached entry is a builder method declared with @_cached: its
    first access builds it and stores it in self._cache under the
    method's name, and every later access returns that same object.
    free_laplacian alone is a plain property, derived on each access.

    Operators whose kernel the domain's topology determines carry it
    (SparseOperator.kernel): the gradient's is the constants on each
    4-connected piece, with one pinned cell per piece, which the Neumann
    Laplacian shares, and the one-sided Hessian's the affine functions on
    each piece, which its normal product shares; the Dirichlet gradient
    and Laplacian, both interior stencils, the nested stencil M and the
    curl adjoint are injective.
    """

    def __init__(self, domain: GridDomain):
        self.domain = domain
        self._cache = {}
        self._factors = {}  # carried factors, by operator
        self.solve_factors = self._solve_cfg = None  # the running solve's dict and config

    @contextlib.contextmanager
    def solve_session(self, names, cfg: SolverConfig | None = None):
        """Run one solve that carries the factors of the catalog entries
        `names`: while it runs, every `solve` on the catalog reads cfg and
        the factors dict solve_factors, so its stages and measurements
        share each factor they build; the dict is seeded with the carried
        factors of those entries whose pins are still their operator's.

        Every other carried factor is dropped on entry, before the solve
        assembles or factors anything, and so is every factor another
        catalog carries: one catalog at a time holds factors.  A solve that
        returns carries the factors of `names` its dict holds and drops the
        rest; one that raises carries nothing.  Sessions do not nest: a
        catalog runs one solve at a time.
        """
        wanted = {self._cache.get(name) for name in names}
        self.solve_factors = {
            op: factor for op, factor in self._swap_factors({}).items()
            if op in wanted and np.array_equal(factor.pinned, (op.kernel or ((), ()))[1])}
        self._solve_cfg = cfg
        try:
            yield
            self._swap_factors({op: self.solve_factors[op] for op in map(self._cache.get, names)
                                if op in self.solve_factors})
        finally:
            self.solve_factors = self._solve_cfg = None

    def solve(self, op: SparseOperator, b: Field, *, min_norm: bool = False, name: str):
        """linalg.direct_solve of op x = b with the running session's
        configuration and factors dict; outside a session, at the default
        configuration on a private factor."""
        return direct_solve(op, b, self._solve_cfg, min_norm=min_norm,
                            factors=self.solve_factors, name=name)

    def _swap_factors(self, factors: dict) -> dict:
        """Carry `factors` here and none on any other catalog; returns what
        this catalog carried."""
        global _holder
        with _HOLDER_LOCK:
            held = _holder() if _holder is not None else None
            if held is not None and held is not self:
                held._factors = {}
            _holder = weakref.ref(self)
            carried, self._factors = self._factors, factors
        return carried

    @_cached
    def _constants(self):
        """The constants on each piece, with one pinned cell per piece."""
        return _piecewise_constants(self.domain.cell_space, self.domain.component_labels)

    @_cached
    def gradient(self) -> SparseOperator:
        return _with_kernel(assemble_gradient(self.domain), self._constants)

    @_cached
    def gradient_dirichlet(self) -> SparseOperator:
        return _with_kernel(assemble_gradient(self.domain, True))

    @_cached
    def laplacian_neumann(self) -> SparseOperator:
        return _with_kernel(assemble_laplacian(self.domain, "neumann"), self._constants)

    @_cached
    def laplacian_dirichlet(self) -> SparseOperator:
        return _with_kernel(assemble_laplacian(self.domain, "dirichlet"))

    @_cached
    def laplacian_mixed(self) -> SparseOperator:
        """Kernel: the constants on each piece with no Dirichlet-labelled face."""
        labels = self.domain.component_labels
        faces = np.bincount(labels, self.domain.count_boundary_faces(DIRICHLET))
        free = faces[labels] == 0  # cells of the pieces with no such face
        basis, pinned = self._constants
        return _with_kernel(
            assemble_laplacian(self.domain, "mixed"),
            ([b for b in basis if not b[~free].any()], pinned[free[pinned]]),
        )

    @_cached
    def interior_laplacian(self) -> SparseOperator:
        return _with_kernel(assemble_interior_laplacian(self.domain))

    @_cached
    def interior_biharmonic(self) -> SparseOperator:
        return _with_kernel(assemble_interior_biharmonic(self.domain))

    @property
    def free_laplacian(self) -> SparseOperator:
        """Raw 5-point values on depth>=1 cells; adjoint of interior_laplacian."""
        return self.interior_laplacian.adjoint()

    @_cached
    def curl(self) -> SparseOperator:
        curl, adjoint = assemble_curl_pair(self.domain)
        _with_kernel(adjoint)
        return curl

    @_cached
    def hessian(self) -> SparseOperator:
        """The one-sided Hessian; kernel: the affine functions on each piece."""
        d = self.domain
        return _with_kernel(
            assemble_hessian(d),
            piecewise_affine(d.cell_space, d.component_labels, d.cell_centers()),
        )

    @_cached
    def hessian_normal(self) -> SparseOperator:
        """adjoint(H) H, H the one-sided Hessian, sharing its kernel."""
        return _with_kernel(normal_product(self.hessian), self.hessian.kernel)

    @_cached
    def hessian_zero_extension(self) -> SparseOperator:
        return assemble_hessian(self.domain, zero_extension=True)

    @_cached
    def pad1(self) -> SparseOperator:
        return assemble_pad(self.domain, 1)

    @_cached
    def pad2(self) -> SparseOperator:
        return assemble_pad(self.domain, 2)

    @_cached
    def interior_normal(self) -> SparseOperator:
        """adjoint(A) A on depth>=1 cells, the workhorse of clamped solves."""
        return normal_product(self.interior_laplacian)

    @_cached
    def hessian_dirichlet_normal(self) -> SparseOperator:
        """adjoint(Hp) Hp on depth>=1 cells, Hp the zero-extension Hessian
        of the padded field; built once."""
        return normal_product(self.hessian_zero_extension @ self.pad1)

    @_cached
    def regularized(self) -> SparseOperator:
        """L* L + 1 on all cells, L the free Laplacian, assembled as
        interior_laplacian @ free_laplacian + 1; its first-order operator
        is the stack [L; 1], into L's codomain and the cells side by side,
        its CSR arrays written straight from L's with one unit entry per
        cell row below them."""
        space, lap = self.domain.cell_space, self.free_laplacian
        cod, mat, n = lap.codomain_space, lap.matrix, space.dim
        both = DofSpace(f"{cod.name}+{space.name}", cod.dim + n,
                        np.concatenate([cod.weights, space.weights]))
        op = self.interior_laplacian @ lap + identity_operator(space)
        stack = sp.csr_matrix(
            (np.concatenate([mat.data, np.ones(n)]),
             np.concatenate([mat.indices, np.arange(n)]),
             np.concatenate([mat.indptr, mat.nnz + np.arange(1, n + 1)])),
            shape=(mat.shape[0] + n, n),
        )
        op.first_order = SparseOperator(stack, space, both)
        return op

    @_cached
    def biharmonic_normal(self) -> SparseOperator:
        """adjoint(B) B, B the 13-point interior stencil; `under`'s factor."""
        return normal_product(self.interior_biharmonic)

    @_cached
    def nested_normal(self) -> SparseOperator:
        """adjoint(M) M on depth>=2 cells, M the 5-point stencil of the zero
        extension from depth>=2 cells to depth>=1 cells, with
        interior_laplacian @ M equal to interior_biharmonic: `over`'s second
        stage.  M is injective by interior_laplacian's argument."""
        return _with_kernel(normal_product(_interior_stencil(self.domain, 1, 2)))
