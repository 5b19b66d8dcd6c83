import numpy as np
import pytest
import scipy.sparse as sp

from bizoo import (
    DofSpace,
    EmptyDomainError,
    GridDomain,
    OperatorCatalog,
    SparseOperator,
    StencilReachError,
    build_domain,
)
from bizoo import linalg
from bizoo.operators import (
    assemble_gradient,
    assemble_hessian,
    assemble_interior_biharmonic,
    assemble_interior_laplacian,
    assemble_laplacian,
    assemble_pad,
)
from test_linalg import neumann_small_piece, two_piece_mask
from test_operator_golden import golden_domains


def test_two_cell_neumann_laplacian_exact():
    # one interior face, h = 1/2: gradient rows give L = [[4,-4],[-4,4]]
    dom = GridDomain([(0, 0), (1, 0)], 0.5)
    L = assemble_laplacian(dom, "neumann").to_dense()
    assert np.array_equal(L, [[4.0, -4.0], [-4.0, 4.0]])


def test_two_cell_dirichlet_penalty_exact():
    # each cell carries 3 boundary faces, penalty 2/h^2 = 8 per face
    dom = GridDomain([(0, 0), (1, 0)], 0.5)
    L = assemble_laplacian(dom, "dirichlet").to_dense()
    assert np.array_equal(L, [[4.0 + 24.0, -4.0], [-4.0, 4.0 + 24.0]])


def test_dirichlet_gradient_normal_product():
    # penalty rows square to the penalty diagonal up to the sqrt rounding
    for shape, n in (("square", 5), ("lshape", 4)):
        dom = build_domain(shape, n)
        g = assemble_gradient(dom, include_boundary=True)
        product = (g.adjoint() @ g).to_dense()
        direct = assemble_laplacian(dom, "dirichlet").to_dense()
        assert np.allclose(product, direct, rtol=0, atol=1e-12 / dom.h**2)


def test_mixed_laplacian_extremes_bitwise():
    dom_d = build_domain("square", 4, labels={"all": "dirichlet"})
    md = assemble_laplacian(dom_d, "mixed").matrix
    ld = assemble_laplacian(dom_d, "dirichlet").matrix
    assert np.array_equal(md.indptr, ld.indptr)
    assert np.array_equal(md.indices, ld.indices)
    assert np.array_equal(md.data, ld.data)
    dom_n = build_domain("square", 4, labels={"all": "neumann"})
    mn = assemble_laplacian(dom_n, "mixed").matrix
    ln = assemble_laplacian(dom_n, "neumann").matrix
    assert (mn != ln).nnz == 0


def test_mixed_laplacian_penalizes_only_dirichlet_sides():
    dom = build_domain("square", 3, labels={"left": "neumann"})
    mixed = assemble_laplacian(dom, "mixed").to_dense()
    full = assemble_laplacian(dom, "dirichlet").to_dense()
    diff = np.diag(full - mixed)
    # exactly the three left-column cells lose one face penalty
    expect = np.zeros(9)
    for j in range(3):
        expect[dom.index_of(0, j)] = 2.0 / dom.h**2
    assert np.array_equal(diff, expect)
    assert np.array_equal(np.diag(np.diag(full - mixed)), full - mixed)


def test_neumann_laplacian_annihilates_constants():
    dom = build_domain("annulus", 8)
    L = assemble_laplacian(dom, "neumann")
    out = L.apply_raw(np.ones(dom.n_cells))
    assert np.array_equal(out, np.zeros(dom.n_cells))


def test_interior_laplacian_columns():
    dom = build_domain("square", 4)
    A = assemble_interior_laplacian(dom)
    assert A.shape == (16, 4)
    h2 = dom.h**2
    ring = dom.ring_cells(1)
    dense = A.to_dense()
    for col, k in enumerate(ring):
        assert dense[k, col] == 4.0 / h2
        assert dense[:, col].sum() == 0.0  # zero extension is flux-free


def five_point_zero_extension(dom):
    # independent dense build: 4/h^2 diagonal, -1/h^2 per in-mask neighbor
    m = np.zeros((dom.n_cells, dom.n_cells))
    h2 = dom.h**2
    for k in range(dom.n_cells):
        m[k, k] = 4.0 / h2
        for nb in dom.neighbors[k]:
            if nb >= 0:
                m[k, nb] = -1.0 / h2
    return m


def test_interior_biharmonic_is_squared_stencil():
    # A_B equals the 5-point of the zero extension applied twice; for
    # dyadic h all stencil products are exact floats, so the match is
    # bitwise
    for shape, n in (("square", 8), ("lshape", 8), ("annulus", 16)):
        dom = build_domain(shape, n)
        B = assemble_interior_biharmonic(dom)
        M = five_point_zero_extension(dom)
        two_step = M @ M[:, dom.ring_cells(2)]
        assert np.array_equal(two_step, B.to_dense())


def test_interior_laplacian_is_stencil_columns():
    dom = build_domain("lshape", 8)
    A = assemble_interior_laplacian(dom)
    M = five_point_zero_extension(dom)
    assert np.array_equal(A.to_dense(), M[:, dom.ring_cells(1)])


@pytest.mark.parametrize("n", [16, 24, 32])
def test_interior_biharmonic_is_interior_laplacian_after_nested_stencil(n):
    # B = A M, M the 5-point stencil from depth>=2 to depth>=1 cells, the
    # first-order operator of nested_normal; with h = 1/24, c / h^4 and the
    # products of 1 / h^2 may differ in the last bit
    domains = [build_domain(shape, n) for shape in ("square", "lshape", "annulus")]
    for dom in domains + [two_piece_mask(n - 2 - n // 4, n // 4)]:
        cat = OperatorCatalog(dom)
        m = cat.nested_normal.first_order
        assert m.domain_space is dom.ring_space(2) and m.codomain_space is dom.ring_space(1)
        got = (cat.interior_laplacian.matrix @ m.matrix).tocsr()
        want = cat.interior_biharmonic.matrix.tocsr()
        for mat in (got, want):
            mat.sum_duplicates()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        if n & (n - 1) == 0:
            assert np.array_equal(got.data, want.data)
        else:
            assert np.allclose(got.data, want.data, rtol=2**-52, atol=0)
        # M is injective: its normal product factors with no pinned cells
        assert cat.nested_normal.kernel[1].size == 0
        linalg._BandedCholesky(cat.nested_normal, cat.nested_normal.kernel[1], "nested")


def test_annulus_8_has_no_deep_ring():
    # the 3-cell-wide arms leave no cell two steps from a boundary
    dom = build_domain("annulus", 8)
    assert dom.ring_cells(2).size == 0
    with pytest.raises(EmptyDomainError):
        assemble_interior_biharmonic(dom)


def test_biharmonic_stencil_coefficients():
    dom = build_domain("square", 8)
    B = assemble_interior_biharmonic(dom)
    h4 = dom.h**4
    col = 5  # some interior column
    vals = sorted(B.matrix.getcol(col).toarray().ravel() * h4)
    nonzero = [v for v in vals if v != 0.0]
    assert sorted(nonzero) == [-8.0] * 4 + [1.0] * 4 + [2.0] * 4 + [20.0]


def test_pad_adjoint_is_restriction():
    dom = build_domain("square", 6)
    for k in (1, 2):
        pad = assemble_pad(dom, k)
        vals = np.arange(float(dom.n_cells))
        restricted = pad.adjoint().apply_raw(vals)
        assert np.array_equal(restricted, vals[dom.ring_cells(k)])
        # pad then restrict is the identity
        back = pad.adjoint().apply_raw(pad.apply_raw(restricted))
        assert np.array_equal(back, restricted)


def test_curl_of_gradient_vanishes_exactly():
    for shape, n in (("square", 6), ("annulus", 8), ("lshape", 6)):
        dom = build_domain(shape, n)
        cat = OperatorCatalog(dom)
        comp = (cat.curl @ cat.gradient).matrix
        comp.eliminate_zeros()
        assert comp.nnz == 0


def test_curl_row_count():
    dom = build_domain("square", 4)
    cat = OperatorCatalog(dom)
    assert cat.curl.shape == (9, 24)  # 3x3 interior vertices, 2*4*3 faces


def quadratic_probe(dom, a, b, c, d, e, f):
    x, y = dom.cell_centers().T
    return a * x**2 + b * x * y + c * y**2 + d * x + e * y + f


def test_hessian_exact_on_quadratics():
    for shape, n in (("square", 5), ("lshape", 6)):
        dom = build_domain(shape, n)
        H = assemble_hessian(dom)
        u = quadratic_probe(dom, 1.5, -2.0, 0.5, 3.0, -1.0, 4.0)
        out = H.apply_raw(u).reshape(-1, 3)
        assert np.allclose(out[:, 0], 3.0, atol=1e-9)   # u_xx = 2a
        assert np.allclose(out[:, 1], -2.0, atol=1e-9)  # u_xy = b
        assert np.allclose(out[:, 2], 1.0, atol=1e-9)   # u_yy = 2c


def test_hessian_kernel_is_affine():
    dom = build_domain("square", 5)
    H = assemble_hessian(dom).to_dense()
    ns = np.linalg.svd(H, compute_uv=False)
    assert (ns < 1e-8 * ns[0]).sum() == 3
    x, y = dom.cell_centers().T
    for u in (np.ones_like(x), x, y):
        assert np.allclose(H @ u, 0.0, atol=1e-9)
    rank = np.linalg.matrix_rank(H, tol=1e-8)
    assert rank == dom.n_cells - 3


def test_hessian_codomain_weights():
    dom = build_domain("square", 4)
    w = dom.hessian_space.weights.reshape(-1, 3)
    assert np.allclose(w[:, 0], dom.h**2)
    assert np.allclose(w[:, 1], 2 * dom.h**2)
    assert np.allclose(w[:, 2], dom.h**2)


def test_hessian_zero_extension_variant():
    dom = build_domain("square", 5)
    Hz = assemble_hessian(dom, zero_extension=True)
    # interior rows match the one-sided assembly, boundary rows differ
    H = assemble_hessian(dom)
    deep = dom.ring_cells(2)
    for k in deep:
        assert np.array_equal(
            Hz.to_dense()[3 * k : 3 * k + 3], H.to_dense()[3 * k : 3 * k + 3]
        )
    # affine fields are no longer annihilated: the mask edge is visible
    x, _ = dom.cell_centers().T
    assert np.linalg.norm(Hz.apply_raw(x)) > 1.0


def test_stencil_reach_errors():
    with pytest.raises(EmptyDomainError):
        assemble_interior_laplacian(build_domain("square", 2))
    with pytest.raises(EmptyDomainError):
        assemble_interior_biharmonic(build_domain("square", 4))
    # depth >= 2 exists but the 13-point stencil pokes through a thin leg
    cells = [(i, j) for i in range(9) for j in range(3)]
    cells += [(4, j) for j in range(3, 9)]
    thin = GridDomain(cells, 1 / 9)
    if thin.ring_cells(2).size:
        with pytest.raises(StencilReachError):
            assemble_interior_biharmonic(thin)


def test_catalog_caches():
    dom = build_domain("square", 4)
    cat = OperatorCatalog(dom)
    assert cat.gradient is cat.gradient
    assert cat.interior_normal is cat.interior_normal
    assert cat.laplacian_mixed.shape == (16, 16)


def test_catalog_laplacians_carry_their_kernels():
    def trivial(kernel):
        return kernel[0] == [] and kernel[1].size == 0

    for dom in (build_domain("square", 8), two_piece_mask(10, 2)):
        cat = OperatorCatalog(dom)
        assert cat.laplacian_neumann.kernel is cat.gradient.kernel
        assert trivial(cat.laplacian_dirichlet.kernel)
        assert trivial(cat.laplacian_mixed.kernel)  # every face Dirichlet
    two_cells = [tuple(c) for c in two_piece_mask(10, 2).cells.tolist()]
    for dom in (build_domain("square", 8, labels={"all": "neumann"}),
                GridDomain(two_cells, 1 / 14, {"all": "neumann"})):
        cat = OperatorCatalog(dom)
        basis, pinned = cat.laplacian_mixed.kernel
        grad_basis, grad_pinned = cat.gradient.kernel
        assert len(basis) == len(grad_basis) == dom.n_components
        assert all(a is b for a, b in zip(basis, grad_basis))
        assert np.array_equal(pinned, grad_pinned)
    # only the small block has no Dirichlet-labelled face
    dom = neumann_small_piece(10, 2)
    cat = OperatorCatalog(dom)
    small = dom.component_labels != dom.component_labels[0]
    basis, pinned = cat.laplacian_mixed.kernel
    assert len(basis) == 1 and np.array_equal(basis[0] != 0, small)
    assert pinned.size == 1 and small[pinned[0]]
    assert np.abs(cat.laplacian_mixed.apply_raw(basis[0])).max() < 1e-9


def test_interior_normal_is_thirteen_point():
    # adjoint(A) A on C1 is the 13-point stencil truncated to C1 rows and
    # columns: every intermediate cell of a C1-to-C1 path is a neighbor of
    # a depth>=1 cell, hence inside the mask, on any shape
    stencil = {
        (0, 0): 20.0,
        (1, 0): -8.0, (-1, 0): -8.0, (0, 1): -8.0, (0, -1): -8.0,
        (1, 1): 2.0, (1, -1): 2.0, (-1, 1): 2.0, (-1, -1): 2.0,
        (2, 0): 1.0, (-2, 0): 1.0, (0, 2): 1.0, (0, -2): 1.0,
    }
    for shape, n in (("square", 6), ("lshape", 8)):
        dom = build_domain(shape, n)
        cat = OperatorCatalog(dom)
        K = cat.interior_normal.to_dense()
        ring1 = dom.ring_cells(1)
        pos = {int(k): c for c, k in enumerate(ring1)}
        h4 = dom.h**4
        expect = np.zeros_like(K)
        for c, k in enumerate(ring1):
            i, j = map(int, dom.cells[k])
            for (di, dj), v in stencil.items():
                kk = (i + di, j + dj)
                if dom.contains(*kk) and int(dom.index_of(*kk)) in pos:
                    expect[pos[int(dom.index_of(*kk))], c] += v / h4
        scale = 20.0 / h4
        assert np.abs(K - expect).max() <= 1e-12 * scale


def coo_gradient(domain, include_boundary=False):
    """The gradient as the COO construction before its CSR arrays were
    written directly."""
    rows, cols, vals = [], [], []
    e = domain.face_cells.shape[0]
    for axis in (0, 1):
        faces = np.flatnonzero(domain.face_axes == axis)
        owners = domain.face_cells[faces, 0]
        at = domain.cells[owners]
        step = (1, 0) if axis == 0 else (0, 1)
        rows += [faces, faces]
        cols += [owners, domain.cell_at(at[:, 0] + step[0], at[:, 1] + step[1])]
        vals += [np.repeat([-1.0, 1.0], faces.size) / domain.h]
    codomain = domain.edge_space
    if include_boundary:
        owners = np.nonzero(domain.neighbors < 0)[0]
        rows.append(e + np.arange(owners.size))
        cols.append(owners)
        vals.append(np.repeat([-np.sqrt(2.0)], owners.size) / domain.h)
        codomain = domain.all_face_space
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(codomain.dim, domain.n_cells),
    )


def assert_same_csr(got, expect, key):
    assert got.shape == expect.shape, key
    assert np.array_equal(got.indptr, expect.indptr), key
    assert np.array_equal(got.indices, expect.indices), key
    assert got.data.tobytes() == expect.data.tobytes(), key


@pytest.mark.parametrize("n", [8, 16, 24, 48])
@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_gradients_and_laplacians_match_the_coo_construction(shape, n):
    dom = build_domain(shape, n, labels={"left": "neumann", "top": "neumann"})
    for boundary in (False, True):
        assert_same_csr(assemble_gradient(dom, boundary).matrix,
                        coo_gradient(dom, boundary), boundary)
    # the Laplacians equal the gradient normal product (plus the penalty)
    # in stored order, though neither product is formed to build them
    reference = SparseOperator(coo_gradient(dom), dom.cell_space, dom.edge_space)
    assert_same_csr(assemble_laplacian(dom, "neumann").matrix,
                    (reference.adjoint() @ reference).matrix, "normal product")
    for kind in ("neumann", "dirichlet", "mixed"):
        assert_same_csr(assemble_laplacian(dom, kind).matrix,
                        ref_laplacian(dom, kind), kind)


def test_gradients_match_the_coo_construction_on_odd_masks():
    for name, dom in golden_domains().items():
        for boundary in (False, True):
            assert_same_csr(assemble_gradient(dom, boundary).matrix,
                            coo_gradient(dom, boundary), (name, boundary))
    single = GridDomain([(0, 0)], 1.0)
    assert assemble_gradient(single).shape == (0, 1)
    assert_same_csr(assemble_gradient(single, True).matrix,
                    coo_gradient(single, True), "single cell")


# -- reference constructions ---------------------------------------------------
# The operators as they were built before their compressed arrays were
# written straight from the neighbor table: Laplacians as the gradient
# normal product plus a diagonal penalty, stencils, pads, Hessians and the
# curl through COO triplets, weighted adjoints through diagonal products.

REF_LAPLACIAN = (((0, 0), 4.0), ((1, 0), -1.0), ((-1, 0), -1.0), ((0, 1), -1.0),
                 ((0, -1), -1.0))
REF_BIHARMONIC = (
    ((0, 0), 20.0),
    ((1, 0), -8.0), ((-1, 0), -8.0), ((0, 1), -8.0), ((0, -1), -8.0),
    ((1, 1), 2.0), ((1, -1), 2.0), ((-1, 1), 2.0), ((-1, -1), 2.0),
    ((2, 0), 1.0), ((-2, 0), 1.0), ((0, 2), 1.0), ((0, -2), 1.0),
)
REF_RUNS = ((-1, 1), (1, 2), (-1, -2))
REF_SECOND = (((-1, 1.0), (0, -2.0), (1, 1.0)),
              ((0, 1.0), (1, -2.0), (2, 1.0)),
              ((-2, 1.0), (-1, -2.0), (0, 1.0)))
REF_FIRST = (((-1, -0.5), (1, 0.5)),
             ((0, -1.5), (1, 2.0), (2, -0.5)),
             ((-2, 0.5), (-1, -2.0), (0, 1.5)))


def ref_triplets(domain, cells, rows, table, scale):
    at = domain.cells[cells]
    cols = [domain.cell_at(at[:, 0] + di, at[:, 1] + dj) for (di, dj), _ in table]
    vals = np.repeat([c for _, c in table], len(cells)) / scale
    return np.tile(rows, len(table)), np.concatenate(cols), vals


def ref_csr(parts, shape):
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def ref_laplacian(domain, kind):
    grad = coo_gradient(domain)
    base = grad.T.tocsr() @ grad
    counts = {"neumann": None, "dirichlet": domain.count_boundary_faces(),
              "mixed": domain.count_boundary_faces("dirichlet")}[kind]
    if counts is not None and counts.any():
        base = base + sp.diags((2.0 / domain.h**2) * counts.astype(float))
    return base.tocsr()


def ref_interior_stencil(domain, k):
    ring = domain.ring_cells(k)
    if ring.size == 0:
        raise EmptyDomainError("no deep cells")
    table, power = ((REF_LAPLACIAN, 2), (REF_BIHARMONIC, 4))[k - 1]
    pos, nb, vals = ref_triplets(domain, ring, np.arange(ring.size), table,
                                 domain.h**power)
    return sp.csr_matrix((vals, (nb, pos)), shape=(domain.n_cells, ring.size))


def ref_pad(domain, k):
    ring = domain.ring_cells(k)
    return sp.csr_matrix((np.ones(ring.size), (ring, np.arange(ring.size))),
                         shape=(domain.n_cells, ring.size))


def ref_curl(domain):
    verts = domain.interior_vertices
    e = domain.face_cells.shape[0]
    face_row = np.full((domain.n_cells, 2), -1, dtype=np.int64)
    face_row[domain.face_cells[:, 0], domain.face_axes] = np.arange(e)
    sw = domain.cell_at(verts[:, 0] - 1, verts[:, 1] - 1)
    parts = []
    for axis, table in ((0, (((0, 0), 1.0), ((0, 1), -1.0))),
                        (1, (((0, 0), -1.0), ((1, 0), 1.0)))):
        rows, owners, vals = ref_triplets(domain, sw, np.arange(sw.size), table,
                                          domain.h)
        parts.append((rows, face_row[owners, axis], vals))
    return ref_csr(parts, (verts.shape[0], e))


def ref_hessian(domain, zero_extension=False):
    def step(axis, t):
        return (t, 0) if axis == 0 else (0, t)

    h2 = domain.h**2
    cells = np.arange(domain.n_cells)
    if zero_extension:
        variants, variant = 1, [np.zeros(domain.n_cells, dtype=np.int64)] * 2
    else:
        variants = 3
        variant = [np.select([(domain.shifted(*step(axis, a)) >= 0)
                              & (domain.shifted(*step(axis, b)) >= 0)
                              for a, b in REF_RUNS], [0, 1, 2], -1)
                   for axis in (0, 1)]
        if (variant[0] < 0).any() or (variant[1] < 0).any():
            raise StencilReachError("a cell has no 3-cell run")
    parts = []
    for v in range(variants):
        for comp, axis in ((0, 0), (2, 1)):
            at = cells[variant[axis] == v]
            table = tuple((step(axis, t), c) for t, c in REF_SECOND[v])
            parts.append(ref_triplets(domain, at, 3 * at + comp, table, h2))
        at = cells[variant[0] == v]
        for ti, ci in REF_FIRST[v]:
            column = variant[1][domain.shifted(ti, 0)[at]]
            for w in range(variants):
                sub = at[column == w]
                table = tuple(((ti, tj), ci * cj) for tj, cj in REF_FIRST[w])
                parts.append(ref_triplets(domain, sub, 3 * sub + 1, table, h2))
    if zero_extension:
        r, c, x = (np.concatenate(a) for a in zip(*parts))
        parts = [(r[c >= 0], c[c >= 0], x[c >= 0])]
    return ref_csr(parts, (3 * domain.n_cells, domain.n_cells))


def ref_adjoint(op):
    wd, wc = op.domain_space.weights, op.codomain_space.weights
    return (sp.diags(1.0 / wd) @ op.matrix.T @ sp.diags(wc)).tocsr()


def reference_domains():
    doms = {f"{shape}{n}": build_domain(shape, n)
            for shape in ("square", "lshape", "annulus") for n in (4, 8, 16, 24, 48)}
    doms.update({f"{shape}{n}_sides": build_domain(
        shape, n, labels={"left": "neumann", "top": "neumann"})
        for shape in ("square", "lshape", "annulus") for n in (8, 16)})
    doms["rectangle10w0.7"] = build_domain("rectangle", 10, width=0.7)
    doms["rectangle10w0.7_sides"] = build_domain("rectangle", 10, width=0.7,
                                                 labels={"bottom": "neumann"})
    doms.update(golden_domains())
    return doms


def same_or_same_refusal(build, reference, key):
    try:
        expect = reference()
    except (EmptyDomainError, StencilReachError) as exc:
        with pytest.raises(type(exc)):
            build()
        return
    assert_same_csr(build(), expect, key)


@pytest.mark.parametrize("name", sorted(reference_domains()))
def test_assembly_matches_the_reference_constructions(name):
    dom = reference_domains()[name]
    for kind in ("neumann", "dirichlet", "mixed"):
        assert_same_csr(assemble_laplacian(dom, kind).matrix,
                        ref_laplacian(dom, kind), kind)
    for k, build in ((1, assemble_interior_laplacian), (2, assemble_interior_biharmonic)):
        same_or_same_refusal(lambda: build(dom).matrix,
                             lambda: ref_interior_stencil(dom, k), ("stencil", k))
        same_or_same_refusal(lambda: build(dom).adjoint().matrix,
                             lambda: ref_interior_stencil(dom, k).T.tocsr(),
                             ("stencil adjoint", k))
        assert_same_csr(assemble_pad(dom, k).matrix, ref_pad(dom, k), ("pad", k))
    for zero in (False, True):
        same_or_same_refusal(lambda: assemble_hessian(dom, zero).matrix,
                             lambda: ref_hessian(dom, zero), ("hessian", zero))
    assert_same_csr(OperatorCatalog(dom).curl.matrix, ref_curl(dom), "curl")


@pytest.mark.parametrize("name", sorted(reference_domains()))
def test_weighted_adjoints_match_the_diagonal_products(name):
    cat = OperatorCatalog(reference_domains()[name])
    ops = {"pad1 then zero-extension Hessian":
           lambda: cat.hessian_zero_extension @ cat.pad1,
           "zero-extension Hessian": lambda: cat.hessian_zero_extension,
           "one-sided Hessian": lambda: cat.hessian}
    for key, build in ops.items():
        try:
            op = build()
        except StencilReachError:
            continue
        assert_same_csr(op.adjoint().matrix, ref_adjoint(op), key)
        # non-uniform weights on the domain side: the adjoint's adjoint
        back = SparseOperator(ref_adjoint(op), op.codomain_space, op.domain_space)
        assert_same_csr(back.adjoint().matrix, ref_adjoint(back), (key, "back"))


def test_weighted_adjoint_of_a_hand_built_matrix_matches_the_diagonal_products():
    # (0, 1) is stored twice, (1, 2) twice with cancelling values, (2, 0)
    # as an explicit zero: the products sum the first, drop the other two
    dom = DofSpace("d", 3, np.array([0.5, 3.0, 0.125]))
    cod = DofSpace("c", 3, np.array([0.1, 7.0, 0.3]))
    data = np.array([1.0 / 3, 2.5, 0.7, -0.7, 0.0, 1e-3, 5.0])
    indices = np.array([1, 1, 2, 2, 0, 1, 2])
    indptr = np.array([0, 2, 4, 7])
    op = SparseOperator(sp.csr_matrix((data, indices, indptr), shape=(3, 3)), dom, cod)
    assert op.matrix.nnz == 7
    assert_same_csr(op.adjoint().matrix, ref_adjoint(op), "hand-built")
    assert op.adjoint().matrix.nnz == 3
