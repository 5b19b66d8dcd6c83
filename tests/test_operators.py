import numpy as np
import pytest
import scipy.sparse as sp

from bizoo import (
    EmptyDomainError,
    GridDomain,
    OperatorCatalog,
    SparseOperator,
    StencilReachError,
    build_domain,
)
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
    reference = SparseOperator(coo_gradient(dom), dom.cell_space, dom.edge_space)
    for kind in ("neumann", "dirichlet", "mixed"):
        assert_same_csr(assemble_laplacian(dom, kind).matrix,
                        assemble_laplacian(dom, kind, reference).matrix, kind)


def test_gradients_match_the_coo_construction_on_odd_masks():
    for name, dom in golden_domains().items():
        for boundary in (False, True):
            assert_same_csr(assemble_gradient(dom, boundary).matrix,
                            coo_gradient(dom, boundary), (name, boundary))
    single = GridDomain([(0, 0)], 1.0)
    assert assemble_gradient(single).shape == (0, 1)
    assert_same_csr(assemble_gradient(single, True).matrix,
                    coo_gradient(single, True), "single cell")
