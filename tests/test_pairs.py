import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from bizoo import (
    BizooError,
    CompatibilityError,
    DualPair,
    Field,
    OperatorCatalog,
    SolverConfig,
    SparseOperator,
    best_constant,
    build_domain,
    helmholtz_decompose,
    make_pair,
    project_range,
    reduced_solve,
)
from bizoo import linalg
from bizoo import pairs as pairs_module
from bizoo.grid import DofSpace
from bizoo.pairs import DENSE_SVD_LIMIT, _discover_kernel
from test_linalg import two_piece_mask
from test_operator_golden import golden_domains


def rng(seed=0):
    return np.random.default_rng(seed)


def test_make_pair_rejects_corrupted_adjoint():
    dom = build_domain("square", 4)
    cat = OperatorCatalog(dom)
    op = cat.gradient
    # corrupt the cached adjoint so the probe identity fails
    bad = SparseOperator(
        op.adjoint().matrix.copy(), op.codomain_space, op.domain_space
    )
    bad.matrix[0, 0] += 1.0
    op._adjoint = None  # fresh operator object with a lying adjoint
    broken = SparseOperator(op.matrix, op.domain_space, op.codomain_space)
    broken._adjoint = bad
    with pytest.raises(BizooError):
        make_pair(broken)
    make_pair(op)  # the honest one passes


def bare(op):
    """op without the kernel the catalog gives it."""
    return SparseOperator(op.matrix, op.domain_space, op.codomain_space)


def test_kernel_discovery_dense_matches_svd():
    dom = build_domain("square", 5)
    cat = OperatorCatalog(dom)
    pair = make_pair(bare(cat.hessian))
    basis = pair.kernel_basis("forward")
    assert len(basis) == 3
    # discovered basis spans the affine fields
    x, y = dom.cell_centers().T
    space = dom.cell_space
    for v in (np.ones_like(x), x, y):
        residual = v.copy()
        for b in basis:
            residual -= space.inner(b, residual) * b
        assert space.norm(residual) < 1e-10 * space.norm(v)


def test_harmonic_kernel_dimension_rank_nullity():
    # kernel of adjoint(A) has dim |C0| - |C1|: A is injective
    for shape, n in (("square", 6), ("lshape", 6), ("annulus", 8)):
        dom = build_domain(shape, n)
        cat = OperatorCatalog(dom)
        pair = make_pair(cat.interior_laplacian)
        assert pair.kernel_basis("forward") == []
        harmonics = pair.kernel_basis("adjoint")
        assert len(harmonics) == dom.n_cells - dom.ring_cells(1).size


def test_kernel_hint_gate():
    dom = build_domain("square", 4)
    cat = OperatorCatalog(dom)
    with pytest.raises(BizooError):
        pair = make_pair(cat.gradient, kernel_forward=[np.arange(16.0)])
        pair.kernel_basis("forward")
    ok = make_pair(cat.gradient, kernel_forward=[np.ones(16)])
    assert len(ok.kernel_basis("forward")) == 1


def test_best_constant_against_dense_eigenvalue():
    n = 8
    dom = build_domain("square", n)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.gradient_dirichlet, kernel_forward=())
    c = best_constant(pair)
    h = 1.0 / n
    lam1 = 2 * (2 - 2 * np.cos(np.pi * h)) / h**2
    assert c == pytest.approx(1.0 / np.sqrt(lam1), rel=1e-12)


def test_best_constant_swap_symmetry():
    dom = build_domain("square", 6)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.gradient_dirichlet, kernel_forward=())
    c = best_constant(pair, check_swapped=True)
    assert c > 0
    swapped = best_constant(pair.swapped())
    assert swapped == pytest.approx(c, rel=1e-8)


def test_swapped_pair_shares_hints(monkeypatch):
    dom = build_domain("square", 5)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.gradient, kernel_forward=[np.ones(dom.n_cells)])
    sw = pair.swapped()
    assert len(sw.kernel_basis("adjoint")) == 1
    assert pair.swapped() is sw  # built once, kernels found once
    assert sw.kernel_basis("adjoint") is pair.kernel_basis("forward")
    assert sw.kernel_basis("forward") is pair.kernel_basis("adjoint")
    # an operator without a catalog kernel is discovered once for both
    calls = []

    def counting(op):
        calls.append(op)
        return _discover_kernel(op)

    monkeypatch.setattr(pairs_module, "_discover_kernel", counting)
    hess = make_pair(bare(cat.hessian))
    assert hess.kernel_basis("forward") is hess.swapped().kernel_basis("adjoint")
    assert hess.swapped().kernel_basis("forward") is hess.kernel_basis("adjoint")
    assert calls == [hess.forward, hess.adjoint]


@pytest.mark.parametrize("shape", ["square", "annulus"])
def test_an_eigensolved_pair_projects_on_the_same_factor(monkeypatch, shape):
    # best_constant keeps the factor of the normal operator in the pair's
    # dict, so the range projections and a swapped best constant that
    # follow build none; the answers are those of a fresh pair's
    cat = OperatorCatalog(build_domain(shape, 12))
    edges = cat.gradient.codomain_space
    g = Field(edges, rng(5).normal(size=edges.dim))
    fresh_inside, _ = project_range(make_pair(cat.gradient), g)
    built = []
    init = linalg._BandedCholesky.__init__

    def counting(self, op, pinned, name):
        built.append(op)
        init(self, op, pinned, name)

    monkeypatch.setattr(linalg._BandedCholesky, "__init__", counting)
    pair = make_pair(cat.gradient)
    c = best_constant(pair, check_swapped=shape == "square")
    assert built == [pair.normal("forward")] + [pair.normal("adjoint")] * (shape == "square")
    inside, _ = project_range(pair, g)
    project_range(pair, inside)
    assert len(built) == 1 + (shape == "square")
    assert list(pair.factors) == built
    assert inside.values.tobytes() == fresh_inside.values.tobytes()
    assert c == best_constant(make_pair(cat.gradient))


def test_project_range_reproduces_dense_svd_projector():
    dom = build_domain("square", 6)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.interior_laplacian)
    g = Field(dom.cell_space, rng(1).normal(size=dom.n_cells))
    inside, rem = project_range(pair, g, SolverConfig(rel_tolerance=1e-13))
    # dense oracle: orthogonal projector onto range(A) in the weighted
    # metric; uniform weights make it the plain SVD projector
    A = cat.interior_laplacian.to_dense()
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    Ur = U[:, s > 1e-12 * s[0]]
    expect = Ur @ (Ur.T @ g.values)
    assert np.allclose(inside.values, expect, atol=1e-9)
    assert np.allclose(inside.values + rem.values, g.values, atol=1e-14)
    assert abs(dom.cell_space.inner(inside.values, rem.values)) < 1e-12
    # idempotence and symmetry through a second application
    again, _ = project_range(pair, inside, SolverConfig(rel_tolerance=1e-13))
    assert np.allclose(again.values, inside.values, atol=1e-9)


def test_reduced_solve_least_squares_and_min_norm():
    dom = build_domain("square", 5)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.interior_laplacian)
    A = cat.interior_laplacian.to_dense()
    g = rng(2).normal(size=dom.n_cells)
    lsq = reduced_solve(pair, "least_squares", Field(dom.cell_space, g),
                        SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.lstsq(A, g, rcond=None)[0]
    assert np.allclose(lsq.field.values, expect, atol=1e-9)

    ring = dom.ring_cells(1)
    b = rng(3).normal(size=ring.size)
    mn = reduced_solve(pair, "min_norm", Field(dom.ring_space(1), b),
                       SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.pinv(A.T) @ b
    assert np.allclose(mn.field.values, expect, atol=1e-9)
    with pytest.raises(ValueError):
        reduced_solve(pair, "backward", Field(dom.ring_space(1), b))


def test_reduced_solve_compat_gate():
    dom = build_domain("square", 5)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.gradient, kernel_forward=[np.ones(dom.n_cells)])
    with pytest.raises(CompatibilityError) as err:
        reduced_solve(pair, "normal", dom.cell_space.ones())
    assert err.value.subspace == "ker(forward)"


def test_helmholtz_square_has_no_cohomology():
    dom = build_domain("square", 8)
    cat = OperatorCatalog(dom)
    grad = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
    curl = make_pair(cat.curl)
    g = Field(dom.edge_space, rng(4).normal(size=dom.edge_space.dim))
    split = helmholtz_decompose(grad, curl, g)
    assert split.dims["cohomology"] == 0
    assert split.dims["edges"] == dom.edge_space.dim
    assert split.reconstruction_error() < 1e-10 * g.norm()
    es = dom.edge_space
    for a, b in (
        (split.gradient_part, split.curl_part),
        (split.gradient_part, split.cohomology_part),
        (split.curl_part, split.cohomology_part),
    ):
        assert abs(es.inner(a.values, b.values)) < 1e-10 * g.norm() ** 2
    assert es.norm(split.cohomology_part.values) < 1e-8 * g.norm()


def test_helmholtz_annulus_carries_one_loop():
    dom = build_domain("annulus", 8)
    cat = OperatorCatalog(dom)
    grad = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
    curl = make_pair(cat.curl)
    g = Field(dom.edge_space, rng(5).normal(size=dom.edge_space.dim))
    split = helmholtz_decompose(grad, curl, g)
    assert split.dims["cohomology"] == 1
    assert split.reconstruction_error() < 1e-10 * g.norm()
    # euler arithmetic: dims partition the edge space
    assert (
        split.dims["gradient"] + split.dims["cohomology"] + split.dims["curl"]
        == split.dims["edges"]
    )
    # the middle component is curl-free and divergence-free
    mid = split.cohomology_part
    assert cat.curl.codomain_space.norm(cat.curl.apply_raw(mid.values)) \
        < 1e-8 * g.norm()
    div = cat.gradient.adjoint()
    assert dom.cell_space.norm(div.apply_raw(mid.values)) < 1e-8 * g.norm()


def test_helmholtz_requires_complex_property():
    dom = build_domain("square", 5)
    cat = OperatorCatalog(dom)
    grad = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
    # a fake "curl" that does not annihilate gradients
    fake = make_pair(
        SparseOperator(
            sp.csr_matrix(rng(6).normal(size=(3, dom.edge_space.dim))),
            dom.edge_space,
            DofSpace("V", 3, np.full(3, dom.h**2)),
        )
    )
    g = Field(dom.edge_space, rng(7).normal(size=dom.edge_space.dim))
    with pytest.raises(BizooError):
        helmholtz_decompose(grad, fake, g)


def test_helmholtz_dims_match_rank_arithmetic():
    # rank-arithmetic middle dimension equals the nullity of the stacked
    # operator [curl; divergence], found by a dense SVD
    for shape, n in (("square", 6), ("annulus", 8)):
        dom = build_domain(shape, n)
        cat = OperatorCatalog(dom)
        grad = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
        curl = make_pair(cat.curl)
        g = Field(dom.edge_space, rng(8).normal(size=dom.edge_space.dim))
        split = helmholtz_decompose(grad, curl, g)
        stacked = np.vstack([curl.forward.to_dense(), grad.adjoint.to_dense()])
        svals = np.linalg.svd(stacked, compute_uv=False)
        rank = int((svals > 1e-10 * svals[0]).sum())
        assert split.dims["cohomology"] == split.dims["edges"] - rank
        assert split.dims["cohomology"] == dom.n_holes


def multi_piece_domains():
    return {"two_blocks": two_piece_mask(10, 2),
            "two_piece_negative": golden_domains()["two_piece_negative"]}


@pytest.mark.parametrize("name", sorted(multi_piece_domains()))
@pytest.mark.parametrize("hint", [None, "ones"])
def test_multi_piece_helmholtz_counts_every_piece(name, hint):
    dom = multi_piece_domains()[name]
    assert dom.n_components == 2
    cat = OperatorCatalog(dom)
    grad = make_pair(cat.gradient, kernel_forward=(
        None if hint is None else [dom.cell_space.ones()]))
    curl = make_pair(cat.curl)
    assert len(grad.kernel_basis("forward")) == 2
    g = Field(dom.edge_space, rng(9).normal(size=dom.edge_space.dim))
    split = helmholtz_decompose(grad, curl, g)
    assert split.dims == {
        "gradient": dom.n_cells - 2,
        "cohomology": dom.n_holes,
        "curl": dom.vertex_space.dim,
        "edges": dom.edge_space.dim,
    }
    assert split.reconstruction_error() < 1e-10 * g.norm()
    # the curl part is divergence-free on every piece
    div = cat.gradient.adjoint()
    assert dom.cell_space.norm(div.apply_raw(split.curl_part.values)) < 1e-8 * g.norm()


@pytest.mark.parametrize("name", sorted(multi_piece_domains()))
def test_multi_piece_poincare_constant_against_dense_oracle(name):
    dom = multi_piece_domains()[name]
    cat = OperatorCatalog(dom)
    # uniform weights: the Neumann Laplacian is plain symmetric
    vals = np.linalg.eigvalsh(cat.laplacian_neumann.to_dense())
    assert vals[1] < 1e-10 * vals[-1] < vals[2]  # one constant per piece
    c_p = best_constant(make_pair(cat.gradient))
    assert c_p == pytest.approx(1 / np.sqrt(vals[2]), rel=1e-10)


def test_kernel_hint_must_lie_in_the_operator_kernel():
    dom = two_piece_mask(10, 2)
    cat = OperatorCatalog(dom)
    op = SparseOperator(cat.gradient.matrix, dom.cell_space, dom.edge_space)
    basis, pinned = cat.gradient.kernel
    op.kernel = (basis[:1], pinned[:1])  # the big block's constant only
    with pytest.raises(BizooError, match="outside the operator's kernel"):
        make_pair(op, kernel_forward=[dom.cell_space.ones()]).kernel_basis()
    assert make_pair(op, kernel_forward=[basis[0]]).kernel_basis() is op.kernel[0]


def test_kernel_hint_lands_on_the_normal_operator():
    dom = build_domain("square", 6)
    grad = OperatorCatalog(dom).gradient
    op = SparseOperator(grad.matrix, dom.cell_space, dom.edge_space)
    pair = make_pair(op, kernel_forward=[dom.cell_space.ones()])
    basis = pair.kernel_basis()
    assert len(basis) == 1
    assert op.kernel is None and op.adjoint().kernel is None
    assert pair.normal().kernel[0] is basis
    assert pair.swapped().kernel_basis("adjoint") is basis


@pytest.mark.parametrize("shape,n", [("square", 16), ("annulus", 32)])
def test_project_range_of_a_divergence_free_field(shape, n):
    # A* g is rounding only, with a kernel component of its own size:
    # projected off the kernel, it passes the solve's gate
    cat = OperatorCatalog(build_domain(shape, n))
    psi = rng(14).normal(size=cat.domain.vertex_space.dim)
    g = Field(cat.domain.edge_space, cat.curl.adjoint().apply_raw(psi))
    inside, rest = project_range(make_pair(cat.gradient), g)
    assert inside.norm() <= 1e-14 * g.norm()
    assert (rest - g).norm() <= 1e-14 * g.norm()


@pytest.mark.parametrize("name", sorted(multi_piece_domains()) + ["five_by_five_twice"])
def test_incomplete_kernel_is_refused(name):
    # a user operator hinted with the global constant misses one piece's
    # constant.  Whatever the piece sizes, the constant is refused, and so
    # are the solves, whose factor leaves that piece unpinned: its last
    # pivot comes out negative (two blocks) or at rounding level (five by
    # five twice)
    if name == "five_by_five_twice":
        dom = two_piece_mask(5, 5)
    else:
        dom = multi_piece_domains()[name]
    grad = OperatorCatalog(dom).gradient
    bare = SparseOperator(grad.matrix, dom.cell_space, dom.edge_space)
    space = dom.cell_space
    ones = space.ones().values
    pair = make_pair(bare, kernel_forward=[ones])
    assert len(pair.kernel_basis()) == 1
    with pytest.raises(BizooError, match="incomplete"):
        best_constant(pair)
    g = Field(dom.edge_space, rng(12).normal(size=dom.edge_space.dim))
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        project_range(pair, g)
    b = rng(13).normal(size=dom.n_cells)
    b -= space.inner(b, ones) / space.inner(ones, ones) * ones
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        reduced_solve(pair, "normal", Field(space, b))
    assert pair.factors == {}


CROSS_CHECK_KEYS = ("gradient", "gradient_dirichlet", "interior_laplacian", "curl*")


def cross_check_domains():
    doms = {f"golden_{k}": (lambda k=k: golden_domains()[k]) for k in golden_domains()}
    for shape in ("square", "lshape", "annulus"):
        for n in (8, 16, 48):
            doms[f"{shape}{n}"] = lambda shape=shape, n=n: build_domain(shape, n)
    return doms


def lowest_eigenvectors_found_zero(op, basis):
    """Oracle kernel above the dense limit: the eigenvectors of the
    W^(1/2)-symmetrized normal matrix, among its lowest len(basis) + 2 by
    shift-invert eigsh, whose eigenvalue is zero to 1e-10 of its
    row-sum bound."""
    normal = op.adjoint() @ op
    s = np.sqrt(op.domain_space.weights)
    sym = sp.diags(s) @ normal.matrix @ sp.diags(1.0 / s)
    sym = (0.5 * (sym + sym.T)).tocsc()
    bound = abs(sym).sum(axis=1).max()
    vals, vecs = eigsh(sym, k=len(basis) + 2, sigma=-1e-3 * sym.diagonal().mean(),
                       which="LM", v0=np.ones(sym.shape[0]))
    return [vecs[:, i] / s for i in range(vals.size) if vals[i] <= 1e-10 * bound]


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_hessian_and_bilaplacian_pairs_use_their_catalog_kernels(monkeypatch, shape):
    # 1024 or fewer unknowns, past the dense SVD limit: a pair that had to
    # discover its kernel would refuse
    def refuse(op):
        raise AssertionError("kernel discovery was called")

    monkeypatch.setattr(pairs_module, "_discover_kernel", refuse)
    dom = build_domain(shape, 32)
    cat = OperatorCatalog(dom)
    for op, dim in ((cat.hessian, 3 * dom.n_components), (cat.interior_biharmonic, 0)):
        assert op.domain_space.dim > DENSE_SVD_LIMIT
        pair = make_pair(op)
        assert len(pair.kernel_basis("forward")) == dim
        assert best_constant(pair) > 0
    assert cat.hessian_normal.kernel is cat.hessian.kernel


@pytest.mark.parametrize("name", ["square8", "lshape8", "annulus16",
                                  "rectangle6w2", "two_piece_negative"])
def test_catalog_hessian_kernel_spans_the_discovered_one(name):
    dom = golden_domains()[name]
    h = OperatorCatalog(dom).hessian
    basis, pinned = h.kernel
    found = _discover_kernel(bare(h))
    assert len(found) == len(basis) == len(pinned) == 3 * dom.n_components
    for v in found:
        rest = v.copy()
        for b in basis:
            rest -= dom.cell_space.inner(b, rest) * b
        assert dom.cell_space.norm(rest) < 1e-8


@pytest.mark.parametrize("name", sorted(cross_check_domains()))
def test_catalog_kernels_match_discovered_ones(name):
    dom = cross_check_domains()[name]()
    cat = OperatorCatalog(dom)
    ops = dict(zip(CROSS_CHECK_KEYS, (cat.gradient, cat.gradient_dirichlet,
                                      cat.interior_laplacian, cat.curl.adjoint())))
    for key, op in ops.items():
        basis, pinned = op.kernel
        if op.domain_space.dim <= DENSE_SVD_LIMIT:
            found = _discover_kernel(op)
        else:
            found = lowest_eigenvectors_found_zero(op, basis)
        assert len(found) == len(basis) == len(pinned), key
        space = op.domain_space
        for v in found:
            rest = v.copy()
            for b in basis:
                rest -= space.inner(b, rest) * b
            assert space.norm(rest) < 1e-8, key
        if basis:
            # no kernel vector vanishes on every pinned cell
            restricted = np.array(basis)[:, pinned]
            assert np.linalg.cond(restricted) < 1e8, key
    assert len(ops["gradient"].kernel[0]) == dom.n_components
    # Euler count: the harmonic edge fields are the holes
    rank_grad = dom.n_cells - len(ops["gradient"].kernel[0])
    rank_curl = dom.vertex_space.dim - len(ops["curl*"].kernel[0])
    assert dom.edge_space.dim - rank_grad - rank_curl == dom.n_holes
