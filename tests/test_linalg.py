import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from bizoo import (
    BizooError,
    CompatibilityError,
    ConvergenceFailure,
    Field,
    OperatorCatalog,
    SolverConfig,
    SparseOperator,
    SpaceMismatchError,
    best_constant,
    build_domain,
    cg_solve,
    deflated_cg_solve,
    direct_solve,
    identity_operator,
    make_pair,
    normal_cg_solve,
    orthonormalize,
    smallest_eigenpairs,
)
from bizoo import linalg
from bizoo.grid import DofSpace, GridDomain
from bizoo.pairs import DENSE_SVD_LIMIT
from augmented_reference import augmented_reference
from test_operator_golden import golden_domains


def rng(seed=0):
    return np.random.default_rng(seed)


def uniform_space(name, dim, w=1.0):
    return DofSpace(name, dim, np.full(dim, w))


def kernel_less(op, kernel=None):
    """A copy of op that carries the given kernel instead of its own."""
    bare = SparseOperator(op.matrix, op.domain_space, op.codomain_space)
    bare.kernel = kernel
    return bare


def test_adjoint_uniform_weights_is_plain_transpose():
    a = uniform_space("a", 4, 0.25)
    b = uniform_space("b", 3, 0.25)
    mat = sp.csr_matrix(rng(1).normal(size=(3, 4)))
    op = SparseOperator(mat, a, b)
    adj = op.adjoint()
    assert np.array_equal(adj.to_dense(), mat.toarray().T)


def test_adjoint_identity_nonuniform_weights():
    dom = build_domain("square", 4)
    a = dom.cell_space
    b = dom.hessian_space  # mixed component carries weight 2
    mat = sp.csr_matrix(rng(2).normal(size=(b.dim, a.dim)))
    op = SparseOperator(mat, a, b)
    adj = op.adjoint()
    g = rng(3)
    for _ in range(5):
        u = g.normal(size=a.dim)
        v = g.normal(size=b.dim)
        lhs = b.inner(mat @ u, v)
        rhs = a.inner(u, adj.apply_raw(v))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_adjoint_is_cached_involution():
    dom = build_domain("square", 3)
    op = identity_operator(dom.cell_space)
    assert op.adjoint().adjoint() is op


def test_adjoint_link_forms_no_reference_cycle():
    import gc
    import weakref

    a, b = uniform_space("a", 4), uniform_space("b", 3)
    mat = sp.csr_matrix(np.arange(12.0).reshape(3, 4))
    gc.disable()
    try:
        op = SparseOperator(mat, a, b)
        adj = op.adjoint()
        assert adj.adjoint() is op
        dead = weakref.ref(adj)
        del op, adj  # freed by reference counting alone
        assert dead() is None
        # an adjoint outliving its operator rebuilds an equal one
        adj = SparseOperator(mat, a, b).adjoint()
        assert (adj.adjoint().matrix != mat).nnz == 0
        assert adj.adjoint() is adj.adjoint()
    finally:
        gc.enable()


def test_shape_guard():
    a = uniform_space("a", 4)
    b = uniform_space("b", 3)
    with pytest.raises(SpaceMismatchError):
        SparseOperator(sp.identity(4), a, b)
    op = SparseOperator(sp.csr_matrix(np.ones((3, 4))), a, b)
    with pytest.raises(SpaceMismatchError):
        op.apply(Field(b, np.zeros(3)))
    with pytest.raises(SpaceMismatchError):
        op @ op


def test_a_csr_matrix_is_kept_and_other_formats_become_csr():
    a = uniform_space("a", 4)
    b = uniform_space("b", 3)
    m = sp.csr_matrix(np.arange(12.0).reshape(3, 4))
    assert SparseOperator(m, a, b).matrix is m
    op = SparseOperator(m.tocsc(), a, b)
    assert isinstance(op.matrix, sp.csr_matrix)
    assert np.array_equal(op.to_dense(), m.toarray())


def test_cg_matches_dense_solve():
    space = uniform_space("s", 5, 0.3)
    m = rng(4).normal(size=(5, 5))
    spd = m @ m.T + 5 * np.eye(5)
    op = SparseOperator(sp.csr_matrix(spd), space, space)
    b = Field(space, rng(5).normal(size=5))
    res = cg_solve(op, b, SolverConfig(rel_tolerance=1e-13))
    exact = np.linalg.solve(spd, b.values)
    assert np.allclose(res.field.values, exact, atol=1e-11)
    assert res.residual_norm <= 1e-13 * b.norm()
    assert res.residual_history[0] == pytest.approx(b.norm())


def test_cg_iteration_budget_raises(monkeypatch):
    dom = build_domain("square", 8)
    diag = sp.diags(np.linspace(1.0, 1e6, dom.n_cells))
    op = SparseOperator(diag, dom.cell_space, dom.cell_space)
    b = Field(dom.cell_space, rng(6).normal(size=dom.n_cells))
    # a budget of 3 iterations on the 64 unknowns
    monkeypatch.setattr(linalg, "_CG_ITERATIONS_PER_UNKNOWN", 3 / dom.n_cells)
    with pytest.raises(ConvergenceFailure) as err:
        cg_solve(op, b, SolverConfig(rel_tolerance=1e-12))
    assert len(err.value.residual_history) >= 1


def test_cg_rejects_indefinite():
    space = uniform_space("s", 3)
    op = SparseOperator(sp.diags([1.0, -1.0, 2.0]), space, space)
    b = Field(space, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(BizooError):
        cg_solve(op, b)


def test_deflated_cg_matches_pseudoinverse():
    # singular operator with known kernel: graph Laplacian of a path
    dim = 6
    space = uniform_space("s", dim, 0.5)
    lap = (
        np.diag(np.r_[1.0, np.full(dim - 2, 2.0), 1.0])
        - np.diag(np.ones(dim - 1), 1)
        - np.diag(np.ones(dim - 1), -1)
    )
    op = SparseOperator(sp.csr_matrix(lap), space, space)
    ones = np.ones(dim)
    b_vals = rng(7).normal(size=dim)
    b_vals -= b_vals.mean()  # compatible data
    res = deflated_cg_solve(op, Field(space, b_vals), [ones],
                            SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.pinv(lap) @ b_vals
    assert np.allclose(res.field.values, expect, atol=1e-11)
    assert abs(res.field.values.mean()) < 1e-13


def test_deflated_cg_compatibility_gate():
    dim = 5
    space = uniform_space("s", dim)
    lap = np.diag(np.full(dim, 2.0)) - np.diag(np.ones(dim - 1), 1) \
        - np.diag(np.ones(dim - 1), -1)
    lap[0, 0] = lap[-1, -1] = 1.0
    op = SparseOperator(sp.csr_matrix(lap), space, space)
    with pytest.raises(CompatibilityError) as err:
        deflated_cg_solve(op, Field(space, np.ones(dim)), [np.ones(dim)])
    assert err.value.defect > 0
    # tiny kernel components pass the gate and report the defect
    b = rng(8).normal(size=dim)
    b -= b.mean()
    b += 1e-12
    res = deflated_cg_solve(op, Field(space, b), [np.ones(dim)])
    assert 0 < res.compatibility_defect < 1e-10


def construction_sites(class_name):
    """(file, innermost enclosing function) of every call to class_name in
    the package's source."""
    sites = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (walk is outside-in)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        sites += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and class_name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return sites


def test_compatibility_error_is_constructed_by_the_gate_alone():
    # every range and kernel verdict goes through linalg.compatibility_gate
    assert construction_sites("CompatibilityError") == [
        ("linalg.py", "compatibility_gate")]


def test_every_inversion_is_a_banded_factor():
    # direct_solve and the eigensolver build the package's only factors;
    # no sparse LU is left in it
    assert sorted(construction_sites("_BandedCholesky")) == [
        ("linalg.py", "direct_solve"), ("linalg.py", "smallest_eigenpairs")]
    for path in Path(linalg.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "splu" not in text and "_AugmentedLU" not in text, path.name


def test_solver_config_validation():
    assert SolverConfig().rel_tolerance == 1e-10
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=2.0)
    assert linalg._CG_ITERATIONS_PER_UNKNOWN * 100 == 2000


def test_normal_cg_least_squares():
    # overdetermined tall system, compare with lstsq
    dom_s = uniform_space("x", 3, 0.2)
    cod_s = uniform_space("y", 6, 0.2)
    mat = rng(9).normal(size=(6, 3))
    op = SparseOperator(sp.csr_matrix(mat), dom_s, cod_s)
    b = Field(cod_s, rng(10).normal(size=6))
    res = normal_cg_solve(op, b, "least_squares", SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.lstsq(mat, b.values, rcond=None)[0]
    assert np.allclose(res.field.values, expect, atol=1e-10)


def test_normal_cg_min_norm():
    # underdetermined through the adjoint: x = pinv(M*) b, x in range(M)
    dom_s = uniform_space("x", 6, 0.2)
    cod_s = uniform_space("y", 3, 0.2)
    mat = rng(11).normal(size=(3, 6))
    op = SparseOperator(sp.csr_matrix(mat.T), cod_s, dom_s)
    b = Field(cod_s, rng(12).normal(size=3))
    res = normal_cg_solve(op, b, "min_norm", SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.pinv(mat) @ b.values
    assert np.allclose(res.field.values, expect, atol=1e-10)
    with pytest.raises(ValueError):
        normal_cg_solve(op, b, "both")


def test_orthonormalize_drops_dependent():
    space = uniform_space("s", 4, 0.1)
    v1 = np.array([1.0, 0, 0, 0])
    basis = orthonormalize([v1, 2 * v1, np.array([1.0, 1, 0, 0])], space)
    assert len(basis) == 2
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert space.inner(a, b) == pytest.approx(float(i == j), abs=1e-13)
    assert orthonormalize([np.zeros(4)], space) == []


def analytic_dirichlet_eigenvalue(n, k=1, m=1):
    # 1D second-difference eigenvalue with zero extension: (2-2cos(k pi h))/h^2
    h = 1.0 / n
    lam = lambda k_: (2 - 2 * np.cos(k_ * np.pi * h)) / h**2
    return lam(k) + lam(m)


def test_eigenpairs_dense_against_analytic():
    from bizoo import OperatorCatalog

    n = 8
    dom = build_domain("square", n)
    op = OperatorCatalog(dom).laplacian_dirichlet
    pairs = smallest_eigenpairs(op, 3)
    assert pairs[0][0] == pytest.approx(analytic_dirichlet_eigenvalue(n, 1, 1), rel=1e-12)
    assert pairs[1][0] == pytest.approx(analytic_dirichlet_eigenvalue(n, 2, 1), rel=1e-12)
    assert pairs[2][0] == pytest.approx(analytic_dirichlet_eigenvalue(n, 1, 2), rel=1e-12)
    lam, vec = pairs[0]
    assert vec.norm() == pytest.approx(1.0)
    assert op.apply(vec).values == pytest.approx(lam * vec.values, abs=1e-9)


def test_eigenpairs_sparse_path_matches_dense():
    from bizoo import OperatorCatalog

    n = 21
    dom = build_domain("square", n)
    op = OperatorCatalog(dom).laplacian_dirichlet
    pairs = smallest_eigenpairs(op, 2)
    assert pairs[0][0] == pytest.approx(analytic_dirichlet_eigenvalue(n, 1, 1), rel=1e-10)
    assert pairs[1][0] == pytest.approx(analytic_dirichlet_eigenvalue(n, 2, 1), rel=1e-10)


def test_eigenpairs_count_stops_one_short_of_the_dimension():
    op = OperatorCatalog(build_domain("square", 6)).laplacian_dirichlet
    dim = op.shape[0]
    with pytest.raises(ValueError, match=f"at most {dim - 1}"):
        smallest_eigenpairs(op, dim)
    vals = np.linalg.eigvalsh(op.to_dense())  # uniform weights: symmetric
    lams = [lam for lam, _ in smallest_eigenpairs(op, dim - 1)]
    assert lams == pytest.approx(vals[: dim - 1], rel=1e-10)


def test_a_singular_operator_without_a_kernel_is_refused():
    # None means no kernel, so the constants leave the factor singular
    op = kernel_less(OperatorCatalog(build_domain("square", 8)).laplacian_neumann)
    b = Field(op.domain_space, rng(3).normal(size=op.shape[0]))
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        smallest_eigenpairs(op, 1)
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        direct_solve(op, b)


@pytest.mark.parametrize("shape,n", [("square", 21), ("annulus", 32)])
def test_eigenpairs_sparse_path_without_a_kernel(shape, n):
    # above the dense SVD limit a kernel is neither found nor guessed
    op = OperatorCatalog(build_domain(shape, n)).laplacian_neumann
    bare = kernel_less(op)
    assert bare.shape[0] > DENSE_SVD_LIMIT
    b = Field(bare.domain_space, rng(3).normal(size=bare.shape[0]))
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        smallest_eigenpairs(bare, 1)
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        direct_solve(bare, b)
    with pytest.raises(BizooError, match="pass a kernel$"):
        make_pair(bare).kernel_basis()
    # passed the constants, the same operator gives the dense spectrum
    basis = orthonormalize([op.domain_space.ones()], op.domain_space)
    vals = np.linalg.eigvalsh(op.to_dense())  # uniform weights: symmetric
    with_kernel = kernel_less(op, (basis, linalg.pivoted_pins(basis)))
    lams = [lam for lam, _ in smallest_eigenpairs(with_kernel, 3)]
    assert lams == pytest.approx(vals[1:4], rel=1e-10)


def test_eigenpairs_kernel_filter_and_sign():
    from bizoo import OperatorCatalog

    n = 6
    dom = build_domain("square", n)
    op = OperatorCatalog(dom).laplacian_neumann
    ones = dom.cell_space.ones()
    basis = orthonormalize([ones], dom.cell_space)
    op = kernel_less(op, (basis, linalg.pivoted_pins(basis)))
    pairs = smallest_eigenpairs(op, 1)
    lam, vec = pairs[0]
    # first nonzero Neumann eigenvalue: 1D mode (1, 0)
    h = 1.0 / n
    assert lam == pytest.approx((2 - 2 * np.cos(np.pi * h)) / h**2, rel=1e-12)
    assert abs(dom.cell_space.inner(vec.values, ones.values)) < 1e-12
    assert vec.values[int(np.argmax(np.abs(vec.values)))] > 0
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, dom.n_cells)


def two_piece_mask(big, small):
    """A big x big block and a separate small x small block."""
    cells = [(i, j) for j in range(big) for i in range(big)]
    cells += [(i, j) for j in range(big + 2, big + 2 + small)
              for i in range(big + 2, big + 2 + small)]
    return GridDomain(cells, 1 / (big + small + 2))


def neumann_small_piece(big, small):
    """two_piece_mask with every boundary face of the small block labelled
    Neumann, so only the big block has Dirichlet-labelled faces."""
    dom = two_piece_mask(big, small)
    on_small = dom.component_labels != dom.component_labels[0]
    cells = [tuple(c) for c in dom.cells.tolist()]
    rules = [(cells[k], d, "neumann") for k, d in dom.boundary_faces if on_small[k]]
    return GridDomain(cells, dom.h, rules)


TWO_PIECES = {"10+2": (10, 2), "5+5": (5, 5), "20+3": (20, 3)}


@pytest.mark.parametrize("name", sorted(TWO_PIECES))
def test_eigenpairs_off_a_complete_kernel_match_eigh(name):
    dom = two_piece_mask(*TWO_PIECES[name])
    cat = OperatorCatalog(dom)
    op = cat.laplacian_neumann
    vals = np.linalg.eigvalsh(op.to_dense())  # uniform weights: symmetric
    pairs = smallest_eigenpairs(op, 3)  # off op.kernel, the gradient's
    assert [lam for lam, _ in pairs] == pytest.approx(vals[2:5], rel=1e-10)
    for _, vec in pairs:
        for b in cat.gradient.kernel[0]:
            assert abs(dom.cell_space.inner(b, vec.values)) < 1e-10


@pytest.mark.parametrize("name", sorted(TWO_PIECES))
def test_eigenpairs_off_an_incomplete_kernel_are_refused(name):
    # the global constant alone leaves one piece constant in the complement
    dom = two_piece_mask(*TWO_PIECES[name])
    op = OperatorCatalog(dom).laplacian_neumann
    vals = np.linalg.eigvalsh(op.to_dense())
    assert vals[1] < 1e-10 * vals[-1]
    basis = orthonormalize([dom.cell_space.ones()], dom.cell_space)
    with pytest.raises(BizooError, match="the kernel is incomplete"):
        smallest_eigenpairs(kernel_less(op, (basis, linalg.pivoted_pins(basis))), 1)


@pytest.mark.parametrize("n", [8, 21])
def test_eigenpairs_refuse_a_count_below_one(n):
    op = OperatorCatalog(build_domain("square", n)).laplacian_dirichlet
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            smallest_eigenpairs(op, count)


def test_eigenpairs_dense_with_nonuniform_weights_and_a_known_kernel():
    g = rng(40)
    dom = DofSpace("d", 40, g.uniform(0.5, 2.0, size=40))
    cod = DofSpace("c", 60, g.uniform(0.5, 2.0, size=60))
    basis = orthonormalize(list(g.normal(size=(3, 40))), dom)
    # a generic map composed with the weighted projector off the basis
    mat = (sp.random(60, 40, density=0.3, random_state=40) + sp.eye(60, 40)).toarray()
    proj = np.eye(40) - sum(np.outer(b, dom.weights * b) for b in basis)
    b_op = SparseOperator(sp.csr_matrix(mat @ proj), dom, cod)
    normal = b_op.adjoint() @ b_op
    normal.kernel = (basis, linalg.pivoted_pins(basis))

    # oracle: the W-symmetrized matrix restricted to the kernel's complement
    s = np.sqrt(dom.weights)
    sym = s[:, None] * normal.to_dense() / s[None, :]
    sym = 0.5 * (sym + sym.T)
    comp = np.linalg.qr(np.array([s * b for b in basis]).T, mode="complete")[0][:, 3:]
    vals = np.linalg.eigvalsh(comp.T @ sym @ comp)

    pairs = smallest_eigenpairs(normal, 4)
    assert [lam for lam, _ in pairs] == pytest.approx(vals[:4], rel=1e-10)
    for _, vec in pairs:
        assert vec.norm() == pytest.approx(1.0)
        for b in basis:
            assert abs(dom.inner(b, vec.values)) < 1e-12


@pytest.mark.parametrize("key", ["gradient", "gradient_dirichlet",
                                 "interior_laplacian"])
def test_best_constant_takes_few_inverse_applications(monkeypatch, key):
    # a Krylov space sized to one eigenpair, stopped where the residual
    # clears the gate, takes 13 applications of the inverse on these pairs
    cat = OperatorCatalog(build_domain("square", 48))
    hint = {"kernel_forward": ()} if key == "interior_laplacian" else {}
    pair = make_pair(getattr(cat, key), **hint)
    pair.kernel_basis("forward")
    calls = []
    solve = linalg._BandedCholesky.solve
    monkeypatch.setattr(linalg._BandedCholesky, "solve",
                        lambda self, r: calls.append(r.size) or solve(self, r))
    constant = best_constant(pair)
    assert 0 < len(calls) <= 16
    normal = pair.normal("forward")
    lam, vec = smallest_eigenpairs(normal, 1)[0]
    assert constant == 1.0 / np.sqrt(lam)
    scale = np.abs(normal.matrix.diagonal()).max()
    gate = max(SolverConfig().rel_tolerance * lam, 1e-11 * scale)
    residual = vec.space.norm(normal.apply_raw(vec.values) - lam * vec.values)
    assert residual <= 1e-2 * gate


@pytest.mark.parametrize("key", ["laplacian_dirichlet", "laplacian_neumann"])
@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_eigenpairs_return_every_copy_of_a_multiple_eigenvalue(shape, key):
    # double eigenvalues: the square's Dirichlet lambda(1,2) = lambda(2,1),
    # and the L-shape's Neumann 39.25, whose second copy a 1e-13 Ritz stop
    # with 4 pairs missed, returning the next eigenvalue in its place
    op = getattr(OperatorCatalog(build_domain(shape, 24)), key)
    skip = len(op.kernel[0]) if op.kernel else 0
    vals = np.linalg.eigvalsh(op.to_dense())  # uniform weights: symmetric
    for count in range(1, 5):
        lams = [lam for lam, _ in smallest_eigenpairs(op, count)]
        assert lams == pytest.approx(vals[skip : skip + count], rel=1e-12), count


def test_pivoted_pins_pin_every_kernel_vector():
    dom = two_piece_mask(10, 2)
    space = dom.cell_space
    centers = dom.cell_centers()
    basis = linalg.piecewise_affine(space, dom.component_labels, centers)[0]
    pins = linalg.pivoted_pins(basis)
    assert pins.size == len(basis) == 6
    assert np.linalg.cond(np.array(basis)[:, pins]) < 1e6
    assert linalg.pivoted_pins([]).size == 0


# -- direct solves, checked against CG as the oracle ---------------------------

# (catalog key, Neumann-labeled boundary, operator kernel is the constants)
ROUTED = (
    ("laplacian_dirichlet", False, False),
    ("laplacian_neumann", False, True),
    ("laplacian_mixed", False, False),
    ("laplacian_mixed", True, True),  # no Dirichlet face: singular
    ("interior_normal", False, False),
    ("hessian_dirichlet_normal", False, False),
)
ROUTED_IDS = [f"{key}{'-no-dirichlet' if neu else ''}" for key, neu, _ in ROUTED]


@pytest.fixture(scope="module", params=("square", "lshape", "annulus"))
def catalogs16(request):
    return {
        neumann: OperatorCatalog(build_domain(
            request.param, 16, labels={"all": "neumann"} if neumann else None
        ))
        for neumann in (False, True)
    }


def routed_data(op, singular, seed):
    space = op.domain_space
    b = rng(seed).normal(size=space.dim)
    if singular:
        b -= b.mean()  # uniform weights: the weighted mean is the plain one
    return Field(space, b)


def kernel_dim(op):
    """Dimension of the kernel an operator carries; None counts as 0."""
    return len(op.kernel[0]) if op.kernel is not None else 0


def mean_abs(space, x):
    ones = np.ones(space.dim)
    return abs(space.inner(x, ones)) / space.norm(ones)


@pytest.mark.parametrize("key,neumann,singular", ROUTED, ids=ROUTED_IDS)
def test_direct_solve_meets_target_and_agrees_with_cg(catalogs16, key, neumann,
                                                      singular):
    cat = catalogs16[neumann]
    op = getattr(cat, key)
    space = op.domain_space
    b = routed_data(op, singular, 21)
    assert kernel_dim(op) == singular  # the constants on the one piece
    res = direct_solve(op, b, SolverConfig(rel_tolerance=1e-10))
    x = res.field.values
    assert space.norm(op.apply_raw(x) - b.values) <= 1e-10 * b.norm()
    assert res.residual_norm <= 1e-10 * b.norm()
    assert res.iterations >= 1
    tight = SolverConfig(rel_tolerance=1e-13)
    if singular:
        oracle = deflated_cg_solve(op, b, [space.ones()], tight)
        assert mean_abs(space, x) <= 1e-13 * space.norm(x)
    else:
        oracle = cg_solve(op, b, tight)
    y = oracle.field.values
    assert space.norm(x - y) <= 1e-8 * space.norm(y)


@pytest.mark.parametrize("key,neumann", [("laplacian_neumann", False),
                                         ("laplacian_mixed", True)])
def test_direct_solve_compatibility_gate(catalogs16, key, neumann):
    cat = catalogs16[neumann]
    op = getattr(cat, key)
    space = op.domain_space
    b = routed_data(op, True, 22)
    shifted = Field(space, b.values + 1e-6 * b.norm() / space.norm(np.ones(space.dim)))
    with pytest.raises(CompatibilityError) as err:
        direct_solve(op, shifted)
    assert err.value.defect == pytest.approx(1e-6 * b.norm(), rel=1e-6)
    assert err.value.subspace == "solver kernel"
    # a component under the 1e-8 gate passes and is reported
    small = Field(space, b.values + 1e-10 * b.norm() / space.norm(np.ones(space.dim)))
    res = direct_solve(op, small)
    assert res.compatibility_defect == pytest.approx(1e-10 * b.norm(), rel=1e-3)


@pytest.mark.parametrize("key,neumann,singular", ROUTED, ids=ROUTED_IDS)
def test_direct_solve_unattainable_target_reports_residuals(catalogs16, key,
                                                            neumann, singular):
    cat = catalogs16[neumann]
    op = getattr(cat, key)
    b = routed_data(op, singular, 23)
    with pytest.raises(ConvergenceFailure) as err:
        direct_solve(op, b, SolverConfig(rel_tolerance=1e-18))
    history = err.value.residual_history
    message = str(err.value)
    assert f"residual {min(history[1:]):.3e}" in message
    assert f"target {1e-18 * b.norm():.3e}" in message
    # the normal products fail on the augmented route too, the others
    # record no first-order operator for it
    assert "augmented route" in message
    assert len(history) <= 12  # stops once refinement stops improving


def test_direct_solve_range_of_agrees_with_min_norm_cg(catalogs16):
    cat = catalogs16[False]
    op, a = cat.interior_normal, cat.interior_laplacian
    b = routed_data(op, False, 26)
    res = direct_solve(op, b, SolverConfig(rel_tolerance=1e-10), min_norm=True)
    u = res.field
    assert u.space is a.codomain_space
    residual = op.domain_space.norm(a.adjoint().apply_raw(u.values) - b.values)
    assert residual <= 1e-10 * b.norm()
    assert res.residual_norm == pytest.approx(residual)
    oracle = normal_cg_solve(a, b, "min_norm", SolverConfig(rel_tolerance=1e-13))
    assert u.space.norm(u.values - oracle.field.values) <= 1e-8 * oracle.field.norm()


def test_direct_solve_min_norm_solves_through_the_recorded_first_order_operator(
        catalogs16):
    cat = catalogs16[False]
    # every normal product the catalog forms records its B
    for normal, b in ((cat.interior_normal, cat.interior_laplacian),
                      (cat.biharmonic_normal, cat.interior_biharmonic),
                      (cat.hessian_normal, cat.hessian)):
        assert normal.first_order is b
    op = cat.laplacian_dirichlet
    with pytest.raises(ValueError, match="first-order operator"):
        direct_solve(op, op.domain_space.ones(), min_norm=True)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_solvers_refuse_non_finite_data(catalogs16, bad):
    op = catalogs16[False].laplacian_dirichlet
    values = np.ones(op.domain_space.dim)
    values[3] = bad
    with pytest.raises(ValueError, match="direct solve: data are not finite"):
        direct_solve(op, Field(op.domain_space, values))


def _counting_solves(monkeypatch, halved=0):
    """The right-hand sides of every banded factor solve while the spy is
    set; the first `halved` solves return only half their answer."""
    solve, calls = linalg._BandedCholesky.solve, []

    def counting(self, r):
        calls.append(r)
        return (0.5 if len(calls) <= halved else 1.0) * solve(self, r)

    monkeypatch.setattr(linalg._BandedCholesky, "solve", counting)
    return calls


@pytest.mark.parametrize("min_norm", (False, True))
def test_direct_solve_takes_the_augmented_route_when_refinement_stalls(
        monkeypatch, min_norm):
    cat = OperatorCatalog(build_domain("lshape", 16))
    op, a = cat.interior_normal, cat.interior_laplacian
    # with no refinement step allowed, a first banded solve that gets only
    # half of the answer right stops far above the target; the solve is
    # then finished from that iterate through the augmented system of the
    # recorded first-order operator, corrected on the same, exact, factor,
    # and the call's dict holds that factor alone
    monkeypatch.setattr(linalg, "_MAX_REFINEMENT", 0)
    solves = _counting_solves(monkeypatch, halved=1)
    b = routed_data(op, False, 27)
    cfg = SolverConfig(rel_tolerance=1e-10)
    factors = {}
    res = direct_solve(op, b, cfg, min_norm=min_norm, factors=factors)
    assert op.first_order is a and list(factors) == [op]
    assert len(res.residual_history) == 3
    assert res.residual_history[1] > 0.1 * b.norm()
    assert res.iterations == len(solves) == 2
    assert res.residual_norm <= 1e-10 * b.norm()
    x = cg_solve(op, b, SolverConfig(rel_tolerance=1e-13)).field.values
    expect = a.apply_raw(x) if min_norm else x
    got = res.field.values
    assert res.field.space.norm(got - expect) <= 1e-8 * res.field.space.norm(expect)


def test_direct_solve_augmented_route_fails_on_a_wrong_factor(monkeypatch):
    cat = OperatorCatalog(build_domain("lshape", 16))
    op = cat.interior_normal
    # a factor that gets only half of each correction right stops banded
    # refinement at the step cap and the augmented refinement at its own
    # cap, both far above the target
    solves = _counting_solves(monkeypatch, halved=math.inf)
    b = routed_data(op, False, 27)
    with pytest.raises(ConvergenceFailure) as err:
        direct_solve(op, b, SolverConfig(rel_tolerance=1e-10))
    message = str(err.value)
    plain = re.search(r"refinement stopped at residual \S+, target \S+ "
                      r"\(relative (\S+) against 1\.0e-10\)", message)
    augmented = re.search(r"augmented system stopped at relative residual "
                          r"(\S+), target 1\.0e-10$", message)
    assert float(plain[1]) > 1e-4 and float(augmented[1]) > 1e-8
    assert len(err.value.residual_history) == linalg._MAX_REFINEMENT + 2
    assert len(solves) == 2 * (linalg._MAX_REFINEMENT + 1)


def test_direct_solve_augmented_route_drops_the_kernel_pins(monkeypatch):
    cat = OperatorCatalog(build_domain("lshape", 16))
    op, h = cat.hessian_normal, cat.hessian
    space = op.domain_space
    basis, pinned = op.kernel
    monkeypatch.setattr(linalg, "_MAX_REFINEMENT", 0)
    solves = _counting_solves(monkeypatch, halved=1)
    b = rng(29).normal(size=space.dim)
    for v in basis:
        b -= space.inner(v, b) * v
    data = Field(space, b)
    factors = {}
    res = direct_solve(op, data, SolverConfig(rel_tolerance=1e-10),
                       factors=factors)
    assert op.first_order is h and list(factors) == [op]
    assert res.iterations == len(solves) == 2
    x = res.field.values
    assert res.residual_norm <= 1e-10 * data.norm()
    assert max(abs(space.inner(v, x)) for v in basis) <= 1e-12 * space.norm(x)
    oracle = deflated_cg_solve(op, data, basis,
                               SolverConfig(rel_tolerance=1e-13)).field.values
    assert space.norm(x - oracle) <= 1e-8 * space.norm(oracle)
    # H with the affine pins' columns dropped is injective: its augmented
    # system's answer, zero at the pins, differs from x by a kernel vector
    unpinned = unpinned_first_order(op)
    assert unpinned.shape == (h.shape[0], space.dim - len(pinned))
    free = np.ones(space.dim, dtype=bool)
    free[pinned] = False
    lu = np.zeros(space.dim)
    lu[free] = -augmented_reference(unpinned)(g=b[free])[1]
    for v in basis:
        lu -= space.inner(v, lu) * v
    assert space.norm(x - lu) <= 1e-8 * space.norm(lu)


def test_direct_solve_pins_each_connected_piece():
    # two separate 6x6 squares: the Neumann kernel holds both indicators
    cells = [(i + di, j) for di in (0, 9) for i in range(6) for j in range(6)]
    dom = GridDomain(cells, 1 / 16, labels={"all": "neumann"})
    assert dom.n_components == 2
    op = OperatorCatalog(dom).laplacian_neumann
    space = op.domain_space
    left = dom.cells[:, 0] < 6
    b = rng(28).normal(size=space.dim)
    for piece in (left, ~left):
        b[piece] -= b[piece].mean()
    data = Field(space, b)
    factors = {}
    res = direct_solve(op, data, SolverConfig(rel_tolerance=1e-10),
                       factors=factors)
    assert sorted(left[factors[op].pinned]) == [False, True]
    x = res.field.values
    assert res.residual_norm <= 1e-10 * data.norm()
    assert space.norm(op.apply_raw(x) - b) <= 1e-10 * data.norm()
    for piece in (left, ~left):
        assert abs(x[piece].mean()) <= 1e-13 * np.abs(x).max()
    oracle = deflated_cg_solve(op, data, [space.ones()],
                               SolverConfig(rel_tolerance=1e-13)).field.values
    assert space.norm(x - oracle) <= 1e-8 * space.norm(oracle)
    # mean-free overall but not on each piece: a kernel component
    shifted = Field(space, b + np.where(left, 1.0, -1.0))
    with pytest.raises(CompatibilityError) as err:
        direct_solve(op, shifted)
    assert err.value.defect == pytest.approx(space.norm(np.ones(space.dim)))


def test_direct_solve_reuses_a_caller_owned_factor():
    cat = OperatorCatalog(build_domain("lshape", 16))
    op = cat.interior_normal
    factors = {}
    first = direct_solve(op, routed_data(op, False, 24), factors=factors)
    held = factors[op]
    b = routed_data(op, False, 25)
    again = direct_solve(op, b, factors=factors)
    assert list(factors) == [op] and factors[op] is held
    fresh = direct_solve(op, b)
    assert np.array_equal(again.field.values, fresh.field.values)
    assert first.iterations >= 1
    zero = direct_solve(op, Field(op.domain_space, np.zeros(op.domain_space.dim)))
    assert zero.iterations == 0 and not zero.field.values.any()


def old_lower_band(op, pinned):
    """The band as the COO construction before the CSR one built it."""
    w = op.domain_space.weights
    lower = sp.tril(op.matrix, format="coo")
    lower.sum_duplicates()
    rows, cols = lower.row, lower.col
    vals = w[rows] * lower.data
    if pinned.size:
        keep = ~(np.isin(rows, pinned) | np.isin(cols, pinned))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    band = np.zeros((int((rows - cols).max(initial=0)) + 1, w.size), order="F")
    band[rows - cols, cols] = vals
    band[0, pinned] = 1.0
    return band


def factored_operators(cat):
    """(name, operator, pinned cells) of every kind direct_solve factors
    that the catalog's domain admits."""
    dom = cat.domain
    space = dom.cell_space
    none = np.zeros(0, dtype=np.int64)
    pieces = linalg._piecewise_constants(space, dom.component_labels)[1]

    def hessian_neumann():
        return cat.hessian.adjoint() @ cat.hessian

    def regularized():
        return (cat.interior_laplacian @ cat.free_laplacian
                + identity_operator(space))

    for key, build, pinned in (
        ("laplacian_neumann", lambda: cat.laplacian_neumann, pieces),
        ("laplacian_dirichlet", lambda: cat.laplacian_dirichlet, none),
        ("laplacian_dirichlet pinned", lambda: cat.laplacian_dirichlet, pieces),
        ("interior_normal", lambda: cat.interior_normal, none),
        ("biharmonic_normal", lambda: cat.biharmonic_normal, none),
        ("regularized", regularized, none),
        ("hessian_neumann", hessian_neumann, None),
        ("hessian_dirichlet", lambda: cat.hessian_dirichlet_normal, none),
    ):
        try:
            op = build()
        except BizooError:  # no deep cells, or a cell without a 3-cell run
            continue
        if pinned is None:
            pinned = linalg.piecewise_affine(space, dom.component_labels,
                                             dom.cell_centers())[1]
        yield key, op, pinned


@pytest.mark.parametrize("name", sorted(golden_domains()))
def test_band_and_factor_match_the_coo_construction(name):
    cat = OperatorCatalog(golden_domains()[name])
    seen = []
    for key, op, pinned in factored_operators(cat):
        seen.append(key)
        expect = old_lower_band(op, pinned)
        band = linalg._lower_band(op, pinned)
        assert band.shape == expect.shape, key
        assert band.flags.f_contiguous, key
        assert band.tobytes() == expect.tobytes(), key
        factor = cholesky_banded(expect, lower=True, check_finite=False)
        got = linalg._BandedCholesky(op, pinned, key).band
        assert got.tobytes() == factor.tobytes(), key
    assert {"laplacian_neumann", "interior_normal"} <= set(seen)


def test_band_sums_duplicate_entries_of_a_hand_built_matrix():
    space = uniform_space("s", 3, 0.5)
    # (1, 0) and (2, 2) are stored twice; the COO construction sums them
    data = np.array([4.0, 1.0, 0.5, 0.25, 5.0, 2.0, 1.0, 3.0])
    indices = np.array([0, 0, 1, 0, 1, 2, 1, 2])
    indptr = np.array([0, 1, 5, 8])
    mat = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
    op = SparseOperator(mat, space, space)
    assert op.matrix.nnz == 8
    for pinned in (np.zeros(0, dtype=np.int64), np.array([1])):
        band = linalg._lower_band(op, pinned)
        assert band.tobytes() == old_lower_band(op, pinned).tobytes()
    assert op.matrix.nnz == 8  # the operator's own matrix is left as it is


def test_direct_solve_guards():
    space = uniform_space("s", 3)
    other = uniform_space("t", 2)
    rect = SparseOperator(sp.csr_matrix(np.ones((2, 3))), space, other)
    with pytest.raises(SpaceMismatchError):
        direct_solve(rect, Field(space, np.ones(3)))
    indefinite = SparseOperator(sp.diags([1.0, -1.0, 2.0]), space, space)
    with pytest.raises(SpaceMismatchError):
        direct_solve(indefinite, Field(other, np.ones(2)))
    # LAPACK's pbtrf stops at the second pivot
    with pytest.raises(BizooError, match="2-th leading minor not positive "
                       "definite") as err:
        direct_solve(indefinite, Field(space, np.ones(3)))
    assert "off the pinned cells" in str(err.value)


def test_cg_stops_on_stagnation_long_before_its_budget():
    dom = build_domain("square", 8)
    op = OperatorCatalog(dom).laplacian_dirichlet
    b = Field(dom.cell_space, rng(29).normal(size=dom.n_cells))
    cfg = SolverConfig(rel_tolerance=1e-18)  # under the rounding floor
    with pytest.raises(ConvergenceFailure) as err:
        cg_solve(op, b, cfg)
    message = str(err.value)
    assert "stagnated at true residual" in message
    assert f"target {1e-18 * b.norm():.3e}" in message
    budget = linalg._CG_ITERATIONS_PER_UNKNOWN * dom.n_cells
    assert len(err.value.residual_history) < budget // 10


def unpinned_first_order(op):
    """op's recorded B without its kernel's pinned columns: the injective
    B whose augmented system direct_solve's stall route refines."""
    free = np.ones(op.domain_space.dim, dtype=bool)
    free[op.kernel[1]] = False
    sub = DofSpace("unpinned", int(free.sum()), op.domain_space.weights[free])
    return SparseOperator(op.first_order.matrix[:, free], sub, op.first_order.codomain_space)
