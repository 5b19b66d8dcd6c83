import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from bizoo import (
    CompatibilityError,
    Field,
    LaplacianKind,
    OperatorCatalog,
    SolverConfig,
    SpaceMismatchError,
    best_constant,
    build_domain,
    estimate_chain_check,
    make_pair,
    smallest_eigenpairs,
    solve_laplace,
    solve_zoo,
)
from bizoo import laplace, linalg, zoo
from bizoo.laplace import (
    clamped_preimage,
    harmonic_defect,
    interior_residual_norm,
    invert_laplacian,
    mean_defect,
    measure_constraint,
    normal_difference_norm,
    strip_norm,
)
from bizoo.operators import free_stencil
from test_linalg import construction_sites, neumann_small_piece, two_piece_mask
from test_zoo import GOLDEN_REPORTS, _assert_report_matches, compatible_data


def catalog(shape="square", n=8, **kw):
    return OperatorCatalog(build_domain(shape, n, **kw))


def membrane_series(x, y, terms=199):
    # separable sine series for -lap u = 1 on the unit square, u = 0 on
    # the boundary; independent of every solver in the package
    ks = np.arange(1, terms + 1, 2)
    total = np.zeros(np.broadcast(x, y).shape)
    for k in ks:
        for l in ks:
            total += (
                16.0
                / (np.pi**4 * k * l * (k**2 + l**2))
                * np.sin(k * np.pi * x)
                * np.sin(l * np.pi * y)
            )
    return total


def test_membrane_peak_against_series_oracle():
    peaks = {}
    for n in (32, 64):
        cat = catalog(n=n)
        f = cat.domain.cell_space.ones()
        rep = solve_laplace("dirichlet", cat, f, SolverConfig(rel_tolerance=1e-12))
        k = int(np.argmax(rep.solution.values))
        cx, cy = cat.domain.cell_centers()[k]
        assert abs(cx - 0.5) == pytest.approx(0.5 / n)  # center-adjacent cell
        oracle = float(membrane_series(cx, cy))
        peaks[n] = rep.solution.values[k]
        tol = 8e-5 if n == 32 else 2.5e-5
        assert abs(peaks[n] - oracle) < tol
    # second-order Richardson extrapolation lands on the series value
    extrapolated = (4 * peaks[64] - peaks[32]) / 3
    assert extrapolated == pytest.approx(float(membrane_series(0.5, 0.5)), abs=2e-6)


def test_dirichlet_manufactured_second_order():
    errors = {}
    for n in (8, 16):
        cat = catalog(n=n)
        x, y = cat.domain.cell_centers().T
        u_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = Field(cat.domain.cell_space, 2 * np.pi**2 * u_exact)
        rep = solve_laplace("dirichlet", cat, f)
        errors[n] = cat.domain.cell_space.norm(rep.solution.values - u_exact)
    order = np.log2(errors[8] / errors[16])
    assert order > 1.8
    rep_kind = solve_laplace(LaplacianKind.DIRICHLET, catalog(n=4),
                             catalog(n=4).domain.cell_space.ones())
    assert rep_kind.kind is LaplacianKind.DIRICHLET


def test_neumann_matches_dense_pseudoinverse():
    cat = catalog(n=6)
    dom = cat.domain
    rng = np.random.default_rng(1)
    f_vals = rng.normal(size=dom.n_cells)
    f_vals -= f_vals.mean()
    rep = solve_laplace("neumann", cat, Field(dom.cell_space, f_vals),
                        SolverConfig(rel_tolerance=1e-13))
    expect = np.linalg.pinv(cat.laplacian_neumann.to_dense()) @ f_vals
    assert np.allclose(rep.solution.values, expect, atol=1e-10)
    assert rep.constraint_norms["mean-free solution"] < 1e-12
    assert rep.compatibility_defect < 1e-13


def test_neumann_fredholm_gate():
    cat = catalog(n=8)
    with pytest.raises(CompatibilityError):
        solve_laplace("neumann", cat, cat.domain.cell_space.ones())
    x = cat.domain.cell_centers()[:, 0]
    f = Field(cat.domain.cell_space, x - x.mean())
    rep = solve_laplace("neumann", cat, f)
    u = rep.solution
    assert abs(cat.domain.cell_space.inner(u.values, np.ones(u.values.size))) \
        <= 1e-10
    assert rep.pde_residual_norm <= 1e-9 * f.norm()


def test_mixed_extremes_match_pure_kinds():
    dom_d = build_domain("square", 6, labels={"all": "dirichlet"})
    cat_d = OperatorCatalog(dom_d)
    f = Field(dom_d.cell_space, np.arange(float(dom_d.n_cells)))
    md = solve_laplace("mixed", cat_d, f)
    dd = solve_laplace("dirichlet", cat_d, f)
    assert np.allclose(md.solution.values, dd.solution.values, atol=1e-9)

    dom_n = build_domain("square", 6, labels={"all": "neumann"})
    cat_n = OperatorCatalog(dom_n)
    g_vals = np.arange(float(dom_n.n_cells))
    g_vals -= g_vals.mean()
    mn = solve_laplace("mixed", cat_n, Field(dom_n.cell_space, g_vals))
    nn = solve_laplace("neumann", cat_n, Field(dom_n.cell_space, g_vals))
    assert np.allclose(mn.solution.values, nn.solution.values, atol=1e-9)


def test_mixed_solve_on_a_piece_without_dirichlet_faces():
    # the big block keeps its Dirichlet faces, the small block has none, so
    # only the small block's constant is in the kernel
    dom = neumann_small_piece(10, 2)
    cat = OperatorCatalog(dom)
    space = dom.cell_space
    small = dom.component_labels != dom.component_labels[0]
    f = np.random.default_rng(31).standard_normal(dom.n_cells)
    f[small] -= f[small].mean()
    rep = solve_laplace("mixed", cat, Field(space, f))
    fnorm = space.norm(f)
    u = rep.solution.values
    assert space.norm(cat.laplacian_mixed.apply_raw(u) - f) <= 1e-9 * fnorm
    assert rep.pde_residual_norm <= 1e-9 * fnorm
    assert rep.constraint_norms["labeled boundary rows"] <= 1e-9 * fnorm
    assert abs(u[small].sum()) <= 1e-12 * np.abs(u).sum()
    assert abs(u[~small].sum()) > 1e-3 * np.abs(u).sum()  # the big one is not
    with pytest.raises(CompatibilityError):
        solve_laplace("mixed", cat, Field(space, f + small))


def test_mixed_half_and_half():
    dom = build_domain("square", 8, labels={"left": "neumann", "top": "neumann"})
    cat = OperatorCatalog(dom)
    f = dom.cell_space.ones()
    rep = solve_laplace("mixed", cat, f)
    assert rep.pde_residual_norm <= 1e-9 * f.norm()
    assert rep.constraint_norms["labeled boundary rows"] <= 1e-9 * f.norm()
    # the mixed solution differs from both pure ones
    dd = solve_laplace("dirichlet", cat, f)
    assert not np.allclose(rep.solution.values, dd.solution.values, atol=1e-6)


def test_overdetermined_accepts_range_data_only():
    cat = catalog(n=8)
    dom = cat.domain
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=dom.ring_cells(1).size)
    f = Field(dom.cell_space, cat.interior_laplacian.apply_raw(x0))
    rep = solve_laplace("overdetermined", cat, f)
    assert rep.constraint_norms["zero trace on boundary ring"] == 0.0
    assert rep.constraint_norms["zero normal difference on boundary"] == 0.0
    assert rep.pde_residual_norm <= 1e-8 * f.norm()
    # the recovered interior part is x0 itself: the stencil is injective
    assert np.allclose(rep.solution.values[dom.ring_cells(1)], x0, atol=1e-7)

    with pytest.raises(CompatibilityError) as err:
        solve_laplace("overdetermined", cat,
                      Field(dom.cell_space, rng.normal(size=dom.n_cells)))
    assert err.value.subspace == "discrete harmonics"


def test_underdetermined_min_norm():
    cat = catalog(n=8)
    dom = cat.domain
    rng = np.random.default_rng(3)
    f = Field(dom.cell_space, rng.normal(size=dom.n_cells))
    rep = solve_laplace("underdetermined", cat, f)
    assert rep.pde_residual_norm <= 1e-8 * f.norm()
    assert rep.constraint_norms["no discrete-harmonic component"] <= 1e-7
    assert rep.discarded_ring_mass == strip_norm(dom, f.values, 0)
    # data supported on the boundary ring is invisible
    g = np.zeros(dom.n_cells)
    g[dom.boundary_cells()] = 1.0
    rep0 = solve_laplace("underdetermined", cat, Field(dom.cell_space, g))
    assert np.allclose(rep0.solution.values, 0.0, atol=1e-12)
    assert rep0.discarded_ring_mass == pytest.approx(
        dom.cell_space.norm(g)
    )


# in-class data of each kind, named as test_zoo.compatible_data names it
KIND_DATA = {
    "dirichlet": "L2", "neumann": "L2_mean_free", "mixed": "L2",
    "overdetermined": "L2_no_harmonic", "underdetermined": "L2",
}


def laplace_report(rep):
    """Every field of a LaplaceSolveReport but the solution, in order."""
    return {
        "kind": rep.kind.value,
        "pde": rep.pde_residual_norm,
        "constraints": dict(rep.constraint_norms),
        "compatibility_defect": rep.compatibility_defect,
        "discarded_ring_mass": rep.discarded_ring_mass,
        "iterations": rep.iterations,
    }


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_every_kind_reproduces_its_recorded_report(shape):
    """Recorded before solve_laplace measured through the constraint table
    (numpy 2.4, scipy 1.17): key order, names and iteration counts exactly,
    numbers to 1e-12 relative."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    cat = OperatorCatalog(build_domain(shape, 16))
    for kind, data_space in KIND_DATA.items():
        f = compatible_data(cat, data_space, seed=61)
        key = f"laplace/{shape}/{kind}"
        _assert_report_matches(laplace_report(solve_laplace(kind, cat, f)),
                               golden[key], key)


def test_solve_laplace_carries_its_factor_to_the_next_solve(monkeypatch):
    # each kind's second solve, and a zoo row on the same operator, reuse
    # the factor the solve before carried; the answer is the fresh one's
    cat = catalog("lshape", 12)
    built = []
    init = linalg._BandedCholesky.__init__
    monkeypatch.setattr(linalg._BandedCholesky, "__init__",
                        lambda self, op, *a: built.append(op) or init(self, op, *a))
    for kind, data_space, row in (("dirichlet", "L2", "d_d"),
                                  ("neumann", "L2_mean_free", "n_n"),
                                  ("underdetermined", "L2", "f_f")):
        f = compatible_data(cat, data_space, seed=4)
        del built[:]
        first = solve_laplace(kind, cat, f).solution.values
        again = solve_laplace(kind, cat, f).solution.values
        solve_zoo(row, cat, f)
        assert built == [getattr(cat, laplace.KINDS[LaplacianKind(kind)].factored)]
        assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("shape,n,kw", [
    ("square", 2, {}), ("rectangle", 8, {"width": 0.25}),
])
def test_masks_without_interior_cells_solve(shape, n, kw):
    # no cell has depth >= 1, so the 5-point residual has no rows to read
    cat = catalog(shape, n, **kw)
    space = cat.domain.cell_space
    values = np.random.default_rng(62).normal(size=space.dim)
    f = Field(space, values - values.mean())
    for kind in ("dirichlet", "neumann", "mixed"):
        rep = solve_laplace(kind, cat, f)
        assert rep.pde_residual_norm == 0.0
        assert max(rep.constraint_norms.values()) <= 1e-12 * f.norm()
    assert solve_zoo("d_d", cat, f).pde_residual_norm == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_data_are_refused(bad):
    cat = catalog(n=8)
    values = np.ones(cat.domain.n_cells)
    values[5] = bad
    for kind in LaplacianKind:
        with pytest.raises(ValueError, match="data are not finite"):
            solve_laplace(kind, cat, Field(cat.domain.cell_space, values))


def test_constraints_are_measured_in_one_place():
    for helper in ("boundary_row_residual", "normal_difference_norm", "mean_defect"):
        assert construction_sites(helper) == [("laplace.py", "measure_constraint")]


def _strings(stmts):
    return {node.value for stmt in stmts for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_each_kind_is_named_in_one_table():
    """Composition names, catalog operators, row ids and constraint names
    of the kinds are spelled in laplace.KINDS and nowhere else in laplace
    or zoo; stage letters, kind values and measurement ids are shared
    vocabulary and are not checked."""
    for module, name in ((zoo, "STAGE_NAMES"), (zoo, "_STAGE_KINDS"),
                         (laplace, "_KIND_CONSTRAINTS")):
        assert not hasattr(module, name)
    body = [stmt for module in (laplace, zoo)
            for stmt in ast.parse(Path(module.__file__).read_text()).body]
    table = [stmt for stmt in body if isinstance(stmt, ast.Assign)
             and getattr(stmt.targets[0], "id", None) == "KINDS"]
    rest = [stmt for stmt in body if stmt not in table]
    owned = {value for value in _strings(table) if len(value) > 1
             and value not in {k.value for k in LaplacianKind}
             and not value.endswith("_u")}
    assert {"clamped", "free", "drows", "laplacian_mixed", "gradient"} <= owned
    assert owned & _strings(rest) == set()
    # no catalog attribute is spelled by formatting a kind
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                assert not isinstance(node.args[1], ast.JoinedStr)


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_estimate_chains_reproduce_recorded_reports(shape):
    """Recorded before the kinds moved into one table (numpy 2.4, scipy
    1.17), with constant 1 and seed 61, compared as the reports above."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    cat = OperatorCatalog(build_domain(shape, 16))
    for kind in ("dirichlet", "neumann"):
        rep = dataclasses.asdict(estimate_chain_check(kind, cat, 1.0, samples=20, seed=61))
        rep["kind"] = rep["kind"].value
        key = f"chain/{shape}/{kind}"
        _assert_report_matches(rep, golden[key], key)


@pytest.mark.parametrize("kind", ["mixed", "overdetermined", "underdetermined"])
def test_estimate_chains_refuse_kinds_without_a_gradient(kind):
    with pytest.raises(ValueError,
                       match="estimate chains are defined for dirichlet and neumann"):
        estimate_chain_check(kind, catalog(n=8), 1.0)


def test_unknown_kinds_and_measurements_are_refused():
    cat = catalog(n=4)
    f = cat.domain.cell_space.ones()
    with pytest.raises(ValueError, match="'robin' is not a valid LaplacianKind"):
        solve_laplace("robin", cat, f)
    with pytest.raises(ValueError, match="'robin' is not a valid LaplacianKind"):
        invert_laplacian("robin", cat, f.values, None)
    with pytest.raises(ValueError, match="unknown measurement 'bogus_u'"):
        measure_constraint("bogus_u", cat, f.values, f.values, f.values, None, {})


def test_solve_laplace_guards():
    cat = catalog(n=4)
    other = build_domain("square", 5)
    with pytest.raises(SpaceMismatchError):
        solve_laplace("dirichlet", cat, other.cell_space.ones())
    with pytest.raises(ValueError):
        solve_laplace("robin", cat, cat.domain.cell_space.ones())


def test_helper_measurements():
    dom = build_domain("square", 4)
    v = np.zeros(dom.n_cells)
    v[dom.boundary_cells()] = 2.0
    assert strip_norm(dom, v, 0) == pytest.approx(dom.h * 2.0 * np.sqrt(12))
    inner = np.zeros(dom.n_cells)
    inner[dom.ring_cells(1)] = 3.0
    assert strip_norm(dom, inner, 0) == 0.0
    assert normal_difference_norm(dom, inner) == 0.0
    assert normal_difference_norm(dom, v) > 0
    # face-by-face sum of h^2 (2 v_k / h)^2 as the reference
    w = np.random.default_rng(5).normal(size=dom.n_cells)
    faces = sum(dom.h**2 * (2.0 * w[k] / dom.h) ** 2 for k, _ in dom.boundary_faces)
    assert normal_difference_norm(dom, w) == pytest.approx(np.sqrt(faces), rel=1e-14)
    ones = np.ones(dom.n_cells)
    assert mean_defect(dom, ones) == pytest.approx(dom.cell_space.norm(ones))
    assert mean_defect(dom, ones - ones.mean()) < 1e-15


def test_harmonic_defect_splits():
    cat = catalog(n=6)
    dom = cat.domain
    rng = np.random.default_rng(4)
    inside_data = cat.interior_laplacian.apply_raw(
        rng.normal(size=dom.ring_cells(1).size)
    )
    defect, inside = harmonic_defect(cat, inside_data)
    assert defect <= 1e-8 * dom.cell_space.norm(inside_data)
    assert np.allclose(inside, inside_data, atol=1e-7)
    # a discrete harmonic is pure defect
    pair = make_pair(cat.interior_laplacian)
    harm = pair.kernel_basis("adjoint")[0]
    d2, _ = harmonic_defect(cat, harm)
    assert d2 == pytest.approx(dom.cell_space.norm(harm), rel=1e-8)


def test_harmonic_defect_without_preimage_refines_the_projection():
    cat = catalog(n=16)
    space = cat.domain.cell_space
    values = np.random.default_rng(5).normal(size=space.dim)
    # the preimage route: A x with A* A x = A* values
    x = clamped_preimage(cat, values, SolverConfig()).field.values
    inside = cat.interior_laplacian.apply_raw(x)
    defect = space.norm(values - inside)
    d2, inside2 = harmonic_defect(cat, values)
    assert space.norm(inside2 - inside) <= 1e-9 * space.norm(inside)
    assert d2 == pytest.approx(defect, rel=1e-9)
    # the projection satisfies A* inside = A* values to the solver target
    adj = cat.interior_laplacian.adjoint()
    rhs = adj.apply_raw(values)
    ring = adj.codomain_space
    assert ring.norm(adj.apply_raw(inside2) - rhs) <= 1e-10 * ring.norm(rhs)


def test_estimate_chain_dirichlet():
    cat = catalog(n=8)
    pair = make_pair(cat.gradient_dirichlet, kernel_forward=())
    c = best_constant(pair)
    ground = smallest_eigenpairs(cat.laplacian_dirichlet, 1)[0][1]
    rep = estimate_chain_check("dirichlet", cat, c, samples=20,
                               ground_mode=ground)
    assert rep.ok()
    assert rep.worst_first == pytest.approx(1.0, abs=1e-9)  # tight at ground
    assert rep.samples == 21
    low = estimate_chain_check("dirichlet", cat, 0.9 * c, samples=5,
                               ground_mode=ground)
    assert not low.ok()
    assert low.worst_first == pytest.approx(1 / 0.9, rel=1e-9)


def test_estimate_chain_neumann():
    cat = catalog(n=8)
    pair = make_pair(cat.gradient,
                     kernel_forward=[cat.domain.cell_space.ones()])
    c = best_constant(pair)
    rep = estimate_chain_check("neumann", cat, c, samples=20)
    assert rep.ok()
    assert rep.rejected == 0


def test_estimate_chain_neumann_deflates_the_constant_of_every_piece():
    dom = two_piece_mask(10, 2)
    cat = OperatorCatalog(dom)
    c = best_constant(make_pair(cat.gradient))
    ground = smallest_eigenpairs(cat.laplacian_neumann, 1)[0][1]
    # the ground mode plus a constant on the small block: that constant has
    # no gradient and must be projected out with the big block's
    small = dom.component_labels != dom.component_labels[0]
    mode = Field(dom.cell_space, ground.values + 0.5 * small)
    rep = estimate_chain_check("neumann", cat, c, samples=20, ground_mode=mode)
    assert rep.ok()
    assert rep.worst_first == pytest.approx(1.0, abs=1e-9)  # tight at ground


@pytest.mark.parametrize("n", [8, 16, 24, 48])
@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_interior_residual_is_the_adjoint_matvec_bit_for_bit(shape, n):
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    rng = np.random.default_rng(n)
    u = rng.normal(size=dom.n_cells) * 10.0 ** rng.integers(-6, 7, dom.n_cells)
    f = rng.normal(size=dom.n_cells)
    u[:3] = -0.0
    for depth in (1, 2):
        ring = dom.ring_cells(depth)
        if ring.size == 0:
            assert interior_residual_norm(cat, u, f, depth) == 0.0
            continue
        adjoint = (cat.free_laplacian if depth == 1
                   else cat.interior_biharmonic.adjoint())
        expect = adjoint.apply_raw(u)
        assert free_stencil(dom, depth, u).tobytes() == expect.tobytes()
        old = dom.ring_space(depth).norm(expect - f[ring])
        assert interior_residual_norm(cat, u, f, depth) == old
