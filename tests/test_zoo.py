import gc
import json
from pathlib import Path

import numpy as np
import pytest

from bizoo import (
    CompatibilityError,
    ConvergenceFailure,
    Field,
    ForbiddenCompositionError,
    GridDomain,
    OperatorCatalog,
    SolverConfig,
    SpaceMismatchError,
    best_constant,
    biharmonic_chain_check,
    build_domain,
    classify_zoo,
    deflated_cg_solve,
    dense_solution_operator,
    direct_solve,
    exchange_identity_check,
    make_pair,
    orthonormalize,
    resolve_problem,
    solve_hessian,
    solve_regularized,
    solve_zoo,
)
from bizoo import linalg
from bizoo.expressions import Expression
from bizoo.laplace import harmonic_defect, invert_laplacian
from bizoo.linalg import piecewise_affine
from test_linalg import construction_sites

WELL_POSED = (
    "f_c", "c_f", "f_f", "d_f", "n_f", "f_n", "n_n",
    "c_d", "f_d", "d_d", "n_d", "over", "under",
)
FORBIDDEN = ("c_c", "d_c", "n_c", "c_n", "d_n")


@pytest.fixture(scope="module")
def cat16():
    return OperatorCatalog(build_domain("square", 16))


@pytest.fixture(scope="module")
def cat8():
    return OperatorCatalog(build_domain("square", 8))


def compatible_data(catalog, data_space, seed):
    dom = catalog.domain
    rng = np.random.default_rng(seed)
    if data_space == "L2":
        vals = rng.normal(size=dom.n_cells)
    elif data_space == "L2_mean_free":
        vals = rng.normal(size=dom.n_cells)
        ones = np.ones(dom.n_cells)
        vals -= dom.cell_space.inner(vals, ones) / dom.cell_space.inner(ones, ones)
    elif data_space == "L2_no_harmonic":
        vals = catalog.interior_laplacian.apply_raw(
            rng.normal(size=dom.ring_cells(1).size)
        )
    elif data_space == "L2_no_biharmonic":
        vals = catalog.interior_biharmonic.apply_raw(
            rng.normal(size=dom.ring_cells(2).size)
        )
    elif data_space == "L2_no_affine":
        vals = rng.normal(size=dom.n_cells)
        for v in catalog.hessian_normal.kernel[0]:
            vals -= dom.cell_space.inner(v, vals) * v
    else:
        raise AssertionError(data_space)
    return Field(dom.cell_space, vals)


def test_classification_counts():
    rows = classify_zoo()
    assert len(rows) == 18
    by_status = {s: [r for r in rows if r["status"] == s]
                 for s in ("well-posed", "forbidden")}
    assert len(by_status["well-posed"]) == 13
    assert len(by_status["forbidden"]) == 5
    assert {r["label"] for r in by_status["forbidden"]} == set(FORBIDDEN)
    assert {r["label"] for r in by_status["well-posed"]} == set(WELL_POSED)
    labels = [r["label"] for r in rows]
    assert len(set(labels)) == len(labels)
    for r in by_status["forbidden"]:
        assert r["reason"]
        assert r["constraints"] == []


def test_riquier_row_constraints():
    row = next(r for r in classify_zoo() if "riquier" in r["aliases"])
    assert row["label"] == "n_n"
    assert row["data_space"] == "L2_mean_free"
    assert set(row["constraints"]) == {
        "Neumann boundary rows of the u-stage",
        "Neumann boundary rows of the laplacian stage",
        "u is mean-free",
        "laplacian stage is mean-free",
    }


@pytest.mark.parametrize("alias,label", [
    ("dirichlet", "f_c"),
    ("neumann", "c_f"),
    ("navier", "d_d"),
    ("riquier", "n_n"),
    ("overdetermined", "over"),
    ("underdetermined", "under"),
])
def test_aliases_resolve(alias, label):
    assert resolve_problem(alias).label == label
    assert resolve_problem(label).label == label


def test_unknown_label_rejected():
    with pytest.raises(ValueError) as err:
        resolve_problem("q_q")
    # the refusal names every label and alias resolve_problem accepts
    named = str(err.value).split("known labels: ")[1].split(", ")
    accepted = [name for row in classify_zoo()
                for name in (row["label"], *row["aliases"])]
    accepted += ["regularized", "hessian_neumann", "hessian_dirichlet"]
    assert sorted(named) == sorted(accepted)
    for name in named:
        assert resolve_problem(name)


def test_every_row_is_solved_and_reported_by_solve_zoo():
    # the extra rows resolve like the compositions and name their composition
    for label in ("regularized", "hessian_neumann", "hessian_dirichlet"):
        assert resolve_problem(label).composition
    assert construction_sites("BiharmonicSolveReport") == [("zoo.py", "solve_zoo")]


GOLDEN_REPORTS = Path(__file__).with_name("golden_reports.json")


def _assert_report_matches(got, want, where):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_report_matches(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, (str, int)) or want is None:
        assert got == want and type(got) is type(want), where
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_one_sided_and_extra_rows_reproduce_recorded_reports(shape):
    """to_dict() without wall_time_ms, recorded before these rows moved into
    the problem table (numpy 2.4, scipy 1.17): key order, names and
    iteration counts exactly, numbers to 1e-12 relative."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    cat = OperatorCatalog(build_domain(shape, 16))
    for label in ("over", "under", "regularized", "hessian_neumann",
                  "hessian_dirichlet"):
        f = compatible_data(cat, resolve_problem(label).data_space, seed=61)
        report = solve_zoo(label, cat, f).to_dict()
        del report["wall_time_ms"]
        _assert_report_matches(report, golden[f"{shape}/{label}"], f"{shape}/{label}")


TWO_STAGE = tuple(label for label in WELL_POSED if label not in ("over", "under"))


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_two_stage_rows_reproduce_recorded_reports(shape):
    """to_dict() without wall_time_ms, recorded before the deep-interior
    residual was summed over the neighbor table instead of the assembled
    adjoint (numpy 2.4, scipy 1.17), compared as the rows above."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    cat = OperatorCatalog(build_domain(shape, 16))
    for label in TWO_STAGE:
        f = compatible_data(cat, resolve_problem(label).data_space, seed=61)
        report = solve_zoo(label, cat, f).to_dict()
        del report["wall_time_ms"]
        _assert_report_matches(report, golden[f"{shape}/{label}"], f"{shape}/{label}")


@pytest.mark.parametrize("label", TWO_STAGE)
def test_two_stage_rows_leave_the_bilaplacian_unassembled(label):
    cat = OperatorCatalog(build_domain("annulus", 16))
    f = compatible_data(cat, resolve_problem(label).data_space, seed=62)
    solve_zoo(label, cat, f)
    assert "interior_biharmonic" not in cat._cache


def test_adjoint_column():
    adj = {r["label"]: r["adjoint"] for r in classify_zoo()
           if r["status"] == "well-posed"}
    assert {k for k, v in adj.items() if v == "self"} == {"f_c", "c_f", "n_n", "d_d"}
    assert adj["d_f"] == "c_d" and adj["c_d"] == "d_f"
    assert adj["over"] == "under" and adj["under"] == "over"
    assert adj["f_f"] == "repaired c_c"
    assert adj["n_f"] == "repaired c_n"
    assert adj["f_n"] == "repaired n_c"
    assert adj["f_d"] == "repaired d_c"
    assert adj["n_d"] == "repaired d_n"


@pytest.mark.parametrize("label", WELL_POSED)
def test_each_member_solves_compatible_data(cat16, label):
    prob = resolve_problem(label)
    f = compatible_data(cat16, prob.data_space, seed=hash(label) % 2**32)
    rep = solve_zoo(label, cat16, f)
    fnorm = f.norm()
    assert rep.pde_residual_norm <= 1e-8 * fnorm
    for name, value in rep.constraint_norms.items():
        assert value <= 1e-8 * fnorm, (name, value)
    assert rep.problem == label
    assert rep.iterations >= 0
    assert rep.wall_time_ms > 0


@pytest.mark.parametrize("label", WELL_POSED + (
    "regularized", "hessian_neumann", "hessian_dirichlet"))
def test_non_finite_data_are_refused(cat8, label):
    # cell 7 is a corner: no stencil reads it, yet it enters the report
    for bad in (np.nan, np.inf):
        values = compatible_data(cat8, resolve_problem(label).data_space, 63).values
        values[7] = bad
        with pytest.raises(ValueError, match="data are not finite"):
            solve_zoo(label, cat8, Field(cat8.domain.cell_space, values))


@pytest.mark.parametrize("label", FORBIDDEN)
def test_forbidden_compositions_raise(cat8, label):
    f = cat8.domain.cell_space.ones()
    with pytest.raises(ForbiddenCompositionError, match="not well posed"):
        solve_zoo(label, cat8, f)


def test_report_serialization(cat16):
    f = compatible_data(cat16, "L2", seed=5)
    d = solve_zoo("d_d", cat16, f).to_dict()
    assert set(d) == {"problem", "n", "h", "residuals", "constraints",
                      "iterations", "wall_time_ms"}
    assert d["problem"] == "d_d"
    assert d["n"] == 16
    assert d["h"] == pytest.approx(1 / 16)
    assert set(d["residuals"]) == {"pde", "compatibility_defect",
                                   "discarded_mass"}
    assert set(d["constraints"]) == {
        "Dirichlet boundary rows of the u-stage",
        "Dirichlet boundary rows of the laplacian stage",
    }


def test_wrong_space_rejected(cat8):
    other = build_domain("square", 5)
    with pytest.raises(SpaceMismatchError):
        solve_zoo("d_d", cat8, other.cell_space.ones())


def test_dirichlet_item_is_clamped_of_interior_inverse(cat8):
    # pad(K^-1 f|ring) computed with a dense direct solve
    dom = cat8.domain
    rng = np.random.default_rng(7)
    f = Field(dom.cell_space, rng.normal(size=dom.n_cells))
    rep = solve_zoo("dirichlet", cat8, f, SolverConfig(rel_tolerance=1e-13))
    a = cat8.interior_laplacian.to_dense()
    x = np.linalg.solve(a.T @ a, f.values[dom.ring_cells(1)])
    expect = cat8.pad1.to_dense() @ x
    assert np.allclose(rep.solution.values, expect, atol=1e-9)
    # boundary ring exactly zero by construction
    assert np.all(rep.solution.values[dom.boundary_cells()] == 0.0)


def test_neumann_item_dense_oracle(cat8):
    # on data A e_c the two-stage solve collapses to A K^-2 A^T f
    dom = cat8.domain
    e = np.zeros(dom.ring_cells(1).size)
    e[3] = 1.0
    f_vals = cat8.interior_laplacian.apply_raw(e)
    f = Field(dom.cell_space, f_vals)
    rep = solve_zoo("neumann", cat8, f, SolverConfig(rel_tolerance=1e-13))
    a = cat8.interior_laplacian.to_dense()
    kinv = np.linalg.inv(a.T @ a)
    expect = a @ (kinv @ (kinv @ (a.T @ f_vals)))
    assert dom.cell_space.norm(rep.solution.values - expect) <= 1e-10


def test_rejections_by_data_space(cat16):
    ones = cat16.domain.cell_space.ones()
    for label in ("c_f", "c_d"):  # constants are purely harmonic
        with pytest.raises(CompatibilityError) as err:
            solve_zoo(label, cat16, ones)
        assert err.value.subspace == "discrete harmonics"
    for label in ("n_f", "n_n", "n_d"):  # constants have a mean
        with pytest.raises(CompatibilityError):
            solve_zoo(label, cat16, ones)
    with pytest.raises(CompatibilityError) as err:
        solve_zoo("over", cat16, ones)
    assert err.value.subspace == "discrete biharmonics"


def test_clamped_first_stage_refuses_harmonic_data_at_n128():
    # sin(pi x) sin(pi y) is 84% discrete harmonic; the gate reads the
    # refined projection before the preimage solve, whose refinement
    # cannot reach its target at this size
    cat = OperatorCatalog(build_domain("square", 128))
    f = Expression("sin(pi*x)*sin(pi*y)").on_domain(cat.domain)
    for label in ("c_f", "c_d"):
        with pytest.raises(CompatibilityError) as err:
            solve_zoo(label, cat, f)
        assert err.value.subspace == "discrete harmonics"
        assert err.value.defect == pytest.approx(0.8439 * f.norm(), rel=1e-4)


def test_riquier_accepts_mean_free_and_returns_mean_free(cat16):
    dom = cat16.domain
    x = dom.cell_centers()[:, 0]
    f = Field(dom.cell_space, x - x.mean())
    rep = solve_zoo("riquier", cat16, f)
    u = rep.solution.values
    assert abs(dom.cell_space.inner(u, np.ones(u.size))) <= 1e-10
    assert rep.constraint_norms["u is mean-free"] <= 1e-10


def test_exchange_identities_tiny_on_range_data(cat16):
    dom = cat16.domain
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        f_vals = cat16.interior_laplacian.apply_raw(
            rng.normal(size=dom.ring_cells(1).size)
        )
        devs = exchange_identity_check(cat16, Field(dom.cell_space, f_vals))
        assert set(devs) == {
            "neumann_via_dirichlet",
            "dirichlet_via_neumann",
            "dirichlet_via_neumann_free",
            "mixed_second_order",
            "max",
            "data_norm",
        }
        worst = max(worst, devs["max"] / devs["data_norm"])
    assert worst <= 1e-9


def zoo_route_devs(cat, f, cfg):
    """The exchange deviations with every two-letter solution taken from
    its own solve_zoo call, each with a fresh factor dict."""
    space, a = cat.domain.cell_space, cat.interior_laplacian
    k, ring = cat.interior_normal, cat.domain.ring_cells(1)

    def zoo(label, values):
        return solve_zoo(label, cat, Field(space, values), cfg).solution.values

    def free_operator(values):
        return cat.pad1.apply_raw(a.adjoint().apply_raw(values))

    w = invert_laplacian("overdetermined", cat, f.values, cfg)[0]
    z = direct_solve(k, Field(k.domain_space, a.adjoint().apply_raw(w)), cfg)
    algebraic = direct_solve(k, z.field, cfg, min_norm=True).field.values
    w_free = invert_laplacian("underdetermined", cat, f.values, cfg)[0]
    w_neumann = invert_laplacian("neumann", cat, f.values, cfg)[0]
    dirichlet = zoo("f_c", f.values)
    return {
        "neumann_via_dirichlet": space.norm(
            zoo("c_f", f.values) - a.apply_raw(zoo("f_c", w)[ring])),
        "dirichlet_via_neumann": space.norm(dirichlet - free_operator(algebraic)),
        "dirichlet_via_neumann_free": space.norm(
            dirichlet - free_operator(zoo("c_f", w_free))),
        "mixed_second_order": space.norm(
            zoo("n_d", f.values)
            - cat.laplacian_dirichlet.apply_raw(zoo("d_d", w_neumann))),
    }


@pytest.mark.parametrize("shape,n", [("square", 16), ("annulus", 32)])
def test_exchange_identities_factor_each_operator_once(monkeypatch, shape, n):
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    f = Field(dom.cell_space, cat.interior_laplacian.apply_raw(
        np.random.default_rng(13).normal(size=dom.ring_cells(1).size)))
    factored = []
    init = linalg._BandedCholesky.__init__

    def counting(self, op, pinned, name):
        factored.append(op)
        init(self, op, pinned, name)

    monkeypatch.setattr(linalg._BandedCholesky, "__init__", counting)
    devs = exchange_identity_check(cat, f)
    # interior normal product, Neumann and Dirichlet Laplacians
    assert len(factored) == len(set(map(id, factored))) == 3
    expected = zoo_route_devs(cat, f, SolverConfig(rel_tolerance=1e-12))
    assert {key: devs[key] for key in expected} == expected


def test_exchange_identities_gate(cat16):
    rng = np.random.default_rng(12)
    raw = Field(cat16.domain.cell_space,
                rng.normal(size=cat16.domain.n_cells))
    with pytest.raises(CompatibilityError) as err:
        exchange_identity_check(cat16, raw)
    assert err.value.subspace == "discrete harmonics"


def relerr(m, ref):
    return np.abs(m - ref).max() / np.abs(ref).max()


def test_dense_adjoint_table(cat8):
    ops = {label: dense_solution_operator(cat8, label)
           for label in WELL_POSED + FORBIDDEN}
    for label in ("f_c", "c_f", "n_n", "d_d"):
        assert relerr(ops[label], ops[label].T) <= 1e-12
    assert relerr(ops["d_f"].T, ops["c_d"]) <= 1e-12
    assert relerr(ops["over"].T, ops["under"]) <= 1e-12
    # transposes of the remaining members are the projection-repaired
    # versions of the forbidden orderings, not any well-posed member
    for label, repaired in [("f_f", "c_c"), ("n_f", "c_n"), ("f_n", "n_c"),
                            ("f_d", "d_c"), ("n_d", "d_n")]:
        assert relerr(ops[label].T, ops[repaired]) <= 1e-12
    for wrong in ("n_f", "f_n"):
        assert relerr(ops["n_d"].T, ops[wrong]) > 0.1


def test_dense_matches_iterative(cat8):
    dom = cat8.domain
    f = compatible_data(cat8, "L2_mean_free", seed=21)
    dense = dense_solution_operator(cat8, "n_n") @ f.values
    live = solve_zoo("n_n", cat8, f, SolverConfig(rel_tolerance=1e-13))
    assert dom.cell_space.norm(dense - live.solution.values) <= \
        1e-9 * dom.cell_space.norm(dense)


def test_regularized_energy_bound(cat16):
    dom = cat16.domain
    rng = np.random.default_rng(31)
    for seed in range(5):
        f = Field(dom.cell_space, rng.normal(size=dom.n_cells))
        rep = solve_regularized(cat16, f)
        assert rep.problem == "regularized"
        assert rep.extras["energy"] <= f.norm() * (1 + 1e-9)
        assert rep.constraint_norms["energy bound excess"] <= 1e-9 * f.norm()
        assert rep.pde_residual_norm <= 1e-8 * f.norm()
    via_zoo = solve_zoo("regularized", cat16, f)
    assert via_zoo.problem == "regularized"


def test_hessian_neumann_gate_and_solve(cat16):
    dom = cat16.domain
    with pytest.raises(CompatibilityError):
        solve_hessian("neumann", cat16, dom.cell_space.ones())
    rng = np.random.default_rng(41)
    vals = rng.normal(size=dom.n_cells)
    centers = dom.cell_centers()
    basis = np.column_stack([np.ones(dom.n_cells), centers[:, 0], centers[:, 1]])
    vals -= basis @ np.linalg.lstsq(basis, vals, rcond=None)[0]
    f = Field(dom.cell_space, vals)
    rep = solve_hessian("neumann", cat16, f)
    assert rep.problem == "hessian_neumann"
    assert rep.constraint_norms["solution orthogonal to linears"] <= 1e-8
    assert rep.pde_residual_norm <= 1e-7 * f.norm()
    via_zoo = solve_zoo("hessian_neumann", cat16, f)
    assert via_zoo.problem == "hessian_neumann"
    with pytest.raises(ValueError):
        solve_hessian("robin", cat16, f)


def test_hessian_dirichlet_tracks_clamped_solution():
    gaps = {}
    for n in (8, 16):
        cat = OperatorCatalog(build_domain("square", n))
        f = cat.domain.cell_space.ones()
        rep = solve_hessian("dirichlet", cat, f,
                            SolverConfig(rel_tolerance=1e-12))
        assert rep.constraint_norms["u vanishes on the boundary ring"] == 0.0
        assert rep.constraint_norms["normal difference of u vanishes"] == 0.0
        gaps[n] = rep.extras["clamped_comparison_l2"]
    assert gaps[16] < gaps[8]
    assert 3.0 < gaps[8] / gaps[16] < 5.0  # second-order shrink


def test_hessian_dirichlet_product_is_built_once_per_catalog(cat8):
    f = cat8.domain.cell_space.ones()
    solve_hessian("dirichlet", cat8, f)
    op = cat8.hessian_dirichlet_normal
    gc.collect()
    gc.disable()
    try:
        solve_hessian("dirichlet", cat8, f)
        # a per-call product and its cached adjoint would form a cycle
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert cat8.hessian_dirichlet_normal is op


def test_biharmonic_chain(cat16):
    c = best_constant(make_pair(cat16.gradient_dirichlet, kernel_forward=()))
    q = best_constant(make_pair(cat16.interior_laplacian, kernel_forward=()))
    rep = biharmonic_chain_check(cat16, c, q, samples=10)
    assert rep.ok()
    assert len(rep.worst_steps) == 4
    assert all(0 < w <= 1 + 1e-10 for w in rep.worst_steps)
    assert rep.hessian_ratio_max > 0
    loose = biharmonic_chain_check(cat16, 2 * c, q, samples=10)
    assert loose.ok()
    # random deep fields sit far from the extremal mode, so only a
    # drastically undersized constant is guaranteed to trip the check
    tight = biharmonic_chain_check(cat16, 0.05 * c, q, samples=10)
    assert not tight.ok()


def test_large_square_solves_within_gates():
    # n=128: the interior normal product's conditioning grows like h^-4,
    # and CG spent 155 s here before failing on d_f
    cat = OperatorCatalog(build_domain("square", 128))
    f = compatible_data(cat, "L2", seed=128)
    fnorm = f.norm()
    for label in ("f_c", "f_f", "d_f"):
        rep = solve_zoo(label, cat, f)
        assert rep.pde_residual_norm <= 1e-8 * fnorm, label
        for name, value in rep.constraint_norms.items():
            assert value <= 1e-8 * fnorm, (label, name, value)


ONE_SIDED_GRIDS = [(shape, n) for shape in ("square", "lshape", "annulus")
                   for n in (32, 64)] + [("square", 128)]


@pytest.mark.parametrize("shape,n", ONE_SIDED_GRIDS)
def test_one_sided_problems_recover_their_preimage(shape, n):
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    space = dom.cell_space
    b = cat.interior_biharmonic
    rng = np.random.default_rng(n)
    # over: data B y comes back as pad2 y
    y = rng.normal(size=b.domain_space.dim)
    f = Field(space, b.apply_raw(y))
    rep = solve_zoo("over", cat, f)
    expect = cat.pad2.apply_raw(y)
    assert space.norm(rep.solution.values - expect) <= 1e-8 * space.norm(expect)
    assert rep.compatibility_defect <= 1e-8 * f.norm()
    for name, value in rep.constraint_norms.items():
        assert value <= 1e-8 * f.norm(), (name, value)
    # under: every field is data; the answer meets the target on the deep
    # cells and has no discrete-biharmonic component
    g = Field(space, rng.normal(size=dom.n_cells))
    rep = solve_zoo("under", cat, g)
    u = rep.solution.values
    assert rep.pde_residual_norm <= 1e-10 * g.norm()
    assert rep.constraint_norms["u has no discrete-biharmonic component"] \
        <= 1e-10 * space.norm(u)


@pytest.mark.parametrize("shape,n", ONE_SIDED_GRIDS[:-1])
def test_under_meets_its_target_with_one_solve(shape, n):
    # the scaled identity block leaves the first augmented solve within
    # the target, so no refinement step follows
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    smooth = Expression("exp(x)*cos(3*y)+x*y").on_domain(dom)
    noise = Field(dom.cell_space,
                  np.random.default_rng(n + 1).normal(size=dom.n_cells))
    for g in (smooth, noise):
        rep = solve_zoo("under", cat, g)
        assert rep.iterations == 1
        assert rep.pde_residual_norm <= 1e-10 * g.norm()


def test_one_sided_problems_match_dense_operators():
    cat = OperatorCatalog(build_domain("square", 16))
    f = compatible_data(cat, "L2_no_biharmonic", seed=51)
    g = compatible_data(cat, "L2", seed=52)
    space = cat.domain.cell_space
    for label, data in (("over", f), ("under", g)):
        dense = dense_solution_operator(cat, label) @ data.values
        live = solve_zoo(label, cat, data).solution.values
        assert space.norm(live - dense) <= 1e-10 * space.norm(dense), label


@pytest.mark.parametrize("shape", ("square", "lshape", "annulus"))
def test_hessian_neumann_factor_agrees_with_deflated_cg(shape):
    cat = OperatorCatalog(build_domain(shape, 16))
    dom = cat.domain
    space = dom.cell_space
    centers = dom.cell_centers()
    linears = [np.ones(dom.n_cells), centers[:, 0], centers[:, 1]]
    vals = np.random.default_rng(53).normal(size=dom.n_cells)
    for v in orthonormalize(linears, space):
        vals -= space.inner(v, vals) * v
    f = Field(space, vals)
    rep = solve_hessian("neumann", cat, f)
    op = cat.hessian.adjoint() @ cat.hessian
    oracle = deflated_cg_solve(op, f, linears, SolverConfig(rel_tolerance=1e-13))
    x = oracle.field.values
    assert space.norm(rep.solution.values - x) <= 1e-8 * space.norm(x)
    assert rep.pde_residual_norm <= 1e-10 * f.norm()
    # a linear component is incompatible data
    with pytest.raises(CompatibilityError):
        solve_hessian("neumann", cat,
                      Field(space, vals + 1e-6 * f.norm() * centers[:, 0]))


def test_hessian_neumann_pins_three_cells_per_piece():
    # two separate 6x6 squares: the kernel holds the affine functions of each
    cells = [(i + di, j) for di in (0, 9) for i in range(6) for j in range(6)]
    dom = GridDomain(cells, 1 / 16)
    cat = OperatorCatalog(dom)
    space = dom.cell_space
    centers = dom.cell_centers()
    left = dom.cells[:, 0] < 6
    pieces = [np.where(p, 1.0, 0.0) for p in (left, ~left)]
    affine = [p * c for p in pieces for c in
              (np.ones(dom.n_cells), centers[:, 0], centers[:, 1])]
    vals = np.random.default_rng(54).normal(size=dom.n_cells)
    for v in orthonormalize(affine, space):
        vals -= space.inner(v, vals) * v
    f = Field(space, vals)
    kernel = piecewise_affine(space, dom.component_labels, centers)
    assert len(kernel[0]) == 6
    assert sorted(left[kernel[1]]) == [False] * 3 + [True] * 3
    rep = solve_hessian("neumann", cat, f)
    u = rep.solution.values
    assert rep.pde_residual_norm <= 1e-10 * f.norm()
    for v in affine:
        assert abs(space.inner(u, v)) <= 1e-12 * space.norm(u) * space.norm(v)
    # a kernel component with zero mean over the whole mask
    shifted = Field(space, vals + 1e-6 * f.norm() * (pieces[0] - pieces[1]))
    with pytest.raises(CompatibilityError):
        solve_hessian("neumann", cat, shifted)


def smooth_data(dom):
    x, y = dom.cell_centers().T
    return np.exp(x) * np.cos(3 * y) + x * y


# plain relative residual of a regularized answer; the largest measured on
# the three shapes is 3.1e-9 at n=32 and 3.5e-8 at n=64 (exp*cos data,
# random data 5e-10 and 6e-9), growing like the conditioning of L* L + 1
REGULARIZED_FLOOR = {32: 5e-9, 64: 6e-8}


@pytest.mark.parametrize("n", sorted(REGULARIZED_FLOOR))
@pytest.mark.parametrize("shape", ("square", "lshape", "annulus"))
def test_regularized_answers_past_its_banded_floor(shape, n):
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    for vals in (np.random.default_rng(55).normal(size=dom.n_cells),
                 smooth_data(dom)):
        f = Field(dom.cell_space, vals)
        rep = solve_regularized(cat, f)
        assert rep.pde_residual_norm <= REGULARIZED_FLOOR[n] * f.norm()
        assert rep.constraint_norms["energy bound excess"] <= 1e-9 * f.norm()
        assert rep.extras["energy"] <= f.norm() * (1 + 1e-9)


def test_regularized_fails_fast_at_its_rounding_floor():
    cat = OperatorCatalog(build_domain("square", 32))
    dom = cat.domain
    f = Field(dom.cell_space, np.random.default_rng(55).normal(size=dom.n_cells))
    with pytest.raises(ConvergenceFailure) as err:
        solve_regularized(cat, f, SolverConfig(rel_tolerance=1e-18))
    history = err.value.residual_history
    message = str(err.value)
    assert f"refinement stopped at residual {min(history[1:]):.3e}" in message
    assert f"target {1e-18 * f.norm():.3e}" in message
    assert "augmented route" in message and "target 1.0e-18" in message
    assert len(history) <= 12


def test_hessian_neumann_answers_on_the_n64_annulus():
    # banded refinement stalls at 1.5e-10 of |f| here; the augmented
    # route through H with its pinned columns dropped answers
    cat = OperatorCatalog(build_domain("annulus", 64))
    space = cat.domain.cell_space
    vals = smooth_data(cat.domain)
    for v in cat.hessian_normal.kernel[0]:
        vals -= space.inner(v, vals) * v
    f = Field(space, vals)
    rep = solve_hessian("neumann", cat, f)
    u = rep.solution.values
    # measured 1.1e-9: the augmented residual meets 1e-10, the plain one
    # carries H's conditioning once more
    assert rep.pde_residual_norm <= 2e-9 * f.norm()
    assert rep.constraint_norms["solution orthogonal to linears"] <= (
        1e-12 * space.norm(u))


def test_c_f_answers_in_class_data_on_the_n128_square():
    cat = OperatorCatalog(build_domain("square", 128))
    dom = cat.domain
    x, y = dom.cell_centers().T
    # sin*sin projected onto the interior stencil's range: in c_f's class
    vals = harmonic_defect(cat, np.sin(np.pi * x) * np.sin(np.pi * y))[1]
    f = Field(dom.cell_space, vals)
    rep = solve_zoo("c_f", cat, f)
    w = rep.intermediate.values
    # the clamped stage's preimage: measured 3.3e-10 against the 13-point
    # interior equation
    assert rep.pde_residual_norm <= 1e-9 * f.norm()
    assert rep.compatibility_defect <= 1e-8 * f.norm()
    ring = dom.ring_cells(1)
    assert dom.cell_space.norm(
        cat.interior_laplacian.apply_raw(w[ring]) - vals) <= 1e-9 * f.norm()
