import ast
import dataclasses
import gc
import inspect
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from bizoo import (
    CompatibilityError,
    ConvergenceFailure,
    EmptyDomainError,
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
from bizoo import laplace, linalg, operators, zoo
from bizoo.zoo import dense_stage_inverses
from bizoo.expressions import Expression
from bizoo.laplace import (
    KINDS,
    STAGES,
    harmonic_defect,
    interior_residual_norm,
    invert_laplacian,
    mean_defect,
    strip_norm,
)
from bizoo.linalg import piecewise_affine
from augmented_reference import augmented_reference
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


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_over_reproduces_recorded_reports_at_n24_and_n32(shape):
    """over at two more sizes (h = 1/24 is not a power of two), recorded
    before over gated its data on the 5-point range first (numpy 2.4,
    scipy 1.17), compared as the rows above."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    for n in (24, 32):
        cat = OperatorCatalog(build_domain(shape, n))
        f = compatible_data(cat, resolve_problem("over").data_space, seed=61)
        report = solve_zoo("over", cat, f).to_dict()
        del report["wall_time_ms"]
        key = f"{shape}/over/n{n}"
        _assert_report_matches(report, golden[key], key)


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_exchange_identities_reproduce_recorded_deviations(shape):
    """Recorded before the stages were composed through laplace's kinds
    table (numpy 2.4, scipy 1.17), compared as the rows above."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    cat = OperatorCatalog(build_domain(shape, 16))
    devs = exchange_identity_check(cat, compatible_data(cat, "L2_no_harmonic", seed=61))
    _assert_report_matches(devs, golden[f"exchange/{shape}"], f"exchange/{shape}")


@pytest.mark.parametrize("label", TWO_STAGE)
def test_two_stage_rows_leave_the_bilaplacian_unassembled(label):
    cat = OperatorCatalog(build_domain("annulus", 16))
    f = compatible_data(cat, resolve_problem(label).data_space, seed=62)
    solve_zoo(label, cat, f)
    assert "interior_biharmonic" not in cat._cache


def test_a_refused_over_leaves_the_bilaplacian_unassembled():
    cat = OperatorCatalog(build_domain("square", 16))
    with pytest.raises(CompatibilityError):  # constants are harmonic
        solve_zoo("over", cat, cat.domain.cell_space.ones())
    assert "interior_biharmonic" not in cat._cache
    shallow = OperatorCatalog(build_domain("annulus", 8))
    with pytest.raises(EmptyDomainError, match=r"^no cells of depth >= 2: interior "
                                                r"stencil is empty$"):
        solve_zoo("over", shallow, shallow.domain.cell_space.ones())
    assert shallow._cache == {}


@pytest.mark.parametrize("label", ["d_d", "n_n", "d_f"])
def test_laplacian_stages_leave_the_gradient_unassembled(label):
    # the penalized Laplacians are written from the neighbor table, and
    # the Neumann kernel is built without the gradient
    cat = OperatorCatalog(build_domain("annulus", 16))
    f = compatible_data(cat, resolve_problem(label).data_space, seed=62)
    solve_zoo(label, cat, f)
    assert "gradient" not in cat._cache


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


def _problem_fields(problem):
    fields = {f.name: getattr(problem, f.name) for f in dataclasses.fields(problem)}
    fields.update(solver=problem.solver.__name__, composition=problem.composition)
    return json.loads(json.dumps(fields))


def test_table_reproduces_recorded_rows():
    """Recorded while every row was still written out by hand (numpy 2.4,
    scipy 1.17) and compared exactly: the classification, each label's and
    alias's fields in table order, the refusals and the unknown-label
    message."""
    golden = json.loads(GOLDEN_REPORTS.read_text())
    assert classify_zoo() == golden["zoo/classify"]
    problems = {name: _problem_fields(p) for name, p in zoo._BY_NAME.items()}
    assert list(problems) == list(golden["zoo/problems"])
    assert problems == golden["zoo/problems"]
    dom = build_domain("square", 8)
    refusals = {}
    for label in FORBIDDEN:
        with pytest.raises(ForbiddenCompositionError) as err:
            solve_zoo(label, dom, dom.cell_space.ones())
        refusals[label] = str(err.value)
    assert refusals == golden["zoo/refusals"]
    with pytest.raises(ValueError) as err:
        resolve_problem("q_q")
    assert str(err.value) == golden["zoo/unknown"]


def _strings_outside_docstrings(path):
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def test_composition_rows_are_derived():
    """No composition row is written out in zoo: each report name is
    spelled once, and the two narrower data classes and the repaired
    adjoint at most once each."""
    strings = _strings_outside_docstrings(Path(zoo.__file__))
    names = {name for p in zoo._BY_NAME.values() for name, _ in p.constraints}
    assert len(names) == 16
    for name in names:
        assert strings.count(name) == 1, name
    for word in ("L2_mean_free", "L2_no_harmonic", "repaired"):
        assert sum(word in s for s in strings) <= 1, word


DENSE_GRIDS = [("square", 8), ("lshape", 8), ("lshape", 12), ("annulus", 16)]


@pytest.mark.parametrize("shape,n", DENSE_GRIDS)
def test_dense_operators_confirm_the_adjoint_column(shape, n):
    """The transpose of each well-posed row's solution operator is the
    operator of the row its adjoint column names, or of the forbidden
    ordering it repairs."""
    cat = OperatorCatalog(build_domain(shape, n))
    stages = dense_stage_inverses(cat)
    for row in classify_zoo():
        if row["status"] != "well-posed":
            continue
        label = row["label"]
        adjoint = label if row["adjoint"] == "self" else row["adjoint"].split()[-1]
        ops = (dense_solution_operator(cat, label, stages),
               dense_solution_operator(cat, adjoint, stages))
        assert relerr(ops[0].T, ops[1]) <= 1e-12, (label, adjoint)


DATA_CLASSES = ("L2", "L2_mean_free", "L2_no_harmonic")  # by rank, widest first


@pytest.mark.parametrize("shape,n", DENSE_GRIDS)
def test_each_stage_maps_its_data_class_into_its_output_class(shape, n):
    """The premise of the status rule: on data of its data class, each
    stage inverse's output lies in every class up to its output rank and
    in none past it (mean defect for rank 1, distance from the interior
    stencil's range for rank 2, both relative to the output)."""
    cat = OperatorCatalog(build_domain(shape, n))
    space = cat.domain.cell_space
    a = cat.interior_laplacian.to_dense()
    stages = dense_stage_inverses(cat)
    for letter, entry in STAGES.items():
        data = compatible_data(cat, DATA_CLASSES[entry.data_rank], seed=71)
        out = stages[letter] @ data.values
        defects = (0.0, mean_defect(cat.domain, out),
                   space.norm(out - a @ np.linalg.lstsq(a, out, rcond=None)[0]))
        for rank, defect in enumerate(defects):
            if rank <= entry.output_rank:
                assert defect <= 1e-12 * space.norm(out), (letter, rank)
            else:
                assert defect >= 1e-2 * space.norm(out), (letter, rank)


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

    with cat.solve_session((), cfg):
        w = invert_laplacian("overdetermined", cat, f.values)[0]
        z = direct_solve(k, Field(k.domain_space, a.adjoint().apply_raw(w)), cfg)
        algebraic = direct_solve(k, z.field, cfg, min_norm=True).field.values
        w_free = invert_laplacian("underdetermined", cat, f.values)[0]
        w_neumann = invert_laplacian("neumann", cat, f.values)[0]
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
    stages = dense_stage_inverses(cat8)
    ops = {label: dense_solution_operator(cat8, label, stages)
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


def test_dense_solution_operator_composes_only_its_two_stages(cat8):
    stages = dense_stage_inverses(cat8)
    assert list(dense_stage_inverses(cat8, "nd")) == ["n", "d"]
    for label in ("d_f", "n_n", "c_d"):
        first, second = label.split("_")
        assert np.array_equal(dense_solution_operator(cat8, label),
                              stages[second] @ stages[first])
        assert np.array_equal(dense_solution_operator(cat8, label, stages),
                              stages[second] @ stages[first])


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


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_hessian_dirichlet_reports_the_ring_data_it_discards(shape):
    # the restricted normal product never reads f on the depth-0 cells,
    # and on normal data that part is about half of |f|
    cat = OperatorCatalog(build_domain(shape, 16))
    f = compatible_data(cat, "L2", seed=61)
    rep = solve_zoo("hessian_dirichlet", cat, f)
    assert rep.discarded_mass == strip_norm(cat.domain, f.values, 0)
    assert rep.discarded_mass > 0.4 * f.norm()
    inner = np.where(cat.domain.depth == 0, 0.0, f.values)
    same = solve_zoo("hessian_dirichlet", cat, Field(cat.domain.cell_space, inner))
    assert np.array_equal(same.solution.values, rep.solution.values)


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


@pytest.mark.parametrize("shape,n", ONE_SIDED_GRIDS)
def test_under_solves_on_one_banded_factor(monkeypatch, shape, n):
    # the minimum-norm u = B x of B* u = g comes from one banded factor of
    # B* B, shared by the solve and its biharmonic-defect check and carried
    # into the second solve on the catalog, which builds none, and agrees
    # with the r of the augmented system's LU.  The stop bounds B* u's
    # residual, not u's error: the agreement reads 9.6e-11 on the square's
    # n=32 noise, and up to 1.4e-10 on other seeds where one solve stops
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    space = dom.cell_space
    b = cat.interior_biharmonic
    smooth = Expression("exp(x)*cos(3*y)+x*y").on_domain(dom)
    noise = Field(space, np.random.default_rng(n + 1).normal(size=dom.n_cells))
    banded = _count_factors(monkeypatch, linalg._BandedCholesky)
    reference = augmented_reference(b)
    for g, built in ((smooth, 1), (noise, 0)):
        del banded[:]
        rep = solve_zoo("under", cat, g)
        assert [args[0] for args in banded] == [cat.biharmonic_normal] * built
        u = rep.solution.values
        assert rep.pde_residual_norm <= 1e-10 * g.norm()
        assert rep.constraint_norms["u has no discrete-biharmonic component"] \
            <= 1e-10 * space.norm(u)
        assert rep.iterations <= 3
        r = reference(g=g.values[dom.ring_cells(2)])[0]
        assert space.norm(u - r) <= 1e-10 * space.norm(r)


SOLVABLE = WELL_POSED + ("regularized", "hessian_neumann", "hessian_dirichlet")
# each row after the first, with the catalog operators it factors that the
# row before it leaves uncarried: a row carries its stages' factors (over:
# the clamped stage's and nested_normal; under: biharmonic_normal), and
# over's range-defect factor of biharmonic_normal stays its own
CARRY_SEQUENCE = (
    ("d_f", ("laplacian_dirichlet", "interior_normal")),
    ("f_d", ()),
    ("n_f", ("laplacian_neumann",)),
    ("n_n", ()),
    ("over", ("interior_normal", "nested_normal", "biharmonic_normal")),
    ("over", ("biharmonic_normal",)),
    ("under", ("biharmonic_normal",)),
    ("c_f", ("interior_normal",)),
)


@pytest.mark.parametrize("shape", ["square", "annulus"])
def test_a_solve_reuses_the_factors_the_solve_before_it_carried(monkeypatch, shape):
    cat = OperatorCatalog(build_domain(shape, 16))
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    for label, fresh in CARRY_SEQUENCE:
        del built[:]
        f = compatible_data(cat, resolve_problem(label).data_space, seed=3)
        solve_zoo(label, cat, f)
        names = {id(op): name for name, op in cat._cache.items()}
        assert sorted(names[id(args[0])] for args in built) == sorted(fresh), label
        assert set(map(id, cat._factors)) == {
            id(getattr(cat, name)) for name in resolve_problem(label).factored}, label


def test_a_solve_on_another_catalog_empties_the_first(cat8):
    first = OperatorCatalog(build_domain("square", 8))
    solve_zoo("d_f", first, compatible_data(first, "L2", seed=4))
    assert len(first._factors) == 2
    solve_zoo("n_n", cat8, compatible_data(cat8, "L2_mean_free", seed=4))
    assert first._factors == {}
    assert list(cat8._factors) == [cat8.laplacian_neumann]
    solve_zoo("d_d", first, compatible_data(first, "L2", seed=4))
    assert cat8._factors == {} and list(first._factors) == [first.laplacian_dirichlet]


def test_a_solve_that_raises_carries_nothing(cat16):
    solve_zoo("f_c", cat16, compatible_data(cat16, "L2", seed=5))
    assert list(cat16._factors) == [cat16.interior_normal]
    # c_f's first stage gates the data on the carried factor, and refuses it
    with pytest.raises(CompatibilityError):
        solve_zoo("c_f", cat16, compatible_data(cat16, "L2", seed=5))
    assert cat16._factors == {}


def test_a_collected_catalog_takes_its_factors_with_it():
    cat = OperatorCatalog(build_domain("lshape", 16))
    solve_zoo("n_f", cat, compatible_data(cat, "L2_mean_free", seed=6))
    factors = [weakref.ref(factor) for factor in cat._factors.values()]
    assert len(factors) == 2
    held = weakref.ref(cat)
    del cat
    gc.collect()
    assert held() is None and all(ref() is None for ref in factors)


def test_private_factors_are_never_carried(monkeypatch, cat16):
    # the Hessian rows', regularized's and the clamped reference's factors
    # live for their own solve: each row drops the factors carried before
    # it and carries none
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    for label in ("regularized", "hessian_neumann", "hessian_dirichlet"):
        solve_zoo("c_d", cat16, compatible_data(cat16, "L2_no_harmonic", seed=7))
        assert len(cat16._factors) == 2
        del built[:]
        solve_zoo(label, cat16, compatible_data(cat16, resolve_problem(label).data_space, 7))
        assert len(built) == 1 + (label == "hessian_dirichlet"), label
        assert cat16._factors == {}, label
    assert built[1][0] is cat16.interior_normal  # the clamped reference


def test_a_carried_factor_whose_pins_changed_is_rebuilt(monkeypatch, cat8):
    op = cat8.laplacian_neumann
    f = compatible_data(cat8, "L2_mean_free", seed=8)
    first = solve_zoo("n_n", cat8, f).solution.values
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    basis, pinned = op.kernel
    monkeypatch.setattr(op, "kernel", (basis, (pinned + 1) % cat8.domain.n_cells))
    again = solve_zoo("n_n", cat8, f).solution.values
    assert [args[0] for args in built] == [op]  # one factor, for both stages
    assert np.allclose(again, first, rtol=0, atol=1e-10 * np.abs(first).max())


def test_no_laplace_or_zoo_function_takes_a_factors_dict():
    # a solve's stages and measurements read their factors from the solve
    # session on the catalog, so none of them passes a dict along
    functions = [fn for module in (laplace, zoo)
                 for _, fn in inspect.getmembers(module, inspect.isfunction)
                 if fn.__module__ == module.__name__]
    functions += [entry.inverse for entry in KINDS.values()]
    functions += [row.solver for row in zoo._TABLE + zoo._OTHERS]
    names = {fn.__name__ for fn in functions}
    assert {"harmonic_defect", "invert_stages", "measure_constraint", "solve_laplace",
            "_clamped_inverse", "_two_stages", "exchange_identity_check"} <= names
    assert sorted({fn.__name__ for fn in functions
                   if "factors" in inspect.signature(fn).parameters}) == []


def test_only_the_public_entries_take_a_solver_config():
    # a solve's tolerance is its session's, read by OperatorCatalog.solve,
    # so no stage, inverse or measurement takes one, and no laplace or zoo
    # function calls direct_solve itself
    functions = [fn for module in (laplace, zoo)
                 for _, fn in inspect.getmembers(module, inspect.isfunction)
                 if fn.__module__ == module.__name__]
    functions += [entry.inverse for entry in KINDS.values()]
    functions += [row.solver for row in zoo._TABLE + zoo._OTHERS]
    names = {fn.__name__ for fn in functions}
    assert {"_range_defect", "clamped_preimage", "_free_inverse", "invert_stages",
            "_doubly_constrained", "_hessian_dirichlet"} <= names
    assert sorted({fn.__name__ for fn in functions
                   if "cfg" in inspect.signature(fn).parameters}) == [
        "exchange_identity_check", "solve_hessian", "solve_laplace", "solve_regularized",
        "solve_zoo"]
    assert [site for site in construction_sites("direct_solve")
            if site[0] in ("laplace.py", "zoo.py")] == []
    assert not hasattr(laplace, "direct_solve") and not hasattr(zoo, "direct_solve")


def _spy_solves(monkeypatch):
    """(name, config) of every solve the catalogs make while the spy is set."""
    seen = []
    solve = operators.direct_solve

    def spying(op, b, cfg=None, **kw):
        seen.append((kw["name"], cfg))
        return solve(op, b, cfg, **kw)

    monkeypatch.setattr(operators, "direct_solve", spying)
    return seen


@pytest.mark.parametrize("label,names", [
    ("f_c", {"minimum-norm laplacian", "harmonic defect", "clamped preimage"}),
    ("over", {"harmonic defect", "biharmonic defect", "clamped preimage"}),
    ("under", {"unconstrained", "biharmonic defect"}),
    ("hessian_dirichlet", {"hessian dirichlet", "clamped reference"}),
])
def test_a_callers_tolerance_reaches_every_solve(monkeypatch, cat16, label, names):
    # stages, range-defect measurements and the clamped reference alike
    cfg = SolverConfig(rel_tolerance=1e-12)
    seen = _spy_solves(monkeypatch)
    solve_zoo(label, cat16, compatible_data(cat16, resolve_problem(label).data_space, 15), cfg)
    assert {name for name, _ in seen} == names
    assert all(used is cfg for _, used in seen)


def test_the_exchange_identities_default_to_a_tight_tolerance(monkeypatch, cat16):
    seen = _spy_solves(monkeypatch)
    exchange_identity_check(cat16, compatible_data(cat16, "L2_no_harmonic", seed=16))
    assert seen and {used.rel_tolerance for _, used in seen} == {1e-12}
    # a helper called on its own solves at the default tolerance
    del seen[:]
    harmonic_defect(cat16, compatible_data(cat16, "L2", seed=16).values)
    assert seen == [("harmonic defect", None)]


def test_a_helper_called_outside_a_solve_builds_a_private_factor(monkeypatch):
    cat = OperatorCatalog(build_domain("square", 16))
    solve_zoo("f_c", cat, compatible_data(cat, "L2", seed=10))
    carried = dict(cat._factors)
    assert list(carried) == [cat.interior_normal]
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    v = compatible_data(cat, "L2", seed=11).values
    harmonic_defect(cat, v)
    harmonic_defect(cat, v)
    assert [args[0] for args in built] == [cat.interior_normal] * 2
    assert cat._factors == carried


def test_the_exchange_identities_factor_each_stage_operator_once(monkeypatch):
    cat = OperatorCatalog(build_domain("lshape", 16))
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    exchange_identity_check(cat, compatible_data(cat, "L2_no_harmonic", seed=12))
    names = {id(op): name for name, op in cat._cache.items()}
    assert sorted(names[id(args[0])] for args in built) == [
        "interior_normal", "laplacian_dirichlet", "laplacian_neumann"]


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_a_warm_catalog_answers_bit_for_bit_as_a_fresh_one(shape):
    # every solvable row, in table order and back on one catalog: the
    # reports without their wall times and the solution bytes equal a
    # fresh catalog's
    def solved(cat, label):
        f = compatible_data(cat, resolve_problem(label).data_space, seed=9)
        rep = solve_zoo(label, cat, f)
        report = rep.to_dict()
        del report["wall_time_ms"]
        return report, rep.solution.values.tobytes()

    domain = build_domain(shape, 16)
    fresh = {label: solved(OperatorCatalog(domain), label) for label in SOLVABLE}
    warm = OperatorCatalog(domain)
    for label in SOLVABLE + SOLVABLE[::-1]:
        assert solved(warm, label) == fresh[label], label


def test_under_answers_at_n192():
    # the augmented LU stopped at 3.9e-10 against the 1e-10 target here,
    # after 4 s (2-vCPU host, one BLAS thread); the banded factor answers
    # in 1 s with a peak RSS of 335 MB against the LU's 498 MB
    cat = OperatorCatalog(build_domain("square", 192))
    dom = cat.domain
    g = Field(dom.cell_space, np.random.default_rng(192).normal(size=dom.n_cells))
    rep = solve_zoo("under", cat, g)
    assert rep.pde_residual_norm <= 1e-10 * g.norm()
    assert rep.constraint_norms["u has no discrete-biharmonic component"] \
        <= 1e-10 * dom.cell_space.norm(rep.solution.values)


def test_one_sided_problems_match_dense_operators():
    cat = OperatorCatalog(build_domain("square", 16))
    f = compatible_data(cat, "L2_no_biharmonic", seed=51)
    g = compatible_data(cat, "L2", seed=52)
    space = cat.domain.cell_space
    for label, data in (("over", f), ("under", g)):
        dense = dense_solution_operator(cat, label) @ data.values
        live = solve_zoo(label, cat, data).solution.values
        assert space.norm(live - dense) <= 1e-10 * space.norm(dense), label


def _count_factors(monkeypatch, cls):
    """The arguments of every cls factor built while the spy is set."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("n", [16, 64])
def test_over_refuses_harmonic_data_before_building_its_lu(monkeypatch, n):
    # range(B) lies in range(A), so data with a discrete-harmonic part are
    # refused on A's banded factor, the only one built, and the message
    # says the 13-point defect is at least the reported one.  The constants
    # build none: their 5-point range part is zero, as A* 1 = 0
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    cat = OperatorCatalog(build_domain("square", n))
    dom = cat.domain
    for f, factored in ((Field(dom.cell_space, np.ones(dom.n_cells)), []),
                        (Expression("exp(x)*cos(3*y)+x*y").on_domain(dom),
                         [cat.interior_normal])):
        del built[:]
        with pytest.raises(CompatibilityError) as err:
            solve_zoo("over", cat, f)
        assert [args[0] for args in built] == factored
        assert err.value.subspace == "discrete biharmonics"
        assert "relative size at least" in str(err.value)
        assert err.value.defect == pytest.approx(
            harmonic_defect(cat, f.values)[0], rel=1e-12)


@pytest.mark.parametrize("shape,n", [("square", 16), ("annulus", 32)])
def test_over_refuses_five_point_range_data_on_the_13_point_gate(monkeypatch, shape, n):
    # A y passes the 5-point gate but misses range(B): its least-squares
    # defect, on the factor of B* B, refuses the data before either nested
    # stage runs
    built = _count_factors(monkeypatch, linalg._BandedCholesky)
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    y = np.random.default_rng(n).normal(size=dom.ring_cells(1).size)
    f = Field(dom.cell_space, cat.interior_laplacian.apply_raw(y))
    assert harmonic_defect(cat, f.values)[0] <= 1e-8 * f.norm()
    del built[:]
    with pytest.raises(CompatibilityError) as err:
        solve_zoo("over", cat, f)
    assert [args[0] for args in built] == [cat.interior_normal, cat.biharmonic_normal]
    assert err.value.subspace == "discrete biharmonics"
    message = str(err.value)
    assert "relative size " in message and "at least" not in message


OVER_NOISE = (3e-9, 1e-8, 3e-8)  # relative sizes of noise added to B x0


def _over_agrees_with_the_reference(shape, n):
    """over against one LU of B's augmented system: on f = B x0, smooth
    and random x0, the answer is the reference's preimage to 1e-10; on B x0
    plus seeded noise of each OVER_NOISE size, the verdict is that of the
    least-squares defect against the gate, and the reported defect is that
    defect to 1e-3.  Refused by the 5-point gate ("at least"), the data
    report the harmonic defect, a lower bound of it.  A row within 1e-3 of
    the gate is printed, not checked."""
    cat = OperatorCatalog(build_domain(shape, n))
    dom, b = cat.domain, cat.interior_biharmonic
    space = dom.cell_space
    reference = augmented_reference(b)
    rng = np.random.default_rng(n + 7)
    ring = dom.ring_cells(2)
    for x0 in (rng.normal(size=ring.size), smooth_data(dom)[ring]):
        f0 = b.apply_raw(x0)
        u = cat.pad2.apply_raw(reference(f0)[1])
        rep = solve_zoo("over", cat, Field(space, f0))
        assert space.norm(rep.solution.values - u) <= 1e-10 * space.norm(u)
    for eps in OVER_NOISE:  # around the smooth preimage's data
        noise = rng.normal(size=dom.n_cells)
        f = Field(space, f0 + eps * space.norm(f0) / space.norm(noise) * noise)
        defect = space.norm(reference(f.values)[0])
        rel = defect / f.norm()
        if abs(rel - linalg.COMPAT_TOLERANCE) <= 1e-3 * linalg.COMPAT_TOLERANCE:
            print(f"over {shape} n={n} noise {eps:.0e}: defect {rel:.6e} at the gate")
        elif rel <= linalg.COMPAT_TOLERANCE:
            rep = solve_zoo("over", cat, f)
            assert rep.compatibility_defect == pytest.approx(defect, rel=1e-3)
        else:
            with pytest.raises(CompatibilityError) as err:
                solve_zoo("over", cat, f)
            if "at least" in str(err.value):
                assert err.value.defect <= defect * (1 + 1e-3)
            else:
                assert err.value.defect == pytest.approx(defect, rel=1e-3)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_over_agrees_with_the_augmented_reference(shape, n):
    _over_agrees_with_the_reference(shape, n)


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
def test_over_agrees_with_the_augmented_reference_at_n128(shape):
    _over_agrees_with_the_reference(shape, 128)


@pytest.mark.parametrize("shape,n", [("square", 4), ("annulus", 8)])
def test_under_without_deep_cells_raises_empty_domain(shape, n):
    # biharmonic_normal assembles B first, which has no rows there
    cat = OperatorCatalog(build_domain(shape, n))
    assert cat.domain.ring_cells(2).size == 0
    with pytest.raises(EmptyDomainError):
        solve_zoo("under", cat, Field(cat.domain.cell_space, np.ones(cat.domain.n_cells)))


@pytest.mark.parametrize("shape,n", [("square", 4), ("annulus", 8)])
def test_over_without_deep_cells_raises_empty_domain(shape, n):
    # B is assembled before the 5-point gate reads the data, so constants
    # (harmonic, and refused there) still meet the empty-stencil error
    cat = OperatorCatalog(build_domain(shape, n))
    assert cat.domain.ring_cells(2).size == 0
    with pytest.raises(EmptyDomainError):
        solve_zoo("over", cat, Field(cat.domain.cell_space, np.ones(cat.domain.n_cells)))


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


def _spy_stalls(monkeypatch):
    """The operator of every stalled direct solve while the spy is set."""
    stalls, stalled = [], linalg._stalled_normal_solve
    monkeypatch.setattr(linalg, "_stalled_normal_solve",
                        lambda op, *a: stalls.append(op) or stalled(op, *a))
    return stalls


@pytest.mark.parametrize("shape", ("square", "lshape", "annulus"))
def test_regularized_stall_route_reuses_its_banded_factor(monkeypatch, shape):
    # refinement of L* L + 1 stalls at n=32 on the smooth data; the stall
    # route corrects on the banded factor it stalled on, so one factor is
    # built
    cat = OperatorCatalog(build_domain(shape, 32))
    f = Field(cat.domain.cell_space, smooth_data(cat.domain))
    stalls = _spy_stalls(monkeypatch)
    banded = _count_factors(monkeypatch, linalg._BandedCholesky)
    rep = solve_regularized(cat, f)
    assert stalls == [cat.regularized]
    assert len(banded) == 1 and banded[0][0] is cat.regularized
    assert rep.pde_residual_norm <= REGULARIZED_FLOOR[32] * f.norm()
    assert rep.iterations <= 2 * (linalg._MAX_REFINEMENT + 1)


@pytest.mark.slow
def test_hessian_dirichlet_answers_past_its_banded_floor_at_n128(monkeypatch):
    # banded refinement stalls here; the stall route corrects on the same
    # factor in about 0.1 s, where a sparse LU of the augmented system, the
    # oracle below, takes about 4 s (2-vCPU host, one BLAS thread)
    cat = OperatorCatalog(build_domain("square", 128))
    dom = cat.domain
    f = Expression("sin(pi*x)*sin(pi*y)").on_domain(dom)
    op = cat.hessian_dirichlet_normal
    stalls = _spy_stalls(monkeypatch)
    rep = solve_hessian("dirichlet", cat, f)
    # the clamped reference, a diagnostic, stalls as well and answers
    assert stalls == [op, cat.interior_normal]
    assert rep.extras["clamped_comparison_l2"] is not None
    assert rep.pde_residual_norm <= 1e-8 * f.norm()
    for name, value in rep.constraint_norms.items():
        assert value <= 1e-8 * f.norm(), (name, value)
    # B = hessian_zero_extension @ pad1 is injective, so nothing is pinned,
    # and an LU of its augmented system gives the same answer
    assert op.kernel is None
    x = -augmented_reference(op.first_order)(g=f.values[dom.ring_cells(1)])[1]
    u = cat.pad1.apply_raw(x)
    space = dom.cell_space
    assert space.norm(rep.solution.values - u) <= 1e-8 * space.norm(u)


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


@pytest.mark.parametrize("shape", ["square", "lshape", "annulus"])
@pytest.mark.parametrize("n", [16, 32])
def test_solver_residual_is_the_reported_pde_residual(monkeypatch, shape, n):
    # under, regularized and hessian_dirichlet report the residual their
    # solve returned; it equals the residual recomputed from the answer to
    # the last bit, also after regularized's augmented stall route, which
    # it takes at n=32 on every shape for both data (at n=16 for the
    # smooth data only)
    stalls = _spy_stalls(monkeypatch)
    cat = OperatorCatalog(build_domain(shape, n))
    dom = cat.domain
    ring1 = dom.ring_cells(1)
    smooth = Expression("exp(x)*cos(3*y)+x*y").on_domain(dom)
    noise = Field(dom.cell_space, np.random.default_rng(n).normal(size=dom.n_cells))

    def recomputed(label, u, f):
        if label == "under":
            return interior_residual_norm(cat, u, f, depth=2)
        if label == "regularized":
            return dom.cell_space.norm(cat.regularized.apply_raw(u) - f)
        op = cat.hessian_dirichlet_normal
        return op.domain_space.norm(op.apply_raw(u[ring1]) - f[ring1])

    for f in (smooth, noise):
        for label in ("under", "regularized", "hessian_dirichlet"):
            rep = solve_zoo(label, cat, f)
            assert rep.pde_residual_norm == recomputed(label, rep.solution.values, f.values)
    if n == 32:
        assert [op for op in stalls if op is cat.regularized] == [cat.regularized] * 2
