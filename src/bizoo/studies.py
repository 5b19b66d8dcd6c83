"""Convergence studies, constant audits, and the self-check battery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ExpressionError, ForbiddenCompositionError
from .expressions import Expression
from .grid import Field, build_domain
from .laplace import LaplacianKind, estimate_chain_check, solve_laplace
from .linalg import SolverConfig
from .operators import OperatorCatalog
from .pairs import best_constant, helmholtz_decompose, make_pair
from .zoo import (
    _as_catalog,
    biharmonic_chain_check,
    classify_zoo,
    dense_solution_operator,
    exchange_identity_check,
    solve_regularized,
    solve_zoo,
)


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact solution, the data that produces it, and the problem solved."""

    name: str
    problem: str           # "poisson" or a composition label / alias
    solution_source: str
    data_source: str
    expected_order: float

    def fields(self, domain):
        f = Expression(self.data_source).on_domain(domain)
        exact = Expression(self.solution_source).on_domain(domain)
        return f, exact


MANUFACTURED = {
    "poisson_dirichlet": ManufacturedCase(
        "poisson_dirichlet",
        "poisson",
        "sin(pi*x)*sin(pi*y)",
        "2*pi^2*sin(pi*x)*sin(pi*y)",
        2.0,
    ),
    "navier_sine": ManufacturedCase(
        "navier_sine",
        "navier",
        "sin(pi*x)*sin(pi*y)",
        "4*pi^4*sin(pi*x)*sin(pi*y)",
        2.0,
    ),
    "clamped_sine2": ManufacturedCase(
        "clamped_sine2",
        "dirichlet",
        "sin(pi*x)^2*sin(pi*y)^2",
        "4*pi^4*(4*cos(2*pi*x)*cos(2*pi*y) - cos(2*pi*x) - cos(2*pi*y))",
        1.0,
    ),
}


@dataclass
class ConvergenceTable:
    case: str
    ns: tuple
    l2_errors: tuple
    max_errors: tuple

    @staticmethod
    def _orders(errors):
        return tuple(
            float(np.log2(errors[k] / errors[k + 1]))
            for k in range(len(errors) - 1)
        )

    @property
    def l2_orders(self):
        return self._orders(self.l2_errors)

    @property
    def max_orders(self):
        return self._orders(self.max_errors)

    def to_dict(self):
        return {
            "case": self.case,
            "n": list(self.ns),
            "h": [1.0 / n for n in self.ns],
            "l2_error": list(self.l2_errors),
            "max_error": list(self.max_errors),
            "l2_order": list(self.l2_orders),
            "max_order": list(self.max_orders),
        }


def _solve_case(case: ManufacturedCase, domain, f: Field,
                cfg: SolverConfig | None) -> Field:
    if case.problem == "poisson":
        catalog = OperatorCatalog(domain)
        return solve_laplace(LaplacianKind.DIRICHLET, catalog, f, cfg).solution
    return solve_zoo(case.problem, domain, f, cfg).solution


def run_convergence(case, ns=(8, 16, 32),
                    cfg: SolverConfig | None = None) -> ConvergenceTable:
    """Solve a manufactured case (by name or instance) across grids."""
    if isinstance(case, str):
        case = MANUFACTURED[case]
    l2, mx = [], []
    for n in ns:
        domain = build_domain("square", n)
        f, exact = case.fields(domain)
        u = _solve_case(case, domain, f, cfg)
        diff = u.values - exact.values
        l2.append(domain.cell_space.norm(diff))
        mx.append(float(np.abs(diff).max()))
    return ConvergenceTable(case.name, tuple(ns), tuple(l2), tuple(mx))


def constants_audit(catalog_or_domain, cfg: SolverConfig | None = None) -> dict:
    """Best constants of the two gradient pairs against the diameter bound,
    on a catalog or on a domain (given a domain, a fresh catalog)."""
    catalog = _as_catalog(catalog_or_domain)
    domain = catalog.domain
    # each pair, and the factor it keeps, is dropped before the next is made
    c_f = float(best_constant(make_pair(catalog.gradient_dirichlet), cfg=cfg))
    c_p = float(best_constant(make_pair(catalog.gradient), cfg=cfg))
    d = float(domain.diameter)
    return {
        "c_f_h": c_f,
        "c_p_h": c_p,
        "diameter": d,
        "d_over_pi": d / np.pi,
        "bound_ok": bool(c_f <= d / np.pi and c_p <= d / np.pi),
        "n_cells": domain.n_cells,
    }


# -- deterministic self-check battery ---------------------------------------------


def _check_gradient_adjoint():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    make_pair(catalog.gradient)
    make_pair(catalog.gradient_dirichlet)
    return "probed both gradient pairs"


def _check_complex_property():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    composed = (catalog.curl @ catalog.gradient).matrix.copy()
    composed.eliminate_zeros()
    assert composed.nnz == 0, "curl after gradient must vanish exactly"
    return "exact zero in floating point"


def _check_penalty_identity():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    gd = catalog.gradient_dirichlet
    squared = (gd.adjoint() @ gd).matrix
    diff = squared - catalog.laplacian_dirichlet.matrix
    scale = float(np.abs(catalog.laplacian_dirichlet.matrix.data).max())
    worst = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    assert worst <= 1e-12 * scale, f"penalty square misses by {worst:.3e}"
    labels = {s: "dirichlet" for s in ("left", "right", "bottom", "top")}
    labelled = build_domain("square", 6, labels=labels)
    mixed = OperatorCatalog(labelled).laplacian_mixed.matrix
    plain = OperatorCatalog(labelled).laplacian_dirichlet.matrix
    assert (mixed != plain).nnz == 0, "all-sides-labelled mixed operator drifted"
    return "products agree"


def _check_squared_stencil():
    domain = build_domain("square", 8)
    catalog = OperatorCatalog(domain)
    a = catalog.interior_laplacian.matrix
    p1 = catalog.pad1.matrix
    p2 = catalog.pad2.matrix
    inner = p1.T @ (a @ (p1.T @ p2))
    composed = a @ inner
    diff = composed - catalog.interior_biharmonic.matrix
    diff.eliminate_zeros()
    assert diff.nnz == 0, "13-point stencil is not the squared 5-point"
    return "matrices identical"


def _check_exchange_identities():
    domain = build_domain("square", 8)
    catalog = OperatorCatalog(domain)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(domain.ring_cells(1).size)
    f = Field(domain.cell_space, catalog.interior_laplacian.apply_raw(x))
    devs = exchange_identity_check(catalog, f)
    assert devs["max"] <= 1e-8 * f.norm(), f"worst deviation {devs['max']:.3e}"
    return f"worst deviation {devs['max']:.2e}"


def _check_classification():
    rows = classify_zoo()
    assert len(rows) == 18, f"expected 18 rows, got {len(rows)}"
    statuses = [r["status"] for r in rows]
    assert statuses.count("well-posed") == 13 and statuses.count("forbidden") == 5
    return "13 well posed, 5 forbidden"


def _check_forbidden_refused():
    domain = build_domain("square", 6)
    f = Field(domain.cell_space, np.ones(domain.n_cells))
    refused = 0
    for label in ("c_c", "d_c", "n_c", "c_n", "d_n"):
        try:
            solve_zoo(label, domain, f)
        except ForbiddenCompositionError:
            refused += 1
    assert refused == 5, f"only {refused} of 5 compositions were refused"
    return "all five refused"


def _check_fredholm_gate():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    ones = Field(domain.cell_space, np.ones(domain.n_cells))
    try:
        solve_laplace(LaplacianKind.NEUMANN, catalog, ones)
        raise AssertionError("constant data slipped through the gate")
    except CompatibilityError:
        pass
    centers = domain.cell_centers()
    vals = centers[:, 0] - centers[:, 0].mean()
    rep = solve_laplace(LaplacianKind.NEUMANN, catalog, Field(domain.cell_space, vals))
    mean = abs(domain.cell_space.inner(rep.solution.values, np.ones(domain.n_cells)))
    assert mean <= 1e-10, f"solution mean {mean:.3e}"
    return "rejects constants, returns mean-free solutions"


def _check_dense_agreement():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(domain.n_cells)
    dense = dense_solution_operator(catalog, "f_c") @ f
    lively = solve_zoo("f_c", catalog, Field(domain.cell_space, f)).solution.values
    err = domain.cell_space.norm(dense - lively)
    assert err <= 1e-8 * domain.cell_space.norm(dense), f"f_c routes differ by {err:.3e}"
    g = f - f.mean()
    dense = dense_solution_operator(catalog, "n_n") @ g
    lively = solve_zoo("n_n", catalog, Field(domain.cell_space, g)).solution.values
    err = domain.cell_space.norm(dense - lively)
    assert err <= 1e-8 * max(domain.cell_space.norm(dense), 1e-30)
    return "dense and iterative solutions agree"


def _check_estimate_chains():
    domain = build_domain("square", 10)
    catalog = OperatorCatalog(domain)
    audit = constants_audit(catalog)
    rep_d = estimate_chain_check("dirichlet", catalog, audit["c_f_h"], samples=10)
    rep_n = estimate_chain_check("neumann", catalog, audit["c_p_h"], samples=10)
    assert rep_d.ok(), f"dirichlet chain ratio {max(rep_d.worst_first, rep_d.worst_second)}"
    assert rep_n.ok(), f"neumann chain ratio {max(rep_n.worst_first, rep_n.worst_second)}"
    interior = make_pair(catalog.interior_laplacian)
    rep_b = biharmonic_chain_check(
        catalog, audit["c_f_h"], best_constant(interior), samples=10
    )
    assert rep_b.ok(), f"fourth-order chain ratios {rep_b.worst_steps}"
    return "first and second order chains hold"


def _check_expressions():
    assert Expression("2+3*4^2")(0.0, 0.0) == 50.0
    assert Expression("8/4/2")(0.0, 0.0) == 1.0
    try:
        Expression("x^2.5")
        raise AssertionError("fractional exponent accepted")
    except ExpressionError as exc:
        assert exc.position == 2, f"error position {exc.position}"
    return "precedence, associativity, integer exponents"


def _check_helmholtz():
    rng = np.random.default_rng(3)
    for shape, n, loops in (("square", 6, 0), ("annulus", 8, 1)):
        catalog = OperatorCatalog(build_domain(shape, n))
        edges = catalog.gradient.codomain_space
        g = Field(edges, rng.standard_normal(edges.dim))
        split = helmholtz_decompose(make_pair(catalog.gradient), make_pair(catalog.curl), g)
        assert split.reconstruction_error() <= 1e-10 * g.norm()
        assert split.dims["cohomology"] == loops, f"{shape} cohomology {split.dims}"
    return "square splits cleanly, annulus carries one loop"


def _check_regularized():
    domain = build_domain("square", 6)
    catalog = OperatorCatalog(domain)
    rng = np.random.default_rng(17)
    f = Field(domain.cell_space, rng.standard_normal(domain.n_cells))
    rep = solve_regularized(catalog, f)
    excess = rep.constraint_norms["energy bound excess"]
    assert excess <= 1e-10 * f.norm(), f"bound violated by {excess:.3e}"
    return "energy bound holds"


_CHECKS = (
    ("gradient adjoint identity", _check_gradient_adjoint),
    ("curl after gradient vanishes", _check_complex_property),
    ("penalty rows square to the Dirichlet operator", _check_penalty_identity),
    ("interior bilaplacian is the squared stencil", _check_squared_stencil),
    ("exchange identities", _check_exchange_identities),
    ("composition table", _check_classification),
    ("forbidden compositions are refused", _check_forbidden_refused),
    ("fredholm gate on the Neumann problem", _check_fredholm_gate),
    ("dense and iterative routes agree", _check_dense_agreement),
    ("estimate chains", _check_estimate_chains),
    ("expression grammar", _check_expressions),
    ("helmholtz decomposition", _check_helmholtz),
    ("regularized problem bound", _check_regularized),
)


def run_check(verbose: bool = False):
    """Run the battery; returns (all_ok, printable lines)."""
    lines = []
    ok = True
    for name, fn in _CHECKS:
        try:
            detail = fn()
            lines.append(f"ok: {name}" + (f" ({detail})" if verbose and detail else ""))
        except Exception as exc:  # report and keep going
            ok = False
            lines.append(f"FAIL: {name}: {exc}")
    return ok, lines
