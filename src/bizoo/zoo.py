"""The biharmonic family: every composition of two Laplacian solves.

A fourth-order problem here is a pair of stage letters <first>_<second>,
each letter one of the Laplacian inverses of `laplace.invert_laplacian`
    d  Dirichlet        (zero trace through penalty rows)
    n  Neumann          (zero flux, mean-free, Fredholm-gated)
    c  clamped          (the overdetermined inverse: both conditions; data
                         must lie in the interior stencil's range)
    f  free             (the underdetermined inverse: no conditions;
                         minimum-norm preimage)
The first letter is inverted first and carries the boundary data of the
solution's Laplacian; the second letter produces the solution itself.
Eleven orderings are well posed, two one-sided problems (doubly
constrained, unconstrained) complete the solvable family, and five
orderings are rejected because the first inverse's range misses the
second's data class.  Three more rows share the table without being
compositions of that classification: the regularized free bilaplacian
and the Neumann and Dirichlet Hessian normal products.  Every row names
its stage solver and its constraints; `solve_zoo` alone solves, measures
and reports each of them.

Sign convention: all stage operators are negative Laplacians, so the two
signs cancel and the intermediate stage field equals minus the solution's
Laplacian; every boundary or orthogonality statement below is insensitive
to that sign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as _dc_field
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceFailure,
    ForbiddenCompositionError,
    SpaceMismatchError,
)
from .grid import Field, GridDomain
from .linalg import (
    SolverConfig,
    _run_cg,  # noqa: F401  unused; bench/test_bench.py checks the tracer restores it
    augmented_solve,
    compatibility_gate,
    direct_solve,
    require_finite,
)
from .laplace import (
    CHAIN_SLACK,
    LaplacianKind,
    _energy,
    clamped_preimage,
    harmonic_defect,  # noqa: F401  bench/test_bench.py checks the tracer rebinds it
    interior_residual_norm,
    invert_laplacian,
    measure_constraint as _measure_constraint,  # the name bench/tracer.py wraps
    strip_norm,
)
from .operators import OperatorCatalog

STAGE_NAMES = {"d": "dirichlet", "n": "neumann", "c": "clamped", "f": "free"}
_STAGE_KINDS = {
    "d": LaplacianKind.DIRICHLET,
    "n": LaplacianKind.NEUMANN,
    "c": LaplacianKind.OVERDETERMINED,
    "f": LaplacianKind.UNDERDETERMINED,
}


# -- stage solvers ---------------------------------------------------------------
# (row, catalog, data, config, factors) -> (u, laplacian stage w or None, pde
# residual, compatibility defect, discarded mass, iterations, extras)

def _two_stages(prob, catalog, f, cfg, factors):
    w, it1, defect1, lost1 = invert_laplacian(
        _STAGE_KINDS[prob.first], catalog, f.values, cfg, factors
    )
    u, it2, defect2, lost2 = invert_laplacian(
        _STAGE_KINDS[prob.second], catalog, w, cfg, factors
    )
    pde = interior_residual_norm(catalog, u, f.values, depth=2)
    return u, w, pde, max(defect1, defect2), lost1 + lost2, it1 + it2, {}


def _doubly_constrained(prob, catalog, f, cfg, factors):
    b = catalog.interior_biharmonic
    _, x, iterations, _ = augmented_solve(
        b, f, cfg=cfg, factors=factors, name="doubly constrained"
    )
    defect = compatibility_gate(
        catalog.domain.cell_space.norm(b.apply_raw(x.values) - f.values),
        f.norm(), "discrete biharmonics",
        "data has a component outside the deep-interior range of "
        "relative size {rel:.3e}",
    )
    return catalog.pad2.apply_raw(x.values), None, defect, defect, 0.0, iterations, {}


def _unconstrained(prob, catalog, f, cfg, factors):
    b = catalog.interior_biharmonic
    data = Field(b.domain_space, f.values[catalog.domain.ring_cells(2)])
    uf, _, iterations, _ = augmented_solve(
        b, g=data, cfg=cfg, factors=factors, name="unconstrained"
    )
    u = uf.values
    pde = interior_residual_norm(catalog, u, f.values, depth=2)
    return u, None, pde, 0.0, strip_norm(catalog.domain, f.values, 1), iterations, {}


def _regularized(prob, catalog, f, cfg, factors):
    op = catalog.regularized
    res = direct_solve(op, f, cfg, name="regularized")
    u = res.field.values
    pde = catalog.domain.cell_space.norm(op.apply_raw(u) - f.values)
    extras = {"energy": _energy(catalog, u), "data_norm": f.norm()}
    return u, None, pde, 0.0, 0.0, res.iterations, extras


def _hessian_neumann(prob, catalog, f, cfg, factors):
    op = catalog.hessian_normal
    res = direct_solve(op, f, cfg, name="hessian neumann")
    u = res.field.values
    pde = catalog.domain.cell_space.norm(op.apply_raw(u) - f.values)
    return u, None, pde, res.compatibility_defect, 0.0, res.iterations, {}


def _hessian_dirichlet(prob, catalog, f, cfg, factors):
    op = catalog.hessian_dirichlet_normal
    data = Field(op.domain_space, f.values[catalog.domain.ring_cells(1)])
    res = direct_solve(op, data, cfg, name="hessian dirichlet")
    x = res.field.values
    u = catalog.pad1.apply_raw(x)
    # penalty-based clamped solution of the same data, for comparison; a
    # diagnostic only, so its failure does not cost the answer
    try:
        y = direct_solve(
            catalog.interior_normal, data, cfg, name="clamped reference"
        ).field.values
        extras = {"clamped_comparison_l2": catalog.domain.cell_space.norm(
            u - catalog.pad1.apply_raw(y))}
    except ConvergenceFailure as exc:
        extras = {"clamped_comparison_l2": None,
                  "clamped_comparison_failure": str(exc)}
    pde = op.domain_space.norm(op.apply_raw(x) - data.values)
    return u, None, pde, 0.0, 0.0, res.iterations, extras


@dataclass(frozen=True)
class ZooProblem:
    label: str
    aliases: tuple
    first: str | None          # stage letter solved first, None for one stage
    second: str | None
    data_space: str
    constraints: tuple         # (display name, measurement id) pairs
    status: str                # "well-posed" or "forbidden"
    reason: str = ""
    adjoint: str = ""          # "self", another label, or "repaired <label>"
    solver: Callable = _two_stages
    title: str = ""            # composition of a row without stage letters

    @property
    def composition(self) -> str:
        return self.title or f"{STAGE_NAMES[self.first]} * {STAGE_NAMES[self.second]}"


_WELL_POSED = (
    ZooProblem(
        "f_c", ("dirichlet",), "f", "c", "L2",
        (
            ("u vanishes on the boundary ring", "strip_u"),
            ("normal difference of u vanishes", "ndiff_u"),
            ("laplacian stage has no discrete-harmonic component", "harm_w"),
        ),
        "well-posed", adjoint="self",
    ),
    ZooProblem(
        "c_f", ("neumann",), "c", "f", "L2_no_harmonic",
        (
            ("laplacian stage vanishes on the boundary ring", "strip_w"),
            ("normal difference of the laplacian stage vanishes", "ndiff_w"),
            ("u has no discrete-harmonic component", "harm_u"),
        ),
        "well-posed", adjoint="self",
    ),
    ZooProblem(
        "f_f", (), "f", "f", "L2",
        (
            ("u has no discrete-harmonic component", "harm_u"),
            ("laplacian stage has no discrete-harmonic component", "harm_w"),
        ),
        "well-posed", adjoint="repaired c_c",
    ),
    ZooProblem(
        "d_f", (), "d", "f", "L2",
        (
            ("Dirichlet boundary rows of the laplacian stage", "drows_w"),
            ("u has no discrete-harmonic component", "harm_u"),
        ),
        "well-posed", adjoint="c_d",
    ),
    ZooProblem(
        "n_f", (), "n", "f", "L2_mean_free",
        (
            ("Neumann boundary rows of the laplacian stage", "nrows_w"),
            ("u has no discrete-harmonic component", "harm_u"),
            ("laplacian stage is mean-free", "mean_w"),
        ),
        "well-posed", adjoint="repaired c_n",
    ),
    ZooProblem(
        "f_n", (), "f", "n", "L2",
        (
            ("Neumann boundary rows of the u-stage", "nrows_u"),
            ("u is mean-free", "mean_u"),
            ("laplacian stage has no discrete-harmonic component", "harm_w"),
        ),
        "well-posed", adjoint="repaired n_c",
    ),
    ZooProblem(
        "n_n", ("riquier",), "n", "n", "L2_mean_free",
        (
            ("Neumann boundary rows of the u-stage", "nrows_u"),
            ("Neumann boundary rows of the laplacian stage", "nrows_w"),
            ("u is mean-free", "mean_u"),
            ("laplacian stage is mean-free", "mean_w"),
        ),
        "well-posed", adjoint="self",
    ),
    ZooProblem(
        "c_d", (), "c", "d", "L2_no_harmonic",
        (
            ("Dirichlet boundary rows of the u-stage", "drows_u"),
            ("laplacian stage vanishes on the boundary ring", "strip_w"),
            ("normal difference of the laplacian stage vanishes", "ndiff_w"),
        ),
        "well-posed", adjoint="d_f",
    ),
    ZooProblem(
        "f_d", (), "f", "d", "L2",
        (
            ("Dirichlet boundary rows of the u-stage", "drows_u"),
            ("laplacian stage has no discrete-harmonic component", "harm_w"),
        ),
        "well-posed", adjoint="repaired d_c",
    ),
    ZooProblem(
        "d_d", ("navier",), "d", "d", "L2",
        (
            ("Dirichlet boundary rows of the u-stage", "drows_u"),
            ("Dirichlet boundary rows of the laplacian stage", "drows_w"),
        ),
        "well-posed", adjoint="self",
    ),
    ZooProblem(
        "n_d", (), "n", "d", "L2_mean_free",
        (
            ("Dirichlet boundary rows of the u-stage", "drows_u"),
            ("Neumann boundary rows of the laplacian stage", "nrows_w"),
            ("laplacian stage is mean-free", "mean_w"),
        ),
        "well-posed", adjoint="repaired d_n",
    ),
    ZooProblem(
        "over", ("overdetermined",), None, None, "L2_no_biharmonic",
        (
            ("u vanishes to third order at the boundary (two rings)", "strip2_u"),
            ("normal difference of u vanishes", "ndiff_u"),
        ),
        "well-posed", adjoint="under", solver=_doubly_constrained,
        title="doubly constrained bilaplacian",
    ),
    ZooProblem(
        "under", ("underdetermined",), None, None, "L2",
        (
            ("u has no discrete-biharmonic component", "biharm_u"),
        ),
        "well-posed", adjoint="over", solver=_unconstrained,
        title="unconstrained bilaplacian",
    ),
)

_FORBIDDEN = (
    ZooProblem(
        "c_c", (), "c", "c", "-", (), "forbidden",
        "data for the clamped inverse must lie in the interior stencil's "
        "range, but the clamped inverse's own output generally does not",
    ),
    ZooProblem(
        "d_c", (), "d", "c", "-", (), "forbidden",
        "data for the clamped inverse must lie in the interior stencil's "
        "range, but the Dirichlet inverse's output generally does not",
    ),
    ZooProblem(
        "n_c", (), "n", "c", "-", (), "forbidden",
        "data for the clamped inverse must lie in the interior stencil's "
        "range, but the Neumann inverse's output generally does not",
    ),
    ZooProblem(
        "c_n", (), "c", "n", "-", (), "forbidden",
        "data for the Neumann inverse must be mean-free, but the clamped "
        "inverse's output generally is not",
    ),
    ZooProblem(
        "d_n", (), "d", "n", "-", (), "forbidden",
        "data for the Neumann inverse must be mean-free, but the Dirichlet "
        "inverse's output generally is not",
    ),
)

# rows solved like the others but outside the 18 compositions
_OTHERS = (
    ZooProblem(
        "regularized", (), None, None, "L2",
        (("energy bound excess", "energy_u"),),
        "well-posed", adjoint="self", solver=_regularized,
        title="regularized free bilaplacian",
    ),
    ZooProblem(
        "hessian_neumann", (), None, None, "L2_no_affine",
        (("solution orthogonal to linears", "affine_u"),),
        "well-posed", adjoint="self", solver=_hessian_neumann,
        title="Hessian normal product",
    ),
    ZooProblem(
        "hessian_dirichlet", (), None, None, "L2",
        (
            ("u vanishes on the boundary ring", "strip_u"),
            ("normal difference of u vanishes", "ndiff_u"),
        ),
        "well-posed", adjoint="self", solver=_hessian_dirichlet,
        title="zero-extension Hessian normal product",
    ),
)

_BY_NAME = {name: p for p in _WELL_POSED + _FORBIDDEN + _OTHERS
            for name in (p.label, *p.aliases)}


def classify_zoo():
    """All 18 composition rows: 13 well posed, 5 forbidden."""
    rows = []
    for p in _WELL_POSED + _FORBIDDEN:
        rows.append(
            {
                "label": p.label,
                "aliases": list(p.aliases),
                "composition": p.composition,
                "data_space": p.data_space,
                "constraints": [name for name, _ in p.constraints],
                "status": p.status,
                "reason": p.reason,
                "adjoint": p.adjoint,
            }
        )
    return rows


def resolve_problem(name: str) -> ZooProblem:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; known labels: {', '.join(_BY_NAME)}"
        ) from None


@dataclass
class BiharmonicSolveReport:
    problem: str
    solution: Field
    intermediate: Field | None
    pde_residual_norm: float
    constraint_norms: dict
    compatibility_defect: float = 0.0
    discarded_mass: float = 0.0
    iterations: int = 0
    wall_time_ms: float = 0.0
    extras: dict = _dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        domain_h = self.solution.space.weights[0] ** 0.5
        return {
            "problem": self.problem,
            "n": round(1.0 / domain_h),
            "h": domain_h,
            "residuals": {
                "pde": self.pde_residual_norm,
                "compatibility_defect": self.compatibility_defect,
                "discarded_mass": self.discarded_mass,
            },
            "constraints": dict(self.constraint_norms),
            "iterations": self.iterations,
            "wall_time_ms": self.wall_time_ms,
            **({"extras": self.extras} if self.extras else {}),
        }


def _as_catalog(catalog_or_domain) -> OperatorCatalog:
    if isinstance(catalog_or_domain, GridDomain):
        return OperatorCatalog(catalog_or_domain)
    return catalog_or_domain


def solve_zoo(problem, catalog_or_domain, f: Field,
              cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """Solve one row of the problem table and measure everything it promises."""
    catalog = _as_catalog(catalog_or_domain)
    domain = catalog.domain
    if not f.space.compatible(domain.cell_space):
        raise SpaceMismatchError("biharmonic data must live on the cell space")
    prob = resolve_problem(problem) if isinstance(problem, str) else problem
    if prob.status == "forbidden":
        raise ForbiddenCompositionError(
            f"{prob.label} is not well posed: {prob.reason}"
        )
    require_finite(prob.label, f)  # cells no solve reads still enter the report

    start = time.perf_counter()
    factors = {}  # shared by the stages and constraint measurements below
    u, w, pde, defect, lost, iterations, extras = prob.solver(
        prob, catalog, f, cfg, factors
    )
    constraints = {
        name: _measure_constraint(mid, catalog, u, w, f.values, cfg, factors)
        for name, mid in prob.constraints
    }
    elapsed = (time.perf_counter() - start) * 1000.0
    return BiharmonicSolveReport(
        prob.label,
        Field(domain.cell_space, u),
        Field(domain.cell_space, w) if w is not None else None,
        pde,
        constraints,
        compatibility_defect=defect,
        discarded_mass=lost,
        iterations=iterations,
        wall_time_ms=elapsed,
        extras=extras,
    )


def solve_regularized(catalog: OperatorCatalog, f: Field,
                      cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """solve_zoo's "regularized" row: (L* L + 1) u = f with L the free
    Laplacian.

    Always solvable, no boundary conditions, and the solution satisfies
    |u|^2 + |L u|^2 <= |f|^2 up to rounding (Cauchy-Schwarz against f).
    """
    return solve_zoo("regularized", catalog, f, cfg)


def solve_hessian(kind: str, catalog_or_domain, f: Field,
                  cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """solve_zoo's Hessian normal-product rows, "hessian_<kind>".

    kind "neumann": H* H u = f on all cells, kernel = the affine functions
    on each connected piece, data gated against them and the solution
    orthogonal to them.  kind "dirichlet": the normal product of the
    zero-extension Hessian restricted to fields vanishing on the boundary
    ring; the report carries the distance to the penalty-based clamped
    solution for the same data, or None and the reason where that
    reference solve does not converge.  (The ambient one-sided Hessian
    keeps its affine kernel by never reading past the mask, so on the
    restricted subspace it forgets the zero extension and drifts toward
    the hinged problem instead; the centered variant is the
    clamped-consistent one.)
    """
    if kind not in ("neumann", "dirichlet"):
        raise ValueError(f"hessian kind must be 'neumann' or 'dirichlet', got {kind!r}")
    return solve_zoo(f"hessian_{kind}", catalog_or_domain, f, cfg)


# -- exchange identities ---------------------------------------------------------

def exchange_identity_check(catalog_or_domain, f: Field,
                            cfg: SolverConfig | None = None) -> dict:
    """Deviations of the three inverse-exchange identities for data in the
    interior stencil's range.  The first clamped inverse gates the data:
    anything else raises CompatibilityError("discrete harmonics") before
    any identity is evaluated.

    neumann_via_dirichlet:  the Neumann-type solution equals the clamped
        operator applied to the Dirichlet-type solution of the clamped
        preimage of f.
    dirichlet_via_neumann:  the Dirichlet-type solution equals the free
        operator applied to the Neumann-type solution of the clamped
        preimage; the inner Neumann-type inverse is taken in its algebraic
        least-squares form, whose data class that preimage misses.
    dirichlet_via_neumann_free:  the fully gated variant routing through
        the free inverse instead of the clamped one; exact on all data.
    mixed_second_order:  the Dirichlet-then-Neumann solution equals the
        Dirichlet operator applied to the twice-Dirichlet solution of the
        Neumann preimage.

    Without an explicit config the inner solves run at 1e-12 relative so
    that solver error stays well under the identity deviations measured.
    """
    catalog = _as_catalog(catalog_or_domain)
    cfg = cfg or SolverConfig(rel_tolerance=1e-12)
    domain = catalog.domain
    space = domain.cell_space
    factors = {}  # shared by every solve made here
    a = catalog.interior_laplacian
    ring = domain.ring_cells(1)

    def inverse(stages, values):  # stage letters, first inverted first
        for letter in stages:
            values = invert_laplacian(
                _STAGE_KINDS[letter], catalog, values, cfg, factors
            )[0]
        return values

    def neumann_type_algebraic(values):
        # A K^-2 A* with K = A* A: the ungated clamped preimage, then the
        # free inverse of its padding
        x = clamped_preimage(catalog, values, cfg, factors)
        return inverse("f", catalog.pad1.apply_raw(x))

    def free_operator(values):
        return catalog.pad1.apply_raw(a.adjoint().apply_raw(values))

    def clamped_operator(values):
        return a.apply_raw(values[ring])

    devs = {}

    w = inverse("c", f.values)  # gates f
    lhs = inverse("f", w)
    v = inverse("fc", w)
    devs["neumann_via_dirichlet"] = space.norm(lhs - clamped_operator(v))

    lhs = inverse("fc", f.values)
    v = neumann_type_algebraic(w)
    devs["dirichlet_via_neumann"] = space.norm(lhs - free_operator(v))

    # free inverse of f, then the gated Neumann-type solve, then the free op
    v = inverse("fcf", f.values)
    devs["dirichlet_via_neumann_free"] = space.norm(lhs - free_operator(v))

    w = inverse("n", f.values)
    lhs = inverse("d", w)
    v = inverse("dd", w)
    devs["mixed_second_order"] = space.norm(
        lhs - catalog.laplacian_dirichlet.apply_raw(v)
    )

    devs["max"] = max(devs.values())
    devs["data_norm"] = f.norm()
    return devs


# -- dense solution operators (small domains; tests and classification) ---------

def dense_stage_inverses(catalog_or_domain) -> dict:
    """Ambient dense matrices of the four Laplacian inverses.

    Pseudo-inverses stand in where the stage is singular or rectangular,
    matching the gated solvers on their admissible data and extending them
    by orthogonal projection elsewhere.  Intended for small domains.
    """
    catalog = _as_catalog(catalog_or_domain)
    ld = catalog.laplacian_dirichlet.to_dense()
    ln = catalog.laplacian_neumann.to_dense()
    a = catalog.interior_laplacian.to_dense()
    p = catalog.pad1.to_dense()
    kinv = np.linalg.inv(a.T @ a)
    return {
        "d": np.linalg.inv(ld),
        "n": np.linalg.pinv(ln, rcond=1e-12),
        "c": p @ kinv @ a.T,
        "f": a @ kinv @ p.T,
    }


def dense_solution_operator(catalog_or_domain, label: str) -> np.ndarray:
    """Dense ambient solution operator for any two-letter label, gated
    compositions and projection-repaired forbidden ones alike, plus the
    one-sided problems."""
    catalog = _as_catalog(catalog_or_domain)
    if label in ("over", "under"):
        # the SVD pseudo-inverse, (B^T B)^-1 B^T without squaring B's
        # conditioning
        pinv = np.linalg.pinv(catalog.interior_biharmonic.to_dense())
        p2 = catalog.pad2.to_dense()
        if label == "over":
            return p2 @ pinv
        return pinv.T @ p2.T
    stages = dense_stage_inverses(catalog)
    first, second = label.split("_")
    return stages[second] @ stages[first]


# -- clamped-support estimate chains ---------------------------------------------

@dataclass
class BiharmonicChainReport:
    constant: float
    interior_constant: float
    samples: int
    worst_steps: tuple
    worst_friedrichs: float
    hessian_ratio_max: float

    def ok(self) -> bool:
        return all(w <= CHAIN_SLACK for w in (*self.worst_steps, self.worst_friedrichs))


def biharmonic_chain_check(catalog_or_domain, constant: float,
                           interior_constant: float, samples: int = 20,
                           seed: int = 0) -> BiharmonicChainReport:
    """Check the second-order estimate chain on deep-interior fields.

    For u supported on the depth>=2 cells, with c the Dirichlet-gradient
    constant, each step of
        |u| <= c |grad u| <= c^2 |lap u| <= c^3 |grad lap u| <= c^4 |bilap u|
    is a spectral fact and must hold exactly.  The companion bound
        |u|^2 + |grad u|^2 <= (q + q^2) |lap u|^2,
    with q the interior pair's best constant, is checked on depth>=1
    supports.  The Hessian-to-bilaplacian ratio is only reported.
    """
    catalog = _as_catalog(catalog_or_domain)
    domain = catalog.domain
    space = domain.cell_space
    ring1 = domain.ring_cells(1)
    ring2 = domain.ring_cells(2)
    if ring2.size == 0:
        raise ValueError("chain check needs a nonempty depth>=2 ring")
    grad = catalog.gradient_dirichlet
    rng = np.random.default_rng(seed)
    c = constant
    q = interior_constant
    worst = [0.0, 0.0, 0.0, 0.0]
    worst_fr = 0.0
    hess_ratio = 0.0
    for _ in range(samples):
        x = rng.standard_normal(ring2.size)
        u = catalog.pad2.apply_raw(x)
        lap = catalog.interior_laplacian.apply_raw(u[ring1])
        bilap = catalog.interior_biharmonic.apply_raw(x)
        norms = (
            space.norm(u),
            grad.codomain_space.norm(grad.apply_raw(u)),
            space.norm(lap),
            grad.codomain_space.norm(grad.apply_raw(lap)),
            space.norm(bilap),
        )
        for s in range(4):
            if norms[s + 1] > 0:
                worst[s] = max(worst[s], norms[s] / (c * norms[s + 1]))

        y = rng.standard_normal(ring1.size)
        v = catalog.pad1.apply_raw(y)
        av = catalog.interior_laplacian.apply_raw(y)
        lhs = space.norm(v) ** 2 + grad.codomain_space.norm(grad.apply_raw(v)) ** 2
        rhs = (q + q * q) * space.norm(av) ** 2
        if rhs > 0:
            worst_fr = max(worst_fr, lhs / rhs)
        hn = catalog.hessian.codomain_space.norm(catalog.hessian.apply_raw(v))
        if space.norm(av) > 0:
            hess_ratio = max(hess_ratio, hn / space.norm(av))
    return BiharmonicChainReport(
        c, q, samples, tuple(worst), worst_fr, hess_ratio
    )
