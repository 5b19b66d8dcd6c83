"""The biharmonic family: every composition of two Laplacian solves.

A fourth-order problem here is a pair of stage letters <first>_<second>,
each the stage of one Laplacian kind of `laplace.KINDS`: d Dirichlet
(zero trace through penalty rows), n Neumann (zero flux, mean-free,
Fredholm-gated), c clamped (the overdetermined inverse: both conditions;
data must lie in the interior stencil's range) and f free (the
underdetermined inverse: no conditions; minimum-norm preimage).  The
first letter is inverted first and carries the boundary data of the
solution's Laplacian; the second letter produces the solution itself.

The sixteen orderings follow from each stage's data class, output class
and adjoint letter (`KindEntry`) by two rules.  An ordering is well posed
exactly when the first inverse's output class lies in the second's data
class, and its data class is then the first's: eleven are, and five are
refused.  Its adjoint reverses the order and swaps clamped with free;
where that ordering is forbidden, the adjoint is its projection-repaired
form.  Its constraints are both stages' own, the first stage's measured
on the laplacian stage w: boundary conditions before the side conditions
(harmonic, mean), u before w.  Two one-sided problems (doubly
constrained, unconstrained) complete the solvable family.  Three more
rows share the table without being compositions of that classification:
the regularized free bilaplacian and the Neumann and Dirichlet Hessian
normal products.  Every row names its stage solver and its constraints;
`solve_zoo` alone solves, measures and reports each of them, in one
session on the catalog (OperatorCatalog.solve_session) that holds the
caller's SolverConfig and the factors every stage and measurement shares,
each solve being the catalog's (OperatorCatalog.solve); a row names the
operators whose factors carry to the next solve on the catalog
(`factored`), and every other factor dies with the solve.

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
    compatibility_gate,
    require_finite,
)
from .laplace import (
    CHAIN_SLACK,
    STAGES,
    _energy,
    biharmonic_defect,
    clamped_preimage,
    harmonic_defect,
    interior_residual_norm,
    invert_stages,
    measure_constraint as _measure_constraint,  # the name bench/tracer.py wraps
    strip_norm,
)
from .operators import OperatorCatalog, require_depth

# -- stage solvers ---------------------------------------------------------------
# (row, catalog, data) -> (u, laplacian stage w or None, pde residual,
# compatibility defect, discarded mass, iterations, extras)

def _two_stages(prob, catalog, f):
    (w, u), its, defects, lost = invert_stages(prob.first + prob.second, catalog, f.values)
    pde = interior_residual_norm(catalog, u, f.values, depth=2)
    return u, w, pde, max(defects), lost[0] + lost[1], its[0] + its[1], {}


def _doubly_constrained(prob, catalog, f):
    # B = A M: the 13-point stencil B is the 5-point interior stencil A
    # applied to M, the 5-point stencil of the zero extension from depth>=2
    # to depth>=1 cells, so range(B) lies in range(A) and the harmonic
    # defect is a lower bound of B's range defect ("at least").  Data with
    # a harmonic part are refused on A's banded factor; data that pass are
    # gated on B's least-squares range defect, on under's factor of B* B,
    # which no later step reads and so is freed here.  x = M+ (A+ f) is
    # then two clamped preimages, on A's factor and on M's, in two passes,
    # the second on the remainder f - B x.  On data off range(B) that
    # route is an oblique projection, whose defect overstates the
    # least-squares one, so it decides nothing.  A mask with no depth-2
    # cell is refused first, as assembling B would refuse it.
    require_depth(catalog.domain, 2)
    refusal = ("data has a component outside the deep-interior range of "
               "relative size {}{{rel:.3e}}")
    compatibility_gate(harmonic_defect(catalog, f.values)[0], f.norm(),
                       "discrete biharmonics", refusal.format("at least "))
    defect = biharmonic_defect(catalog, f.values)[0]
    catalog.solve_factors.pop(catalog.biharmonic_normal, None)
    compatibility_gate(defect, f.norm(), "discrete biharmonics", refusal.format(""))
    x, r, iterations = 0.0, f.values, 0
    for _ in range(2):
        y = clamped_preimage(catalog, r)
        z = clamped_preimage(catalog, y.field.values, catalog.nested_normal)
        x = x + z.field.values
        iterations += y.iterations + z.iterations
        r = f.values - catalog.interior_biharmonic.apply_raw(x)
    pde = catalog.domain.cell_space.norm(r)
    return catalog.pad2.apply_raw(x), None, pde, defect, 0.0, iterations, {}


def _unconstrained(prob, catalog, f):
    k = catalog.biharmonic_normal
    data = Field(k.domain_space, f.values[catalog.domain.ring_cells(2)])
    res = catalog.solve(k, data, min_norm=True, name="unconstrained")
    lost = strip_norm(catalog.domain, f.values, 1)
    return res.field.values, None, res.residual_norm, 0.0, lost, res.iterations, {}


def _regularized(prob, catalog, f):
    res = catalog.solve(catalog.regularized, f, name="regularized")
    u = res.field.values
    extras = {"energy": _energy(catalog, u), "data_norm": f.norm()}
    return u, None, res.residual_norm, 0.0, 0.0, res.iterations, extras


def _hessian_neumann(prob, catalog, f):
    op = catalog.hessian_normal
    res = catalog.solve(op, f, name="hessian neumann")
    u = res.field.values
    pde = catalog.domain.cell_space.norm(op.apply_raw(u) - f.values)
    return u, None, pde, res.compatibility_defect, 0.0, res.iterations, {}


def _hessian_dirichlet(prob, catalog, f):
    op = catalog.hessian_dirichlet_normal
    data = Field(op.domain_space, f.values[catalog.domain.ring_cells(1)])
    res = catalog.solve(op, data, name="hessian dirichlet")
    catalog.solve_factors.pop(op, None)  # freed before the clamped reference factors
    x = res.field.values
    u = catalog.pad1.apply_raw(x)
    # penalty-based clamped solution of the same data, for comparison; a
    # diagnostic only, so its failure does not cost the answer
    try:
        y = catalog.solve(catalog.interior_normal, data, name="clamped reference").field.values
        extras = {"clamped_comparison_l2": catalog.domain.cell_space.norm(
            u - catalog.pad1.apply_raw(y))}
    except ConvergenceFailure as exc:
        extras = {"clamped_comparison_l2": None,
                  "clamped_comparison_failure": str(exc)}
    lost = strip_norm(catalog.domain, f.values, 0)  # the ring the product never reads
    return u, None, res.residual_norm, 0.0, lost, res.iterations, extras


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
        return self.title or f"{STAGES[self.first].stage} * {STAGES[self.second].stage}"

    def refuse_if_forbidden(self) -> None:
        """Raise ForbiddenCompositionError if this ordering is forbidden,
        which its composition alone decides, whatever the domain or data."""
        if self.status == "forbidden":
            raise ForbiddenCompositionError(f"{self.label} is not well posed: {self.reason}")

    @property
    def factored(self) -> tuple:
        """Catalog names of the operators whose factors a solve of this row
        carries to the next one on its catalog: a composition's two
        stages'; every other factor it builds dies with it."""
        if self.solver is _two_stages:
            return STAGES[self.first].factored, STAGES[self.second].factored
        return {"over": (STAGES["c"].factored, "nested_normal"),
                "under": ("biharmonic_normal",)}.get(self.label, ())


# report name of every measurement id a row lists (laplace.measure_constraint)
_NAMES = {
    "strip_u": "u vanishes on the boundary ring",
    "strip_w": "laplacian stage vanishes on the boundary ring",
    "strip2_u": "u vanishes to third order at the boundary (two rings)",
    "ndiff_u": "normal difference of u vanishes",
    "ndiff_w": "normal difference of the laplacian stage vanishes",
    "drows_u": "Dirichlet boundary rows of the u-stage",
    "drows_w": "Dirichlet boundary rows of the laplacian stage",
    "nrows_u": "Neumann boundary rows of the u-stage",
    "nrows_w": "Neumann boundary rows of the laplacian stage",
    "harm_u": "u has no discrete-harmonic component",
    "harm_w": "laplacian stage has no discrete-harmonic component",
    "mean_u": "u is mean-free",
    "mean_w": "laplacian stage is mean-free",
    "biharm_u": "u has no discrete-biharmonic component",
    "energy_u": "energy bound excess",
    "affine_u": "solution orthogonal to linears",
}
_SIDE_CONDITIONS = ("harm", "mean")  # listed after the boundary conditions
_DATA_SPACES = ("L2", "L2_mean_free", "L2_no_harmonic")  # by KindEntry rank
_ALIASES = {"f_c": ("dirichlet",), "c_f": ("neumann",), "n_n": ("riquier",),
            "d_d": ("navier",)}
_REFUSALS = {
    "c_c": "data for the clamped inverse must lie in the interior stencil's "
           "range, but the clamped inverse's own output generally does not",
    "d_c": "data for the clamped inverse must lie in the interior stencil's "
           "range, but the Dirichlet inverse's output generally does not",
    "n_c": "data for the clamped inverse must lie in the interior stencil's "
           "range, but the Neumann inverse's output generally does not",
    "c_n": "data for the Neumann inverse must be mean-free, but the clamped "
           "inverse's output generally is not",
    "d_n": "data for the Neumann inverse must be mean-free, but the Dirichlet "
           "inverse's output generally is not",
}


def _constraints(*mids) -> tuple:
    return tuple((_NAMES[mid], mid) for mid in mids)


def _well_posed(first: str, second: str) -> bool:
    return STAGES[first].output_rank >= STAGES[second].data_rank


def _composition(first: str, second: str) -> ZooProblem:
    label = f"{first}_{second}"
    if not _well_posed(first, second):
        return ZooProblem(label, (), first, second, "-", (), "forbidden", _REFUSALS[label])
    mids = [mid for _, mid in STAGES[second].constraints]
    mids += [mid.removesuffix("_u") + "_w" for _, mid in STAGES[first].constraints]
    mids.sort(key=lambda mid: (mid.split("_")[0] in _SIDE_CONDITIONS, mid.endswith("_w")))
    adjoint = f"{STAGES[second].adjoint}_{STAGES[first].adjoint}"
    if adjoint == label:
        adjoint = "self"
    elif not _well_posed(*adjoint.split("_")):
        adjoint = f"repaired {adjoint}"
    return ZooProblem(label, _ALIASES.get(label, ()), first, second,
                      _DATA_SPACES[STAGES[first].data_rank], _constraints(*mids),
                      "well-posed", adjoint=adjoint)


_COMPOSITIONS = [_composition(first, second) for second in "cfnd" for first in "cfdn"]
if sorted(_REFUSALS) != sorted(p.label for p in _COMPOSITIONS if p.status == "forbidden"):
    raise RuntimeError("zoo: every forbidden ordering needs one refusal sentence")

_TABLE = (
    [p for p in _COMPOSITIONS if p.status == "well-posed"]
    + [
        ZooProblem("over", ("overdetermined",), None, None, "L2_no_biharmonic",
                   _constraints("strip2_u", "ndiff_u"), "well-posed", adjoint="under",
                   solver=_doubly_constrained, title="doubly constrained bilaplacian"),
        ZooProblem("under", ("underdetermined",), None, None, "L2",
                   _constraints("biharm_u"), "well-posed", adjoint="over",
                   solver=_unconstrained, title="unconstrained bilaplacian"),
    ]
    + [p for p in _COMPOSITIONS if p.status == "forbidden"]
)

# rows solved like the others but outside the 18 compositions
_OTHERS = [
    ZooProblem("regularized", (), None, None, "L2", _constraints("energy_u"),
               "well-posed", adjoint="self", solver=_regularized,
               title="regularized free bilaplacian"),
    ZooProblem("hessian_neumann", (), None, None, "L2_no_affine", _constraints("affine_u"),
               "well-posed", adjoint="self", solver=_hessian_neumann,
               title="Hessian normal product"),
    ZooProblem("hessian_dirichlet", (), None, None, "L2",
               _constraints("strip_u", "ndiff_u"), "well-posed", adjoint="self",
               solver=_hessian_dirichlet, title="zero-extension Hessian normal product"),
]

_BY_NAME = {name: p for p in _TABLE + _OTHERS for name in (p.label, *p.aliases)}


def classify_zoo():
    """All 18 composition rows: 13 well posed, 5 forbidden."""
    return [{"label": p.label, "aliases": list(p.aliases), "composition": p.composition,
             "data_space": p.data_space, "constraints": [name for name, _ in p.constraints],
             "status": p.status, "reason": p.reason, "adjoint": p.adjoint}
            for p in _TABLE]


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
    prob.refuse_if_forbidden()
    require_finite(prob.label, f)  # cells no solve reads still enter the report

    start = time.perf_counter()
    # factors shared by the stages and constraint measurements below, and carried
    with catalog.solve_session(prob.factored, cfg):
        u, w, pde, defect, lost, iterations, extras = prob.solver(prob, catalog, f)
        constraints = {
            name: _measure_constraint(mid, catalog, u, w, f.values)
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
    """Deviations of the four inverse-exchange identities for data in the
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
    Its solves share one session on the catalog, which carries the
    clamped, Dirichlet and Neumann stage factors as a zoo row's.
    """
    catalog = _as_catalog(catalog_or_domain)
    cfg = cfg or SolverConfig(rel_tolerance=1e-12)
    space = catalog.domain.cell_space
    a = catalog.interior_laplacian
    ring = catalog.domain.ring_cells(1)

    def neumann_type_algebraic(values):
        # A K^-2 A* with K = A* A: the ungated clamped preimage, then the
        # free inverse of its padding
        x = catalog.pad1.apply_raw(clamped_preimage(catalog, values).field.values)
        return invert_stages("f", catalog, x)[0][0]

    def free_operator(values):
        return catalog.pad1.apply_raw(a.adjoint().apply_raw(values))

    def clamped_operator(values):
        return a.apply_raw(values[ring])

    devs = {}
    with catalog.solve_session([STAGES[letter].factored for letter in "cdn"], cfg):
        (w, lhs, v), *_ = invert_stages("cfc", catalog, f.values)  # c gates f
        devs["neumann_via_dirichlet"] = space.norm(lhs - clamped_operator(v))

        lhs = invert_stages("fc", catalog, f.values)[0][1]
        v = neumann_type_algebraic(w)
        devs["dirichlet_via_neumann"] = space.norm(lhs - free_operator(v))

        # fcf of f, reusing lhs = fc of f, then the free operator
        v = invert_stages("f", catalog, lhs)[0][0]
        devs["dirichlet_via_neumann_free"] = space.norm(lhs - free_operator(v))

        (w, lhs, v), *_ = invert_stages("ndd", catalog, f.values)
        devs["mixed_second_order"] = space.norm(
            lhs - catalog.laplacian_dirichlet.apply_raw(v))

    devs["max"] = max(devs.values())
    devs["data_norm"] = f.norm()
    return devs


# -- dense solution operators (small domains; tests and classification) ---------

def dense_stage_inverses(catalog_or_domain, letters: str = "dncf") -> dict:
    """Ambient dense matrices of the Laplacian inverses named by letters.

    Pseudo-inverses stand in where the stage is singular or rectangular,
    matching the gated solvers on their admissible data and extending them
    by orthogonal projection elsewhere.  Intended for small domains.
    """
    catalog = _as_catalog(catalog_or_domain)
    stages = {}
    if "d" in letters:
        stages["d"] = np.linalg.inv(catalog.laplacian_dirichlet.to_dense())
    if "n" in letters:
        stages["n"] = np.linalg.pinv(catalog.laplacian_neumann.to_dense(), rcond=1e-12)
    if "c" in letters or "f" in letters:
        a = catalog.interior_laplacian.to_dense()
        p = catalog.pad1.to_dense()
        kinv = np.linalg.inv(a.T @ a)
        stages["c"] = p @ kinv @ a.T
        stages["f"] = a @ kinv @ p.T
    return {letter: stages[letter] for letter in letters}


def dense_solution_operator(catalog_or_domain, label: str,
                            stages: dict | None = None) -> np.ndarray:
    """Dense ambient solution operator for any two-letter label, gated
    compositions and projection-repaired forbidden ones alike, plus the
    one-sided problems.  `stages` is a dense_stage_inverses set to compose
    from, for a caller sweeping labels on one domain; without it, the two
    stages the label composes are computed."""
    catalog = _as_catalog(catalog_or_domain)
    if label in ("over", "under"):
        # the SVD pseudo-inverse, (B^T B)^-1 B^T without squaring B's
        # conditioning
        pinv = np.linalg.pinv(catalog.interior_biharmonic.to_dense())
        p2 = catalog.pad2.to_dense()
        if label == "over":
            return p2 @ pinv
        return pinv.T @ p2.T
    first, second = label.split("_")
    if stages is None:
        stages = dense_stage_inverses(catalog, first + second)
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
