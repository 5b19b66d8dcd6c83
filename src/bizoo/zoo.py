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
second's data class.

Sign convention: all stage operators are negative Laplacians, so the two
signs cancel and the intermediate stage field equals minus the solution's
Laplacian; every boundary or orthogonality statement below is insensitive
to that sign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .errors import (
    ConvergenceFailure,
    ForbiddenCompositionError,
    SpaceMismatchError,
)
from .grid import Field, GridDomain
from .linalg import (
    SolverConfig,
    SparseOperator,
    _run_cg,  # noqa: F401  unused; bench/test_bench.py checks the tracer restores it
    augmented_solve,
    compatibility_gate,
    direct_solve,
    identity_operator,
)
from .laplace import (
    LaplacianKind,
    biharmonic_defect,
    boundary_row_residual,
    clamped_preimage,
    harmonic_defect,
    interior_residual_norm,
    invert_laplacian,
    mean_defect,
    normal_difference_norm,
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


@dataclass(frozen=True)
class ZooProblem:
    label: str
    aliases: tuple
    first: str | None          # stage letter solved first, None for one-sided
    second: str | None
    data_space: str
    constraints: tuple         # (display name, measurement id) pairs
    status: str                # "well-posed" or "forbidden"
    reason: str = ""
    adjoint: str = ""          # "self", another label, or "repaired <label>"

    @property
    def composition(self) -> str:
        if self.label == "over":
            return "doubly constrained bilaplacian"
        if self.label == "under":
            return "unconstrained bilaplacian"
        return f"{STAGE_NAMES[self.first]} * {STAGE_NAMES[self.second]}"


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
        "well-posed", adjoint="under",
    ),
    ZooProblem(
        "under", ("underdetermined",), None, None, "L2",
        (
            ("u has no discrete-biharmonic component", "biharm_u"),
        ),
        "well-posed", adjoint="over",
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

_EXTRAS = ("regularized", "hessian_neumann", "hessian_dirichlet")

_BY_NAME = {}
for _p in _WELL_POSED + _FORBIDDEN:
    _BY_NAME[_p.label] = _p
    for _a in _p.aliases:
        _BY_NAME[_a] = _p


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
            f"unknown problem {name!r}; see classify_zoo() for labels"
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


def _measure_constraint(mid: str, catalog: OperatorCatalog, u: np.ndarray,
                        w: np.ndarray | None, f: np.ndarray,
                        cfg: SolverConfig, factors: dict) -> float:
    domain = catalog.domain
    if mid == "strip_u":
        return strip_norm(domain, u, 0)
    if mid == "strip2_u":
        return strip_norm(domain, u, 1)
    if mid == "ndiff_u":
        return normal_difference_norm(domain, u)
    if mid == "strip_w":
        return strip_norm(domain, w, 0)
    if mid == "ndiff_w":
        return normal_difference_norm(domain, w)
    if mid == "drows_u":
        return boundary_row_residual(domain, catalog.laplacian_dirichlet, u, w)
    if mid == "nrows_u":
        return boundary_row_residual(domain, catalog.laplacian_neumann, u, w)
    if mid == "drows_w":
        return boundary_row_residual(domain, catalog.laplacian_dirichlet, w, f)
    if mid == "nrows_w":
        return boundary_row_residual(domain, catalog.laplacian_neumann, w, f)
    if mid == "mean_u":
        return mean_defect(domain, u)
    if mid == "mean_w":
        return mean_defect(domain, w)
    if mid == "harm_u":
        return harmonic_defect(catalog, u, cfg, factors)[0]
    if mid == "harm_w":
        return harmonic_defect(catalog, w, cfg, factors)[0]
    if mid == "biharm_u":
        return biharmonic_defect(catalog, u, cfg, factors)[0]
    raise ValueError(f"unknown measurement {mid!r}")


def solve_zoo(problem, catalog_or_domain, f: Field,
              cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """Solve one member of the family and measure everything it promises."""
    catalog = _as_catalog(catalog_or_domain)
    cfg = cfg or SolverConfig()
    domain = catalog.domain
    if not f.space.compatible(domain.cell_space):
        raise SpaceMismatchError("biharmonic data must live on the cell space")
    if isinstance(problem, str) and problem in _EXTRAS:
        if problem == "regularized":
            return solve_regularized(catalog, f, cfg)
        return solve_hessian(problem.removeprefix("hessian_"), catalog, f, cfg)
    prob = resolve_problem(problem) if isinstance(problem, str) else problem
    if prob.status == "forbidden":
        raise ForbiddenCompositionError(
            f"{prob.label} is not well posed: {prob.reason}"
        )

    start = time.perf_counter()
    factors = {}  # shared by the stages and constraint measurements below
    if prob.label == "over":
        b = catalog.interior_biharmonic
        _, x, iterations, _ = augmented_solve(
            b, f, cfg=cfg, factors=factors, name="doubly constrained"
        )
        defect = compatibility_gate(
            domain.cell_space.norm(b.apply_raw(x.values) - f.values), f.norm(),
            cfg, "discrete biharmonics",
            "data has a component outside the deep-interior range of "
            "relative size {rel:.3e}",
        )
        u = catalog.pad2.apply_raw(x.values)
        w = None
        pde = defect
        lost = 0.0
    elif prob.label == "under":
        b = catalog.interior_biharmonic
        data = Field(b.domain_space, f.values[domain.ring_cells(2)])
        uf, _, iterations, _ = augmented_solve(
            b, g=data, cfg=cfg, factors=factors, name="unconstrained"
        )
        u = uf.values
        w = None
        pde = interior_residual_norm(catalog, u, f.values, depth=2)
        defect = 0.0
        lost = strip_norm(domain, f.values, 1)
    else:
        w, it1, defect, lost1 = invert_laplacian(
            _STAGE_KINDS[prob.first], catalog, f.values, cfg, factors
        )
        u, it2, defect2, lost2 = invert_laplacian(
            _STAGE_KINDS[prob.second], catalog, w, cfg, factors
        )
        iterations = it1 + it2
        lost = lost1 + lost2
        defect = max(defect, defect2)
        pde = interior_residual_norm(catalog, u, f.values, depth=2)

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
    )


def solve_regularized(catalog: OperatorCatalog, f: Field,
                      cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """Solve (L* L + 1) u = f with L the free Laplacian.

    Always solvable, no boundary conditions, and the solution satisfies
    |u|^2 + |L u|^2 <= |f|^2 up to rounding (Cauchy-Schwarz against f).
    """
    catalog = _as_catalog(catalog)
    cfg = cfg or SolverConfig()
    domain = catalog.domain
    start = time.perf_counter()
    op = (
        catalog.interior_laplacian @ catalog.free_laplacian
        + identity_operator(domain.cell_space)
    )
    res = direct_solve(op, f, cfg, name="regularized")
    u = res.field
    lu = catalog.free_laplacian.apply(u)
    energy = np.sqrt(u.norm() ** 2 + lu.norm() ** 2)
    elapsed = (time.perf_counter() - start) * 1000.0
    return BiharmonicSolveReport(
        "regularized",
        u,
        None,
        domain.cell_space.norm(op.apply_raw(u.values) - f.values),
        {"energy bound excess": max(0.0, energy - f.norm())},
        iterations=res.iterations,
        wall_time_ms=elapsed,
        extras={"energy": float(energy), "data_norm": f.norm()},
    )


def solve_hessian(kind: str, catalog_or_domain, f: Field,
                  cfg: SolverConfig | None = None) -> BiharmonicSolveReport:
    """Hessian normal-product solves.

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
    catalog = _as_catalog(catalog_or_domain)
    cfg = cfg or SolverConfig()
    domain = catalog.domain
    space = domain.cell_space
    start = time.perf_counter()
    if kind == "neumann":
        op = catalog.hessian_normal
        res = direct_solve(op, f, cfg, name="hessian neumann")
        u = res.field
        ortho = max(abs(space.inner(u.values, b)) for b in op.kernel[0])
        elapsed = (time.perf_counter() - start) * 1000.0
        return BiharmonicSolveReport(
            "hessian_neumann",
            u,
            None,
            space.norm(op.apply_raw(u.values) - f.values),
            {"solution orthogonal to linears": ortho},
            compatibility_defect=res.compatibility_defect,
            iterations=res.iterations,
            wall_time_ms=elapsed,
        )
    if kind == "dirichlet":
        op = catalog.hessian_dirichlet_normal
        data = Field(op.domain_space, f.values[domain.ring_cells(1)])
        res = direct_solve(op, data, cfg, name="hessian dirichlet")
        x = res.field.values
        u = catalog.pad1.apply_raw(x)
        # penalty-based clamped solution of the same data, for comparison;
        # a diagnostic only, so its failure does not cost the answer
        try:
            y = direct_solve(
                catalog.interior_normal, data, cfg, name="clamped reference"
            ).field.values
            comparison = {"clamped_comparison_l2": space.norm(
                u - catalog.pad1.apply_raw(y))}
        except ConvergenceFailure as exc:
            comparison = {"clamped_comparison_l2": None,
                          "clamped_comparison_failure": str(exc)}
        elapsed = (time.perf_counter() - start) * 1000.0
        return BiharmonicSolveReport(
            "hessian_dirichlet",
            Field(space, u),
            None,
            op.domain_space.norm(op.apply_raw(x) - data.values),
            {
                "u vanishes on the boundary ring": strip_norm(domain, u, 0),
                "normal difference of u vanishes": normal_difference_norm(domain, u),
            },
            iterations=res.iterations,
            wall_time_ms=elapsed,
            extras=comparison,
        )
    raise ValueError(f"hessian kind must be 'neumann' or 'dirichlet', got {kind!r}")


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

    def ok(self, slack: float = 1.0 + 1e-10) -> bool:
        return (
            all(w <= slack for w in self.worst_steps)
            and self.worst_friedrichs <= slack
        )


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
