"""The five scalar Laplacian solves on the ambient cell space.

`invert_laplacian` is the one table of the five inverses; `solve_laplace`
measures its answers, and the stages of the biharmonic family compose
them.  Dirichlet, Neumann and mixed are direct solves by banded Cholesky
factors with the kernel their catalog operator carries: none, or the
constants on each piece (for mixed, on each piece with no
Dirichlet-labelled face), pinned out, with output orthogonal to them.
The overdetermined solve imposes both boundary conditions and only
accepts data in the range of the interior stencil: it gates on the
harmonic defect before it solves for the preimage, so its verdict never
waits on that solve.  The underdetermined solve imposes none, returns
the minimum-norm preimage, and reports the boundary ring data it never
looks at.  Both, and the harmonic defect, solve with one factor of the
interior normal product per call; the defect's projection and the
underdetermined answer are refined against the interior stencil's
adjoint rather than the normal product (direct_solve's min_norm).
Mixed interpolates between Dirichlet and Neumann through the face
labels.  The 13-point biharmonic defect solves the augmented system of
the interior bilaplacian rather than its normal product, whose
conditioning is that of the stencil squared.

Every report recomputes its residual and constraint norms from the
returned solution; nothing is copied out of solver internals.
`measure_constraint` measures the constraints of both orders: the
(display name, measurement id) pairs of each kind here and of `zoo`'s rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field
from enum import Enum

import numpy as np

from .errors import SpaceMismatchError
from .grid import Field, GridDomain
from .linalg import (SolverConfig, augmented_solve, compatibility_gate, direct_solve,
                     require_finite)
from .operators import OperatorCatalog, free_stencil


class LaplacianKind(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    MIXED = "mixed"
    OVERDETERMINED = "overdetermined"
    UNDERDETERMINED = "underdetermined"


@dataclass
class LaplaceSolveReport:
    kind: LaplacianKind
    solution: Field
    pde_residual_norm: float
    constraint_norms: dict
    compatibility_defect: float = 0.0
    discarded_ring_mass: float = 0.0
    iterations: int = 0


# -- measurement helpers (shared with the biharmonic layer) --------------------

def strip_norm(domain: GridDomain, values: np.ndarray, max_depth: int = 0) -> float:
    """Weighted norm of a cell field over cells of depth <= max_depth."""
    idx = np.flatnonzero(domain.depth <= max_depth)
    return math.sqrt(float(domain.h**2 * np.sum(values[idx] ** 2)))


def normal_difference_norm(domain: GridDomain, values: np.ndarray) -> float:
    """One-sided boundary-face normal difference of a field, aggregated.

    For a field vanishing outside the mask this measures the normal
    derivative on the boundary; it is zero exactly when the field carries
    no boundary-ring mass.
    """
    # each boundary face of cell k contributes h^2 (2 v_k / h)^2 = 4 v_k^2
    counts = domain.count_boundary_faces()
    return 2.0 * math.sqrt(float(np.dot(counts, np.square(values))))


def mean_defect(domain: GridDomain, values: np.ndarray) -> float:
    """|<v, 1>| / |1| in the weighted inner product."""
    space = domain.cell_space
    ones = np.ones(space.dim)
    return abs(space.inner(values, ones)) / space.norm(ones)


def boundary_row_residual(domain: GridDomain, op, u: np.ndarray,
                          f: np.ndarray) -> float:
    """Weighted norm of (op u - f) over the depth-0 cells.

    The boundary rows of a penalized Laplacian encode its boundary
    condition, so this is the discrete residual of that condition.
    """
    r = op.apply_raw(u) - f
    return strip_norm(domain, r, 0)


def harmonic_defect(catalog: OperatorCatalog, values: np.ndarray,
                    cfg: SolverConfig | None = None, factors: dict | None = None):
    """Distance from the range of the interior stencil A, and the
    projection onto that range.

    The orthogonal complement of that range is spanned by the discrete
    harmonics, so this measures the harmonic component of the field.  The
    projection u = A x is refined against A* u = A* values, whose rounding
    floor grows with A's conditioning, not with that of A* A.  `factors`
    is passed on to direct_solve.
    """
    k = catalog.interior_normal
    rhs = Field(k.domain_space, catalog.interior_laplacian.adjoint().apply_raw(values))
    inside = direct_solve(
        k, rhs, cfg, min_norm=True, factors=factors, name="harmonic defect"
    ).field.values
    return catalog.domain.cell_space.norm(values - inside), inside


def clamped_preimage(catalog: OperatorCatalog, values: np.ndarray,
                     cfg: SolverConfig | None,
                     factors: dict | None = None) -> np.ndarray:
    """x with A* A x = A* values, A the interior stencil: the ungated
    least-squares preimage; `factors` is passed on to direct_solve."""
    k = catalog.interior_normal
    rhs = Field(k.domain_space, catalog.free_laplacian.apply_raw(values))
    return direct_solve(k, rhs, cfg, factors=factors, name="clamped preimage").field.values


def biharmonic_defect(catalog: OperatorCatalog, values: np.ndarray,
                      cfg: SolverConfig | None = None, factors: dict | None = None):
    """Same as harmonic_defect for the 13-point interior stencil, through
    the augmented-system factor; `factors` is passed on to augmented_solve."""
    a = catalog.interior_biharmonic
    _, x, _, _ = augmented_solve(
        a, Field(a.codomain_space, values), cfg=cfg, factors=factors,
        name="biharmonic defect",
    )
    inside = a.apply_raw(x.values)
    return catalog.domain.cell_space.norm(values - inside), inside


def interior_residual_norm(catalog: OperatorCatalog, u: np.ndarray,
                           f: np.ndarray, depth: int = 1) -> float:
    """Residual of the raw 5-point equation (depth 1) or the 13-point one
    (depth 2) on the cells of depth >= depth; 0.0 on a mask with no such
    cell, where the stencil has no rows.  The stencil is summed over the
    domain's neighbor table (operators.free_stencil), bit for bit what the
    adjoint of the assembled interior stencil gives, so a solve that does
    not otherwise use that operator does not assemble it."""
    domain = catalog.domain
    ring = domain.ring_cells(depth)
    if ring.size == 0:
        return 0.0
    return domain.ring_space(depth).norm(free_stencil(domain, depth, u) - f[ring])


# -- solves ---------------------------------------------------------------------

def invert_laplacian(kind, catalog: OperatorCatalog, values: np.ndarray,
                     cfg: SolverConfig | None, factors: dict | None = None):
    """Apply one of the five Laplacian inverses to a cell field.

    Returns (values, iterations, compatibility defect, discarded mass).
    The overdetermined inverse gates its data on the harmonic defect, then
    pads the preimage and returns that preimage's defect; the
    underdetermined one returns the minimum-norm preimage and discards the
    boundary ring data.  The penalized kinds solve with the kernel their
    catalog operator carries.  `factors` is passed on to direct_solve.
    """
    kind = LaplacianKind(kind)
    domain = catalog.domain
    if kind is LaplacianKind.OVERDETERMINED:
        compatibility_gate(
            harmonic_defect(catalog, values, cfg, factors)[0],
            domain.cell_space.norm(values), "discrete harmonics",
            "data has a discrete-harmonic component of relative size "
            "{rel:.3e}; the doubly constrained solve needs data in the "
            "interior stencil's range",
        )
        x = clamped_preimage(catalog, values, cfg, factors)
        defect = domain.cell_space.norm(
            values - catalog.interior_laplacian.apply_raw(x)
        )
        return catalog.pad1.apply_raw(x), 0, defect, 0.0
    if kind is LaplacianKind.UNDERDETERMINED:
        k = catalog.interior_normal
        res = direct_solve(
            k, Field(k.domain_space, values[domain.ring_cells(1)]), cfg,
            min_norm=True, factors=factors, name="minimum-norm laplacian",
        )
        return res.field.values, res.iterations, 0.0, strip_norm(domain, values, 0)
    op = getattr(catalog, f"laplacian_{kind.value}")
    res = direct_solve(
        op, Field(domain.cell_space, values), cfg, factors=factors,
        name=f"{kind.value} laplacian",
    )
    return res.field.values, res.iterations, res.compatibility_defect, 0.0


def _energy(catalog: OperatorCatalog, u: np.ndarray) -> float:
    """sqrt(|u|^2 + |L u|^2), L the free Laplacian."""
    lap = catalog.free_laplacian
    return float(np.sqrt(catalog.domain.cell_space.norm(u) ** 2
                         + lap.codomain_space.norm(lap.apply_raw(u)) ** 2))


def measure_constraint(mid: str, catalog: OperatorCatalog, u: np.ndarray,
                       w: np.ndarray | None, f: np.ndarray | None,
                       cfg: SolverConfig | None, factors: dict) -> float:
    """One constraint norm.  mid is <measurement>_<stage>: stage u measures
    the solution, whose data is the laplacian stage w; stage w measures w,
    whose data is f.  A second-order solve passes its data as w."""
    measurement, _, stage = mid.rpartition("_")
    v, data = (u, w) if stage == "u" else (w, f)
    domain = catalog.domain
    if measurement == "strip":
        return strip_norm(domain, v, 0)
    if measurement == "strip2":
        return strip_norm(domain, v, 1)
    if measurement == "ndiff":
        return normal_difference_norm(domain, v)
    rows = {"drows": "dirichlet", "nrows": "neumann", "mrows": "mixed"}
    if measurement in rows:  # depth-0 rows of the penalized Laplacian
        op = getattr(catalog, f"laplacian_{rows[measurement]}")
        return boundary_row_residual(domain, op, v, data)
    if measurement == "mean":
        return mean_defect(domain, v)
    if measurement == "harm":
        return harmonic_defect(catalog, v, cfg, factors)[0]
    if measurement == "biharm":
        return biharmonic_defect(catalog, v, cfg, factors)[0]
    if measurement == "affine":  # orthogonality to the Hessian's kernel
        space = domain.cell_space
        return max(abs(space.inner(v, b)) for b in catalog.hessian_normal.kernel[0])
    if measurement == "energy":  # |u|^2 + |L u|^2 <= |f|^2, L the free Laplacian
        return max(0.0, _energy(catalog, v) - domain.cell_space.norm(f))
    raise ValueError(f"unknown measurement {mid!r}")


# (display name, measurement id) pairs of each kind, in report order
_KIND_CONSTRAINTS = {
    LaplacianKind.DIRICHLET: (("zero trace on boundary faces", "drows_u"),),
    LaplacianKind.NEUMANN: (("zero flux on boundary faces", "nrows_u"),
                            ("mean-free solution", "mean_u")),
    LaplacianKind.MIXED: (("labeled boundary rows", "mrows_u"),),
    LaplacianKind.OVERDETERMINED: (("zero trace on boundary ring", "strip_u"),
                                   ("zero normal difference on boundary", "ndiff_u")),
    LaplacianKind.UNDERDETERMINED: (("no discrete-harmonic component", "harm_u"),),
}


def solve_laplace(kind, catalog: OperatorCatalog, f: Field,
                  cfg: SolverConfig | None = None) -> LaplaceSolveReport:
    kind = LaplacianKind(kind)
    domain = catalog.domain
    if not f.space.compatible(domain.cell_space):
        raise SpaceMismatchError("Laplacian data must live on the cell space")
    require_finite(kind.value, f)  # cells no solve reads still enter the report
    factors = {}  # the harmonic-defect measurement reuses the solve's factor
    u, iterations, defect, lost = invert_laplacian(
        kind, catalog, f.values, cfg, factors
    )
    if kind is LaplacianKind.OVERDETERMINED:
        x = u[domain.ring_cells(1)]
        pde = domain.cell_space.norm(
            catalog.interior_laplacian.apply_raw(x) - f.values
        )
    else:
        pde = interior_residual_norm(catalog, u, f.values)
    constraints = {
        name: measure_constraint(mid, catalog, u, f.values, None, cfg, factors)
        for name, mid in _KIND_CONSTRAINTS[kind]
    }
    return LaplaceSolveReport(
        kind, Field(domain.cell_space, u), pde, constraints,
        compatibility_defect=defect, discarded_ring_mass=lost,
        iterations=iterations,
    )


# -- first-order estimate chains -------------------------------------------------

CHAIN_SLACK = 1.0 + 1e-10  # largest ratio an exact chain inequality may reach


@dataclass
class ChainCheckReport:
    kind: LaplacianKind
    constant: float
    samples: int
    rejected: int
    worst_first: float
    worst_second: float
    details: dict = _dc_field(default_factory=dict)

    def ok(self) -> bool:
        return self.worst_first <= CHAIN_SLACK and self.worst_second <= CHAIN_SLACK


def estimate_chain_check(kind, catalog: OperatorCatalog, constant: float,
                         samples: int = 20, seed: int = 0,
                         ground_mode: Field | None = None) -> ChainCheckReport:
    """Check |phi| <= c |grad phi| and |grad phi| <= c |L phi| on random fields.

    Both inequalities are spectral facts of the gradient pair, so they must
    hold with no slack beyond rounding.  Every sample is first projected
    off the gradient's kernel (for the Neumann kind, the constants on each
    piece); samples that vanish then are rejected and counted.  Passing
    the ground mode as an extra sample makes the first inequality tight,
    which guards against an accidentally oversized constant.
    """
    kind = LaplacianKind(kind)
    domain = catalog.domain
    space = domain.cell_space
    if kind is LaplacianKind.DIRICHLET:
        grad = catalog.gradient_dirichlet
        lap = catalog.laplacian_dirichlet
    elif kind is LaplacianKind.NEUMANN:
        grad = catalog.gradient
        lap = catalog.laplacian_neumann
    else:
        raise ValueError("estimate chains are defined for dirichlet and neumann")

    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(space.dim) for _ in range(samples)]
    if ground_mode is not None:
        fields.append(ground_mode.values.copy())
    worst1 = worst2 = 0.0
    rejected = 0
    for phi in fields:
        for b in grad.kernel[0]:
            phi = phi - space.inner(b, phi) * b
        nrm = space.norm(phi)
        if nrm <= 1e-14:
            rejected += 1
            continue
        gn = grad.codomain_space.norm(grad.apply_raw(phi))
        ln = space.norm(lap.apply_raw(phi))
        if gn > 0:
            worst1 = max(worst1, nrm / (constant * gn))
        if ln > 0:
            worst2 = max(worst2, gn / (constant * ln))
    return ChainCheckReport(kind, constant, len(fields), rejected, worst1, worst2)
