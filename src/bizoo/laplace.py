"""The five scalar Laplacian solves on the ambient cell space.

`KINDS` is the one table of the five kinds: each names its stage in the
biharmonic family, the catalog operators that realize it, its report
constraints and its inverse.  `invert_laplacian` applies an inverse,
`invert_stages` composes the zoo's stages, and `solve_laplace` measures
one kind's answer.  The penalized kinds (Dirichlet, Neumann, and mixed,
which interpolates between them through the face labels) are banded
Cholesky solves with the kernel their catalog operator carries; the
overdetermined and underdetermined kinds, and the harmonic defect, solve
with one factor of the interior normal product, and the biharmonic
defect with one of the 13-point normal product.  Each kind names the one
catalog operator its inverse factors (`factored`); `solve_laplace` and
the zoo's rows carry those factors from one call to the next on a
catalog (OperatorCatalog.carried_factors).

Every report recomputes its residual and constraint norms from the
returned solution (the overdetermined residual is the defect its inverse
measures on the preimage that solution pads); nothing is copied out of
solver internals.  `measure_constraint` measures the constraints of both
orders: the (display name, measurement id) pairs of each kind here and
of `zoo`'s rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import SpaceMismatchError
from .grid import Field, GridDomain
from .linalg import (
    SolverConfig, _project_out, compatibility_gate, direct_solve, require_finite,
)
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


def _range_defect(normal, values: np.ndarray, passes: int, cfg: SolverConfig | None,
                  factors: dict | None, name: str):
    """Distance of a cell field from the range of B = normal.first_order,
    and the projection u = B x onto it: direct_solve(min_norm=True) on
    normal's banded factor (`factors` is passed on) refines u against
    B* u = B* values, whose rounding floor grows with B's conditioning,
    not B* B's.  Each pass after the first projects B* (values - u)."""
    adjoint = normal.first_order.adjoint()
    rhs = adjoint.apply_raw(values)
    inside = 0.0
    for step in range(passes):
        data = rhs - adjoint.apply_raw(inside) if step else rhs
        inside = inside + direct_solve(normal, Field(normal.domain_space, data), cfg,
                                       min_norm=True, factors=factors, name=name).field.values
    return normal.first_order.codomain_space.norm(values - inside), inside


def harmonic_defect(catalog: OperatorCatalog, values: np.ndarray,
                    cfg: SolverConfig | None = None, factors: dict | None = None):
    """Distance from the range of the interior stencil A, whose orthogonal
    complement the discrete harmonics span, and the projection onto that
    range, in one pass (_range_defect)."""
    return _range_defect(catalog.interior_normal, values, 1, cfg, factors, "harmonic defect")


def clamped_preimage(catalog: OperatorCatalog, values: np.ndarray,
                     cfg: SolverConfig | None, factors: dict | None = None,
                     normal=None):
    """direct_solve's result x of B* B x = B* values, B the first-order
    operator of `normal` (by default catalog.interior_normal, whose B is
    the interior stencil): the ungated least-squares preimage; `factors`
    is passed on to direct_solve."""
    k = normal or catalog.interior_normal
    rhs = Field(k.domain_space, k.first_order.adjoint().apply_raw(values))
    return direct_solve(k, rhs, cfg, factors=factors, name="clamped preimage")


def biharmonic_defect(catalog: OperatorCatalog, values: np.ndarray,
                      cfg: SolverConfig | None = None, factors: dict | None = None):
    """Same as harmonic_defect for the 13-point interior stencil B, in two
    passes on the factor of B* B (catalog.biharmonic_normal): a stop on
    the residual of B* u = B* values bounds the projection's own error
    only up to B's conditioning, about n^4, and the second pass leaves a
    field of B's range with a defect at rounding level."""
    return _range_defect(catalog.biharmonic_normal, values, 2, cfg, factors, "biharmonic defect")


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


# -- the five kinds ---------------------------------------------------------------

def _clamped_inverse(kind, catalog, values, cfg, factors):
    domain = catalog.domain
    compatibility_gate(
        harmonic_defect(catalog, values, cfg, factors)[0],
        domain.cell_space.norm(values), "discrete harmonics",
        "data has a discrete-harmonic component of relative size "
        "{rel:.3e}; the doubly constrained solve needs data in the "
        "interior stencil's range",
    )
    x = clamped_preimage(catalog, values, cfg, factors).field.values
    defect = domain.cell_space.norm(values - catalog.interior_laplacian.apply_raw(x))
    return catalog.pad1.apply_raw(x), 0, defect, 0.0


def _free_inverse(kind, catalog, values, cfg, factors):
    k, domain = catalog.interior_normal, catalog.domain
    res = direct_solve(k, Field(k.domain_space, values[domain.ring_cells(1)]), cfg,
                       min_norm=True, factors=factors, name="minimum-norm laplacian")
    return res.field.values, res.iterations, 0.0, strip_norm(domain, values, 0)


def _penalized_inverse(kind, catalog, values, cfg, factors):
    res = direct_solve(getattr(catalog, KINDS[kind].operator),
                       Field(catalog.domain.cell_space, values), cfg,
                       factors=factors, name=f"{kind.value} laplacian")
    return res.field.values, res.iterations, res.compatibility_defect, 0.0


@dataclass(frozen=True)
class KindEntry:
    """One Laplacian kind: its zoo stage letter and composition name (None
    for mixed), its report's (display name, measurement id) pairs, its
    inverse (kind, catalog, values, cfg, factors) -> (values, iterations,
    compatibility defect, discarded mass), for the penalized kinds the
    catalog names of their Laplacian and (chain kinds) gradient, and the
    id measuring that Laplacian's depth-0 rows, and the catalog name of
    the one operator the inverse factors (`factored`).

    The stage kinds carry three facts the zoo derives its rows from, as
    ranks in the nested classes L2 (0) > mean-free (1) > range of the
    interior stencil (2): `data_rank`, the class the inverse accepts;
    `output_rank`, the class its output lies in; and `adjoint`, the letter
    of its adjoint stage (clamped and free swap, the others are their own).
    """
    kind: LaplacianKind
    letter: str | None
    stage: str | None
    constraints: tuple
    inverse: Callable
    operator: str | None = None
    rows: str | None = None
    gradient: str | None = None
    factored: str | None = None
    data_rank: int | None = None
    output_rank: int | None = None
    adjoint: str | None = None


KINDS = {entry.kind: entry for entry in (
    KindEntry(LaplacianKind.DIRICHLET, "d", "dirichlet",
              (("zero trace on boundary faces", "drows_u"),),
              _penalized_inverse, "laplacian_dirichlet", "drows", "gradient_dirichlet",
              factored="laplacian_dirichlet", data_rank=0, output_rank=0, adjoint="d"),
    KindEntry(LaplacianKind.NEUMANN, "n", "neumann",
              (("zero flux on boundary faces", "nrows_u"),
               ("mean-free solution", "mean_u")),
              _penalized_inverse, "laplacian_neumann", "nrows", "gradient",
              factored="laplacian_neumann", data_rank=1, output_rank=1, adjoint="n"),
    KindEntry(LaplacianKind.MIXED, None, None, (("labeled boundary rows", "mrows_u"),),
              _penalized_inverse, "laplacian_mixed", "mrows", factored="laplacian_mixed"),
    KindEntry(LaplacianKind.OVERDETERMINED, "c", "clamped",
              (("zero trace on boundary ring", "strip_u"),
               ("zero normal difference on boundary", "ndiff_u")), _clamped_inverse,
              factored="interior_normal", data_rank=2, output_rank=0, adjoint="f"),
    KindEntry(LaplacianKind.UNDERDETERMINED, "f", "free",
              (("no discrete-harmonic component", "harm_u"),), _free_inverse,
              factored="interior_normal", data_rank=0, output_rank=2, adjoint="c"),
)}
STAGES = {e.letter: e for e in KINDS.values() if e.letter}
_ROWS = {e.rows: e for e in KINDS.values() if e.rows}


# -- solves ---------------------------------------------------------------------

def invert_laplacian(kind, catalog: OperatorCatalog, values: np.ndarray,
                     cfg: SolverConfig | None, factors: dict | None = None):
    """Apply one of the five Laplacian inverses (KINDS) to a cell field.

    Returns (values, iterations, compatibility defect, discarded mass).
    The overdetermined inverse gates its data on the harmonic defect, then
    pads the preimage and returns that preimage's defect; it counts none
    of the two refined solves it makes, so its iterations are 0.  The
    underdetermined one returns the minimum-norm preimage and discards the
    boundary ring data.  The penalized kinds solve with the kernel their
    catalog operator carries.  `factors` is passed on to direct_solve.
    """
    kind = LaplacianKind(kind)
    return KINDS[kind].inverse(kind, catalog, values, cfg, factors)


def invert_stages(letters: str, catalog: OperatorCatalog, values: np.ndarray,
                  cfg: SolverConfig | None, factors: dict | None = None) -> tuple:
    """invert_laplacian through the stages the zoo letters name, first
    inverted first, each stage's values the next one's data.  Returns
    invert_laplacian's four outputs, each as a tuple over the stages."""
    out = []
    for letter in letters:
        out.append(invert_laplacian(STAGES[letter].kind, catalog, values, cfg, factors))
        values = out[-1][0]
    return tuple(zip(*out))


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
    if measurement in _ROWS:  # depth-0 rows of the kind's penalized Laplacian
        op = getattr(catalog, _ROWS[measurement].operator)
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


def solve_laplace(kind, catalog: OperatorCatalog, f: Field,
                  cfg: SolverConfig | None = None) -> LaplaceSolveReport:
    """Solve one of the five second-order problems (a LaplacianKind or its
    value) for cell data f and measure the constraints its KINDS entry
    lists.  The PDE residual is that of the raw 5-point equation on the
    depth>=1 cells, or for the overdetermined kind the data's distance
    from the stencil's range.  Data off the cell space raise
    SpaceMismatchError, data that are not finite ValueError, and data
    outside the class the kind's inverse accepts CompatibilityError."""
    kind = LaplacianKind(kind)
    domain = catalog.domain
    if not f.space.compatible(domain.cell_space):
        raise SpaceMismatchError("Laplacian data must live on the cell space")
    require_finite(kind.value, f)  # cells no solve reads still enter the report
    # the harmonic-defect measurement reuses the solve's factor
    with catalog.carried_factors((KINDS[kind].factored,)) as factors:
        u, iterations, defect, lost = invert_laplacian(kind, catalog, f.values, cfg, factors)
        # the overdetermined defect is |f - A x| on all cells, x the preimage u pads
        pde = (defect if kind is LaplacianKind.OVERDETERMINED
               else interior_residual_norm(catalog, u, f.values))
        constraints = {
            name: measure_constraint(mid, catalog, u, f.values, None, cfg, factors)
            for name, mid in KINDS[kind].constraints
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
    entry = KINDS[kind]
    if entry.gradient is None:
        raise ValueError("estimate chains are defined for dirichlet and neumann")
    grad, lap = getattr(catalog, entry.gradient), getattr(catalog, entry.operator)
    space = catalog.domain.cell_space

    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(space.dim) for _ in range(samples)]
    if ground_mode is not None:
        fields.append(ground_mode.values.copy())
    worst1 = worst2 = 0.0
    rejected = 0
    for phi in fields:
        phi = _project_out(space, phi, grad.kernel[0])
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
