"""The five scalar Laplacian solves on the ambient cell space.

Dirichlet, Neumann and mixed are direct solves by banded Cholesky
factors, the Neumann one with a pinned cell and mean-free output.  The
overdetermined solve imposes both boundary conditions and only accepts
data in the range of the interior stencil; the underdetermined solve
imposes none, returns the minimum-norm preimage, and reports the boundary
ring data it never looks at.  Both solve with the interior normal
product; the underdetermined one refines its answer against the
interior stencil's adjoint rather than the normal product, and shares
its factor with the harmonic-defect measurement of the same call.
Mixed interpolates between Dirichlet and Neumann through the face
labels.  The 13-point biharmonic defect solves the augmented system of
the interior bilaplacian rather than its normal product, whose
conditioning is that of the stencil squared.

Every report recomputes its residual and constraint norms from the
returned solution; nothing is copied out of solver internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field
from enum import Enum

import numpy as np

from .errors import CompatibilityError, SpaceMismatchError
from .grid import DIRICHLET, Field, GridDomain
from .linalg import SolverConfig, augmented_solve, direct_solve
from .operators import OperatorCatalog


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
                    cfg: SolverConfig | None = None, factors: dict | None = None,
                    with_preimage: bool = True):
    """Distance from the range of the interior stencil, the projection onto
    that range and its preimage under the stencil.

    The orthogonal complement of that range is spanned by the discrete
    harmonics, so this measures the harmonic component of the field.
    Without with_preimage the preimage comes back as None and the
    projection is refined directly, whose rounding floor is far lower
    than the preimage's.  `factors` is passed on to direct_solve.
    """
    cfg = cfg or SolverConfig()
    a = catalog.interior_laplacian
    k = catalog.interior_normal
    rhs = Field(k.domain_space, a.adjoint().apply_raw(values))
    if with_preimage:
        x = direct_solve(
            k, rhs, cfg, factors=factors, name="harmonic defect"
        ).field.values
        inside = a.apply_raw(x)
    else:
        x = None
        inside = direct_solve(
            k, rhs, cfg, range_of=a, factors=factors, name="harmonic defect"
        ).field.values
    return catalog.domain.cell_space.norm(values - inside), inside, x


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
    return catalog.domain.cell_space.norm(values - inside), inside, x.values


def interior_residual_norm(catalog: OperatorCatalog, u: np.ndarray,
                           f: np.ndarray) -> float:
    """Residual of the raw 5-point equation on the depth>=1 cells."""
    domain = catalog.domain
    ring = domain.ring_cells(1)
    r = catalog.free_laplacian.apply_raw(u) - f[ring]
    return domain.ring_space(1).norm(r)


# -- solves ---------------------------------------------------------------------

def solve_laplace(kind, catalog: OperatorCatalog, f: Field,
                  cfg: SolverConfig | None = None) -> LaplaceSolveReport:
    kind = LaplacianKind(kind)
    cfg = cfg or SolverConfig()
    domain = catalog.domain
    if not f.space.compatible(domain.cell_space):
        raise SpaceMismatchError("Laplacian data must live on the cell space")

    if kind is LaplacianKind.DIRICHLET:
        res = direct_solve(catalog.laplacian_dirichlet, f, cfg)
        u = res.field
        return LaplaceSolveReport(
            kind,
            u,
            interior_residual_norm(catalog, u.values, f.values),
            {
                "zero trace on boundary faces": boundary_row_residual(
                    domain, catalog.laplacian_dirichlet, u.values, f.values
                )
            },
            iterations=res.iterations,
        )

    if kind is LaplacianKind.NEUMANN:
        res = direct_solve(
            catalog.laplacian_neumann, f, cfg,
            kernel=catalog.gradient.kernel,
        )
        u = res.field
        return LaplaceSolveReport(
            kind,
            u,
            interior_residual_norm(catalog, u.values, f.values),
            {
                "zero flux on boundary faces": boundary_row_residual(
                    domain, catalog.laplacian_neumann, u.values, f.values
                ),
                "mean-free solution": mean_defect(domain, u.values),
            },
            compatibility_defect=res.compatibility_defect,
            iterations=res.iterations,
        )

    if kind is LaplacianKind.MIXED:
        # with no Dirichlet-labeled face the operator is singular and the
        # solve silently becomes the Neumann one
        res = direct_solve(
            catalog.laplacian_mixed, f, cfg,
            kernel=None if domain.count_boundary_faces(DIRICHLET).any()
            else catalog.gradient.kernel,
        )
        u = res.field
        return LaplaceSolveReport(
            kind,
            u,
            interior_residual_norm(catalog, u.values, f.values),
            {
                "labeled boundary rows": boundary_row_residual(
                    domain, catalog.laplacian_mixed, u.values, f.values
                )
            },
            compatibility_defect=res.compatibility_defect,
            iterations=res.iterations,
        )

    if kind is LaplacianKind.OVERDETERMINED:
        defect, _, x = harmonic_defect(catalog, f.values, cfg)
        fnorm = f.norm()
        if fnorm > 0 and defect > cfg.compat_tolerance * fnorm:
            raise CompatibilityError(
                f"data has a discrete-harmonic component of relative size "
                f"{defect / fnorm:.3e}; the doubly constrained solve needs "
                f"data in the interior stencil's range",
                defect=defect,
                subspace="discrete harmonics",
            )
        u = catalog.pad1.apply_raw(x)
        uf = Field(domain.cell_space, u)
        return LaplaceSolveReport(
            kind,
            uf,
            domain.cell_space.norm(
                catalog.interior_laplacian.apply_raw(x) - f.values
            ),
            {
                "zero trace on boundary ring": strip_norm(domain, u, 0),
                "zero normal difference on boundary": normal_difference_norm(
                    domain, u
                ),
            },
            compatibility_defect=defect,
        )

    if kind is LaplacianKind.UNDERDETERMINED:
        k = catalog.interior_normal
        factors = {}  # the defect measurement below reuses the solve's factor
        res = direct_solve(
            k, Field(k.domain_space, f.values[domain.ring_cells(1)]), cfg,
            range_of=catalog.interior_laplacian, factors=factors,
            name="minimum-norm laplacian",
        )
        uf = res.field
        u = uf.values
        defect, _, _ = harmonic_defect(
            catalog, u, cfg, factors, with_preimage=False
        )
        return LaplaceSolveReport(
            kind,
            uf,
            interior_residual_norm(catalog, u, f.values),
            {"no discrete-harmonic component": defect},
            discarded_ring_mass=strip_norm(domain, f.values, 0),
            iterations=res.iterations,
        )

    raise ValueError(f"unhandled Laplacian kind {kind}")


# -- first-order estimate chains -------------------------------------------------

@dataclass
class ChainCheckReport:
    kind: LaplacianKind
    constant: float
    samples: int
    rejected: int
    worst_first: float
    worst_second: float
    details: dict = _dc_field(default_factory=dict)

    def ok(self, slack: float = 1.0 + 1e-10) -> bool:
        return self.worst_first <= slack and self.worst_second <= slack


def estimate_chain_check(kind, catalog: OperatorCatalog, constant: float,
                         samples: int = 20, seed: int = 0,
                         ground_mode: Field | None = None) -> ChainCheckReport:
    """Check |phi| <= c |grad phi| and |grad phi| <= c |L phi| on random fields.

    Both inequalities are spectral facts of the gradient pair, so they must
    hold with no slack beyond rounding.  For the Neumann kind the constant
    component of every sample is projected out first; all-constant samples
    are rejected and counted.  Passing the ground mode as an extra sample
    makes the first inequality tight, which guards against an accidentally
    oversized constant.
    """
    kind = LaplacianKind(kind)
    domain = catalog.domain
    space = domain.cell_space
    if kind is LaplacianKind.DIRICHLET:
        grad = catalog.gradient_dirichlet
        lap = catalog.laplacian_dirichlet
        deflate = None
    elif kind is LaplacianKind.NEUMANN:
        grad = catalog.gradient
        lap = catalog.laplacian_neumann
        ones = np.ones(space.dim)
        deflate = ones / space.norm(ones)
    else:
        raise ValueError("estimate chains are defined for dirichlet and neumann")

    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(space.dim) for _ in range(samples)]
    if ground_mode is not None:
        fields.append(ground_mode.values.copy())
    worst1 = worst2 = 0.0
    rejected = 0
    for phi in fields:
        if deflate is not None:
            phi = phi - space.inner(deflate, phi) * deflate
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
