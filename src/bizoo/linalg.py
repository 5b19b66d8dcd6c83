"""Typed sparse operators, direct and Krylov solvers over weighted DOF spaces.

All inner products, norms, adjoints, and convergence targets here are taken
with respect to the diagonal weights of the DOF spaces involved, never the
plain Euclidean ones.

`direct_solve` inverts a selfadjoint positive (semi)definite operator by a
banded Cholesky factor of its lower band (cells are numbered row by row, so
a stencil of reach k has a band of about k grid rows) followed by
iterative refinement; the kernel the operator carries (the constants or
the affine functions on each connected piece) is pinned out at a few cells
and gated.  For a normal product B* B that records B, `min_norm=True`
returns B x and refines it against B* u = b instead.  `augmented_solve`
handles the least-squares and minimum-norm problems of an injective B
through a sparse LU factor of [[a I, B], [B*, 0]], whose conditioning
follows B's rather than B* B's.  It is also direct_solve's one route
where refinement stalls: a normal product records its B
(`normal_product`), and the stalled solve is finished through B's
augmented system; an operator with no recorded B fails there.  No solve
path runs CG.  A caller-owned dict lets several solves share a factor.
`cg_solve` and `deflated_cg_solve` are conjugate gradients, stopped when
the true residual stagnates; `normal_cg_solve` runs them on the normal
equations.

`smallest_eigenpairs` runs Lanczos on the inverse of the operator through
the same pinned banded Cholesky factor, between projections off its
kernel, in a Krylov space of max(2 count + 1, 8) vectors (Lehoucq,
Sorensen & Yang 1998, ARPACK Users' Guide, section 4), stopped for one
pair at a 1e-13 Ritz residual, 25 times under the eigenpair gate on the
package's pairs.  A kernel that leaves the factor singular is refused as
incomplete, by both functions.  `pivoted_pins` picks the pinned cells of
any kernel basis by a column-pivoted QR (Businger & Golub 1965).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field as _dc_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BizooError,
    CompatibilityError,
    ConvergenceFailure,
    SpaceMismatchError,
)
from .grid import DofSpace, Field

_REORTH_THRESHOLD = 1e-8
_DROP_TOL = 1e-12  # relative norm below which Gram-Schmidt drops a vector
_MAX_REFINEMENT = 10
_STAGNATION_RESTARTS = 3
_CG_ITERATIONS_PER_UNKNOWN = 20  # CG's budget, per unknown of the operator
# squared Cholesky pivot, relative to the largest diagonal entry, below
# which a factor is taken as singular.  Rounding leaves 1e-15 to 1e-13 on
# a piece whose kernel vector is not pinned (two-piece masks up to 10^4
# cells).  The smallest genuine one measured on the package's operators
# is the regularized L* L + 1's, 1 / its max diagonal: 1.9e-10 at
# n = 128, 3.7e-11 at n = 192.  It falls as n^-4, so it stays above the
# floor up to n = 400.
_PIVOT_FLOOR = 1e-12
# LAPACK's banded Cholesky, without scipy's checks on every call
_PBTRF, _PBTRS = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (np.zeros(1),))
_KRYLOV_MIN = 8  # fewest Lanczos vectors (see smallest_eigenpairs)
_RITZ_TOL = 1e-13  # Ritz residual that stops a single eigenpair (ditto)
COMPAT_TOLERANCE = 1e-8  # relative defect above which compatibility_gate refuses


@dataclass
class SolverConfig:
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rel_tolerance < 1:
            raise ValueError("rel_tolerance must lie in (0, 1)")


@dataclass
class SolveResult:
    """Solution field plus the diagnostics every report needs."""

    field: Field
    iterations: int
    residual_norm: float
    compatibility_defect: float = 0.0
    residual_history: list = _dc_field(default_factory=list)


class SparseOperator:
    """Sparse matrix tagged with weighted domain and codomain spaces.

    adjoint() returns the weighted transpose M* with
    <M u, v>_cod = <u, M* v>_dom for all u, v; adjoint is an involution
    (M* keeps a weak link back, so adjoint(adjoint(M)) is M itself while
    M lives, and the two form no reference cycle that only the garbage
    collector could free).

    `kernel` is None for an operator with no kernel, else
    (weighted-orthonormal basis, pinned cells), which direct_solve and
    smallest_eigenpairs read; the operator catalog sets it where the
    domain's topology determines the kernel, and a DualPair on its normal
    operators.  `first_order` is None, or an operator B with B* B equal to
    this one, set where the normal product is formed; direct_solve's
    min_norm and stall route solve through it.
    """

    def __init__(self, matrix, domain_space: DofSpace, codomain_space: DofSpace):
        m = sp.csr_matrix(matrix)
        if m.shape != (codomain_space.dim, domain_space.dim):
            raise SpaceMismatchError(
                f"matrix shape {m.shape} does not map "
                f"{domain_space.name} (dim {domain_space.dim}) to "
                f"{codomain_space.name} (dim {codomain_space.dim})"
            )
        self.matrix = m
        self.domain_space = domain_space
        self.codomain_space = codomain_space
        self.kernel = None
        self.first_order = None
        self._adjoint = None
        self._adjoint_of = None

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, f: Field) -> Field:
        if not f.space.compatible(self.domain_space):
            raise SpaceMismatchError(
                f"operator on {self.domain_space.name} applied to a field "
                f"on {f.space.name}"
            )
        return Field(self.codomain_space, self.matrix @ f.values)

    def apply_raw(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def adjoint(self) -> "SparseOperator":
        if self._adjoint is None:
            origin = self._adjoint_of() if self._adjoint_of is not None else None
            if origin is not None:
                return origin
            wd = self.domain_space.weights
            wc = self.codomain_space.weights
            du = wd[0] if wd.size and np.all(wd == wd[0]) else None
            cu = wc[0] if wc.size and np.all(wc == wc[0]) else None
            if du is not None and cu is not None:
                # uniform weights: plain transpose, scaled once; exact when
                # the scalars agree
                mat = self.matrix.T if du == cu else (cu / du) * self.matrix.T
            else:
                mat = sp.diags(1.0 / wd) @ self.matrix.T @ sp.diags(wc)
            adj = SparseOperator(mat.tocsr(), self.codomain_space, self.domain_space)
            adj._adjoint_of = weakref.ref(self)
            self._adjoint = adj
        return self._adjoint

    def compose(self, inner: "SparseOperator") -> "SparseOperator":
        """self after inner; requires codomain(inner) == domain(self)."""
        if not inner.codomain_space.compatible(self.domain_space):
            raise SpaceMismatchError(
                f"cannot compose: inner codomain {inner.codomain_space.name} "
                f"!= outer domain {self.domain_space.name}"
            )
        return SparseOperator(
            (self.matrix @ inner.matrix).tocsr(),
            inner.domain_space,
            self.codomain_space,
        )

    def __matmul__(self, other):
        if isinstance(other, Field):
            return self.apply(other)
        if isinstance(other, SparseOperator):
            return self.compose(other)
        return NotImplemented

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if not (
            other.domain_space.compatible(self.domain_space)
            and other.codomain_space.compatible(self.codomain_space)
        ):
            raise SpaceMismatchError("adding operators between different spaces")
        return SparseOperator(
            (self.matrix + other.matrix).tocsr(), self.domain_space, self.codomain_space
        )

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def identity_operator(space: DofSpace) -> SparseOperator:
    return SparseOperator(sp.identity(space.dim, format="csr"), space, space)


def normal_product(b: SparseOperator) -> SparseOperator:
    """b* b, with b recorded as its first-order operator."""
    op = b.adjoint() @ b
    op.first_order = b
    return op


def orthonormalize(vectors, space: DofSpace):
    """Weighted modified Gram-Schmidt with one re-orthogonalization pass.

    Vectors whose norm collapses below _DROP_TOL (relative) after
    re-orthogonalization are dropped as linearly dependent.
    """
    basis = []
    for vec in vectors:
        v = np.asarray(vec.values if isinstance(vec, Field) else vec, dtype=float).copy()
        original = space.norm(v)
        if original == 0.0:
            continue
        for _ in range(2):
            for b in basis:
                v -= space.inner(b, v) * b
            nrm = space.norm(v)
            if nrm > _REORTH_THRESHOLD * original:
                break
        nrm = space.norm(v)
        if nrm <= _DROP_TOL * original:
            continue
        basis.append(v / nrm)
    return basis


def _project_out(space: DofSpace, v: np.ndarray, basis) -> np.ndarray:
    for b in basis:
        v = v - space.inner(b, v) * b
    return v


def _run_cg(op: SparseOperator, b: np.ndarray, cfg: SolverConfig, basis, name: str):
    """Weighted CG on op x = b, optionally deflated by an orthonormal basis.

    Returns (x, iterations, history, residual_norm).  The recurrence
    residual is re-checked against the true one before accepting
    convergence; on drift the recursion restarts from the current iterate.
    After _STAGNATION_RESTARTS restarts in a row that do not lower the
    best true residual, ConvergenceFailure reports it against the target.
    """
    space = op.domain_space
    w = space.weights

    def dot(u, v):
        return float(np.dot(w * u, v))

    target = cfg.rel_tolerance * math.sqrt(max(dot(b, b), 0.0))
    x = np.zeros_like(b)
    r = b.copy()
    if basis:
        r = _project_out(space, r, basis)
    rs = dot(r, r)
    history = [math.sqrt(rs)]
    p = r.copy()
    budget = _CG_ITERATIONS_PER_UNKNOWN * max(space.dim, 1)
    iterations = 0
    best, stalls = math.inf, 0  # best true residual, restarts since it fell
    while math.sqrt(rs) > target:
        if iterations >= budget:
            raise ConvergenceFailure(
                f"{name}: no convergence in {budget} iterations "
                f"(residual {math.sqrt(rs):.3e}, target {target:.3e})",
                residual_history=history,
            )
        q = op.apply_raw(p)
        if basis:
            q = _project_out(space, q, basis)
        pq = dot(p, q)
        if pq <= 0.0:
            raise BizooError(
                f"{name}: operator is not positive definite on the search space "
                f"(p.Ap = {pq:.3e})"
            )
        alpha = rs / pq
        x += alpha * p
        r -= alpha * q
        rs_new = dot(r, r)
        iterations += 1
        history.append(math.sqrt(rs_new))
        if math.sqrt(rs_new) <= target:
            # recurrence said done; confirm with the true residual
            true_r = b - op.apply_raw(x)
            if basis:
                true_r = _project_out(space, true_r, basis)
            true_rs = dot(true_r, true_r)
            if math.sqrt(true_rs) <= target or target == 0.0:
                r, rs = true_r, true_rs
                history[-1] = math.sqrt(true_rs)
                break
            # the recurrence keeps reaching the target while the true
            # residual sits at its attainable-accuracy floor
            if math.sqrt(true_rs) < best:
                best, stalls = math.sqrt(true_rs), 0
            else:
                stalls += 1
                if stalls >= _STAGNATION_RESTARTS:
                    raise ConvergenceFailure(
                        f"{name}: stagnated at true residual {best:.3e}, "
                        f"target {target:.3e} ({stalls} restarts without "
                        f"improvement after {iterations} iterations)",
                        residual_history=history,
                    )
            r, rs = true_r, true_rs
            p = r.copy()
            continue
        beta = rs_new / rs
        rs = rs_new
        p = r + beta * p
    if basis:
        x = _project_out(space, x, basis)
    return x, iterations, history, math.sqrt(rs)


def cg_solve(op: SparseOperator, b: Field, cfg: SolverConfig | None = None) -> SolveResult:
    """CG for a selfadjoint positive definite operator on its own space."""
    if not op.domain_space.compatible(op.codomain_space):
        raise SpaceMismatchError("cg_solve needs an endomorphism")
    if not b.space.compatible(op.domain_space):
        raise SpaceMismatchError("right-hand side lives in the wrong space")
    cfg = cfg or SolverConfig()
    x, it, hist, res = _run_cg(op, b.values.copy(), cfg, [], "cg")
    return SolveResult(Field(op.domain_space, x), it, res, 0.0, hist)


def compatibility_gate(defect: float, data_norm: float, subspace: str,
                       message: str) -> float:
    """The package's one compatibility verdict: a defect (the data's part
    in a subspace the solve cannot reach) above COMPAT_TOLERANCE times
    the data's norm raises CompatibilityError tagged with `subspace`, its
    `message` formatted with the relative size `rel` and the tolerance
    `gate`.  Returns the defect."""
    if data_norm > 0 and defect > COMPAT_TOLERANCE * data_norm:
        raise CompatibilityError(
            message.format(rel=defect / data_norm, gate=COMPAT_TOLERANCE),
            defect=defect,
            subspace=subspace,
        )
    return defect


def _gate_kernel(space: DofSpace, b: Field, basis):
    """Project an orthonormal kernel basis out of the data and gate the
    part removed; returns (projected values, defect)."""
    projected = _project_out(space, b.values.copy(), basis)
    defect = compatibility_gate(
        space.norm(b.values - projected), b.norm(), "solver kernel",
        "right-hand side has a kernel component of relative size {rel:.3e} "
        "(gate {gate:.1e})",
    )
    return projected, defect


def deflated_cg_solve(
    op: SparseOperator,
    b: Field,
    kernel_basis,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """CG for a selfadjoint PSD operator with known kernel.

    The right-hand side must be orthogonal to the kernel up to
    COMPAT_TOLERANCE (relative); the returned solution is orthogonal to
    the kernel and the projection defect is reported.
    """
    if not op.domain_space.compatible(op.codomain_space):
        raise SpaceMismatchError("deflated_cg_solve needs an endomorphism")
    if not b.space.compatible(op.domain_space):
        raise SpaceMismatchError("right-hand side lives in the wrong space")
    cfg = cfg or SolverConfig()
    space = op.domain_space
    basis = orthonormalize(kernel_basis, space)
    projected, defect = _gate_kernel(space, b, basis)
    x, it, hist, res = _run_cg(op, projected, cfg, basis, "deflated cg")
    return SolveResult(Field(space, x), it, res, defect, hist)


def normal_cg_solve(
    op: SparseOperator,
    b: Field,
    side: str = "least_squares",
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Least-squares or minimum-norm solve through the normal equations.

    side "least_squares": b in the codomain; returns argmin |op x - b|,
    requires injective op.  side "min_norm": b in the domain space;
    returns the minimum-norm solution of adjoint(op) x = b, x in
    range(op), requires surjective adjoint.
    """
    cfg = cfg or SolverConfig()
    normal = op.adjoint() @ op
    if side == "least_squares":
        if not b.space.compatible(op.codomain_space):
            raise SpaceMismatchError("least_squares data must live in the codomain")
        rhs = op.adjoint().apply(b)
        x, it, hist, _ = _run_cg(normal, rhs.values, cfg, [], "normal cg")
        sol = Field(op.domain_space, x)
        res = op.codomain_space.norm(op.apply_raw(x) - b.values)
        return SolveResult(sol, it, res, 0.0, hist)
    if side == "min_norm":
        if not b.space.compatible(op.domain_space):
            raise SpaceMismatchError("min_norm data must live in the domain space")
        y, it, hist, _ = _run_cg(normal, b.values.copy(), cfg, [], "normal cg")
        x = op.apply_raw(y)
        sol = Field(op.codomain_space, x)
        res = op.domain_space.norm(op.adjoint().apply_raw(x) - b.values)
        return SolveResult(sol, it, res, 0.0, hist)
    raise ValueError(f"side must be 'least_squares' or 'min_norm', got {side!r}")


# -- direct inverses ------------------------------------------------------------

class _BandedCholesky:
    """Cholesky factor of the lower band of W A, pinned cells held at zero.

    W A is plain-symmetric when A is selfadjoint in the W-weighted inner
    product.  Each pinned cell's row and column become the identity, which
    removes a kernel vector that is nonzero there.  A kernel vector that
    no pinned cell removes leaves a pivot at rounding level, or a negative
    one, and the factor is refused: the kernel is incomplete.
    """

    def __init__(self, op: SparseOperator, pinned, name: str):
        pinned = np.asarray(pinned, dtype=np.int64)
        band = _lower_band(op, pinned)
        scale = float(np.abs(np.delete(band[0], pinned)).max(initial=0.0))
        self.band, info = _PBTRF(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise BizooError(
                f"{name}: operator is not positive definite off the pinned "
                f"cells ({info}-th leading minor not positive definite): it "
                f"is indefinite, or the kernel is incomplete"
            )
        pivot = float(np.min(np.delete(self.band[0], pinned) ** 2, initial=np.inf))
        if pivot <= _PIVOT_FLOOR * scale:
            raise BizooError(
                f"{name}: operator is singular off the pinned cells (smallest "
                f"squared pivot {pivot:.1e}, largest diagonal entry "
                f"{scale:.1e}): the kernel is incomplete"
            )
        self.weights = op.domain_space.weights
        self.pinned = pinned

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = self.weights * rhs
        b[self.pinned] = 0.0
        return _PBTRS(self.band, b, lower=1, overwrite_b=1)[0]


def _lower_band(op: SparseOperator, pinned: np.ndarray) -> np.ndarray:
    """Lower band of W A in LAPACK's lower banded layout, read straight
    off the CSR arrays, with each pinned cell's row and column replaced
    by the identity's."""
    w = op.domain_space.weights
    mat = op.matrix
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    cols = mat.indices
    free = np.ones(w.size, dtype=bool)
    free[pinned] = False
    keep = (cols <= rows) & free[rows] & free[cols]
    rows, cols = rows[keep], cols[keep]
    diag = rows - cols
    width = int(diag.max(initial=0)) + 1
    # summed at their flat Fortran index: a hand-built CSR matrix may hold
    # duplicate entries
    band = np.bincount(cols * width + diag, weights=w[rows] * mat.data[keep],
                       minlength=w.size * width).reshape(w.size, width).T
    band[0, pinned] = 1.0
    return band


def _factor(factors: dict | None, key, build):
    """The factor stored under key in a caller-owned dict, built and stored
    on first use; without a dict, a fresh one."""
    if factors is None:
        return build()
    if key not in factors:
        factors[key] = build()
    return factors[key]


def pivoted_pins(basis) -> np.ndarray:
    """One cell per kernel vector to pin, by a column-pivoted QR of the
    basis (Businger & Golub 1965).

    The pivots are cells on which the basis restricted is nonsingular, so
    no nonzero kernel vector vanishes on all of them.
    """
    if not len(basis):
        return np.empty(0, dtype=np.int64)
    _, piv = sla.qr(np.asarray(basis), mode="r", pivoting=True)
    return np.sort(piv[: len(basis)]).astype(np.int64)


def _piecewise_constants(space: DofSpace, labels: np.ndarray):
    """Kernel of the constants on each labelled piece: orthonormal
    indicators of the pieces, pinned by pivoted_pins (one cell per
    piece)."""
    basis = []
    for k in np.unique(labels):
        v = (labels == k).astype(float)
        basis.append(v / space.norm(v))
    return basis, pivoted_pins(basis)


def piecewise_affine(space: DofSpace, labels: np.ndarray, centers: np.ndarray):
    """Kernel of the affine functions on each labelled piece: an
    orthonormal basis (1, x, y on every piece), pinned by pivoted_pins
    (three non-collinear cells per piece)."""
    basis = []
    for k in np.unique(labels):
        on = np.flatnonzero(labels == k)
        vecs = np.zeros((3, space.dim))
        vecs[0, on] = 1.0
        vecs[1:, on] = (centers[on] - centers[on].mean(axis=0)).T
        basis += orthonormalize(vecs, space)
    return basis, pivoted_pins(basis)


def direct_solve(
    op: SparseOperator,
    b: Field,
    cfg: SolverConfig | None = None,
    *,
    min_norm: bool = False,
    factors: dict | None = None,
    name: str = "direct solve",
) -> SolveResult:
    """Banded Cholesky solve of a selfadjoint positive (semi)definite
    operator.

    The kernel is op.kernel: (orthonormal basis, pinned cells), with
    pinned cells on which no nonzero kernel vector vanishes everywhere,
    as many as the kernel has dimensions (the catalog sets the constants
    on each piece; piecewise_affine builds the affine functions;
    pivoted_pins pins any basis).  The data is gated and projected as in
    deflated_cg_solve, the pinned cells are held at zero for the
    factorization and the solution comes back orthogonal to the kernel.
    A kernel the pinned cells leave incomplete makes the factor singular
    and raises BizooError; so does no kernel (None, factored with no
    pins) on a singular operator.  Data that are not finite raise
    ValueError.

    With min_norm=True, op must record its B (op.first_order, see
    normal_product); the result is u = B x, the minimum-norm solution of
    B* u = b, refined against that equation, whose rounding floor grows
    with B's conditioning rather than with op's, which is B's squared.

    Iterative refinement follows until the weighted residual meets
    cfg.rel_tolerance.  If it stops improving first, the solve is finished
    through the augmented system of B = op.first_order: its solution
    [r; x] for data [0; b] has x = -(B* B)^-1 b, so the answer is -x, or
    r = -B x with min_norm.  A kernel's pinned columns are dropped from
    B, which makes it injective; the answer is zero at the pins, then
    projected off the kernel.  That route stops on the augmented
    residual (augmented_solve), not on the plain one, which the result
    still reports.  With no recorded B, or where the augmented route
    fails as well, ConvergenceFailure states the attained and target
    residuals.  Refinement starts from zero, so `iterations` counts every
    solve with the factor, the first one included, plus the augmented
    route's solves.  Given a `factors` dict, the factor is looked up there
    by operator and stored on first use, so the caller decides how long it
    lives; the augmented factor of a stalled solve is stored there too.
    """
    if not op.domain_space.compatible(op.codomain_space):
        raise SpaceMismatchError("direct_solve needs an endomorphism")
    space = op.domain_space
    if not b.space.compatible(space):
        raise SpaceMismatchError("right-hand side lives in the wrong space")
    require_finite(name, b)
    out_space, lift, residual_of = space, None, op.apply_raw
    if min_norm:
        first = op.first_order
        if first is None:
            raise ValueError(f"{name}: min_norm needs a recorded first-order operator")
        out_space, lift = first.codomain_space, first.apply_raw
        residual_of = first.adjoint().apply_raw
    cfg = cfg or SolverConfig()
    basis, pinned = op.kernel or ([], [])
    rhs, defect = _gate_kernel(space, b, basis)
    history = [space.norm(rhs)]
    target = cfg.rel_tolerance * history[0]
    y = np.zeros(out_space.dim)
    iterations = 0
    if history[0] > 0.0:
        factor = _factor(factors, op, lambda: _BandedCholesky(op, pinned, name))
        r = rhs
        while True:
            d = _project_out(space, factor.solve(r), basis)
            y += d if lift is None else lift(d)
            r = _project_out(space, rhs - residual_of(y), basis)
            history.append(space.norm(r))
            iterations += 1
            if history[-1] <= target:
                break
            if history[-1] >= history[-2] or iterations > _MAX_REFINEMENT:
                best = min(history[1:])
                try:
                    x, u, it = _stalled_normal_solve(op, rhs, cfg, factors, name)
                except BizooError as exc:  # no B, no convergence, or not injective
                    raise ConvergenceFailure(
                        f"{name}: refinement stopped at residual {best:.3e}, "
                        f"target {target:.3e} (relative {best / history[0]:.3e} "
                        f"against {cfg.rel_tolerance:.1e}); augmented route: {exc}",
                        residual_history=history,
                    ) from None
                y = u if min_norm else x
                iterations += it
                r = _project_out(space, rhs - residual_of(y), basis)
                history.append(space.norm(r))
                break
    return SolveResult(Field(out_space, y), iterations, history[-1], defect, history)


def require_finite(name: str, *data):
    """Refuse data holding a NaN or an infinity, which no solve can use."""
    if not all(np.isfinite(d.values).all() for d in data if d is not None):
        raise ValueError(f"{name}: data are not finite")


def _stalled_normal_solve(op: SparseOperator, rhs: np.ndarray, cfg: SolverConfig,
                          factors: dict | None, name: str):
    """Solve op y = rhs, op = B* B with B = op.first_order, through the
    augmented system of B with its kernel's pinned columns dropped, data
    [0; rhs].  Returns (y, r, augmented solves): y is solved with zeros at
    the pins and projected off the kernel, and r = B y is the minimum-norm
    solution of B* r = rhs."""
    b, space = op.first_order, op.domain_space
    if b is None:
        raise BizooError("no first-order operator is recorded")
    basis, pinned = op.kernel or ([], [])
    free = np.ones(space.dim, dtype=bool)
    free[np.asarray(pinned, dtype=np.int64)] = False

    def unpinned():
        sub = DofSpace(f"{space.name} unpinned", int(free.sum()), space.weights[free])
        return SparseOperator(b.matrix[:, free], sub, b.codomain_space)

    bf = b if free.all() else _factor(factors, ("unpinned", b), unpinned)
    r, xf, iterations, _ = augmented_solve(
        bf, g=Field(bf.domain_space, rhs[free]), cfg=cfg, factors=factors, name=name
    )
    y = np.zeros(space.dim)
    y[free] = -xf.values
    return _project_out(space, y, basis), r.values, iterations


class _AugmentedLU:
    """Sparse LU factor of the augmented matrix [[a I, B], [B*, 0]].

    It is nonsingular exactly when B is injective, and its conditioning
    follows B's rather than that of the normal product B* B (Arioli, Duff
    & de Rijk 1989).  The scale a is the power of two nearest
    sqrt(|B|): with the unscaled identity the range block of the first
    solve misses by a relative error growing like |B|, and a power of two
    rescales the data and the residual block exactly.

    The CSC arrays are filled straight from the columns of B and B*, and
    the row and column sums of |W_cod^(1/2) B W_dom^(-1/2)| behind the
    norm bound straight from B's CSR arrays, equal to the last bit to
    what sp.bmat and products with sp.diags give: rows are summed in
    sorted column order and without zero entries, which those products
    drop and which would regroup numpy's pairwise row sums.
    """

    def __init__(self, op: SparseOperator, name: str):
        m, n = op.shape
        mat = op.matrix if op.matrix.has_sorted_indices else op.matrix.sorted_indices()
        rows = np.repeat(np.arange(m), np.diff(mat.indptr))
        scaled = np.abs(np.sqrt(op.codomain_space.weights)[rows] * mat.data
                        * (1.0 / np.sqrt(op.domain_space.weights))[mat.indices])
        kept = scaled != 0
        counts = np.bincount(rows[kept], minlength=m)
        starts = (np.cumsum(counts) - counts)[counts > 0]
        row_sums = np.add.reduceat(scaled[kept], starts) if starts.size else np.zeros(0)
        col_sums = np.bincount(mat.indices, weights=scaled, minlength=n)
        # sqrt(|B|_1 |B|_inf) bounds the weighted operator norm of B
        self.norm_bound = math.sqrt(col_sums.max(initial=0.0) * row_sums.max(initial=0.0))
        self.scale = (
            2.0 ** round(0.5 * math.log2(self.norm_bound))
            if self.norm_bound > 0 else 1.0
        )
        # column j < m holds a at row j above B*'s column j (rows m + k),
        # column m + k holds B's column k
        lower, upper = op.adjoint().matrix.tocsc(), mat.tocsc()
        head = lower.indptr + np.arange(m + 1)  # where column j < m starts
        indptr = np.concatenate([head, head[-1] + upper.indptr[1:]])
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.empty(indptr[-1])
        indices[head[:-1]], data[head[:-1]] = np.arange(m), self.scale
        below = np.arange(lower.nnz) + np.repeat(np.arange(1, m + 1), np.diff(lower.indptr))
        indices[below], data[below] = lower.indices + m, lower.data
        indices[head[-1]:], data[head[-1]:] = upper.indices, upper.data
        self.matrix = sp.csc_matrix((data, indices, indptr), shape=(m + n, m + n))
        try:
            self.lu = spla.splu(self.matrix)
        except RuntimeError as exc:  # exactly singular
            raise BizooError(f"{name}: operator is not injective ({exc})") from None


def augmented_solve(
    op: SparseOperator,
    f: Field | None = None,
    g: Field | None = None,
    cfg: SolverConfig | None = None,
    *,
    factors: dict | None = None,
    name: str = "augmented solve",
):
    """Solve [[I, B], [B*, 0]] [r; x] = [f; g] for an injective B = op.

    f lives in B's codomain and g in its domain; a missing one is zero.
    With [f; 0], x is the least-squares solution of B x = f and r = f - B x
    its residual.  With [0; g], r is the minimum-norm solution of
    B* r = g, which lies in B's range.  Returns (r, x, iterations,
    history) with r and x as fields.  Data that are not finite raise
    ValueError.

    The factor is that of the scaled system [[a I, B], [B*, 0]], solved
    for [r / a; x] with data [f; g / a] (see _AugmentedLU for a).  It is
    refined on the augmented residual until its relative size, the larger
    of
        |f - r - B x| / (|f| + |r|)   and   |g - B* r| / (|g| + |B| |f|),
    meets cfg.rel_tolerance, with |B| bounded by sqrt(|B|_1 |B|_inf) in
    the weighted norms.  For [0; g] the second ratio is the relative
    residual of B* r = g and the first says that r lies in B's range; for
    [f; 0] the second says that r is orthogonal to that range.  If
    refinement stops improving first, ConvergenceFailure states the
    attained and target values.  `history` holds the relative size after
    each solve with the factor, and `iterations` counts those solves.
    Given a `factors` dict, the factor is looked up there and stored on
    first use, as in direct_solve.
    """
    cod, dom = op.codomain_space, op.domain_space
    cfg = cfg or SolverConfig()
    for data, space, which in ((f, cod, "f"), (g, dom, "g")):
        if data is not None and not data.space.compatible(space):
            raise SpaceMismatchError(f"{which} lives in the wrong space")
    require_finite(name, f, g)
    fv = np.zeros(cod.dim) if f is None else f.values
    gv = np.zeros(dom.dim) if g is None else g.values
    sol = np.zeros(cod.dim + dom.dim)
    history = []
    a = 1.0
    if fv.any() or gv.any():
        factor = _factor(factors, ("augmented", op), lambda: _AugmentedLU(op, name))
        # the factor solves for [r / a; x], with data [f; g / a]
        a = factor.scale
        rhs = np.concatenate([fv, gv / a])
        fnorm = cod.norm(fv)
        second_scale = dom.norm(gv) + factor.norm_bound * fnorm
        residual = rhs
        while True:
            sol += factor.lu.solve(residual)
            residual = rhs - factor.matrix @ sol
            history.append(max(
                cod.norm(residual[: cod.dim])
                / (fnorm + a * cod.norm(sol[: cod.dim])),
                a * dom.norm(residual[cod.dim :]) / second_scale,
            ))
            if history[-1] <= cfg.rel_tolerance:
                break
            stalled = len(history) > 1 and history[-1] >= history[-2]
            if stalled or len(history) > _MAX_REFINEMENT:
                raise ConvergenceFailure(
                    f"{name}: refinement of the augmented system stopped at "
                    f"relative residual {min(history):.3e}, target "
                    f"{cfg.rel_tolerance:.1e}",
                    residual_history=history,
                )
    r, x = Field(cod, a * sol[: cod.dim]), Field(dom, sol[cod.dim :])
    return r, x, len(history), history


# -- eigenpairs -----------------------------------------------------------------

def smallest_eigenpairs(
    op: SparseOperator,
    count: int,
    cfg: SolverConfig | None = None,
):
    """Smallest eigenpairs of a selfadjoint PSD endomorphism.

    The eigenpairs are those of op restricted to the orthogonal complement
    of its kernel, op.kernel as direct_solve takes it (None: no kernel),
    and the count, from 1 to dim - len(kernel) - 1, refers to that
    spectrum.  The kernel must be complete: a singular factor, or an
    eigenvalue on the complement that the residual gate cannot tell from
    zero, raises BizooError.

    Lanczos finds the largest eigenvalues 1 / lambda of the inverse of op,
    applied through the banded Cholesky factor pinned at the kernel's
    cells, between projections off the kernel, in the W^(1/2)-similar
    plain-symmetric problem (Lehoucq, Sorensen & Yang 1998, ARPACK Users'
    Guide, section 4), with max(2 count + 1, 8) Krylov vectors; it needs
    one dimension more than it returns.  One pair stops at a Ritz residual
    of 1e-13 relative to 1 / lambda, so |op v - lambda v| <= 1e-13 |op|,
    which is at most 4e-13 max |diag op| on the normal products of the
    package's pairs, 25 times under the gate's floor below.  Several pairs
    stop at machine precision: a second copy of a multiple eigenvalue
    enters the Krylov space only by rounding.
    Eigenvectors come back weighted-orthonormal with the largest-magnitude
    entry positive; each satisfies
    |op v - lambda v| <= max(tol * lambda, 1e-11 * max |diag op|).
    """
    if not op.domain_space.compatible(op.codomain_space):
        raise SpaceMismatchError("eigensolve needs an endomorphism")
    cfg = cfg or SolverConfig()
    space = op.domain_space
    dim = space.dim
    basis, pinned = op.kernel or ([], [])
    if count < 1:
        raise ValueError(f"requested {count} eigenpairs; need at least 1")
    if count + len(basis) >= dim:
        raise ValueError(
            f"requested {count} eigenpairs off {len(basis)} kernel vectors "
            f"in dimension {dim}; Lanczos returns at most "
            f"{dim - len(basis) - 1}"
        )
    s = np.sqrt(space.weights)
    # the kernel as plain-orthonormal columns of the similar problem
    kt = np.array([s * b for b in basis]).reshape(len(basis), dim).T
    # deterministic generic start vector; ARPACK's default is random
    v0 = np.random.default_rng(180).standard_normal(dim)

    def deflate(v):
        return v - kt @ (kt.T @ v) if kt.size else v

    factor = _BandedCholesky(op, pinned, "eigensolve")

    def apply_inverse(v):
        return deflate(s * factor.solve(deflate(np.ravel(v)) / s))

    inverse = spla.LinearOperator((dim, dim), matvec=apply_inverse, dtype=float)
    tol = _RITZ_TOL if count == 1 else 0.0  # 0: machine precision
    mus, vecs = spla.eigsh(inverse, k=count, which="LA", v0=deflate(v0), tol=tol,
                           ncv=min(dim, max(2 * count + 1, _KRYLOV_MIN)))
    if mus.min() <= 0.0:
        raise BizooError("eigensolve: inverse is not positive definite")
    order = np.argsort(-mus)
    lams, qs = 1.0 / mus[order], vecs[:, order].T

    scale = float(np.abs(op.matrix.diagonal()).max())
    results = []
    for lam, q in zip(lams.tolist(), qs):
        v = q / s
        v = v / space.norm(v)
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        residual = space.norm(op.apply_raw(v) - lam * v)
        gate = max(cfg.rel_tolerance * abs(lam), 1e-11 * scale)
        if residual > gate:
            raise BizooError(
                f"eigenpair residual {residual:.3e} exceeds gate {gate:.3e} "
                f"for eigenvalue {lam:.6e}"
            )
        if lam <= 1e-11 * scale:
            raise BizooError(
                f"eigenvalue {lam:.3e} off the kernel is zero to the residual "
                f"gate's resolution {1e-11 * scale:.1e}: the kernel is incomplete"
            )
        results.append((lam, Field(space, v)))
    return results
