"""Adjoint pairs of sparse operators: kernels, projections, best constants.

A DualPair bundles an operator with its weighted adjoint and lazily found
kernels.  An operator from the catalog carries its kernel, which the
domain's topology determines (the constants on each piece for the
gradient, the affine functions for the Hessian, nothing for the injective
operators); only others have theirs discovered, by a dense SVD up to
DENSE_SVD_LIMIT unknowns, and above it are refused unless a kernel is
passed.  Laziness matters: several pairs in this package have one huge
kernel (for example the divergence side of the gradient pair), and the
solves routed through a pair only ever touch the small one.

Each side's kernel, once found, is set on that side's normal operator,
never on the operator itself.  The range projections and the reduced
solves go through one pinned banded Cholesky factor of that normal
operator (linalg.direct_solve), held in the pair's `factors` dict; a pair
and its swap share normal operators, so kernels, and factors.  The best
constants come from linalg.smallest_eigenpairs on the kernel's
complement: Lanczos through the same factor, kept in the same dict, so a
pair that is both eigensolved and projected factors its normal operator
once.  A kernel hint that misses part of the kernel leaves a zero
eigenvalue or a singular factor and is refused as incomplete.
"""

from __future__ import annotations

import numpy as np

from .errors import BizooError
from .grid import Field
from .linalg import (
    SolveResult,
    SolverConfig,
    SparseOperator,
    compatibility_gate,
    direct_solve,
    normal_product,
    orthonormalize,
    pivoted_pins,
    smallest_eigenpairs,
    _project_out,
)

DENSE_SVD_LIMIT = 400  # unknowns up to which a kernel is discovered
_ADJOINT_PROBES = 3  # random probes of the adjoint identity in make_pair


class DualPair:
    """An operator, its adjoint, and the four-subspace bookkeeping.

    Hints, normal operators and factors are keyed by the operator they
    belong to, in dicts the swapped pair shares; each side's kernel is
    held on that side's normal operator, as its `kernel`.
    """

    def __init__(self, forward: SparseOperator, kernel_forward=None):
        self.forward = forward
        self.adjoint = forward.adjoint()
        self._hints = {forward: kernel_forward, self.adjoint: None}
        self._normals = {}
        self.factors = {}
        self._constant = None
        self._swapped = None

    def _side(self, side: str) -> SparseOperator:
        if side == "forward":
            return self.forward
        if side == "adjoint":
            return self.adjoint
        raise ValueError(f"side must be 'forward' or 'adjoint', got {side!r}")

    def normal(self, side: str = "forward") -> SparseOperator:
        """adjoint(A) A for the forward side, A adjoint(A) for the other."""
        op = self._side(side)
        if op not in self._normals:
            self._normals[op] = normal_product(op)
        return self._normals[op]

    def kernel_basis(self, side: str = "forward"):
        """Weighted-orthonormal kernel basis of the given side, lazy; once
        found, the kernel is set on the side's normal operator."""
        op, normal = self._side(side), self.normal(side)
        if normal.kernel is None:
            normal.kernel = _find_kernel(op, self._hints[op])
        return normal.kernel[0]

    def swapped(self) -> "DualPair":
        """The pair of the adjoint, built once; it shares this pair's
        hints, normal operators (and so kernels) and factors.  It holds no
        link back, so the two form no reference cycle that would keep
        their factors alive until a full garbage collection."""
        if self._swapped is None:
            other = DualPair(self.adjoint)
            other._hints, other._normals = self._hints, self._normals
            other.factors = self.factors
            self._swapped = other
        return self._swapped


def make_pair(forward: SparseOperator, kernel_forward=None) -> DualPair:
    """Build a DualPair, spot-checking the adjoint identity on random probes."""
    pair = DualPair(forward, kernel_forward)
    rng = np.random.default_rng(7)
    dom, cod = forward.domain_space, forward.codomain_space
    for _ in range(_ADJOINT_PROBES):
        u = rng.standard_normal(dom.dim)
        v = rng.standard_normal(cod.dim)
        lhs = cod.inner(forward.apply_raw(u), v)
        rhs = dom.inner(u, pair.adjoint.apply_raw(v))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        if abs(lhs - rhs) > 1e-12 * scale:
            raise BizooError(
                f"adjoint identity violated: {lhs!r} vs {rhs!r}"
            )
    return pair


def _gershgorin_bound(op: SparseOperator) -> float:
    m = op.matrix
    return float(np.abs(m).sum(axis=1).max()) if m.shape[0] else 0.0


def _find_kernel(op: SparseOperator, hint):
    """(basis, pinned cells) of op's kernel.

    The operator's own kernel when it carries one; a supplied hint must
    then be annihilated and lie in its span.  Otherwise the hint's span,
    or a kernel discovered by _discover_kernel, pinned by pivoted_pins.
    """
    space = op.domain_space
    hinted = None
    if hint is not None:
        hinted = orthonormalize(hint, space)
        gate = 1e-8 * max(_gershgorin_bound(op), 1e-30)
        for b in hinted:
            if op.codomain_space.norm(op.apply_raw(b)) > gate:
                raise BizooError("supplied kernel hint is not annihilated")
    if op.kernel is not None:
        for b in hinted or ():
            if space.norm(_project_out(space, b, op.kernel[0])) > 1e-8:
                raise BizooError(
                    "supplied kernel hint lies outside the operator's kernel"
                )
        return op.kernel
    basis = hinted if hinted is not None else _discover_kernel(op)
    return basis, pivoted_pins(basis)


def _discover_kernel(op: SparseOperator):
    """Orthonormal kernel basis of op by a dense SVD, up to
    DENSE_SVD_LIMIT unknowns; above it the kernel must be passed."""
    space = op.domain_space
    if space.dim > DENSE_SVD_LIMIT:
        raise BizooError(
            f"cannot discover the kernel of an operator on {space.dim} "
            f"unknowns (dense SVD limit {DENSE_SVD_LIMIT}); pass a kernel"
        )
    dense = op.to_dense() * np.sqrt(op.codomain_space.weights)[:, None]
    dense = dense / np.sqrt(space.weights)[None, :]
    _, svals, vt = np.linalg.svd(dense, full_matrices=True)
    smax = svals[0] if svals.size else 0.0
    null = [
        vt[r] / np.sqrt(space.weights)
        for r in range(vt.shape[0])
        if r >= svals.size or svals[r] <= 1e-10 * max(smax, 1e-30)
    ]
    return orthonormalize(null, space)


def best_constant(pair: DualPair, check_swapped: bool = False,
                  cfg: SolverConfig | None = None) -> float:
    """1 / sqrt of the smallest nonzero eigenvalue of the normal operator.

    This is the best constant c in |u| <= c |A u| for u orthogonal to the
    kernel.  The eigenvalue is found on the kernel's complement, by
    Lanczos through the pinned factor of the normal operator.  With
    check_swapped=True the same number is recomputed from the swapped
    pair and both must agree to 1e-8 relative; that route materializes
    the adjoint-side kernel, so keep it to modest sizes.
    """
    if pair._constant is None:
        pair.kernel_basis("forward")
        lam = smallest_eigenpairs(pair.normal("forward"), 1, cfg, pair.factors)[0][0]
        pair._constant = 1.0 / np.sqrt(lam)
    if check_swapped:
        other = best_constant(pair.swapped(), False, cfg)
        if abs(other - pair._constant) > 1e-8 * pair._constant:
            raise BizooError(
                f"best-constant swap symmetry violated: {pair._constant!r} "
                f"vs {other!r}"
            )
    return pair._constant


def _normal_solve(pair: DualPair, rhs: np.ndarray, cfg: SolverConfig | None,
                  name: str, min_norm: bool = False) -> SolveResult:
    """direct_solve of (A* A) x = rhs, or with min_norm of A* y = rhs for
    y = A x, on the pair's factor and kernel; rhs is projected off the
    kernel first, where it lies up to rounding."""
    space = pair.forward.domain_space
    rhs = _project_out(space, rhs, pair.kernel_basis("forward"))
    return direct_solve(
        pair.normal("forward"), Field(space, rhs), cfg,
        min_norm=min_norm, factors=pair.factors, name=name,
    )


def project_range(pair: DualPair, g: Field, cfg: SolverConfig | None = None):
    """Split g into its range(A) component and the orthogonal remainder."""
    if not g.space.compatible(pair.forward.codomain_space):
        raise BizooError("projection data must live in the codomain")
    rhs = pair.adjoint.apply_raw(g.values)
    inside = _normal_solve(pair, rhs, cfg, "range projection", min_norm=True).field
    return inside, g - inside


def reduced_solve(pair: DualPair, task: str, rhs: Field,
                  cfg: SolverConfig | None = None) -> SolveResult:
    """Solve one of the canonical subproblems a dual pair carries.

    task "least_squares":  min |A x - rhs| with x orthogonal to ker(A);
    task "min_norm":       A* y = rhs with y in range(A), rhs checked
                           against ker(A) (the compatibility gate);
    task "normal":         (A* A) x = rhs with the same gate.

    Each result's bound |x| <= c^2 |rhs| (or |x| <= c |rhs| for the
    least-squares task measured through A) is a spectral fact of the pair;
    callers can verify it against best_constant.
    """
    space = pair.forward.domain_space
    if task == "least_squares":
        if not rhs.space.compatible(pair.forward.codomain_space):
            raise BizooError("least_squares data must live in the codomain")
        res = _normal_solve(pair, pair.adjoint.apply_raw(rhs.values), cfg,
                            "reduced lsq")
        res.residual_norm = pair.forward.codomain_space.norm(
            pair.forward.apply_raw(res.field.values) - rhs.values
        )
        return res
    if task in ("min_norm", "normal"):
        if not rhs.space.compatible(space):
            raise BizooError(f"{task} data must live in the domain space")
        projected = _project_out(space, rhs.values.copy(), pair.kernel_basis())
        defect = compatibility_gate(
            space.norm(rhs.values - projected), rhs.norm(), "ker(forward)",
            "data has a kernel component of relative size {rel:.3e}",
        )
        # min_norm returns y = A x, refined against A* y = rhs
        min_norm = task == "min_norm"
        res = _normal_solve(pair, projected, cfg, f"reduced {task}", min_norm)
        res.compatibility_defect = defect
        if min_norm:
            res.residual_norm = space.norm(
                pair.adjoint.apply_raw(res.field.values) - rhs.values
            )
        return res
    raise ValueError(f"unknown reduced task {task!r}")


class HelmholtzSplit:
    """Three-way orthogonal split of an edge field."""

    def __init__(self, input, gradient_part, cohomology_part, curl_part, dims):
        self.input = input
        self.gradient_part = gradient_part
        self.cohomology_part = cohomology_part
        self.curl_part = curl_part
        self.dims = dims

    def reconstruction_error(self) -> float:
        total = (
            self.gradient_part.values
            + self.cohomology_part.values
            + self.curl_part.values
        )
        return self.input.space.norm(self.input.values - total)


def helmholtz_decompose(grad_pair: DualPair, curl_pair: DualPair, g: Field,
                        cfg: SolverConfig | None = None) -> HelmholtzSplit:
    """Split an edge field into gradient, cohomology, and curl-adjoint parts.

    Requires the complex property curl after gradient = 0, which is checked
    on entry.  That makes range(gradient) and range(curl adjoint)
    orthogonal, so the middle dimension is edges - rank(gradient) -
    rank(curl) exactly.
    """
    edge_space = g.space
    if not edge_space.compatible(grad_pair.forward.codomain_space):
        raise BizooError("field must live on the gradient codomain")
    if not edge_space.compatible(curl_pair.forward.domain_space):
        raise BizooError("field must live on the curl domain")
    composed = curl_pair.forward.matrix @ grad_pair.forward.matrix
    composed.eliminate_zeros()
    if composed.nnz and np.abs(composed.data).max() > 1e-12 * _gershgorin_bound(
        curl_pair.forward
    ) * _gershgorin_bound(grad_pair.forward):
        raise BizooError("curl after gradient does not vanish on this mesh")

    inside, _ = project_range(grad_pair, g, cfg)
    # the swapped pair's forward operator is curl*: its range projection
    # is the conormal solve (curl curl*) y = curl g, then curl* y
    curl_part, _ = project_range(curl_pair.swapped(), g, cfg)
    middle = Field(
        edge_space, g.values - inside.values - curl_part.values
    )

    n_edges = edge_space.dim
    rank_grad = grad_pair.forward.domain_space.dim - len(
        grad_pair.kernel_basis("forward")
    )
    rank_curl = curl_pair.forward.codomain_space.dim - len(
        curl_pair.kernel_basis("adjoint")
    )
    dims = {
        "gradient": rank_grad,
        "cohomology": n_edges - rank_grad - rank_curl,
        "curl": rank_curl,
        "edges": n_edges,
    }
    return HelmholtzSplit(g, inside, middle, curl_part, dims)
