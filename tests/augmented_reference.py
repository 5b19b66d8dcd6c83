"""A sparse-LU reference for the weighted least-squares and minimum-norm
solves of an injective operator, the oracle the banded routes are
checked against."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def augmented_reference(b, steps=3):
    """A solver of [[I, B], [B*, 0]] [r; x] = [f; g] for an injective
    B = b in its weighted spaces: solve(f=None, g=None) -> (r, x), a
    missing f or g zero.  With g = 0, x is the least-squares solution of
    B x = f and r = f - B x; with f = 0, r is the minimum-norm solution of
    B* r = g.  One LU of [[a I, B], [B*, 0]], a the power of two nearest
    sqrt(|B|), solves for [r / a; x] from [f; g / a], refined `steps`
    times."""
    m, n = b.shape
    wc, wd = np.sqrt(b.codomain_space.weights), np.sqrt(b.domain_space.weights)
    scaled = abs(sp.diags(wc) @ b.matrix @ sp.diags(1.0 / wd))
    bound = np.sqrt(scaled.sum(axis=0).max() * scaled.sum(axis=1).max())
    a = 2.0 ** round(0.5 * np.log2(bound))
    mat = sp.bmat([[a * sp.identity(m), b.matrix], [b.adjoint().matrix, None]],
                  format="csc")
    lu = spla.splu(mat)

    def solve(f=None, g=None):
        rhs = np.concatenate([np.zeros(m) if f is None else f,
                              np.zeros(n) if g is None else g / a])
        sol = lu.solve(rhs)
        for _ in range(steps):
            sol += lu.solve(rhs - mat @ sol)
        return a * sol[:m], sol[m:]

    return solve
