"""Reference computations for checking bizoo's outputs.

Nothing here imports bizoo.  Every operator is rebuilt from the mask image
(a boolean array indexed [i, j], cell (i, j) covering [i*h, (i+1)*h] x
[j*h, (j+1)*h]) with numpy and scipy.sparse, and solved with dense least
squares or sparse LU.  Cells are numbered row-major (by j, then i), the
ordering bizoo documents for GridDomain; `Grid.cells` lets a caller confirm
that the program agrees before comparing vectors.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_LIMIT = 1024  # dense least squares up to n = 32 on the unit square

# forbidden orderings: the first inverse's output misses the second's data
# class (the clamped inverse needs range data, the Neumann one mean-free data)
FORBIDDEN = ("c_c", "d_c", "n_c", "c_n", "d_n")

# data class of each solvable label, as the composition table states it
DATA_CLASS = {
    "f_c": "L2", "c_f": "no_harmonic", "f_f": "L2", "d_f": "L2",
    "n_f": "mean_free", "f_n": "L2", "n_n": "mean_free", "c_d": "no_harmonic",
    "f_d": "L2", "d_d": "L2", "n_d": "mean_free", "over": "no_biharmonic",
    "under": "L2", "regularized": "L2", "hessian_neumann": "no_linear",
    "hessian_dirichlet": "L2",
}

# 13-point bilaplacian, coefficients times h^-4
_BIHARMONIC = (
    ((0, 0), 20.0),
    ((1, 0), -8.0), ((-1, 0), -8.0), ((0, 1), -8.0), ((0, -1), -8.0),
    ((1, 1), 2.0), ((1, -1), 2.0), ((-1, 1), 2.0), ((-1, -1), 2.0),
    ((2, 0), 1.0), ((-2, 0), 1.0), ((0, 2), 1.0), ((0, -2), 1.0),
)
_PAD = 3
# sides in the order of Grid.neighbors: +x, -x, +y, -y
SIDES = ("right", "left", "top", "bottom")


def mask_image(shape: str, n: int) -> np.ndarray:
    """Boolean cell mask of a built-in shape on the unit square, h = 1/n."""
    mask = np.ones((n, n), dtype=bool)
    if shape == "lshape":
        mask[n // 2:, n // 2:] = False
    elif shape == "annulus":
        hole = n // 4
        start = (n - hole) // 2
        mask[start:start + hole, start:start + hole] = False
    elif shape != "square":
        raise ValueError(f"no oracle mask for shape {shape!r}")
    return mask


def _flood(free: np.ndarray, seed: tuple) -> np.ndarray:
    """Cells of `free` 4-connected to `seed`, by repeated dilation."""
    reached = np.zeros_like(free)
    reached[seed] = True
    while True:
        grown = reached.copy()
        grown[1:, :] |= reached[:-1, :]
        grown[:-1, :] |= reached[1:, :]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= free
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def _count_regions(free: np.ndarray) -> int:
    left = free.copy()
    count = 0
    while left.any():
        seed = tuple(int(t) for t in np.argwhere(left)[0])
        left &= ~_flood(left, seed)
        count += 1
    return count


class Grid:
    """Cell enumeration, depth rings, topology and operators of one mask."""

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)
        self.n = self.mask.shape[0]
        self.h = 1.0 / self.n
        jj, ii = np.nonzero(self.mask.T)
        self.cells = np.column_stack([ii, jj]).astype(np.int64)
        self.m = self.cells.shape[0]
        self._ii, self._jj = ii, jj
        ni, nj = self.mask.shape
        self.index = np.full((ni + 2 * _PAD, nj + 2 * _PAD), -1, dtype=np.int64)
        self.index[ii + _PAD, jj + _PAD] = np.arange(self.m)
        self.neighbors = np.column_stack(
            [self.at(di, dj) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        )
        inner = (self.neighbors >= 0).all(axis=1)
        deeper = inner.copy()
        for d in range(4):
            nb = self.neighbors[:, d]
            deeper &= np.where(nb >= 0, inner[np.maximum(nb, 0)], False)
        self.ring1 = np.flatnonzero(inner)
        self.ring2 = np.flatnonzero(deeper)
        self.depth0 = np.flatnonzero(~inner)
        self.depth01 = np.flatnonzero(~deeper)

    @classmethod
    def of(cls, shape: str, n: int) -> "Grid":
        return cls(mask_image(shape, n))

    def at(self, di: int, dj: int) -> np.ndarray:
        """Index of the cell at offset (di, dj) from each cell, -1 if absent."""
        return self.index[self._ii + _PAD + di, self._jj + _PAD + dj]

    # -- topology ------------------------------------------------------------

    def holes(self) -> int:
        padded = np.pad(~self.mask, 1, constant_values=True)
        outside = _flood(padded, (0, 0))
        return _count_regions(padded & ~outside)

    def components(self) -> int:
        return _count_regions(self.mask)

    def boundary_face_count(self) -> int:
        return int((self.neighbors < 0).sum())

    def interior_vertex_count(self) -> int:
        m = self.mask
        return int((m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]).sum())

    def diameter(self) -> float:
        """Largest distance between corners of boundary cells."""
        corners = np.concatenate(
            [self.cells[self.depth0] + off for off in ((0, 0), (1, 0), (0, 1), (1, 1))]
        )
        pts = np.unique(corners, axis=0).astype(float) * self.h
        best = 0.0
        for start in range(0, pts.shape[0], 512):
            block = pts[start:start + 512]
            d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            best = max(best, float(d2.max()))
        return math.sqrt(best)

    def centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.h

    # -- operators (matrices over plain coordinates; all weights are h^2) ----

    def laplacian(self, kind: str, dirichlet_sides=SIDES) -> sp.csr_matrix:
        """5-point Laplacian; "dirichlet" adds 2/h^2 per boundary face, and
        "mixed" per boundary face facing one of `dirichlet_sides`."""
        h2 = self.h ** 2
        rows, cols, vals = [], [], []
        present = self.neighbors >= 0
        for d in range(4):
            k = np.flatnonzero(present[:, d])
            rows.append(k)
            cols.append(self.neighbors[k, d])
            vals.append(np.full(k.size, -1.0 / h2))
        diag = present.sum(axis=1).astype(float)
        if kind == "dirichlet":
            diag = diag + 2.0 * (~present).sum(axis=1)
        elif kind == "mixed":
            faces = [SIDES.index(side) for side in dirichlet_sides]
            diag = diag + 2.0 * (~present[:, faces]).sum(axis=1)
        elif kind != "neumann":
            raise ValueError(kind)
        rows.append(np.arange(self.m))
        cols.append(np.arange(self.m))
        vals.append(diag / h2)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.m, self.m),
        )

    def interior_laplacian(self) -> sp.csr_matrix:
        """5-point stencil of the zero extension: ring-1 cells to all cells."""
        h2 = self.h ** 2
        col = np.arange(self.ring1.size)
        rows = [self.ring1] + [self.neighbors[self.ring1, d] for d in range(4)]
        vals = [np.full(col.size, 4.0 / h2)] + [np.full(col.size, -1.0 / h2)] * 4
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.tile(col, 5))),
            shape=(self.m, self.ring1.size),
        )

    def interior_biharmonic(self) -> sp.csr_matrix:
        """13-point stencil of the zero extension: ring-2 cells to all cells."""
        h4 = self.h ** 4
        col = np.arange(self.ring2.size)
        rows, vals = [], []
        for (di, dj), c in _BIHARMONIC:
            target = self.at(di, dj)[self.ring2]
            if (target < 0).any():
                raise ValueError("ring-2 cell whose 13-point stencil leaves the mask")
            rows.append(target)
            vals.append(np.full(col.size, c / h4))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.tile(col, len(_BIHARMONIC)))),
            shape=(self.m, self.ring2.size),
        )

    def hessian(self) -> sp.csr_matrix:
        """One-sided Hessian, rows (xx, xy, yy) per cell, exact on quadratics."""
        h2 = self.h ** 2
        rows, cols, vals = [], [], []

        def has(k, axis, t):
            di, dj = (t, 0) if axis == 0 else (0, t)
            i, j = self.cells[k]
            return self.index[i + _PAD + di, j + _PAD + dj] >= 0

        def cell(k, di, dj):
            i, j = self.cells[k]
            return int(self.index[i + _PAD + di, j + _PAD + dj])

        def second(k, axis):
            for shifts in ((-1, 0, 1), (0, 1, 2), (-2, -1, 0)):
                if all(has(k, axis, t) for t in shifts):
                    return list(zip(shifts, (1.0, -2.0, 1.0)))
            raise ValueError("cell without a 3-cell run")

        def first(k, axis):
            if has(k, axis, -1) and has(k, axis, 1):
                return [(-1, -0.5), (1, 0.5)]
            if has(k, axis, 1) and has(k, axis, 2):
                return [(0, -1.5), (1, 2.0), (2, -0.5)]
            if has(k, axis, -1) and has(k, axis, -2):
                return [(-2, 0.5), (-1, -2.0), (0, 1.5)]
            raise ValueError("cell without a 3-cell run")

        for k in range(self.m):
            for t, c in second(k, 0):
                rows.append(3 * k); cols.append(cell(k, t, 0)); vals.append(c / h2)
            for ti, ci in first(k, 0):
                kx = cell(k, ti, 0)
                for tj, cj in first(kx, 1):
                    rows.append(3 * k + 1); cols.append(cell(kx, 0, tj))
                    vals.append(ci * cj / h2)
            for t, c in second(k, 1):
                rows.append(3 * k + 2); cols.append(cell(k, 0, t)); vals.append(c / h2)
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(3 * self.m, self.m))
        mat.sum_duplicates()
        return mat

    def hessian_zero_extension(self) -> sp.csr_matrix:
        """Centered Hessian stencils reading out-of-mask neighbours as zero."""
        h2 = self.h ** 2
        rows, cols, vals = [], [], []
        base = np.arange(self.m)
        terms = [(0, (t, 0), c) for t, c in ((-1, 1.0), (0, -2.0), (1, 1.0))]
        terms += [(1, (si, sj), si * sj / 4.0) for si in (-1, 1) for sj in (-1, 1)]
        terms += [(2, (0, t), c) for t, c in ((-1, 1.0), (0, -2.0), (1, 1.0))]
        for row, (di, dj), c in terms:
            target = self.at(di, dj)
            keep = target >= 0
            rows.append(3 * base[keep] + row)
            cols.append(target[keep])
            vals.append(np.full(int(keep.sum()), c / h2))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(3 * self.m, self.m),
        )

    def hessian_weights(self) -> np.ndarray:
        """Hessian-space weight over cell weight: the mixed row counts twice."""
        return np.tile([1.0, 2.0, 1.0], self.m)

    def linears(self) -> np.ndarray:
        c = self.centers()
        return np.column_stack([np.ones(self.m), c[:, 0], c[:, 1]])


# -- solves ------------------------------------------------------------------


def lu(matrix):
    return spla.splu(sp.csc_matrix(matrix))


def range_split(a: sp.spmatrix, f: np.ndarray):
    """(y, r) with f = a y + r and r orthogonal to range(a), a injective.

    Dense least squares up to DENSE_LIMIT rows, otherwise the sparse
    augmented system [[I, a], [a^T, 0]] [r; y] = [f; 0].
    """
    m, k = a.shape
    if m <= DENSE_LIMIT:
        y = np.linalg.lstsq(a.toarray(), f, rcond=None)[0]
        return y, f - a @ y
    aug = sp.bmat([[sp.identity(m), a], [a.T, None]], format="csc")
    sol = spla.splu(aug).solve(np.concatenate([f, np.zeros(k)]))
    return sol[m:], sol[:m]


def neumann_solve(ln: sp.spmatrix, f: np.ndarray) -> np.ndarray:
    """Mean-free solution of the singular Neumann problem, bordered by ones."""
    m = ln.shape[0]
    ones = sp.csr_matrix(np.ones((m, 1)))
    aug = sp.bmat([[ln, ones], [ones.T, None]], format="csc")
    return spla.splu(aug).solve(np.concatenate([f, [0.0]]))[:m]


def rel(num: float, den: float) -> float:
    return float(num) / max(float(den), 1e-300)


def class_defect(grid: Grid, cls: str, f: np.ndarray) -> float:
    """Relative size of the part of f outside a label's data class."""
    fn = np.linalg.norm(f)
    if cls == "L2":
        return 0.0
    if cls == "mean_free":
        return rel(abs(f.sum()) / math.sqrt(grid.m), fn)
    if cls == "no_harmonic":
        return rel(np.linalg.norm(range_split(grid.interior_laplacian(), f)[1]), fn)
    if cls == "no_biharmonic":
        return rel(np.linalg.norm(range_split(grid.interior_biharmonic(), f)[1]), fn)
    if cls == "no_linear":
        q, _ = np.linalg.qr(grid.linears())
        return rel(np.linalg.norm(q.T @ f), fn)
    raise ValueError(cls)


def expected_verdict(grid: Grid, label: str, f: np.ndarray):
    """Exit code the CLI owes for this label and data: 0, 2 or 3.

    Returns (verdict, defect).  A defect between 1e-12 and 1e-4 is an
    ambiguous input the benchmark must not use, reported as verdict None.
    """
    if label in FORBIDDEN:
        return 3, 0.0
    defect = class_defect(grid, DATA_CLASS[label], f)
    if defect <= 1e-12:
        return 0, defect
    if defect >= 1e-4:
        return 2, defect
    return None, defect


def project_to_class(grid: Grid, cls: str, g: np.ndarray) -> np.ndarray:
    """Orthogonal projection of g into a data class (range data exactly)."""
    if cls == "L2":
        return g
    if cls == "mean_free":
        return g - g.mean()
    if cls == "no_harmonic":
        a = grid.interior_laplacian()
        return a @ range_split(a, g)[0]
    if cls == "no_biharmonic":
        b = grid.interior_biharmonic()
        return b @ range_split(b, g)[0]
    if cls == "no_linear":
        q, _ = np.linalg.qr(grid.linears())
        return g - q @ (q.T @ g)
    raise ValueError(cls)


class SolutionOracle:
    """Checks a returned field u against the promises of its label.

    Each check returns the worst relative defect; a correct solve reads
    below TOL, a wrong one reads O(1).  The checks are: the deep-interior
    13-point residual, the first stage's solution (sparse direct) against
    the second stage's operator applied to u, and the constraints the label
    promises about u itself.
    """

    TOL = 1e-6

    def __init__(self, grid: Grid):
        self.g = grid
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def a(self):
        return self._get("a", self.g.interior_laplacian)

    @property
    def b(self):
        return self._get("b", self.g.interior_biharmonic)

    @property
    def ld(self):
        return self._get("ld", lambda: self.g.laplacian("dirichlet"))

    @property
    def ln(self):
        return self._get("ln", lambda: self.g.laplacian("neumann"))

    def _normal_lu(self, key, mat):
        return self._get(key + "_lu", lambda: lu((mat.T @ mat).tocsc()))

    def in_range_defect(self, which: str, u: np.ndarray) -> float:
        mat = self.a if which == "a" else self.b
        return rel(np.linalg.norm(range_split(mat, u)[1]), np.linalg.norm(u))

    def first_stage(self, letter: str, f: np.ndarray) -> np.ndarray:
        """The Laplacian-stage field w that the first inverse makes of f."""
        g = self.g
        if letter == "d":
            return self._get("ld_lu", lambda: lu(self.ld)).solve(f)
        if letter == "n":
            return neumann_solve(self.ln, f)
        if letter == "c":
            w = np.zeros(g.m)
            w[g.ring1] = range_split(self.a, f)[0]
            return w
        if letter == "f":
            return self.a @ self._normal_lu("a", self.a).solve(f[g.ring1])
        raise ValueError(letter)

    def check(self, label: str, u: np.ndarray, f: np.ndarray) -> dict:
        g = self.g
        fn = np.linalg.norm(f)
        un = np.linalg.norm(u)
        out = {}
        if label == "regularized":
            at_u = self.a.T @ u
            out["residual"] = rel(np.linalg.norm(self.a @ at_u + u - f), fn)
            energy = math.sqrt(un ** 2 + np.linalg.norm(at_u) ** 2)
            out["energy_bound"] = max(0.0, rel(energy - fn, fn))
            return out
        if label == "hessian_neumann":
            h = self._get("hess", g.hessian)
            normal = h.T @ sp.diags(g.hessian_weights()) @ h
            out["residual"] = rel(np.linalg.norm(normal @ u - f), fn)
            q, _ = np.linalg.qr(g.linears())
            out["orthogonal_to_linears"] = rel(np.linalg.norm(q.T @ u), un)
            return out
        if label == "hessian_dirichlet":
            hz = self._get("hessz", g.hessian_zero_extension)[:, g.ring1]
            normal = hz.T @ sp.diags(g.hessian_weights()) @ hz
            out["residual"] = rel(np.linalg.norm(normal @ u[g.ring1] - f[g.ring1]), fn)
            out["strip_u"] = rel(np.linalg.norm(u[g.depth0]), un)
            return out
        if label == "over":
            out["strip2_u"] = rel(np.linalg.norm(u[g.depth01]), un)
            out["residual"] = rel(np.linalg.norm(self.b @ u[g.ring2] - f), fn)
            return out
        out["deep_residual"] = rel(
            np.linalg.norm(self.b.T @ u - f[g.ring2]), np.linalg.norm(f[g.ring2])
        )
        if label == "under":
            out["biharm_u"] = self.in_range_defect("b", u)
            return out
        first, second = label.split("_")
        w = self.first_stage(first, f)
        wn = np.linalg.norm(w)
        if second == "d":
            out["stage"] = rel(np.linalg.norm(self.ld @ u - w), wn)
        elif second == "n":
            out["stage"] = rel(np.linalg.norm(self.ln @ u - w), wn)
            out["mean_u"] = rel(abs(u.sum()) / math.sqrt(g.m), un)
        elif second == "c":
            out["stage"] = rel(np.linalg.norm(self.a @ u[g.ring1] - w), wn)
            out["strip_u"] = rel(np.linalg.norm(u[g.depth0]), un)
        else:
            out["stage"] = rel(np.linalg.norm(self.a.T @ u - w[g.ring1]),
                               np.linalg.norm(w[g.ring1]))
            out["harm_u"] = self.in_range_defect("a", u)
        return out


# -- closed forms and method properties ---------------------------------------


def square_constants(n: int):
    """Best Friedrichs (Dirichlet) and Poincare (Neumann) constants, square."""
    h = 1.0 / n
    s2 = math.sin(math.pi * h / 2.0) ** 2
    return 1.0 / math.sqrt(8.0 / h ** 2 * s2), 1.0 / math.sqrt(4.0 / h ** 2 * s2)


def observed_orders(errors):
    """log2 of successive error ratios under grid halving."""
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def helmholtz_defects(parts) -> dict:
    """Pairwise orthogonality and reconstruction of a three-way split."""
    g, grad, coh, curl = parts
    gn = np.linalg.norm(g)
    out = {"reconstruction": rel(np.linalg.norm(g - grad - coh - curl), gn)}
    for name, (p, q) in {
        "grad_coh": (grad, coh), "grad_curl": (grad, curl), "coh_curl": (coh, curl),
    }.items():
        out[name] = rel(abs(float(p @ q)), gn ** 2)
    return out
