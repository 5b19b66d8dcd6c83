"""Masked 2D cell grids: boundary faces, depth rings, weighted DOF spaces.

Cells are axis-aligned squares of width h addressed by integer pairs (i, j);
cell (i, j) covers [i*h, (i+1)*h] x [j*h, (j+1)*h].  All unknowns are
cell-centered.  Boundary conditions never shrink the vector of unknowns:
they are realized inside operators (penalty rows, stencil restrictions), so
scalar fields for every problem share the ambient space of all cells.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull

from .errors import EmptyDomainError, SpaceMismatchError

DIRECTIONS = ("+x", "-x", "+y", "-y")
OFFSETS = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
_SIDES = {"left": "-x", "right": "+x", "bottom": "-y", "top": "+y"}


@dataclass(frozen=True, eq=False)
class DofSpace:
    """Finite-dimensional coefficient space with a diagonal inner product.

    Attributes:
        name: short tag ("C0", "C1", "Edges", ...) used in error messages
            and operator dumps.
        dim: number of degrees of freedom.
        weights: positive quadrature weight per DOF; inner products and
            norms are always taken against these weights.
    """

    name: str
    dim: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"weights shape {w.shape} does not match dim {self.dim}")
        if self.dim and not np.all(w > 0):
            raise ValueError("DOF weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    def compatible(self, other: "DofSpace") -> bool:
        if self is other:
            return True
        return (
            self.name == other.name
            and self.dim == other.dim
            and np.array_equal(self.weights, other.weights)
        )

    def inner(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(np.dot(self.weights * u, v))

    def norm(self, u) -> float:
        return math.sqrt(max(self.inner(u, u), 0.0))

    def field(self, values) -> "Field":
        return Field(self, np.array(values, dtype=float))

    def zeros(self) -> "Field":
        return Field(self, np.zeros(self.dim))

    def ones(self) -> "Field":
        return Field(self, np.ones(self.dim))


@dataclass(eq=False)
class Field:
    """Coefficient vector tagged with its DOF space."""

    space: DofSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.dim,):
            raise SpaceMismatchError(
                f"field of length {v.shape} does not fit space "
                f"{self.space.name} (dim {self.space.dim})"
            )
        self.values = v

    def norm(self) -> float:
        return self.space.norm(self.values)

    def inner(self, other: "Field") -> float:
        if not self.space.compatible(other.space):
            raise SpaceMismatchError(
                f"inner product between {self.space.name} and {other.space.name}"
            )
        return self.space.inner(self.values, other.values)

    def copy(self) -> "Field":
        return Field(self.space, self.values.copy())

    def __add__(self, other: "Field") -> "Field":
        if not self.space.compatible(other.space):
            raise SpaceMismatchError("adding fields from different spaces")
        return Field(self.space, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        if not self.space.compatible(other.space):
            raise SpaceMismatchError("subtracting fields from different spaces")
        return Field(self.space, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.space, self.values * float(scalar))

    __rmul__ = __mul__


class GridDomain:
    """Immutable masked uniform grid.

    Construction is deterministic: cells are stored row-major (sorted by j,
    then i) and all derived enumerations (faces, vertices, rings) follow
    that order, so two domains built from the same mask are identical
    arrays, not just equal sets.
    """

    def __init__(self, cells, h: float, labels=None):
        arr = np.asarray(list(cells), dtype=np.int64).reshape(-1, 2)
        if arr.shape[0] == 0:
            raise EmptyDomainError("mask contains no cells")
        arr = np.unique(arr, axis=0)
        order = np.lexsort((arr[:, 0], arr[:, 1]))
        self.cells = arr[order]
        self.h = float(h)
        if not self.h > 0:
            raise ValueError("cell width h must be positive")
        m = self.cells.shape[0]
        self._index = {(int(i), int(j)): k for k, (i, j) in enumerate(self.cells)}

        # neighbor index per direction, -1 where the neighbor cell is absent
        self.neighbors = np.full((m, 4), -1, dtype=np.int64)
        for k, (i, j) in enumerate(self.cells):
            for d, name in enumerate(DIRECTIONS):
                di, dj = OFFSETS[name]
                self.neighbors[k, d] = self._index.get((int(i) + di, int(j) + dj), -1)

        self.boundary_faces = [
            (k, DIRECTIONS[d])
            for k in range(m)
            for d in range(4)
            if self.neighbors[k, d] < 0
        ]

        # interior faces: owner a, neighbor b = a + e_axis, axis 0 for +x, 1 for +y
        fa, fb, ax = [], [], []
        for k in range(m):
            for axis, d in ((0, 0), (1, 2)):  # DIRECTIONS[0] = +x, DIRECTIONS[2] = +y
                nb = self.neighbors[k, d]
                if nb >= 0:
                    fa.append(k)
                    fb.append(nb)
                    ax.append(axis)
        self.face_cells = np.column_stack(
            [np.asarray(fa, dtype=np.int64), np.asarray(fb, dtype=np.int64)]
        ) if fa else np.zeros((0, 2), dtype=np.int64)
        self.face_axes = np.asarray(ax, dtype=np.int64)

        self.depth = self._compute_depth()
        self.component_labels = self._label_components()
        self.n_components = int(self.component_labels.max()) + 1
        self.n_holes = self._count_holes()
        self.face_labels = self._resolve_labels(labels)

    # -- construction helpers ------------------------------------------------

    def _compute_depth(self) -> np.ndarray:
        m = self.cells.shape[0]
        depth = np.full(m, -1, dtype=np.int64)
        queue = deque()
        for k in range(m):
            if (self.neighbors[k] < 0).any():
                depth[k] = 0
                queue.append(k)
        while queue:
            k = queue.popleft()
            for nb in self.neighbors[k]:
                if nb >= 0 and depth[nb] < 0:
                    depth[nb] = depth[k] + 1
                    queue.append(nb)
        # every finite component has boundary faces, so BFS reaches all cells
        return depth

    def _label_components(self) -> np.ndarray:
        """Connected-piece number of each cell, pieces numbered from 0."""
        m = self.cells.shape[0]
        labels = np.full(m, -1, dtype=np.int64)
        count = 0
        for start in range(m):
            if labels[start] >= 0:
                continue
            labels[start] = count
            queue = deque([start])
            while queue:
                k = queue.popleft()
                for nb in self.neighbors[k]:
                    if nb >= 0 and labels[nb] < 0:
                        labels[nb] = count
                        queue.append(nb)
            count += 1
        return labels

    def _count_holes(self) -> int:
        # flood the complement of the mask inside a 1-cell-padded bounding
        # box; complement components not reaching the pad are holes
        imin, jmin = self.cells.min(axis=0) - 1
        imax, jmax = self.cells.max(axis=0) + 1
        ni, nj = imax - imin + 1, jmax - jmin + 1
        solid = np.zeros((ni, nj), dtype=bool)
        solid[self.cells[:, 0] - imin, self.cells[:, 1] - jmin] = True
        outside = np.zeros_like(solid)
        queue = deque([(0, 0)])
        outside[0, 0] = True
        while queue:
            a, b = queue.popleft()
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                na, nb = a + da, b + db
                if 0 <= na < ni and 0 <= nb < nj and not solid[na, nb] and not outside[na, nb]:
                    outside[na, nb] = True
                    queue.append((na, nb))
        holes = 0
        visited = outside | solid
        for a in range(ni):
            for b in range(nj):
                if not visited[a, b]:
                    holes += 1
                    visited[a, b] = True
                    queue = deque([(a, b)])
                    while queue:
                        p, q = queue.popleft()
                        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            np_, nq = p + da, q + db
                            if 0 <= np_ < ni and 0 <= nq < nj and not visited[np_, nq]:
                                visited[np_, nq] = True
                                queue.append((np_, nq))
        return holes

    def _resolve_labels(self, rules) -> np.ndarray:
        labels = np.array([DIRICHLET] * len(self.boundary_faces), dtype=object)
        if rules is None:
            return labels
        face_row = {
            (k, d): r for r, (k, d) in enumerate(self.boundary_faces)
        }
        if isinstance(rules, dict):
            for side, bc in rules.items():
                bc = _check_bc(bc)
                if side == "all":
                    labels[:] = bc
                elif side in _SIDES:
                    d = _SIDES[side]
                    for r, (k, fd) in enumerate(self.boundary_faces):
                        if fd == d:
                            labels[r] = bc
                else:
                    raise ValueError(f"unknown side {side!r}")
            return labels
        for rule in rules:
            if isinstance(rule, dict):
                cell, d, bc = tuple(rule["cell"]), rule["dir"], rule["bc"]
            else:
                cell, d, bc = rule
            bc = _check_bc(bc)
            k = self._index.get((int(cell[0]), int(cell[1])))
            if k is None or (k, d) not in face_row:
                raise ValueError(f"label rule {cell}:{d} is not a boundary face")
            labels[face_row[(k, d)]] = bc
        return labels

    # -- basic queries ---------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def index_of(self, i: int, j: int) -> int:
        return self._index[(int(i), int(j))]

    def contains(self, i: int, j: int) -> bool:
        return (int(i), int(j)) in self._index

    def cell_centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.h

    def ring_cells(self, k: int) -> np.ndarray:
        """Indices of cells at depth >= k (C_k in the ambient ordering)."""
        return np.flatnonzero(self.depth >= k)

    def boundary_cells(self) -> np.ndarray:
        return np.flatnonzero(self.depth == 0)

    def count_boundary_faces(self, bc=None) -> np.ndarray:
        """Per-cell count of boundary faces, optionally only those labeled bc."""
        counts = np.zeros(self.n_cells, dtype=np.int64)
        for r, (k, _) in enumerate(self.boundary_faces):
            if bc is None or self.face_labels[r] == bc:
                counts[k] += 1
        return counts

    @cached_property
    def diameter(self) -> float:
        corners = np.concatenate(
            [
                self.cells,
                self.cells + (1, 0),
                self.cells + (0, 1),
                self.cells + (1, 1),
            ]
        ) * self.h
        pts = np.unique(corners, axis=0)
        hull = pts[ConvexHull(pts).vertices]
        diff = hull[:, None, :] - hull[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        """Lattice vertices whose four incident cells are all in the mask."""
        seen = {}
        for i, j in self.cells:
            seen.setdefault((int(i) + 1, int(j) + 1), None)
        verts = [
            (vi, vj)
            for (vi, vj) in seen
            if (vi - 1, vj - 1) in self._index
            and (vi, vj - 1) in self._index
            and (vi - 1, vj) in self._index
            and (vi, vj) in self._index
        ]
        verts.sort(key=lambda v: (v[1], v[0]))
        return np.asarray(verts, dtype=np.int64).reshape(-1, 2)

    # -- DOF spaces ----------------------------------------------------------

    @cached_property
    def cell_space(self) -> DofSpace:
        return DofSpace("C0", self.n_cells, np.full(self.n_cells, self.h**2))

    def ring_space(self, k: int) -> DofSpace:
        if k == 0:
            return self.cell_space
        if k not in (1, 2):
            raise ValueError("depth rings are tracked for k in {0, 1, 2}")
        return self._ring_spaces[k - 1]

    @cached_property
    def _ring_spaces(self):
        return tuple(
            DofSpace(f"C{k}", int(self.ring_cells(k).size),
                     np.full(int(self.ring_cells(k).size), self.h**2))
            for k in (1, 2)
        )

    @cached_property
    def edge_space(self) -> DofSpace:
        e = self.face_cells.shape[0]
        return DofSpace("Edges", e, np.full(e, self.h**2))

    @cached_property
    def all_face_space(self) -> DofSpace:
        n = self.face_cells.shape[0] + len(self.boundary_faces)
        return DofSpace("AllFaces", n, np.full(n, self.h**2))

    @cached_property
    def vertex_space(self) -> DofSpace:
        v = self.interior_vertices.shape[0]
        return DofSpace("Vertices", v, np.full(v, self.h**2))

    @cached_property
    def hessian_space(self) -> DofSpace:
        # per cell: xx, xy, yy rows; the mixed entry is counted twice
        w = np.tile(np.array([1.0, 2.0, 1.0]) * self.h**2, self.n_cells)
        return DofSpace("Hess", 3 * self.n_cells, w)


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary label must be '{DIRICHLET}' or '{NEUMANN}', got {bc!r}")
    return bc


def depth_ring(domain: GridDomain, k: int) -> DofSpace:
    """DOF space of cells at depth >= k.  Empty rings are legal."""
    return domain.ring_space(k)


def build_domain(shape, n: int, labels=None, *, width: float = 1.0,
                 height: float = 1.0) -> GridDomain:
    """Build a masked grid with cell width 1/n.

    shape is one of the strings "square", "rectangle", "lshape", "annulus",
    or an explicit iterable of (i, j) cell pairs.  rectangle spans
    width x height units; lshape removes the top-right quadrant of the unit
    square (n must be even); annulus removes a centered block of n//4 cells
    per side.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    h = 1.0 / n
    if not isinstance(shape, str):
        return GridDomain(shape, h, labels)
    if shape == "square":
        cells = [(i, j) for j in range(n) for i in range(n)]
    elif shape == "rectangle":
        nx, ny = round(width * n), round(height * n)
        if nx < 1 or ny < 1:
            raise ValueError("rectangle dimensions must cover at least one cell")
        cells = [(i, j) for j in range(ny) for i in range(nx)]
    elif shape == "lshape":
        if n % 2:
            raise ValueError("lshape needs even n")
        half = n // 2
        cells = [
            (i, j) for j in range(n) for i in range(n)
            if not (i >= half and j >= half)
        ]
    elif shape == "annulus":
        hole = n // 4
        if hole < 1 or n - 2 * hole < 2:
            raise ValueError("annulus needs n >= 4")
        start = (n - hole) // 2
        cells = [
            (i, j) for j in range(n) for i in range(n)
            if not (start <= i < start + hole and start <= j < start + hole)
        ]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return GridDomain(cells, h, labels)


# -- serialization -------------------------------------------------------------

def domain_to_dict(domain: GridDomain) -> dict:
    return {
        "h": domain.h,
        "cells": [[int(i), int(j)] for i, j in domain.cells],
        "labels": [
            {
                "cell": [int(domain.cells[k, 0]), int(domain.cells[k, 1])],
                "dir": d,
                "bc": str(domain.face_labels[r]),
            }
            for r, (k, d) in enumerate(domain.boundary_faces)
        ],
    }


def save_domain(domain: GridDomain, path) -> None:
    with open(path, "w") as fh:
        json.dump(domain_to_dict(domain), fh, indent=1)
        fh.write("\n")


def load_domain(path) -> GridDomain:
    with open(path) as fh:
        data = json.load(fh)
    cells = [tuple(c) for c in data["cells"]]
    return GridDomain(cells, float(data["h"]), data.get("labels"))


def write_field_csv(domain: GridDomain, field: Field, path) -> None:
    """Dump a cell field as i,j,x,y,value rows, value round-trip exact."""
    if not field.space.compatible(domain.cell_space):
        raise SpaceMismatchError("CSV export expects a field on the cell space")
    centers = domain.cell_centers()
    with open(path, "w") as fh:
        fh.write("i,j,x,y,value\n")
        for k, (i, j) in enumerate(domain.cells):
            fh.write(
                f"{i},{j},{centers[k, 0]:.17g},{centers[k, 1]:.17g},"
                f"{field.values[k]:.17g}\n"
            )


def read_field_csv(path):
    """Read a field CSV back as (cells, centers, values) arrays."""
    cells, centers, values = [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "i,j,x,y,value":
            raise ValueError(f"unexpected field CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            i, j, x, y, v = line.split(",")
            cells.append((int(i), int(j)))
            centers.append((float(x), float(y)))
            values.append(float(v))
    return (
        np.asarray(cells, dtype=np.int64).reshape(-1, 2),
        np.asarray(centers, dtype=float).reshape(-1, 2),
        np.asarray(values, dtype=float),
    )
