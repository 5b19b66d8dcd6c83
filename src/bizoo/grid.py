"""Masked 2D cell grids: boundary faces, depth rings, weighted DOF spaces.

Cells are axis-aligned squares of width h addressed by integer pairs (i, j);
cell (i, j) covers [i*h, (i+1)*h] x [j*h, (j+1)*h].  All unknowns are
cell-centered.  Boundary conditions never shrink the vector of unknowns:
they are realized inside operators (penalty rows, stencil restrictions), so
scalar fields for every problem share the ambient space of all cells.

A domain keeps one index: an integer image of the mask's bounding box,
indexed [j, i], holding each cell's number and -1 outside the mask.  It is
padded by PAD = 3 cells, so every stencil offset the operators use (reach
at most 2 along each axis) reads it without a bounds check, and every
row of the image starts and ends outside the mask.  Neighbors, faces and
vertices are shifted reads of the image.  Depth is its taxicab distance
transform (forward and backward running minima along each axis), and the
connected pieces are its 4-connected labels (horizontal runs joined
through their vertical contacts): the sequential picture operations of
Rosenfeld & Pfaltz (1966, J. ACM 13:471), written as whole-image numpy
passes.  The holes follow from the Euler count of faces, cells and
vertices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError

DIRECTIONS = ("+x", "-x", "+y", "-y")
OFFSETS = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
_SIDES = {"left": ("-x",), "right": ("+x",), "bottom": ("-y",), "top": ("+y",),
          "all": DIRECTIONS}
PAD = 3  # cells of -1 around the mask in the index image
_BCS = (DIRICHLET, NEUMANN)  # face label codes


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

    The constructor builds the index image, the neighbor table and the
    depths, and checks the label rules.  Every other table is derived on
    first use and then kept: the interior faces (face_cells, face_axes),
    boundary_faces, face_labels, the pieces (component_labels,
    n_components), interior_vertices, n_holes, diameter and the DOF
    spaces.
    """

    def __init__(self, cells, h: float, labels=None):
        arr = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells))
        if arr.dtype.kind != "i":  # a cast could truncate or wrap: check every pair
            arr = np.array([_integer_pair(c) for c in arr.reshape(-1, 2).tolist()])
        arr = arr.astype(np.int64, copy=False).reshape(-1, 2)
        if arr.shape[0] == 0:
            raise EmptyDomainError("mask contains no cells")
        self.h = float(h)
        if not 0 < self.h < math.inf:
            raise ValueError(f"cell width h must be positive and finite, got {self.h!r}")
        self._origin = arr.min(axis=0) - PAD  # lattice point of image[0, 0]
        ni, nj = arr.max(axis=0) - self._origin + PAD + 1
        mask = np.zeros((nj, ni), dtype=bool)
        mask[arr[:, 1] - self._origin[1], arr[:, 0] - self._origin[0]] = True
        jj, ii = np.nonzero(mask)  # row-major, duplicates collapsed
        self._flat = jj * ni + ii  # each cell's place in the raveled image
        self.cells = np.column_stack([ii, jj]) + self._origin
        self._image = np.full(mask.shape, -1, dtype=np.int64)
        self._image[jj, ii] = np.arange(jj.size)

        # neighbor index per direction, -1 where the neighbor cell is absent
        self.neighbors = np.column_stack([self.shifted(*OFFSETS[d]) for d in DIRECTIONS])
        # taxicab distance to the nearest non-mask cell, minus one
        self.depth = _taxicab_distance(mask)[jj, ii] - 1
        self._bc_codes = self._check_labels(labels)

    # -- construction helpers ------------------------------------------------

    def _check_labels(self, rules) -> np.ndarray:
        """Per (cell, direction), the index in _BCS of the label the rules
        give it, 0 (Dirichlet) where none does; every rule is checked here,
        so a bad one is refused when the domain is built."""
        codes = np.zeros(self.neighbors.shape, dtype=np.int8)
        if rules is None:
            return codes
        if not isinstance(rules, (dict, list, tuple)):
            raise ValueError(f"labels {rules!r} are neither sides nor a list of rules")
        if isinstance(rules, dict):
            for side, bc in rules.items():
                bc = _check_bc(bc)
                if side not in _SIDES:
                    raise ValueError(f"unknown side {side!r}")
                codes[:, [DIRECTIONS.index(d) for d in _SIDES[side]]] = _BCS.index(bc)
            return codes
        for rule in rules:
            try:
                cell, d, bc = ((rule["cell"], rule["dir"], rule["bc"])
                               if isinstance(rule, dict) else rule)
            except KeyError as key:
                raise ValueError(f"label rule {rule!r} lacks {key}") from None
            except (TypeError, ValueError):
                raise ValueError(f"label rule {rule!r} is not (cell, dir, bc)") from None
            bc, cell = _check_bc(bc), _integer_pair(cell)
            k = self._find(*cell)
            if k < 0 or d not in DIRECTIONS or self.neighbors[k, DIRECTIONS.index(d)] >= 0:
                raise ValueError(f"label rule {cell}:{d} is not a boundary face")
            codes[k, DIRECTIONS.index(d)] = _BCS.index(bc)
        return codes

    # -- basic queries ---------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_at(self, i, j):
        """Cell number at lattice point (i, j), -1 outside the mask.

        Arrays broadcast.  Points must lie within PAD cells of the mask's
        bounding box (any stencil offset of reach <= PAD around a cell).
        """
        return self._image[j - self._origin[1], i - self._origin[0]]

    def shifted(self, di, dj) -> np.ndarray:
        """Per cell, the cell number at offset (di, dj), -1 outside the mask.

        Offsets reach at most PAD cells.  Array offsets broadcast against
        each other and against the cells along their first axis, so an
        offset may differ per cell (first axis n_cells) or not (length 1).
        """
        step = np.multiply(dj, self._image.shape[1]) + di
        cells = self._flat.reshape((-1,) + (1,) * (np.ndim(step) - 1))
        return self._image.ravel()[cells + step]

    def _find(self, i: int, j: int) -> int:
        a, b = j - self._origin[1], i - self._origin[0]
        if 0 <= a < self._image.shape[0] and 0 <= b < self._image.shape[1]:
            return int(self._image[a, b])
        return -1

    def index_of(self, i: int, j: int) -> int:
        k = self._find(*_integer_pair((i, j)))
        if k < 0:
            raise KeyError((int(i), int(j)))
        return k

    def contains(self, i: int, j: int) -> bool:
        return self._find(*_integer_pair((i, j))) >= 0

    def cell_centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.h

    def ring_cells(self, k: int) -> np.ndarray:
        """Indices of cells at depth >= k (C_k in the ambient ordering)."""
        return np.flatnonzero(self.depth >= k)

    def boundary_cells(self) -> np.ndarray:
        return np.flatnonzero(self.depth == 0)

    def count_boundary_faces(self, bc=None) -> np.ndarray:
        """Per-cell count of boundary faces, optionally only those labeled bc."""
        hit = self.neighbors < 0
        if bc is not None:
            hit[hit] = self.face_labels == bc  # same (cell, direction) order
        return hit @ np.ones(4, dtype=np.int64)

    @cached_property
    def diameter(self) -> float:
        # every hull vertex is the leftmost or rightmost corner on its
        # lattice row, and the cells of row j have corners on rows j and j + 1
        i, j = self.cells[:, 0], self.cells[:, 1] - self.cells[:, 1].min()
        left = np.full(j.max() + 2, np.inf)
        right = np.full(j.max() + 2, -np.inf)
        for s in (0, 1):
            np.minimum.at(left, j + s, i)
            np.maximum.at(right, j + s, i + 1)
        y = np.flatnonzero(left <= right)
        pts = np.column_stack([np.r_[left[y], right[y]], np.r_[y, y]]) * self.h
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    @cached_property
    def n_holes(self) -> int:
        """Holes of the mask: the dimension of its harmonic edge fields.

        By the Euler count, faces - cells - vertices + pieces, which is
        E - rank(grad) - rank(curl): the gradient's kernel is the constants
        on each piece, and the curl is injective on interior-vertex fields.
        Missing cells that touch at a corner are joined (the 8-connected
        dual of the 4-connected pieces), so a missing cell that touches
        the outside only at a corner makes no hole.
        """
        return (len(self.face_cells) - self.n_cells
                - len(self.interior_vertices) + self.n_components)

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        """Lattice vertices whose four incident cells are all in the mask.

        Each is the top-right corner of its south-west cell, so they come
        in cell order.
        """
        full = (self.shifted(1, 0) >= 0) & (self.shifted(0, 1) >= 0) & (
            self.shifted(1, 1) >= 0
        )
        return self.cells[full] + 1

    @cached_property
    def boundary_faces(self) -> list:
        """(cell, direction) of each boundary face, cell-major."""
        return [(k, DIRECTIONS[d]) for k, d in np.argwhere(self.neighbors < 0).tolist()]

    @cached_property
    def face_labels(self) -> np.ndarray:
        """Each boundary face's label, in boundary_faces order."""
        return np.array(_BCS, dtype=object)[self._bc_codes[self.neighbors < 0]]

    @cached_property
    def _interior_faces(self):
        # owner a, neighbor b = a + e_axis, axis 0 for +x, 1 for +y
        # (DIRECTIONS[0] = +x, DIRECTIONS[2] = +y), owner-major
        owners, axes = np.nonzero(self.neighbors[:, [0, 2]] >= 0)
        return np.column_stack([owners, self.neighbors[owners, 2 * axes]]), axes

    @cached_property
    def face_cells(self) -> np.ndarray:
        """Owner and neighbor cell of each interior face, owner-major."""
        return self._interior_faces[0]

    @cached_property
    def face_axes(self) -> np.ndarray:
        """Per interior face, 0 between x-neighbors and 1 between y-neighbors."""
        return self._interior_faces[1]

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each cell's 4-connected piece, numbered in cell order of first cells."""
        return _label_pieces(self._image >= 0)

    @cached_property
    def n_components(self) -> int:
        return int(self.component_labels.max()) + 1

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


def _taxicab_distance(mask: np.ndarray) -> np.ndarray:
    """Per pixel, the taxicab distance to the nearest False pixel.

    The metric separates by axis, so each axis takes one pass of the 1D
    transform d(y) = min over z of |y - z| + f(z), split into the running
    minima from either end.  The mask must hold a False pixel.
    """
    dist = np.where(mask, mask.size, 0)  # mask.size exceeds every distance
    for _ in range(2):  # rows, then (transposed) columns
        y = np.arange(dist.shape[1])
        ahead = np.minimum.accumulate(dist - y, axis=1) + y
        behind = np.minimum.accumulate((dist + y)[:, ::-1], axis=1)[:, ::-1] - y
        dist = np.minimum(ahead, behind).T
    return dist


def _label_pieces(mask: np.ndarray):
    """Label the 4-connected pieces of a mask whose border is False.

    Returns each True pixel's piece, in raster order.
    Pixels join into horizontal runs, and runs into pieces through their
    vertical contacts by hooking each root onto the smaller one and
    compressing paths until every contact joins two equal roots.  A
    piece's root is then its first run, so pieces are numbered in raster
    order of their first pixel.
    """
    flat = mask.ravel()
    start = flat.copy()
    start[1:] &= ~flat[:-1]  # the False border keeps runs within rows
    run = np.cumsum(start) - 1
    below = np.flatnonzero(mask[:-1].ravel() & mask[1:].ravel())
    upper, lower = run[below], run[below + mask.shape[1]]
    root = np.arange(run[-1] + 1)
    while True:
        a, b = root[upper], root[lower]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, root[root]):
            root = root[root]
    first = root == np.arange(root.size)
    return (np.cumsum(first) - 1)[root[run[flat]]]


def _integer_pair(pair) -> tuple:
    """pair as two int64 values; ValueError if a cast would change it (floats
    must be whole, not booleans, and both must lie in int64's range)."""
    if not (isinstance(pair, (list, tuple, np.ndarray)) and len(pair) == 2 and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer() for v in pair)):
        raise ValueError(f"cell {pair!r} is not a pair of integers")
    ij = int(pair[0]), int(pair[1])
    if not -2**63 <= min(ij) <= max(ij) < 2**63:
        raise ValueError(f"cell {pair!r} lies beyond the int64 range")
    return ij


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary label must be '{DIRICHLET}' or '{NEUMANN}', got {bc!r}")
    return bc


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
    if shape == "rectangle" and not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"rectangle width {width!r} and height {height!r} must be finite")
    nx, ny = (round(width * n), round(height * n)) if shape == "rectangle" else (n, n)
    if nx < 1 or ny < 1:
        raise ValueError("rectangle dimensions must cover at least one cell")
    cells = np.indices((ny, nx))[::-1].reshape(2, -1).T  # (i, j), row-major
    if shape == "lshape":
        if n % 2:
            raise ValueError("lshape needs even n")
        cells = cells[cells.min(axis=1) < n // 2]
    elif shape == "annulus":
        hole = n // 4
        if hole < 1 or n - 2 * hole < 2:
            raise ValueError("annulus needs n >= 4")
        start = (n - hole) // 2
        cells = cells[(cells.min(axis=1) < start) | (cells.max(axis=1) >= start + hole)]
    elif shape not in ("square", "rectangle"):
        raise ValueError(f"unknown shape {shape!r}")
    return GridDomain(cells, h, labels)


# -- serialization -------------------------------------------------------------

def domain_to_dict(domain: GridDomain) -> dict:
    rows, dirs = np.nonzero(domain.neighbors < 0)  # boundary faces, in order
    labels = zip(domain.cells[rows].tolist(), dirs.tolist(), domain.face_labels.tolist())
    return {"h": domain.h, "cells": domain.cells.tolist(), "labels": [
        {"cell": c, "dir": DIRECTIONS[d], "bc": bc} for c, d, bc in labels]}


_FILE = '{\n "h": %s,\n "cells": [\n%s\n ],\n "labels": [\n%s\n ]\n}\n'
_CELL = "  [\n   %s,\n   %s\n  ]"
_LABEL = '  {\n   "cell": [\n    %s,\n    %s\n   ],\n   "dir": "%s",\n   "bc": "%s"\n  }'


def domain_json(domain: GridDomain) -> str:
    """json.dump(domain_to_dict(domain), indent=1) + "\\n" without json's Python
    indent encoder: each list is one %-format of a repeated item template."""
    rows, dirs = np.nonzero(domain.neighbors < 0)
    faces = np.column_stack([domain.cells[rows].astype(str), np.array(DIRECTIONS)[dirs],
                             domain.face_labels.astype(str)])
    cells = ",\n".join([_CELL] * domain.n_cells) % tuple(domain.cells.ravel().tolist())
    labels = ",\n".join([_LABEL] * len(rows)) % tuple(faces.ravel().tolist())
    return _FILE % (json.dumps(domain.h), cells, labels)


def save_domain(domain: GridDomain, path) -> None:
    with open(path, "w") as fh:
        fh.write(domain_json(domain))


def load_domain(path) -> GridDomain:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("domain file is not a JSON object")
    try:
        cells, h = data["cells"], data["h"]
    except KeyError as key:
        raise ValueError(f"domain file lacks {key}") from None
    if isinstance(h, bool) or not isinstance(h, (int, float)):
        raise ValueError(f"domain file's 'h' is {h!r}, not a number")
    if not isinstance(cells, list) or not all(
            isinstance(c, list) and len(c) == 2 for c in cells):
        raise ValueError("domain file's 'cells' is not a list of pairs")
    if bool in map(type, itertools.chain.from_iterable(cells)):  # np.asarray reads it as 0 or 1
        raise ValueError("domain file's 'cells' holds a boolean, not an integer")
    return GridDomain(np.asarray(cells), float(h), data.get("labels"))


def write_field_csv(domain: GridDomain, field: Field, path) -> None:
    """Dump a cell field as i,j,x,y,value rows, value round-trip exact.

    Every float is written with %.17g.  A cell center's x depends on its
    column i alone and y on its row j alone, so each distinct coordinate
    is formatted once and looked up per row; all rows are then one
    %-format of a repeated row template.
    """
    if not field.space.compatible(domain.cell_space):
        raise SpaceMismatchError("CSV export expects a field on the cell space")
    centers = domain.cell_centers()
    rows = np.empty((domain.n_cells, 5), dtype=object)
    rows[:, :2] = domain.cells
    for axis in (0, 1):
        coord, inverse = np.unique(centers[:, axis], return_inverse=True)
        rows[:, 2 + axis] = np.array(["%.17g" % c for c in coord.tolist()], dtype=object)[inverse]
    rows[:, 4] = field.values.tolist()
    with open(path, "w") as fh:
        fh.write("i,j,x,y,value\n")
        fh.write("%s,%s,%s,%s,%.17g\n" * domain.n_cells % tuple(rows.ravel().tolist()))


def read_field_csv(path):
    """Read a field CSV back as (cells, centers, values) arrays."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "i,j,x,y,value":
            raise ValueError(f"unexpected field CSV header: {header!r}")
        rows = [line.split(",") for line in map(str.strip, fh) if line]
    if any(len(row) != 5 for row in rows):
        raise ValueError("a field CSV row does not hold i,j,x,y,value")
    table = np.array(rows, dtype=str).reshape(-1, 5)
    return table[:, :2].astype(np.int64), table[:, 2:4].astype(float), table[:, 4].astype(float)
