import json
import re

import numpy as np
import pytest
from scipy import ndimage

from bizoo import (
    EmptyDomainError,
    Field,
    GridDomain,
    OperatorCatalog,
    SpaceMismatchError,
    build_domain,
    domain_to_dict,
    load_domain,
    read_field_csv,
    save_domain,
    solve_zoo,
    write_field_csv,
)
from bizoo.grid import DIRECTIONS, domain_json
from test_operator_golden import golden_domains


def bfs_depth(cells):
    # independent BFS oracle over an explicit cell set
    cset = set(map(tuple, cells))
    depth = {}
    frontier = [
        c for c in cset
        if any((c[0] + di, c[1] + dj) not in cset
               for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    ]
    for c in frontier:
        depth[c] = 0
    while frontier:
        nxt = []
        for c in frontier:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = (c[0] + di, c[1] + dj)
                if nb in cset and nb not in depth:
                    depth[nb] = depth[c] + 1
                    nxt.append(nb)
        frontier = nxt
    return depth


def test_square_ring_counts():
    dom = build_domain("square", 6)
    assert dom.n_cells == 36
    assert dom.ring_cells(1).size == 16
    assert dom.ring_cells(2).size == 4


def test_small_square_has_empty_deep_ring():
    dom = build_domain("square", 4)
    assert dom.ring_cells(1).size == 4
    assert dom.ring_cells(2).size == 0


def test_depth_matches_bfs_oracle():
    for shape, n in (("square", 7), ("lshape", 8), ("annulus", 8)):
        dom = build_domain(shape, n)
        oracle = bfs_depth(dom.cells)
        for k, (i, j) in enumerate(dom.cells):
            assert dom.depth[k] == oracle[(int(i), int(j))]


def test_square_depth_formula():
    n = 6
    dom = build_domain("square", n)
    for k, (i, j) in enumerate(dom.cells):
        assert dom.depth[k] == min(i, j, n - 1 - i, n - 1 - j)


def test_cells_row_major():
    dom = build_domain("lshape", 4)
    order = np.lexsort((dom.cells[:, 0], dom.cells[:, 1]))
    assert np.array_equal(order, np.arange(dom.n_cells))
    # duplicate cells collapse
    dup = GridDomain([(0, 0), (1, 0), (0, 0)], 0.5)
    assert dup.n_cells == 2


def test_hole_count_flood_fill():
    assert build_domain("square", 6).n_holes == 0
    assert build_domain("lshape", 6).n_holes == 0
    assert build_domain("annulus", 8).n_holes == 1
    # two separate punctures
    cells = [
        (i, j) for j in range(7) for i in range(7)
        if (i, j) not in ((2, 2), (4, 4))
    ]
    assert GridDomain(cells, 1 / 7).n_holes == 2
    # the missing centre meets the missing corner (2, 2), which lies
    # outside, at a corner: the cells do not close round the centre, so it
    # is no hole and no harmonic edge field circulates about it
    ring = [
        (i, j) for j in range(3) for i in range(3)
        if (i, j) not in ((1, 1), (2, 2))
    ]
    assert GridDomain(ring, 1 / 3).n_holes == 0
    # negative coordinates: a 3x3 ring around (-5, -5)
    ring = [
        (i, j) for j in range(-6, -3) for i in range(-6, -3) if (i, j) != (-5, -5)
    ]
    assert GridDomain(ring, 1 / 3).n_holes == 1


def dense_rank(op) -> int:
    m = op.matrix.toarray()
    return int(np.linalg.matrix_rank(m)) if m.size else 0


def test_hole_count_is_the_dimension_of_the_harmonic_edge_fields():
    rng = np.random.default_rng(41)
    for _ in range(300):
        side = rng.integers(2, 6)
        mask = rng.random((side, side)) < rng.uniform(0.5, 0.9)
        cells = np.argwhere(mask)
        if not len(cells):
            continue
        dom = GridDomain(cells, 1 / side)
        cat = OperatorCatalog(dom)
        harmonic = (dom.edge_space.dim - dense_rank(cat.gradient)
                    - dense_rank(cat.curl))
        assert dom.n_holes == harmonic, cells.tolist()


def ndimage_depth_and_pieces(cells):
    """Depth, piece labels and piece count of a cell set by scipy.ndimage."""
    ij = cells - cells.min(axis=0) + 1
    mask = np.zeros(ij.max(axis=0)[::-1] + 2, dtype=bool)
    mask[ij[:, 1], ij[:, 0]] = True
    dist = ndimage.distance_transform_cdt(mask, metric="taxicab")
    pieces, count = ndimage.label(mask)
    return dist[ij[:, 1], ij[:, 0]] - 1, pieces[ij[:, 1], ij[:, 0]] - 1, count


def assert_matches_ndimage(dom):
    depth, pieces, count = ndimage_depth_and_pieces(dom.cells)
    assert np.array_equal(dom.depth, depth)
    assert dom.component_labels.dtype == np.int64
    assert np.array_equal(dom.component_labels, pieces)
    assert dom.n_components == count


def _spiral(n):
    """A one-cell-wide path winding inwards from (0, 0), one cell between turns."""
    cells, (i, j), (di, dj) = [(0, 0)], (0, 0), (1, 0)
    for length in [n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)]:
        for _ in range(length):
            i, j = i + di, j + dj
            cells.append((i, j))
        di, dj = -dj, di
    return cells


NDIMAGE_CASES = {
    "spiral": lambda: GridDomain(_spiral(15), 1 / 15),
    "comb": lambda: GridDomain([(i, j) for j in range(16) for i in range(16)
                                if j == 15 or i % 2 == 0], 1 / 16),
    "single_cell": lambda: GridDomain([(-3, 7)], 1.0),
    "corner_touching": lambda: GridDomain(
        [(i, j) for j in range(-4, 4) for i in range(-2, 6) if (i + j) % 2 == 0],
        1 / 8),
    **{f"golden_{k}": (lambda k=k: golden_domains()[k]) for k in golden_domains()},
}


@pytest.mark.parametrize("name", sorted(NDIMAGE_CASES))
def test_depth_and_pieces_match_ndimage(name):
    assert_matches_ndimage(NDIMAGE_CASES[name]())


def test_depth_and_pieces_match_ndimage_on_random_masks():
    rng = np.random.default_rng(17)
    for _ in range(400):
        shape = rng.integers(1, 17, size=2)
        mask = rng.random(shape) < rng.uniform(0.3, 0.95)
        mask.flat[rng.integers(mask.size)] = True
        cells = np.argwhere(mask) + rng.integers(-40, 0, size=2)
        assert_matches_ndimage(GridDomain(cells, 1 / 16))


def test_components():
    two = GridDomain([(0, 0), (5, 5)], 0.1)
    assert two.n_components == 2
    assert build_domain("annulus", 8).n_components == 1
    # cells touching only at a corner are separate pieces
    corner = GridDomain([(0, 0), (1, 1)], 0.5)
    assert corner.n_components == 2
    assert list(corner.component_labels) == [0, 1]
    # negative coordinates; pieces are numbered by their first cell
    neg = GridDomain([(3, -1), (-4, -3), (-3, -3), (-4, -2), (4, -1)], 0.25)
    assert neg.n_components == 2
    assert list(neg.component_labels) == [0, 0, 0, 1, 1]
    assert neg.cells.tolist() == [[-4, -3], [-3, -3], [-4, -2], [3, -1], [4, -1]]


def test_diameter_against_corner_scan():
    for shape, kw, expect in (
        ("square", {}, np.sqrt(2.0)),
        ("rectangle", {"width": 3.0}, np.sqrt(10.0)),
        ("lshape", {}, np.sqrt(2.0)),
    ):
        dom = build_domain(shape, 4, **kw)
        corners = np.unique(
            np.concatenate(
                [dom.cells + s for s in ((0, 0), (1, 0), (0, 1), (1, 1))]
            ),
            axis=0,
        ) * dom.h
        brute = max(
            np.hypot(a[0] - b[0], a[1] - b[1]) for a in corners for b in corners
        )
        assert dom.diameter == pytest.approx(expect, rel=1e-12)
        assert dom.diameter == pytest.approx(brute, rel=1e-12)


def test_boundary_faces_square():
    dom = build_domain("square", 4)
    assert len(dom.boundary_faces) == 16
    assert dom.count_boundary_faces().sum() == 16
    corner = dom.index_of(0, 0)
    assert dom.count_boundary_faces()[corner] == 2


def test_face_labels():
    dom = build_domain("square", 3, labels={"left": "neumann"})
    n_left = sum(
        1
        for r, (k, d) in enumerate(dom.boundary_faces)
        if dom.face_labels[r] == "neumann"
    )
    assert n_left == 3
    assert dom.count_boundary_faces("neumann").sum() == 3
    with pytest.raises(ValueError):
        build_domain("square", 3, labels={"left": "clamped"})
    with pytest.raises(ValueError):
        build_domain("square", 3, labels={"middle": "neumann"})


def test_interior_vertices():
    dom = build_domain("square", 3)
    assert dom.interior_vertices.shape == (4, 2)
    assert build_domain("square", 2).interior_vertices.shape == (1, 2)


def test_build_rejections():
    with pytest.raises(ValueError):
        build_domain("square", 1)
    with pytest.raises(ValueError):
        build_domain("lshape", 5)
    with pytest.raises(ValueError):
        build_domain("blob", 4)
    with pytest.raises(EmptyDomainError):
        GridDomain([], 0.5)


def test_cell_centers():
    dom = build_domain("square", 2)
    assert np.allclose(
        dom.cell_centers(),
        [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]],
    )


def test_field_arithmetic_and_space_guard():
    dom = build_domain("square", 3)
    u = dom.cell_space.field(np.arange(9.0))
    v = dom.cell_space.ones()
    w = u + v * 2.0 - u
    assert np.allclose(w.values, 2.0)
    assert u.inner(v) == pytest.approx((dom.h**2) * np.arange(9.0).sum())
    other = build_domain("square", 4)
    with pytest.raises(SpaceMismatchError):
        u + other.cell_space.ones()
    with pytest.raises(SpaceMismatchError):
        u.inner(other.cell_space.ones())


def test_weighted_norm_is_scaled_euclidean():
    dom = build_domain("square", 5)
    vals = np.random.default_rng(3).normal(size=dom.n_cells)
    assert dom.cell_space.norm(vals) == pytest.approx(
        dom.h * np.linalg.norm(vals)
    )


def test_domain_json_round_trip(tmp_path):
    dom = build_domain("lshape", 4, labels={"top": "neumann"})
    path = tmp_path / "dom.json"
    save_domain(dom, path)
    back = load_domain(path)
    assert np.array_equal(back.cells, dom.cells)
    assert back.h == dom.h
    assert list(back.face_labels) == list(dom.face_labels)
    data = json.loads(path.read_text())
    assert set(data) == {"h", "cells", "labels"}


def old_domain_to_dict(domain):
    """The per-element dict the .tolist() one replaced."""
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


def old_domain_file(domain):
    """json's indent encoder: the bytes save_domain wrote before."""
    return json.dumps(old_domain_to_dict(domain), indent=1) + "\n"


DOMAIN_FILES = {
    **{f"{shape}{n}": (lambda shape=shape, n=n: build_domain(shape, n))
       for shape in ("square", "lshape", "annulus") for n in (4, 16, 64)},
    "rectangle7w3": lambda: build_domain("rectangle", 7, width=3.0),
    "rectangle10w1.5h0.7": lambda: build_domain("rectangle", 10, width=1.5, height=0.7),
    "lshape8_sides": lambda: build_domain("lshape", 8, labels={"top": "neumann",
                                                                "left": "neumann"}),
    "annulus8_rules": lambda: build_domain("annulus", 8, labels=[
        ((0, 0), "-x", "neumann"), ((2, 3), "+x", "neumann"), ((7, 2), "+x", "neumann")]),
    "two_piece_negative": lambda: golden_domains()["two_piece_negative"],
}


@pytest.mark.parametrize("name", list(DOMAIN_FILES))
def test_domain_file_bytes_match_json_indent(tmp_path, name):
    dom = DOMAIN_FILES[name]()
    expect = old_domain_file(dom)
    assert domain_to_dict(dom) == old_domain_to_dict(dom)
    assert json.dumps(domain_to_dict(dom), indent=1) + "\n" == expect
    assert domain_json(dom) == expect
    path = tmp_path / "dom.json"
    save_domain(dom, path)
    assert path.read_bytes() == expect.encode()
    back = load_domain(path)
    save_domain(back, path)
    assert path.read_bytes() == expect.encode()
    assert back.boundary_faces == dom.boundary_faces
    assert list(back.face_labels) == list(dom.face_labels)


def old_shape_cells(shape, n, width=1.0, height=1.0):
    """The list comprehensions build_domain used before its index arrays."""
    if shape == "square":
        return [(i, j) for j in range(n) for i in range(n)]
    if shape == "rectangle":
        nx, ny = round(width * n), round(height * n)
        return [(i, j) for j in range(ny) for i in range(nx)]
    if shape == "lshape":
        half = n // 2
        return [(i, j) for j in range(n) for i in range(n)
                if not (i >= half and j >= half)]
    hole = n // 4
    start = (n - hole) // 2
    return [(i, j) for j in range(n) for i in range(n)
            if not (start <= i < start + hole and start <= j < start + hole)]


@pytest.mark.parametrize("shape,n,width,height", [
    (shape, n, 1.0, 1.0) for shape in ("square", "annulus") for n in (4, 5, 8, 9, 17, 32)
] + [("lshape", n, 1.0, 1.0) for n in (2, 4, 8, 18)] + [
    ("square", 2, 1.0, 1.0), ("rectangle", 5, 3.0, 1.0), ("rectangle", 8, 0.5, 1.25),
    ("rectangle", 7, 1.0, 0.3), ("rectangle", 2, 0.4, 2.0),
])
def test_array_built_shapes_equal_the_listed_cells(shape, n, width, height):
    dom = build_domain(shape, n, width=width, height=height)
    old = old_shape_cells(shape, n, width, height)
    assert dom.cells.dtype == np.int64
    assert dom.cells.tolist() == [list(c) for c in old]
    assert np.array_equal(GridDomain(old, 1 / n).cells, dom.cells)


@pytest.mark.parametrize("args,kwargs,message", [
    (("lshape", 5), {}, "lshape needs even n"),
    (("lshape", 9), {}, "lshape needs even n"),
    (("annulus", 3), {}, "annulus needs n >= 4"),
    (("rectangle", 4), {"width": 0.1}, "rectangle dimensions must cover at least one cell"),
    (("rectangle", 4), {"height": 0.0}, "rectangle dimensions must cover at least one cell"),
    (("blob", 4), {}, "unknown shape 'blob'"),
    (("square", 1), {}, "n must be at least 2"),
])
def test_build_errors_are_unchanged(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        build_domain(*args, **kwargs)
    assert str(err.value) == message


def test_grid_domain_accepts_any_iterable_of_pairs():
    listed = [(i, j) for j in range(3) for i in range(4)]
    expect = build_domain("rectangle", 4, height=0.75).cells
    for cells in (listed, (c for c in listed), np.array(listed),
                  np.array(listed, dtype=np.int32), np.array(listed, dtype=float),
                  listed[::-1] + listed[:5]):
        assert np.array_equal(GridDomain(cells, 0.25).cells, expect)
    assert GridDomain(np.array([[2, 1], [2, 1], [0, 0]]), 0.5).n_cells == 2


@pytest.mark.parametrize("cells,named", [
    ([(0.5, 0), (1, 0)], "[0.5, 0.0]"),
    ([(0, 0), (1, 2.25)], "[1.0, 2.25]"),
    (np.array([[0, 0], [np.nan, 1]]), "[nan, 1.0]"),
    ([("0", "1")], "['0', '1']"),
])
def test_non_integer_cells_are_refused(cells, named):
    with pytest.raises(ValueError, match=f"cell {re.escape(named)} is not a pair"):
        GridDomain(cells, 0.5)


def test_cell_queries_refuse_non_integer_coordinates():
    dom = build_domain("square", 4)
    assert dom.contains(1.0, 0) and dom.index_of(np.int32(1), 0.0) == 1
    assert not dom.contains(9, 9)
    for i, j in ((0.5, 0), (1.9, 0), (0, "1"), (float("nan"), 0), (2**63, 0)):
        with pytest.raises(ValueError, match="is not a pair|beyond the int64"):
            dom.contains(i, j)
        with pytest.raises(ValueError, match="is not a pair|beyond the int64"):
            dom.index_of(i, j)


@pytest.mark.parametrize("cells", [
    np.array([[2**63, 0]], dtype=np.uint64),  # a cast to int64 would wrap
    [(10**20, 0)],
])
def test_cells_beyond_int64_are_refused(cells):
    with pytest.raises(ValueError, match="lies beyond the int64 range"):
        GridDomain(cells, 0.5)


def test_loaded_non_integer_cells_are_refused(tmp_path):
    path = tmp_path / "frac.json"
    path.write_text('{"h": 0.5, "cells": [[0.5, 0], [1, 0]]}')
    with pytest.raises(ValueError, match=re.escape("cell [0.5, 0.0] is not a pair")):
        load_domain(path)
    path.write_text('{"h": 0.5, "cells": [[0, 0], [1, 0]], "labels": '
                    '[{"cell": [0.5, 0], "dir": "-x", "bc": "neumann"}]}')
    with pytest.raises(ValueError, match=re.escape("cell [0.5, 0] is not a pair")):
        load_domain(path)
    whole = GridDomain([(0, 0), (1.0, 0)], 0.5, [((1.0, 0), "+x", "neumann")])
    assert whole.cells.tolist() == [[0, 0], [1, 0]]
    assert whole.count_boundary_faces("neumann").tolist() == [0, 1]


@pytest.mark.parametrize("h", [np.inf, np.nan, 0.0, -0.5])
def test_a_cell_width_that_is_not_positive_and_finite_is_refused(h):
    with pytest.raises(ValueError, match="cell width h must be positive and finite"):
        GridDomain([(0, 0), (1, 0)], h)


@pytest.mark.parametrize("h", ["Infinity", "1e400", "NaN"])
def test_loaded_non_finite_cell_widths_are_refused(tmp_path, h):
    path = tmp_path / "wide.json"
    path.write_text('{"h": %s, "cells": [[0, 0], [1, 0]]}' % h)
    with pytest.raises(ValueError, match="cell width h must be positive and finite"):
        load_domain(path)


def test_non_finite_rectangle_sides_are_refused():
    for width, height in ((np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            build_domain("rectangle", 8, width=width, height=height)


def test_boolean_cells_are_refused(tmp_path):
    # a boolean among integers would load as 0 or 1
    path = tmp_path / "bool.json"
    path.write_text('{"h": 0.5, "cells": [[true, false], [1, 1]]}')
    with pytest.raises(ValueError, match="'cells' holds a boolean"):
        load_domain(path)
    path.write_text('{"h": 0.5, "cells": [[0, 0], [1, 0]], "labels": '
                    '[{"cell": [1, false], "dir": "+x", "bc": "neumann"}]}')
    with pytest.raises(ValueError, match=re.escape("cell [1, False] is not a pair")):
        load_domain(path)
    with pytest.raises(ValueError, match="is not a pair of integers"):
        GridDomain(np.array([[True, False]]), 0.5)


@pytest.mark.parametrize("rules,message", [
    ([{"dir": "-x", "bc": "neumann"}], "lacks 'cell'"),
    ([{"cell": [0, 0], "bc": "neumann"}], "lacks 'dir'"),
    ([{"cell": [0, 0], "dir": "-x"}], "label rule {'cell': [0, 0], 'dir': '-x'} lacks 'bc'"),
    ([((0, 0), "-x")], "is not (cell, dir, bc)"),
    ([((0, 0), "-x", "neumann", 1)], "is not (cell, dir, bc)"),
    ([7], "label rule 7 is not (cell, dir, bc)"),
    ([((0,), "-x", "neumann")], "cell (0,) is not a pair of integers"),
    ("left", "labels 'left' are neither sides nor a list of rules"),
])
def test_malformed_label_rules_name_the_rule(rules, message):
    with pytest.raises(ValueError) as err:
        GridDomain([(0, 0), (1, 0)], 0.5, rules)
    assert message in str(err.value)


@pytest.mark.parametrize("rule,message", [
    (((0, 0), "+z", "neumann"), "label rule (0, 0):+z is not a boundary face"),
    (((0, 0), "+x", "neumann"), "label rule (0, 0):+x is not a boundary face"),
    (((9, 9), "-x", "neumann"), "label rule (9, 9):-x is not a boundary face"),
    (((0, 0), "-x", "robin"),
     "boundary label must be 'dirichlet' or 'neumann', got 'robin'"),
])
def test_list_label_rules_are_validated(rule, message):
    with pytest.raises(ValueError) as err:
        GridDomain([(0, 0), (1, 0)], 0.5, [rule])
    assert str(err.value) == message


def test_later_label_rule_wins():
    dom = GridDomain([(0, 0), (1, 0)], 0.5, [
        ((0, 0), "-x", "neumann"), ((0, 0), "-x", "dirichlet"),
        ((1, 0), "+x", "dirichlet"), ((1, 0), "+x", "neumann"),
    ])
    assert dom.boundary_faces[0] == (0, "-x") and dom.boundary_faces[3] == (1, "+x")
    assert list(dom.face_labels) == ["dirichlet"] * 3 + ["neumann"] + ["dirichlet"] * 2


def test_field_csv_reader_refuses_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,value\n0,0,1\n")
    with pytest.raises(ValueError, match="unexpected field CSV header"):
        read_field_csv(path)
    path.write_text("i,j,x,y,value\n0,0,0.5,0.5,1\n1,0,1.5,0.5\n")
    with pytest.raises(ValueError):
        read_field_csv(path)
    path.write_text("i,j,x,y,value\n\n")
    cells, centers, values = read_field_csv(path)
    assert cells.shape == (0, 2) and centers.shape == (0, 2) and values.shape == (0,)


def test_field_csv_round_trip_is_bitwise(tmp_path):
    dom = build_domain("annulus", 8)
    rng = np.random.default_rng(11)
    field = Field(dom.cell_space, rng.normal(size=dom.n_cells))
    path = tmp_path / "field.csv"
    write_field_csv(dom, field, path)
    cells, centers, values = read_field_csv(path)
    assert np.array_equal(cells, dom.cells)
    assert np.array_equal(values, field.values)  # 17 sig digits: exact
    assert np.allclose(centers, dom.cell_centers())
    bad = Field(dom.ring_space(1), np.zeros(dom.ring_cells(1).size))
    with pytest.raises(SpaceMismatchError):
        write_field_csv(dom, bad, path)


def old_write_field_csv(domain, field, path):
    """The per-row writer the one-pass writer replaced."""
    centers = domain.cell_centers()
    with open(path, "w") as fh:
        fh.write("i,j,x,y,value\n")
        for k, (i, j) in enumerate(domain.cells):
            fh.write(
                f"{i},{j},{centers[k, 0]:.17g},{centers[k, 1]:.17g},"
                f"{field.values[k]:.17g}\n"
            )


CSV_DOMAINS = {
    "square16": lambda: build_domain("square", 16),
    "lshape32": lambda: build_domain("lshape", 32),
    "annulus32": lambda: build_domain("annulus", 32),
    "rectangle7w3": lambda: build_domain("rectangle", 7, width=3.0),
    "two_piece_negative": lambda: golden_domains()["two_piece_negative"],
}


@pytest.mark.parametrize("name", sorted(CSV_DOMAINS))
def test_field_csv_bytes_match_the_per_row_writer(tmp_path, name):
    dom = CSV_DOMAINS[name]()
    special = [0.0, -0.0, 1.0, 1e-300, -1e300, 5e-324, 0.1, -2.5, 1e300, -5e-324,
               2.0**53, 1e16, 1e17, 1 / 3, 2.2250738585072014e-308, -7.0]
    vals = np.random.default_rng(len(name)).normal(size=dom.n_cells)
    vals[: len(special)] = special
    vals[len(special)::7] = np.round(vals[len(special)::7])  # integral floats
    field = Field(dom.cell_space, vals)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_field_csv(dom, field, new)
    old_write_field_csv(dom, field, old)
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_text().splitlines()
    assert len(lines) == dom.n_cells + 1
    assert lines[2].endswith(",-0")  # the sign of -0.0 survives
    _, centers, values = read_field_csv(new)
    assert np.array_equal(values, vals)
    assert np.array_equal(centers, dom.cell_centers())


def test_ring_space_dims():
    dom = build_domain("square", 6)
    assert dom.ring_space(0).dim == 36
    assert dom.ring_space(1).dim == 16
    assert dom.ring_space(2).dim == 4
    with pytest.raises(ValueError):
        dom.ring_space(3)


@pytest.mark.parametrize("shape,n", [
    (shape, n) for shape in ("square", "lshape", "annulus") for n in (8, 64, 256)
] + [("two_holes", 7)])
def test_diameter_matches_convex_hull(shape, n):
    from scipy.spatial import ConvexHull

    if shape == "two_holes":
        dom = GridDomain([(i, j) for j in range(n) for i in range(n)
                          if (i, j) not in ((2, 2), (4, 4))], 1 / n)
    else:
        dom = build_domain(shape, n)
    corners = np.unique(np.concatenate(
        [dom.cells + s for s in ((0, 0), (1, 0), (0, 1), (1, 1))]
    ), axis=0) * dom.h
    hull = corners[ConvexHull(corners).vertices]
    diff = hull[:, None, :] - hull[None, :, :]
    expect = np.sqrt((diff**2).sum(axis=2)).max()
    assert dom.diameter == pytest.approx(expect, rel=1e-14)


# -- derived tables ------------------------------------------------------------

def eager_label_pieces(mask):
    # the constructor's labelling before the pieces were derived on first use
    flat = mask.ravel()
    start = flat.copy()
    start[1:] &= ~flat[:-1]
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
    return (np.cumsum(first) - 1)[root[run[flat]]], int(first.sum())


def eager_face_labels(dom, rules):
    # the constructor's label resolution, for rules it accepts
    labels = np.array(["dirichlet"] * len(dom.boundary_faces), dtype=object)
    if rules is None:
        return labels
    sides_of = {"left": ("-x",), "right": ("+x",), "bottom": ("-y",), "top": ("+y",),
                "all": DIRECTIONS}
    if isinstance(rules, dict):
        sides = np.array(DIRECTIONS)[np.nonzero(dom.neighbors < 0)[1]]
        for side, bc in rules.items():
            labels[np.isin(sides, sides_of[side])] = bc
        return labels
    rows = np.cumsum(dom.neighbors < 0) - 1
    for cell, d, bc in rules:
        labels[rows[4 * dom.index_of(*cell) + DIRECTIONS.index(d)]] = bc
    return labels


def eager_tables(dom, rules):
    missing = dom.neighbors < 0
    owners, axes = np.nonzero(~missing[:, [0, 2]])
    lo = dom.cells.min(axis=0) - 1  # a False border around the mask
    mask = np.zeros(tuple(dom.cells.max(axis=0) - lo + 2)[::-1], dtype=bool)
    mask[dom.cells[:, 1] - lo[1], dom.cells[:, 0] - lo[0]] = True
    pieces, count = eager_label_pieces(mask)
    return {
        "boundary_faces": [(k, DIRECTIONS[d]) for k, d in np.argwhere(missing).tolist()],
        "face_axes": axes,
        "face_cells": np.column_stack([owners, dom.neighbors[owners, 2 * axes]]),
        "component_labels": pieces,
        "n_components": count,
        "face_labels": eager_face_labels(dom, rules),
    }


def label_rule_sets(dom):
    faces = GridDomain(dom.cells, dom.h).boundary_faces  # unlabelled
    cells = dom.cells.tolist()
    listed = [(cells[k], d, "neumann") for k, d in faces[::3]]
    listed += [(cells[k], d, "dirichlet") for k, d in faces[::6]]  # later rules win
    return [None, {"left": "neumann"}, {"all": "neumann", "top": "dirichlet"}, listed]


DERIVED_CASES = {**golden_domains(), **{
    f"{shape}{n}": build_domain(shape, n)
    for shape in ("square", "lshape", "annulus") for n in (8, 16, 32)}}


@pytest.mark.parametrize("name", sorted(DERIVED_CASES))
def test_derived_tables_equal_the_eager_formulas(name):
    base = DERIVED_CASES[name]
    for rules in label_rule_sets(base):
        dom = GridDomain(base.cells, base.h, rules)
        for key, want in eager_tables(dom, rules).items():
            got = getattr(dom, key)
            assert type(got) is type(want), (key, rules)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), (key, rules)
            else:
                assert got == want, (key, rules)


def test_a_dirichlet_solve_derives_no_faces_or_pieces():
    dom = build_domain("square", 16)
    solve_zoo("d_d", dom, dom.cell_space.ones())
    derived = {"boundary_faces", "face_labels", "face_cells", "face_axes",
               "component_labels", "n_components"}
    assert not derived & set(vars(dom))


@pytest.mark.parametrize("rule", [
    {"cell": [1, 1], "dir": "-x", "bc": "neumann"},  # not a boundary face
    {"cell": [0, 0], "dir": "-x", "bc": "robin"},
])
def test_a_bad_label_rule_is_refused_at_construction(tmp_path, rule):
    cells = [[i, j] for j in range(3) for i in range(3)]
    with pytest.raises(ValueError):
        GridDomain(cells, 1 / 3, labels=[rule])
    path = tmp_path / "dom.json"
    path.write_text(json.dumps({"h": 1 / 3, "cells": cells, "labels": [rule]}))
    with pytest.raises(ValueError):
        load_domain(path)
