"""Every catalog operator's CSR arrays, pinned by SHA-256 on seven domains.

The digests in golden_operators.json were recorded from the per-cell
assembly loops this package used before its padded-index-image rewrite;
the vectorised assembly must reproduce them bit for bit (indptr, indices
as int64, data as float64, in stored order, no re-sorting).  The normal
products and the regularized operator (NORMAL_KEYS) were recorded later,
from weighted adjoints formed as diags(1/w_dom) @ M.T @ diags(w_cod);
`over`'s nested_normal and the stencil M it records were added when that
entry was.  A catalog key that raises on a domain records the exception
class instead.
"""

import hashlib
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from bizoo import GridDomain, OperatorCatalog, build_domain

GOLDEN = Path(__file__).with_name("golden_operators.json")

CATALOG_KEYS = (
    "gradient", "gradient_dirichlet", "laplacian_neumann",
    "laplacian_dirichlet", "laplacian_mixed", "interior_laplacian",
    "interior_biharmonic", "curl", "hessian", "hessian_zero_extension",
    "pad1", "pad2", "interior_normal", "biharmonic_normal",
)
# a dotted key is an attribute path: the stack B recorded on `regularized`
NORMAL_KEYS = (
    "hessian_normal", "hessian_dirichlet_normal", "regularized",
    "regularized.first_order", "nested_normal", "nested_normal.first_order",
)


def _two_piece_negative():
    # a 6x6 L-shape and a separate 5x5 block, all at negative coordinates
    ell = [
        (i, j) for j in range(-3, 3) for i in range(-8, -2)
        if not (i >= -5 and j >= 0)
    ]
    block = [(i, j) for j in range(-7, -2) for i in range(-1, 4)]
    return GridDomain(ell + block, 0.125)


def golden_domains():
    two_holes = [
        (i, j) for j in range(7) for i in range(7)
        if (i, j) not in ((2, 2), (4, 4))
    ]
    return {
        "square8": build_domain("square", 8),
        "lshape8": build_domain("lshape", 8),
        "annulus16": build_domain("annulus", 16),
        "rectangle6w2": build_domain("rectangle", 6, width=2.0),
        "two_holes7": GridDomain(two_holes, 1 / 7),
        "two_piece_negative": _two_piece_negative(),
        "square8_left_neumann": build_domain("square", 8,
                                             labels={"left": "neumann"}),
    }


def _sha(arr, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def operator_digests(domain) -> dict:
    catalog = OperatorCatalog(domain)
    out = {}
    for key in CATALOG_KEYS + NORMAL_KEYS:
        try:
            mat = reduce(getattr, key.split("."), catalog).matrix
        except Exception as exc:  # the raising class is part of the record
            out[key] = {"raises": type(exc).__name__}
            continue
        out[key] = {
            "shape": list(mat.shape),
            "indptr": _sha(mat.indptr, np.int64),
            "indices": _sha(mat.indices, np.int64),
            "data": _sha(mat.data, np.float64),
        }
    return out


@pytest.mark.parametrize("name", sorted(golden_domains()))
def test_catalog_operators_match_golden_digests(name):
    expected = json.loads(GOLDEN.read_text())[name]
    got = operator_digests(golden_domains()[name])
    assert sorted(got) == sorted(expected)
    for key in CATALOG_KEYS + NORMAL_KEYS:
        assert got[key] == expected[key], f"{name}: {key}"


def test_every_cached_catalog_entry_is_pinned_and_built_once():
    # the catalog's properties are its cached entries, plus free_laplacian,
    # derived on each access; every entry but the _constants kernel has a
    # digest above
    entries = {name for name, attr in vars(OperatorCatalog).items()
               if isinstance(attr, property)} - {"free_laplacian"}
    assert entries - {"_constants"} == {key.split(".")[0]
                                        for key in CATALOG_KEYS + NORMAL_KEYS}
    catalog = OperatorCatalog(build_domain("square", 8))
    for name in sorted(entries):
        first = getattr(catalog, name)
        keys = set(catalog._cache)
        assert name in keys
        assert getattr(catalog, name) is first
        assert set(catalog._cache) == keys
    catalog.free_laplacian
    assert set(catalog._cache) == entries
