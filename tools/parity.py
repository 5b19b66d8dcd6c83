"""Parity sweep: record every solve's observable outcome, or compare two records.

    python tools/parity.py sweep OUT.json [--src DIR]
    python tools/parity.py compare A.json B.json

`sweep` imports bizoo from DIR (by default this checkout's `src`), so the
same script records any tree.  For every zoo label and alias and every
`solve_laplace` kind, on the square, L-shape and annulus at n = 8, 16 and
32, it solves four data sets: smooth, seeded noise, in-range (in the
13-point stencil's range for a row whose data class asks for it, where
the domain has depth-2 cells, off the
Hessian's affine kernel for `hessian_neumann`, in the 5-point stencil's
range otherwise) and mean-free noise.  Each case runs on a fresh catalog
and again on one warm catalog per domain that has solved every case
before it, and records:

  * the report (`to_dict()` without `wall_time_ms`, or a Laplace report's
    fields) and the SHA-256 of the solution's (and stage's) bytes, or the
    refusal's class and message;
  * the catalog names of the banded factors the solve built, in order;
  * the names of the factors the catalog carries afterwards.

Each domain adds one `exchange_identity_check` on a fresh and on the warm
catalog.  The CLI cases run `bizoo solve` through `bizoo.cli.main` for
every label and alias on the three shapes at n = 8 and 16, with one smooth
right-hand side, plus two argument lists whose checks collide (a forbidden
label, and a bad expression, each with an odd L-shape n), and record the
exit code, stderr, the report without `wall_time_ms` and the SHA-256 of
the solution CSV.  `compare` prints the number of cases and every case
that differs, and exits 1 if any does; cases compare equal when their
canonical JSON texts are equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SHAPES = ("square", "lshape", "annulus")
LEVELS = (8, 16, 32)
DATA = ("smooth", "noise", "in-range", "mean-free")
CLI_LEVELS = (8, 16)
CLI_RHS = "exp(x)*cos(3*y)+x*y"
# the forbidden ordering and the expression error each meet a domain error
PRECEDENCE = {
    "forbidden": ["--problem", "d_n", "--rhs", "x", "--shape", "lshape", "--n", "7"],
    "expression": ["--problem", "d_d", "--rhs", "2**3", "--shape", "lshape", "--n", "7"],
}


def _digest(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def _data(catalog, which: str, data_space: str):
    """The cell values of one data set, assembled on `catalog`."""
    dom = catalog.domain
    rng = np.random.default_rng(dom.n_cells)
    x, y = dom.cell_centers().T
    if which == "smooth":
        return np.exp(x) * np.cos(3 * y) + x * y
    noise = rng.normal(size=dom.n_cells)
    if which == "noise":
        return noise
    if which == "mean-free":
        ones = np.ones(dom.n_cells)
        return noise - dom.cell_space.inner(noise, ones) / dom.cell_space.inner(ones, ones)
    if data_space == "L2_no_biharmonic" and dom.ring_cells(2).size:
        return catalog.interior_biharmonic.apply_raw(rng.normal(size=dom.ring_cells(2).size))
    if data_space == "L2_no_affine":
        for v in catalog.hessian_normal.kernel[0]:
            noise = noise - dom.cell_space.inner(v, noise) * v
        return noise
    return catalog.interior_laplacian.apply_raw(rng.normal(size=dom.ring_cells(1).size))


def _outcome(bz, catalog, run) -> dict:
    """run(catalog)'s report or refusal, the factors it built and the
    factors the catalog carries after it, all by catalog name."""
    built = []
    init = bz.linalg._BandedCholesky.__init__

    def counting(self, op, *args, **kwargs):
        built.append(op)
        init(self, op, *args, **kwargs)

    bz.linalg._BandedCholesky.__init__ = counting
    try:
        out = run(catalog)
    except Exception as exc:  # a refusal, or a fault the comparison should show
        out = {"refused": type(exc).__name__, "message": str(exc)}
    finally:
        bz.linalg._BandedCholesky.__init__ = init
    names = {id(op): name for name, op in catalog._cache.items()}
    out["built"] = [names.get(id(op), "?") for op in built]
    out["carried"] = sorted(names.get(id(op), "?") for op in catalog._factors)
    return out


def _zoo_run(bz, label, values):
    def run(catalog):
        rep = bz.solve_zoo(label, catalog, bz.Field(catalog.domain.cell_space, values))
        doc = rep.to_dict()
        del doc["wall_time_ms"]
        doc["solution"] = _digest(rep.solution.values)
        if rep.intermediate is not None:
            doc["intermediate"] = _digest(rep.intermediate.values)
        return doc
    return run


def _laplace_run(bz, kind, values):
    def run(catalog):
        rep = bz.solve_laplace(kind, catalog, bz.Field(catalog.domain.cell_space, values))
        return {"kind": rep.kind.value, "pde": rep.pde_residual_norm,
                "constraints": rep.constraint_norms,
                "compatibility_defect": rep.compatibility_defect,
                "discarded_ring_mass": rep.discarded_ring_mass,
                "iterations": rep.iterations, "solution": _digest(rep.solution.values)}
    return run


def _exchange_run(bz, values):
    def run(catalog):
        return bz.exchange_identity_check(catalog, bz.Field(catalog.domain.cell_space, values))
    return run


def _cli_outcome(cli, args, tmp: Path) -> dict:
    """`bizoo solve args`'s exit code, stderr, report and CSV digest."""
    report, dump = tmp / "report.json", tmp / "solution.csv"
    report.unlink(missing_ok=True)
    dump.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["solve", *args, "--out", str(report), "--dump", str(dump)])
    out = {"exit": code, "stderr": stderr.getvalue()}
    if report.exists():
        out["report"] = json.loads(report.read_text())
        del out["report"]["wall_time_ms"]
    if dump.exists():
        out["csv"] = hashlib.sha256(dump.read_bytes()).hexdigest()
    return out


def cli_sweep(bz) -> dict:
    cli = importlib.import_module(f"{bz.__name__}.cli")
    runs = {f"cli/{shape}/{n}/{label}":
            ["--problem", label, "--rhs", CLI_RHS, "--shape", shape, "--n", str(n)]
            for shape in SHAPES for n in CLI_LEVELS for label in bz.zoo._BY_NAME}
    runs |= {f"cli/precedence/{name}": args for name, args in PRECEDENCE.items()}
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _cli_outcome(cli, args, Path(tmp)) for key, args in runs.items()}


def sweep(bz) -> dict:
    cases = {}
    for shape in SHAPES:
        for n in LEVELS:
            domain = bz.build_domain(shape, n)
            source = bz.OperatorCatalog(domain)  # assembles the data only
            runs = []
            for which in DATA:
                for label, prob in bz.zoo._BY_NAME.items():
                    runs.append((f"zoo/{label}/{which}",
                                 _zoo_run(bz, label, _data(source, which, prob.data_space))))
                for kind in bz.LaplacianKind:
                    space = "L2_no_harmonic" if kind.value == "overdetermined" else "L2"
                    runs.append((f"laplace/{kind.value}/{which}",
                                 _laplace_run(bz, kind, _data(source, which, space))))
            runs.append(("exchange", _exchange_run(bz, _data(source, "in-range", "L2"))))
            for key, run in runs:
                cases[f"{shape}/{n}/fresh/{key}"] = _outcome(bz, bz.OperatorCatalog(domain), run)
            # after the fresh pass: a solve on another catalog empties this one
            warm = bz.OperatorCatalog(domain)
            for key, run in runs:
                cases[f"{shape}/{n}/warm/{key}"] = _outcome(bz, warm, run)
    return cases | cli_sweep(bz)


def compare(a: dict, b: dict) -> list:
    """Keys of the cases that differ or that only one record holds."""
    def text(case):
        return json.dumps(case, sort_keys=True)
    return sorted(key for key in a.keys() | b.keys()
                  if key not in a or key not in b or text(a[key]) != text(b[key]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", help="run the sweep and write its record")
    p_sweep.add_argument("out")
    p_sweep.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                         help="directory to import bizoo from")
    p_cmp = sub.add_parser("compare", help="compare two records")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sys.path.insert(0, args.src)
        import bizoo

        cases = sweep(bizoo)
        Path(args.out).write_text(json.dumps(cases, sort_keys=True, indent=0) + "\n")
        refused = sum("refused" in case for case in cases.values())
        print(f"{len(cases)} cases, {refused} refusals: {args.out}")
        return 0
    a, b = (json.loads(Path(path).read_text()) for path in (args.a, args.b))
    differ = compare(a, b)
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(a.keys() | b.keys())} cases, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
