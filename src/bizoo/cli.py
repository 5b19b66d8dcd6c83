"""Command-line surface: domain files, solves, reports, and the check suite."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import (
    BizooError,
    CompatibilityError,
    ExpressionError,
    ForbiddenCompositionError,
)
from .expressions import GRAMMAR_HELP, Expression
from .grid import (
    Field,
    build_domain,
    domain_json,
    load_domain,
    save_domain,
    write_field_csv,
)
from .operators import OperatorCatalog
from .pairs import helmholtz_decompose, make_pair
from .studies import MANUFACTURED, constants_audit, run_check, run_convergence
from .zoo import _BY_NAME, classify_zoo, solve_zoo

_LEVELS_ALLOWED = (8, 16, 32, 64, 128)

# built by the first main() call and reused for the rest of the process;
# not at import, which a one-shot process would pay for before its call
_PARSER = None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        raise SystemExit(64)


def _add_domain_flags(sub, with_labels=False):
    sub.add_argument("--domain", metavar="FILE",
                     help="domain JSON file; overrides --shape/--n")
    sub.add_argument("--shape", default="square",
                     choices=("square", "rectangle", "lshape", "annulus"))
    sub.add_argument("--n", type=int, default=16,
                     help="cells per unit length (default 16)")
    sub.add_argument("--width", type=float, default=1.0)
    sub.add_argument("--height", type=float, default=1.0)
    if with_labels:
        sub.add_argument("--labels", default=None,
                         help="side labels, e.g. left=dirichlet,top=neumann")


def _parse_labels(args):
    """The --labels sides as a dict, None without them or with --domain."""
    if args.domain or not args.labels:
        return None
    labels = {}
    for part in args.labels.split(","):
        side, _, bc = part.partition("=")
        if not bc:
            raise _UsageError(f"label {part!r} is not side=bc")
        labels[side.strip()] = bc.strip()
    return labels


def _domain_from_args(args, labels=None):
    """The --domain file, else the --shape grid with parsed `labels`."""
    if args.domain:
        return load_domain(args.domain)
    return build_domain(args.shape, args.n, labels=labels,
                        width=args.width, height=args.height)


def _emit(doc: dict, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bizoo",
                     description="Laplacian compositions on masked grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_domain = sub.add_parser("domain", help="domain file utilities")
    dsub = p_domain.add_subparsers(dest="domain_command", required=True)
    p_make = dsub.add_parser("make", help="expand a shape shortcut to JSON")
    _add_domain_flags(p_make, with_labels=True)
    p_make.add_argument("--out", metavar="FILE", help="write instead of print")

    p_solve = sub.add_parser("solve", help="solve one composition")
    p_solve.add_argument("--problem", required=True,
                         choices=sorted(_BY_NAME))
    p_solve.add_argument("--rhs", required=True, metavar="EXPR")
    _add_domain_flags(p_solve, with_labels=True)
    p_solve.add_argument("--out", metavar="FILE", help="report JSON path")
    p_solve.add_argument("--dump", metavar="FILE", help="solution CSV path")

    p_zoo = sub.add_parser("zoo", help="composition catalogue")
    zsub = p_zoo.add_subparsers(dest="zoo_command", required=True)
    zsub.add_parser("list", help="print all 18 composition rows")

    p_const = sub.add_parser("constants", help="gradient-pair constants audit")
    _add_domain_flags(p_const)

    p_helm = sub.add_parser("helmholtz", help="edge-field decomposition")
    _add_domain_flags(p_helm)
    p_helm.add_argument("--field", required=True, metavar="EXPR,EXPR",
                        help="x and y face components")

    p_conv = sub.add_parser("convergence", help="manufactured-solution study")
    p_conv.add_argument("--manufactured", required=True,
                        choices=sorted(MANUFACTURED))
    p_conv.add_argument("--problem", default=None,
                        help="override the case's canonical problem")
    p_conv.add_argument("--levels", default="8,16,32",
                        help="comma-separated grid sizes from {8,16,32,64,128}")

    p_check = sub.add_parser("check", help="run the full invariant suite")
    p_check.add_argument("--verbose", action="store_true")

    return parser


def _parser() -> _Parser:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def _cmd_domain_make(args) -> int:
    domain = _domain_from_args(args, _parse_labels(args))
    if args.out:
        save_domain(domain, args.out)
    else:
        sys.stdout.write(domain_json(domain))
    return 0


def _cmd_solve(args) -> int:
    # usage errors first, then a forbidden ordering, which the composition
    # alone decides, and only then the domain and the data
    labels = _parse_labels(args)
    rhs = Expression(args.rhs)
    _BY_NAME[args.problem].refuse_if_forbidden()
    domain = _domain_from_args(args, labels)
    f = rhs.on_domain(domain)
    report = solve_zoo(args.problem, domain, f)
    _emit(report.to_dict(), args.out)
    if args.dump:
        write_field_csv(domain, report.solution, args.dump)
    return 0


def _cmd_zoo_list(_args) -> int:
    rows = classify_zoo()
    header = (f"{'label':<24} {'composition':<30} {'data space':<18} "
              f"{'status':<10} {'adjoint':<16} notes")
    print(header)
    print("-" * len(header))
    for row in rows:
        alias = f" ({row['aliases'][0]})" if row["aliases"] else ""
        notes = row["reason"] if row["status"] == "forbidden" else \
            "; ".join(row["constraints"])
        print(
            f"{row['label'] + alias:<24} {row['composition']:<30} "
            f"{row['data_space']:<18} {row['status']:<10} {row['adjoint']:<16} {notes}"
        )
    well = sum(r["status"] == "well-posed" for r in rows)
    print(f"{len(rows)} compositions, {well} well posed")
    return 0


def _cmd_constants(args) -> int:
    domain = _domain_from_args(args)
    audit = constants_audit(domain)
    _emit({k: (float(v) if isinstance(v, (float, np.floating)) else v)
           for k, v in audit.items()}, None)
    return 0


def _face_centers(domain):
    cells = domain.cells
    owners = domain.face_cells[:, 0]
    axes = domain.face_axes
    i = cells[owners, 0].astype(float)
    j = cells[owners, 1].astype(float)
    h = domain.h
    x = np.where(axes == 0, (i + 1.0) * h, (i + 0.5) * h)
    y = np.where(axes == 0, (j + 0.5) * h, (j + 1.0) * h)
    return x, y


def _cmd_helmholtz(args) -> int:
    parts = args.field.split(",")
    if len(parts) != 2:
        raise _UsageError("--field needs exactly two comma-separated expressions")
    domain = _domain_from_args(args)
    catalog = OperatorCatalog(domain)
    ex, ey = Expression(parts[0]), Expression(parts[1])
    x, y = _face_centers(domain)
    vals = np.where(domain.face_axes == 0, ex(x, y), ey(x, y))
    vals = np.broadcast_to(np.asarray(vals, dtype=float), x.shape).copy()
    g = Field(domain.edge_space, vals)
    grad_pair = make_pair(catalog.gradient)
    curl_pair = make_pair(catalog.curl)
    split = helmholtz_decompose(grad_pair, curl_pair, g)
    _emit(
        {
            "dims": split.dims,
            "norms": {
                "input": g.norm(),
                "gradient_part": split.gradient_part.norm(),
                "cohomology_part": split.cohomology_part.norm(),
                "curl_part": split.curl_part.norm(),
            },
            "reconstruction_error": split.reconstruction_error(),
        },
        None,
    )
    return 0


def _cmd_convergence(args) -> int:
    try:
        levels = tuple(int(t) for t in args.levels.split(","))
    except ValueError:
        raise _UsageError(f"bad --levels {args.levels!r}") from None
    bad = [n for n in levels if n not in _LEVELS_ALLOWED]
    if bad or not levels:
        raise _UsageError(f"levels must come from {_LEVELS_ALLOWED}")
    case = MANUFACTURED[args.manufactured]
    if args.problem and args.problem != case.problem:
        case = dataclasses.replace(case, problem=args.problem)
    table = run_convergence(case, ns=levels)
    _emit(table.to_dict(), None)
    return 0


def _cmd_check(args) -> int:
    ok, lines = run_check(verbose=args.verbose)
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "domain":
            return _cmd_domain_make(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "zoo":
            return _cmd_zoo_list(args)
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "helmholtz":
            return _cmd_helmholtz(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_check(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except _UsageError as exc:
        print(f"bizoo: error: {exc}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        return 64
    except ExpressionError as exc:
        where = f" at byte {exc.position}" if exc.position is not None else ""
        print(f"bizoo: expression error{where}: {exc}", file=sys.stderr)
        print(GRAMMAR_HELP, file=sys.stderr)
        return 64
    except ForbiddenCompositionError as exc:
        print(f"bizoo: forbidden composition: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"bizoo: compatibility error: {exc}", file=sys.stderr)
        return 2
    except BizooError as exc:
        print(f"bizoo: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"bizoo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
