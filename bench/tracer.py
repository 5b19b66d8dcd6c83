"""Outside-in span tracer for the bizoo package.

The tracer wraps public functions and methods of each package module (and
the private `_run_cg`, which every solver layer calls) and records one span
per call: name, tag, start, end, parent span and operation id.  Names a
module imported from another (`harmonic_defect` in `zoo`, `_run_cg` in
`zoo`, `laplace` and `pairs`) are rebound wherever they were imported, so
calls made inside the package are seen too.  Matrix-vector products are
too frequent for a span each; they are counted and timed in aggregate and
charged to the enclosing span as child time.

Spans stay in memory; the caller writes them out at the end.  A span's
self time is its duration minus the time covered by its child spans and by
the aggregated products it made (`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "expressions", "grid", "operators", "linalg", "laplace",
          "zoo", "pairs", "studies")

CATALOG_KEYS = (
    "gradient", "gradient_dirichlet", "laplacian_neumann", "laplacian_dirichlet",
    "laplacian_mixed", "interior_laplacian", "interior_biharmonic", "curl",
    "hessian", "hessian_zero_extension", "pad1", "pad2", "interior_normal",
    "biharmonic_normal",
)

# (module, attribute); "Class.attr" names a method or property
BOUNDARIES = {
    "cli": ("main",),
    "expressions": ("Expression.__init__", "Expression.__call__"),
    "grid": ("build_domain", "load_domain", "save_domain", "write_field_csv",
             "read_field_csv"),
    "operators": ("assemble_gradient", "assemble_laplacian",
                  "assemble_interior_laplacian", "assemble_interior_biharmonic",
                  "assemble_pad", "assemble_curl_pair", "assemble_hessian")
                 + tuple(f"OperatorCatalog.{k}" for k in CATALOG_KEYS),
    "linalg": ("_run_cg", "cg_solve", "deflated_cg_solve", "normal_cg_solve",
               "smallest_eigenpairs", "orthonormalize", "SparseOperator.adjoint",
               "SparseOperator.compose", "SparseOperator.__add__"),
    "laplace": ("harmonic_defect", "biharmonic_defect", "strip_norm",
                "normal_difference_norm", "mean_defect", "boundary_row_residual",
                "interior_residual_norm", "solve_laplace", "estimate_chain_check"),
    "zoo": ("solve_zoo", "solve_regularized", "solve_hessian",
            "_measure_constraint", "biharmonic_chain_check",
            "exchange_identity_check", "classify_zoo"),
    "pairs": ("make_pair", "best_constant", "project_range",
              "helmholtz_decompose", "reduced_solve", "DualPair.kernel_basis",
              "DualPair.normal", "DualPair.swapped"),
    "studies": ("run_convergence", "constants_audit", "run_check"),
}
MATVECS = ("SparseOperator.apply_raw", "SparseOperator.apply")

# span name -> per-layer metric holding its inclusive time
INCLUSIVE = {
    "cli.main": "cli.main_s",
    "expressions.Expression.__init__": "expressions.parse_s",
    "expressions.Expression.__call__": "expressions.eval_s",
    "grid.build_domain": "grid.build_s",
    "grid.load_domain": "grid.load_s",
    "grid.save_domain": "grid.save_s",
    "grid.write_field_csv": "grid.csv_write_s",
    "linalg.smallest_eigenpairs": "linalg.eig_s",
    "laplace.harmonic_defect": "laplace.harmonic_defect_s",
    "laplace.biharmonic_defect": "laplace.biharmonic_defect_s",
    "zoo._measure_constraint": "laplace.measure_s",
    "laplace.estimate_chain_check": "laplace.chain_check_s",
    "zoo.biharmonic_chain_check": "zoo.chain_check_s",
    "pairs.make_pair": "pairs.make_pair_s",
    "pairs.DualPair.kernel_basis": "pairs.kernel_s",
    "pairs.best_constant": "pairs.best_constant_s",
    "pairs.project_range": "pairs.project_range_s",
    "pairs.helmholtz_decompose": "pairs.helmholtz_s",
    "studies.run_convergence": "studies.convergence_s",
    "studies.constants_audit": "studies.constants_audit_s",
}
CALLS = {
    "laplace.harmonic_defect": "laplace.harmonic_defect_calls",
    "linalg.smallest_eigenpairs": "linalg.eig_calls",
}
SOLVABLE = ("f_c", "c_f", "f_f", "d_f", "n_f", "f_n", "n_n", "c_d", "f_d",
            "d_d", "n_d", "over", "under", "regularized", "hessian_neumann",
            "hessian_dirichlet")

# every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    [("linalg.matvecs", "count"), ("linalg.matvec_s", "s"),
     ("linalg.matvec_bytes", "bytes"), ("zoo.iterations", "count")]
    + [(name, "s") for name in INCLUSIVE.values()]
    + [(name, "count") for name in CALLS.values()]
    + [(f"zoo.solve_s.{label}", "s") for label in SOLVABLE]
    + [("grid.cells", "count"), ("operators.assemble_s", "s")]
    + [(f"operators.assemble_s.{key}", "s") for key in CATALOG_KEYS]
    + [("operators.nnz", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.overhead_s", "s")]
)

# span record fields
NAME, TAG, START, END, PARENT, OP, MATVEC_S = range(7)


class Tracer:
    """In-memory span recorder; one per traced phase of a run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.counts = {"linalg.matvecs": 0, "linalg.matvec_s": 0.0,
                       "linalg.matvec_bytes": 0, "zoo.iterations": 0,
                       "grid.cells": 0, "operators.nnz": 0}
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _span(self, name, fn, tag_of=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tag_of(args) if tag_of else None, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.op, 0.0]
            tracer.spans.append(rec)
            index = len(tracer.spans) - 1
            tracer._stack.append(index)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result, len(tracer.spans) > index + 1)
            return result

        return wrapper

    def _matvec(self, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(op, vec):
            start = time.perf_counter()
            result = fn(op, vec)
            took = time.perf_counter() - start
            counts["linalg.matvecs"] += 1
            counts["linalg.matvec_s"] += took
            rows, cols = op.matrix.shape
            counts["linalg.matvec_bytes"] += (
                12 * op.matrix.nnz + 4 * (rows + 1) + 8 * (rows + cols)
            )
            if tracer._stack:
                tracer.spans[tracer._stack[-1]][MATVEC_S] += took
            return result

        return wrapper

    # -- hooks that turn results into counts ---------------------------------

    def _count_iterations(self, report, _):
        self.counts["zoo.iterations"] += int(report.iterations)

    def _count_cells(self, domain, _):
        self.counts["grid.cells"] += int(domain.n_cells)

    def _count_nnz(self, op, assembled):
        # a catalog access that assembles calls into other boundaries; a
        # cache hit returns without a child span
        if assembled:
            self.counts["operators.nnz"] += int(op.matrix.nnz)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every boundary and rebind it wherever the package imported it."""
        modules = {layer: importlib.import_module(f"bizoo.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("bizoo")] + list(modules.values())
        for layer, names in BOUNDARIES.items():
            module = modules[layer]
            for attr in names:
                name = f"{layer}.{attr}"
                if "." in attr:
                    self._wrap_member(module, attr, name)
                    continue
                original = getattr(module, attr)
                wrapped = self._span(name, original, *self._hooks(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._rebind(ns, key, original, wrapped)
        for attr in MATVECS:
            cls_name, member = attr.split(".")
            cls = getattr(modules["linalg"], cls_name)
            original = cls.__dict__[member]
            self._rebind(cls, member, original, self._matvec(original))
        return self

    def _hooks(self, name):
        if name == "zoo.solve_zoo":
            return (lambda args: args[0] if isinstance(args[0], str) else args[0].label,
                    self._count_iterations)
        if name in ("grid.build_domain", "grid.load_domain"):
            return None, self._count_cells
        return None, None

    def _wrap_member(self, module, attr, name):
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[member]
        if isinstance(original, property):
            fget = self._span(name, original.fget, on_result=(
                self._count_nnz if member in CATALOG_KEYS else None))
            self._rebind(cls, member, original, property(fget, doc=original.__doc__))
        else:
            self._rebind(cls, member, original, self._span(name, original))

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time of each span: duration minus child spans and matvec time."""
    own = [s[END] - s[START] - s[MATVEC_S] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _has_ancestor(spans, idx, name):
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced phase, every PER_LAYER name present."""
    out = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER}
    out.update(counts)
    own = self_times(spans)
    out["linalg.self_s"] += out["linalg.matvec_s"]
    catalog_children = [0.0] * len(spans)
    for idx, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[idx]
        if name.startswith("operators.OperatorCatalog.") and s[PARENT] >= 0:
            catalog_children[s[PARENT]] += dur
        outermost = not _has_ancestor(spans, idx, name)
        if name in INCLUSIVE and outermost:
            out[INCLUSIVE[name]] += dur
        if name in CALLS:
            out[CALLS[name]] += 1
        if name == "zoo.solve_zoo" and outermost and s[TAG] in SOLVABLE:
            out[f"zoo.solve_s.{s[TAG]}"] += dur
    for idx, s in enumerate(spans):
        if s[NAME].startswith("operators.OperatorCatalog."):
            key = s[NAME].rsplit(".", 1)[1]
            took = s[END] - s[START] - catalog_children[idx]
            out[f"operators.assemble_s.{key}"] += took
            out["operators.assemble_s"] += took
    out["trace.spans"] = len(spans)
    return out
