"""Regenerate the ROADMAP baseline rows that the workloads cover.

    python3 bench/baseline.py [--sizes 32,64] [--seed 0]

Prints markdown: solve_zoo time and iterations for d_d, f_c, f_f and d_f
on the square with random data, the CLI exit codes of `under` and `over`
on smooth data at n = 32, and the build and per-operator assembly times of
the n = 256 annulus.  n = 128 is accepted but slow: d_f there runs into
its iteration budget for minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from tracer import CATALOG_KEYS, Tracer, layer_metrics  # noqa: E402


def main(argv=None):
    import bizoo
    from bizoo.cli import main as cli_main
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="32,64")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [int(t) for t in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)

    print("| what (square) | " + " | ".join(f"n={n}" for n in sizes) + " |")
    print("|---|" + "---|" * len(sizes))
    catalogs = {n: bizoo.OperatorCatalog(bizoo.build_domain("square", n)) for n in sizes}
    for label in ("d_d", "f_c", "f_f", "d_f"):
        cells = []
        for n in sizes:
            catalog = catalogs[n]
            f = bizoo.Field(catalog.domain.cell_space, rng.standard_normal(n * n))
            start = time.perf_counter()
            try:
                report = bizoo.solve_zoo(label, catalog, f)
                cells.append(f"{1000 * (time.perf_counter() - start):.0f} ms / "
                             f"{report.iterations} it")
            except bizoo.BizooError as exc:
                cells.append(f"fails after {time.perf_counter() - start:.1f} s ({exc})")
        print(f"| `{label}` solve_zoo | " + " | ".join(cells) + " |")
    print()
    for label in ("under", "over"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["solve", "--problem", label, "--rhs",
                             "sin(pi*x)*sin(pi*y)", "--n", "32"])
        print(f"`{label}` on smooth data, CLI, n=32: exit {code}")

    tracer = Tracer()
    with tracer:
        catalog = bizoo.OperatorCatalog(bizoo.build_domain("annulus", 256))
        for key in CATALOG_KEYS:
            getattr(catalog, key)
    m = layer_metrics(tracer.spans, tracer.counts)
    parts = ", ".join(f"`{key}` {m[f'operators.assemble_s.{key}']:.2f} s"
                      for key in CATALOG_KEYS)
    print(f"n=256 annulus: build {m['grid.build_s']:.2f} s, catalog "
          f"{m['operators.assemble_s']:.2f} s ({parts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
