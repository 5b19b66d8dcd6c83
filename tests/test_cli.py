import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bizoo
from bizoo import build_domain, cli, read_field_csv, solve_zoo
from bizoo.cli import main
from bizoo.expressions import Expression
from test_linalg import two_piece_mask
from test_zoo import GOLDEN_REPORTS


def test_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert "18 compositions, 13 well posed" in out
    assert "f_c (dirichlet)" in out
    assert "forbidden" in out
    assert "free * clamped" in out


def test_zoo_list_reproduces_recorded_output(capsys):
    """Recorded while every row was still written out by hand."""
    assert main(["zoo", "list"]) == 0
    assert capsys.readouterr().out == json.loads(GOLDEN_REPORTS.read_text())["zoo/list"]


def test_solve_writes_report_and_csv(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "solution.csv"
    rc = main([
        "solve", "--problem", "navier", "--rhs", "sin(pi*x)*sin(pi*y)",
        "--n", "8", "--out", str(report_path), "--dump", str(csv_path),
    ])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["problem"] == "d_d"
    assert doc["n"] == 8
    assert doc["residuals"]["pde"] <= 1e-8

    domain = build_domain("square", 8)
    f = Expression("sin(pi*x)*sin(pi*y)").on_domain(domain)
    expect = solve_zoo("navier", domain, f).solution
    cells, _, values = read_field_csv(csv_path)
    assert np.array_equal(cells, domain.cells)
    assert np.array_equal(values, expect.values)  # 17g round-trip is exact


def test_solve_report_to_stdout(capsys):
    rc = main(["solve", "--problem", "under", "--rhs", "x*y", "--n", "8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "under"
    assert "discarded_mass" in doc["residuals"]


def test_incompatible_data_exits_2(capsys):
    rc = main(["solve", "--problem", "neumann", "--rhs", "1", "--n", "8"])
    assert rc == 2
    assert "compatibility error" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["c_f", "c_d", "over"])
def test_harmonic_data_exits_2_at_n128(capsys, label):
    rc = main(["solve", "--problem", label, "--rhs", "sin(pi*x)*sin(pi*y)",
               "--n", "128"])
    assert rc == 2
    # over refuses on the 5-point range first, whose defect is a lower
    # bound of the 13-point one
    message = {
        "over": "outside the deep-interior range of relative size at least",
    }.get(label, "discrete-harmonic component of relative size")
    assert f"{message} 8.439e-01" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "d_d", "--rhs", "0/0"],
    ["solve", "--problem", "f_c", "--rhs", "0/0"],
    ["solve", "--problem", "d_d", "--rhs", "1/0"],
    ["solve", "--problem", "over", "--rhs", "1/0"],
    ["helmholtz", "--field", "0/0,x"],
])
def test_non_finite_data_exit_1(argv, capsys):
    # a report of NaNs would not be valid JSON
    assert main(argv + ["--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bizoo: error: ") and "data are not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "d_d", "--rhs", "0/0"],
    ["solve", "--problem", "d_d", "--rhs", "1/0"],
    ["solve", "--problem", "d_d", "--rhs", "exp(1000*x)"],
    ["helmholtz", "--field", "0/0,x"],
    ["solve", "--problem", "f_c", "--rhs", "0/0"],
    ["solve", "--problem", "over", "--rhs", "1/0"],
])
def test_non_finite_data_warn_nothing(argv, capsys):
    # numpy's division and overflow warnings would precede the error line
    assert main(argv + ["--n", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("bizoo: error: ")
    assert err.endswith("data are not finite\n")


def test_forbidden_composition_exits_3(capsys):
    rc = main(["solve", "--problem", "d_n", "--rhs", "x", "--n", "8"])
    assert rc == 3
    assert "forbidden composition" in capsys.readouterr().err


def test_unknown_problem_exits_64(capsys):
    rc = main(["solve", "--problem", "bogus", "--rhs", "x", "--n", "8"])
    assert rc == 64


def test_expression_error_exits_64_and_prints_grammar(capsys):
    rc = main(["solve", "--problem", "navier", "--rhs", "2**3", "--n", "8"])
    assert rc == 64
    err = capsys.readouterr().err
    assert "at byte 2" in err
    assert "factor" in err  # grammar reminder


def test_helmholtz_needs_two_expressions(capsys):
    rc = main(["helmholtz", "--field", "x", "--n", "8"])
    assert rc == 64
    assert "two comma-separated expressions" in capsys.readouterr().err


def test_helmholtz_split(capsys):
    rc = main(["helmholtz", "--field", "y,x", "--n", "8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"]["cohomology"] == 0
    assert doc["reconstruction_error"] <= 1e-10 * doc["norms"]["input"]


def test_convergence_levels_are_validated(capsys):
    rc = main(["convergence", "--manufactured", "poisson_dirichlet",
               "--levels", "7,16"])
    assert rc == 64
    assert "levels must come from" in capsys.readouterr().err


def test_convergence_runs(capsys):
    rc = main(["convergence", "--manufactured", "poisson_dirichlet",
               "--levels", "8,16"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == [8, 16]
    assert doc["l2_order"][0] > 1.9


def test_convergence_problem_override(capsys):
    # navier is d_d's alias, so the override reproduces the case's table
    args = ["convergence", "--manufactured", "navier_sine", "--levels", "8,16"]
    assert main(args) == 0
    canonical = json.loads(capsys.readouterr().out)
    assert main(args + ["--problem", "d_d"]) == 0
    assert json.loads(capsys.readouterr().out) == canonical
    assert main(args + ["--problem", "c_c"]) == 3


def test_domain_make_roundtrip(tmp_path, capsys):
    path = tmp_path / "lshape.json"
    assert main(["domain", "make", "--shape", "lshape", "--n", "8",
                 "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert set(doc) == {"h", "cells", "labels"}
    assert len(doc["cells"]) == build_domain("lshape", 8).n_cells

    rc = main(["solve", "--problem", "dirichlet", "--rhs", "1",
               "--domain", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == pytest.approx(1 / 8)


def test_domain_make_stdout(capsys):
    assert main(["domain", "make", "--n", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cells"]) == 16


@pytest.mark.parametrize("flags", [
    ["--shape", "annulus", "--n", "16"],
    ["--shape", "rectangle", "--n", "6", "--width", "2", "--labels", "top=neumann"],
])
def test_domain_make_prints_the_file_bytes(tmp_path, capsys, flags):
    path = tmp_path / "dom.json"
    assert main(["domain", "make", *flags, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["domain", "make", *flags]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


@pytest.mark.parametrize("text,message", [
    ('{"h": 0.5, "cells": [[0.5, 0], [1, 0]]}', "cell [0.5, 0.0] is not a pair"),
    ('{"h": 0.5, "cells": [[0, 0]], "labels": [{"cell": [0, 0], "dir": "-x"}]}',
     "lacks 'bc'"),
    ('{"h": 0.5, "cells": [[0, 0]], "labels": "left"}', "labels 'left' are neither"),
    ('{"h": 0.5, "cells": [[100000000000000000000, 0]]}',
     "cell [100000000000000000000, 0] lies beyond the int64 range"),
    ('{"h": 0.5, "cell": [[0, 0]]}', "domain file lacks 'cells'"),
    ('{"cells": [[0, 0]]}', "domain file lacks 'h'"),
    ('[]', "domain file is not a JSON object"),
    ('{"h": null, "cells": [[0, 0]]}', "domain file's 'h' is None, not a number"),
    ('{"h": 0.5, "cells": 5}', "domain file's 'cells' is not a list of pairs"),
    ('{"h": 0.5, "cells": [[0, 0]], "labels": 7}', "labels 7 are neither"),
])
def test_malformed_domain_files_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["solve", "--problem", "dirichlet", "--rhs", "1",
                 "--domain", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bizoo: error: ") and message in err


def test_solve_problem_choices():
    # the 27 labels --problem took before every row came from one table
    solve = cli._build_parser()._subparsers._group_actions[0].choices["solve"]
    problem = next(a for a in solve._actions if a.dest == "problem")
    assert sorted(problem.choices) == sorted([
        "f_c", "c_f", "f_f", "d_f", "n_f", "f_n", "n_n", "c_d", "f_d", "d_d",
        "n_d", "over", "under", "c_c", "d_c", "n_c", "c_n", "d_n",
        "dirichlet", "neumann", "navier", "riquier", "overdetermined",
        "underdetermined", "regularized", "hessian_neumann", "hessian_dirichlet",
    ])


def test_bad_labels_exit_64(capsys):
    rc = main(["domain", "make", "--n", "4", "--labels", "left"])
    assert rc == 64


def test_constants_audit_json(capsys):
    assert main(["constants", "--n", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_ok"] is True
    assert doc["c_f_h"] < doc["d_over_pi"]


@pytest.mark.parametrize("sizes", [(10, 2), (5, 5)], ids=["10+2", "5+5"])
def test_first_order_commands_on_a_two_piece_domain(sizes, tmp_path, capsys):
    dom = two_piece_mask(*sizes)
    path = tmp_path / "pieces.json"
    bizoo.save_domain(dom, path)
    assert main(["helmholtz", "--field", "y,x", "--domain", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"]["gradient"] == dom.n_cells - 2
    assert doc["dims"]["cohomology"] == 0
    assert doc["reconstruction_error"] <= 1e-10 * doc["norms"]["input"]
    assert main(["constants", "--domain", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_ok"] is True


def test_check_battery(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.startswith("ok: ") for line in lines)


@pytest.mark.parametrize("problem,code", [("over", 2), ("under", 0)])
def test_one_sided_smooth_data_verdicts(problem, code, capsys):
    # smooth data is far from the deep-interior range: over refuses it as
    # incompatible, under solves it
    rc = main(["solve", "--problem", problem, "--rhs", "exp(x)*cos(3*y)+x*y",
               "--n", "32"])
    assert rc == code
    captured = capsys.readouterr()
    if code == 2:
        assert "compatibility error" in captured.err
    else:
        assert json.loads(captured.out)["residuals"]["pde"] <= 1e-8


def test_hessian_dirichlet_survives_a_failed_clamped_reference(monkeypatch, capsys):
    argv = ["solve", "--problem", "hessian_dirichlet", "--rhs", "1", "--n", "8"]
    assert main(argv) == 0
    extras = json.loads(capsys.readouterr().out)["extras"]
    assert list(extras) == ["clamped_comparison_l2"]
    assert extras["clamped_comparison_l2"] > 0.0
    solve = bizoo.zoo.direct_solve

    def failing_reference(op, b, cfg=None, **kw):
        if kw.get("name") == "clamped reference":
            raise bizoo.ConvergenceFailure("clamped reference: no convergence")
        return solve(op, b, cfg, **kw)

    monkeypatch.setattr(bizoo.zoo, "direct_solve", failing_reference)
    assert main(argv) == 0  # the diagnostic fails, the answer stands
    doc = json.loads(capsys.readouterr().out)
    assert doc["extras"] == {
        "clamped_comparison_l2": None,
        "clamped_comparison_failure": "clamped reference: no convergence",
    }
    assert doc["residuals"]["pde"] <= 1e-8


def fresh_python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = Path(bizoo.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=False)


def test_import_leaves_the_parser_unbuilt():
    probe = fresh_python("-c", "import sys, bizoo.cli as cli; "
                               "sys.exit(0 if cli._PARSER is None else 1)")
    assert probe.returncode == 0, probe.stderr


def test_solving_loads_neither_ndimage_nor_special(tmp_path):
    # Neumann stages take their kernel from the domain's pieces, and a
    # two-piece domain takes the first-order path that labels them
    path = tmp_path / "pieces.json"
    bizoo.save_domain(two_piece_mask(5, 3), path)
    probe = fresh_python("-c", f"""
import sys
from bizoo.cli import main
assert main(["solve", "--problem", "n_n", "--rhs", "cos(pi*x)", "--n", "8"]) == 0
assert main(["helmholtz", "--field", "y,x", "--domain", {str(path)!r}]) == 0
loaded = sorted(m for m in ("scipy.ndimage", "scipy.special") if m in sys.modules)
sys.exit(f"loaded: {{loaded}}" if loaded else 0)
""")
    assert probe.returncode == 0, probe.stderr


def test_one_process_reuses_the_parser_across_calls(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    first = tmp_path / "first.csv"
    assert main(["solve", "--problem", "navier", "--rhs", "x*y", "--n", "8",
                 "--dump", str(first)]) == 0
    parser = cli._PARSER
    assert parser is not None
    out, err = capsys.readouterr()
    assert json.loads(out)["problem"] == "d_d" and err == ""

    assert main(["solve", "--problem", "navier", "--n", "8"]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "the following arguments are required: --rhs" in err
    assert "factor" in err  # grammar reminder

    assert main(["solve", "--problem", "d_n", "--rhs", "x", "--n", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "forbidden composition" in err

    # the cached parser writes to the stream in place at each call
    redirected = io.StringIO()
    with contextlib.redirect_stderr(redirected):
        assert main(["solve", "--problem", "bogus", "--rhs", "x"]) == 64
    assert "invalid choice: 'bogus'" in redirected.getvalue()
    assert capsys.readouterr() == ("", "")

    argv = ["solve", "--problem", "under", "--rhs", "exp(x)*cos(3*y)",
            "--shape", "lshape", "--n", "12"]
    second = tmp_path / "second.csv"
    assert main(argv + ["--dump", str(second)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["problem"] == "under" and err == ""
    assert cli._PARSER is parser

    alone = tmp_path / "alone.csv"
    lone = fresh_python("-m", "bizoo", *argv, "--dump", str(alone))
    assert lone.returncode == 0, lone.stderr
    assert second.read_bytes() == alone.read_bytes()
    assert first.read_bytes() != second.read_bytes()
