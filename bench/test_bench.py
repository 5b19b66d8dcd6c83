"""Tests of the benchmark itself: self-time arithmetic, tracer, host clock, quick runs."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=-1, matvec_s=0.0, tag=None):
    return [name, tag, start, end, parent, 0, matvec_s]


def test_self_time_subtracts_children_and_matvecs():
    spans = [
        span("zoo.solve_zoo", 0.0, 10.0, tag="d_d"),
        span("linalg._run_cg", 1.0, 4.0, parent=0, matvec_s=0.5),
        span("laplace.strip_norm", 5.0, 6.0, parent=0),
        span("linalg.SparseOperator.adjoint", 2.0, 2.25, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.25, 1.0, 0.25])
    counts = {"linalg.matvecs": 7, "linalg.matvec_s": 0.5}
    m = layer_metrics(spans, counts)
    assert m["zoo.self_s"] == pytest.approx(6.0)
    assert m["linalg.self_s"] == pytest.approx(2.25 + 0.25 + 0.5)
    assert m["laplace.self_s"] == pytest.approx(1.0)
    assert m["zoo.solve_s.d_d"] == pytest.approx(10.0)
    assert m["linalg.matvecs"] == 7
    assert set(name for name, _ in PER_LAYER) <= set(m)


def test_catalog_key_time_excludes_nested_keys_and_recursion_counts_once():
    spans = [
        span("operators.OperatorCatalog.interior_normal", 0.0, 3.0),
        span("operators.OperatorCatalog.interior_laplacian", 0.5, 2.0, parent=0),
        span("pairs.best_constant", 4.0, 8.0),
        span("pairs.best_constant", 5.0, 7.0, parent=2),
    ]
    m = layer_metrics(spans, {})
    assert m["operators.assemble_s.interior_normal"] == pytest.approx(1.5)
    assert m["operators.assemble_s.interior_laplacian"] == pytest.approx(1.5)
    assert m["operators.assemble_s"] == pytest.approx(3.0)
    assert m["pairs.best_constant_s"] == pytest.approx(4.0)


def test_tracer_rebinds_imported_names_and_restores_them():
    import numpy as np

    import bizoo
    from bizoo import laplace, zoo

    originals = (zoo.harmonic_defect, laplace.harmonic_defect, zoo._run_cg,
                 bizoo.OperatorCatalog.__dict__["pad1"])
    tracer = Tracer()
    with tracer:
        assert zoo.harmonic_defect is laplace.harmonic_defect
        assert zoo.harmonic_defect is not originals[0]
        catalog = bizoo.OperatorCatalog(bizoo.build_domain("square", 8))
        f = bizoo.Field(catalog.domain.cell_space, np.linspace(0.0, 1.0, 64))
        report = bizoo.solve_zoo("f_c", catalog, f)
    assert (zoo.harmonic_defect, laplace.harmonic_defect, zoo._run_cg,
            bizoo.OperatorCatalog.__dict__["pad1"]) == originals
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["zoo.iterations"] == report.iterations > 0
    # one for the clamped stage, one for measuring the harm_w constraint
    assert m["laplace.harmonic_defect_calls"] == 2
    assert m["grid.cells"] == 64
    assert m["linalg.matvecs"] > report.iterations
    assert m["operators.nnz"] > 0
    assert m["zoo.solve_s.f_c"] > 0


@pytest.mark.parametrize("workload", ["cli-oneshot", "catalog-reuse", "grid-setup",
                                      "first-order"])
def test_quick_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1", "--quick"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}


def test_quick_untraced_run_reports_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "first-order",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = {metric["name"] for metric in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_host_clock_scales_by_the_mean_of_the_bracketing_readings(monkeypatch):
    import hostspeed
    clock = hostspeed.HostClock()
    readings = iter([0.04, 0.02, 0.01])
    monkeypatch.setattr(clock, "_read", lambda: next(readings))
    clock.start()
    assert clock.scale(3.0) == pytest.approx(3.0 * hostspeed.REFERENCE_S / 0.03)
    # the reading after one stretch is the reading before the next
    assert clock.scale(1.5) == pytest.approx(1.5 * hostspeed.REFERENCE_S / 0.015)
