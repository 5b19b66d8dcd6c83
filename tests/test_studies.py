import numpy as np
import pytest

from bizoo import (
    MANUFACTURED,
    ConvergenceTable,
    OperatorCatalog,
    best_constant,
    build_domain,
    constants_audit,
    make_pair,
    run_check,
    run_convergence,
)


def neumann_ground(m, h):
    # slowest nonconstant mode of the 1d cell-centered Neumann chain
    return (2 - 2 * np.cos(np.pi / m)) / h**2


def dirichlet_ground(n):
    # ghost-reflection Dirichlet chain on n cells, h = 1/n
    return (2 - 2 * np.cos(np.pi / n)) * n**2


def test_manufactured_catalog():
    assert set(MANUFACTURED) == {"poisson_dirichlet", "navier_sine",
                                 "clamped_sine2"}
    case = MANUFACTURED["navier_sine"]
    dom = build_domain("square", 4)
    f, exact = case.fields(dom)
    x, y = dom.cell_centers().T
    assert np.allclose(exact.values, np.sin(np.pi * x) * np.sin(np.pi * y))
    assert np.allclose(f.values, 4 * np.pi**4 * exact.values)


def test_poisson_convergence_orders():
    table = run_convergence("poisson_dirichlet", ns=(8, 16, 32))
    assert table.ns == (8, 16, 32)
    assert all(o > 1.9 for o in table.l2_orders)
    assert table.l2_orders[0] == pytest.approx(2.008, abs=0.05)
    assert table.l2_orders[1] == pytest.approx(2.002, abs=0.05)


def test_navier_convergence_orders():
    table = run_convergence("navier_sine", ns=(8, 16, 32))
    assert all(o > 1.9 for o in table.l2_orders)


def test_clamped_convergence_monotone():
    table = run_convergence("clamped_sine2", ns=(8, 16, 32))
    errs = table.l2_errors
    assert errs[0] > errs[1] > errs[2]
    assert all(o > 0.9 for o in table.l2_orders)


def test_clamped_plate_converges_at_order_two_to_n128():
    # measured l2 orders 2.01, 2.00, 2.00; MANUFACTURED keeps its recorded
    # expected_order of 1.0
    table = run_convergence("clamped_sine2", ns=(16, 32, 64, 128))
    assert all(o >= 1.95 for o in table.l2_orders)
    assert MANUFACTURED["clamped_sine2"].expected_order == 1.0


def test_run_convergence_accepts_instance():
    table = run_convergence(MANUFACTURED["poisson_dirichlet"], ns=(4, 8))
    assert table.case == "poisson_dirichlet"
    assert len(table.l2_errors) == 2
    assert len(table.l2_orders) == 1


def test_table_arithmetic_and_serialization():
    table = ConvergenceTable("demo", (4, 8, 16), (1.0, 0.25, 0.0625),
                             (2.0, 0.5, 0.125))
    assert table.l2_orders == (2.0, 2.0)
    assert table.max_orders == (2.0, 2.0)
    d = table.to_dict()
    assert set(d) == {"case", "n", "h", "l2_error", "max_error",
                      "l2_order", "max_order"}
    assert d["h"] == [0.25, 0.125, 0.0625]


def test_constants_audit_square_analytic():
    n = 16
    audit = constants_audit(build_domain("square", n))
    assert audit["c_f_h"] == pytest.approx(
        1 / np.sqrt(2 * dirichlet_ground(n)), rel=1e-9
    )
    assert audit["c_p_h"] == pytest.approx(
        1 / np.sqrt(neumann_ground(n, 1 / n)), rel=1e-9
    )
    assert audit["diameter"] == pytest.approx(np.sqrt(2))
    assert audit["d_over_pi"] == pytest.approx(np.sqrt(2) / np.pi)
    assert audit["bound_ok"] is True
    assert audit["n_cells"] == 256


def test_constants_richardson_to_continuum():
    c16 = constants_audit(build_domain("square", 16))["c_f_h"]
    c32 = constants_audit(build_domain("square", 32))["c_f_h"]
    assert c32 < c16  # O(h^2) from above
    extrapolated = (4 * c32 - c16) / 3
    assert extrapolated == pytest.approx(1 / (np.sqrt(2) * np.pi), abs=1e-6)


def test_constants_audit_takes_a_catalog_on_the_factored_route():
    # 576 cells: both constants come from Lanczos on the pinned factor
    n = 24
    catalog = OperatorCatalog(build_domain("square", n))
    audit = constants_audit(catalog)
    assert "gradient_dirichlet" in catalog._cache and "gradient" in catalog._cache
    assert audit["c_f_h"] == pytest.approx(
        1 / np.sqrt(2 * dirichlet_ground(n)), rel=1e-10
    )
    assert audit["c_p_h"] == pytest.approx(
        1 / np.sqrt(neumann_ground(n, 1 / n)), rel=1e-10
    )
    assert audit == constants_audit(catalog.domain)


def test_interior_constant_on_the_factor_matches_dense():
    # 484 depth>=1 cells: the factored route, against a dense eigvalsh
    catalog = OperatorCatalog(build_domain("square", 24))
    a = catalog.interior_laplacian.to_dense()
    lam = np.linalg.eigvalsh(a.T @ a)[0]  # uniform weights
    c = best_constant(make_pair(catalog.interior_laplacian))
    assert c == pytest.approx(1 / np.sqrt(lam), rel=1e-9)


def test_constants_audit_rectangle_analytic():
    n = 8
    dom = build_domain("rectangle", n, width=3.0, height=1.0)
    audit = constants_audit(dom)
    assert audit["diameter"] == pytest.approx(np.sqrt(10))
    assert audit["c_p_h"] == pytest.approx(
        1 / np.sqrt(neumann_ground(3 * n, 1 / n)), rel=1e-9
    )
    assert audit["bound_ok"] is True


def test_constants_audit_lshape():
    audit = constants_audit(build_domain("lshape", 16))
    assert audit["bound_ok"] is True
    assert audit["n_cells"] == 192


def test_run_check_battery():
    ok, lines = run_check()
    assert ok
    assert len(lines) == 13
    assert all(line.startswith("ok: ") for line in lines)
    _, verbose = run_check(verbose=True)
    assert any("(" in line for line in verbose)
