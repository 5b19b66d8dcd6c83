"""Acceptance gate: twelve numbered criteria, one pass/fail line each."""

import time

import numpy as np
import pytest

from bizoo import (
    CompatibilityError,
    Field,
    OperatorCatalog,
    best_constant,
    biharmonic_chain_check,
    build_domain,
    classify_zoo,
    constants_audit,
    dense_solution_operator,
    estimate_chain_check,
    exchange_identity_check,
    helmholtz_decompose,
    make_pair,
    project_range,
    resolve_problem,
    run_convergence,
    solve_laplace,
    solve_regularized,
    solve_zoo,
)
from bizoo.zoo import dense_stage_inverses

CONTINUUM_C_F = 1 / (np.sqrt(2) * np.pi)


def verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def compatible_data(catalog, data_space, rng):
    dom = catalog.domain
    if data_space == "L2":
        return Field(dom.cell_space, rng.normal(size=dom.n_cells))
    if data_space == "L2_mean_free":
        vals = rng.normal(size=dom.n_cells)
        ones = np.ones(dom.n_cells)
        vals -= dom.cell_space.inner(vals, ones) / dom.cell_space.inner(ones, ones)
        return Field(dom.cell_space, vals)
    if data_space == "L2_no_harmonic":
        return Field(dom.cell_space, catalog.interior_laplacian.apply_raw(
            rng.normal(size=dom.ring_cells(1).size)))
    if data_space == "L2_no_biharmonic":
        return Field(dom.cell_space, catalog.interior_biharmonic.apply_raw(
            rng.normal(size=dom.ring_cells(2).size)))
    raise AssertionError(data_space)


def test_criterion_01_constants_respect_diameter_bound():
    domains = {
        "square": build_domain("square", 64),
        "rectangle": build_domain("rectangle", 64, width=3.0, height=1.0),
        "lshape": build_domain("lshape", 64),
    }
    times = {}
    audits = {}
    for name, dom in domains.items():
        t0 = time.perf_counter()
        audits[name] = constants_audit(dom)
        times[name] = time.perf_counter() - t0
    bounds_ok = all(a["bound_ok"] for a in audits.values())
    square_dev = abs(audits["square"]["c_f_h"] - CONTINUUM_C_F) / CONTINUUM_C_F
    fast = all(t < 30.0 for t in times.values())
    verdict(
        1,
        bounds_ok and square_dev <= 0.02 and fast,
        f"c_f,c_p <= d/pi on all three masks; square c_f off continuum by "
        f"{square_dev:.2e}; slowest {max(times.values()):.1f}s",
    )


def test_criterion_02_exchange_identities():
    catalog = OperatorCatalog(build_domain("square", 16))
    rng = np.random.default_rng(2025)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        f = compatible_data(catalog, "L2_no_harmonic", rng)
        devs = exchange_identity_check(catalog, f)
        ratio = max(
            devs["neumann_via_dirichlet"],
            devs["dirichlet_via_neumann"],
            devs["mixed_second_order"],
        ) / devs["data_norm"]
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        worst <= 1e-9 and elapsed < 10.0,
        f"worst identity deviation {worst:.2e} (limit 1e-9) over 10 samples "
        f"in {elapsed:.1f}s",
    )


def test_criterion_03_zoo_classification_and_solves():
    rows = classify_zoo()
    well = [r for r in rows if r["status"] == "well-posed"]
    forb = [r for r in rows if r["status"] == "forbidden"]
    shape_ok = len(rows) == 18 and len(well) == 13 and len(forb) == 5
    catalog = OperatorCatalog(build_domain("square", 16))
    rng = np.random.default_rng(3)
    worst_pde = worst_con = 0.0
    for row in well:
        f = compatible_data(catalog, row["data_space"], rng)
        rep = solve_zoo(row["label"], catalog, f)
        worst_pde = max(worst_pde, rep.pde_residual_norm / f.norm())
        for value in rep.constraint_norms.values():
            worst_con = max(worst_con, value / f.norm())
    verdict(
        3,
        shape_ok and worst_pde <= 1e-8 and worst_con <= 1e-8,
        f"18 rows, 13 solvable, 5 forbidden; worst relative pde residual "
        f"{worst_pde:.2e}, worst constraint {worst_con:.2e} (limit 1e-8)",
    )


def test_criterion_04_fredholm_gates():
    catalog = OperatorCatalog(build_domain("square", 16))
    dom = catalog.domain
    ones = dom.cell_space.ones()
    rejected = 0
    with pytest.raises(CompatibilityError):
        solve_laplace("neumann", catalog, ones)
    rejected += 1
    for label in ("n_f", "n_n", "n_d"):  # every mean-free data class
        with pytest.raises(CompatibilityError):
            solve_zoo(label, catalog, ones)
        rejected += 1
    x = dom.cell_centers()[:, 0]
    f = Field(dom.cell_space, x - x.mean())
    means = []
    u = solve_laplace("neumann", catalog, f).solution.values
    means.append(abs(dom.cell_space.inner(u, np.ones(u.size))))
    u = solve_zoo("riquier", catalog, f).solution.values
    means.append(abs(dom.cell_space.inner(u, np.ones(u.size))))
    verdict(
        4,
        rejected == 4 and max(means) <= 1e-10,
        f"constant data rejected {rejected}/4 times; mean-free data accepted "
        f"with |<u,1>| <= {max(means):.2e} (limit 1e-10)",
    )


def test_criterion_05_kernel_dimensions():
    masks = {
        "square": build_domain("square", 8),
        "lshape": build_domain("lshape", 8),
        "annulus": build_domain("annulus", 12),
    }
    ok = True
    notes = []
    for name, dom in masks.items():
        cat = OperatorCatalog(dom)
        a = cat.interior_laplacian
        ab = cat.interior_biharmonic
        harm = len(make_pair(a).kernel_basis("adjoint"))
        biharm = len(make_pair(ab).kernel_basis("adjoint"))
        harm_dense = dom.n_cells - np.linalg.matrix_rank(a.to_dense())
        biharm_dense = dom.n_cells - np.linalg.matrix_rank(ab.to_dense())
        want_h = dom.n_cells - dom.ring_cells(1).size
        want_b = dom.n_cells - dom.ring_cells(2).size
        hess = len(make_pair(cat.hessian).kernel_basis("forward"))
        ok &= harm == harm_dense == want_h
        ok &= biharm == biharm_dense == want_b
        ok &= hess == 3
        notes.append(f"{name}: harmonics {harm}={want_h}, "
                     f"biharmonics {biharm}={want_b}, hessian kernel {hess}")
    cohom = {}
    for name, n in (("square", 8), ("annulus", 8)):
        dom = build_domain(name, n)
        cat = OperatorCatalog(dom)
        gp = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
        cp = make_pair(cat.curl)
        g = Field(dom.edge_space,
                  np.random.default_rng(5).normal(size=dom.edge_space.dim))
        cohom[name] = helmholtz_decompose(gp, cp, g).dims["cohomology"]
    ok &= cohom == {"square": 0, "annulus": 1}
    verdict(5, ok, "; ".join(notes) + f"; cohomology {cohom}")


def test_criterion_06_helmholtz_reconstruction():
    rng = np.random.default_rng(6)
    worst_rec = worst_orth = 0.0
    for shape in ("square", "annulus"):
        dom = build_domain(shape, 16)
        cat = OperatorCatalog(dom)
        gp = make_pair(cat.gradient, kernel_forward=[dom.cell_space.ones()])
        cp = make_pair(cat.curl)
        space = dom.edge_space
        for _ in range(20):
            g = Field(space, rng.normal(size=space.dim))
            split = helmholtz_decompose(gp, cp, g)
            worst_rec = max(worst_rec, split.reconstruction_error() / g.norm())
            parts = (split.gradient_part.values, split.cohomology_part.values,
                     split.curl_part.values)
            for i in range(3):
                for j in range(i + 1, 3):
                    worst_orth = max(
                        worst_orth,
                        abs(space.inner(parts[i], parts[j])) / g.norm() ** 2,
                    )
    verdict(
        6,
        worst_rec <= 1e-10 and worst_orth <= 1e-10,
        f"40 random edge fields: reconstruction {worst_rec:.2e}, pairwise "
        f"component inner products {worst_orth:.2e} (limits 1e-10)",
    )


def test_criterion_07_range_projector():
    dom = build_domain("square", 8)
    cat = OperatorCatalog(dom)
    pair = make_pair(cat.interior_laplacian)
    space = dom.cell_space
    rng = np.random.default_rng(7)

    def proj(vals):
        return project_range(pair, Field(space, vals))[0].values

    a, b = rng.normal(size=(2, dom.n_cells))
    sym = abs(space.inner(proj(a), b) - space.inner(a, proj(b)))
    idem = space.norm(proj(proj(a)) - proj(a))
    ax = cat.interior_laplacian.apply_raw(rng.normal(size=dom.ring_cells(1).size))
    fixes_range = space.norm(proj(ax) - ax) / space.norm(ax)
    u, s, _ = np.linalg.svd(cat.interior_laplacian.to_dense(),
                            full_matrices=False)
    ur = u[:, s > 1e-10 * s[0]]
    dense = ur @ (ur.T @ a)
    dense_dev = space.norm(proj(a) - dense) / space.norm(a)
    verdict(
        7,
        sym <= 1e-10 and idem <= 1e-10 and fixes_range <= 1e-10
        and dense_dev <= 1e-8,
        f"symmetry {sym:.2e}, idempotency {idem:.2e}, range fixed to "
        f"{fixes_range:.2e} (limits 1e-10); dense-SVD agreement "
        f"{dense_dev:.2e} (limit 1e-8)",
    )


def test_criterion_08_constant_swap_symmetry():
    cat = OperatorCatalog(build_domain("square", 10))
    pairs = {
        "gradient": make_pair(cat.gradient_dirichlet, kernel_forward=()),
        "interior laplacian": make_pair(cat.interior_laplacian,
                                        kernel_forward=()),
        "hessian": make_pair(cat.hessian),
    }
    worst = 0.0
    values = {}
    for name, pair in pairs.items():
        c = best_constant(pair, check_swapped=True)
        c_swap = best_constant(pair.swapped())
        worst = max(worst, abs(c - c_swap) / c)
        values[name] = float(c)
    verdict(
        8,
        worst <= 1e-8,
        f"(A,A*) vs (A*,A) constants agree to {worst:.2e} (limit 1e-8); "
        + ", ".join(f"{k}={v:.6f}" for k, v in values.items()),
    )


def test_criterion_09_convergence_orders():
    t0 = time.perf_counter()
    poisson = run_convergence("poisson_dirichlet", ns=(16, 32, 64))
    navier = run_convergence("navier_sine", ns=(16, 32, 64))
    clamped = run_convergence("clamped_sine2", ns=(16, 32, 64))
    elapsed = time.perf_counter() - t0
    second_order = (all(o >= 1.9 for o in poisson.l2_orders)
                    and all(o >= 1.9 for o in navier.l2_orders))
    errs = clamped.l2_errors
    clamped_ok = (all(o >= 0.9 for o in clamped.l2_orders)
                  and errs[0] > errs[1] > errs[2])
    verdict(
        9,
        second_order and clamped_ok and elapsed < 120.0,
        f"poisson orders {[round(o, 3) for o in poisson.l2_orders]}, navier "
        f"{[round(o, 3) for o in navier.l2_orders]} (floor 1.9); clamped "
        f"{[round(o, 3) for o in clamped.l2_orders]} (floor 0.9, monotone); "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_regularized_energy_bound():
    cat = OperatorCatalog(build_domain("square", 16))
    rng = np.random.default_rng(10)
    worst = -np.inf
    for _ in range(20):
        f = Field(cat.domain.cell_space, rng.normal(size=cat.domain.n_cells))
        rep = solve_regularized(cat, f)
        worst = max(worst, rep.extras["energy"] - f.norm())
    verdict(
        10,
        worst <= 1e-10,
        f"sqrt(|u|^2 + |Lu|^2) - |f| <= {worst:.2e} over 20 random f "
        f"(limit 1e-10)",
    )


def test_criterion_11_dense_adjoint_table():
    cat = OperatorCatalog(build_domain("square", 8))
    stages = dense_stage_inverses(cat)
    ops = {label: dense_solution_operator(cat, label, stages)
           for label in ("f_c", "c_f", "n_n", "d_d", "over", "under",
                         "n_d", "d_n", "n_f", "f_n")}

    def relerr(m, ref):
        return np.abs(m - ref).max() / np.abs(ref).max()

    sym = max(relerr(ops[k], ops[k].T) for k in ("f_c", "c_f", "n_n", "d_d"))
    onesided = relerr(ops["over"].T, ops["under"])
    # the table pairs the mixed-order item with the projection-repaired
    # reverse ordering; both same-letter hints differ from it at O(1)
    table = relerr(ops["n_d"].T, ops["d_n"])
    teeth = min(relerr(ops["n_d"].T, ops["n_f"]),
                relerr(ops["n_d"].T, ops["f_n"]))
    verdict(
        11,
        sym <= 1e-12 and onesided <= 1e-12 and table <= 1e-12 and teeth > 0.1,
        f"self-adjoint items symmetric to {sym:.2e}, over^T=under to "
        f"{onesided:.2e}, mixed item matches its table partner to "
        f"{table:.2e} (limits 1e-12) and differs from both same-letter "
        f"candidates by {teeth:.2f}",
    )


def test_criterion_12_estimate_chains():
    dom = build_domain("square", 16)
    cat = OperatorCatalog(dom)
    audit = constants_audit(dom)
    rep_d = estimate_chain_check("dirichlet", cat, audit["c_f_h"], samples=20)
    rep_n = estimate_chain_check("neumann", cat, audit["c_p_h"], samples=20)
    q = best_constant(make_pair(cat.interior_laplacian, kernel_forward=()))
    rep_b = biharmonic_chain_check(cat, audit["c_f_h"], float(q), samples=20)
    worst1 = max(rep_d.worst_first, rep_d.worst_second,
                 rep_n.worst_first, rep_n.worst_second)
    worst2 = max(max(rep_b.worst_steps), rep_b.worst_friedrichs)
    verdict(
        12,
        rep_d.ok() and rep_n.ok() and rep_b.ok(),
        f"first-order chains worst ratio {worst1:.3f}, second-order chain "
        f"worst ratio {worst2:.3f} (all must be <= 1)",
    )
