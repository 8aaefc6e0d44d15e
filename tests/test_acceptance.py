"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Randomized sweeps are all seeded; oracles (bisection,
ODE matching, simplex grid search, quadrature) live in tests/helpers.py
and never touch the code paths they judge.
"""

import json
import re
import time

import numpy as np


from greenlab import (
    Kernel,
    Measure,
    Problem,
    a_priori_check,
    check_iterated,
    check_lower_bound,
    check_relation_chain,
    estimate_norm_constant,
    estimate_wmp_constant,
    exponent_table,
    ibp_check,
    minimality_probe,
    solve,
)
from greenlab.cli import main
from tests.helpers import (
    brute_force_norm_constant,
    random_green_matrix,
    random_weights,
    scalar_fixed_point,
)


def _report(num: int, ok: bool, desc: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_scalar_fixed_points():
    start = time.perf_counter()
    golden = scalar_fixed_point(1.0, 1.0, 1.0, 0.5)  # bisection oracle
    rep_in = solve(
        Problem(kernel=Kernel.matrix([[1.0]]),
                sigma=Measure.atomic([0], [1.0]),
                mu=Measure.atomic([0], [1.0]), q=0.5))
    ok = (rep_in.converged and rep_in.iterations < 200
          and abs(rep_in.u_values[0] - golden) <= 1e-9
          and abs(golden - (3 + np.sqrt(5)) / 2) < 1e-12)
    rep_h = solve(
        Problem(kernel=Kernel.matrix([[2.0]]),
                sigma=Measure.atomic([0], [3.0]), q=0.5))
    ok = ok and rep_h.converged and abs(rep_h.u_values[0] - 36.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"scalar fixed points to 1e-9 in {elapsed:.3f}s "
                   f"(u={rep_in.u_values[0]:.10f}, {rep_h.u_values[0]:.10f})")


def test_criterion_2_monotone_sweep_500():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        q = float(rng.choice([0.25, 0.5, 0.75]))
        kernel = Kernel.matrix(random_green_matrix(rng, n))
        sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
        h = estimate_wmp_constant(kernel, samples=2, seed=0)
        problem = Problem(kernel=kernel, sigma=sigma, q=q, h=h)
        rep = solve(problem)
        if not (rep.converged and rep.monotone_ok):
            failures += 1
            continue
        lb = check_lower_bound(kernel, sigma, q, rep.u_on_sigma(), h=h)
        if not lb.passed:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _report(2, ok, f"500 randomized problems monotone + lower bound, "
                   f"{failures} failures, {elapsed:.1f}s")


def test_criterion_3_iterated_inequalities_1000():
    rng = np.random.default_rng(0)
    failures = 0
    for s in (0.3, 0.5, 1.0, 2.0, 3.7):
        for _ in range(200):
            n = int(rng.integers(2, 21))
            kernel = Kernel.matrix(random_green_matrix(rng, n))
            omega = Measure.atomic(np.arange(n), random_weights(rng, n))
            h = estimate_wmp_constant(kernel, samples=2, seed=0)
            rep = check_iterated(kernel, omega, s, h=h)
            if not rep.passed:
                failures += 1
            if s == 1.0 and rep.margin > 1e-12:
                failures += 1
    _report(3, failures == 0,
            f"1000 iterated-inequality instances (rel tol 1e-12), "
            f"{failures} failures")


def test_criterion_4_ibp_identity():
    start = time.perf_counter()
    kernel = Kernel.interval1d()
    checks = []
    analytic = {1.0: 1 / 12, 2.0: 1 / 120}
    for gamma in (1.0, 2.0):
        fine = ibp_check(kernel, Measure.lebesgue(2000), gamma)
        coarse = ibp_check(kernel, Measure.lebesgue(250), gamma)
        checks.append(abs(fine.green_energy - analytic[gamma])
                      <= 1e-3 * analytic[gamma])
        checks.append(abs(gamma * fine.gradient_energy - analytic[gamma])
                      <= 1e-3 * analytic[gamma])
        checks.append(fine.ibp_relative_residual <= 1e-3)
        checks.append(fine.ibp_relative_residual < coarse.ibp_relative_residual)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 10.0
    _report(4, ok, f"IBP identity at gamma in (1, 2): E_1 = 1/12, "
                   f"E_2 = 1/120 = 2*(1/240), residuals shrink, {elapsed:.1f}s")


def test_criterion_5_relation_chains():
    rng = np.random.default_rng(0)
    failures = 0
    for case in (1, 2, 3):
        for _ in range(200):
            n = int(rng.integers(2, 13))
            kernel = Kernel.matrix(random_green_matrix(rng, n))
            sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
            mu = Measure.atomic(np.arange(n), random_weights(rng, n))
            q = float(rng.uniform(0.1, 0.9))
            if case == 1:
                gamma = (1.0 - q) + float(rng.uniform(0.05, 1.5))
            elif case == 2:
                gamma = (1.0 - q) * float(rng.uniform(0.1, 0.9))
            else:
                gamma = 1.0 - q
            rep = check_relation_chain(kernel, sigma, mu, q, gamma, h=1.0)
            if not (rep.passed and rep.details["case"] == case
                    and np.isfinite(rep.details["I_cross"])):
                failures += 1
    _report(5, failures == 0,
            f"relation chains, 200 instances per case, {failures} failures")


def test_criterion_6_a_priori_bound():
    rng = np.random.default_rng(0)
    gated_failures = 0
    gated_count = 0
    large_satisfied = 0
    large_count = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        q = float(rng.choice([0.25, 0.5, 0.75]))
        kernel = Kernel.matrix(random_green_matrix(rng, n))
        sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
        mu = Measure.atomic(np.arange(n), random_weights(rng, n, lo=0.05, hi=0.8))
        problem = Problem(kernel=kernel, sigma=sigma, mu=mu, q=q, h=1.0)
        p_exp = (problem.gamma + q) / q
        r_exp = problem.gamma + q
        if n <= 3:
            c_est = brute_force_norm_constant(kernel.values, sigma.weights,
                                              p_exp, r_exp, grid=200)
        else:
            c_est = estimate_norm_constant(kernel, sigma, p_exp, r_exp)
        rep = solve(problem)
        if not rep.converged:
            if n <= 3:
                gated_failures += 1
            continue
        ap = a_priori_check(problem, rep, c_est)
        if n <= 3:
            gated_count += 1
            if not ap["satisfied"]:
                gated_failures += 1
        else:
            large_count += 1
            large_satisfied += int(ap["satisfied"])
    ok = gated_failures == 0 and gated_count > 0
    _report(6, ok,
            f"a priori bound: oracle-gated n<=3 instances {gated_count} "
            f"({gated_failures} failures); larger instances (reported, "
            f"non-gating) satisfied {large_satisfied}/{large_count}")


def test_criterion_7_exponent_round_trip():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        lo = n / (n - 1.0)
        p = float(rng.uniform(lo, 2.0))
        if p <= lo:
            continue
        t = exponent_table(n, p, 0.5)
        if abs(t["p_of_gamma"] - p) > 1e-12:
            ok = False
    t = exponent_table(3, 2.0, 0.5)
    ok = ok and t["gamma"] == 1.0 and t["r"] == 3.0 and t["s"] == 1.0
    ok = ok and t["r2"] == 4.0 / 3.0 and t["s2"] == 6.0 / 5.0
    _report(7, ok, "exponent round trip to 1e-12 over 100 samples; "
                   "(n,p,q)=(3,2,1/2) row equals (1, 3, 1, 4/3, 6/5)")


def test_criterion_8_minimality_probe():
    results = []
    scalar_in = Problem(kernel=Kernel.matrix([[1.0]]),
                        sigma=Measure.atomic([0], [1.0]),
                        mu=Measure.atomic([0], [1.0]), q=0.5)
    rep = solve(scalar_in)
    results.append(minimality_probe(scalar_in, rep, v0_scale=3.0))
    scalar_h = Problem(kernel=Kernel.matrix([[2.0]]),
                       sigma=Measure.atomic([0], [3.0]), q=0.5)
    rep = solve(scalar_h)
    results.append(minimality_probe(scalar_h, rep, v0_scale=3.0))
    two = Problem(kernel=Kernel.matrix([[2.0, 1.0], [1.0, 2.0]]),
                  sigma=Measure.atomic([0, 1], [1.0, 1.0]), q=0.5)
    rep = solve(two)
    results.append(minimality_probe(two, rep, v0_scale=3.0))
    ok = all(r["agrees"] for r in results)
    gaps = ", ".join(f"{r['gap_sup']:.2e}" for r in results)
    _report(8, ok, f"3x supersolution restarts return to the minimal "
                   f"solution within 10*tol (gaps: {gaps})")


def _full_manifest() -> dict:
    k22 = {"variant": "matrix", "values": [[2.0, 1.0], [1.0, 2.0]]}
    om22 = {"variant": "atomic", "sites": [0, 1], "weights": [1.0, 1.0]}
    grid = {"variant": "grid", "n_cells": 250, "values": [1.0] * 250}
    lattice = [(i / 5 + 0.1, j / 5 + 0.1, k / 5 + 0.1)
               for i in range(5) for j in range(5) for k in range(5)]
    return {"checks": [
        {"check": "iterated", "kernel": k22, "omega": om22, "s": 2.0},
        {"check": "iterated", "kernel": k22, "omega": om22, "s": 0.5},
        {"check": "lower_bound", "kernel": k22, "omega": om22, "q": 0.5},
        {"check": "norm_constant", "kernel": k22, "omega": om22,
         "p": 3.0, "r": 1.5},
        {"check": "equivalence", "kernel": k22, "omega": om22,
         "p": 3.0, "r": 1.5},
        {"check": "relation_chain", "kernel": k22, "sigma": om22, "mu": om22,
         "q": 0.5, "gamma": 1.0},
        {"check": "hardy", "kernel": {"variant": "interval1d"}, "omega": grid,
         "phi": "sin_pi"},
        {"check": "hls", "alpha": 1.0, "n": 3, "beta": 1.0,
         "omega": {"variant": "atomic", "sites": lattice,
                   "weights": [1.0 / 125] * 125}},
    ]}


def test_criterion_9_determinism(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_full_manifest()))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code1 = main(["verify", str(manifest), "--out", out1])
    code2 = main(["verify", str(manifest), "--out", out2])
    strip = lambda text: re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.M)
    t1, t2 = open(out1).read(), open(out2).read()
    ok = code1 == 0 and code2 == 0 and strip(t1) == strip(t2)
    _report(9, ok, "two verify runs byte-identical modulo timestamp "
                   f"(exit codes {code1}/{code2})")
