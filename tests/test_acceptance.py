"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line with the observed worst-case number.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from plap import (
    BARENBLATT,
    HOMOGENEOUS,
    EvolutionKernel,
    GridDomain,
    Params,
    PoleSet,
    QuadraticTerm,
    SignClass,
    barenblatt_defect,
    barenblatt_defect_fd,
    comparison_check,
    criterion_sum,
    delta_p_closed_form,
    delta_p_direct,
    delta_p_fd,
    delta_p_scale,
    eigenvalue_criterion,
    kernel_time_derivative,
    operator_term,
    sign_change_radius,
    sign_region,
    solve_p_harmonic,
    support_radius,
    two_bump_defect,
    two_bump_defect_fd,
)

SEED = 20160118


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_pole_set(rng, params, max_poles=8, spread=1.0):
    num = int(rng.integers(1, max_poles + 1))
    weights = rng.uniform(0.1, 2.0, size=num)
    locations = rng.uniform(-spread, spread, size=(num, params.n))
    return PoleSet(weights, locations, params)


def random_point(rng, ps, min_dist=0.05, spread=1.5):
    while True:
        x = rng.uniform(-spread, spread, size=ps.locations.shape[1])
        if np.min(np.linalg.norm(x - ps.locations, axis=1)) > min_dist:
            return x


def rel_err(a, b, scale):
    return abs(a - b) / max(abs(a), abs(b), scale)


def test_criterion_1_three_way_agreement():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_closed = worst_fd = 0.0
    count = 0
    while count < 200:
        p = rng.choice([2.0, 2.5, 3.0, 4.0])
        n = int(rng.choice([2, 3, 5]))
        params = Params(p, n)
        ps = random_pole_set(rng, params)
        x = random_point(rng, ps)
        scale = delta_p_scale(ps, None, x)
        direct = delta_p_direct(ps, None, x)
        closed = delta_p_closed_form(ps, None, x)
        fd = delta_p_fd(ps, None, x)
        worst_closed = max(worst_closed, rel_err(direct, closed, scale))
        worst_fd = max(worst_fd, rel_err(fd, closed, scale))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-10 and worst_fd <= 1e-4 and elapsed <= 10.0
    report(
        "criterion 1 (three-way agreement, 200 configs)",
        ok,
        f"closed-vs-direct {worst_closed:.3e} (tol 1e-10), "
        f"fd-vs-closed {worst_fd:.3e} (tol 1e-4), {elapsed:.2f}s",
    )


def test_criterion_2_sign_region_map():
    t0 = time.perf_counter()
    p_values = np.round(np.arange(0.2, 4.0 + 0.025, 0.05), 12)
    mismatches = 0
    checked = 0
    for p in p_values:
        if p == 1.0:
            continue
        for n in range(1, 7):
            cls = sign_region(float(p), n)
            if p == 2.0 or n == 1 or p + n == 2.0:
                expected = SignClass.IDENTICALLY_ZERO
            else:
                factor = -(p - 2) * (p + n - 2) / (p - 1)
                expected = (
                    SignClass.NON_POSITIVE if factor < 0 else SignClass.NON_NEGATIVE
                )
            mismatches += cls is not expected
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    report(
        "criterion 2 (sign-region map)",
        ok,
        f"{mismatches} mismatches over {checked} grid points, {elapsed:.3f}s",
    )


def test_criterion_3_concave_terms_preserve_sign():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(100):
        p = rng.choice([2.5, 3.0, 4.0])
        n = int(rng.choice([2, 3]))
        params = Params(p, n)
        ps = random_pole_set(rng, params, max_poles=5)
        m = rng.normal(size=(n, n))
        k = QuadraticTerm(-(m @ m.T) - 0.1 * np.eye(n), b=rng.normal(size=n))
        for _ in range(5):
            x = random_point(rng, ps)
            worst = max(worst, delta_p_direct(ps, k, x))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    report(
        "criterion 3 (concave term keeps supersolution sign, 100 pairs)",
        ok,
        f"max value {worst:.3e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_4_borderline_counterexample():
    rng = np.random.default_rng(SEED + 2)
    worst_sum = 0.0
    worst_op = -np.inf
    all_ok = True
    for p, n in [(3.0, 2), (3.0, 3), (4.0, 5)]:
        m = p + n - 2
        a = np.diag([1.0 - m] + [1.0] * (n - 1))
        k = QuadraticTerm(a)
        hess = 2.0 * a
        eigs = np.linalg.eigvalsh(hess)
        all_ok &= eigs.max() > 1e-9  # genuinely not concave
        all_ok &= eigenvalue_criterion(hess, p)
        worst_sum = max(worst_sum, abs(criterion_sum(hess, p)))
        for _ in range(1000):
            xi = rng.normal(size=n)
            worst_op = max(worst_op, operator_term(k, p, xi, np.zeros(n)))
    ok = all_ok and worst_sum <= 1e-12 and worst_op <= 1e-12
    report(
        "criterion 4 (borderline quadratic counterexample)",
        ok,
        f"criterion-sum residual {worst_sum:.3e}, "
        f"max operator value over 3000 directions {worst_op:.3e} (tol 1e-12)",
    )


def test_criterion_5_comparison_principle():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(65, 65))
    worst_gap = np.inf
    shift_gap = np.inf
    for i in range(10):
        p = [2.5, 3.0][i % 2]
        params = Params(p, 2)
        num = int(rng.integers(1, 4))
        ps = PoleSet(
            rng.uniform(0.2, 1.5, size=num),
            rng.uniform(-0.5, 0.5, size=(num, 2)),
            params,
        )
        m = rng.normal(size=(2, 2))
        k = QuadraticTerm(-(m @ m.T), b=rng.normal(size=2) * 0.3)
        rep = comparison_check(ps, k, dom)
        worst_gap = min(worst_gap, rep.min_gap)
        if i < 2:
            rep_shift = comparison_check(ps, k, dom, shift=-1.0)
            shift_gap = min(shift_gap, rep_shift.min_gap)
    elapsed = time.perf_counter() - t0
    ok = worst_gap >= -1e-3 and shift_gap >= 1.0 - 1e-3 and elapsed <= 120.0
    report(
        "criterion 5 (comparison principle, 10 configs on 65x65)",
        ok,
        f"min gap {worst_gap:.3e} (tol -1e-3), shifted control min gap "
        f"{shift_gap:.6f} (>= 0.999), {elapsed:.1f}s",
    )


def test_criterion_6_solver_validation():
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(65, 65))
    nodes = dom.nodes()
    harmonic = nodes[..., 0] ** 2 - nodes[..., 1] ** 2
    err_harm = np.abs(solve_p_harmonic(dom, harmonic, 2.0).values - harmonic).max()
    err_affine = 0.0
    for p in (2.0, 3.0, 4.0):
        data = 1.7 * nodes[..., 0] - 0.4
        err_affine = max(
            err_affine, np.abs(solve_p_harmonic(dom, data, p).values - data).max()
        )
    ok = err_harm <= 5e-3 and err_affine <= 1e-8
    report(
        "criterion 6 (solver validation)",
        ok,
        f"harmonic-polynomial sup error {err_harm:.3e} (tol 5e-3), "
        f"affine sup error {err_affine:.3e} (tol 1e-8)",
    )


def test_criterion_7_evolution_defect_identity():
    k = EvolutionKernel(kind=BARENBLATT, params=Params(3.0, 2))
    t = 1.0
    rs = support_radius(k, t)
    rsc = sign_change_radius(k, t)
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    samples = 0
    while samples < 50:
        r = rng.uniform(0.05, 0.9) * rs
        if abs(r - rsc) < 0.05 * rs:
            continue  # closed form crosses zero here; relative error is meaningless
        theta = rng.uniform(0, 2 * np.pi)
        x = r * np.array([np.cos(theta), np.sin(theta)])
        for a in (0.5, 2.0):
            closed = barenblatt_defect(k, a, x, t)
            fd = barenblatt_defect_fd(k, a, x, t)
            worst = max(worst, abs(closed - fd) / max(abs(closed), abs(fd)))
        samples += 1
    ok = worst <= 1e-3
    report(
        "criterion 7 (evolution defect identity, 50 points x 2 amplitudes)",
        ok,
        f"worst fd-vs-closed relative error {worst:.3e} (tol 1e-3)",
    )


def test_criterion_8_sign_change_radius_and_two_bump():
    worst_radius = 0.0
    for p, n, big_c, t in [(3.0, 2, 1.0, 1.0), (4.0, 3, 2.0, 0.5)]:
        k = EvolutionKernel(kind=BARENBLATT, params=Params(p, n), big_c=big_c)

        def bt(r):
            x = np.zeros(n)
            x[0] = r
            return kernel_time_derivative(k, x, t)

        rs = support_radius(k, t)
        root = brentq(bt, 0.05 * rs, 0.99 * rs, xtol=1e-10)
        predicted = sign_change_radius(k, t)
        worst_radius = max(worst_radius, abs(root - predicted) / predicted)

    kw = EvolutionKernel(kind=HOMOGENEOUS, params=Params(3.0, 2))
    y = np.array([1.2, 0.0])
    signs = {np.sign(two_bump_defect(kw, y, float(t))) for t in np.geomspace(0.05, 50, 40)}
    has_sign_change = {-1.0, 1.0} <= signs
    closed = two_bump_defect(kw, y, 1.0)
    fd = two_bump_defect_fd(kw, y, 1.0)
    two_bump_err = abs(closed - fd) / max(abs(closed), abs(fd))
    ok = worst_radius <= 0.01 and has_sign_change and two_bump_err <= 1e-3
    report(
        "criterion 8 (sign-change radius + two-bump defect)",
        ok,
        f"bisected radius relative error {worst_radius:.3e} (tol 1e-2), "
        f"two-bump sign change in t: {has_sign_change}, "
        f"two-bump fd-vs-closed {two_bump_err:.3e} (tol 1e-3)",
    )
