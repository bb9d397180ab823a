"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line with the observed worst-case number.

Criteria 1, 3 and 7, and the radius half of criterion 8, run the
randomized suites of ``plap.verify`` at ``SEED`` and report their checks;
they fail if any check of the suite fails.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from plap import (
    HOMOGENEOUS,
    EvolutionKernel,
    GridDomain,
    Params,
    PoleSet,
    QuadraticTerm,
    SignClass,
    comparison_check,
    criterion_sum,
    eigenvalue_criterion,
    operator_term,
    solve_p_harmonic,
    two_bump_defect,
    two_bump_defect_fd,
)
from plap.superpose import sign_classes
from plap.verify import DEFAULT_SEED, verify_concave, verify_evolution, verify_superpose

SEED = DEFAULT_SEED


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def timed_suite(suite):
    """The suite's report at SEED, its checks by name and its wall time."""
    t0 = time.perf_counter()
    rep = suite(SEED)
    return rep, {c.name: c for c in rep.checks}, time.perf_counter() - t0


def residual(check):
    return f"{check.worst_residual:.3e} (tol {check.tolerance:g})"


def suite_failures(rep):
    failed = [c.name for c in rep.checks if not c.passed]
    return f", failed checks: {', '.join(failed)}" if failed else ""


def test_criterion_1_three_way_agreement():
    rep, checks, elapsed = timed_suite(verify_superpose)
    ok = rep.passed and elapsed <= 10.0
    report(
        "criterion 1 (three-way agreement, 200 configs)",
        ok,
        f"closed-vs-direct {residual(checks['three_way_direct_vs_closed'])}, "
        f"fd-vs-closed {residual(checks['three_way_fd_vs_closed'])}, "
        f"{elapsed:.2f}s{suite_failures(rep)}",
    )


def test_criterion_2_sign_region_map():
    t0 = time.perf_counter()
    p_values = np.round(np.arange(0.2, 4.0 + 0.025, 0.05), 12)
    p_values = p_values[p_values != 1.0]
    classes = sign_classes(p_values[:, None], np.arange(1, 7))  # one call for the grid
    mismatches = 0
    checked = 0
    for p, row in zip(p_values, classes):
        for n, cls in enumerate(map(SignClass, row), start=1):
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
    rep, checks, elapsed = timed_suite(verify_concave)
    ok = rep.passed and elapsed <= 10.0
    report(
        "criterion 3 (concave term keeps supersolution sign, 100 pairs)",
        ok,
        f"max value {residual(checks['concave_superposition_sign'])}, "
        f"{elapsed:.2f}s{suite_failures(rep)}",
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
            worst_op = max(worst_op, operator_term(k.eval(np.zeros(n))[2], p, xi))
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
    err_harm = np.abs(solve_p_harmonic(dom, harmonic, 2.0) - harmonic).max()
    err_affine = 0.0
    for p in (2.0, 3.0, 4.0):
        data = 1.7 * nodes[..., 0] - 0.4
        err_affine = max(
            err_affine, np.abs(solve_p_harmonic(dom, data, p) - data).max()
        )
    ok = err_harm <= 5e-3 and err_affine <= 1e-8
    report(
        "criterion 6 (solver validation)",
        ok,
        f"harmonic-polynomial sup error {err_harm:.3e} (tol 5e-3), "
        f"affine sup error {err_affine:.3e} (tol 1e-8)",
    )


def test_criterion_7_evolution_defect_identity():
    rep, checks, elapsed = timed_suite(verify_evolution)
    report(
        "criterion 7 (evolution defect identity, 2 kernels x 50 points x 2 amplitudes)",
        rep.passed,
        f"worst fd-vs-closed relative error {residual(checks['barenblatt_defect_identity'])}, "
        f"{elapsed:.2f}s{suite_failures(rep)}",
    )


def test_criterion_8_sign_change_radius_and_two_bump():
    rep, checks, _ = timed_suite(verify_evolution)
    kw = EvolutionKernel(kind=HOMOGENEOUS, params=Params(3.0, 2))
    y = np.array([1.2, 0.0])
    signs = {np.sign(two_bump_defect(kw, y, float(t))) for t in np.geomspace(0.05, 50, 40)}
    has_sign_change = {-1.0, 1.0} <= signs
    closed = two_bump_defect(kw, y, 1.0)
    fd = two_bump_defect_fd(kw, y, 1.0)
    two_bump_err = abs(closed - fd) / max(abs(closed), abs(fd))
    ok = rep.passed and has_sign_change and two_bump_err <= 1e-3
    report(
        "criterion 8 (sign-change radius + two-bump defect)",
        ok,
        f"bracketed radius relative error {residual(checks['sign_change_radius_bracketing'])}, "
        f"two-bump sign change in t: {has_sign_change}, "
        f"two-bump fd-vs-closed {two_bump_err:.3e} (tol 1e-3){suite_failures(rep)}",
    )
