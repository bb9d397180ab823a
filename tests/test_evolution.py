"""Evolutionary kernels: source solutions, defect identities, sign changes."""

import numpy as np
import pytest
from scipy.optimize import brentq

from plap.evolution import (
    BARENBLATT,
    HOMOGENEOUS,
    EvolutionKernel,
    barenblatt_defect,
    barenblatt_defect_fd,
    kernel_spatial_gradient,
    kernel_time_derivative,
    kernel_value,
    near_support_edge,
    sign_change_radius,
    support_radius,
    two_bump_defect,
    two_bump_defect_fd,
    two_bump_gradient,
    two_bump_value,
)


from plap import Params
from plap.errors import UnsupportedConfigurationError


def kb(p=3.0, n=2, big_c=1.0):
    return EvolutionKernel(kind=BARENBLATT, params=Params(p, n), big_c=big_c)


def kh(p=3.0, n=2, small_c=1.0):
    return EvolutionKernel(kind=HOMOGENEOUS, params=Params(p, n), small_c=small_c)


def test_kernel_validation():
    with pytest.raises(ValueError):
        EvolutionKernel(kind=BARENBLATT, params=Params(2.0, 2))
    with pytest.raises(ValueError):
        EvolutionKernel(kind="other", params=Params(3.0, 2))


def test_barenblatt_center_value():
    # at the origin the truncated bracket equals C, so B = t^{-n beta} C^{(p-1)/(p-2)}
    k = kb()
    assert kernel_value(k, np.zeros(2), 1.0) == pytest.approx(1.0, rel=1e-15)
    beta = k.beta
    assert kernel_value(k, np.zeros(2), 2.0) == pytest.approx(2.0 ** (-2 * beta), rel=1e-14)


def test_barenblatt_beta():
    assert kb(p=3.0, n=2).beta == pytest.approx(1.0 / 5.0, rel=1e-15)
    assert kb(p=4.0, n=3).beta == pytest.approx(1.0 / 10.0, rel=1e-15)


def test_barenblatt_compact_support():
    k = kb()
    rs = support_radius(k, 1.0)
    x = np.array([rs * 1.01, 0.0])
    assert kernel_value(k, x, 1.0) == 0.0
    assert kernel_time_derivative(k, x, 1.0) == 0.0
    assert np.all(kernel_spatial_gradient(k, x, 1.0) == 0.0)
    x_in = np.array([rs * 0.9, 0.0])
    assert kernel_value(k, x_in, 1.0) > 0.0


def test_homogeneous_value_closed_form():
    # |x| = t^{1/p}, c=1, p=3: W = t^{-n/(p(p-1))} exp(-((p-1)/p)(1/p)^{1/(p-1)})
    k = kh(p=3.0, n=2)
    x = np.array([1.0, 0.0])
    expected = np.exp(-(2.0 / 3.0) * np.sqrt(1.0 / 3.0))
    assert expected == pytest.approx(0.6805185625448723, rel=1e-15)
    assert kernel_value(k, x, 1.0) == pytest.approx(expected, rel=1e-13)


def test_homogeneous_scaling_law():
    # W(x, t) = t^{-n/(p(p-1))} W(x / t^{1/p}, 1)
    k = kh(p=4.0, n=3)
    x = np.array([0.7, -0.2, 0.4])
    t = 3.0
    scale = t ** (-3.0 / (4.0 * 3.0))
    assert kernel_value(k, x, t) == pytest.approx(
        scale * kernel_value(k, x / t ** 0.25, 1.0), rel=1e-13
    )


@pytest.mark.parametrize("kind,pt", [(BARENBLATT, (3.0, 2)), (BARENBLATT, (4.0, 3)),
                                     (HOMOGENEOUS, (3.0, 2)), (HOMOGENEOUS, (2.5, 2))])
def test_time_derivative_fd_oracle(kind, pt):
    p, n = pt
    k = EvolutionKernel(kind=kind, params=Params(p, n))
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = 1.0 + rng.random()
        x = rng.normal(size=n) * 0.4
        if kind == BARENBLATT and np.linalg.norm(x) > 0.8 * support_radius(k, t):
            continue
        wt = kernel_time_derivative(k, x, t)
        h = 1e-6 * t
        fd = (kernel_value(k, x, t + h) - kernel_value(k, x, t - h)) / (2 * h)
        assert wt == pytest.approx(fd, rel=2e-6, abs=1e-12)


def test_spatial_gradient_fd_oracle():
    k = kb()
    x = np.array([0.4, -0.3])
    g = kernel_spatial_gradient(k, x, 1.0)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (kernel_value(k, x + e, 1.0) - kernel_value(k, x - e, 1.0)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_time_derivative_sign_change_exists():
    # B_t > 0 near the support edge, < 0 at the center
    k = kb()
    assert kernel_time_derivative(k, np.zeros(2), 1.0) < 0.0
    edge = 0.97 * support_radius(k, 1.0)
    assert kernel_time_derivative(k, np.array([edge, 0.0]), 1.0) > 0.0


def test_defect_identity_trivia():
    k = kb()
    x = np.array([0.5, 0.1])
    assert barenblatt_defect(k, 1.0, x, 1.0) == 0.0
    # defect = (a^{p-1} - a) B_t
    a = 2.0
    bt = kernel_time_derivative(k, x, 1.0)
    assert barenblatt_defect(k, a, x, 1.0) == pytest.approx((a ** 2 - a) * bt, rel=1e-14)


@pytest.mark.parametrize("a,p", [(2.0, 1025.0), (1e10, 40.0)])
def test_a_scale_factor_whose_power_overflows_is_unsupported(a, p):
    with pytest.raises(UnsupportedConfigurationError, match="overflows a double"):
        barenblatt_defect(kb(p=p), a, np.array([0.1, 0.0]), 1.0)


@pytest.mark.parametrize("p,n", [(3.0, 2), (4.0, 3)])
def test_defect_identity_against_fd(p, n):
    k = EvolutionKernel(kind=BARENBLATT, params=Params(p, n))
    t = 1.0
    rs = support_radius(k, t)
    rsc = sign_change_radius(k, t)
    rng = np.random.default_rng(11)
    for _ in range(8):
        r = rng.uniform(0.1, 0.85) * rs
        if abs(r - rsc) < 0.05 * rs:
            continue
        x = np.zeros(n)
        x[0] = r
        closed = barenblatt_defect(k, 2.0, x, t)
        fd = barenblatt_defect_fd(k, 2.0, x, t)
        denom = max(abs(closed), abs(fd), 1e-10)
        assert abs(closed - fd) / denom <= 1e-3


@pytest.mark.parametrize("p,n", [(2.5, 2), (3.0, 2), (4.0, 3), (6.0, 2)])
def test_the_fd_defect_holds_near_the_origin(p, n):
    """At 1e-3 of the support radius: B is not C^2 at the origin, so the
    defect differences the flux |grad(a B)|^{p-2} grad(a B), which gives
    the closed form to 1e-6.  The divergence identity on the Jacobian of
    grad(a B) is off by 1.6e-4 to 1.3e-3 there."""
    k = kb(p, n, big_c=1.5)
    x = np.zeros(n)
    x[0] = 1e-3 * support_radius(k, 0.7)
    closed = barenblatt_defect(k, 2.0, x, 0.7)
    assert abs(barenblatt_defect_fd(k, 2.0, x, 0.7) - closed) <= 1e-6 * abs(closed)


def test_sign_change_radius_value():
    # (C p n)^{(p-1)/p} beta^{(p-2)/p} t^beta for C=1, p=3, n=2, t=1
    k = kb()
    r = sign_change_radius(k, 1.0)
    assert r == pytest.approx((6.0) ** (2.0 / 3.0) * (0.2) ** (1.0 / 3.0), rel=1e-14)
    assert r == pytest.approx(1.9309787692112594, rel=1e-12)
    assert r < support_radius(k, 1.0)


def test_sign_change_radius_scaling():
    k = kb(p=4.0, n=3)
    r1 = sign_change_radius(k, 1.0)
    r2 = sign_change_radius(k, 2.0)
    assert r2 / r1 == pytest.approx(2.0 ** k.beta, rel=1e-13)


def test_sign_change_radius_by_bisection():
    k = kb()
    t = 1.0

    def bt(r):
        return kernel_time_derivative(k, np.array([r, 0.0]), t)

    rs = support_radius(k, t)
    root = brentq(bt, 0.1 * rs, 0.99 * rs, xtol=1e-12)
    assert sign_change_radius(k, t) == pytest.approx(root, rel=1e-9)


def test_two_bump_symmetry():
    k = kh(p=3.0, n=2)
    y = np.array([1.5, 0.0])
    t = 1.0
    assert two_bump_value(k, y, np.zeros(2), t) == pytest.approx(
        2.0 * kernel_value(k, y, t), rel=1e-14
    )
    g = two_bump_gradient(k, y, np.zeros(2), t)
    assert np.abs(g).max() == 0.0


def test_two_bump_defect_closed_form():
    # at the midpoint: defect = 2 (p-1) (2 W)^{p-2} W_t
    k = kh(p=3.0, n=2)
    y = np.array([1.2, 0.0])
    t = 1.0
    w = kernel_value(k, y, t)
    wt = kernel_time_derivative(k, y, t)
    p = 3.0
    expected = 2.0 * (p - 1.0) * (2.0 * w) ** (p - 2.0) * wt
    assert two_bump_defect(k, y, t) == pytest.approx(expected, rel=1e-13)


def test_two_bump_defect_sign_follows_time_derivative():
    # the defect shares the sign of W_t at the bump offset, and is strictly
    # negative when the bumps are close relative to t^{1/p}
    k = kh(p=3.0, n=2)
    t = 1.0
    for sep in (0.2, 0.5, 1.0, 1.5, 2.0):
        y = np.array([sep, 0.0])
        d = two_bump_defect(k, y, t)
        wt = kernel_time_derivative(k, y, t)
        assert np.sign(d) == np.sign(wt)
    assert two_bump_defect(k, np.array([0.2, 0.0]), t) < 0.0


def test_barenblatt_requires_positive_time():
    k = kb()
    with pytest.raises(ValueError):
        kernel_value(k, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        kernel_value(k, np.zeros(2), -1.0)


def test_time_derivative_refuses_the_support_edge_margin_with_a_plap_error():
    from plap.errors import PlapError
    from plap.evolution import EDGE_MARGIN_STEPS, TIME_FD_REL_STEP

    k = kb()
    rs = support_radius(k, 1.0)
    margin = EDGE_MARGIN_STEPS * TIME_FD_REL_STEP * (1.0 + rs)
    for r in (rs, rs - 0.5 * margin, rs + 0.5 * margin, 3.5568933):
        assert near_support_edge(k, r, 1.0)
        with pytest.raises(PlapError):
            kernel_time_derivative(k, np.array([r, 0.0]), 1.0)
    for r in (rs - 2 * margin, rs + 2 * margin):
        assert not near_support_edge(k, r, 1.0)
        assert np.isfinite(kernel_time_derivative(k, np.array([r, 0.0]), 1.0))


KERNELS = [(BARENBLATT, 3.0, 2), (BARENBLATT, 4.0, 3), (BARENBLATT, 2.5, 1), (BARENBLATT, 7.0, 2),
           (HOMOGENEOUS, 3.0, 2), (HOMOGENEOUS, 4.0, 3), (HOMOGENEOUS, 2.5, 1), (HOMOGENEOUS, 7.0, 2)]


def batch(k, t, count=60):
    """Points (count, n): the origin, then random points reaching past the
    Barenblatt support, none in its edge margin."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(count, k.params.n)) * 2.0
    x[0] = 0.0
    if k.kind == BARENBLATT:
        x = x[~near_support_edge(k, np.linalg.norm(x, axis=1), t)]
        assert (np.linalg.norm(x, axis=1) > support_radius(k, t)).any()
    return x


@pytest.mark.parametrize("kind,p,n", KERNELS)
def test_a_batch_gives_the_one_point_calls_bit_for_bit(kind, p, n):
    k = EvolutionKernel(kind=kind, params=Params(p, n), big_c=1.3, small_c=0.7)
    t = 1.7
    x = batch(k, t)
    cases = [(fn, x) for fn in (kernel_value, kernel_time_derivative, kernel_spatial_gradient)]
    if kind == BARENBLATT:
        for a in (0.5, 1.0, 2.0):
            cases += [(lambda k, x, t, a=a: barenblatt_defect(k, a, x, t), x),
                      (lambda k, x, t, a=a: barenblatt_defect_fd(k, a, x, t), x)]
    else:  # the bump offset y must be nonzero
        cases += [(two_bump_defect, x[1:]), (two_bump_defect_fd, x[1:])]
    for fn, points in cases:
        rows = fn(k, points, t)
        assert rows.shape == points.shape[: 2 if fn is kernel_spatial_gradient else 1]
        singles = np.array([fn(k, z, t) for z in points])
        np.testing.assert_array_equal(rows, singles)
        assert (np.signbit(rows) == np.signbit(singles)).all()


@pytest.mark.parametrize("kind,p,n", KERNELS[:2] + KERNELS[4:6])
def test_a_time_array_against_one_point_gives_the_per_time_calls(kind, p, n):
    k = EvolutionKernel(kind=kind, params=Params(p, n))
    x = np.full(n, 0.4)
    times = np.geomspace(0.3, 3.0, 7)
    for fn in (kernel_value, kernel_time_derivative, kernel_spatial_gradient):
        np.testing.assert_array_equal(fn(k, x, times), np.array([fn(k, x, t) for t in times]))


def test_a_batch_with_a_row_in_the_support_edge_margin_is_refused():
    from plap.errors import UndefinedOperatorError

    k = kb()
    rs = support_radius(k, 1.0)
    x = np.array([[0.5, 0.0], [rs, 0.0], [rs + 1.0, 0.0]])
    with pytest.raises(UndefinedOperatorError):
        kernel_time_derivative(k, x, 1.0)
    with pytest.raises(UndefinedOperatorError):
        barenblatt_defect(k, 2.0, x, 1.0)
    assert np.isfinite(kernel_time_derivative(k, x[[0, 2]], 1.0)).all()


@pytest.mark.parametrize("times", [[1.0, 0.0, 2.0], [1.0, -1.0], [np.nan, 1.0]])
def test_a_time_array_with_an_entry_not_positive_is_refused(times):
    for fn in (kernel_value, kernel_time_derivative, kernel_spatial_gradient):
        with pytest.raises(ValueError, match="time must be positive"):
            fn(kb(), np.zeros(2), np.array(times))
    with pytest.raises(ValueError, match="time must be positive"):
        support_radius(kb(), np.array(times))


def test_points_of_the_wrong_dimension_are_refused():
    k = kh(n=2)
    for x in (np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match=r"expected \(\.\.\., 2\)"):
            kernel_value(k, x, 1.0)
    with pytest.raises(ValueError):
        two_bump_defect(k, [0.5, 0.2, 0.3], 1.0)


def test_exact_zero_defects_are_positive_zeros():
    # p = 4, n = 2, t = 4: r_c = 2 exactly, where B_t rounds to exactly 0
    k = kb(p=4.0, n=2)
    assert sign_change_radius(k, 4.0) == 2.0
    x = np.array([[2.0, 0.0], [5.0, 0.0], [0.0, 6.0]])  # r_c, then outside the support
    assert (kernel_time_derivative(k, x, 4.0) == 0.0).all()
    for a in (0.5, 1.0):
        d = barenblatt_defect(k, a, x, 4.0)
        assert d.shape == (3,) and (d == 0.0).all() and not np.signbit(d).any()
    assert barenblatt_defect(k, 1.0, x[None], 4.0).shape == (1, 3)
