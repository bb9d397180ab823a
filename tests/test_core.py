"""Radial calculus against closed forms and finite-difference oracles.

Gradients and Hessians of one translated fundamental solution come from
``evaluate`` on a one-pole PoleSet with unit weight."""

import math

import numpy as np
import pytest

from plap import (
    Params,
    PoleSet,
    delta_p_direct,
    evaluate,
    fundamental_profile,
)
from plap import evolution, superpose
from plap.concave import QuadraticTerm
from plap.core import _profile_slope, axis_norm, fd_jacobian
from plap.errors import PoleSingularityError


def fd_derivative(f, r, h=1e-5):
    return (f(r + h) - f(r - h)) / (2 * h)


def one_pole(pa, x, y):
    """Value, gradient and Hessian of w(x - y)."""
    return evaluate(PoleSet([1.0], [y], pa), None, x)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(p=1.0, n=3)
    with pytest.raises(ValueError):
        Params(p=2.0, n=0)
    with pytest.raises(ValueError):
        Params(p=2.0, n=3, c=0.0)
    for p, n, c in ((math.nan, 2, 1.0), (3.0, math.inf, 1.0), (math.inf, 2, 1.0),
                    (3.0, 2, math.inf), (3.0, 2, math.nan), (-math.inf, 2, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            Params(p, n, c)


def test_big_c_recomputed():
    pa = Params(p=3.0, n=2, c=2.0)
    assert pa.big_c_at(pa.p) == 2.0 * (3 - 2) * (3 + 2 - 2) / (3 - 1)
    np.testing.assert_array_equal(pa.big_c_at(np.array([3.0, 4.0])), [pa.big_c_at(3.0), pa.big_c_at(4.0)])


def test_newtonian_case():
    v, dv, _ = fundamental_profile(Params(2, 3, 1.0), 2.0)
    assert v == pytest.approx(0.5, abs=1e-15)
    assert dv == pytest.approx(-0.25, abs=1e-15)


def test_log_branch_p_equals_n():
    v, dv, _ = fundamental_profile(Params(3, 3, 1.0), 1.0)
    assert v == 0.0
    assert dv == -1.0


def test_profile_derivative_fd_oracle():
    pa = Params(4, 2, 1.0)
    r = np.geomspace(0.1, 10, 17)
    _, dv, _ = fundamental_profile(pa, r)
    fd = fd_derivative(lambda s: fundamental_profile(pa, s)[0], r)
    assert np.all(np.abs(dv - fd) <= 1e-6 * np.abs(dv))


def test_profile_keeps_shape():
    pa = Params(3.0, 2, 1.0)
    r = np.geomspace(0.1, 10, 12).reshape(3, 4)
    batched = fundamental_profile(pa, r)
    for arr in batched:
        assert arr.shape == (3, 4)
    for idx in np.ndindex(r.shape):
        single = fundamental_profile(pa, r[idx])
        assert [float(a) for a in single] == [float(a[idx]) for a in batched]


def test_negative_radius_rejected():
    with pytest.raises(PoleSingularityError):
        fundamental_profile(Params(2, 3), -1.0)
    with pytest.raises(PoleSingularityError):
        fundamental_profile(Params(3, 2), np.array([1.0, -1e-300]))
    with pytest.raises(PoleSingularityError):
        fundamental_profile(Params(3, 2), math.nan)


@pytest.mark.parametrize(
    "p,n,at_pole",
    [
        (2.0, 3, math.inf),  # 1 < p < n
        (3.0, 3, math.inf),  # log case p = n
        (1.5, 2, math.inf),
        (3.0, 2, 0.0),  # p > n: the pole contributes its limit 0
        (2.5, 1, 0.0),
        (0.5, 2, 0.0),  # p < 1: (p-n)/(p-1) > 0
    ],
)
def test_zero_radius_pole_rule(p, n, at_pole):
    pa = Params(p, n, 1.0)
    v, dv, ddv = fundamental_profile(pa, np.array([0.0, 2.0]))
    assert v[0] == at_pole
    assert math.isnan(dv[0]) and math.isnan(ddv[0])
    off = fundamental_profile(pa, 2.0)
    assert [v[1], dv[1], ddv[1]] == [float(a) for a in off]


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 6.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ode_residual(p, n):
    r = np.geomspace(1e-3, 1e3, 25)
    _, dv, ddv = fundamental_profile(Params(p, n, 1.0), r)
    residual = (p - 1) * ddv + (n - 1) * dv / r
    scale = np.maximum(np.maximum(np.abs((p - 1) * ddv), np.abs(dv / r)), 1e-300)
    assert np.all(np.abs(residual) <= 1e-12 * scale)


def test_ode_residual_p_equals_n():
    r = np.geomspace(1e-3, 1e3, 9)
    for n in range(2, 7):
        _, dv, ddv = fundamental_profile(Params(float(n), n, 1.0), r)
        residual = (n - 1) * ddv + (n - 1) * dv / r
        assert np.all(np.abs(residual) <= 1e-12 * np.abs((n - 1) * ddv))


def test_gradient_newtonian():
    g = one_pole(Params(2, 3, 1.0), [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]).gradient
    np.testing.assert_allclose(g, [-0.25, 0.0, 0.0], atol=1e-15)


def test_gradient_norm_equals_abs_dv():
    rng = np.random.default_rng(7)
    pa = Params(3.5, 4, 1.0)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        g = one_pole(pa, x, y).gradient
        dv = fundamental_profile(pa, np.linalg.norm(x - y))[1]
        assert abs(np.linalg.norm(g) - abs(dv)) <= 1e-14 * abs(dv)


def test_gradient_fd_oracle():
    rng = np.random.default_rng(1)
    pa = Params(3.5, 4, 1.0)
    h = 1e-5
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        if np.linalg.norm(x - y) < 0.2:
            continue
        g = one_pole(pa, x, y).gradient
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (
                fundamental_profile(pa, np.linalg.norm(x + e - y))[0]
                - fundamental_profile(pa, np.linalg.norm(x - e - y))[0]
            ) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(np.abs(g).max(), 1e-12)


def test_gradient_at_pole_is_error():
    pa, y = Params(2, 3), [1.0, 0.0, 0.0]
    assert one_pole(pa, y, y).gradient is None
    with pytest.raises(PoleSingularityError):
        delta_p_direct(evaluate(PoleSet([1.0], [y], pa), None, y))


def test_hessian_trace_identity():
    rng = np.random.default_rng(2)
    for p, n in [(3.0, 2), (2.5, 3), (4.0, 5)]:
        pa = Params(p, n, 1.0)
        x, y = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
        r = np.linalg.norm(x - y)
        hess = one_pole(pa, x, y).hessian
        _, dv, ddv = fundamental_profile(pa, r)
        expected = ddv + (n - 1) * dv / r
        assert abs(np.trace(hess) - expected) <= 1e-12 * abs(expected)


def test_hessian_radial_eigenvector():
    pa = Params(3.0, 3, 1.0)
    x, y = np.array([1.0, 2.0, -0.5]), np.array([0.3, 0.1, 0.2])
    d = x - y
    hess = one_pole(pa, x, y).hessian
    ddv = fundamental_profile(pa, np.linalg.norm(d))[2]
    np.testing.assert_allclose(hess @ d, ddv * d, rtol=1e-12)


def test_hessian_fd_oracle():
    pa = Params(3.0, 2, 1.0)
    rng = np.random.default_rng(3)
    h = 1e-4

    def value(z, y):
        return fundamental_profile(pa, np.linalg.norm(z - y))[0]

    for _ in range(5):
        x, y = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        if np.linalg.norm(x - y) < 0.3:
            continue
        hess = one_pole(pa, x, y).hessian
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i], ej[j] = h, h
                fd = (
                    value(x + ei + ej, y)
                    - value(x + ei - ej, y)
                    - value(x - ei + ej, y)
                    + value(x - ei - ej, y)
                ) / (4 * h * h)
                assert abs(hess[i, j] - fd) <= 1e-4 * max(np.abs(hess).max(), 1.0)


def test_rotation_equivariance():
    rng = np.random.default_rng(4)
    pa = Params(2.5, 3, 1.0)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        if np.linalg.norm(x - y) < 0.2:
            continue
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        g = one_pole(pa, x, y).gradient
        g_rot = one_pole(pa, q @ x, q @ y).gradient
        np.testing.assert_allclose(g_rot, q @ g, atol=1e-13 * np.linalg.norm(g))


def test_fd_jacobian_one_batched_call():
    # central differences are exact on quadratic fields: J = A + 2 z_0 e_0 e_0^T
    a = np.array([[1.5, -0.2, 0.3], [0.4, -2.0, 0.1], [0.0, 0.7, 0.25]])
    x = np.array([0.3, -1.2, 0.8])
    calls = []

    def field(z):
        calls.append(z.shape)
        f = z @ a.T
        f[:, 0] += z[:, 0] ** 2
        return f

    jac, mean = fd_jacobian(field, x, 1e-3)
    assert calls == [(6, 3)]
    want = a.copy()
    want[0, 0] += 2 * x[0]
    np.testing.assert_allclose(jac, want, rtol=1e-9, atol=1e-12)
    # the mean of z_0^2 over the stencil is x_0^2 + h^2 / n
    h = 1e-3 * (1 + np.linalg.norm(x))
    np.testing.assert_allclose(mean, field(x[None])[0] + [h**2 / 3, 0, 0], rtol=1e-12)


def reference_fd_divergence(flux, x, step):
    """The central-difference divergence of a flux on its own copy of the
    stencil ``fd_jacobian`` takes: x + h e_j, then x - h e_j, with
    h = step (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = (step * (1.0 + np.linalg.norm(x, axis=-1)))[..., None]
    shifts = h[..., None] * np.eye(n)
    f = flux(np.concatenate([x[..., None, :] + shifts, x[..., None, :] - shifts], axis=-2))
    diag = np.diagonal(f[..., :n, :], axis1=-2, axis2=-1) - np.diagonal(
        f[..., n:, :], axis1=-2, axis2=-1
    )
    out = np.sum(diag / (2 * h), axis=-1)
    return out if out.ndim else float(out)


def flux_form_delta_p(ps, k, x, step=superpose.DEFAULT_FD_STEP):
    """div(|g|^{p-2} g) by central differences of the flux: the product
    rule that ``delta_p_fd`` and ``delta_p_direct`` take for granted when
    they form |g|^{p-2} ((p-2) e^T J e + tr J)."""
    p = ps.params.p
    y, a = ps.locations[..., None, :, :], ps.weights[..., None, :]

    def flux(z):
        d = z[..., None, :] - y
        r = np.linalg.norm(d, axis=-1)
        g = np.einsum("...m,...mj->...j", a * _profile_slope(ps.params, r) / r, d)
        if k is not None:
            g += k.eval(z)[1]
        return np.linalg.norm(g, axis=-1, keepdims=True) ** (p - 2) * g

    return reference_fd_divergence(flux, x, step)


def reference_flux(g, p):
    return np.linalg.norm(g, axis=-1, keepdims=True) ** (p - 2) * g


def reference_barenblatt_defect_fd(k, a, x, t):
    stencil_t = np.expand_dims(t, -1)
    gradient, value = evolution.kernel_spatial_gradient, evolution.kernel_value
    lap = reference_fd_divergence(
        lambda z: reference_flux(a * gradient(k, z, stencil_t), k.params.p), x, evolution.SPACE_FD_STEP
    )
    dt = evolution.TIME_FD_REL_STEP * t
    bt = (a * value(k, x, t + dt) - a * value(k, x, t - dt)) / (2 * dt)
    return lap - bt


def reference_two_bump_defect_fd(k, y, t):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    p = k.params.p
    x = np.zeros_like(y)
    x[..., 0] = evolution.TWO_BUMP_OFFSET
    dt = evolution.TIME_FD_REL_STEP * t

    def signed_power(v):
        return np.power(np.abs(v), p - 2) * v

    term_t = (
        signed_power(evolution.two_bump_value(k, y, x, t + dt))
        - signed_power(evolution.two_bump_value(k, y, x, t - dt))
    ) / (2 * dt)
    stencil_y, stencil_t = y[..., None, :], np.expand_dims(t, -1)
    lap = reference_fd_divergence(
        lambda z: reference_flux(evolution.two_bump_gradient(k, stencil_y, z, stencil_t), p),
        x, evolution.TWO_BUMP_SPACE_STEP,
    )
    return term_t - lap


def same_bits(got, want):
    """Same type (a float for one point), shape and bytes."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def pole_sets_and_points(p, n):
    """Four pole sets of 1 to 8 poles, their stack and four points."""
    rng = np.random.default_rng(int(10 * p) + n)
    sets = [PoleSet(rng.uniform(0.1, 2, m), rng.uniform(-1, 1, (m, n)), Params(p, n))
            for m in (1, 3, 5, 8)]
    x = rng.uniform(1.5, 2.5, (4, n)) * rng.choice([-1.0, 1.0], (4, n))
    stack = PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets],
                               Params(p, n))
    return sets, stack, x, QuadraticTerm(-np.eye(n), b=rng.uniform(-1, 1, n))


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [2, 3])
def test_the_flux_form_agrees_with_the_oracle_and_the_closed_form(p, n):
    """The product rule: the central-difference divergence of the flux
    |g|^{p-2} g against the divergence identity on the Jacobian of g
    (``delta_p_fd``), the closed form and, with K, ``delta_p_direct``,
    each within 1e-4 of ``delta_p_scale``."""
    sets, stack, x, k = pole_sets_and_points(p, n)
    res = evaluate(stack, None, x)
    scale = superpose.delta_p_scale(res)
    flux_form = flux_form_delta_p(stack, None, x)
    for other in (superpose.delta_p_fd(stack, None, x), superpose.delta_p_closed_form(res)):
        assert (np.abs(flux_form - other) <= 1e-4 * scale).all()
    for ps in sets:
        for args in ((ps, None, x[0]), (ps, k, x, 1e-3)):
            res = evaluate(*args[:3])
            flux_form, scale = flux_form_delta_p(*args), superpose.delta_p_scale(res)
            for other in (superpose.delta_p_fd(*args), delta_p_direct(res)):
                assert (np.abs(flux_form - other) <= 1e-4 * scale).all()


@pytest.mark.parametrize("n", [2, 3])
def test_delta_p_fd_at_p_2_is_the_flux_form_bit_for_bit(n):
    """At p = 2 the flux is g, and the identity's 0 (e^T J e) + tr J is the
    flux form's divergence."""
    sets, stack, x, k = pole_sets_and_points(2.0, n)
    assert same_bits(superpose.delta_p_fd(stack, None, x), flux_form_delta_p(stack, None, x))
    for ps in sets:
        for args in ((ps, None, x[0]), (ps, k, x, 1e-3)):
            assert same_bits(superpose.delta_p_fd(*args), flux_form_delta_p(*args))


@pytest.mark.parametrize("p,n", [(2.5, 2), (3.0, 2), (4.0, 3)])
def test_evolution_fd_defects_are_the_reference_flux_closures_bit_for_bit(p, n):
    rng = np.random.default_rng(int(10 * p) + n)
    kb = evolution.EvolutionKernel(evolution.BARENBLATT, Params(p, n), big_c=1.5)
    t = 0.7
    x = rng.standard_normal((6, n))
    x *= (rng.uniform(0.05, 0.9, 6) * evolution.support_radius(kb, t)
          / np.linalg.norm(x, axis=1))[:, None]
    for args in ((kb, a, points, t) for a in (0.5, 2.0) for points in (x, x[0])):
        got = evolution.barenblatt_defect_fd(*args)
        assert same_bits(got, reference_barenblatt_defect_fd(*args))
    kw = evolution.EvolutionKernel(evolution.HOMOGENEOUS, Params(p, n))
    y, times = rng.uniform(-1, 1, (5, n)), rng.uniform(0.2, 3.0, 5)
    for args in ((kw, y, times), (kw, y[0], 1.3)):
        assert same_bits(evolution.two_bump_defect_fd(*args), reference_two_bump_defect_fd(*args))


@pytest.mark.parametrize("n", range(1, 13))
def test_axis_norm_is_linalg_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    sequential_differs = False
    # one point, one point against m poles, a stack, the FD stencil stack, a grid
    for shape in [(n,), (7, n), (5, 7, n), (4, 2 * n, 16, n), (300, 3, n)]:
        # coordinates over several decades, so that rounding differs by order
        z = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        for keepdims in (False, True):
            assert same_bits(axis_norm(z, keepdims=keepdims),
                             np.linalg.norm(z, axis=-1, keepdims=keepdims)), (shape, keepdims)
        sequential = np.sqrt(sum(z[..., j] * z[..., j] for j in range(n)))
        sequential_differs |= not same_bits(sequential, np.linalg.norm(z, axis=-1))
    # numpy sums 8 or more terms pairwise: a sum one coordinate at a time
    # matches it only below 8, so from 8 on axis_norm must reduce as numpy does
    assert sequential_differs == (n >= 8)


def test_rayleigh_radial_direction():
    pa = Params(4.0, 3, 1.0)
    x, y = np.array([1.0, 1.0, 0.0]), np.zeros(3)
    hess = one_pole(pa, x, y).hessian
    ddv = fundamental_profile(pa, np.linalg.norm(x - y))[2]
    z = x - y
    assert z @ hess @ z / (z @ z) == pytest.approx(ddv, rel=1e-13)


def test_rayleigh_angle_formula():
    rng = np.random.default_rng(5)
    pa = Params(4.0, 3, 1.0)
    for _ in range(20):
        x, y, z = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.standard_normal(3)
        d = x - y
        r = np.linalg.norm(d)
        if r < 0.2:
            continue
        hess = one_pole(pa, x, y).hessian
        _, dv, ddv = fundamental_profile(pa, r)
        cos_t = d @ z / (r * np.linalg.norm(z))
        expected = ddv * cos_t**2 + dv / r * (1 - cos_t**2)
        assert z @ hess @ z / (z @ z) == pytest.approx(expected, rel=1e-12, abs=1e-12)
