"""Evolutionary counterexamples: the Barenblatt solution of u_t = Delta_p u,
the kernel of the homogeneous equation (|u|^{p-2} u)_t = Delta_p u, the
scaled-Barenblatt defect identity with its sign-change radius, and the
two-bump defect at the origin.

Notation (p > 2 throughout):

  B(x,t) = t^{-n b} (C - ((p-2)/p) b^{1/(p-1)} (|x|/t^b)^{p/(p-1)})_+^{(p-1)/(p-2)},
           b = 1/(n(p-2)+p),
  W(x,t) = c t^{-n/(p(p-1))} exp(-((p-1)/p)(1/p)^{1/(p-1)} (|x|/t^{1/p})^{p/(p-1)}).

Every kernel function takes points x of shape (..., n) and a time t that
broadcasts against their leading shape, and returns one row per point: a
float (or an (n,) gradient) for a single point and t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Params, _power, _scalar, axis_norm, fd_jacobian
from .errors import UndefinedOperatorError, UnsupportedConfigurationError

BARENBLATT = "barenblatt"
HOMOGENEOUS = "homogeneous"

TIME_FD_REL_STEP = 1e-6
SPACE_FD_STEP = 1e-4
TWO_BUMP_OFFSET = 1e-4      # distance from the origin of the two-bump FD point
TWO_BUMP_SPACE_STEP = 1e-6
EDGE_MARGIN_STEPS = 5


@dataclass(frozen=True)
class EvolutionKernel:
    """Barenblatt or homogeneous-equation kernel with its constants.

    big_c is the Barenblatt constant C, small_c the homogeneous kernel
    amplitude c; neither is pinned down by the equations, so both default to 1.
    """

    kind: str
    params: Params
    big_c: float = 1.0
    small_c: float = 1.0

    def __post_init__(self):
        if self.kind not in (BARENBLATT, HOMOGENEOUS):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.params.p > 2:
            raise ValueError("evolution kernels require p > 2")
        if not (0 < self.big_c < math.inf and 0 < self.small_c < math.inf):
            raise ValueError("kernel constants must be positive and finite")

    @property
    def beta(self) -> float:
        p, n = self.params.p, self.params.n
        return 1.0 / (n * (p - 2) + p)


def _similarity(k: EvolutionKernel):
    """(g, coeff): both kernels depend on |x| through coeff s^{p/(p-1)}
    with the scaled radius s = |x| / t^g; g is beta for B and 1/p for W."""
    p = k.params.p
    if k.kind == BARENBLATT:
        return k.beta, (p - 2) / p * k.beta ** (1.0 / (p - 1))
    return 1.0 / p, (p - 1) / p * (1.0 / p) ** (1.0 / (p - 1))


def _profile(k: EvolutionKernel, x, t):
    """|x|, B or W, d/dr and d/dt at points x of shape (..., n) and times t
    that broadcast against their leading shape: four arrays of the
    broadcast shape, 0-d for a single point and t.

    This is the only code that evaluates either kernel, and the only place
    where the Barenblatt truncation gives 0 outside the support.  Its
    powers are ``core._power``'s, so a single point and the same row of a
    batch give the same bits.
    """
    p, n = k.params.p, k.params.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != n:
        raise ValueError(f"points have shape {x.shape}, expected (..., {n})")
    t = np.asarray(t, dtype=float)
    _require_time(t)
    r, t = np.broadcast_arrays(axis_norm(x), t)
    g, coeff = _similarity(k)
    tg = _power(t, g)
    s = r / tg
    q = _power(s, p / (p - 1))
    s_root = _power(s, 1.0 / (p - 1))
    if k.kind == BARENBLATT:
        inner = np.maximum(k.big_c - coeff * q, 0.0)
        m = (p - 1) / (p - 2)
        lead = _power(t, -n * g) * _power(inner, m - 1)
        value = lead * inner
        # dq/dt = -g p/(p-1) q / t
        dt = lead / t * (-n * g * inner + g * m * coeff * p / (p - 1) * q)
        # d/dr inner = -coeff p/(p-1) s^{1/(p-1)} / t^g
        dr = lead * m * (-coeff * p / (p - 1) * s_root / tg)
    else:
        value = k.small_c * _power(t, -n / (p * (p - 1))) * np.exp(-coeff * q)
        dt = value / t * (-n / (p * (p - 1)) + coeff / (p - 1) * q)
        dr = -value * coeff * p / (p - 1) * s_root / tg
    return r, value, dr, dt


def support_radius(k: EvolutionKernel, t):
    """Radius where the Barenblatt truncation first hits zero."""
    _require_time(t)
    if k.kind != BARENBLATT:
        raise ValueError("support radius is only meaningful for the Barenblatt kernel")
    p = k.params.p
    beta, coeff = _similarity(k)
    return (k.big_c / coeff) ** ((p - 1) / p) * t**beta


def near_support_edge(k: EvolutionKernel, r, t):
    """Whether radius r lies within EDGE_MARGIN_STEPS relative time steps,
    scaled by 1 + rs, of the Barenblatt support radius rs: the margin in
    which B is treated as not differentiable in t.  Elementwise for
    arrays r and t."""
    rs = support_radius(k, t)
    return abs(r - rs) < EDGE_MARGIN_STEPS * TIME_FD_REL_STEP * (1.0 + rs)


def _require_time(t):
    low = np.asarray(t, dtype=float).min(initial=math.inf)
    if not low > 0:
        raise ValueError(f"time must be positive, got {low}")


def kernel_value(k: EvolutionKernel, x, t):
    """B(x,t) or W(x,t)."""
    return _scalar(_profile(k, x, t)[1])


def kernel_time_derivative(k: EvolutionKernel, x, t):
    """Analytic d/dt of the kernel at fixed x.

    For the Barenblatt kernel no point may lie in the margin of
    ``near_support_edge``: at the free boundary the kernel is not
    differentiable in t.
    """
    r, _, _, dt = _profile(k, x, t)
    if k.kind == BARENBLATT and np.any(near_support_edge(k, r, t)):
        raise UndefinedOperatorError("time derivative undefined at the support boundary")
    return _scalar(dt)


def kernel_spatial_gradient(k: EvolutionKernel, x, t):
    """Analytic spatial gradient, shape (..., n): radial, and zero at the
    origin."""
    r, _, dr, _ = _profile(k, x, t)
    r = r[..., None]
    dv = dr[..., None] * np.asarray(x, dtype=float)
    return np.divide(dv, r, out=np.zeros_like(dv), where=r > 0)


def barenblatt_defect(k: EvolutionKernel, a: float, x, t):
    """Defect of the scaled Barenblatt solution:
    Delta_p(a B) - (a B)_t = (a^{p-1} - a) B_t.  Identically zero for a = 1."""
    if k.kind != BARENBLATT:
        raise ValueError("defect identity applies to the Barenblatt kernel")
    if not a > 0:
        raise ValueError("scale factor a must be positive")
    if a == 1.0:
        return 0.0 * kernel_value(k, x, t)  # zeros of the batch's shape
    try:
        factor = a ** (k.params.p - 1) - a
    except OverflowError:
        raise UnsupportedConfigurationError(
            f"a^(p-1) overflows a double for a = {a!r} and p = {k.params.p!r}"
        ) from None
    # + 0.0 turns the -0.0 of a zero B_t times a < 1 into 0.0
    return factor * kernel_time_derivative(k, x, t) + 0.0


def _flux_divergence(gradient, x, t, step, p):
    """Central-difference divergence, the trace of ``fd_jacobian``, of the
    flux |g|^{p-2} g with g = ``gradient(z, s)`` at the stencil points z and
    times s (t against the stencil axis).  The flux, not g, is differenced:
    B is not C^2 at the origin.  p > 2, so a vanishing g needs no rule."""
    def flux(z):
        g = gradient(z, np.expand_dims(t, -1))
        return _power(axis_norm(g, keepdims=True), p - 2) * g

    return _scalar(np.trace(fd_jacobian(flux, x, step)[0], axis1=-2, axis2=-1))


def _time_difference(f, t):
    """Central difference of f at times t, relative step TIME_FD_REL_STEP."""
    dt = TIME_FD_REL_STEP * t
    return (f(t + dt) - f(t - dt)) / (2 * dt)


def barenblatt_defect_fd(k: EvolutionKernel, a: float, x, t):
    """Left side of the defect identity assembled numerically: the flux
    divergence of a B (``_flux_divergence``) minus a central time
    difference of a B.  Keep x away from origin and free boundary."""
    if k.kind != BARENBLATT:
        raise ValueError("defect identity applies to the Barenblatt kernel")
    lap = _flux_divergence(lambda z, s: a * kernel_spatial_gradient(k, z, s), x, t,
                           SPACE_FD_STEP, k.params.p)
    return lap - _time_difference(lambda s: a * kernel_value(k, x, s), t)


def sign_change_radius(k: EvolutionKernel, t):
    """Radius where B_t (and hence the scaled-Barenblatt defect) changes
    sign: (C p n)^{(p-1)/p} beta^{(p-2)/p} t^beta.

    It lies strictly inside the support: radius / support_radius =
    (n(p-2) / (n(p-2) + p))^{(p-1)/p} < 1 for every p > 2, whatever C and t.
    """
    _require_time(t)
    if k.kind != BARENBLATT:
        raise ValueError("sign-change radius applies to the Barenblatt kernel")
    p, n = k.params.p, k.params.n
    return (k.big_c * p * n) ** ((p - 1) / p) * k.beta ** ((p - 2) / p) * t**k.beta


def two_bump_value(k: EvolutionKernel, y, x, t):
    """V(x,t) = W(x+y,t) + W(x-y,t)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return kernel_value(k, x + y, t) + kernel_value(k, x - y, t)


def two_bump_gradient(k: EvolutionKernel, y, x, t):
    """Analytic spatial gradient of the two-bump combination."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return kernel_spatial_gradient(k, x + y, t) + kernel_spatial_gradient(k, x - y, t)


def two_bump_defect(k: EvolutionKernel, y, t):
    """Value of (|V|^{p-2} V)_t - Delta_p V at the origin for the two-bump
    combination: 2 (p-1) (2 W(y,t))^{p-2} W_t(y,t).

    The gradient of V vanishes at the origin by symmetry, so Delta_p V is 0
    there by the continuous extension.
    """
    if k.kind != HOMOGENEOUS:
        raise ValueError("the two-bump defect uses the homogeneous kernel")
    r, w, _, wt = _profile(k, y, t)
    if not r.all():
        raise UnsupportedConfigurationError("the bump offset y must be nonzero")
    p = k.params.p
    return _scalar(2 * (p - 1) * _power(2 * w, p - 2) * wt)


def two_bump_defect_fd(k: EvolutionKernel, y, t):
    """FD assembly of (|V|^{p-2} V)_t - Delta_p V at a point x near the
    origin (offset TWO_BUMP_OFFSET along the first axis): a central time
    difference minus the flux divergence of V (``_flux_divergence``);
    converges to the closed form as the offset goes to 0."""
    if k.kind != HOMOGENEOUS:
        raise ValueError("the two-bump defect uses the homogeneous kernel")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    p = k.params.p
    x = np.zeros_like(y)
    x[..., 0] = TWO_BUMP_OFFSET

    def signed_power(s):  # |V|^{p-2} V at times s
        v = two_bump_value(k, y, x, s)
        return _power(np.abs(v), p - 2) * v

    lap = _flux_divergence(lambda z, s: two_bump_gradient(k, y[..., None, :], z, s), x, t,
                           TWO_BUMP_SPACE_STEP, p)
    return _time_difference(signed_power, t) - lap
