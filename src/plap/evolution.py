"""Evolutionary counterexamples: the Barenblatt solution of u_t = Delta_p u,
the kernel of the homogeneous equation (|u|^{p-2} u)_t = Delta_p u, the
scaled-Barenblatt defect identity with its sign-change radius, and the
two-bump defect at the origin.

Notation (p > 2 throughout):

  B(x,t) = t^{-n b} (C - ((p-2)/p) b^{1/(p-1)} (|x|/t^b)^{p/(p-1)})_+^{(p-1)/(p-2)},
           b = 1/(n(p-2)+p),
  W(x,t) = c t^{-n/(p(p-1))} exp(-((p-1)/p)(1/p)^{1/(p-1)} (|x|/t^{1/p})^{p/(p-1)}).
"""

from dataclasses import dataclass

import numpy as np

from .core import Params, fd_divergence
from .errors import UndefinedOperatorError

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
        if not (self.big_c > 0 and self.small_c > 0):
            raise ValueError("kernel constants must be positive")

    @property
    def beta(self) -> float:
        p, n = self.params.p, self.params.n
        return 1.0 / (n * (p - 2) + p)


def _barenblatt_inner(k: EvolutionKernel, r: float, t: float):
    """C - ((p-2)/p) beta^{1/(p-1)} (r/t^beta)^{p/(p-1)} and the scaled radius."""
    p = k.params.p
    beta = k.beta
    s = r / t**beta
    coeff = (p - 2) / p * beta ** (1.0 / (p - 1))
    return k.big_c - coeff * s ** (p / (p - 1)), s


def support_radius(k: EvolutionKernel, t: float) -> float:
    """Radius where the Barenblatt truncation first hits zero."""
    _require_time(t)
    if k.kind != BARENBLATT:
        raise ValueError("support radius is only meaningful for the Barenblatt kernel")
    p = k.params.p
    beta = k.beta
    coeff = (p - 2) / p * beta ** (1.0 / (p - 1))
    return (k.big_c / coeff) ** ((p - 1) / p) * t**beta


def near_support_edge(k: EvolutionKernel, r: float, t: float) -> bool:
    """Whether radius r lies within EDGE_MARGIN_STEPS relative time steps,
    scaled by 1 + rs, of the Barenblatt support radius rs: the margin in
    which B is treated as not differentiable in t."""
    rs = support_radius(k, t)
    return abs(r - rs) < EDGE_MARGIN_STEPS * TIME_FD_REL_STEP * (1.0 + rs)


def _require_time(t: float):
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")


def kernel_value(k: EvolutionKernel, x, t: float) -> float:
    """B(x,t) or W(x,t)."""
    _require_time(t)
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    p, n = k.params.p, k.params.n
    if k.kind == BARENBLATT:
        inner, _ = _barenblatt_inner(k, r, t)
        if inner <= 0.0:
            return 0.0
        return t ** (-n * k.beta) * inner ** ((p - 1) / (p - 2))
    rho = r / t ** (1.0 / p)
    expo = (p - 1) / p * (1.0 / p) ** (1.0 / (p - 1)) * rho ** (p / (p - 1))
    return k.small_c * t ** (-n / (p * (p - 1))) * np.exp(-expo)


def kernel_time_derivative(k: EvolutionKernel, x, t: float) -> float:
    """Analytic d/dt of the kernel at fixed x.

    For the Barenblatt kernel x must lie outside the margin of
    ``near_support_edge``: at the free boundary the kernel is not
    differentiable in t.
    """
    _require_time(t)
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    p, n = k.params.p, k.params.n
    if k.kind == BARENBLATT:
        beta = k.beta
        if near_support_edge(k, r, t):
            raise UndefinedOperatorError("time derivative undefined at the support boundary")
        inner, s = _barenblatt_inner(k, r, t)
        if inner <= 0.0:
            return 0.0
        m = (p - 1) / (p - 2)
        coeff = (p - 2) / p * beta ** (1.0 / (p - 1))
        q = s ** (p / (p - 1))
        # d/dt [t^{-n beta} inner^m]; dq/dt = -beta p/(p-1) q / t
        return (
            t ** (-n * beta - 1)
            * inner ** (m - 1)
            * (-n * beta * inner + beta * m * coeff * p / (p - 1) * q)
        )
    rho = r / t ** (1.0 / p)
    kappa = (p - 1) / p * (1.0 / p) ** (1.0 / (p - 1))
    w = kernel_value(k, x, t)
    return w / t * (-n / (p * (p - 1)) + kappa / (p - 1) * rho ** (p / (p - 1)))


def kernel_spatial_gradient(k: EvolutionKernel, x, t: float) -> np.ndarray:
    """Analytic spatial gradient; radial, vanishing at the origin."""
    _require_time(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return np.zeros_like(x)
    p, n = k.params.p, k.params.n
    if k.kind == BARENBLATT:
        inner, s = _barenblatt_inner(k, r, t)
        if inner <= 0.0:
            return np.zeros_like(x)
        m = (p - 1) / (p - 2)
        coeff = (p - 2) / p * k.beta ** (1.0 / (p - 1))
        # d/dr inner = -coeff p/(p-1) s^{1/(p-1)} / t^beta
        dv = (
            t ** (-n * k.beta)
            * m
            * inner ** (m - 1)
            * (-coeff * p / (p - 1) * s ** (1.0 / (p - 1)) / t**k.beta)
        )
        return dv * x / r
    kappa = (p - 1) / p * (1.0 / p) ** (1.0 / (p - 1))
    rho = r / t ** (1.0 / p)
    w = kernel_value(k, x, t)
    dv = -w * kappa * p / (p - 1) * rho ** (1.0 / (p - 1)) / t ** (1.0 / p)
    return dv * x / r


def barenblatt_defect(k: EvolutionKernel, a: float, x, t: float) -> float:
    """Defect of the scaled Barenblatt solution:
    Delta_p(a B) - (a B)_t = (a^{p-1} - a) B_t.  Identically zero for a = 1."""
    if k.kind != BARENBLATT:
        raise ValueError("defect identity applies to the Barenblatt kernel")
    if not a > 0:
        raise ValueError("scale factor a must be positive")
    p = k.params.p
    if a == 1.0:
        return 0.0
    return (a ** (p - 1) - a) * kernel_time_derivative(k, x, t)


def _flux(grad_fn, p):
    """The flux |g|^{p-2} g of a pointwise gradient, row by row.  With
    p > 2 a vanishing gradient carries zero flux."""

    def flux(points):
        g = np.array([grad_fn(z) for z in points])
        return np.linalg.norm(g, axis=1, keepdims=True) ** (p - 2) * g

    return flux


def barenblatt_defect_fd(
    k: EvolutionKernel,
    a: float,
    x,
    t: float,
) -> float:
    """Left side of the defect identity assembled numerically:
    spatial Delta_p(a B) via a divergence-of-flux stencil minus a central
    time difference of a B.  Keep x away from origin and free boundary."""
    if k.kind != BARENBLATT:
        raise ValueError("defect identity applies to the Barenblatt kernel")
    p = k.params.p

    def grad_fn(z):
        return a * kernel_spatial_gradient(k, z, t)

    lap = fd_divergence(_flux(grad_fn, p), x, SPACE_FD_STEP)
    dt = TIME_FD_REL_STEP * t
    bt = (a * kernel_value(k, x, t + dt) - a * kernel_value(k, x, t - dt)) / (2 * dt)
    return lap - bt


def sign_change_radius(k: EvolutionKernel, t: float) -> float:
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


def two_bump_value(k: EvolutionKernel, y, x, t: float) -> float:
    """V(x,t) = W(x+y,t) + W(x-y,t)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return kernel_value(k, x + y, t) + kernel_value(k, x - y, t)


def two_bump_gradient(k: EvolutionKernel, y, x, t: float) -> np.ndarray:
    """Analytic spatial gradient of the two-bump combination."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return kernel_spatial_gradient(k, x + y, t) + kernel_spatial_gradient(k, x - y, t)


def two_bump_defect(k: EvolutionKernel, y, t: float) -> float:
    """Value of (|V|^{p-2} V)_t - Delta_p V at the origin for the two-bump
    combination: 2 (p-1) (2 W(y,t))^{p-2} W_t(y,t).

    The gradient of V vanishes at the origin by symmetry, so Delta_p V is 0
    there by the continuous extension.
    """
    if k.kind != HOMOGENEOUS:
        raise ValueError("the two-bump defect uses the homogeneous kernel")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if float(np.linalg.norm(y)) == 0.0:
        raise ValueError("the bump offset y must be nonzero")
    p = k.params.p
    w = kernel_value(k, y, t)
    wt = kernel_time_derivative(k, y, t)
    return 2 * (p - 1) * (2 * w) ** (p - 2) * wt


def two_bump_defect_fd(k: EvolutionKernel, y, t: float) -> float:
    """FD assembly of (|V|^{p-2} V)_t - Delta_p V at a point x near the
    origin (offset TWO_BUMP_OFFSET along the first axis); converges to the
    closed form as the offset goes to 0."""
    if k.kind != HOMOGENEOUS:
        raise ValueError("the two-bump defect uses the homogeneous kernel")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    p = k.params.p
    x = np.zeros_like(y)
    x[0] = TWO_BUMP_OFFSET

    dt = TIME_FD_REL_STEP * t

    def signed_power(v):
        return abs(v) ** (p - 2) * v

    term_t = (
        signed_power(two_bump_value(k, y, x, t + dt))
        - signed_power(two_bump_value(k, y, x, t - dt))
    ) / (2 * dt)

    def grad_fn(z):
        return two_bump_gradient(k, y, z, t)

    lap = fd_divergence(_flux(grad_fn, p), x, TWO_BUMP_SPACE_STEP)
    return term_t - lap
