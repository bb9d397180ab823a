"""Radial calculus and closed-form fundamental solutions of the p-Laplacian.

A radial function f(x) = v(|x - y|) has

    grad f = v'(r) * (x－y)/r,
    Hess f = v'' * u u^T + (v'/r) * (I - u u^T),      u = (x-y)/r,
    lap  f = v'' + (n-1) * v'/r,

and the fundamental solution has v'(r) = -c * r^((1-n)/(p-1)), which makes
(p-1) v'' + (n-1) v'/r vanish identically.  Also the central-difference
p-Laplacian shared by the finite-difference oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleSingularityError, UndefinedOperatorError


@dataclass(frozen=True)
class Params:
    """Exponent p, dimension n and the positive normalization constant c.

    p = 1 is excluded: there are no non-constant radial solutions and every
    sign statement downstream breaks down there.
    """

    p: float
    n: int
    c: float = 1.0

    def __post_init__(self):
        if self.p == 1:
            raise ValueError("p = 1 is excluded")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def big_c(self) -> float:
        """c * (p-2)(p+n-2)/(p-1), the prefactor of the sign identity.

        Recomputed on access so it can never go stale.
        """
        p, n = self.p, self.n
        return self.c * (p - 2) * (p + n - 2) / (p - 1)


def _profile_slope(params: Params, r):
    """v'(r) = -c r^e with e = (1-n)/(p-1), at radii r > 0 and without the
    pole rule: the flux of the finite-difference oracle needs v' alone."""
    return -params.c * r ** ((1 - params.n) / (params.p - 1))


def _off_pole(r):
    """Radii r >= 0 as floats, zeros (poles) set to the placeholder 1 so no
    power or log of 0 is taken, and the mask of the zeros (None if none)."""
    r = np.asarray(r, dtype=float)
    low = r.min(initial=math.inf)
    if not low >= 0:
        raise PoleSingularityError("radii must be nonnegative")
    pole = None if low > 0 else r == 0
    return r if pole is None else np.where(pole, 1.0, r), pole


def _profile_value(params: Params, r):
    """The profile v alone at radii r >= 0 of any shape: -c (p-1)/(p-n)
    r^((p-n)/(p-1)) for p != n, -c ln r for p = n (by exact equality).

    The one home of the pole rule: at r = 0 the pole contributes v = +inf
    when (p-n)/(p-1) <= 0, i.e. 1 < p <= n (the log case p = n included),
    and otherwise its limit v = 0."""
    r, pole = _off_pole(r)
    p, n, c = params.p, params.n, params.c
    a = (p - n) / (p - 1)
    v = -c * np.log(r) if p == n else -c * (p - 1) / (p - n) * r**a
    return v if pole is None else np.where(pole, math.inf if a <= 0 else 0.0, v)


def fundamental_profile(params: Params, r):
    """Closed-form profile v, v', v'' at radii r >= 0 of any shape, v from
    ``_profile_value``; v' and v'' are NaN at r = 0, since derivatives are
    unavailable at any pole."""
    v = _profile_value(params, r)
    r, pole = _off_pole(r)
    e = (1 - params.n) / (params.p - 1)
    dv, ddv = _profile_slope(params, r), -params.c * e * r ** (e - 1)
    if pole is not None:
        dv, ddv = np.where(pole, math.nan, dv), np.where(pole, math.nan, ddv)
    return v, dv, ddv


def _scalar(v):
    """A float for a single point's result, the array for a batch."""
    return v if getattr(v, "ndim", 0) else float(v)


def row_norm(z):
    """Euclidean norm along the last axis, each row rounded as
    ``np.linalg.norm`` rounds a single vector."""
    return np.sqrt(np.vecdot(z, z))


def fd_spacing(x, step: float):
    """The stencil spacing h = step * (1 + |x|) of ``fd_divergence`` at
    points x of shape (..., n): shape (...), a float for one point."""
    return _scalar(step * (1.0 + row_norm(x)))


def fd_divergence(flux, x, step: float):
    """Central-difference divergence of a vector field at points x of
    shape (..., n): shape (...), a float for one point.

    The spacing is h = fd_spacing(x, step).  ``flux`` is called once, on
    the stencil points of shape (..., 2n, n): x + h e_j followed by
    x - h e_j along the second to last axis.  It returns the field at each
    of them in the same shape.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = np.asarray(fd_spacing(x, step))[..., None]
    shifts = h[..., None] * np.eye(n)
    f = flux(np.concatenate([x[..., None, :] + shifts, x[..., None, :] - shifts], axis=-2))
    diag = np.diagonal(f[..., :n, :], axis1=-2, axis2=-1) - np.diagonal(
        f[..., n:, :], axis1=-2, axis2=-1
    )
    return _scalar(np.sum(diag / (2 * h), axis=-1))


def fd_p_laplacian(gradient, x, step: float, p: float, eps):
    """``fd_divergence`` of the flux |g|^{p-2} g, where ``gradient`` gives
    g on the stencil points.  A gradient of norm below ``eps``, which
    broadcasts against the leading shape of x, carries zero flux for p >= 2
    and is an error for p < 2."""
    eps = np.asarray(eps)[..., None, None]

    def flux(z):
        g = gradient(z)
        gn = np.linalg.norm(g, axis=-1, keepdims=True)
        vanishing = gn < eps
        if p < 2 and vanishing.any():
            raise UndefinedOperatorError("flux undefined at vanishing gradient for p < 2")
        return np.where(vanishing, 0.0, gn ** (p - 2) * g)

    return fd_divergence(flux, x, step)
