"""Radial calculus and closed-form fundamental solutions of the p-Laplacian.

A radial function f(x) = v(|x - y|) has

    grad f = v'(r) * (x－y)/r,
    Hess f = v'' * u u^T + (v'/r) * (I - u u^T),      u = (x-y)/r,
    lap  f = v'' + (n-1) * v'/r,

and the fundamental solution has v'(r) = -c * r^((1-n)/(p-1)), which makes
(p-1) v'' + (n-1) v'/r vanish identically.  Also ``fd_jacobian``, the
one central-difference stencil of the finite-difference oracles.

The profile functions and ``big_c_at`` take the exponent p as a float or
as an array that broadcasts against the radii, as ``superpose.PoleSet.p``
does: one p per row of a stack.  Each element gets the bits it has with its
own p alone; ``_power`` is the one place that tells one exponent from
many.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleSingularityError


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
        # compared, not converted: an int n beyond the largest double is finite
        if not all(-math.inf < x < math.inf for x in (self.p, self.n, self.c)):
            raise ValueError(f"p, n and c must be finite, got {self.p}, {self.n}, {self.c}")
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
        return self.big_c_at(self.p)

    def big_c_at(self, p):
        """``big_c`` at the exponent p in place of ``self.p``: a float or an
        array of exponents."""
        return self.c * (p - 2) * (p + self.n - 2) / (p - 1)


def _power(x, e):
    """x ** e for an exponent e, a float or an array that broadcasts
    against x to x's shape, each element rounded as x ** float(e) rounds it.

    An e of one value v, whatever its shape, takes numpy's float-exponent
    power x ** float(v), which is also the faster.  numpy takes x ** 0.5,
    x ** 2.0 and x ** -1.0 of a float exponent through sqrt, square and
    reciprocal, but np.power of an array exponent through pow, which rounds
    otherwise in about 5 % of elements; an e of several values takes
    np.power with those three substituted.  For every other exponent the
    two agree bit for bit (numpy 2.4; ``tests/test_batched_routes.py``
    checks the exponents of the profile and the routes)."""
    e = np.asarray(e, dtype=float)
    v = float(e.flat[0])
    if e.size == 1 or (e == v).all():
        return x ** v
    out = np.power(x, e)
    for fast, f in ((0.5, np.sqrt), (2.0, np.square), (-1.0, np.reciprocal)):
        f(x, out=out, where=e == fast)
    return out


def _profile_slope(params: Params, r, p=None):
    """v'(r) = -c r^e with e = (1-n)/(p-1), at radii r > 0 and without the
    pole rule: the gradient of the finite-difference oracle needs v' alone.

    ``p``, in this function and the other profile functions, is the
    exponent in place of ``params.p``: a float or an array that broadcasts
    against r, as ``superpose.PoleSet.p`` with a unit axis per pole axis."""
    p = params.p if p is None else p
    return -params.c * _power(r, (1 - params.n) / (p - 1))


def _off_pole(r):
    """Radii r >= 0 as floats, zeros (poles) set to the placeholder 1 so no
    power or log of 0 is taken, and the mask of the zeros (None if none)."""
    r = np.asarray(r, dtype=float)
    low = r.min(initial=math.inf)
    if not low >= 0:
        raise PoleSingularityError("radii must be nonnegative")
    pole = None if low > 0 else r == 0
    return r if pole is None else np.where(pole, 1.0, r), pole


def _profile_value(params: Params, r, p=None):
    """The profile v alone at radii r >= 0 of any shape: -c (p-1)/(p-n)
    r^((p-n)/(p-1)) for p != n, -c ln r for p = n (by exact equality).

    The one home of the pole rule: at r = 0 the pole contributes v = +inf
    when (p-n)/(p-1) <= 0, i.e. 1 < p <= n (the log case p = n included),
    and otherwise its limit v = 0."""
    r, pole = _off_pole(r)
    p = params.p if p is None else p
    n, c = params.n, params.c
    a = (p - n) / (p - 1)
    log = np.equal(p, n)
    if log.all():
        v = -c * np.log(r)
    else:
        # a row of p = n takes the log: its quotient, over 1 in place of
        # p - n = 0, and its power r^0 = 1 are dropped
        v = -c * (p - 1) / np.where(log, 1.0, p - n) * _power(r, a)
        if log.any():
            v = np.where(log, -c * np.log(r), v)
    return v if pole is None else np.where(pole, np.where(a <= 0, math.inf, 0.0), v)


def fundamental_profile(params: Params, r, p=None):
    """Closed-form profile v, v', v'' at radii r >= 0 of any shape, v from
    ``_profile_value``; v' and v'' are NaN at r = 0, since derivatives are
    unavailable at any pole."""
    v = _profile_value(params, r, p)
    r, pole = _off_pole(r)
    p = params.p if p is None else p
    e = (1 - params.n) / (p - 1)
    dv, ddv = _profile_slope(params, r, p), -params.c * e * _power(r, e - 1)
    if pole is not None:
        dv, ddv = np.where(pole, math.nan, dv), np.where(pole, math.nan, ddv)
    return v, dv, ddv


def _scalar(v):
    """A float for a single point's result, the array for a batch."""
    return v if getattr(v, "ndim", 0) else float(v)


def axis_norm(z, keepdims=False):
    """The one Euclidean norm: along the last axis of a float array, equal
    to ``np.linalg.norm(z, axis=-1, keepdims=keepdims)`` bit for bit.

    numpy sums fewer than 8 terms in order and 8 or more pairwise, so
    below 8 coordinates the squares are summed one coordinate at a time,
    the same order without a squared copy of z or a reduction."""
    n = z.shape[-1]
    if not 0 < n < 8:
        return np.sqrt(np.add.reduce(z * z, -1, keepdims=keepdims))
    s = z[..., 0] * z[..., 0]
    for j in range(1, n):
        s += z[..., j] * z[..., j]
    return np.sqrt(s[..., None] if keepdims else s)


def fd_spacing(x, step: float):
    """The stencil spacing h = step * (1 + |x|) of ``fd_jacobian`` at
    points x of shape (..., n): shape (...), a float for one point."""
    return _scalar(step * (1.0 + axis_norm(np.asarray(x, dtype=float))))


def fd_jacobian(field, x, step: float):
    """Central-difference Jacobian J[..., i, j] = d field_i / d x_j at
    points x of shape (..., n), and the field's mean over the stencil.

    The spacing is h = fd_spacing(x, step).  ``field`` is called once, on
    the stencil points of shape (..., 2n, n): x + h e_j followed by
    x - h e_j along the second to last axis.  It returns the field at each
    of them in the same shape.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = np.asarray(fd_spacing(x, step))[..., None, None]
    f = field(x[..., None, :] + h * np.concatenate([np.eye(n), -np.eye(n)]))
    return np.swapaxes(f[..., :n, :] - f[..., n:, :], -1, -2) / (2 * h), f.mean(axis=-2)
