"""Weighted superpositions V = sum_i a_i w(x - y_i) (+ concave term) and
their p-Laplacian through three routes:

  * delta_p_direct      -- the divergence identity |g|^{p-2} T(H, g), with the
                           bracket T(H, g) = (p-2) e^T H e + tr H, e = g/|g|,
  * delta_p_closed_form -- the sign identity
                           -C |g|^{p-2} sum_i a_i sin^2(theta_i) / r_i^{(p+n-2)/(p-1)},
  * delta_p_fd          -- |g|^{p-2} T(J, g), T from ``concave.operator_term`` as in
                           direct, on the central-difference Jacobian J of the analytic gradient.

The first two read one ``evaluate`` result; the FD oracle builds its own
gradient from (ps, k, x), so it stays independent of that evaluation.
Points have shape (..., n).  A stacked ``PoleSet`` (``PoleSet.stack_rows``)
holds B sets at once, and its batch axis broadcasts against the points'
leading shape, so points (B, n) give every set's result at its own point.
The sets of a stack share n and c; each may have its own p, which
broadcasts as the weights do (``PoleSet.p``), and every row rounds as it
does in a stack of its own p.

Also the (p, n) sign classifier of the superposition's p-Laplacian.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .concave import ConcaveTerm, operator_term
from .core import (
    Params,
    _profile_slope,
    _power,
    _profile_value,
    _scalar,
    axis_norm,
    fd_jacobian,
    fd_spacing,
    fundamental_profile,
)
from .errors import (
    PoleSingularityError,
    UndefinedOperatorError,
    UnsupportedConfigurationError,
)

DEFAULT_FD_STEP = 1e-4


class SignClass(Enum):
    NON_POSITIVE = "NonPositive"
    IDENTICALLY_ZERO = "IdenticallyZero"
    NON_NEGATIVE = "NonNegative"
    EXCLUDED = "Excluded"


def _merged(w, y, row):
    """The poles w (k,), y (k, n) of rows ``row`` (k,), given in row order,
    with zero weights dropped and each row's equal locations (float ==, so
    0.0 and -0.0 merge) merged: weights summed in input order, the first
    location kept, in order of first occurrence.  Returns (w, y, row)."""
    keep = w != 0.0
    w, y, row = w[keep], y[keep], row[keep]
    # equal locations of a row are neighbours after a stable lexicographic
    # sort keyed by the row first, first occurrence first
    order = np.lexsort((*y.T[::-1], row))
    y_sorted, row_sorted = y[order], row[order]
    starts = np.ones(len(w), dtype=bool)
    starts[1:] = (row_sorted[1:] != row_sorted[:-1]) | (y_sorted[1:] != y_sorted[:-1]).any(axis=1)
    if starts.all():
        return w, y, row
    first = order[starts]
    group = np.empty(len(w), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    merged = np.zeros(len(first))
    with np.errstate(over="ignore"):  # an inf weight makes an inf cutoff, which is refused
        np.add.at(merged, group, w)  # unbuffered, so summed in input order
    by_first = np.argsort(first)
    return merged[by_first], y[first[by_first]], row[first[by_first]]


def _as_row(weights, locations):
    """Float arrays of one row, a single weight and location made a pole."""
    w, y = np.asarray(weights, dtype=float), np.asarray(locations, dtype=float)
    return (w.reshape(1) if w.ndim == 0 else w), (y.reshape(1, -1) if y.ndim < 2 else y)


def _cutoff(weights):
    """The scale-aware cutoff 1e-12 max(1, sum_i a_i) below which |grad V|
    is treated as vanishing, per row of weights (..., m).  Summed left to
    right, so padding leaves a set's own sum; a set refuses an inf sum."""
    with np.errstate(over="ignore"):
        return 1e-12 * np.maximum(1.0, np.cumsum(weights, axis=-1)[..., -1])


class PoleSet:
    """Immutable weighted pole configuration {(a_i, y_i)}.

    Duplicate locations are merged (weights summed left to right, the first
    location kept, in order of first occurrence) and zero-weight poles
    dropped at construction; weights, locations and the sum ``_cutoff``
    takes must be finite, and at least one positive weight must remain.

    ``PoleSet.stack_rows`` makes a batch of sets: weights (B, m), locations
    (B, m, n) and ``counts`` (B,).  An unstacked set has weights (m,),
    locations (m, n) and the int ``counts`` = m.

    ``p`` is the exponent as a read-only float64 array: shape () holding
    ``params.p`` for a set, shape (B,) of each row's p for every stack,
    whether its rows share one p or not.  A stack's ``params`` is its first
    row's, so it gives only n and c.
    """

    def __init__(self, weights, locations, params: Params):
        w, y = _as_row(weights, locations)
        if w.ndim != 1 or y.ndim != 2:
            raise ValueError("need a list of weights and a list of locations")
        if y.shape[0] != w.shape[0]:
            raise ValueError("need one location per weight")
        if y.shape[1] != params.n:
            raise ValueError(f"pole locations have dimension {y.shape[1]}, expected {params.n}")
        if not (np.isfinite(w).all() and np.isfinite(y).all()):
            raise ValueError("weights and locations must be finite")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        w, y, _ = _merged(w, y, np.zeros(len(w), dtype=np.intp))
        if not len(w):
            raise ValueError("at least one positive weight is required")
        if np.isinf(_cutoff(w)):
            raise ValueError("the sum of the weights overflows a double")
        self.weights, self.locations, self.params, self.counts = w, y, params, len(w)
        self.p = np.array(params.p, dtype=float)
        for a in (w, y, self.p):
            a.flags.writeable = False

    @classmethod
    def stack_rows(cls, weights, locations, params):
        """One batch of the sets ``PoleSet(w, y, params)`` for w, y in
        ``zip(weights, locations)``, without a set per row; the first
        refused row raises its set's error.  ``params`` is one ``Params``
        for every row, or a sequence of one per row that share n and c: the
        rows may then differ in p.

        Each row is merged as ``__init__`` merges a set.  A row with fewer
        poles than the longest is padded with weight-0 copies of its own
        first pole: a padded pole is never nearer to a point than a real one
        and adds nothing to V or to its derivatives.
        """
        rows = [_as_row(w, y) for w, y in zip(weights, locations, strict=True)]
        if not rows:
            raise ValueError("need at least one pole set to stack")
        row_params = [params] * len(rows) if isinstance(params, Params) else list(params)
        if len(row_params) != len(rows):
            raise ValueError("need one Params per row")
        params = row_params[0]
        n, p = params.n, np.array([q.p for q in row_params], dtype=float)
        if any((q.n, q.c) != (n, params.c) for q in row_params):
            raise ValueError("the rows of a stack must share n and c")
        # a row of another shape counts as empty, so it is refused
        counts = [len(w) if w.ndim == 1 and y.shape == (len(w), n) else 0 for w, y in rows]
        shaped = [r for r, c in zip(rows, counts) if c]
        w = np.concatenate([np.zeros(0)] + [w for w, _ in shaped])
        y = np.concatenate([np.zeros((0, n))] + [y for _, y in shaped])
        row = np.repeat(np.arange(len(rows)), counts)
        valid = np.isfinite(w) & (w >= 0) & np.isfinite(y).all(axis=1)
        keep = ~np.isin(row, row[~valid])  # a row with an invalid pole keeps none
        w, y, row = _merged(w[keep], y[keep], row[keep])
        counts = np.bincount(row, minlength=len(rows))
        # at least one column, so every row has a sum, 0 for a row without poles
        real = np.arange(counts.max(initial=1)) < counts[:, None]
        weights = np.zeros(real.shape)
        weights[real] = w
        refused = (counts == 0) | np.isinf(_cutoff(weights))
        if refused.any():
            first = np.argmax(refused)
            cls(*rows[first], row_params[first])  # raises that row's error
        locations = np.zeros(real.shape + (n,))
        locations[real] = y
        p.flags.writeable = False
        return cls._from_rows(weights, locations, counts, params, p)

    @classmethod
    def _from_rows(cls, weights, locations, counts, params, p):
        """The stack whose row b holds the first ``counts[b]`` poles of
        ``weights`` (B, m) and ``locations`` (B, m, n), padded as
        ``stack_rows`` pads, with exponents ``p`` (``PoleSet.p``); the rows
        are taken as merged sets, so nothing is merged."""
        real = np.arange(weights.shape[1]) < counts[:, None]
        out = cls.__new__(cls)
        out.weights = np.where(real, weights, 0.0)
        out.locations = np.where(real[..., None], locations, locations[:, :1])
        out.params, out.p = params, p
        out.counts = counts
        for a in (out.weights, out.locations, out.counts):
            a.flags.writeable = False
        return out

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class EvalResult:
    """Value, gradient, Hessian, per-pole geometry and what the analytic
    routes read: |gradient|, ``vanishing`` (|gradient| < ``_cutoff``), the
    pole set, K, v'(r_i), v''(r_i) and K's Hessian (None for K = None).

    angles[..., i] is the angle in [0, pi] between x - y_i and the total
    gradient (0 by convention where ``vanishing``).  At a pole the value
    follows the pole rule of ``core._profile_value`` (+inf for
    1 < p <= n, else the finite value with that pole contributing 0).

    For points (..., n) every field keeps the leading shape; a single
    point (n,) has a float value.  The derivative fields (every field but
    value, distances, poles and k) are None when any point is on a pole.
    """

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    angles: np.ndarray
    distances: np.ndarray
    grad_norm: np.ndarray
    vanishing: np.ndarray
    poles: PoleSet
    k: ConcaveTerm
    dv: np.ndarray
    ddv: np.ndarray
    k_hessian: np.ndarray

    @property
    def derivatives_available(self) -> bool:
        return self.gradient is not None


def _aligned_p(ps: PoleSet, axes):
    """``ps.p`` with ``axes`` unit axes appended, so that it broadcasts
    against arrays whose batch axis, if any, is followed by ``axes`` more:
    axes 1 for per-pole arrays, as ``ps.weights``, and 2 on the FD
    stencil."""
    return ps.p.reshape(ps.p.shape + (1,) * axes)


def _offsets(ps: PoleSet, x):
    """Offsets x - y_i and radii r_i of points x (..., n) against every
    pole, pole axis second to last; refuses points without n coordinates."""
    x, n = np.asarray(x, dtype=float), ps.params.n
    if x.shape[-1:] != (n,):
        raise ValueError(f"query points have shape {x.shape}, expected (..., {n})")
    d = x[..., None, :] - ps.locations
    return d, axis_norm(d)


def pole_distance(ps: PoleSet, x):
    """Distance of points x (..., n) to their nearest pole, shape (...)."""
    return _offsets(ps, x)[1].min(axis=-1)


def near_pole(ps: PoleSet, x, step: float):
    """Whether points x (..., n) are within 10 stencil spacings
    h = step (1 + |x|) of a pole: there ``delta_p_fd`` refuses and
    ``plap eval`` gives the value only.  A bool for one point."""
    near = pole_distance(ps, x) <= 10 * fd_spacing(x, step)
    return bool(near) if near.ndim == 0 else near


def superposition_value(ps: PoleSet, k: ConcaveTerm, x):
    """V + K at points x of shape (..., n) from values alone, so a kink of K
    is harmless; a point on a pole follows the pole rule."""
    # a padded pole (weight 0) on x must not add 0 * inf
    v = np.where(ps.weights > 0, _profile_value(ps.params, _offsets(ps, x)[1], _aligned_p(ps, 1)), 0.0)
    return np.vecdot(v, ps.weights) + (0.0 if k is None else k.value(x))


def evaluate(ps: PoleSet, k: ConcaveTerm, x) -> EvalResult:
    """Value, gradient, Hessian, angles and distances of V + K at points x
    of shape (..., n), with what the analytic routes read."""
    d, r = _offsets(ps, x)
    if not r.all():
        # on a pole: the value the pole rule gives, no derivatives
        value = _scalar(superposition_value(ps, k, x))
        return EvalResult(value, None, None, None, r, None, None, ps, k, None, None, None)
    v, dv, ddv = fundamental_profile(ps.params, r, _aligned_p(ps, 1))
    a = ps.weights
    u = d / r[..., None]
    t = a * dv / r
    value = np.vecdot(v, a)
    grad = ((a * dv)[..., None, :] @ u)[..., 0, :]
    # sum_i a_i (v_i'' u_i u_i^T + (v_i'/r_i)(I - u_i u_i^T)), no n x n block per pole
    hess = (np.swapaxes(u, -1, -2) * (a * ddv - t)[..., None, :]) @ u
    hess += t.sum(axis=-1)[..., None, None] * np.eye(ps.params.n)
    kh = None
    if k is not None:
        kv, kg, kh = k.eval(x)
        value = value + kv
        grad += kg
        hess += kh
    gn = axis_norm(grad)
    vanishing = gn < _cutoff(a)
    u_g = grad / np.where(vanishing, 1.0, gn)[..., None]
    proj = (d @ u_g[..., None])[..., 0]
    rej = d - proj[..., None] * u_g[..., None, :]
    angles = np.where(vanishing[..., None], 0.0, np.arctan2(axis_norm(rej), proj))
    return EvalResult(_scalar(value), grad, hess, angles, r, gn, vanishing, ps, k, dv, ddv, kh)


def _grad_power(p, grad_norm, vanishing, exempt=False):
    """|grad W|^{p-2}, the one place that forms it, and the rows ``zeroed``
    (``vanishing`` and p != 2) that a route sets to its own value.  p = 2
    takes the factor 1; a vanishing gradient outside ``exempt`` raises for
    p < 2 (in a stack, only in a row of p < 2); a ``grad_norm`` of None, on
    a pole, raises."""
    if grad_norm is None:
        raise PoleSingularityError("derivatives unavailable at a pole")
    below = p < 2
    if below.any() and (vanishing & np.logical_not(exempt) & below).any():
        raise UndefinedOperatorError("p-Laplacian undefined at vanishing gradient for p < 2")
    # the 1 only keeps the vanishing rows finite
    return _power(np.where(vanishing, 1.0, grad_norm), p - 2), vanishing & (p != 2)


def _divergence_identity(p, grad, grad_norm, vanishing, jac):
    """|g|^{p-2} ``operator_term(J, p, g)`` for a gradient g and its Jacobian
    J; a vanishing g is read as ones, as its row is zeroed or (p = 2) tr J."""
    power, zeroed = _grad_power(p, grad_norm, vanishing)
    bracket = operator_term(jac, p, np.where(vanishing[..., None], 1.0, grad))
    return _scalar(np.where(zeroed, 0.0, power * bracket))


def delta_p_direct(res: EvalResult):
    """p-Laplacian via the divergence identity on the assembled gradient
    and Hessian: the continuous extension 0 at a vanishing gradient for
    p > 2, an error there for p < 2, the Laplacian tr H for p = 2."""
    return _divergence_identity(res.poles.p, res.gradient, res.grad_norm, res.vanishing, res.hessian)


def delta_p_closed_form(res: EvalResult):
    """p-Laplacian of the pure superposition via the sign identity.

    Only valid for K = 0 (None); a concave term has no closed form here.
    """
    if res.k is not None:
        raise UnsupportedConfigurationError(
            "the closed form covers pure superpositions only (K = 0)"
        )
    ps = res.poles
    p, n = ps.p, ps.params.n
    # p = 2 zeroes C; with one pole the gradient is exactly (anti)parallel
    # to x - y_1, so sin(theta) = 0: in every row of a stack with one pole
    exact = (ps.counts == 1) | (p == 2)
    power, zeroed = _grad_power(p, res.grad_norm, res.vanishing, exact)
    zero = zeroed | exact
    q = _aligned_p(ps, 1)
    # the radius 1 only keeps the rows set to 0 finite, as _grad_power's 1 does
    r_power = _power(np.where(zero[..., None], 1.0, res.distances), (q + n - 2) / (q - 1))
    s = np.sum(ps.weights * np.sin(res.angles) ** 2 / r_power, axis=-1)
    return _scalar(np.where(zero, 0.0, -ps.params.big_c_at(p) * power * s))


def delta_p_fd(ps: PoleSet, k: ConcaveTerm, x, step: float = DEFAULT_FD_STEP):
    """Independent oracle: the divergence identity on the central-difference
    Jacobian J, spacing step (1 + |x|), of a gradient built from (ps, k, x)
    without ``evaluate``, and on g, its stencil mean.  The identity itself
    is checked against the flux form in tests/test_core.py."""
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(near_pole(ps, x, step)):
        raise PoleSingularityError("query point too close to a pole for the FD stencil")

    # a stack's arrays, its p included, gain the stencil axis of z (..., 2n, n)
    y, a, p = ps.locations[..., None, :, :], ps.weights[..., None, :], _aligned_p(ps, 2)

    def gradient(z):
        d = z[..., None, :] - y
        r = axis_norm(d)
        g = np.einsum("...m,...mj->...j", a * _profile_slope(ps.params, r, p) / r, d)
        if k is not None:
            # the stencil axis first, so a stacked K's batch axis meets z's
            g += np.moveaxis(k.eval(np.moveaxis(z, -2, 0))[1], 0, -2)
        return g

    jac, g = fd_jacobian(gradient, x, step)
    gn = axis_norm(g)
    return _divergence_identity(ps.p, g, gn, gn < _cutoff(ps.weights), jac)


def delta_p_scale(res: EvalResult):
    """Magnitude yardstick for relative comparisons between the Delta_p
    routes: the sum of absolute values of the per-term ingredients of the
    divergence identity.  Where the routes cancel to (near) zero, residuals
    are meaningful only relative to this scale."""
    ps = res.poles
    p, n = ps.p, ps.params.n
    power, zeroed = _grad_power(p, res.grad_norm, res.vanishing, exempt=True)
    mag = np.abs(res.ddv) + np.abs(res.dv) / res.distances
    total = np.vecdot(n * mag + abs(_aligned_p(ps, 1) - 2) * mag, ps.weights)
    if res.k_hessian is not None:
        total = total + (1 + abs(p - 2)) * np.abs(res.k_hessian).sum(axis=(-2, -1))
    return _scalar(np.where(zeroed, 1e-300, power * np.maximum(total, 1e-300)))


# indexed by sign_classes' code: 0 and 1 the sign of the factor, then the zero lines, then p = 1
_SIGN_NAMES = np.array([c.value for c in (SignClass.NON_NEGATIVE, SignClass.NON_POSITIVE,
                                          SignClass.IDENTICALLY_ZERO, SignClass.EXCLUDED)])


def sign_classes(p, n):
    """Sign classes (``SignClass`` values) of the superposition's
    p-Laplacian over broadcast arrays of p and n.

    Classifies by the sign of -(p-2)(p+n-2)/(p-1); the zero lines are
    p = 2, n = 1 and p + n = 2, and p = 1 is excluded.
    """
    # float(n) is how Python adds an int n to a float p, for any size of n
    p, n = np.asarray(p, dtype=float), np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        negative = -(p - 2) * (p + n - 2) / (p - 1) < 0
    zero = (p == 2) | (n == 1) | (p + n == 2)
    return _SIGN_NAMES[np.where(p == 1, 3, np.where(zero, 2, negative.astype(int)))]


def sign_region(p: float, n: int) -> SignClass:
    """Sign of the superposition's p-Laplacian at one (p, n); see
    ``sign_classes``."""
    return SignClass(sign_classes(p, n).item())
