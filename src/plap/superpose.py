"""Weighted superpositions V = sum_i a_i w(x - y_i) (+ concave term) and
their p-Laplacian through three routes:

  * delta_p_direct      -- the divergence identity
                           |g|^{p-2} ((p-2) g^T H g / |g|^2 + tr H),
  * delta_p_closed_form -- the sign identity
                           -C |g|^{p-2} sum_i a_i sin^2(theta_i) / r_i^{(p+n-2)/(p-1)},
  * delta_p_fd          -- central finite differences of the analytic flux.

The first two read one ``evaluate`` result; the FD oracle builds its own
gradient from (ps, k, x), so it stays independent of that evaluation.
Points have shape (..., n).  A stacked ``PoleSet`` (``PoleSet.stack``)
holds B sets at once, and its batch axis broadcasts against the points'
leading shape, so points (B, n) give every set's result at its own point.

Also the (p, n) sign classifier of the superposition's p-Laplacian.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .concave import ConcaveTerm
from .core import (
    Params,
    _profile_slope,
    _profile_value,
    _scalar,
    fd_p_laplacian,
    fd_spacing,
    fundamental_profile,
    row_norm,
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


class PoleSet:
    """Immutable weighted pole configuration {(a_i, y_i)}.

    Duplicate locations are merged (weights summed left to right, the first
    location kept, in order of first occurrence) and zero-weight poles
    dropped at construction; at least one positive weight must remain.

    ``PoleSet.stack`` makes a batch of sets: weights (B, m), locations
    (B, m, n), ``gradient_epsilon`` and ``counts`` (B,).  An unstacked set
    has weights (m,), locations (m, n), a float ``gradient_epsilon`` and
    the int ``counts`` = m.
    """

    def __init__(self, weights, locations, params: Params):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        y = np.atleast_2d(np.asarray(locations, dtype=float))
        if w.ndim != 1 or y.ndim != 2:
            raise ValueError("need a list of weights and a list of locations")
        if y.shape[0] != w.shape[0]:
            raise ValueError("need one location per weight")
        if y.shape[1] != params.n:
            raise ValueError(
                f"pole locations have dimension {y.shape[1]}, expected {params.n}"
            )
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        keep = w != 0.0
        w, y = w[keep], y[keep]
        if not len(w):
            raise ValueError("at least one positive weight is required")
        # equal rows (float ==, so 0.0 and -0.0 merge and NaN never does)
        # are neighbours after a stable lexicographic sort, first occurrence
        # first
        order = np.lexsort(y.T[::-1])
        rows = y[order]
        starts = np.ones(len(w), dtype=bool)
        starts[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        if not starts.all():
            first = order[starts]
            rank = np.empty(len(first), dtype=np.intp)
            rank[np.argsort(first)] = np.arange(len(first))
            group = np.empty(len(w), dtype=np.intp)
            group[order] = rank[np.cumsum(starts) - 1]
            merged = np.zeros(len(first))
            np.add.at(merged, group, w)  # unbuffered, so summed in input order
            w, y = merged, y[np.sort(first)]
        self.weights = w
        self.locations = y
        self.params = params
        self.counts = len(w)
        self.weights.flags.writeable = False
        self.locations.flags.writeable = False
        # scale-aware cutoff below which |grad V| is treated as vanishing
        self.gradient_epsilon = 1e-12 * max(1.0, float(self.weights.sum()))

    @classmethod
    def stack(cls, sets):
        """One batch of the unstacked sets ``sets``, which share ``params``.

        A row with fewer poles than the longest is padded with weight-0
        copies of its own first pole: a padded pole is never nearer to a
        point than a real one and adds nothing to V or to its derivatives.
        """
        sets = list(sets)
        if not sets:
            raise ValueError("need at least one pole set to stack")
        params = sets[0].params
        if any(s.params != params or s.weights.ndim != 1 for s in sets):
            raise ValueError("only unstacked pole sets with the same params stack")
        counts = np.array([s.counts for s in sets])
        real = np.arange(counts.max()) < counts[:, None]
        weights = np.zeros(real.shape)
        weights[real] = np.concatenate([s.weights for s in sets])
        locations = np.zeros(real.shape + (params.n,))
        locations[real] = np.concatenate([s.locations for s in sets])
        return cls._from_rows(weights, locations, counts, params)

    @classmethod
    def _from_rows(cls, weights, locations, counts, params):
        """The stack whose row b holds the first ``counts[b]`` poles of
        ``weights`` (B, m) and ``locations`` (B, m, n), padded as ``stack``
        pads; the rows are taken as merged sets, so nothing is merged."""
        real = np.arange(weights.shape[1]) < counts[:, None]
        out = cls.__new__(cls)
        out.weights = np.where(real, weights, 0.0)
        out.locations = np.where(real[..., None], locations, locations[:, :1])
        out.params = params
        out.counts = counts
        # summed over each unpadded row, as __init__ sums an unstacked set
        total = np.empty(len(counts))
        for count in np.unique(counts):
            rows = counts == count
            total[rows] = out.weights[rows, :count].sum(axis=1)
        out.gradient_epsilon = 1e-12 * np.maximum(1.0, total)
        for a in (out.weights, out.locations, out.counts, out.gradient_epsilon):
            a.flags.writeable = False
        return out

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True)
class EvalResult:
    """Assembled value/gradient/Hessian plus per-pole geometry, and what
    the analytic routes read: |gradient|, the pole set and K, the per-pole
    v'(r_i) and v''(r_i) and the Hessian of K (None for K = None).

    angles[..., i] is the angle in [0, pi] between x - y_i and the total
    gradient (0 by convention when the gradient vanishes).  At a pole the
    value follows the pole rule of ``core._profile_value`` (+inf for
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
    poles: PoleSet
    k: ConcaveTerm
    dv: np.ndarray
    ddv: np.ndarray
    k_hessian: np.ndarray

    @property
    def derivatives_available(self) -> bool:
        return self.gradient is not None


def _offsets(ps: PoleSet, x):
    """Offsets x - y_i and radii r_i of points x (..., n) against every
    pole, pole axis second to last; refuses points without n coordinates."""
    x, n = np.asarray(x, dtype=float), ps.params.n
    if x.shape[-1:] != (n,):
        raise ValueError(f"query points have shape {x.shape}, expected (..., {n})")
    d = x[..., None, :] - ps.locations
    return d, np.linalg.norm(d, axis=-1)


def pole_distance(ps: PoleSet, x):
    """Distance of points x (..., n) to their nearest pole, shape (...)."""
    return _offsets(ps, x)[1].min(axis=-1)


def near_pole(ps: PoleSet, x, step: float):
    """Whether points x (..., n) are within 10 stencil spacings
    h = step (1 + |x|) of a pole: there ``delta_p_fd`` refuses and
    ``plap eval`` gives the value only.  A bool for one point."""
    x = np.asarray(x, dtype=float)
    near = pole_distance(ps, x) <= 10 * fd_spacing(x, step)
    return bool(near) if near.ndim == 0 else near


def superposition_value(ps: PoleSet, k: ConcaveTerm, x):
    """V + K at points x of shape (..., n) from values alone, so a kink of K
    is harmless; a point on a pole follows the pole rule."""
    # a padded pole (weight 0) on x must not add 0 * inf
    v = np.where(ps.weights > 0, _profile_value(ps.params, _offsets(ps, x)[1]), 0.0)
    return np.vecdot(v, ps.weights) + (0.0 if k is None else k.value(x))


def evaluate(ps: PoleSet, k: ConcaveTerm, x) -> EvalResult:
    """Value, gradient, Hessian, angles and distances of V + K at points x
    of shape (..., n), with what the analytic routes read."""
    d, r = _offsets(ps, x)
    if not r.all():
        # on a pole: the value the pole rule gives, no derivatives
        value = _scalar(superposition_value(ps, k, x))
        return EvalResult(value, None, None, None, r, None, ps, k, None, None, None)
    v, dv, ddv = fundamental_profile(ps.params, r)
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
    gn = row_norm(grad)
    big = gn > ps.gradient_epsilon
    u_g = grad / np.maximum(gn, ps.gradient_epsilon)[..., None]
    proj = (d @ u_g[..., None])[..., 0]
    rej = d - proj[..., None] * u_g[..., None, :]
    angles = np.where(big[..., None], np.arctan2(np.linalg.norm(rej, axis=-1), proj), 0.0)
    return EvalResult(_scalar(value), grad, hess, angles, r, gn, ps, k, dv, ddv, kh)


def _finite_derivatives(res: EvalResult):
    if not res.derivatives_available:
        raise PoleSingularityError("derivatives unavailable at a pole")
    return res.gradient, res.hessian


def _vanishing_gradient(res: EvalResult, exempt=False):
    """Where |gradient| vanishes outside ``exempt``; for p < 2 a vanishing
    gradient anywhere else is an error."""
    ps = res.poles
    vanishing = (res.grad_norm < ps.gradient_epsilon) & np.logical_not(exempt)
    if ps.params.p < 2 and vanishing.any():
        raise UndefinedOperatorError("p-Laplacian undefined at vanishing gradient for p < 2")
    return vanishing


def delta_p_direct(res: EvalResult):
    """p-Laplacian via the divergence identity on the assembled data.

    A vanishing gradient returns the continuous extension 0 for p > 2 and
    is an error for p < 2; p = 2 is the plain Laplacian (trace of the
    Hessian) everywhere.
    """
    grad, hess = _finite_derivatives(res)
    p, gn, eps = res.poles.params.p, res.grad_norm, res.poles.gradient_epsilon
    trace = np.trace(hess, axis1=-2, axis2=-1)
    if p == 2:
        return _scalar(trace)
    vanishing = _vanishing_gradient(res)
    # the maximum only keeps the masked rows finite
    rayleigh = (grad[..., None, :] @ hess @ grad[..., None])[..., 0, 0] / np.maximum(gn, eps) ** 2
    return _scalar(np.where(vanishing, 0.0, gn ** (p - 2) * ((p - 2) * rayleigh + trace)))


def delta_p_closed_form(res: EvalResult):
    """p-Laplacian of the pure superposition via the sign identity.

    Only valid for K = 0 (None); a concave term has no closed form here.
    """
    if res.k is not None:
        raise UnsupportedConfigurationError(
            "the closed form covers pure superpositions only (K = 0)"
        )
    _finite_derivatives(res)
    ps, gn = res.poles, res.grad_norm
    p, n = ps.params.p, ps.params.n
    # p = 2 zeroes C; with one pole the gradient is exactly (anti)parallel
    # to x - y_1, so sin(theta) = 0: in every row of a stack with one pole
    single = ps.counts == 1
    if p == 2:
        return _scalar(np.zeros(np.shape(res.value)))
    vanishing = _vanishing_gradient(res, single)
    expo = (p + n - 2) / (p - 1)
    s = np.sum(ps.weights * np.sin(res.angles) ** 2 / res.distances**expo, axis=-1)
    return _scalar(np.where(vanishing | single, 0.0, -ps.params.big_c * gn ** (p - 2) * s))


def delta_p_fd(ps: PoleSet, k: ConcaveTerm, x, step: float = DEFAULT_FD_STEP):
    """Independent oracle: divergence of the flux |grad W|^{p-2} grad W by
    central differences of the analytic gradient, step scaled by 1 + |x|."""
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(near_pole(ps, x, step)):
        raise PoleSingularityError("query point too close to a pole for the FD stencil")

    # a stack's arrays gain the stencil axis of z (..., 2n, n)
    y, a = ps.locations[..., None, :, :], ps.weights[..., None, :]

    def gradient(z):
        d = z[..., None, :] - y
        r = np.linalg.norm(d, axis=-1)
        g = np.einsum("...m,...mj->...j", a * _profile_slope(ps.params, r) / r, d)
        if k is not None:
            g += k.eval(z)[1]
        return g

    return fd_p_laplacian(gradient, x, step, ps.params.p, ps.gradient_epsilon)


def delta_p_scale(res: EvalResult):
    """Magnitude yardstick for relative comparisons between the Delta_p
    routes: the sum of absolute values of the per-term ingredients of the
    divergence identity.  Where the routes cancel to (near) zero, residuals
    are meaningful only relative to this scale."""
    _finite_derivatives(res)
    ps, gn = res.poles, res.grad_norm
    p, n = ps.params.p, ps.params.n
    mag = np.abs(res.ddv) + np.abs(res.dv) / res.distances
    total = np.vecdot((n - 1 + 1) * mag + abs(p - 2) * mag, ps.weights)
    if res.k_hessian is not None:
        total = total + (1 + abs(p - 2)) * np.abs(res.k_hessian).sum(axis=(-2, -1))
    total = np.maximum(total, 1e-300)
    if p == 2:
        return _scalar(total)
    # the maximum only keeps the masked rows finite
    power = np.maximum(gn, ps.gradient_epsilon) ** (p - 2)
    return _scalar(np.where(gn < ps.gradient_epsilon, 1e-300, power * total))


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
