"""Concave additive terms: quadratics, minima of affine functions, and
their mollifications, plus the eigenvalue sufficient condition for the
sign of the operator term (p-2) xi^T H xi / |xi|^2 + tr H."""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateDirectionError, KinkError

TIE_EPSILON = 1e-9          # relative tie detection for min-of-affine pieces
CRITERION_SLACK = 1e-12     # absorbs eigensolver noise at the equality boundary
MOLLIFIER_NODES = 16        # Gauss-Legendre nodes per axis of the mollifier quadrature
NSD_TOL = 1e-12             # scale-aware negative-semidefiniteness threshold


class ConcaveTerm:
    """Base class for the additive term K.

    Subclasses implement ``value(x)`` and ``eval(x) -> (value, grad, hess)``;
    ``eval`` raises KinkError where derivatives are undefined, while
    ``eval_lenient`` picks an arbitrary subgradient there (used only inside
    mollification quadrature, where ties are a measure-zero event).
    """

    concave: bool = True

    def value(self, x) -> float:
        raise NotImplementedError

    def eval(self, x):
        raise NotImplementedError

    def eval_lenient(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class ZeroTerm(ConcaveTerm):
    """K identically zero."""

    concave: bool = field(default=True, init=False)

    def value(self, x):
        return 0.0

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        d = x.size
        return 0.0, np.zeros(d), np.zeros((d, d))


def _is_negative_semidefinite(a: np.ndarray) -> bool:
    lam = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    return bool(lam[-1] <= NSD_TOL * scale)


@dataclass(frozen=True)
class QuadraticTerm(ConcaveTerm):
    """K(x) = x^T A x / 2 + b.x + c0.

    Non-concave A is allowed (needed for the eigenvalue-criterion
    counterexamples); ``concave`` records whether A is negative
    semidefinite.
    """

    a_matrix: np.ndarray
    b: np.ndarray = None
    c0: float = 0.0
    concave: bool = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("A must be symmetric")
        a = 0.5 * (a + a.T)
        b = np.zeros(a.shape[0]) if self.b is None else np.asarray(self.b, dtype=float)
        if b.shape != (a.shape[0],):
            raise ValueError("b has the wrong dimension")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "concave", _is_negative_semidefinite(a))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.a_matrix @ x + self.b @ x + self.c0)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self.value(x), self.a_matrix @ x + self.b, self.a_matrix.copy()


@dataclass(frozen=True)
class AffineMinTerm(ConcaveTerm):
    """K(x) = min_j (m_j . x + q_j), concave as a minimum of affine maps."""

    slopes: np.ndarray
    offsets: np.ndarray
    concave: bool = field(default=True, init=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        q = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if m.shape[0] != q.shape[0] or m.shape[0] == 0:
            raise ValueError("need one offset per slope, at least one piece")
        object.__setattr__(self, "slopes", m)
        object.__setattr__(self, "offsets", q)

    def _pieces(self, x):
        x = np.asarray(x, dtype=float)
        return self.slopes @ x + self.offsets

    def value(self, x):
        return float(self._pieces(x).min())

    def eval(self, x):
        vals = self._pieces(x)
        order = np.argsort(vals)
        best = order[0]
        if len(vals) > 1:
            scale = max(1.0, abs(vals[best]))
            if vals[order[1]] - vals[best] <= TIE_EPSILON * scale:
                raise KinkError(
                    "gradient requested at a tie between affine pieces"
                )
        d = self.slopes.shape[1]
        return float(vals[best]), self.slopes[best].copy(), np.zeros((d, d))

    def eval_lenient(self, x):
        vals = self._pieces(x)
        best = int(np.argmin(vals))
        d = self.slopes.shape[1]
        return float(vals[best]), self.slopes[best].copy(), np.zeros((d, d))


@lru_cache(maxsize=None)
def _mollifier_grid(dim: int):
    """Tensor Gauss-Legendre nodes on [-1, 1]^dim with bump weights.

    The bump exp(-1/(1 - |z|^2)) on |z| < 1 is normalized to unit mass by
    the same quadrature, so mollifying a constant reproduces it exactly and
    the symmetric node set kills the first moment.
    """
    x1, w1 = np.polynomial.legendre.leggauss(MOLLIFIER_NODES)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w_grids = np.meshgrid(*([w1] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in w_grids], axis=-1), axis=-1)
    r2 = np.sum(pts**2, axis=-1)
    bump = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    wts = wts * bump
    wts /= wts.sum()
    keep = wts > 0
    return pts[keep], wts[keep]


@dataclass(frozen=True)
class MollifiedTerm(ConcaveTerm):
    """Convolution of a base term with a compactly supported smooth bump of
    radius delta, evaluated by tensor-product Gauss-Legendre quadrature.

    Derivatives are carried under the quadrature sum, so concavity of the
    base transfers node by node.
    """

    base: ConcaveTerm
    delta: float
    concave: bool = field(init=False)

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("smoothing radius delta must be positive")
        object.__setattr__(self, "concave", self.base.concave)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        pts, wts = _mollifier_grid(x.size)
        return float(
            sum(w * self.base.value(x - self.delta * z) for z, w in zip(pts, wts))
        )

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        d = x.size
        pts, wts = _mollifier_grid(d)
        val = 0.0
        grad = np.zeros(d)
        hess = np.zeros((d, d))
        for z, w in zip(pts, wts):
            v, g, h = self.base.eval_lenient(x - self.delta * z)
            val += w * v
            grad += w * g
            hess += w * h
        return val, grad, hess


def eigenvalue_criterion(hess, p: float) -> bool:
    """Sufficient condition for the operator term to be non-positive:
    lambda_1 + ... + lambda_{n-1} + (p-1) lambda_n <= 0 (sorted ascending).

    Strictly weaker than concavity for p > 2.
    """
    if not p > 2:
        raise ValueError("the criterion applies for p > 2 only")
    h = np.asarray(hess, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be square")
    if not np.allclose(h, h.T, rtol=0, atol=1e-10 * max(1.0, np.abs(h).max())):
        raise ValueError("H must be symmetric")
    lam = np.linalg.eigvalsh(h)
    return bool(lam[:-1].sum() + (p - 1) * lam[-1] <= CRITERION_SLACK)


def criterion_sum(hess, p: float) -> float:
    """The value lambda_1 + ... + lambda_{n-1} + (p-1) lambda_n itself."""
    lam = np.linalg.eigvalsh(np.asarray(hess, dtype=float))
    return float(lam[:-1].sum() + (p - 1) * lam[-1])


def operator_term(k: ConcaveTerm, p: float, xi, x) -> float:
    """(p-2) xi^T (Hess K) xi / |xi|^2 + tr Hess K at x."""
    xi = np.asarray(xi, dtype=float)
    nrm2 = float(xi @ xi)
    if nrm2 == 0.0:
        raise DegenerateDirectionError("direction xi must be nonzero")
    _, _, h = k.eval(x)
    return (p - 2) * float(xi @ h @ xi) / nrm2 + float(np.trace(h))
