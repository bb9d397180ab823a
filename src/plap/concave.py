"""Concave additive terms: quadratics, minima of affine functions, and
their mollifications; the operator term (p-2) e^T H e + tr H, e = xi/|xi|,
the one bracket of Delta_p; and the eigenvalue condition for its sign."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _scalar, axis_norm
from .errors import DegenerateDirectionError, KinkError

TIE_EPSILON = 1e-9          # relative tie detection for min-of-affine pieces
CRITERION_SLACK = 1e-12     # absorbs eigensolver noise at the equality boundary
MOLLIFIER_NODES = 16        # Gauss-Legendre nodes per axis of the mollifier quadrature
MOLLIFIER_BLOCK = 1 << 14   # shifted nodes per base call: one (rows, Q) array per axis, 128 kB each


class ConcaveTerm:
    """Base class for the additive term K.  K = 0 is not a term: every
    consumer of K takes None for it.

    Subclasses implement ``value(x)`` and ``eval(x) -> (value, grad, hess)``;
    ``eval`` raises KinkError where derivatives are undefined, while
    ``eval_lenient`` picks an arbitrary subgradient there (used only inside
    mollification quadrature, where ties are a measure-zero event).

    All three take points of shape (..., d) and keep the leading shape:
    values (...), gradients (..., d), Hessians (..., d, d).  A single point
    (d,) gives a float value.  A term whose Hessian is 0 everywhere says so
    in ``zero_hessian``.
    """

    zero_hessian = False

    def value(self, x):
        raise NotImplementedError

    def eval(self, x):
        raise NotImplementedError

    def eval_lenient(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class QuadraticTerm(ConcaveTerm):
    """K(x) = x^T A x / 2 + b.x + c0.

    Non-concave A is allowed (needed for the eigenvalue-criterion
    counterexamples).  A stack of B terms has A (B, d, d), b (B, d) and c0
    (B,) or one c0 for all; it takes points (..., B, d), each term at its
    own points, and checks each matrix's symmetry against its own scale.
    """

    a_matrix: np.ndarray
    b: np.ndarray = None
    c0: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
            raise ValueError("A must be a square matrix or a stack of them")
        b = np.zeros(a.shape[:-1]) if self.b is None else np.asarray(self.b, dtype=float)
        if b.shape != a.shape[:-1]:
            raise ValueError("b has the wrong dimension")
        c0 = np.asarray(self.c0, dtype=float)
        if c0.shape not in ((), a.shape[:-2]):
            raise ValueError("c0 needs one value per matrix")
        if not all(np.isfinite(v).all() for v in (a, b, c0)):
            raise ValueError("A, b and c0 must be finite")
        # halved first, so no finite entry overflows: the same bits as
        # 0.5 (a + a^T) and 0.5 (a - a^T) outside the subnormal range
        half, half_t = 0.5 * a, 0.5 * a.mT
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        if not (np.abs(half - half_t).max(axis=(-2, -1)) <= 0.5e-12 * scale).all():
            raise ValueError("A must be symmetric")
        object.__setattr__(self, "a_matrix", half + half_t)
        object.__setattr__(self, "b", b)

    # stacked matmuls and vecdot round every point of a batch exactly as a
    # single point's 0.5 x @ A @ x + b @ x and A @ x + b
    def value(self, x):
        x = np.asarray(x, dtype=float)
        xa = ((0.5 * x)[..., None, :] @ self.a_matrix)[..., 0, :]
        return _scalar(np.vecdot(xa, x) + np.vecdot(x, self.b) + self.c0)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        grad = (self.a_matrix @ x[..., None])[..., 0] + self.b
        hess = np.broadcast_to(self.a_matrix, x.shape + x.shape[-1:]).copy()
        return self.value(x), grad, hess


@dataclass(frozen=True)
class AffineMinTerm(ConcaveTerm):
    """K(x) = min_j (m_j . x + q_j), concave as a minimum of affine maps."""

    zero_hessian = True

    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.slopes, dtype=float))
        q = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if m.shape[0] != q.shape[0] or m.shape[0] == 0:
            raise ValueError("need one offset per slope, at least one piece")
        if not (np.isfinite(m).all() and np.isfinite(q).all()):
            raise ValueError("slopes and offsets must be finite")
        object.__setattr__(self, "slopes", m)
        object.__setattr__(self, "offsets", q)

    def _pieces(self, x):
        """Every piece at every point, pieces first: shape (pieces, ...),
        so the minimum over pieces runs over whole rows.  The products are
        summed coordinate by coordinate, not by a matrix product, whose
        rounding differs between one point and a batch."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, x.shape[-1])
        vals = np.multiply.outer(self.slopes[:, 0], pts[:, 0])
        term = np.empty_like(vals)
        for j in range(1, pts.shape[1]):
            vals += np.multiply.outer(self.slopes[:, j], pts[:, j], out=term)
        vals += self.offsets[:, None]
        return vals.reshape(self.offsets.shape + x.shape[:-1])

    def value(self, x):
        return _scalar(self._pieces(x).min(axis=0))

    def _at(self, vals):
        """Value, slope and zero Hessian of the minimizing piece."""
        best = vals.argmin(axis=0)
        d = self.slopes.shape[1]
        hess = np.zeros(vals.shape[1:] + (d, d))
        return _scalar(vals.min(axis=0)), np.take(self.slopes, best, axis=0), hess

    def eval(self, x):
        vals = self._pieces(x)
        if len(vals) > 1:
            low, second = np.partition(vals, 1, axis=0)[:2]
            if np.any(second - low <= TIE_EPSILON * np.maximum(1.0, np.abs(low))):
                raise KinkError("gradient requested at a tie between affine pieces")
        return self._at(vals)

    def eval_lenient(self, x):
        return self._at(self._pieces(x))


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
    base transfers node by node.  The base is called once per block of
    points, on all their shifted quadrature nodes at once.  A base with a
    zero Hessian is not summed: its sum is the +0.0 the Hessian starts as.
    """

    base: ConcaveTerm
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("smoothing radius delta must be positive and finite")

    def _blocks(self, x):
        """Shape of the points x (..., d), the quadrature weights, and per
        block of points its slice of x and its shifted nodes (rows, Q, d).
        The nodes are built coordinate-major, one contiguous (rows, Q)
        array per axis, and handed on as a view, so each axis of a block
        is read at unit stride; every node is x - delta * z, whatever the
        block size."""
        x = np.asarray(x, dtype=float)
        pts, wts = _mollifier_grid(x.shape[-1])
        flat = x.reshape(-1, x.shape[-1])
        rows = max(1, MOLLIFIER_BLOCK // len(wts))
        shifts = self.delta * pts

        def blocks():
            for s in range(0, len(flat), rows):
                part = flat[s : s + rows]
                zt = np.empty((flat.shape[1], len(part), len(wts)))
                # axis by axis: one broadcast subtraction over the whole
                # (d, rows, Q) block measured slower
                for j in range(flat.shape[1]):
                    np.subtract(part[:, j, None], shifts[:, j], out=zt[j])
                yield slice(s, s + rows), np.moveaxis(zt, 0, -1)

        return x.shape, wts, blocks()

    # vecdot sums each point's Q terms alone, so a value does not depend
    # on the block size or on which points share a batch
    def value(self, x):
        shape, wts, blocks = self._blocks(x)
        val = np.empty(math.prod(shape[:-1]))
        for rows, z in blocks:
            val[rows] = np.vecdot(self.base.value(z), wts)
        return _scalar(val.reshape(shape[:-1]))

    def eval(self, x):
        shape, wts, blocks = self._blocks(x)
        m, d = math.prod(shape[:-1]), shape[-1]
        val, grad = np.empty(m), np.empty((m, d))
        hess = (np.zeros if self.base.zero_hessian else np.empty)((m, d, d))
        for rows, z in blocks:
            v, g, h = self.base.eval_lenient(z)
            val[rows] = np.vecdot(v, wts)
            grad[rows] = np.einsum("q,bqi->bi", wts, g)
            if not self.base.zero_hessian:
                hess[rows] = np.einsum("q,bqij->bij", wts, h)
        lead = shape[:-1]
        return _scalar(val.reshape(lead)), grad.reshape(shape), hess.reshape(lead + (d, d))


def eigenvalue_criterion(hess, p):
    """Sufficient condition for the operator term to be non-positive:
    lambda_1 + ... + lambda_{n-1} + (p-1) lambda_n <= 0 (sorted ascending).

    Strictly weaker than concavity for p > 2.  Takes a stack of matrices
    (..., n, n) and p broadcasting against (...); one matrix gives a bool.
    Every matrix of a stack must be symmetric.
    """
    if not (np.asarray(p) > 2).all():
        raise ValueError("the criterion applies for p > 2 only")
    h = np.asarray(hess, dtype=float)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError("H must be square")
    asymmetry = np.abs(h - h.mT).max(axis=(-2, -1))
    if not (asymmetry <= 1e-10 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))).all():
        raise ValueError("H must be symmetric")
    return criterion_sum(h, p) <= CRITERION_SLACK


def criterion_sum(hess, p):
    """The value lambda_1 + ... + lambda_{n-1} + (p-1) lambda_n itself, of
    each matrix of a stack (..., n, n); a float for one matrix."""
    lam = np.linalg.eigvalsh(np.asarray(hess, dtype=float))
    return _scalar(lam[..., :-1].sum(axis=-1) + (np.asarray(p) - 1) * lam[..., -1])


def operator_term(hess, p, xi):
    """(p-2) e^T H e + tr H, e = xi / |xi|, for Hessians H (..., n, n): the
    one bracket of Delta_p W / |grad W|^{p-2}, at xi = grad W.  Directions
    xi (..., n) broadcast against the stack of matrices, and p against their
    leading shape; one direction and one matrix give a float.  xi is scaled
    by its largest |xi_j| first, so no nonzero xi overflows: only 0 raises."""
    xi = np.asarray(xi, dtype=float)
    big = np.abs(xi).max(axis=-1, keepdims=True)
    if (big == 0.0).any():
        raise DegenerateDirectionError("direction xi must be nonzero")
    e = xi / big / axis_norm(xi / big, keepdims=True)
    h = np.asarray(hess, dtype=float)
    # a row vector per direction, so each product rounds as for one direction
    quad = (e[..., None, :] @ h @ e[..., None])[..., 0, 0]
    return _scalar((np.asarray(p) - 2) * quad + np.trace(h, axis1=-2, axis2=-1))
