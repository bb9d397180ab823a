"""Discrete comparison-principle harness: a p-Dirichlet energy minimizer on
rectangular grids and a check that the p-harmonic solution h with boundary
data h = W on the box boundary stays below the superposition W inside.

The discrete energy is sum_cells (|grad_h u|^2 + eps^2)^{p/2} * cell volume
with a cell-centered (face-averaged) difference gradient G: each cell's
gradient is a fixed combination of the node values at its 2^dim corners.
Minimization is by damped Newton iteration on the (smooth, convex)
regularized energy: each step solves with the exact Hessian and backtracks
on the energy, so accepted steps are non-increasing and the minimizer is
grid-unique.

Every linear system (the p = 2 start and each Newton step) is symmetric
positive definite and is solved by a banded Cholesky factorisation.  The
start matrix depends on the grid alone, so a domain factors it once, at
its first solve, and its later starts reuse the factor.  The unknowns are
numbered with the interior axis of most nodes varying slowest, which keeps
the band narrowest on any grid shape.  Two corners of a cell are a fixed
distance apart in that numbering, so the band is assembled straight from
the per-cell blocks, one slice of one diagonal per pair of corners."""

from dataclasses import dataclass
import functools
import itertools
import math

import numpy as np

from .concave import ConcaveTerm
from .errors import SolverFailureError, UnsupportedConfigurationError
from .superpose import PoleSet, pole_distance, superposition_value

REG_EPS = 1e-8              # the energy density is (|grad u|^2 + REG_EPS^2)^{p/2}
NEWTON_TOL = 1e-9           # sup-norm of the energy gradient over the unknowns
MAX_NEWTON_ITER = 400
COMPARISON_TOL = 1e-3       # solver + O(h^2) discretization slack at h = 1/32
EXCISION_SPACINGS = 3       # nodes within this many spacings of a pole are excised
MAX_BAND_BYTES = 2**30      # of the lower band of one Newton system (33^3 needs 0.24 GB)


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box with a uniform tensor grid (>= 9 nodes per axis).

    A domain builds its node array and its ``_Stencil``, with the factor of
    the p = 2 start matrix, once, on first use, and keeps them for its own
    lifetime: two equal domains share nothing."""

    bounds: tuple
    shape: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(m) for m in self.shape)
        if len(bounds) != len(shape) or len(shape) not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if any(m < 9 for m in shape):
            raise ValueError("need at least 9 nodes per axis")
        # a NaN or infinite bound, or a width beyond the largest double, gives no spacing
        if not all(math.isfinite(hi - lo) for lo, hi in bounds):
            raise ValueError("box bounds and widths must be finite")
        if any(hi <= lo for lo, hi in bounds):
            raise ValueError("box bounds must be increasing")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self):
        return len(self.shape)

    @property
    def spacing(self):
        return tuple(
            (hi - lo) / (m - 1) for (lo, hi), m in zip(self.bounds, self.shape)
        )

    @property
    def axes(self):
        return tuple(
            np.linspace(lo, hi, m) for (lo, hi), m in zip(self.bounds, self.shape)
        )

    def nodes(self):
        """All node coordinates, shape (*grid shape*, dim), read-only."""
        return self._nodes

    @functools.cached_property
    def _nodes(self):
        nodes = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)
        nodes.flags.writeable = False
        return nodes

    @functools.cached_property
    def _stencil(self):
        return _Stencil(self)

    @property
    def interior(self):
        """Index of the interior nodes."""
        return (slice(1, -1),) * self.dim

    def boundary_mask(self):
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        return mask


class _Stencil:
    """The cell volume of a grid and its cell gradient as a stencil over the
    2^dim corners of each cell; the layout of the interior unknowns and of
    the lower band of their Newton systems, refused above MAX_BAND_BYTES;
    the solve of the p = 2 start matrix G_I^T G_I, factored on first use.

    Corner k of a cell lies ``corners[k]`` (0 or 1 per axis) above the
    cell's lowest node; ``weights[k, j]`` is its weight in the gradient
    component j, a difference along axis j averaged over the midpoints
    along the other axes.
    """

    def __init__(self, dom: GridDomain):
        dim = dom.dim
        # the interior axis of most nodes varies slowest (ties in axis order)
        self.order = sorted(range(dim), key=lambda axis: -dom.shape[axis])
        self.numbered = tuple(dom.shape[axis] - 2 for axis in self.order)
        self.count = math.prod(self.numbered)
        stride = {axis: math.prod(self.numbered[pos + 1:]) for pos, axis in enumerate(self.order)}
        # a node is coupled to the 3^dim nodes of the cells around it, the
        # farthest of them one stride along every axis away
        self.half_band = sum(stride.values())
        size = 8 * (self.half_band + 1) * self.count
        if size > MAX_BAND_BYTES:
            raise UnsupportedConfigurationError(
                f"the Newton systems of a {'x'.join(map(str, dom.shape))} grid have a band of "
                f"{size / 2**30:.3g} GiB, above the limit of {MAX_BAND_BYTES / 2**30:.3g} GiB"
            )
        self.corners = list(itertools.product((0, 1), repeat=dim))
        self.weights = np.array([
            [(1 if c[j] else -1) / h * 0.5 ** (dim - 1) for j, h in enumerate(dom.spacing)]
            for c in self.corners
        ])
        self.cell_shape = tuple(m - 1 for m in dom.shape)
        self.cell_vol = float(np.prod(dom.spacing))
        self.inner = dom.interior
        # node values at corner k of every cell, and the cells that have
        # an interior node at corner k, in interior-node order
        self.node_slices = [tuple(slice(1, None) if ci else slice(None, -1) for ci in c)
                            for c in self.corners]
        self.cell_slices = [tuple(slice(None, -1) if ci else slice(1, None) for ci in c)
                            for c in self.corners]
        # corners k and l of a cell couple unknowns ``offset`` apart in the
        # numbering; each pair with offset >= 0 fills one slice of diagonal
        # ``offset`` of the lower band, over the cells whose corners k and l
        # are both interior, at the column of corner l
        span = {(0, 0): (slice(1, None), slice(None)), (1, 1): (slice(None, -1), slice(None)),
                (1, 0): (slice(1, -1), slice(None, -1)), (0, 1): (slice(1, -1), slice(1, None))}
        self.pairs = []
        for k, ck in enumerate(self.corners):
            for l, cl in enumerate(self.corners):
                offset = sum(stride[axis] * (ck[axis] - cl[axis]) for axis in range(dim))
                if offset >= 0:
                    cells, cols = zip(*(span[ck[axis], cl[axis]] for axis in range(dim)))
                    self.pairs.append((k, l, cells, cols + (offset,)))
        self.dots = self.weights @ self.weights.T
        self._start_solve = None

    def start(self, rhs):
        """x with G_I^T G_I x = rhs: the first call factors G_I^T G_I (a
        failure carries the sup-norm of its rhs as the residual), and every
        call solves with that factor."""
        if self._start_solve is None:
            self._start_solve = _band_solver(self.band(np.ones(self.cell_shape)),
                                             residual=float(np.abs(rhs).max()))
        return self._start_solve(rhs)

    def scatter(self, u, x):
        """Write the unknowns x into the interior of the node array u."""
        u[self.inner].transpose(self.order)[...] = x.reshape(self.numbered)

    def gradient(self, u):
        """Cell gradients of the node values u, shaped (dim, *cells)."""
        corners = np.stack([u[s] for s in self.node_slices])
        return np.tensordot(self.weights, corners, axes=(0, 0))

    def project(self, f):
        """weights[k] . f per cell for every corner k, shaped (2^dim, *cells)."""
        return np.tensordot(self.weights, f, axes=(1, 0))

    def divergence(self, f):
        """G_I^T f for cell vectors f (dim, *cells): the unknowns' entries of
        the transposed gradient, in their numbering."""
        t = self.project(f)
        r = t[0][self.cell_slices[0]].copy()
        for k in range(1, len(self.corners)):
            r += t[k][self.cell_slices[k]]
        return r.transpose(self.order).ravel()

    def band(self, w, s=None, g=None):
        """Lower band of G_I^T B G_I, where B has the per-cell blocks w I,
        plus s g g^T if s and the cell vectors g are given.  It is
        Fortran-ordered, shaped (half_band + 1, unknowns), as LAPACK
        stores it."""
        if g is not None:
            proj = self.project(g)
            s_proj = s * proj
        ab = np.zeros((self.count, self.half_band + 1))
        # the band's diagonals over the interior nodes, indexed along the grid axes
        diagonals = ab.reshape(*self.numbered, -1).transpose(*np.argsort(self.order), -1)
        for k, l, cells, at in self.pairs:
            value = self.dots[k, l] * w[cells]
            if g is not None:
                value += s_proj[k][cells] * proj[l][cells]
            target = diagonals[at]
            target += value
        return ab.T


def _energy_state(st: _Stencil, u, x, p):
    """Energy at the unknowns x, written into the node array u, its
    gradient over the unknowns and the per-cell gradient g,
    q = |g|^2 + eps^2 and weight w = q^{(p-2)/2}."""
    st.scatter(u, x)
    g = st.gradient(u)
    q = np.sum(g**2, axis=0) + REG_EPS**2
    energy = st.cell_vol * float(np.sum(q ** (p / 2)))
    w = q ** ((p - 2) / 2)
    grad_e = p * st.cell_vol * st.divergence(w * g)
    return energy, grad_e, (g, q, w)


def _hessian(st: _Stencil, state, p):
    """Lower band of the exact Hessian G_I^T B G_I of the regularized
    energy, B the per-cell blocks p vol (w I + (p-2) q^{(p-4)/2} g g^T);
    positive definite for p >= 2."""
    g, q, w = state
    scale = p * st.cell_vol
    return st.band(scale * w, scale * (p - 2) * q ** ((p - 4) / 2), g)


def _band_solver(ab, residual):
    """The solve rhs -> x of a x = rhs for a symmetric positive definite a
    given by its lower band ab, which it overwrites: one banded Cholesky
    factorisation (LAPACK pbtrf), then pbtrs per right side, the two calls
    ``solveh_banded``'s pbsv makes, so every solve has its bits.  A leading
    minor that is not positive raises SolverFailureError carrying
    ``residual``."""
    from scipy.linalg import cho_solve_banded, cholesky_banded

    try:
        factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(
            f"the banded Cholesky factorisation failed: {exc}", residual=residual
        ) from exc
    return lambda rhs: cho_solve_banded((factor, True), rhs, check_finite=False)


def solve_p_harmonic(dom: GridDomain, boundary: np.ndarray, p: float) -> np.ndarray:
    """Minimize the regularized discrete p-Dirichlet energy over interior
    node values with Dirichlet data taken from ``boundary`` on the box
    boundary.  ``boundary`` is a full-shape array; interior entries are
    ignored.  Returns the node values, boundary included.  Raises
    SolverFailureError if the energy-gradient sup-norm does not reach
    NEWTON_TOL within MAX_NEWTON_ITER iterations or a Newton system is not
    positive definite, and UnsupportedConfigurationError if its band
    exceeds MAX_BAND_BYTES or a boundary value is not finite.
    """
    if not p >= 2:
        raise ValueError("the solver covers p >= 2 only")
    if np.shape(boundary) != dom.shape:
        raise ValueError("boundary array does not match the grid shape")
    return _solve(dom._stencil, boundary, p)


def _solve(st: _Stencil, boundary, p):
    """The one Newton core of every grid solve, on the grid of ``st`` from
    the p = 2 start, as ``solve_p_harmonic`` documents it."""
    u = np.array(boundary, dtype=float)
    u[st.inner] = 0.0
    if not np.all(np.isfinite(u)):
        raise UnsupportedConfigurationError("boundary values must be finite")
    # initial guess: the unweighted (p = 2) discrete-harmonic extension,
    # G_I^T G_I x = -G_I^T G_B u_B
    x = st.start(-st.divergence(st.gradient(u)))
    energy, grad_e, state = _energy_state(st, u, x, p)
    residual = float(np.abs(grad_e).max())
    for _ in range(MAX_NEWTON_ITER):
        if residual <= NEWTON_TOL:
            break
        direction = _band_solver(_hessian(st, state, p), residual)(-grad_e)
        step = 1.0
        while step > 2.0**-40:
            x_trial = x + step * direction
            trial = _energy_state(st, u, x_trial, p)
            if trial[0] <= energy * (1 + 1e-15) + 1e-300:
                x, (energy, grad_e, state) = x_trial, trial
                break
            step *= 0.5
        else:
            raise SolverFailureError(
                "damping failed to decrease the energy", residual=residual
            )
        residual = float(np.abs(grad_e).max())
    if residual > NEWTON_TOL:
        raise SolverFailureError(
            f"no convergence within {MAX_NEWTON_ITER} iterations", residual=residual
        )
    st.scatter(u, x)
    return u


def _set_p(ps: PoleSet) -> float:
    """The p of a pole set; a stack (``PoleSet.stack_rows``), even of one
    row, is refused: the harness solves one grid for one set."""
    if ps.p.ndim == 1:
        raise UnsupportedConfigurationError("the comparison harness takes one pole set, not a stack")
    return float(ps.p)


def superposition_grid(ps: PoleSet, k: ConcaveTerm, dom: GridDomain) -> np.ndarray:
    """Node values of W = V + K on the grid (value only, derivative-free).

    A pole landing exactly on a node follows the pole rule of
    ``core._profile_value``; where that makes a node value infinite
    (1 < p <= n) the grid is rejected.  A stacked pole set is refused.
    """
    _set_p(ps)
    if dom.dim != ps.params.n:
        raise UnsupportedConfigurationError(
            f"the grid has dimension {dom.dim}, but the poles have dimension {ps.params.n}"
        )
    values = superposition_value(ps, k, dom.nodes())
    if not np.all(np.isfinite(values)):
        raise UnsupportedConfigurationError(
            "a pole coincides with a grid node and W is infinite there"
        )
    return values


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one comparison run.

    min_gap is the minimum of W - h over non-excised interior nodes;
    violations counts nodes where W - h < -tol.  The full grids are kept
    for export.
    """

    min_gap: float
    violations: int
    tol: float
    excised: int
    w_values: np.ndarray
    h_values: np.ndarray
    excised_mask: np.ndarray


def comparison_check(
    ps: PoleSet,
    k: ConcaveTerm,
    dom: GridDomain,
    shift: float = 0.0,
    tol: float = None,
) -> ComparisonReport:
    """Solve for the p-harmonic h with h = W + shift on the box boundary
    and report min(W - h) over the interior.  A gap below -tol is a
    violation; tol defaults to COMPARISON_TOL scaled by (h / (1/32))^2,
    h the largest grid spacing.

    Nodes within EXCISION_SPACINGS spacings of a pole are excised from the
    report (the epsilon-ball construction: there the supersolution side is
    treated as dominating by fiat) and their exported W values are clamped
    to a level above the boundary data.  A stacked pole set is refused.
    """
    p = _set_p(ps)
    if not p > 2:
        raise UnsupportedConfigurationError("the comparison harness requires p > 2")
    st = dom._stencil  # refuses an oversized band before the W grid is built
    if tol is None:
        try:  # ldexp, unlike 32 * h, raises OverflowError as the square does
            tol = COMPARISON_TOL * math.ldexp(max(dom.spacing), 5) ** 2
        except OverflowError:
            raise UnsupportedConfigurationError(
                f"the default tolerance overflows a double for a grid spacing of {max(dom.spacing)!r}"
            ) from None

    w_grid = superposition_grid(ps, k, dom)
    bmask = dom.boundary_mask()
    near_pole = pole_distance(ps, dom.nodes()) <= EXCISION_SPACINGS * max(dom.spacing)
    if np.any(near_pole & bmask):
        raise UnsupportedConfigurationError(
            "a pole lies on (or within the excision radius of) the boundary"
        )

    with np.errstate(over="ignore"):  # _solve refuses an infinite boundary value
        boundary_data = w_grid + shift
    h = _solve(st, boundary_data, p)
    gap = w_grid - h

    interior = ~bmask & ~near_pole
    min_gap = float(gap[interior].min())
    violations = int(np.sum(gap[interior] < -tol))

    clamp = float(boundary_data[bmask].max()) + 1.0
    w_export = w_grid.copy()
    w_export[near_pole] = np.maximum(w_export[near_pole], clamp)
    return ComparisonReport(
        min_gap=min_gap,
        violations=violations,
        tol=tol,
        excised=int(np.sum(near_pole & ~bmask)),
        w_values=w_export,
        h_values=h,
        excised_mask=near_pole,
    )
