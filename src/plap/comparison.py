"""Discrete comparison-principle harness: a p-Dirichlet energy minimizer on
rectangular grids and a check that the p-harmonic solution h with boundary
data h = W on the box boundary stays below the superposition W inside.

The discrete energy is sum_cells (|grad_h u|^2 + eps^2)^{p/2} * cell volume
with a cell-centered (face-averaged) difference gradient.  Minimization is
by damped Newton iteration on the (smooth, convex) regularized energy:
each step solves with the exact sparse Hessian and backtracks on the
energy, so accepted steps are non-increasing and the minimizer is
grid-unique.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .concave import ConcaveTerm, ZeroTerm
from .errors import SolverFailureError, UnsupportedConfigurationError
from .superpose import PoleSet, _pole_terms

DEFAULT_REG_EPS = 1e-8
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 400
COMPARISON_TOL = 1e-3       # solver + O(h^2) discretization slack at h = 1/32
EXCISION_SPACINGS = 3       # nodes within this many spacings of a pole are excised


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box with a uniform tensor grid (>= 9 nodes per axis)."""

    bounds: tuple
    shape: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(m) for m in self.shape)
        if len(bounds) != len(shape) or len(shape) not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if any(m < 9 for m in shape):
            raise ValueError("need at least 9 nodes per axis")
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
        """All node coordinates, shape (*grid shape*, dim)."""
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def boundary_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            idx_lo = [slice(None)] * self.dim
            idx_lo[axis] = 0
            idx_hi = [slice(None)] * self.dim
            idx_hi[axis] = -1
            mask[tuple(idx_lo)] = True
            mask[tuple(idx_hi)] = True
        return mask


@dataclass
class GridFunction:
    """Node values plus the interior/boundary marker of the grid."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError("values do not match the grid shape")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")


def _diff_avg_1d(m, h):
    """1D forward difference (D) and midpoint average (A), shape (m-1, m)."""
    d = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m)) / h
    a = sp.diags([np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m)) * 0.5
    return d.tocsr(), a.tocsr()


def _gradient_operators(dom: GridDomain):
    """Sparse operators mapping node values to cell-centered gradient
    components (one row per cell)."""
    ops = []
    parts = [_diff_avg_1d(m, h) for m, h in zip(dom.shape, dom.spacing)]
    for axis in range(dom.dim):
        factors = [parts[i][0] if i == axis else parts[i][1] for i in range(dom.dim)]
        op = factors[0]
        for f in factors[1:]:
            op = sp.kron(op, f, format="csr")
        ops.append(op)
    return ops


def _energy_state(grad_ops, u_flat, p, reg_eps, cell_vol):
    g = [op @ u_flat for op in grad_ops]
    q = sum(gi**2 for gi in g) + reg_eps**2
    energy = cell_vol * float(np.sum(q ** (p / 2)))
    w = q ** ((p - 2) / 2)
    grad_e = p * cell_vol * sum(op.T @ (w * gi) for op, gi in zip(grad_ops, g))
    return energy, grad_e, (g, q, w)


def _hessian(grad_ops, state, p, cell_vol):
    """Exact sparse Hessian of the regularized energy; positive definite
    for p >= 2 since per cell it is w I + (p-2) w2 g g^T with w2 >= 0."""
    g, q, w = state
    w2 = (p - 2) * q ** ((p - 4) / 2)
    h = None
    for j, op_j in enumerate(grad_ops):
        for kk, op_k in enumerate(grad_ops):
            diag = w2 * g[j] * g[kk]
            if j == kk:
                diag = diag + w
            block = op_j.T @ sp.diags(diag) @ op_k
            h = block if h is None else h + block
    return (h * (p * cell_vol)).tocsr()


def solve_p_harmonic(
    dom: GridDomain,
    boundary: np.ndarray,
    p: float,
    reg_eps: float = DEFAULT_REG_EPS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GridFunction:
    """Minimize the regularized discrete p-Dirichlet energy over interior
    node values with Dirichlet data taken from ``boundary`` on the box
    boundary.  ``boundary`` is a full-shape array; interior entries are
    ignored.  Raises SolverFailureError if the energy-gradient sup-norm
    does not reach ``tol`` within the iteration budget.
    """
    if not p >= 2:
        raise ValueError("the solver covers p >= 2 only")
    boundary = np.asarray(boundary, dtype=float)
    if boundary.shape != dom.shape:
        raise ValueError("boundary array does not match the grid shape")
    bmask = dom.boundary_mask().ravel()
    if not np.all(np.isfinite(boundary.ravel()[bmask])):
        raise ValueError("boundary values must be finite")

    cell_vol = float(np.prod(dom.spacing))
    grad_ops = _gradient_operators(dom)
    interior = ~bmask

    # initial guess: the unweighted (p = 2) discrete-harmonic extension
    u = boundary.ravel().copy()
    m0 = sum((op.T @ op).tocsr() for op in grad_ops)
    u[interior] = spla.spsolve(
        m0[interior][:, interior].tocsc(), -m0[interior][:, bmask] @ u[bmask]
    )

    def interior_residual(grad_e):
        return float(np.abs(grad_e[interior]).max())

    energy, grad_e, state = _energy_state(grad_ops, u, p, reg_eps, cell_vol)
    residual = interior_residual(grad_e)
    for _ in range(max_iter):
        if residual <= tol:
            break
        hess = _hessian(grad_ops, state, p, cell_vol)
        h_ii = hess[interior][:, interior]
        direction = np.zeros_like(u)
        direction[interior] = spla.spsolve(h_ii.tocsc(), -grad_e[interior])

        step = 1.0
        accepted = False
        while step > 2.0**-40:
            u_trial = u + step * direction
            e_trial, g_trial, s_trial = _energy_state(
                grad_ops, u_trial, p, reg_eps, cell_vol
            )
            if e_trial <= energy * (1 + 1e-15) + 1e-300:
                u, energy, grad_e, state = u_trial, e_trial, g_trial, s_trial
                accepted = True
                break
            step *= 0.5
        new_residual = interior_residual(grad_e)
        if not accepted and new_residual > tol:
            raise SolverFailureError(
                "damping failed to decrease the energy", residual=new_residual
            )
        residual = new_residual
    if residual > tol:
        raise SolverFailureError(
            f"no convergence within {max_iter} iterations "
            f"(residual {residual:.3e})",
            residual=residual,
        )
    return GridFunction(domain=dom, values=u.reshape(dom.shape))


def superposition_grid(ps: PoleSet, k: ConcaveTerm, dom: GridDomain) -> np.ndarray:
    """Node values of W = V + K on the grid (value only, derivative-free).

    A pole landing exactly on a node follows the pole rule of
    ``fundamental_profile``; where that makes a node value infinite
    (1 < p <= n) the grid is rejected.
    """
    if k is None:
        k = ZeroTerm()
    n = ps.params.n
    if dom.dim != n:
        raise ValueError("grid dimension does not match the pole-set dimension")
    nodes = dom.nodes().reshape(-1, n)
    v = _pole_terms(ps, nodes)[2]
    values = v @ ps.weights + np.array([k.value(z) for z in nodes])
    if not np.all(np.isfinite(values)):
        raise UnsupportedConfigurationError(
            "a pole coincides with a grid node and W is infinite there"
        )
    return values.reshape(dom.shape)


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
    tol: float = COMPARISON_TOL,
    reg_eps: float = DEFAULT_REG_EPS,
) -> ComparisonReport:
    """Solve for the p-harmonic h with h = W + shift on the box boundary
    and report min(W - h) over the interior.

    Nodes within EXCISION_SPACINGS spacings of a pole are excised from the
    report (the epsilon-ball construction: there the supersolution side is
    treated as dominating by fiat) and their exported W values are clamped
    to a level above the boundary data.
    """
    p = ps.params.p
    if not p > 2:
        raise ValueError("the comparison harness requires p > 2")

    w_grid = superposition_grid(ps, k, dom)
    bmask = dom.boundary_mask()
    nodes = dom.nodes().reshape(-1, dom.dim)
    eps_ball = EXCISION_SPACINGS * max(dom.spacing)
    near_pole = np.zeros(nodes.shape[0], dtype=bool)
    for y in ps.locations:
        d = np.linalg.norm(nodes - y[None, :], axis=1)
        near_pole |= d <= eps_ball
    near_pole = near_pole.reshape(dom.shape)
    if np.any(near_pole & bmask):
        raise UnsupportedConfigurationError(
            "a pole lies on (or within the excision radius of) the boundary"
        )

    boundary_data = w_grid + shift
    h = solve_p_harmonic(dom, boundary_data, p, reg_eps=reg_eps)
    gap = w_grid - h.values

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
        h_values=h.values,
        excised_mask=near_pole,
    )
