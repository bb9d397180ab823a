"""Discrete p-harmonic solver oracles and the comparison harness."""

import functools
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded

from plap import (
    GridDomain,
    Params,
    PoleSet,
    QuadraticTerm,
    comparison_check,
    solve_p_harmonic,
    superposition_grid,
)
from plap import comparison
from plap.comparison import (
    _Stencil,
    _band_solver,
    _energy_state,
    _hessian,
)
from plap.errors import SolverFailureError, UnsupportedConfigurationError
from plap.verify import verify_comparison


@pytest.fixture(scope="module")
def square_65():
    return GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(65, 65))


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(8, 33))
    with pytest.raises(ValueError):
        GridDomain(bounds=[(1, -1), (-1, 1)], shape=(33, 33))
    with pytest.raises(ValueError):
        GridDomain(bounds=[(-1, 1)], shape=(33,))
    for bound in ((math.nan, 1), (-1, math.nan), (-math.inf, 1), (-1, math.inf),
                  (math.inf, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            GridDomain(bounds=[(-1, 1), bound], shape=(9, 9))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_overflowing_boundary_data_raise_solver_failure(p):
    """Boundary data so large that the energy overflows: the solver raises
    instead of returning non-finite node values."""
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    nodes = dom.nodes()
    data = 1e200 * (np.sin(2 * nodes[..., 0]) + 0.5 * np.cos(3 * nodes[..., 1]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverFailureError):
        solve_p_harmonic(dom, data, p)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_affine_data_reproduced(square_65, p):
    nodes = square_65.nodes()
    affine = 0.4 * nodes[..., 0] - 1.2 * nodes[..., 1] + 0.3
    sol = solve_p_harmonic(square_65, affine, p)
    assert np.abs(sol - affine).max() <= 1e-8


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_one_dimensional_face_data(square_65, p):
    # boundary depends on one coordinate only, linear on the two faces
    nodes = square_65.nodes()
    data = 2.0 * nodes[..., 0] - 0.5
    sol = solve_p_harmonic(square_65, data, p)
    assert np.abs(sol - data).max() <= 1e-8


def test_p2_harmonic_polynomial(square_65):
    nodes = square_65.nodes()
    harmonic = nodes[..., 0] ** 2 - nodes[..., 1] ** 2
    sol = solve_p_harmonic(square_65, harmonic, 2.0)
    assert np.abs(sol - harmonic).max() <= 5e-3


def test_p3_radial_profile_oracle(square_65):
    # fundamental-solution boundary data with the pole outside the box
    nodes = square_65.nodes()
    r = np.linalg.norm(nodes - np.array([2.5, 0.4]), axis=-1)
    profile = -2.0 * np.sqrt(r)  # -c (p-1)/(p-n) r^{(p-n)/(p-1)}, p=3, n=2
    sol = solve_p_harmonic(square_65, profile, 3.0)
    assert np.abs(sol - profile).max() <= 1e-2


def test_solver_rejects_p_below_two(square_65):
    with pytest.raises(ValueError):
        solve_p_harmonic(square_65, np.zeros(square_65.shape), 1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [(0, 0), (0, 4), (8, 3)], ids=["corner", "low_face", "high_face"])
def test_solver_refuses_a_non_finite_boundary_node(value, node):
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    data = smooth_data(dom)
    data[node] = value
    with pytest.raises(ValueError, match="boundary values must be finite"):
        solve_p_harmonic(dom, data, 3.0)


def test_solver_ignores_a_nan_interior_entry():
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    data = smooth_data(dom)
    sol = solve_p_harmonic(dom, data, 3.0)
    data[4, 5] = math.nan
    assert np.array_equal(solve_p_harmonic(dom, data, 3.0), sol)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_discrete_maximum_principle(p):
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33))
    nodes = dom.nodes()
    data = np.sin(3 * nodes[..., 0]) * np.cos(2 * nodes[..., 1])
    sol = solve_p_harmonic(dom, data, p)
    bmask = dom.boundary_mask()
    assert sol.max() <= data[bmask].max() + 1e-9
    assert sol.min() >= data[bmask].min() - 1e-9


def test_3d_affine(square_65):
    dom = GridDomain(bounds=[(-1, 1)] * 3, shape=(9, 9, 9))
    nodes = dom.nodes()
    affine = nodes[..., 0] - 0.5 * nodes[..., 1] + 2 * nodes[..., 2]
    sol = solve_p_harmonic(dom, affine, 3.0)
    assert np.abs(sol - affine).max() <= 1e-8


def sparse_gradient(dom, boundary):
    """Reference for the stencil: the stacked cell-centered gradient G as a
    sparse matrix (dim blocks of rows, one row per cell; block j differences
    along axis j and averages midpoints along the others), split into its
    columns for the interior unknowns, G_I, in their numbering, and the
    fixed part G_B u_B of the boundary data, shaped (dim, cells)."""
    blocks = []
    for axis in range(dom.dim):
        factors = [
            sp.diags([-1 / h, 1 / h] if i == axis else [0.5, 0.5], [0, 1], shape=(m - 1, m))
            for i, (m, h) in enumerate(zip(dom.shape, dom.spacing))
        ]
        blocks.append(functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), factors))
    g = sp.vstack(blocks, format="csc")
    bmask = dom.boundary_mask().ravel()
    offset = g @ np.where(bmask, boundary.ravel(), 0.0)
    nodes = np.arange(bmask.size).reshape(dom.shape).transpose(_Stencil(dom).order).ravel()
    unknowns = nodes[~bmask[nodes]]
    return g[:, unknowns], offset.reshape(dom.dim, -1), unknowns


def sparse_energy_state(g_i, offset, x, p, cell_vol):
    g = (g_i @ x).reshape(offset.shape) + offset
    q = np.sum(g**2, axis=0) + comparison.REG_EPS**2
    w = q ** ((p - 2) / 2)
    grad_e = p * cell_vol * (g_i.T @ (w * g).ravel())
    return cell_vol * float(np.sum(q ** (p / 2))), grad_e, (g, q, w)


def sparse_hessian(g_i, state, p, cell_vol):
    """G_I^T B G_I with B scattered from the per-cell blocks."""
    g, q, w = state
    dim, cells = g.shape
    blocks = (p - 2) * q ** ((p - 4) / 2) * g[:, None] * g[None, :]
    blocks[range(dim), range(dim)] += w
    index = np.arange(dim * cells).reshape(dim, cells)
    rows, cols = np.broadcast_arrays(index[:, None], index[None, :])
    b = sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(dim * cells,) * 2)
    return (g_i.T @ b @ g_i) * (p * cell_vol)


def lower_band(a, half_band):
    a = a.tocoo()
    lower = a.row >= a.col
    ab = np.zeros((half_band + 1, a.shape[0]), order="F")
    ab[a.row[lower] - a.col[lower], a.col[lower]] = a.data[lower]
    return ab


def dense(ab):
    """The symmetric matrix whose lower band is ab."""
    a = np.zeros((ab.shape[1],) * 2)
    for k, diagonal in enumerate(ab):
        i = np.arange(ab.shape[1] - k)
        a[i + k, i] = a[i, i + k] = diagonal[: i.size]
    return a


def stencil_state(dom, boundary, x, p):
    """The stencil, the energy state at the unknowns x and its Newton band."""
    st = _Stencil(dom)
    energy, grad_e, state = _energy_state(st, boundary.copy(), x, p)
    return st, energy, grad_e, _hessian(st, state, p)


@pytest.mark.parametrize("shape", [(33, 33), (65, 65), (33, 9), (9, 13, 21), (17, 17, 17)])
@pytest.mark.parametrize("p", [2.5, 4.0])
def test_band_matches_the_sparse_reference(shape, p):
    rng = np.random.default_rng(7)
    dom = GridDomain(bounds=[(-1, 1), (-0.5, 1.5), (0, 3)][: len(shape)], shape=shape)
    boundary = rng.standard_normal(shape)
    cell_vol = float(np.prod(dom.spacing))
    g_i, offset, _ = sparse_gradient(dom, boundary)
    x = rng.standard_normal(g_i.shape[1])
    st, energy, grad_e, band = stencil_state(dom, boundary, x, p)
    ref_energy, ref_grad, ref_state = sparse_energy_state(g_i, offset, x, p, cell_vol)
    half_band = st.half_band
    assert band.shape == (half_band + 1, g_i.shape[1]) and band.flags.f_contiguous
    ref_band = lower_band(sparse_hessian(g_i, ref_state, p, cell_vol), half_band)
    assert np.abs(band - ref_band).max() <= 1e-15 * np.abs(ref_band).max()
    start, ref_start = st.band(np.ones(st.cell_shape)), lower_band(g_i.T @ g_i, half_band)
    assert np.abs(start - ref_start).max() <= 1e-15 * np.abs(ref_start).max()
    assert energy == pytest.approx(ref_energy, rel=1e-15)
    assert np.abs(grad_e - ref_grad).max() <= 1e-15 * np.abs(ref_grad).max()


@pytest.mark.parametrize("shape", [(9, 9), (9, 9, 9)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_hessian_matches_central_differences(shape, p):
    rng = np.random.default_rng(5)
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    boundary = rng.standard_normal(shape)
    x = rng.standard_normal(math.prod(m - 2 for m in shape))
    st = _Stencil(dom)

    def gradient(z):
        return _energy_state(st, boundary.copy(), z, p)[1]

    hess = dense(stencil_state(dom, boundary, x, p)[3])
    step = 1e-6
    fd = np.empty_like(hess)
    for j, e in enumerate(step * np.eye(x.size)):
        fd[:, j] = (gradient(x + e) - gradient(x - e)) / (2 * step)
    assert np.abs(fd - hess).max() <= 1e-6 * np.abs(hess).max()


# the fixed problems whose solver outputs are compared across changes
FIXED_PROBLEMS = [((65, 65), 2.0), ((65, 65), 3.0), ((65, 65), 4.0), ((33, 33), 2.5),
                  ((9, 9, 9), 3.0), ((17, 17, 17), 4.0)]


def smooth_data(dom):
    x = dom.nodes()
    data = np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1])
    if dom.dim == 3:
        data = data + x[..., 2] ** 2 - x[..., 0] * x[..., 2]
    return data


@pytest.mark.parametrize("shape,p", FIXED_PROBLEMS)
def test_band_solve_matches_superlu(shape, p):
    """The p = 2 start system and the first Newton system of each fixed
    problem, solved by the banded Cholesky of the stencil's bands and by
    SuperLU on the sparse reference matrices."""
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    data = smooth_data(dom)
    cell_vol = float(np.prod(dom.spacing))
    g_i, offset, _ = sparse_gradient(dom, data)
    start = g_i.T @ g_i
    rhs = -(g_i.T @ offset.ravel())
    x0 = spla.spsolve(start.tocsc(), rhs)
    st, _, grad_e, band = stencil_state(dom, data, x0, p)
    ref_state = sparse_energy_state(g_i, offset, x0, p, cell_vol)[2]
    systems = ((start, st.band(np.ones(st.cell_shape)), rhs),
               (sparse_hessian(g_i, ref_state, p, cell_vol), band, -grad_e))
    for a, ab, b in systems:
        reference = spla.spsolve(a.tocsc(), b)
        x = _band_solver(ab, residual=0.0)(b)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def sparse_reference_solve(dom, boundary, p):
    """solve_p_harmonic's damped Newton iteration on the sparse reference
    operators; returns the node values and the number of Newton steps."""
    cell_vol = float(np.prod(dom.spacing))
    g_i, offset, unknowns = sparse_gradient(dom, boundary)
    half_band = _Stencil(dom).half_band
    rhs = -(g_i.T @ offset.ravel())
    x = solveh_banded(lower_band(g_i.T @ g_i, half_band), rhs, lower=True)
    energy, grad_e, state = sparse_energy_state(g_i, offset, x, p, cell_vol)
    steps = 0
    while np.abs(grad_e).max() > comparison.NEWTON_TOL:
        ab = lower_band(sparse_hessian(g_i, state, p, cell_vol), half_band)
        direction = solveh_banded(ab, -grad_e, lower=True)
        steps += 1
        step = 1.0
        while True:
            trial = sparse_energy_state(g_i, offset, x + step * direction, p, cell_vol)
            if trial[0] <= energy * (1 + 1e-15) + 1e-300:
                x, (energy, grad_e, state) = x + step * direction, trial
                break
            step *= 0.5
    u = boundary.copy()
    u.flat[unknowns] = x
    return u, steps


@pytest.mark.parametrize("shape,p", FIXED_PROBLEMS)
def test_fixed_problems_match_the_sparse_reference_solver(monkeypatch, shape, p):
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    data = smooth_data(dom)
    steps = []
    monkeypatch.setattr(comparison, "_hessian", lambda *args: steps.append(1) or _hessian(*args))
    sol = solve_p_harmonic(dom, data, p)
    reference, ref_steps = sparse_reference_solve(dom, data, p)
    assert np.abs(sol - reference).max() <= 1e-12 * np.abs(reference).max()
    assert len(steps) == ref_steps


@pytest.mark.parametrize("shape,half_band", [
    ((9, 9), 8), ((9, 65), 8), ((65, 9), 8), ((12, 9), 8), ((9, 9, 9), 57), ((9, 9, 65), 57),
    ((65, 9, 9), 57), ((9, 65, 9), 57), ((9, 17, 11), 71), ((11, 9, 17), 71),
])
def test_half_band_is_the_assembled_band_with_the_longest_axis_outermost(shape, half_band):
    # in the natural order (9, 65) would have a half-band of 64 and (9, 9, 65) of 505
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    g_i, _, _ = sparse_gradient(dom, np.zeros(shape))
    a = (g_i.T @ g_i).tocoo()
    st = _Stencil(dom)
    assert st.half_band == (a.row - a.col).max() == half_band
    assert np.any(st.band(np.ones(st.cell_shape))[-1] != 0.0)


@pytest.mark.parametrize("shape,axes", [((9, 33), (1, 0)), ((9, 9, 33), (2, 1, 0))])
def test_solution_follows_a_transposed_grid(shape, axes):
    """The same problem with its axes permuted has the permuted solution,
    whichever order the two grids number their unknowns in."""
    bounds = [(-1.0, 1.0), (-0.5, 0.75), (-2.0, 2.0)][: len(shape)]
    dom = GridDomain(bounds=bounds, shape=shape)
    moved = GridDomain(bounds=[bounds[a] for a in axes], shape=[shape[a] for a in axes])
    data = smooth_data(dom) + 0.3 * dom.nodes()[..., -1]
    sol = solve_p_harmonic(dom, data, 3.0)
    sol_moved = solve_p_harmonic(moved, data.transpose(axes), 3.0)
    assert np.abs(sol_moved - sol.transpose(axes)).max() <= 1e-12 * np.abs(sol).max()


def test_indefinite_newton_system_raises_solver_failure(monkeypatch):
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    monkeypatch.setattr(comparison, "_hessian", lambda *args: -_hessian(*args))
    with pytest.raises(SolverFailureError) as exc:
        solve_p_harmonic(dom, smooth_data(dom), 3.0)
    assert np.isfinite(exc.value.residual) and exc.value.residual > comparison.NEWTON_TOL


def test_band_above_the_limit_is_rejected_before_solving(monkeypatch):
    _Stencil(GridDomain(bounds=[(-1, 1)] * 3, shape=(33, 33, 33)))  # 0.24 GB
    with pytest.raises(UnsupportedConfigurationError, match="4.98 GiB"):
        _Stencil(GridDomain(bounds=[(-1, 1)] * 3, shape=(60, 60, 60)))
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    monkeypatch.setattr(comparison, "MAX_BAND_BYTES", 8 * (_Stencil(dom).half_band + 1) * 15**2 - 1)
    monkeypatch.setattr(comparison, "superposition_grid", None)  # nothing is evaluated
    with pytest.raises(UnsupportedConfigurationError, match="17x17 grid"):
        comparison_check(PoleSet([1.0], [[0.1, 0.2]], Params(3, 2, 1.0)), None, dom)
    with pytest.raises(UnsupportedConfigurationError):
        solve_p_harmonic(dom, np.zeros(dom.shape), 3.0)


def test_superposition_grid_matches_pointwise():
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1.0, 0.7], [[0.2, 0.1], [-0.4, 0.3]], pa)
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    grid = superposition_grid(ps, None, dom)
    nodes = dom.nodes()
    x = nodes[3, 5]
    expected = sum(
        a * (-2.0) * np.sqrt(np.linalg.norm(x - y))
        for a, y in zip(ps.weights, ps.locations)
    )
    assert grid[3, 5] == pytest.approx(expected, rel=1e-12)


def test_fundamental_solution_reproduced(square_65):
    # W itself is p-harmonic off the pole: h matches W, gap about zero
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1.0], [[2.5, 0.0]], pa)
    report = comparison_check(ps, None, square_65)
    assert report.violations == 0
    assert abs(report.min_gap) <= report.tol


def test_comparison_two_pole_concave_configuration(square_65):
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1.0, 0.8], [[0.25, 0.1], [-0.3, -0.2]], pa)
    k = QuadraticTerm(np.array([[-1.0, 0.2], [0.2, -0.8]]), b=[0.1, -0.3])
    report = comparison_check(ps, k, square_65)
    assert report.min_gap >= -report.tol
    assert report.violations == 0
    assert report.excised > 0


def test_comparison_shifted_boundary(square_65):
    pa = Params(2.5, 2, 1.0)
    ps = PoleSet([1.0], [[0.1, 0.2]], pa)
    report = comparison_check(ps, None, square_65, shift=-1.0)
    assert report.min_gap >= 1.0 - report.tol


def test_pole_on_boundary_rejected():
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1.0], [[1.0, 0.0]], pa)
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    with pytest.raises(UnsupportedConfigurationError):
        comparison_check(ps, None, dom)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_comparison_check_refuses_p_up_to_two(p):
    ps = PoleSet([1.0], [[0.1, 0.2]], Params(p, 2, 1.0))
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    with pytest.raises(UnsupportedConfigurationError, match="harness requires p > 2"):
        comparison_check(ps, None, dom)


@pytest.mark.parametrize("rows", [9, 4, 1], ids=["axis_length", "no_axis_length", "one_row"])
def test_every_stacked_pole_set_is_refused(monkeypatch, rows):
    """One pole per row, p from 3.0 up by 0.1, on a 9 x 9 grid.  Unrefused,
    9 rows gave a report whose W column j came from row j's poles, solved
    at row 0's p; 4 rows raised numpy's broadcast ValueError."""
    stack = PoleSet.stack_rows([[1.0]] * rows, [[[0.1 * j - 0.4, 0.05]] for j in range(rows)],
                               [Params(3.0 + 0.1 * j, 2, 1.0) for j in range(rows)])
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    with pytest.raises(UnsupportedConfigurationError, match="one pole set, not a stack"):
        superposition_grid(stack, None, dom)
    monkeypatch.setattr(comparison, "_Stencil", None)  # refused before the band check
    with pytest.raises(UnsupportedConfigurationError, match="one pole set, not a stack"):
        comparison_check(stack, None, dom)


@pytest.mark.parametrize("bounds,shape,factor", [
    ([(-1, 1), (-1, 1)], (17, 17), 16.0),
    ([(-1, 1), (-1, 1)], (33, 33), 4.0),
    ([(-1, 1), (-1, 1)], (65, 65), 1.0),
    ([(-1, 1), (-1, 2)], (33, 25), 16.0),  # spacings 1/16 and 1/8: the larger one counts
], ids=["17", "33", "65", "non_square"])
def test_default_tolerance_scales_as_the_square_of_the_spacing(bounds, shape, factor):
    dom = GridDomain(bounds=bounds, shape=shape)
    report = comparison_check(PoleSet([1.0], [[0.1, 0.2]], Params(3, 2, 1.0)), None, dom)
    assert report.tol == comparison.COMPARISON_TOL * (32 * max(dom.spacing)) ** 2
    assert report.tol == comparison.COMPARISON_TOL * factor


def largest_spacing_with_a_default_tolerance():
    """The largest h whose (32 h)^2 is a double."""
    h = math.sqrt(np.finfo(float).max) / 32
    while True:
        try:
            return h, (32 * h) ** 2
        except OverflowError:
            h = math.nextafter(h, 0)


@pytest.mark.parametrize("half_width", [
    1e154, 4 * math.nextafter(largest_spacing_with_a_default_tolerance()[0], math.inf), 8e307,
], ids=["square_overflows", "next_spacing", "scaled_spacing_overflows"])
def test_default_tolerance_that_overflows_is_refused_before_w_is_built(monkeypatch, half_width):
    dom = GridDomain(bounds=[(-half_width, half_width), (-1, 1)], shape=(9, 9))
    monkeypatch.setattr(comparison, "superposition_grid", None)  # nothing is evaluated
    line = f"overflows a double for a grid spacing of {max(dom.spacing)!r}"
    with pytest.raises(UnsupportedConfigurationError, match=re.escape(line)):
        comparison_check(PoleSet([1.0], [[0.1, 0.2]], Params(3, 2, 1.0)), None, dom)


def test_largest_default_tolerance_keeps_its_bits(monkeypatch):
    h, square = largest_spacing_with_a_default_tolerance()
    dom = GridDomain(bounds=[(-4 * h, 4 * h)] * 2, shape=(9, 9))
    assert max(dom.spacing) == h
    # the tolerance is all this checks: W is zero and the solve returns its data
    monkeypatch.setattr(comparison, "superposition_grid", lambda ps, k, dom: np.zeros(dom.shape))
    monkeypatch.setattr(comparison, "_solve", lambda st, boundary, p: boundary)
    report = comparison_check(PoleSet([1.0], [[0.0, 0.0]], Params(3, 2, 1.0)), None, dom)
    assert report.tol == comparison.COMPARISON_TOL * square


def test_comparison_check_builds_one_stencil(monkeypatch):
    built = []
    monkeypatch.setattr(comparison, "_Stencil", lambda dom: built.append(dom) or _Stencil(dom))
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    comparison_check(PoleSet([1.0], [[0.1, 0.2]], Params(3, 2, 1.0)), None, dom)
    assert built == [dom]


def test_equal_domains_share_no_stencil_and_no_nodes(monkeypatch):
    """A domain builds its stencil and its node array once, for its own
    solves; an equal but distinct domain builds its own."""
    built = []
    monkeypatch.setattr(comparison, "_Stencil", lambda dom: built.append(dom) or _Stencil(dom))
    a, b = (GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17)) for _ in range(2))
    assert a == b and a is not b
    data = smooth_data(a)
    for dom in (a, a, b):
        solve_p_harmonic(dom, data, 3.0)
    assert len(built) == 2 and built[0] is a and built[1] is b
    assert a.nodes() is a.nodes() and a.nodes() is not b.nodes()
    assert not a.nodes().flags.writeable


def counted_start_factors(monkeypatch):
    """The Counter of p = 2 start factorisations by unknowns: each band
    assembled without the rank-one part, G_I^T G_I, is factored once."""
    starts, band = Counter(), _Stencil.band

    def counted(self, w, s=None, g=None):
        if g is None:
            starts[self.count] += 1
        return band(self, w, s, g)

    monkeypatch.setattr(_Stencil, "band", counted)
    return starts


def test_verify_comparison_factors_each_grids_start_once(monkeypatch):
    """Eight solves on the 33^2 grid and one on its 17^2 coarsening: one
    start factorisation per grid; one comparison check makes one."""
    starts = counted_start_factors(monkeypatch)
    verify_comparison(3)
    assert starts == Counter({31**2: 1, 15**2: 1})
    starts.clear()
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33))
    comparison_check(PoleSet([1.0], [[0.1, 0.2]], Params(3, 2, 1.0)), None, dom)
    assert starts == Counter({31**2: 1})


@pytest.mark.parametrize("shape", [(17, 17), (33, 33), (65, 65), (9, 9, 9)])
def test_the_shared_start_factor_solves_as_solveh_banded(shape):
    """The start of every solve on a domain, from the one factor of its
    p = 2 matrix: bit for bit ``solveh_banded``'s solve of that matrix."""
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    st = dom._stencil
    for data in (smooth_data(dom), np.cos(dom.nodes().sum(axis=-1))):
        u = np.array(data)
        u[st.inner] = 0.0
        rhs = -st.divergence(st.gradient(u))
        want = solveh_banded(st.band(np.ones(st.cell_shape)), rhs, lower=True, check_finite=False)
        assert st.start(rhs).tobytes() == want.tobytes()


def test_refinement_shrinks_violations():
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1.0, 0.5], [[0.2, 0.0], [-0.25, 0.15]], pa)
    k = QuadraticTerm(np.array([[-0.5, 0.0], [0.0, -1.5]]))
    worst = []
    for nodes in (17, 33):
        dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(nodes, nodes))
        rep = comparison_check(ps, k, dom, tol=1e-2)
        worst.append(max(0.0, -rep.min_gap))
    assert worst[1] <= max(worst[0], 1e-3)


def test_verify_comparison_passes_at_the_default_seed():
    # the release criteria run the other three verify suites at this seed
    rep = verify_comparison()
    assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]
