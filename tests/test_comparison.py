"""Discrete p-harmonic solver oracles and the comparison harness."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plap import (
    GridDomain,
    GridFunction,
    Params,
    PoleSet,
    QuadraticTerm,
    comparison_check,
    solve_p_harmonic,
    superposition_grid,
)
from plap import comparison
from plap.comparison import (
    _band_solve,
    _check_band,
    _energy_state,
    _half_band,
    _hessian,
    _split_gradient,
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


def test_grid_function_rejects_nonfinite():
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    values = np.zeros(dom.shape)
    values[4, 4] = np.inf
    with pytest.raises(ValueError):
        GridFunction(domain=dom, values=values)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_affine_data_reproduced(square_65, p):
    nodes = square_65.nodes()
    affine = 0.4 * nodes[..., 0] - 1.2 * nodes[..., 1] + 0.3
    sol = solve_p_harmonic(square_65, affine, p)
    assert np.abs(sol.values - affine).max() <= 1e-8


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_one_dimensional_face_data(square_65, p):
    # boundary depends on one coordinate only, linear on the two faces
    nodes = square_65.nodes()
    data = 2.0 * nodes[..., 0] - 0.5
    sol = solve_p_harmonic(square_65, data, p)
    assert np.abs(sol.values - data).max() <= 1e-8


def test_p2_harmonic_polynomial(square_65):
    nodes = square_65.nodes()
    harmonic = nodes[..., 0] ** 2 - nodes[..., 1] ** 2
    sol = solve_p_harmonic(square_65, harmonic, 2.0)
    assert np.abs(sol.values - harmonic).max() <= 5e-3


def test_p3_radial_profile_oracle(square_65):
    # fundamental-solution boundary data with the pole outside the box
    nodes = square_65.nodes()
    r = np.linalg.norm(nodes - np.array([2.5, 0.4]), axis=-1)
    profile = -2.0 * np.sqrt(r)  # -c (p-1)/(p-n) r^{(p-n)/(p-1)}, p=3, n=2
    sol = solve_p_harmonic(square_65, profile, 3.0)
    assert np.abs(sol.values - profile).max() <= 1e-2


def test_solver_rejects_p_below_two(square_65):
    with pytest.raises(ValueError):
        solve_p_harmonic(square_65, np.zeros(square_65.shape), 1.5)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_discrete_maximum_principle(p):
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33))
    nodes = dom.nodes()
    data = np.sin(3 * nodes[..., 0]) * np.cos(2 * nodes[..., 1])
    sol = solve_p_harmonic(dom, data, p)
    bmask = dom.boundary_mask()
    assert sol.values.max() <= data[bmask].max() + 1e-9
    assert sol.values.min() >= data[bmask].min() - 1e-9


def test_3d_affine(square_65):
    dom = GridDomain(bounds=[(-1, 1)] * 3, shape=(9, 9, 9))
    nodes = dom.nodes()
    affine = nodes[..., 0] - 0.5 * nodes[..., 1] + 2 * nodes[..., 2]
    sol = solve_p_harmonic(dom, affine, 3.0)
    assert np.abs(sol.values - affine).max() <= 1e-8


@pytest.mark.parametrize("shape", [(9, 9), (9, 9, 9)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_hessian_matches_central_differences(shape, p):
    rng = np.random.default_rng(5)
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    cell_vol = float(np.prod(dom.spacing))
    g_i, offset, _ = _split_gradient(dom, rng.standard_normal(shape))
    x = rng.standard_normal(g_i.shape[1])

    def gradient(z):
        return _energy_state(g_i, offset, z, p, cell_vol)[1]

    state = _energy_state(g_i, offset, x, p, cell_vol)[2]
    hess = _hessian(g_i, state, p, cell_vol).toarray()
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
    problem, solved by the banded Cholesky and by SuperLU."""
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    cell_vol = float(np.prod(dom.spacing))
    g_i, offset, _ = _split_gradient(dom, smooth_data(dom))
    half_band = _half_band(shape)
    start = g_i.T @ g_i
    rhs = -(g_i.T @ offset.ravel())
    _, grad_e, state = _energy_state(g_i, offset, spla.spsolve(start.tocsc(), rhs), p, cell_vol)
    for a, b in ((start, rhs), (_hessian(g_i, state, p, cell_vol), -grad_e)):
        reference = spla.spsolve(a.tocsc(), b)
        x = _band_solve(a, b, half_band, residual=0.0)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("shape,half_band", [
    ((9, 9), 8), ((9, 65), 8), ((65, 9), 8), ((12, 9), 8), ((9, 9, 9), 57), ((9, 9, 65), 57),
    ((65, 9, 9), 57), ((9, 65, 9), 57), ((9, 17, 11), 71), ((11, 9, 17), 71),
])
def test_half_band_is_the_assembled_band_with_the_longest_axis_outermost(shape, half_band):
    # in the natural order (9, 65) would have a half-band of 64 and (9, 9, 65) of 505
    dom = GridDomain(bounds=[(-1, 1)] * len(shape), shape=shape)
    g_i, _, _ = _split_gradient(dom, np.zeros(shape))
    a = (g_i.T @ g_i).tocoo()
    assert _half_band(shape) == (a.row - a.col).max() == half_band


@pytest.mark.parametrize("shape,axes", [((9, 33), (1, 0)), ((9, 9, 33), (2, 1, 0))])
def test_solution_follows_a_transposed_grid(shape, axes):
    """The same problem with its axes permuted has the permuted solution,
    whichever order the two grids number their unknowns in."""
    bounds = [(-1.0, 1.0), (-0.5, 0.75), (-2.0, 2.0)][: len(shape)]
    dom = GridDomain(bounds=bounds, shape=shape)
    moved = GridDomain(bounds=[bounds[a] for a in axes], shape=[shape[a] for a in axes])
    data = smooth_data(dom) + 0.3 * dom.nodes()[..., -1]
    sol = solve_p_harmonic(dom, data, 3.0).values
    sol_moved = solve_p_harmonic(moved, data.transpose(axes), 3.0).values
    assert np.abs(sol_moved - sol.transpose(axes)).max() <= 1e-12 * np.abs(sol).max()


def test_indefinite_newton_system_raises_solver_failure(monkeypatch):
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    monkeypatch.setattr(comparison, "_hessian", lambda *args: -_hessian(*args))
    with pytest.raises(SolverFailureError) as exc:
        solve_p_harmonic(dom, smooth_data(dom), 3.0)
    assert np.isfinite(exc.value.residual) and exc.value.residual > comparison.NEWTON_TOL


def test_band_above_the_limit_is_rejected_before_solving(monkeypatch):
    _check_band((33, 33, 33))  # 0.24 GB
    with pytest.raises(UnsupportedConfigurationError, match="4.98 GiB"):
        _check_band((60, 60, 60))
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(17, 17))
    monkeypatch.setattr(comparison, "MAX_BAND_BYTES", 8 * (_half_band(dom.shape) + 1) * 15**2 - 1)
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
