"""Superposition evaluation and the three Delta_p routes."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    AffineMinTerm,
    GridDomain,
    Params,
    PoleSet,
    QuadraticTerm,
    SignClass,
    delta_p_closed_form,
    delta_p_direct,
    delta_p_fd,
    evaluate,
    sign_region,
    superpose,
)
from plap.comparison import superposition_grid
from plap.core import fd_spacing
from plap.errors import (
    KinkError,
    PoleSingularityError,
    UnsupportedConfigurationError,
)
from plap.superpose import (
    DEFAULT_FD_STEP,
    _cutoff,
    near_pole,
    pole_distance,
    superposition_value,
)


def rel(a, b, scale=0.0):
    return abs(a - b) / max(abs(a), abs(b), scale, 1e-300)


def test_pole_set_merges_duplicates():
    ps = PoleSet([1.0, 2.0, 0.5], [[0, 0], [1, 0], [0, 0]], Params(3, 2))
    assert len(ps) == 2
    assert sorted(ps.weights) == [1.5, 2.0]


def test_pole_set_drops_zero_weights():
    ps = PoleSet([0.0, 1.0], [[0, 0], [1, 1]], Params(3, 2))
    assert len(ps) == 1


def merged_by_the_loop(weights, locations):
    """The merge rule as a per-pole loop, the reference for ``PoleSet``:
    zero weights dropped, equal locations (float ==) merged in order of
    first occurrence, keeping the first location, weights summed left to
    right."""
    merged = {}
    for wi, yi in zip(np.asarray(weights, dtype=float), np.asarray(locations, dtype=float)):
        if wi == 0.0:
            continue
        key = tuple(yi)
        merged[key] = merged.get(key, 0.0) + wi
    return np.array(list(merged.values())), np.array([list(k) for k in merged])


def summed_left_to_right(values):
    """The reference sum behind ``_cutoff``; Python's ``sum`` is
    compensated from 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    rows=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1e-17, 2.5]),
            st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0]), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_pole_set_merges_as_the_loop_does(n, rows):
    weights = [w for w, _ in rows]
    locations = [y[:n] for _, y in rows]
    if not any(weights):
        with pytest.raises(ValueError, match="at least one positive weight"):
            PoleSet(weights, locations, Params(3, n))
        return
    ps = PoleSet(weights, locations, Params(3, n))
    want_w, want_y = merged_by_the_loop(weights, locations)
    np.testing.assert_array_equal(ps.weights, want_w)
    np.testing.assert_array_equal(ps.locations, want_y)
    # the first location kept, down to the sign of a zero
    np.testing.assert_array_equal(np.signbit(ps.locations), np.signbit(want_y))
    assert ps.counts == len(ps) == len(want_w)
    assert _cutoff(ps.weights) == 1e-12 * max(1.0, summed_left_to_right(want_w))


def test_pole_set_merge_matches_the_loop_on_a_large_set():
    rng = np.random.default_rng(3)
    weights = rng.choice([0.0, 0.1, 0.3, 1.7], 5000)
    locations = rng.integers(-4, 5, (5000, 3)) * 0.25
    ps = PoleSet(weights, locations, Params(2.5, 3))
    want_w, want_y = merged_by_the_loop(weights, locations)
    np.testing.assert_array_equal(ps.weights, want_w)
    np.testing.assert_array_equal(ps.locations, want_y)
    assert _cutoff(ps.weights) == 1e-12 * max(1.0, summed_left_to_right(want_w))


def test_pole_set_refuses_non_finite_input():
    for weights, locations in (([1.0, 2.0], [[math.nan, 0.0], [math.nan, 0.0]]),
                               ([math.nan, 2.0], [[0, 0], [1, 1]]),
                               ([math.inf, 2.0], [[0, 0], [1, 1]]),
                               ([-math.inf], [[0, 0]]),
                               ([1.0], [[0.0, -math.inf]])):
        with pytest.raises(ValueError, match="weights and locations must be finite"):
            PoleSet(weights, locations, Params(3, 2))


def test_pole_set_rejects_all_zero():
    with pytest.raises(ValueError, match="at least one positive weight"):
        PoleSet([0.0], [[0, 0]], Params(3, 2))


def test_pole_set_rejects_negative_weight():
    with pytest.raises(ValueError, match="non-negative"):
        PoleSet([-1.0], [[0, 0]], Params(3, 2))


def test_pole_set_does_not_freeze_the_callers_arrays():
    w, y = np.array([1.0, 2.0]), np.array([[0.0, 0.0], [1.0, 1.0]])
    PoleSet(w, y, Params(3, 2))
    assert w.flags.writeable and y.flags.writeable


@pytest.mark.parametrize(
    "weights,locations,match",
    [
        ([1.0, 2.0], [[0, 0]], "one location per weight"),
        ([1.0], [[0, 0, 0]], "dimension 3, expected 2"),
        ([1.0, -1.0], [[0, 0], [1, 1]], "non-negative"),
        ([0.0, 0.0], [[0, 0], [1, 1]], "at least one positive weight"),
        ([[1.0]], [[0, 0]], "a list of weights"),
    ],
)
def test_pole_set_rejects_bad_input(weights, locations, match):
    with pytest.raises(ValueError, match=match):
        PoleSet(weights, locations, Params(3, 2))


STACK_FIELDS = ("weights", "locations", "counts")
DISTINCT_ROW = ([0.5, 1.5], [[0.3, -0.2], [-0.6, 0.4]])  # a row __init__ keeps as given


def stack_of_sets(weights, locations, params):
    """The stack of each row's ``PoleSet``, built from the sets' fields."""
    sets = [PoleSet(w, y, params) for w, y in zip(weights, locations)]
    return PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets], params)


def assert_holds_each_set(stack, sets):
    """Row b of ``stack`` is ``sets[b]`` bit by bit, padded with weight-0
    copies of its first pole."""
    assert stack.weights.shape == (len(sets), max(ps.counts for ps in sets))
    for b, ps in enumerate(sets):
        m = ps.counts
        assert stack.counts[b] == m and _cutoff(stack.weights)[b] == _cutoff(ps.weights)
        assert stack.weights[b, :m].tobytes() == ps.weights.tobytes()
        assert stack.locations[b, :m].tobytes() == ps.locations.tobytes()
        assert not stack.weights[b, m:].any() and (stack.locations[b, m:] == ps.locations[0]).all()


@pytest.mark.parametrize("weights, locations, error", [
    ([1.0, 2.0, 0.5], [[0.1, 0.2], [0.7, 0.0], [0.1, 0.2]], None),
    ([1.0, 2.0], [[0.0, 0.5], [-0.0, 0.5]], None),
    ([1.0, 0.0, 2.0], [[0.1, 0.2], [0.7, 0.0], [0.3, 0.3]], None),
    ([1.0, 2.0], [[math.nan, 0.0], [math.nan, 0.0]], "must be finite"),
    ([math.nan, 2.0], [[0.1, 0.2], [0.7, 0.0]], "must be finite"),
    (2.0, [0.4, 0.4], None),
    ([1.0, 2.0, 3.0], [[0.1, 0.2], [0.1, -0.2], [0.2, 0.1]], None),
], ids=["duplicate", "signed-zero-duplicate", "zero-weight", "nan-locations", "nan-weight",
        "scalar-and-vector", "distinct"])
def test_a_stack_of_raw_rows_is_the_stack_of_their_sets(monkeypatch, weights, locations, error):
    """Field by field and bit by bit, and no accepted row goes through
    ``__init__``; a refused row raises its set's error."""
    params = Params(3, 2)
    rows = ([DISTINCT_ROW[0], weights, DISTINCT_ROW[0]],
            [DISTINCT_ROW[1], locations, DISTINCT_ROW[1]])
    if error:
        for build in (stack_of_sets, PoleSet.stack_rows):
            with pytest.raises(ValueError, match=error):
                build(*rows, params)
        return
    want = stack_of_sets(*rows, params)
    calls, init = [], PoleSet.__init__
    monkeypatch.setattr(PoleSet, "__init__", lambda self, *args: calls.append(init(self, *args)))
    got = PoleSet.stack_rows(*rows, params)
    monkeypatch.undo()
    assert not calls
    assert_holds_each_set(got, [PoleSet(w, y, params) for w, y in zip(*rows)])
    assert got.params == want.params
    for name in STACK_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes() and not a.flags.writeable, name


@pytest.mark.parametrize("weights, locations, match", [
    ([1.0, -1.0], [[0, 0], [1, 1]], "non-negative"),
    ([-1.0], [[0, 0]], "non-negative"),
    ([0.0, 0.0], [[0, 0], [1, 1]], "at least one positive weight"),
    ([], np.zeros((0, 2)), "at least one positive weight"),
    ([1.0, 2.0], [[0, 0]], "one location per weight"),
    ([1.0], [[0, 0, 0]], "dimension 3, expected 2"),
    ([[1.0]], [[0, 0]], "a list of weights"),
    ([1.0, math.inf], [[0, 0], [1, 1]], "must be finite"),
    ([-math.inf], [[0, 0]], "must be finite"),
    ([1.0], [[math.nan, 0]], "must be finite"),
    ([1.0, 2.0], [[0, 0], [math.inf, 1]], "must be finite"),
    ([1e308, 1e308], [[0, 0], [1, 1]], "sum of the weights overflows"),
    # the merged weight itself overflows
    ([1e308, 1e308], [[0, 0], [0, 0]], "sum of the weights overflows"),
])
def test_raw_rows_are_refused_as_their_sets_are(weights, locations, match):
    rows = [DISTINCT_ROW[0], weights], [DISTINCT_ROW[1], locations]
    for build in (stack_of_sets, PoleSet.stack_rows):
        with pytest.raises(ValueError, match=match):
            build(*rows, Params(3, 2))
    # the first refused row is the one reported
    for w_rows, y_rows, first_error in (
        ([[1.0, -1.0], [1.0]], [[[0, 0], [1, 1]], [[0, 0, 0]]], "non-negative"),
        # an all-zero row before a wrongly shaped one
        ([[0.0, 0.0], [1.0]], [[[0, 0], [1, 1]], [[0, 0, 0]]], "at least one positive weight"),
        # a refused row after a row that needs merging
        ([[1.0, 2.0], [1.0, math.nan]], [[[0, 0], [0, 0]], [[0, 0], [1, 1]]], "must be finite"),
        ([[1.0, 0.0, 2.0], [-1.0]], [[[0, 0], [1, 1], [0, 0]], [[0, 0]]], "non-negative"),
        ([[1e308, 1e308], [-1.0]], [[[0, 0], [1, 1]], [[0, 0]]], "sum of the weights overflows"),
        ([[-1.0], [1e308, 1e308]], [[[0, 0]], [[0, 0], [1, 1]]], "non-negative"),
    ):
        for build in (stack_of_sets, PoleSet.stack_rows):
            with pytest.raises(ValueError, match=first_error):
                build(w_rows, y_rows, Params(3, 2))
    with pytest.raises(ValueError, match="at least one pole set"):
        PoleSet.stack_rows([], [], Params(3, 2))


def test_weights_whose_sum_is_the_largest_doubles_are_taken():
    weights = [1e308, 7e307]
    ps = PoleSet(weights, [[0, 0], [1, 1]], Params(3, 2))
    stack = PoleSet.stack_rows([weights, [1.0]], [[[0, 0], [1, 1]], [[0, 0]]], Params(3, 2))
    assert _cutoff(ps.weights) == _cutoff(stack.weights)[0] == 1e-12 * summed_left_to_right(weights)


def test_eval_single_pole_newtonian():
    ps = PoleSet([1.0], [[0, 0, 0]], Params(2, 3, 1.0))
    res = evaluate(ps, None, [2.0, 0.0, 0.0])
    assert res.value == pytest.approx(0.5)
    np.testing.assert_allclose(res.gradient, [-0.25, 0, 0], atol=1e-15)


def test_eval_symmetric_pair_cancels():
    ps = PoleSet([1.0, 1.0], [[1, 0], [-1, 0]], Params(3, 2, 1.0))
    res = evaluate(ps, None, [0.0, 0.0])
    assert abs(res.gradient[0]) < 1e-15


def test_eval_gradient_fd_oracle():
    rng = np.random.default_rng(11)
    pa = Params(3, 2, 1.0)
    ps = PoleSet(rng.uniform(0.5, 2, 5), rng.uniform(-1, 1, (5, 2)), pa)
    h = 1e-6
    checked = 0
    while checked < 10:
        x = rng.uniform(-2, 2, 2)
        if np.min(np.linalg.norm(x - ps.locations, axis=1)) < 0.5:
            continue
        res = evaluate(ps, None, x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (evaluate(ps, None, x + e).value - evaluate(ps, None, x - e).value) / (
                2 * h
            )
            assert rel(res.gradient[j], fd, np.abs(res.gradient).max()) <= 1e-6
        checked += 1


def test_eval_at_pole_infinite_for_small_p():
    ps = PoleSet([1.0], [[0, 0, 0]], Params(2, 3, 1.0))
    res = evaluate(ps, None, [0.0, 0.0, 0.0])
    assert res.value == math.inf
    assert not res.derivatives_available


def test_eval_at_pole_finite_for_large_p():
    # p > n: the pole contributes its limit 0; the other poles and K add up
    pa = Params(3, 2, 1.0)
    k = QuadraticTerm(-np.eye(2), b=[0.5, 0.0])
    ps = PoleSet([1.0, 2.0], [[0, 0], [1, 1]], pa)
    res = evaluate(ps, k, [0.0, 0.0])
    other = evaluate(PoleSet([2.0], [[1, 1]], pa), None, [0.0, 0.0]).value
    assert res.value == pytest.approx(other + k.value([0.0, 0.0]), rel=1e-15)
    assert math.isfinite(res.value)
    assert not res.derivatives_available and res.hessian is None
    assert evaluate(PoleSet([1.0], [[0, 0]], pa), None, [0.0, 0.0]).value == 0.0
    with pytest.raises(PoleSingularityError):
        delta_p_direct(evaluate(ps, k, [0.0, 0.0]))


def test_angles_in_range():
    rng = np.random.default_rng(12)
    ps = PoleSet(rng.uniform(0.5, 2, 4), rng.uniform(-1, 1, (4, 3)), Params(2.5, 3))
    x = np.array([1.7, 1.2, -1.4])
    res = evaluate(ps, None, x)
    assert np.all(res.angles >= 0) and np.all(res.angles <= np.pi)
    np.testing.assert_allclose(
        res.distances, np.linalg.norm(x - ps.locations, axis=1), rtol=1e-15
    )


def test_single_pole_p_harmonic_direct():
    for p, n in [(2.5, 3), (3.0, 2), (4.0, 5), (3.0, 3)]:
        ps = PoleSet([1.3], [np.zeros(n)], Params(p, n, 1.0))
        x = np.full(n, 0.8)
        assert abs(delta_p_direct(evaluate(ps, None, x))) <= 1e-10


def test_p2_direct_is_trace():
    ps = PoleSet([1.0, 2.0], [[1, 0], [0, 1]], Params(2, 2, 1.0))
    x = np.array([0.3, -0.4])
    res = evaluate(ps, None, x)
    assert delta_p_direct(evaluate(ps, None, x)) == pytest.approx(np.trace(res.hessian))


def test_p2_direct_is_the_trace_where_the_gradient_times_the_hessian_overflows():
    """|grad V| about 9.2e89 and |H| about 1e135: g^T H g overflows a double,
    the unit direction of ``operator_term`` does not, so 0 (p - 2) e^T H e
    leaves tr H bit for bit."""
    ps = PoleSet([1.0, 0.5], [[0, 0, 0], [1, 0, 0]], Params(2, 3, 1.0))
    res = evaluate(ps, None, [1e-45, 3e-46, 0.0])
    assert 9e89 < res.grad_norm < 1e90
    assert delta_p_direct(res) == np.trace(res.hessian)


def test_closed_form_single_pole_exact_zero():
    ps = PoleSet([2.0], [[0.5, 0.5]], Params(3.5, 2, 1.0))
    assert delta_p_closed_form(evaluate(ps, None, [1.7, -0.3])) == 0.0


def test_closed_form_p2_exact_zero():
    ps = PoleSet([1.0, 1.0], [[1, 0], [-1, 0]], Params(2, 2, 1.0))
    assert delta_p_closed_form(evaluate(ps, None, [0.3, 0.8])) == 0.0


@pytest.mark.parametrize("weights, locations, p, x", [
    ([1.0, 0.5], [[0, 0, 0], [1, 0, 0]], 2, [1e-120, 0.0, 0.0]),
    ([1.0], [[0, 0, 0]], 1.5, [1e-70, 0.0, 0.0]),
], ids=["p=2", "one pole"])
def test_closed_form_rows_set_to_zero_take_no_radius_power(weights, locations, p, x):
    """r^{(p+n-2)/(p-1)} underflows to 0 at these points (r^3 and r^5), but
    the rows are 0 whatever it is.  ``evaluate`` there overflows |grad V|^2
    (``core.axis_norm`` squares without scaling), so only the closed form
    runs with numpy's warnings as errors."""
    ps = PoleSet(weights, locations, Params(p, 3, 1.0))
    with np.errstate(all="ignore"):
        res = evaluate(ps, None, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert delta_p_closed_form(res) == 0.0


def test_closed_form_rejects_concave_term():
    ps = PoleSet([1.0], [[0, 0]], Params(3, 2))
    with pytest.raises(UnsupportedConfigurationError):
        delta_p_closed_form(evaluate(ps, QuadraticTerm(-np.eye(2)), [1.0, 1.0]))
    assert delta_p_closed_form(evaluate(ps, None, [1.0, 1.0])) == 0.0


def test_two_pole_closed_vs_direct_and_sign():
    ps = PoleSet([1.0, 1.0], [[1, 0], [-1, 0]], Params(3, 2, 1.0))
    x = np.array([0.0, 1.0])
    c = delta_p_closed_form(evaluate(ps, None, x))
    d = delta_p_direct(evaluate(ps, None, x))
    assert rel(c, d) <= 1e-10
    assert c <= 0


def test_fd_single_pole_near_zero():
    ps = PoleSet([1.0], [[0, 0]], Params(4, 2, 1.0))
    assert abs(delta_p_fd(ps, None, [1.0, 0.0])) < 1e-5


def test_fd_quadratic_only_against_direct():
    # no poles is not representable; use a far tiny pole so the quadratic
    # dominates, and compare the two smooth routes
    pa = Params(3, 2, 1.0)
    ps = PoleSet([1e-9], [[50.0, 50.0]], pa)
    k = QuadraticTerm(np.array([[-2.0, 0.3], [0.3, -1.0]]), b=[0.4, -0.1])
    x = np.array([0.2, -0.7])
    d = delta_p_direct(evaluate(ps, k, x))
    f = delta_p_fd(ps, k, x)
    assert rel(f, d) <= 1e-6


def test_fd_rejects_points_near_poles():
    ps = PoleSet([1.0], [[0, 0]], Params(3, 2))
    with pytest.raises(PoleSingularityError):
        delta_p_fd(ps, None, [5e-4, 0.0], step=1e-4)


def per_pole_minimum(locations, x):
    """The nearest-pole distance as a loop over poles, one norm per pole."""
    best = np.full(np.shape(x)[:-1], np.inf)
    for y in locations:
        best = np.minimum(best, np.linalg.norm(x - y, axis=-1))
    return best


def test_pole_distance_is_the_per_pole_minimum_on_a_padded_stack_and_on_grid_nodes():
    rng = np.random.default_rng(41)
    sets = [PoleSet(rng.uniform(0.2, 2.0, m), rng.uniform(-1, 1, (m, 3)), Params(3, 3))
            for m in (1, 5, 2, 8)]
    stack = PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets],
                               Params(3, 3))
    x = rng.uniform(-2, 2, (len(sets), 3))
    want = [per_pole_minimum(ps.locations, x[i]) for i, ps in enumerate(sets)]
    np.testing.assert_array_equal(pole_distance(stack, x), want)
    ps = PoleSet([1.0, 0.5, 2.0], [[0.2, 0.1], [-0.4, 0.3], [0.0, -0.7]], Params(3, 2))
    nodes = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33)).nodes()
    np.testing.assert_array_equal(pole_distance(ps, nodes), per_pole_minimum(ps.locations, nodes))


def test_values_need_no_profile_derivatives(monkeypatch):
    ps = PoleSet([1.0, 2.0], [[0.5, 0.0], [-0.5, 0.25]], Params(3, 2))
    dom = GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(9, 9))
    k = QuadraticTerm(-np.eye(2))
    x = np.array([[0.1, 0.2], [0.5, 0.0]])
    want = superposition_value(ps, k, x), superposition_grid(ps, None, dom)

    def refuse(params, r):
        raise AssertionError("the value of V needs no v' or v''")

    monkeypatch.setattr(superpose, "fundamental_profile", refuse)
    np.testing.assert_array_equal(superposition_value(ps, k, x), want[0])
    np.testing.assert_array_equal(superposition_grid(ps, None, dom), want[1])
    # a batch with a point on a pole takes the value path
    np.testing.assert_array_equal(evaluate(ps, k, x).value, want[0])


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5]], ids=["1 coordinate", "3 coordinates"])
@pytest.mark.parametrize("route", ["evaluate", "superposition_value", "pole_distance",
                                   "near_pole", "delta_p_fd"])
def test_every_point_function_refuses_a_point_of_another_dimension(route, point):
    ps = PoleSet([1.0, 2.0], [[0.5, 0.0], [-0.5, 0.25]], Params(3, 2))
    call = {
        "evaluate": lambda x: evaluate(ps, None, x),
        "superposition_value": lambda x: superposition_value(ps, None, x),
        "pole_distance": lambda x: pole_distance(ps, x),
        "near_pole": lambda x: near_pole(ps, x, DEFAULT_FD_STEP),
        "delta_p_fd": lambda x: delta_p_fd(ps, None, x),
    }[route]
    shape = re.escape(f"query points have shape {np.shape(point)}, expected (..., 2)")
    with pytest.raises(ValueError, match=shape):
        call(point)
    with pytest.raises(ValueError, match=re.escape("expected (..., 2)")):
        call([point, point])


def test_fd_guard_uses_the_stencil_spacing():
    # far from the origin the spacing h = step (1 + |x|) is 2.1e-3, so a
    # point 1.1e-3 from the pole would put a stencil point across it
    ps = PoleSet([1.0], [[20.0, 0.0]], Params(3, 2))
    with pytest.raises(PoleSingularityError):
        delta_p_fd(ps, None, [20.0011, 0.0])


def test_fd_kink_at_one_stencil_point_raises():
    # K = min(x0, -x0) ties on x0 = 0, which only the stencil point x - h e_0 hits
    ps = PoleSet([1.0], [[0.0, 0.0]], Params(3, 2))
    k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    x = np.array([0.0, 1.0])
    x[0] = fd_spacing(x, DEFAULT_FD_STEP)
    assert np.isfinite(delta_p_direct(evaluate(ps, k, x)))
    with pytest.raises(KinkError):
        delta_p_fd(ps, k, x)


def test_weight_scaling_power_law():
    rng = np.random.default_rng(14)
    ps = PoleSet(rng.uniform(0.5, 1, 4), rng.uniform(-1, 1, (4, 2)), Params(3, 2))
    x = np.array([1.6, 1.4])
    base = delta_p_closed_form(evaluate(ps, None, x))
    for s in [0.5, 2.0, 7.5]:
        scaled = PoleSet(s * ps.weights, ps.locations, ps.params)
        assert rel(delta_p_closed_form(evaluate(scaled, None, x)), s ** (3 - 1) * base) <= 1e-11


@pytest.mark.parametrize(
    "p,n,expected",
    [
        (3.0, 2, SignClass.NON_POSITIVE),
        (2.0, 5, SignClass.IDENTICALLY_ZERO),
        (3.0, 1, SignClass.IDENTICALLY_ZERO),
        (1.5, 3, SignClass.NON_NEGATIVE),
        (1.0, 4, SignClass.EXCLUDED),
        (0.5, 4, SignClass.NON_POSITIVE),
        (0.2, 2, SignClass.NON_POSITIVE),
        (1.0, 1, SignClass.EXCLUDED),
    ],
)
def test_sign_region(p, n, expected):
    assert sign_region(p, n) is expected


def test_riemann_far_field_matches_centroid_pole():
    # 2x2x2 cube of cells with uniform density, evaluated far away
    pa = Params(2.5, 3, 1.0)
    centers = np.array(
        [[i, j, k] for i in (-0.25, 0.25) for j in (-0.25, 0.25) for k in (-0.25, 0.25)]
    )
    vol = 0.5**3
    ps = PoleSet(np.full(8, vol), centers, pa)
    lump = PoleSet([8 * vol], [[0.0, 0.0, 0.0]], pa)
    x = np.array([20.0, 1.0, -3.0])
    a = evaluate(ps, None, x).value
    b = evaluate(lump, None, x).value
    assert rel(a, b) <= 0.01
