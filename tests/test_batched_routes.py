"""The (..., n) batch contract of the Delta_p routes and of ``plap eval``.

``evaluate``, ``delta_p_fd`` and ``near_pole`` take points of shape
(..., n) and keep the leading shape, and so do the analytic routes and
``delta_p_scale`` on an ``evaluate`` result; a single point (n,) gives
floats.  A batch raises if any of its points would raise on its own.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import cli, core, superpose, verify
from plap.concave import AffineMinTerm, MollifiedTerm, QuadraticTerm
from plap.core import Params, fd_spacing
from plap.errors import (
    KinkError,
    PoleSingularityError,
    UndefinedOperatorError,
    UnsupportedConfigurationError,
)
from plap.superpose import (
    DEFAULT_FD_STEP,
    PoleSet,
    delta_p_closed_form,
    delta_p_direct,
    delta_p_fd,
    delta_p_scale,
    evaluate,
    near_pole,
)

batch_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)

LEADS = [(), (5,), (2, 3)]
ROUTES = {
    "direct": lambda ps, k, x: delta_p_direct(evaluate(ps, k, x)),
    "closed": lambda ps, k, x: delta_p_closed_form(evaluate(ps, k, x)),
    "fd": delta_p_fd,
    "scale": lambda ps, k, x: delta_p_scale(evaluate(ps, k, x)),
}


def random_term(rng, kind, n):
    if kind == "quadratic":
        m = rng.standard_normal((n, n))
        return QuadraticTerm(-m @ m.T, b=rng.uniform(-1, 1, n), c0=1.0)
    if kind == "affine_min":
        return AffineMinTerm(rng.uniform(-1, 1, (3, n)), rng.uniform(-1, 1, 3))
    if kind == "mollified":
        return MollifiedTerm(random_term(rng, "affine_min", n), 0.2)
    return None


def random_poles(rng, p, n, count=None):
    count = int(rng.integers(1, 9)) if count is None else count
    return PoleSet(rng.uniform(0.2, 2.0, count), rng.uniform(-1, 1, (count, n)), Params(p, n))


def far_points(rng, ps, lead):
    """Points of shape lead + (n,) at least 0.3 from every pole."""
    n = ps.params.n
    pts = []
    while len(pts) < math.prod(lead):
        x = rng.uniform(-2, 2, n)
        if np.min(np.linalg.norm(x - ps.locations, axis=1)) >= 0.3:
            pts.append(x)
    return np.array(pts).reshape(lead + (n,))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleSingularityError, KinkError, UndefinedOperatorError) as exc:
        return type(exc)


# ------------------------------------------------------ batched = pointwise

@pytest.mark.parametrize("lead", LEADS, ids=["point", "rows", "grid"])
@pytest.mark.parametrize("kind", [None, "quadratic", "affine_min"])
@batch_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
)
def test_batched_routes_equal_pointwise(kind, lead, seed, n, p):
    rng = np.random.default_rng(seed)
    ps = random_poles(rng, p, n)
    k = random_term(rng, kind, n)
    x = far_points(rng, ps, lead)
    idx = list(np.ndindex(lead))

    res = outcome(evaluate, ps, k, x)
    if isinstance(res, type):
        # a kink of K: some point ties, and it raises on its own too
        assert res in [outcome(evaluate, ps, k, x[i]) for i in idx]
        return
    assert np.shape(res.value) == lead and res.gradient.shape == lead + (n,)
    assert res.hessian.shape == lead + (n, n) and res.angles.shape == lead + (len(ps),)
    for i in idx:
        one = evaluate(ps, k, x[i])
        if kind == "affine_min":
            # K's pieces are summed in one order for a point and a batch
            assert np.asarray(res.value)[i] == one.value
            np.testing.assert_array_equal(res.gradient[i], one.gradient)
            np.testing.assert_array_equal(res.hessian[i], one.hessian)
        scale = max(1.0, abs(one.value))
        assert abs(np.asarray(res.value)[i] - one.value) <= 1e-13 * scale
        g = max(1.0, np.abs(one.gradient).max())
        np.testing.assert_allclose(res.gradient[i], one.gradient, rtol=0, atol=1e-13 * g)
        h = max(1.0, np.abs(one.hessian).max())
        np.testing.assert_allclose(res.hessian[i], one.hessian, rtol=0, atol=1e-13 * h)
        np.testing.assert_allclose(res.angles[i], one.angles, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(res.distances[i], one.distances)

    for name, route in ROUTES.items():
        if name == "closed" and k is not None:
            continue
        got = outcome(route, ps, k, x)
        want = [outcome(route, ps, k, x[i]) for i in idx]
        errors = [w for w in want if isinstance(w, type)]
        if errors:
            assert got in errors, name
            continue
        assert np.shape(got) == lead, name
        for i, w in zip(idx, want):
            scale = delta_p_scale(evaluate(ps, k, x[i]))
            assert abs(np.asarray(got)[i] - w) <= 1e-13 * scale, (name, i)
        if lead == ():
            assert type(got) is float, name
    if lead == ():
        assert type(res.value) is float


@pytest.mark.parametrize("lead", LEADS, ids=["point", "rows", "grid"])
@batch_settings
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_batched_near_pole_equals_pointwise(lead, seed, n):
    rng = np.random.default_rng(seed)
    ps = random_poles(rng, 3.0, n)
    # about half the points within a few stencil spacings of a pole
    x = far_points(rng, ps, lead)
    flat = x.reshape(-1, n)
    for j in range(0, len(flat), 2):
        pole = ps.locations[rng.integers(len(ps))]
        direction = rng.standard_normal(n)
        dist = rng.uniform(0, 20) * DEFAULT_FD_STEP * (1 + np.linalg.norm(pole))
        flat[j] = pole + dist * direction / np.linalg.norm(direction)
    got = near_pole(ps, x, DEFAULT_FD_STEP)
    if lead == ():
        assert type(got) is bool
    assert np.shape(got) == lead
    for i in np.ndindex(lead):
        assert np.asarray(got)[i] == near_pole(ps, x[i], DEFAULT_FD_STEP)
    np.testing.assert_array_equal(
        np.asarray(fd_spacing(x, DEFAULT_FD_STEP)),
        np.reshape([fd_spacing(z, DEFAULT_FD_STEP) for z in flat], lead),
    )


@batch_settings
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), p=st.floats(1.5, 5.0))
def test_single_pole_closed_form_is_exactly_zero_in_every_row(seed, n, p):
    rng = np.random.default_rng(seed)
    ps = random_poles(rng, p, n, count=1)
    x = far_points(rng, ps, (4, 3))
    got = delta_p_closed_form(evaluate(ps, None, x))
    assert got.shape == (4, 3)
    assert np.all(got == 0.0)


def test_fd_jacobian_batches_keep_the_leading_shape():
    # the field z -> z |z|^2 has Jacobian |z|^2 I + 2 z z^T
    def field(z):
        return z * np.sum(z**2, axis=-1, keepdims=True)

    x = np.random.default_rng(5).uniform(-1, 1, (2, 3, 3))
    jac, mean = core.fd_jacobian(field, x, 1e-4)
    assert jac.shape == (2, 3, 3, 3) and mean.shape == (2, 3, 3)
    for i in np.ndindex(2, 3):
        one_jac, one_mean = core.fd_jacobian(field, x[i], 1e-4)
        assert np.array_equal(jac[i], one_jac) and np.array_equal(mean[i], one_mean)
    sq = np.sum(x**2, axis=-1)[..., None, None]
    np.testing.assert_allclose(jac, sq * np.eye(3) + 2 * x[..., :, None] * x[..., None, :],
                               rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(mean, field(x), rtol=1e-7)


# ------------------------------------------------- raise if any point would

def _bad_point(case):
    """(pole set, K, point) for one kind of failing point."""
    if case == "on_pole":
        ps = PoleSet([1.0, 2.0], [[0.0, 0.0], [1.0, 0.5]], Params(3.0, 2))
        return ps, None, np.array([1.0, 0.5])
    if case == "near_pole":
        ps = PoleSet([1.0, 2.0], [[0.0, 0.0], [1.0, 0.5]], Params(3.0, 2))
        return ps, None, np.array([1.0, 0.5 + 5 * DEFAULT_FD_STEP])
    if case == "kink":
        ps = PoleSet([1.0], [[0.0, 0.0]], Params(3.0, 2))
        k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        return ps, k, np.array([0.0, 1.0])
    if case == "stencil_kink":
        ps = PoleSet([1.0], [[0.0, 0.0]], Params(3.0, 2))
        k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        x = np.array([0.0, 1.0])
        x[0] = fd_spacing(x, DEFAULT_FD_STEP)
        return ps, k, x
    # p < 2 at the midpoint of a symmetric pair, where the gradient vanishes
    ps = PoleSet([1.0, 1.0], [[-1.0, 0.0], [1.0, 0.0]], Params(1.5, 2))
    return ps, None, np.array([0.0, 0.0])


# the routes that refuse each kind of point, and with what
REFUSALS = {
    "on_pole": {name: PoleSingularityError for name in ROUTES},
    "near_pole": {"fd": PoleSingularityError},
    "kink": {"evaluate": KinkError, "direct": KinkError, "fd": KinkError, "scale": KinkError},
    "stencil_kink": {"fd": KinkError},
    "vanishing": {"direct": UndefinedOperatorError, "closed": UndefinedOperatorError,
                  "fd": UndefinedOperatorError},
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_batch_raises_what_its_worst_point_raises(case):
    ps, k, bad = _bad_point(case)
    good = np.array([[1.7, -1.3], [-1.2, 1.9], [2.1, 1.1]])
    batch = np.concatenate([good[:2], bad[None], good[2:]])
    routes = dict(ROUTES, evaluate=lambda ps, k, x: evaluate(ps, k, x).value)
    if k is not None:
        del routes["closed"]
    for name, route in routes.items():
        alone = outcome(route, ps, k, bad)
        got = outcome(route, ps, k, batch)
        if name in REFUSALS[case]:
            assert alone is REFUSALS[case][name] and got is alone, name
        else:
            assert not isinstance(alone, type) and not isinstance(got, type), name
            assert got[2] == pytest.approx(alone, rel=1e-13, abs=1e-300) or math.isinf(alone)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_vanishing_marks_exactly_the_rows_the_routes_zero(p):
    """The vanishing case in a stack: rows 0 and 2 sit at the midpoint of a
    symmetric pair, where grad V = 0 exactly, and so does the mean of the
    FD oracle's gradient over its stencil; rows 1 and 3 do not.  At p = 2
    no row is zeroed: the marked rows keep the plain Laplacian, the closed
    form's exact 0, the oracle's tr J and the unmasked yardstick."""
    pair = ([1.0, 1.0], [[-1.0, 0.0], [1.0, 0.0]])
    other = ([0.5, 1.5, 1.0], [[0.3, -0.2], [-0.6, 0.4], [1.0, 1.0]])
    rows = [pair, other, pair, other]
    stack = PoleSet.stack_rows(*zip(*rows), Params(p, 2))
    x = np.array([[0.0, 0.0], [1.7, -1.3], [0.0, 0.0], [0.0, 0.0]])
    res = evaluate(stack, None, x)
    marked = np.array([True, False, True, False])
    assert res.vanishing.tolist() == marked.tolist()
    for b, (w, y) in enumerate(rows):
        assert evaluate(PoleSet(w, y, Params(p, 2)), None, x[b]).vanishing == marked[b]
    if p < 2:
        for route in (delta_p_direct, delta_p_closed_form, lambda res: delta_p_fd(stack, None, x)):
            with pytest.raises(UndefinedOperatorError, match="vanishing gradient"):
                route(res)
        return
    scale, fd = delta_p_scale(res), delta_p_fd(stack, None, x)
    if p == 2:
        assert_same_bits(delta_p_direct(res)[marked], np.trace(res.hessian[marked], axis1=-2, axis2=-1),
                         "direct")
        assert (delta_p_closed_form(res) == 0).all()
        # tr J of the gradient, here from evaluate at the stencil points
        for b in np.flatnonzero(marked):
            row = PoleSet(*rows[b], Params(p, 2))
            jac = core.fd_jacobian(lambda z: evaluate(row, None, z).gradient, x[b], DEFAULT_FD_STEP)[0]
            assert fd[b] == pytest.approx(np.trace(jac), rel=1e-6, abs=1e-12) and fd[b] != 0
        # n mag + |p - 2| mag, summed over the poles, at n = p = 2
        mag = np.abs(res.ddv) + np.abs(res.dv) / res.distances
        assert_same_bits(scale[marked], np.vecdot(2 * mag, stack.weights)[marked], "scale")
        assert (scale > 1e-300).all()
    else:
        for name, got in (("direct", delta_p_direct(res)), ("closed", delta_p_closed_form(res)),
                          ("fd", fd)):
            assert (got[marked] == 0).all() and (got[~marked] != 0).all(), name
        assert (scale[marked] == 1e-300).all() and (scale[~marked] > 1e-300).all()
    assert (res.angles[marked] == 0).all() and (res.angles[~marked] != 0).any(axis=-1).all()


MIXED_PS = (2.0, 2.5, 3.0, 4.0)
EVAL_FIELDS = ("value", "gradient", "hessian", "angles", "distances", "grad_norm", "vanishing",
               "dv", "ddv", "k_hessian")


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    if got.dtype.kind == "f":  # -0.0 and 0.0, and every NaN, told apart
        got, want = got.view(np.uint64), want.view(np.uint64)
    assert np.array_equal(got, want), what


@pytest.mark.parametrize("with_k", [False, True], ids=["pure", "quadratic"])
@pytest.mark.parametrize("n", [2, 3])
def test_a_stack_of_mixed_p_gives_each_row_the_bits_of_its_own_p(n, with_k):
    """Rows of p 2, 2.5, 3 and 4, interleaved, against the stack of the same
    rows with one p, row for row: the profile takes r^0.5 (p = 3, n = 2),
    r^-1 (p = 2, n = 3) and the log (p = n); the routes take |grad W|^2
    (p = 4), |grad W|^0.5 (p = 2.5) and their p = 2 branches.  numpy rounds
    the first three powers of a float exponent otherwise than np.power with
    an array exponent.  The rows with one pole keep the closed form's
    exact 0."""
    rng = np.random.default_rng(41)
    counts = (3, 1, 5, 2, 4, 3, 1, 5)
    rows = [(rng.uniform(0.1, 2.0, m), rng.uniform(-1.0, 1.0, (m, n))) for m in counts]
    p_rows = [MIXED_PS[b % 4] for b in range(len(rows))]
    weights, locations = zip(*rows)
    mixed = PoleSet.stack_rows(weights, locations, [Params(p, n) for p in p_rows])
    assert mixed.p.tolist() == p_rows and mixed.params == Params(2.0, n)
    # three points per row, each at least 0.3 from every pole of its row
    x = np.stack([far_points(rng, PoleSet(w, y, Params(3.0, n)), (3,)) for w, y in rows], axis=1)
    k = None
    if with_k:
        m = rng.standard_normal((len(rows), n, n))
        k = QuadraticTerm(-m @ m.mT, b=rng.uniform(-1, 1, (len(rows), n)),
                          c0=rng.uniform(-1, 1, len(rows)))
    res = evaluate(mixed, k, x)
    routes = {"direct": delta_p_direct(res), "scale": delta_p_scale(res),
              "fd": delta_p_fd(mixed, k, x)}
    if k is None:
        routes["closed"] = delta_p_closed_form(res)
    for p in MIXED_PS:
        one = PoleSet.stack_rows(weights, locations, Params(p, n))
        assert (one.p == p).all() and one.weights.shape == mixed.weights.shape
        want = evaluate(one, k, x)
        want_routes = {"direct": delta_p_direct(want), "scale": delta_p_scale(want),
                       "fd": delta_p_fd(one, k, x)}
        if k is None:
            want_routes["closed"] = delta_p_closed_form(want)
        at = [b for b, q in enumerate(p_rows) if q == p]
        for name in EVAL_FIELDS:
            if name == "k_hessian" and k is None:
                assert res.k_hessian is None and want.k_hessian is None
                continue
            assert_same_bits(getattr(res, name)[:, at], getattr(want, name)[:, at], (p, name))
        for name, got in routes.items():
            assert_same_bits(got[:, at], want_routes[name][:, at], (p, name))
    if k is None:
        assert (routes["closed"][:, np.array(counts) == 1] == 0).all()


def test_only_a_row_of_p_below_2_with_a_vanishing_gradient_raises():
    """grad V = 0 exactly at the midpoint of a symmetric pair.  Vanishing
    rows of p >= 2 beside a row of p < 2 whose gradient does not vanish give
    their continuous extension; a vanishing row of p < 2 raises."""
    pair = ([1.0, 1.0], [[-1.0, 0.0], [1.0, 0.0]])
    other = ([0.5, 1.5], [[0.3, -0.2], [-0.6, 0.4]])
    rows = [pair, other, pair]
    x = np.array([[0.0, 0.0], [1.7, -1.3], [0.0, 0.0]])
    weights, locations = zip(*rows)
    stack = PoleSet.stack_rows(weights, locations, [Params(p, 2) for p in (2.5, 1.5, 2.0)])
    res = evaluate(stack, None, x)
    assert res.vanishing.tolist() == [True, False, True]
    direct, closed, scale = delta_p_direct(res), delta_p_closed_form(res), delta_p_scale(res)
    fd = delta_p_fd(stack, None, x)
    for b, p in enumerate((2.5, 1.5, 2.0)):
        own_set = PoleSet(*rows[b], Params(p, 2))
        own = evaluate(own_set, None, x[b])
        assert direct[b] == delta_p_direct(own) and closed[b] == delta_p_closed_form(own)
        assert scale[b] == delta_p_scale(own) and fd[b] == delta_p_fd(own_set, None, x[b])
    assert direct[0] == 0 and direct[2] == np.trace(res.hessian[2]) and closed[2] == 0
    assert fd[0] == 0 and fd[2] != 0
    stack = PoleSet.stack_rows(weights, locations, [Params(p, 2) for p in (1.5, 2.5, 3.0)])
    res = evaluate(stack, None, x)
    for route in (delta_p_direct, delta_p_closed_form, lambda res: delta_p_fd(stack, None, x)):
        with pytest.raises(UndefinedOperatorError, match="vanishing gradient"):
            route(res)


def test_a_stack_of_mixed_p_on_its_poles_follows_each_rows_pole_rule():
    """n = 2: +inf on a pole for p = 1.5 and for p = 2 = n (the log), the
    finite value with that pole left out for p = 3; each row as its set."""
    rows = [([1.3, 0.7], [[0.2, 0.1], [-0.5, 0.4]]), ([0.9], [[0.3, -0.6]]),
            ([1.1, 0.4, 2.0], [[-0.2, 0.8], [0.6, 0.1], [0.0, -0.9]])]
    x = np.array([rows[0][1][1], rows[1][1][0], rows[2][1][2]])
    weights, locations = zip(*rows)
    for p_rows in [(1.5, 2.0, 3.0), (3.0, 1.5, 2.0)]:
        stack = PoleSet.stack_rows(weights, locations, [Params(p, 2) for p in p_rows])
        res = evaluate(stack, None, x)
        assert res.gradient is None
        for b, p in enumerate(p_rows):
            want = evaluate(PoleSet(*rows[b], Params(p, 2)), None, x[b]).value
            assert (want == math.inf) == (p <= 2)
            assert res.value[b] == pytest.approx(want, rel=1e-14), (p_rows, b)


def assert_read_only_p(p, shape):
    assert isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == shape
    assert not p.flags.writeable


def test_pole_set_p_is_a_read_only_float64_array_in_every_case():
    """Shape () for a set, an int p included; shape (B,) for a stack of one
    p and for a stack of mixed p.  ``_from_rows`` and verify's derived
    stacks keep it."""
    one = PoleSet([1.0, 2.0], [[0.0, 0.0], [1.0, 0.5]], Params(3, 2))
    assert_read_only_p(one.p, ())
    assert one.p == 3.0
    weights, locations = [[1.0, 2.0], [0.5]], [[[0.0, 0.0], [1.0, 0.5]], [[0.3, -0.2]]]
    stacks = [PoleSet.stack_rows(weights, locations, Params(2.5, 2)),
              PoleSet.stack_rows(weights, locations, [Params(2.5, 2), Params(4, 2)])]
    for ps, want in zip(stacks, ([2.5, 2.5], [2.5, 4.0])):
        assert_read_only_p(ps.p, (2,))
        assert ps.p.tolist() == want
        kept = PoleSet._from_rows(ps.weights, ps.locations, ps.counts, ps.params, ps.p)
        derived = verify._derived_stacks(ps, np.stack([np.eye(2)] * 2), np.zeros((2, 2)), np.ones(2))
        for got in (kept, *derived):
            assert_read_only_p(got.p, (2,))
            assert got.p.tolist() == want


@pytest.mark.parametrize("n,count", [(2, 4), (2, 3), (3, 6), (3, 5)])
def test_fd_with_a_stacked_quadratic_term_gives_each_row_its_own_term(n, count):
    """A stack of ``count`` rows of mixed p with a stack of as many
    ``QuadraticTerm`` s, at count = 2n, the stencil's width, and beside it:
    each row of ``delta_p_fd`` against the one-row stack of the same width
    with that row's own term, bit for bit.  K's batch axis must meet the
    stack's, never the stencil's."""
    rng = np.random.default_rng(59)
    rows = [(rng.uniform(0.1, 2.0, m), rng.uniform(-1.0, 1.0, (m, n))) for m in range(1, count + 1)]
    weights, locations = zip(*rows)
    stack = PoleSet.stack_rows(weights, locations, [Params(MIXED_PS[b % 4], n) for b in range(count)])
    x = np.stack([far_points(rng, PoleSet(w, y, Params(3.0, n)), (3,)) for w, y in rows], axis=1)
    m = rng.standard_normal((count, n, n))
    a, b, c0 = -m @ m.mT, rng.uniform(-1, 1, (count, n)), rng.uniform(-1, 1, count)
    k = QuadraticTerm(a, b=b, c0=c0)
    fd = delta_p_fd(stack, k, x)
    assert fd.shape == (3, count)
    res = evaluate(stack, k, x)
    assert (np.abs(fd - delta_p_direct(res)) < 1e-4 * delta_p_scale(res)).all()
    for j in range(count):
        one = PoleSet._from_rows(stack.weights[j:j + 1], stack.locations[j:j + 1],
                                 stack.counts[j:j + 1], stack.params, stack.p[j:j + 1])
        want = delta_p_fd(one, QuadraticTerm(a[j], b=b[j], c0=c0[j]), x[:, j:j + 1])
        assert_same_bits(fd[:, j:j + 1], want, j)


def test_power_of_several_exponents_rounds_each_as_its_float_exponent():
    """``core._power`` with an exponent of several values against
    x ** float(e) of each value alone, bit for bit: the profile's
    (1-n)/(p-1), that minus 1 and (p-n)/(p-1), the routes' p - 2 and the
    closed form's (p+n-2)/(p-1), for p in (1, 2) and 2, 2.5, 3, 4, 6, 10,
    20 and n = 1 to 8.  The exponents (E, 1) meet radii (E, m), contiguous
    and strided; among them are 0.5, 2 and -1, which numpy takes through
    sqrt, square and reciprocal for a float exponent."""
    rng = np.random.default_rng(71)
    p = np.concatenate([rng.uniform(1.01, 2.0, 143), [2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0]])[:, None]
    n = np.arange(1, 9)
    slope = (1 - n) / (p - 1)
    e = np.concatenate([slope, slope - 1, (p - n) / (p - 1), np.broadcast_to(p - 2, slope.shape),
                        (p + n - 2) / (p - 1)], axis=None)[:, None]
    assert {0.5, 2.0, -1.0} <= set(e[:, 0].tolist())
    radii = np.exp(rng.uniform(-7.0, 7.0, (len(e), 66)))
    with np.errstate(over="ignore"):
        for x in (radii[:, :33], radii[:, ::2]):
            got = core._power(x, e)
            want = np.stack([row ** float(v) for row, v in zip(x, e[:, 0])])
            assert_same_bits(got, want, x.strides)


@pytest.mark.parametrize("lead", [(0,), (3, 0)], ids=["rows", "grid"])
@pytest.mark.parametrize("kind", [None, "quadratic", "affine_min", "mollified"])
def test_an_empty_batch_gives_empty_results_with_every_kind_of_k(kind, lead):
    rng = np.random.default_rng(8)
    ps, k, x = random_poles(rng, 3.0, 2), random_term(rng, kind, 2), np.zeros(lead + (2,))
    res = evaluate(ps, k, x)
    assert (res.gradient.shape, res.hessian.shape) == (lead + (2,), lead + (2, 2))
    for name, route in ROUTES.items():
        if name == "closed" and k is not None:
            with pytest.raises(UnsupportedConfigurationError):
                route(ps, k, x)
        else:
            assert route(ps, k, x).shape == lead, name
    assert superpose.superposition_value(ps, k, x).shape == res.value.shape == lead


def test_a_batch_with_a_point_on_a_pole_gives_values_only():
    ps = PoleSet([1.0, 2.0], [[0.0, 0.0], [1.0, 0.5]], Params(2.5, 2))
    x = np.array([[1.7, -1.3], [1.0, 0.5], [-1.2, 1.9]])
    res = evaluate(ps, None, x)
    assert res.gradient is None
    assert res.hessian is None and res.angles is None
    np.testing.assert_array_equal(res.value, [evaluate(ps, None, z).value for z in x])


@pytest.mark.parametrize("kind", [None, "quadratic"])
@pytest.mark.parametrize("p,n", [(3.0, 2), (4.0, 3), (2.5, 3), (1.5, 2), (2.0, 2), (3.0, 3)])
def test_a_stacked_point_on_a_real_pole_follows_the_pole_rule(p, n, kind):
    """Rows on a pole give the unstacked value: +inf for p <= n, finite
    for p > n.  The padded copies of a row's first pole sit on the point
    too and must not turn that into 0 * inf = NaN."""
    rng = np.random.default_rng(23)
    pa = Params(p, n)
    sets = [
        PoleSet([1.3], rng.uniform(-1, 1, (1, n)), pa),            # padded with 3 copies
        PoleSet(rng.uniform(0.2, 2, 4), rng.uniform(-1, 1, (4, n)), pa),
        PoleSet(rng.uniform(0.2, 2, 2), rng.uniform(-1, 1, (2, n)), pa),
        PoleSet(rng.uniform(0.2, 2, 3), rng.uniform(-1, 1, (3, n)), pa),
    ]
    # on the first pole, on the third, on the first, and off every pole
    x = np.array([sets[0].locations[0], sets[1].locations[2], sets[2].locations[0],
                  far_points(rng, sets[3], ())])
    stack = PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets], pa)
    k = random_term(rng, kind, n)
    res = evaluate(stack, k, x)
    assert res.gradient is None
    assert not np.isnan(res.value).any()
    for i, ps in enumerate(sets):
        want = evaluate(ps, k, x[i]).value
        if i < 3:
            assert (want == math.inf) == (p <= n)
        assert res.value[i] == pytest.approx(want, rel=1e-14)
    for route in ROUTES.values():
        with pytest.raises(PoleSingularityError):
            route(stack, None, x)


# ------------------------------------------------------------- plap eval

def eval_config(rng, n, poles, far, with_k):
    """Far points from the pole box, a few within 10 stencil spacings of a
    pole and two exactly on one."""
    locs = rng.uniform(-1, 1, (poles, n))
    pts = list(rng.uniform(1.5, 3.0, (far, n)) * rng.choice([-1, 1], (far, n)))
    for j in range(3):
        pts.append(locs[j] + 3 * DEFAULT_FD_STEP * np.eye(n)[0])
    pts += [locs[3], locs[4]]
    order = rng.permutation(len(pts))
    cfg = {
        "schema_version": 1,
        "params": {"p": 3.0, "n": n},
        "poles": [{"weight": float(w), "location": loc.tolist()}
                  for w, loc in zip(rng.uniform(0.2, 2.0, poles), locs)],
        "points": [pts[i].tolist() for i in order],
    }
    if with_k:
        cfg["concave"] = {"kind": "quadratic", "a_matrix": (-0.5 * np.eye(n)).tolist()}
    return cfg


def rows_per_block(n, poles):
    return max(1, cli.EVAL_BLOCK // (2 * n * poles * n))


@pytest.mark.parametrize("with_k", [False, True], ids=["pure", "quadratic"])
def test_eval_csv_matches_a_row_by_row_reference(tmp_path, with_k):
    n, poles = 2, 64
    far = rows_per_block(n, poles) + 7  # the far rows fill one block and spill into a second
    cfg = eval_config(np.random.default_rng(17), n, poles, far, with_k)
    path, out = tmp_path / "eval.json", tmp_path / "eval.csv"
    path.write_text(json.dumps(cfg))
    assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    with open(out) as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == len(cfg["points"])

    _, ps, k, _ = cli._build(cfg)
    near_rows = 0
    for point, row in zip(cfg["points"], rows):
        x = np.array(point)
        cell = dict(zip(header, row))
        assert [float(cell[f"x{j}"]) for j in range(n)] == point
        if near_pole(ps, x, DEFAULT_FD_STEP):
            near_rows += 1
            assert cell["flag"] == "near-pole"
            value = float(superpose.superposition_value(ps, k, x))
            assert cell["value"] == format(value, ".17g")
            for name in ("grad_norm", "delta_p_direct", "delta_p_closed_form", "delta_p_fd"):
                assert cell[name] == "nan"
            continue
        assert cell["flag"] == ""
        res = evaluate(ps, k, x)
        assert float(cell["value"]) == pytest.approx(res.value, rel=1e-14)
        assert float(cell["grad_norm"]) == np.linalg.norm(res.gradient, axis=-1)
        scale = delta_p_scale(res)
        want = {"delta_p_direct": delta_p_direct(res),
                "delta_p_fd": delta_p_fd(ps, k, x)}
        if with_k:
            assert cell["delta_p_closed_form"] == "nan"
        else:
            want["delta_p_closed_form"] = delta_p_closed_form(res)
        for name, w in want.items():
            assert abs(float(cell[name]) - w) <= 1e-13 * scale, name
    assert near_rows == 5


def test_eval_calls_the_kernel_once_per_route_and_block(tmp_path, monkeypatch):
    n, poles = 2, 64
    rows = rows_per_block(n, poles)
    far = 2 * rows + 3
    cfg = eval_config(np.random.default_rng(18), n, poles, far, with_k=False)
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(cfg))
    calls = {"value": 0, "profile": 0, "slope": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(superpose, "_profile_value", counted("value", superpose._profile_value))
    monkeypatch.setattr(superpose, "fundamental_profile",
                        counted("profile", superpose.fundamental_profile))
    monkeypatch.setattr(superpose, "_profile_slope", counted("slope", superpose._profile_slope))
    args = ["eval", "--config", str(path), "--out", str(tmp_path / "o.csv")]
    assert cli.main(args) == cli.EXIT_OK
    blocks = math.ceil(far / rows)
    assert blocks == 3
    # one value-only pass over the near rows, and one evaluation per block
    assert calls["value"] == 1
    assert calls["profile"] == blocks
    # the FD stencil evaluates v' once per block
    assert calls["slope"] == blocks


@pytest.mark.parametrize("with_k", [False, True], ids=["pure", "quadratic"])
def test_eval_evaluates_each_block_once(tmp_path, monkeypatch, with_k):
    n, poles = 2, 64
    rows = rows_per_block(n, poles)
    cfg = eval_config(np.random.default_rng(18), n, poles, 2 * rows + 3, with_k)
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(cfg))
    blocks, evaluate_ = [], superpose.evaluate

    def counting(ps, k, x):
        blocks.append(len(x))
        return evaluate_(ps, k, x)

    monkeypatch.setattr(superpose, "evaluate", counting)
    args = ["eval", "--config", str(path), "--out", str(tmp_path / "o.csv")]
    assert cli.main(args) == cli.EXIT_OK
    assert blocks == [rows, rows, 3]


@pytest.mark.parametrize("kind", [None, "quadratic", "affine_min"])
def test_the_fd_oracle_never_evaluates(monkeypatch, kind):
    """The oracle builds its own gradient, so it cannot share a fault of
    the evaluation it checks."""
    rng = np.random.default_rng(29)
    ps = random_poles(rng, 3.0, 3)
    k = random_term(rng, kind, 3)
    x = far_points(rng, ps, (4,))
    want = delta_p_fd(ps, k, x)

    def refuse(*args):
        raise AssertionError("delta_p_fd called evaluate")

    monkeypatch.setattr(superpose, "evaluate", refuse)
    np.testing.assert_array_equal(delta_p_fd(ps, k, x), want)
