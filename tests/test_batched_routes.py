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

from plap import cli, core, superpose
from plap.concave import AffineMinTerm, QuadraticTerm
from plap.core import Params, fd_spacing
from plap.errors import KinkError, PoleSingularityError, UndefinedOperatorError
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


def test_fd_divergence_batches_keep_the_leading_shape():
    # the field z -> z * |z|^2 has divergence (n + 2) |z|^2
    def flux(z):
        return z * np.sum(z**2, axis=-1, keepdims=True)

    x = np.random.default_rng(5).uniform(-1, 1, (2, 3, 3))
    got = core.fd_divergence(flux, x, 1e-4)
    assert got.shape == (2, 3)
    for i in np.ndindex(2, 3):
        assert got[i] == core.fd_divergence(flux, x[i], 1e-4)
    np.testing.assert_allclose(got, 5 * np.sum(x**2, axis=-1), rtol=1e-7)


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
    "vanishing": {"direct": UndefinedOperatorError, "closed": UndefinedOperatorError},
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


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_vanishing_marks_exactly_the_rows_the_routes_zero(p):
    """The vanishing case in a stack: rows 0 and 2 sit at the midpoint of a
    symmetric pair, where grad V = 0 exactly, rows 1 and 3 do not."""
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
        for route in (delta_p_direct, delta_p_closed_form):
            with pytest.raises(UndefinedOperatorError, match="vanishing gradient"):
                route(res)
        return
    for route in (delta_p_direct, delta_p_closed_form):
        got = route(res)
        assert (got[marked] == 0).all() and (got[~marked] != 0).all(), route.__name__
    scale = delta_p_scale(res)
    assert (scale[marked] == 1e-300).all() and (scale[~marked] > 1e-300).all()
    assert (res.angles[marked] == 0).all() and (res.angles[~marked] != 0).any(axis=-1).all()


def test_a_batch_with_a_point_on_a_pole_gives_values_only():
    ps = PoleSet([1.0, 2.0], [[0.0, 0.0], [1.0, 0.5]], Params(2.5, 2))
    x = np.array([[1.7, -1.3], [1.0, 0.5], [-1.2, 1.9]])
    res = evaluate(ps, None, x)
    assert not res.derivatives_available
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
    assert not res.derivatives_available
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
