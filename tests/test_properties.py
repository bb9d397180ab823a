"""Property tests for the stated invariants: the pole rule at every call
site, single-pole nullity, isometry equivariance and s^(p-1) weight
scaling of the closed form, agreement of the batched finite-difference
route, stacked pole sets giving each set's own routes row by row, the
sign-change radius lying inside the Barenblatt support, and the zero lines
of ``plap sign-map``.

Pole configurations come from the randomized ``verify`` suites' own
generators, seeded by hypothesis, so no draw lands on a critical point of V
by construction."""

import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    BARENBLATT,
    EvolutionKernel,
    GridDomain,
    Params,
    PoleSet,
    QuadraticTerm,
    delta_p_closed_form,
    delta_p_direct,
    delta_p_fd,
    evaluate,
    sign_change_radius,
    superposition_grid,
    support_radius,
)
from plap import cli
from plap.errors import UnsupportedConfigurationError
from plap.superpose import DEFAULT_FD_STEP, delta_p_scale, near_pole
from plap.verify import _points_away, _pole_draws

# deterministic and without an example database, so a run leaves no files
property_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def rel(a, b, scale):
    return abs(a - b) / max(abs(a), abs(b), scale)


def random_config(seed, p, n):
    """A pole set and a query point drawn as ``plap verify`` draws them:
    weights in [0.1, 2], locations in [-1, 1]^n and a point in [-2, 2]^n
    at least ``verify.MIN_POLE_DISTANCE`` from every pole."""
    rng = np.random.default_rng(seed)
    counts, w, y = _pole_draws(rng, 1, n, max_poles=8)
    x = _points_away(rng, y, counts, np.array([n]), 1)[0, 0]
    return PoleSet(w[0, :counts[0]], y[0, :counts[0]], Params(float(p), int(n), 1.0)), x, rng


# ------------------------------------------------------------- pole rule

@pytest.mark.parametrize(
    "p,n",
    [(3.0, 2), (4.0, 3), (2.5, 3), (1.5, 2), (2.0, 2), (3.0, 3)],
)
def test_pole_rule_agrees_at_every_call_site(tmp_path, p, n):
    """evaluate, superposition_grid and ``plap eval`` give the same value
    on a pole: finite (that pole contributing 0) for p > n, +inf for
    1 < p <= n."""
    on_node = [0.25, -0.5, 0.75][:n]  # a node of the 9-per-axis grid on [-1, 1]^n
    off_node = [0.3, 0.4, -0.1][:n]
    a_matrix = -0.5 * np.eye(n)
    b = np.linspace(0.1, 0.3, n)
    pa = Params(p, n)
    ps = PoleSet([1.0, 2.0], [on_node, off_node], pa)
    k = QuadraticTerm(a_matrix, b=b)
    x = np.array(on_node)

    if p > n:
        expected = evaluate(PoleSet([2.0], [off_node], pa), None, x).value + k.value(x)
    else:
        expected = math.inf

    # 1. evaluate
    res = evaluate(ps, k, x)
    assert res.gradient is None
    if math.isinf(expected):
        assert res.value == math.inf
    else:
        assert res.value == pytest.approx(expected, rel=1e-14)

    # 2. superposition_grid
    dom = GridDomain(bounds=[(-1.0, 1.0)] * n, shape=(9,) * n)
    node = tuple(int(round((c + 1.0) / 0.25)) for c in on_node)
    assert np.array_equal(dom.nodes()[node], x)
    if math.isinf(expected):
        with pytest.raises(UnsupportedConfigurationError):
            superposition_grid(ps, k, dom)
    else:
        assert superposition_grid(ps, k, dom)[node] == pytest.approx(expected, rel=1e-14)

    # 3. plap eval
    cfg = {
        "schema_version": 1,
        "params": {"p": p, "n": n},
        "poles": [
            {"weight": 1.0, "location": on_node},
            {"weight": 2.0, "location": off_node},
        ],
        "concave": {"kind": "quadratic", "a_matrix": a_matrix.tolist(), "b": b.tolist()},
        "points": [on_node],
    }
    cfg_path, out = tmp_path / "eval.json", tmp_path / "eval.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_OK
    with open(out) as fh:
        header, row = list(csv.reader(fh))
    assert row[header.index("flag")] == "near-pole"
    assert float(row[header.index("value")]) == res.value


# ------------------------------------------------------ closed-form laws

@property_settings
@given(seed=seeds, p=st.floats(1.5, 5.0), n=dims)
def test_single_pole_closed_form_exactly_zero(seed, p, n):
    ps, x, _ = random_config(seed, p, n)
    single = PoleSet(ps.weights[:1], ps.locations[:1], ps.params)
    assert delta_p_closed_form(evaluate(single, None, x)) == 0.0


@property_settings
@given(seed=seeds, p=st.floats(1.5, 5.0), n=dims)
def test_closed_form_isometry_equivariant(seed, p, n):
    ps, x, rng = random_config(seed, p, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    shift = rng.uniform(-1, 1, n)
    moved = PoleSet(ps.weights, ps.locations @ q.T + shift, ps.params)
    c = delta_p_closed_form(evaluate(ps, None, x))
    c_moved = delta_p_closed_form(evaluate(moved, None, q @ x + shift))
    assert rel(c_moved, c, delta_p_scale(evaluate(ps, None, x))) <= 1e-12


@property_settings
@given(seed=seeds, p=st.floats(1.5, 5.0), n=dims, s=st.floats(0.1, 10.0))
def test_closed_form_weight_scaling(seed, p, n, s):
    ps, x, _ = random_config(seed, p, n)
    scaled = PoleSet(s * ps.weights, ps.locations, ps.params)
    c = delta_p_closed_form(evaluate(ps, None, x))
    c_scaled = delta_p_closed_form(evaluate(scaled, None, x))
    factor = s ** (p - 1)
    assert rel(c_scaled, factor * c, factor * delta_p_scale(evaluate(ps, None, x))) <= 1e-11


@property_settings
@given(seed=seeds, p=st.floats(2.0, 5.0), n=dims)
def test_batched_fd_agrees_with_closed_form(seed, p, n):
    ps, x, _ = random_config(seed, p, n)
    c = delta_p_closed_form(evaluate(ps, None, x))
    f = delta_p_fd(ps, None, x)
    assert rel(f, c, delta_p_scale(evaluate(ps, None, x))) <= 1e-4


# ---------------------------------------------------------- stacked sets

@property_settings
@given(seed=seeds, p=st.floats(1.5, 5.0), n=dims, count=st.integers(1, 8))
def test_stacked_routes_equal_the_per_set_routes(seed, p, n, count):
    """A stack of 1-8 sets of 1-8 poles each: every route gives each set's
    own result in its row, to rounding (a padded row sums its poles in
    another order), and a one-pole row gives exactly 0 from the closed
    form."""
    rng = np.random.default_rng(seed)
    counts, w, y = _pole_draws(rng, count, n, max_poles=8)
    sets = [PoleSet(w[b, :counts[b]], y[b, :counts[b]], Params(p, n, 1.0)) for b in range(count)]
    x = _points_away(rng, y, counts, np.full(count, n), 1)[:, 0]
    stack = PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets],
                               Params(p, n, 1.0))
    assert stack.weights.shape == stack.locations.shape[:2] == (count, max(stack.counts))
    routes = {
        "direct": lambda ps, x: delta_p_direct(evaluate(ps, None, x)),
        "closed": lambda ps, x: delta_p_closed_form(evaluate(ps, None, x)),
        "fd": lambda ps, x: delta_p_fd(ps, None, x),
        "scale": lambda ps, x: delta_p_scale(evaluate(ps, None, x)),
    }
    for name, route in routes.items():
        got = route(stack, x)
        assert got.shape == (count,)
        for i, ps in enumerate(sets):
            want = route(ps, x[i])
            assert abs(got[i] - want) <= 1e-13 * routes["scale"](ps, x[i]), name
    closed = delta_p_closed_form(evaluate(stack, None, x))
    assert np.all(closed[stack.counts == 1] == 0.0)
    # every other row moved to within 0-20 stencil spacings of one of its poles
    for i in range(0, count, 2):
        pole = sets[i].locations[rng.integers(len(sets[i]))]
        direction = rng.standard_normal(n)
        dist = rng.uniform(0, 20) * DEFAULT_FD_STEP * (1 + np.linalg.norm(pole))
        x[i] = pole + dist * direction / np.linalg.norm(direction)
    near = near_pole(stack, x, DEFAULT_FD_STEP)
    assert near.tolist() == [near_pole(ps, x[i], DEFAULT_FD_STEP) for i, ps in enumerate(sets)]


# ------------------------------------------------------------- evolution

@property_settings
@given(
    p=st.floats(2.01, 8.0),
    n=st.integers(1, 5),
    big_c=st.floats(0.1, 10.0),
    t=st.floats(0.01, 100.0),
)
def test_sign_change_radius_inside_support(p, n, big_c, t):
    k = EvolutionKernel(BARENBLATT, Params(p, n), big_c=big_c)
    radius, support = sign_change_radius(k, t), support_radius(k, t)
    assert radius < support
    ratio = (n * (p - 2) / (n * (p - 2) + p)) ** ((p - 1) / p)
    assert radius / support == pytest.approx(ratio, rel=1e-12)


# ------------------------------------------------------------- sign map

@property_settings
@given(
    step_digits=st.integers(1, 99),
    decimals=st.integers(1, 3),
    below=st.integers(0, 400),
    above=st.integers(0, 20),
    n_min=st.integers(1, 3),
    n_span=st.integers(0, 3),
)
def test_sign_map_reads_the_zero_lines(step_digits, decimals, below, above, n_min, n_span):
    """A decimal grid with p = 2 on it: every row at p = 2 or n = 1 reads
    IdenticallyZero and every row at p = 1 reads Excluded, and the grid
    lands on p = 1 exactly when 1 is a whole number of steps below 2."""
    step = step_digits / 10**decimals
    cfg = {
        "schema_version": 1,
        "p_min": round(2 - below * step, decimals),
        "p_max": round(2 + above * step, decimals),
        "p_step": step,
        "n_min": n_min,
        "n_max": n_min + n_span,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "map.json"), os.path.join(tmp, "map.csv")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["sign-map", "--config", path, "--out", out]) == cli.EXIT_OK
        with open(out) as fh:
            rows = [(float(p), int(n), cls) for p, n, cls in list(csv.reader(fh))[1:]]

    assert len(rows) == (below + above + 1) * (n_span + 1)
    assert sum(p == 2.0 for p, _, _ in rows) == n_span + 1
    one_on_grid = 10**decimals % step_digits == 0 and below * step_digits >= 10**decimals
    assert sum(p == 1.0 for p, _, _ in rows) == (n_span + 1 if one_on_grid else 0)
    for p, n, cls in rows:
        if p == 1.0:
            assert cls == "Excluded"
        elif p == 2.0 or n == 1:
            assert cls == "IdenticallyZero"
