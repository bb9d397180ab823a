"""The array draws of ``plap verify`` against per-draw references.

``verify_superpose`` and ``verify_concave`` draw each kind of value for
every draw in one generator call, and stack and check per class after it.
The references below make the same generator calls and then take the rows
one draw at a time: a pole set, a point test, a matrix and a route call per
draw.  Every report and the generator's final state must be the same, bit
for bit.  The evolution suite's bracket of the Barenblatt sign change has
``brentq`` as its reference.  ``run_suite("all")`` on its forked path has
the sequential path as its reference."""

import dataclasses
import math
import os
import time
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from plap import cli, comparison, concave, evolution, superpose, verify
from plap.core import Params, _power, axis_norm
from plap.errors import PlapError, SolverFailureError
from plap.superpose import _cutoff
from plap.verify import (
    BRACKET_XTOL,
    DEFAULT_SEED,
    DRAWS,
    MIN_POLE_DISTANCE,
    TRIALS,
    SuiteReport,
    _bracket_sign_change,
    _derived_stacks,
    _rel,
)

SEEDS = list(range(50)) + [DEFAULT_SEED]  # 0-49 include 7


def stack_of(sets):
    """One stack of the pole sets ``sets``, built from their fields, each
    row with its set's p."""
    return superpose.PoleSet.stack_rows([s.weights for s in sets], [s.locations for s in sets],
                                        [s.params for s in sets])


def reference_pole_sets(rng, p, n, max_poles, n_max):
    """The pole sets of verify's draws, one ``PoleSet`` per row of the
    arrays drawn for all of them."""
    size = len(p)
    counts = rng.integers(1, max_poles + 1, size)
    weights = rng.uniform(0.1, 2.0, (size, max_poles))
    locations = rng.uniform(-1.0, 1.0, (size, max_poles, n_max))
    return [superpose.PoleSet(weights[b, :counts[b]], locations[b, :counts[b], :n[b]],
                              Params(float(p[b]), int(n[b]), 1.0)) for b in range(size)]


def reference_points_away(rng, sets, per_row, n_max):
    """``per_row`` points per pole set, each kept once ``superpose.pole_distance``
    puts its first n coordinates far enough from every pole of its set; the
    points still owed are drawn again together, in row order."""
    points = rng.uniform(-2.0, 2.0, (len(sets), per_row, n_max))
    while True:
        owed = [(b, j) for b, ps in enumerate(sets) for j in range(per_row)
                if superpose.pole_distance(ps, points[b, j, :ps.params.n]) < MIN_POLE_DISTANCE]
        if not owed:
            return points
        for (b, j), x in zip(owed, rng.uniform(-2.0, 2.0, (len(owed), n_max))):
            points[b, j] = x


def reference_superpose_draws(rng):
    """The draws of ``verify_superpose``, taken one row at a time: every
    draw builds its moved, scaled and single-pole sets at once.  Draws
    grouped by n, as the suite stacks them, so that each row is padded as
    it is there."""
    p = rng.choice([2.0, 2.5, 3.0, 4.0], DRAWS)
    n = rng.choice([2, 3, 5], DRAWS)
    sets = reference_pole_sets(rng, p, n, 8, 5)
    g = rng.standard_normal((DRAWS, 5, 5))
    shift = rng.uniform(-1, 1, (DRAWS, 5))
    s = rng.uniform(0.5, 3.0, DRAWS)
    x = reference_points_away(rng, sets, 1, 5)[:, 0]
    classes = {}
    for b, ps in enumerate(sets):
        m = ps.params.n
        q, _ = np.linalg.qr(g[b, :m, :m])
        xb, sh = x[b, :m], shift[b, :m]
        classes.setdefault(m, []).append(dict(
            base=ps, x=xb, q=q, shift=sh, s=s[b],
            moved=superpose.PoleSet(ps.weights, ps.locations @ q.T + sh, ps.params),
            x_moved=q @ xb + sh,
            scaled=superpose.PoleSet(s[b] * ps.weights, ps.locations, ps.params),
            factor=_power(s[b], p[b] - 1),
            single=superpose.PoleSet(ps.weights[:1], ps.locations[:1], ps.params),
        ))
    return classes
def reference_superpose(rng):
    rep = SuiteReport("superpose")
    dc, fd, sign, iso, scal, null = ([] for _ in range(6))
    for n, draws in reference_superpose_draws(rng).items():
        base, moved, scaled, single = (
            stack_of([d[key] for d in draws])
            for key in ("base", "moved", "scaled", "single")
        )
        x, x_moved, factor = (np.array([d[key] for d in draws]) for key in ("x", "x_moved", "factor"))
        res = superpose.evaluate(base, None, x)
        d = superpose.delta_p_direct(res)
        c = superpose.delta_p_closed_form(res)
        f = superpose.delta_p_fd(base, None, x)
        scale = superpose.delta_p_scale(res)
        dc.append(_rel(d, c, scale))
        fd.append(_rel(f, c, scale))
        for row, draw in enumerate(draws):
            region = superpose.SignClass(superpose.sign_classes(draw["base"].params.p, n).item())
            if region is superpose.SignClass.NON_POSITIVE:
                sign.append([c[row] / np.maximum(scale[row], 1e-300)])
            elif region is superpose.SignClass.NON_NEGATIVE:
                sign.append([-c[row] / np.maximum(scale[row], 1e-300)])
            else:
                sign.append([np.abs(c[row]) / np.maximum(scale[row], 1e-300)])
        c_moved = superpose.delta_p_closed_form(superpose.evaluate(moved, None, x_moved))
        iso.append(_rel(c_moved, c, scale))
        c_s = superpose.delta_p_closed_form(superpose.evaluate(scaled, None, x))
        scal.append(_rel(c_s, factor * c, factor * scale))
        null.append(np.abs(superpose.delta_p_closed_form(superpose.evaluate(single, None, x))))

    def worst(parts):
        return float(np.concatenate([[0.0], *parts]).max())

    rep.add("three_way_direct_vs_closed", worst(dc), 1e-10)
    rep.add("three_way_fd_vs_closed", worst(fd), 1e-4)
    rep.add("sign_soundness", worst(sign), 1e-12)
    rep.add("isometry_equivariance", worst(iso), 1e-12)
    rep.add("weight_scaling", worst(scal), 1e-11)
    rep.add("single_pole_nullity", worst(null), 0.0)
    return rep


def reference_nsd(g, lam):
    q, _ = np.linalg.qr(g)
    return (q * lam) @ q.T


def reference_concave(rng):
    """The checks of ``verify_concave`` after its array draws: one matrix,
    one criterion and one operator term at a time."""
    rep = SuiteReport("concave")
    n = rng.integers(2, 6, TRIALS)
    p = rng.uniform(2.01, 8.0, TRIALS)
    g, lam = rng.standard_normal((TRIALS, 5, 5)), -rng.uniform(0.0, 3.0, (TRIALS, 5))
    worst = 0.0
    for b in range(TRIALS):
        h = reference_nsd(g[b, :n[b], :n[b]], lam[b, :n[b]])
        if not concave.eigenvalue_criterion(h, p[b]):
            worst = max(worst, concave.criterion_sum(h, p[b]))
    rep.add("concavity_implies_criterion", worst, 1e-12)

    n = rng.integers(2, 6, TRIALS)
    p = rng.uniform(2.01, 6.0, TRIALS)
    a = rng.standard_normal((TRIALS, 5, 5))
    xi = rng.standard_normal((TRIALS, 10, 5))
    worst = 0.0
    for b in range(TRIALS):
        h = (lambda a: 0.5 * (a + a.T))(a[b, :n[b], :n[b]])
        if not concave.eigenvalue_criterion(h, p[b]):
            continue
        term = concave.QuadraticTerm(h)
        for j in range(10):
            hess = term.eval(np.zeros(n[b]))[2]
            worst = max(worst, concave.operator_term(hess, p[b], xi[b, j, :n[b]]))
    rep.add("criterion_implies_sign", worst, 1e-12)

    p = rng.choice([2.5, 3.0, 4.0], TRIALS)
    n = rng.choice([2, 3], TRIALS)
    sets = reference_pole_sets(rng, p, n, 5, 3)
    g, lam = rng.standard_normal((TRIALS, 3, 3)), -rng.uniform(0.0, 3.0, (TRIALS, 3))
    b, c0 = rng.uniform(-1, 1, (TRIALS, 3)), rng.uniform(-1, 1, TRIALS)
    x = reference_points_away(rng, sets, 5, 3)
    worst = -np.inf
    for i, ps in enumerate(sets):
        m = ps.params.n
        k = concave.QuadraticTerm(reference_nsd(g[i, :m, :m], lam[i, :m]), b=b[i, :m], c0=float(c0[i]))
        worst = max(worst, float(superpose.delta_p_direct(superpose.evaluate(ps, k, x[i, :, :m])).max()))
    rep.add("concave_superposition_sign", worst, 1e-10)

    base = concave.AffineMinTerm([[1.0, 0.5], [-0.7, 0.2], [0.1, -1.0]], [0.0, 0.3, -0.2])
    box = np.stack(np.meshgrid(*[np.linspace(-1, 1, 7)] * 2, indexing="ij"), axis=-1)
    box = box.reshape(-1, 2)
    sups = []
    for delta in (0.4, 0.2, 0.1):
        mol = concave.MollifiedTerm(base, delta)
        sups.append(float(np.abs(mol.value(box) - base.value(box)).max()))
    rep.add("mollification_sup_shrinks", max(sups[i + 1] / sups[i] for i in range(2)), 0.99)

    g = rng.standard_normal((2, 2))
    mol = concave.MollifiedTerm(concave.QuadraticTerm(reference_nsd(g, -rng.uniform(0.0, 3.0, 2))), 0.2)
    _, _, h = mol.eval(box[::5])
    rep.add("mollified_hessian_nsd", max(0.0, float(np.linalg.eigvalsh(h)[:, -1].max())), 1e-10)
    return rep


@pytest.mark.parametrize("suite, reference", [
    (verify.verify_superpose, reference_superpose),
    (verify.verify_concave, reference_concave),
], ids=["superpose", "concave"])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_draw_loop_gives_the_per_draw_report_and_generator_state(
        monkeypatch, suite, reference, seed):
    expected_rng = np.random.default_rng(seed)
    expected = reference(expected_rng).to_dict()
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    got = suite(seed).to_dict()
    monkeypatch.undo()
    assert got == expected
    assert len(made) == 1
    assert made[0].bit_generator.state == expected_rng.bit_generator.state


def test_the_fd_oracle_passes_the_draw_where_the_flux_form_failed():
    """Seed 1498416809, draw 128 of the per-draw loop that ``verify_superpose``
    drew with before its array draws: |grad V| = 0.096 and a pole 0.065
    from the point.  An oracle that differenced the flux |g|^{p-2} g failed
    ``three_way_fd_vs_closed`` there (1.79e-4 against 1e-4); the identity
    on the Jacobian of g, with g the stencil mean, gives 6.8e-6."""

    def per_draw_loop(seed, index):
        """The pole set and point of draw ``index`` of that loop."""
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            p = (2.0, 2.5, 3.0, 4.0)[rng.integers(4)]
            n = (2, 3, 5)[rng.integers(3)]
            count = int(rng.integers(1, 9))
            w, y = rng.uniform(0.1, 2.0, count), rng.uniform(-1.0, 1.0, (count, n))
            x = rng.uniform(-2.0, 2.0, n)
            while axis_norm(x - y).min() < MIN_POLE_DISTANCE:
                x = rng.uniform(-2.0, 2.0, n)
            rng.standard_normal((n, n)), rng.uniform(-1, 1, n), rng.uniform(0.5, 3.0)
        return superpose.PoleSet(w, y, Params(p, n, 1.0)), x

    ps, x = per_draw_loop(1498416809, 128)
    res = superpose.evaluate(ps, None, x)
    assert round(float(axis_norm(res.gradient)), 3) == 0.096
    assert round(float(superpose.pole_distance(ps, x)), 3) == 0.065
    c = superpose.delta_p_closed_form(res)
    assert _rel(superpose.delta_p_fd(ps, None, x), c, superpose.delta_p_scale(res)) < 1e-5
    assert verify.verify_superpose(1498416809).passed


class CountingGenerator:
    """A generator that records the name of each method called on it, in
    ``calls``, unless ``outside`` is False."""

    def __init__(self, rng, calls, outside):
        self.rng, self.calls, self.outside = rng, calls, outside

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            if self.outside():
                self.calls.append(name)
            return method(*args, **kwargs)
        return counted


def generator_calls(monkeypatch, suite, seed):
    """The generator methods ``suite`` calls at ``seed`` outside
    ``verify._points_away``, in order, and the number of its calls of
    ``_points_away``, whose rounds of redraws depend on the draws."""
    calls, inside = [], []
    default_rng, points_away = np.random.default_rng, verify._points_away

    def counted_points_away(*args):
        inside.append(1)
        try:
            return points_away(*args)
        finally:
            inside.append(-1)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: CountingGenerator(default_rng(s), calls, lambda: not sum(inside)))
    monkeypatch.setattr(verify, "_points_away", counted_points_away)
    suite(seed)
    monkeypatch.undo()
    return calls, inside.count(1)


@pytest.mark.parametrize("suite, count, draws", [
    (verify.verify_superpose, "DRAWS", (DRAWS, 7, 1000)),
    (verify.verify_concave, "TRIALS", (TRIALS, 7, 500)),
], ids=["superpose", "concave"])
def test_each_suite_makes_the_same_generator_calls_whatever_the_draw_count(
        monkeypatch, suite, count, draws):
    """One call per kind of value drawn, with every draw's values in its
    rows: the suite makes the same calls at 7 draws as at 1000, and its
    point rejection is one call of ``_points_away``."""
    seen = set()
    for size in draws:
        monkeypatch.setattr(verify, count, size)
        calls, rejections = generator_calls(monkeypatch, suite, DEFAULT_SEED)
        assert rejections == 1
        seen.add(tuple(calls))
    assert len(seen) == 1
    assert len(calls) == {"DRAWS": 8, "TRIALS": 19}[count]


@pytest.mark.parametrize("seed", range(50))
def test_every_suite_passes(seed):
    assert [rep.suite for rep in verify.run_suite("all", seed=seed) if not rep.passed] == []


FIELDS = ("weights", "locations", "counts")


@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED])
def test_derived_stacks_equal_the_stacks_of_per_draw_sets(seed):
    """Field by field, exactly, but for the moved location of a one-pole
    row: the per-draw product (1, n) @ (n, n) rounds otherwise than the
    same row inside a stacked product, by a few ulps.  No check reads it:
    the closed form of a one-pole row is exactly 0."""
    one_pole_rows = 0
    for draws in reference_superpose_draws(np.random.default_rng(seed)).values():
        base = stack_of([d["base"] for d in draws])
        q, shift, s = (np.array([d[key] for d in draws]) for key in ("q", "shift", "s"))
        for key, got in zip(("moved", "scaled", "single"), _derived_stacks(base, q, shift, s)):
            want = stack_of([d[key] for d in draws])
            assert got.params == want.params and np.array_equal(got.p, want.p)
            for name in FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and not a.flags.writeable, (key, name)
                if key == "moved" and name == "locations":
                    one = want.counts == 1
                    one_pole_rows += one.sum()
                    np.testing.assert_allclose(a[one], b[one], rtol=4e-16, atol=4e-16)
                    a, b = a[~one], b[~one]
                assert np.array_equal(a, b), (key, name)
            assert np.array_equal(_cutoff(got.weights), _cutoff(want.weights)), key
    assert one_pole_rows > 0


def test_a_stack_holds_each_set_as_the_set_holds_itself():
    """Rows of 1 to 130 poles: the sum behind ``_cutoff`` runs left
    to right over each row, so a padded row's zeros leave its set's own sum,
    also past 8 poles, where numpy's pairwise summation would not."""
    rng = np.random.default_rng(5)
    params = Params(3.0, 2, 1.0)
    sets = [superpose.PoleSet(rng.uniform(0.1, 2.0, m), rng.uniform(-1, 1, (m, 2)), params)
            for m in (3, 1, 9, 130, 8, 3)]
    stack = stack_of(sets)
    assert stack.counts.tolist() == [3, 1, 9, 130, 8, 3]
    for row, ps in enumerate(sets):
        m = ps.counts
        assert _cutoff(stack.weights)[row] == _cutoff(ps.weights)
        assert np.array_equal(stack.weights[row, :m], ps.weights)
        assert np.array_equal(stack.locations[row, :m], ps.locations)
        assert not stack.weights[row, m:].any()
        assert (stack.locations[row, m:] == ps.locations[0]).all()


def counted_pole_sets(monkeypatch):
    """The list that gains one entry per ``PoleSet.__init__`` call."""
    calls, init = [], superpose.PoleSet.__init__
    monkeypatch.setattr(superpose.PoleSet, "__init__",
                        lambda self, *args: calls.append(init(self, *args)))
    return calls


def test_verify_superpose_builds_no_pole_set_per_draw(monkeypatch):
    calls = counted_pole_sets(monkeypatch)
    reference_superpose_draws(np.random.default_rng(DEFAULT_SEED))
    assert len(calls) == 800
    calls.clear()
    verify.verify_superpose(DEFAULT_SEED)
    assert not calls


def test_verify_concave_builds_no_pole_set_per_draw(monkeypatch):
    calls = counted_pole_sets(monkeypatch)
    reference_concave(np.random.default_rng(DEFAULT_SEED))
    assert len(calls) == TRIALS
    calls.clear()
    verify.verify_concave(DEFAULT_SEED)
    assert not calls


def test_verify_concave_evaluates_v_plus_k_once_per_class(monkeypatch):
    """One evaluation per (n, pole count) class, every row unpadded and
    with its own p and its own K from one stacked ``QuadraticTerm``, at
    points (5, B, n)."""
    classes, ps_seen, evaluate = Counter(), [], superpose.evaluate

    def counting(ps, k, x):
        classes[ps.params.n, ps.weights.shape[1]] += 1
        ps_seen.append(ps.p)
        assert (ps.counts == ps.weights.shape[1]).all()
        assert k.a_matrix.shape == (len(ps.counts), ps.params.n, ps.params.n)
        assert x.shape == (5, len(ps.counts), ps.params.n)
        return evaluate(ps, k, x)

    monkeypatch.setattr(superpose, "evaluate", counting)
    verify.verify_concave(DEFAULT_SEED)
    assert set(classes.values()) == {1} and len(classes) <= 2 * 5
    # most classes mix p
    assert sum(np.ndim(p) for p in ps_seen) > len(ps_seen) / 2
    assert set(np.concatenate([np.ravel(p) for p in ps_seen]).tolist()) == {2.5, 3.0, 4.0}


def nan_like(f):
    """``f`` with every value it returns replaced by NaN."""
    return lambda *args, **kwargs: np.full(np.shape(f(*args, **kwargs)), np.nan)


def nan_hessian(f):
    """``MollifiedTerm.eval`` with a NaN Hessian."""
    def patched(self, x):
        value, grad, hess = f(self, x)
        return value, grad, np.full(hess.shape, np.nan)
    return patched


def nan_gap(f):
    """``comparison_check`` with a NaN ``min_gap``."""
    return lambda *args, **kwargs: dataclasses.replace(f(*args, **kwargs), min_gap=np.nan)


NAN_CASES = [  # suite, check, and the route that returns NaN
    ("concave", "concavity_implies_criterion", concave, "criterion_sum", nan_like),
    ("concave", "criterion_implies_sign", concave, "operator_term", nan_like),
    ("concave", "concave_superposition_sign", superpose, "delta_p_direct", nan_like),
    ("concave", "mollification_sup_shrinks", concave.MollifiedTerm, "value", nan_like),
    ("concave", "mollified_hessian_nsd", concave.MollifiedTerm, "eval", nan_hessian),
    ("comparison", "discrete_maximum_principle", comparison, "solve_p_harmonic", nan_like),
    ("comparison", "comparison_principle", comparison, "comparison_check", nan_gap),
    ("comparison", "refinement_no_persistent_violation", comparison, "comparison_check", nan_gap),
    ("evolution", "barenblatt_defect_identity", evolution, "barenblatt_defect_fd", nan_like),
    ("evolution", "sign_change_radius_bracketing", evolution, "sign_change_radius", nan_like),
    ("superpose", "three_way_direct_vs_closed", superpose, "delta_p_direct", nan_like),
]


@pytest.mark.parametrize("suite, check, owner, name, patch", NAN_CASES,
                         ids=[case[1] for case in NAN_CASES])
def test_a_nan_residual_fails_its_check(monkeypatch, suite, check, owner, name, patch):
    """Every check that keeps the worst of several residuals: a NaN among
    them is the worst, not a draw to skip."""
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    result = {c.name: c for c in verify.run_suite(suite, seed=1)[0].checks}[check]
    assert not result.passed and math.isnan(result.worst_residual)


def test_verify_superpose_evaluates_each_class_four_times(monkeypatch):
    """Once per dimension n for the base stack, whose evaluation feeds the
    direct route, the closed form and the scale, and once each for the
    moved, scaled and single-pole stacks; the FD oracle evaluates nothing.
    Each stack holds every p drawn with its n."""
    calls, ps_seen, evaluate = Counter(), set(), superpose.evaluate

    def counting(ps, k, x):
        calls[ps.params.n] += 1
        ps_seen.update(np.ravel(ps.p).tolist())
        return evaluate(ps, k, x)

    monkeypatch.setattr(superpose, "evaluate", counting)
    verify.verify_superpose(DEFAULT_SEED)
    assert len(calls) == 3 and set(calls.values()) == {4}
    assert ps_seen == {2.0, 2.5, 3.0, 4.0}


@pytest.mark.parametrize("p, n, big_c, t", [
    (3.0, 2, 1.0, 1.0), (4.0, 3, 2.0, 0.5),  # the suite's two kernels
    (2.5, 1, 1.0, 1.0), (6.0, 4, 1.0, 2.0),
])
def test_the_bracket_holds_brentqs_root_of_the_fd_time_derivative(p, n, big_c, t):
    kb = evolution.EvolutionKernel(evolution.BARENBLATT, Params(p, n, 1.0), big_c=big_c)

    def bt_fd(r):  # the FD B_t at a radius or an array of radii on the first axis
        x = np.multiply.outer(r, np.eye(n)[0])
        return evolution._time_difference(lambda s: evolution.kernel_value(kb, x, s), t)

    support, radius = evolution.support_radius(kb, t), evolution.sign_change_radius(kb, t)
    lo, hi = _bracket_sign_change(bt_fd, 0.05 * support, 0.99 * support)
    assert 0 < hi - lo <= BRACKET_XTOL == 2e-12
    assert np.sign(bt_fd(lo)) != np.sign(bt_fd(hi))
    root = brentq(bt_fd, 0.05 * support, 0.99 * support)
    assert abs(0.5 * (lo + hi) - root) <= 1e-8 * radius


def test_the_bracket_stops_where_floats_cannot_split_it():
    """Near 1e5 neighbouring doubles are 1.5e-11 apart, wider than
    BRACKET_XTOL: the bracket ends as two neighbours around the root."""
    root = 1e5 + 0.1
    lo, hi = _bracket_sign_change(lambda r: r - root, 0.0, 2e5)
    assert lo <= root <= hi == np.nextafter(lo, np.inf)


def test_the_bracket_refuses_a_function_without_a_sign_change():
    with pytest.raises(ValueError, match="does not change sign"):
        _bracket_sign_change(lambda r: r * r + 1.0, -1.0, 1.0)


def test_an_unknown_suite_is_refused_before_any_suite_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing may run for an unknown suite")

    for suite in verify.SUITE_NAMES:
        monkeypatch.setattr(verify, f"verify_{suite}", refuse)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    with pytest.raises(ValueError) as exc:
        verify.run_suite("nope")
    assert "'nope'" in str(exc.value)
    assert all(name in str(exc.value) for name in verify.SUITE_NAMES + ("'all'",))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")


def cpus(monkeypatch, count):
    """The process appears to run on ``count`` CPUs; returns the list that
    records each os.fork call this process makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("seed", [1, 7])
def test_the_forked_path_gives_the_sequential_reports(monkeypatch, seed):
    forks = cpus(monkeypatch, 1)
    sequential = [rep.to_dict() for rep in verify.run_suite("all", seed=seed)]
    assert forks == []
    forks = cpus(monkeypatch, 2)
    forked = [rep.to_dict() for rep in verify.run_suite("all", seed=seed)]
    assert forks == [1]
    assert forked == sequential
    assert [rep["suite"] for rep in forked] == list(verify.SUITE_NAMES)
    assert_no_child_left()


@needs_fork
def test_a_forked_suites_solver_failure_reaches_the_caller(monkeypatch, tmp_path, capsys):
    def fail(seed):
        raise SolverFailureError("no convergence within 3 iterations", residual=0.5)

    forks = cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, f"verify_{verify.FORKED_SUITES[0]}", fail)
    with pytest.raises(SolverFailureError) as exc:
        verify.run_suite("all", seed=1)
    assert type(exc.value) is SolverFailureError
    assert str(exc.value) == "no convergence within 3 iterations"
    assert exc.value.residual == 0.5
    assert_no_child_left()

    code = cli.main(["verify", "--suite", "all", "--seed", "1", "--out", str(tmp_path / "v.json")])
    assert code == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert "solver failure: no convergence within 3 iterations (residual 0.5)" in err
    assert forks == [1, 1]
    assert_no_child_left()


@needs_fork
def test_a_forked_child_that_ends_without_a_report_is_a_plap_error(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, f"verify_{verify.FORKED_SUITES[-1]}", lambda seed: os._exit(3))
    with pytest.raises(PlapError) as exc:
        verify.run_suite("all", seed=1)
    assert type(exc.value) is PlapError
    assert all(suite in str(exc.value) for suite in verify.FORKED_SUITES)
    assert "exit status 3" in str(exc.value)
    assert_no_child_left()


@needs_fork
def test_a_parent_suites_error_kills_and_reaps_the_child(monkeypatch):
    def fail(seed):
        raise ValueError("the parent's suite failed")

    here = next(s for s in verify.SUITE_NAMES if s not in verify.FORKED_SUITES)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, f"verify_{verify.FORKED_SUITES[0]}", lambda seed: time.sleep(60))
    monkeypatch.setattr(verify, f"verify_{here}", fail)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the parent's suite failed"):
        verify.run_suite("all", seed=1)
    assert time.monotonic() - start < 30  # the child did not sleep out its minute
    assert_no_child_left()
