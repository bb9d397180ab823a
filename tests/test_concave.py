"""Concave terms, mollification, and the eigenvalue sufficient condition."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    AffineMinTerm,
    GridDomain,
    MollifiedTerm,
    Params,
    PoleSet,
    QuadraticTerm,
    eigenvalue_criterion,
    operator_term,
    superposition_grid,
)
from plap import comparison, concave, superpose, verify
from plap.concave import MOLLIFIER_BLOCK, ConcaveTerm, _mollifier_grid, criterion_sum
from plap.errors import KinkError


def random_nsd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * -rng.uniform(0, 3, n)) @ q.T


def test_quadratic_eval():
    k = QuadraticTerm(-np.eye(2))
    v, g, h = k.eval([1.0, 1.0])
    assert v == pytest.approx(-1.0)
    np.testing.assert_allclose(g, [-1, -1])
    np.testing.assert_allclose(h, -np.eye(2))


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticTerm(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_affine_min_single_piece():
    k = AffineMinTerm([[1.0, 2.0]], [0.5])
    v, g, h = k.eval([0.3, 0.4])
    assert v == pytest.approx(0.3 + 0.8 + 0.5)
    np.testing.assert_allclose(g, [1.0, 2.0])
    assert np.all(h == 0)


def test_affine_min_picks_minimizer():
    k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    v, g, _ = k.eval([2.0, 0.0])
    assert v == pytest.approx(-2.0)
    np.testing.assert_allclose(g, [-1.0, 0.0])


def test_affine_min_kink_error():
    k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(KinkError):
        k.eval([0.0, 1.0])
    # value stays available at the kink
    assert k.value([0.0, 1.0]) == pytest.approx(0.0)


def test_mollified_preserves_affine():
    k = AffineMinTerm([[0.7, -0.4]], [0.2])
    mol = MollifiedTerm(k, 0.1)
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        assert abs(mol.value(x) - k.value(x)) <= 1e-10
        v, g, h = mol.eval(x)
        np.testing.assert_allclose(g, [0.7, -0.4], atol=1e-12)
        assert np.abs(h).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_mollified_affine_min_hessian_is_the_summed_base_hessian(d):
    """The affine-min base says its Hessian is zero, so the quadrature sum
    of it is skipped: the Hessian is still the +0.0 the sum gives, bit for
    bit, over points that span several blocks."""
    rng = np.random.default_rng(30 + d)
    base = AffineMinTerm(rng.uniform(-1, 1, (3, d)), rng.uniform(-0.3, 0.3, 3))
    assert base.zero_hessian and not QuadraticTerm(-np.eye(d)).zero_hessian
    mol = MollifiedTerm(base, 0.2)
    x = rng.uniform(-1, 1, (2 * MOLLIFIER_BLOCK // len(_mollifier_grid(d)[1]) + 3, d))
    pts, wts = _mollifier_grid(d)
    summed = np.einsum("q,bqij->bij", wts, base.eval_lenient(x[:, None, :] - 0.2 * pts)[2])
    _, _, h = mol.eval(x)
    assert h.shape == summed.shape and h.tobytes() == summed.tobytes()
    assert not np.signbit(h).any()


def test_mollified_requires_positive_delta():
    with pytest.raises(ValueError):
        MollifiedTerm(QuadraticTerm(-np.eye(2)), 0.0)


def test_mollified_locally_uniform_convergence():
    base = AffineMinTerm([[1.0, 0.5], [-0.7, 0.2], [0.1, -1.0]], [0.0, 0.3, -0.2])
    box = [
        np.array([a, b]) for a in np.linspace(-1, 1, 9) for b in np.linspace(-1, 1, 9)
    ]
    sups = []
    for delta in (0.4, 0.2, 0.1, 0.05):
        mol = MollifiedTerm(base, delta)
        sups.append(max(abs(mol.value(x) - base.value(x)) for x in box))
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_mollified_concave_base_keeps_nsd_hessian():
    rng = np.random.default_rng(22)
    base = QuadraticTerm(random_nsd(rng, 2), b=[0.3, -0.1])
    mol = MollifiedTerm(base, 0.25)
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        _, _, h = mol.eval(x)
        assert np.linalg.eigvalsh(h)[-1] <= 1e-10


@pytest.mark.parametrize("p,n", [(3, 3), (3, 2), (4, 5)])
def test_counterexample_matrix_boundary_case(p, n):
    m = p + n - 2
    a = np.diag([1.0 - m] + [1.0] * (n - 1))
    assert np.linalg.eigvalsh(QuadraticTerm(a).a_matrix)[-1] > 0  # not NSD
    assert eigenvalue_criterion(a, p)
    assert abs(criterion_sum(a, p)) <= 1e-12


def test_criterion_identity_fails():
    assert not eigenvalue_criterion(np.eye(2), 3)


def test_criterion_negative_identity_passes():
    assert eigenvalue_criterion(-np.eye(2), 3)
    assert criterion_sum(-np.eye(2), 3) == pytest.approx(-3.0)


def test_criterion_requires_symmetric():
    with pytest.raises(ValueError):
        eigenvalue_criterion(np.array([[0.0, 1.0], [0.0, 0.0]]), 3)


def test_criterion_requires_p_above_two():
    with pytest.raises(ValueError):
        eigenvalue_criterion(-np.eye(2), 2.0)


def test_criterion_implies_operator_sign():
    rng = np.random.default_rng(24)
    hits = 0
    while hits < 50:
        n = int(rng.integers(2, 5))
        p = float(rng.uniform(2.01, 6.0))
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        if not eigenvalue_criterion(h, p):
            continue
        term = QuadraticTerm(h)
        for _ in range(20):
            xi = rng.standard_normal(n)
            assert operator_term(term.eval(np.zeros(n))[2], p, xi) <= 1e-12
        hits += 1


def test_operator_term_concave_nonpositive():
    rng = np.random.default_rng(25)
    k = QuadraticTerm(random_nsd(rng, 3))
    for _ in range(20):
        xi = rng.standard_normal(3)
        assert operator_term(k.eval(np.zeros(3))[2], 3.5, xi) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_stacked_criterion_and_operator_terms_equal_per_matrix_calls(n):
    rng = np.random.default_rng(27 + n)
    a = rng.standard_normal((8, n, n))
    # half negative semidefinite, half indefinite, so both decisions occur
    h = np.concatenate([-(a[:4] @ a[:4].mT), 0.5 * (a[4:] + a[4:].mT)])
    p = rng.uniform(2.01, 8.0, 8)
    sums, decisions = criterion_sum(h, p), eigenvalue_criterion(h, p)
    assert sums.shape == decisions.shape == (8,) and decisions.any() and not decisions.all()
    assert sums.tolist() == [criterion_sum(m, q) for m, q in zip(h, p)]
    assert decisions.tolist() == [eigenvalue_criterion(m, q) for m, q in zip(h, p)]
    assert criterion_sum(h, 3.0).tolist() == [criterion_sum(m, 3.0) for m in h]
    assert criterion_sum(h.reshape(2, 4, n, n), p.reshape(2, 4)).ravel().tolist() == sums.tolist()

    xi = rng.standard_normal((10, n))
    terms = operator_term(h[0], p[0], xi)
    assert terms.shape == (10,)
    assert terms.tolist() == [operator_term(h[0], p[0], v) for v in xi]
    # directions against a stack of distinct matrices, with p per row
    b = rng.standard_normal((10, n, n))
    hs = 0.5 * (b + b.mT)
    terms = operator_term(hs, np.full(10, p[1]), xi)
    assert terms.tolist() == [operator_term(m, p[1], v) for m, v in zip(hs, xi)]
    # homogeneous of degree 0 in xi: no scale overflows or underflows
    bound = 1e-14 * (1 + abs(p[1] - 2)) * np.abs(hs).sum(axis=(-2, -1))
    for scale in (1e200, 1e-200):
        assert (abs(operator_term(hs, np.full(10, p[1]), scale * xi) - terms) <= bound).all()


def test_a_stack_with_one_asymmetric_matrix_is_refused():
    h = np.stack([-np.eye(3)] * 4)
    h[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalue_criterion(h, 3.0)
    with pytest.raises(ValueError, match="p > 2"):
        eigenvalue_criterion(-np.stack([np.eye(3)] * 2), [3.0, 2.0])


def test_a_stacked_quadratic_term_is_each_term_at_its_own_points():
    """A (B, n, n), b (B, n), c0 (B,) and points (5, B, n): value, gradient
    and Hessian of each term, bit for bit as the term alone at its points."""
    rng = np.random.default_rng(14)
    m = rng.standard_normal((6, 3, 3))
    a, b, c0 = 0.5 * (m + m.mT), rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, 6)
    x = rng.uniform(-2, 2, (5, 6, 3))
    stack = QuadraticTerm(a, b=b, c0=c0)
    got = (stack.value(x), *stack.eval(x))
    for i in range(6):
        one = QuadraticTerm(a[i], b=b[i], c0=float(c0[i]))
        assert one.a_matrix.tobytes() == stack.a_matrix[i].tobytes()
        xi = np.ascontiguousarray(x[:, i])
        for g, want in zip(got, (one.value(xi), *one.eval(xi))):
            assert g[:, i].tobytes() == want.tobytes()
    # one c0 for every term, and no b
    want = QuadraticTerm(a, b=np.zeros((6, 3)), c0=np.zeros(6)).value(x)
    assert QuadraticTerm(a).value(x).tobytes() == want.tobytes()


def test_a_stacked_quadratic_term_checks_each_matrix_against_its_own_scale():
    a = np.stack([-np.eye(3)] * 4)
    a[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticTerm(a)
    # 1e-9 would pass against the scale 1e6 of the second matrix, not the first's
    a = np.stack([-np.eye(2), -1e6 * np.eye(2)])
    a[0, 0, 1] = 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticTerm(a)
    a[1, 0, 1] = 1e-9
    QuadraticTerm(a[1:])
    a = np.stack([-np.eye(2)] * 2)
    with pytest.raises(ValueError, match="wrong dimension"):
        QuadraticTerm(a, b=np.zeros(2))
    with pytest.raises(ValueError, match="c0"):
        QuadraticTerm(a, c0=np.zeros(3))
    with pytest.raises(ValueError, match="square"):
        QuadraticTerm(np.zeros((2, 2, 2, 2)))


def test_operator_term_zero_matrix():
    k = QuadraticTerm(np.zeros((2, 2)))
    assert operator_term(k.eval([0.0, 0.0])[2], 3.0, [1.0, 0.0]) == 0.0


def test_operator_term_counterexample_nonpositive():
    p, n = 3, 3
    a = np.diag([1.0 - (p + n - 2)] + [1.0] * (n - 1))
    k = QuadraticTerm(a)
    rng = np.random.default_rng(26)
    for _ in range(200):
        xi = rng.standard_normal(n)
        assert operator_term(k.eval(np.zeros(n))[2], p, xi) <= 1e-12


# ------------------------------------------------------- batched contract
batch_settings = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def random_term(rng, kind, d):
    if kind == "quadratic":
        a = rng.standard_normal((d, d))
        return QuadraticTerm(a + a.T, b=rng.uniform(-1, 1, d), c0=float(rng.uniform(-1, 1)))
    pieces = int(rng.integers(1, 5))
    affine = AffineMinTerm(rng.uniform(-1, 1, (pieces, d)), rng.uniform(-0.3, 0.3, pieces))
    if kind == "affine_min":
        return affine
    mollified = MollifiedTerm(affine, float(rng.uniform(0.05, 0.3)))
    if kind == "mollified":
        return mollified
    return MollifiedTerm(mollified, float(rng.uniform(0.05, 0.3)))


def pointwise(fn, x):
    """fn applied point by point over the leading axes of x, restacked."""
    outs = [fn(z) for z in x.reshape(-1, x.shape[-1])]
    lead = x.shape[:-1]
    if not isinstance(outs[0], tuple):
        return np.reshape(outs, lead)
    return tuple(np.reshape(part, lead + np.shape(part[0])) for part in zip(*outs))


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["point", "rows", "grid"])
@pytest.mark.parametrize("kind", ["quadratic", "affine_min", "mollified", "nested"])
@batch_settings
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
def test_batched_equals_pointwise(kind, lead, seed, d):
    if kind == "nested":
        d = 2  # 144 x 144 base points per node
    rng = np.random.default_rng(seed)
    k = random_term(rng, kind, d)
    x = rng.uniform(-2, 2, lead + (d,))
    for name in ("value", "eval", "eval_lenient"):
        fn = getattr(k, name)
        try:
            want = pointwise(fn, x)
        except KinkError:
            with pytest.raises(KinkError):
                fn(x)
            continue
        got = fn(x)
        if name == "value":
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            if kind == "affine_min" or (name == "value" and kind in ("mollified", "nested")):
                # one code path, in one order, for a point and a batch; a
                # mollified value sums each point's quadrature terms alone
                np.testing.assert_array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-14)
    if lead == ():
        assert type(k.value(x)) is float and type(k.eval(x)[0]) is float


@pytest.mark.parametrize("d", [2, 3])
def test_mollified_value_matches_a_per_node_loop_across_blocks(d):
    rng = np.random.default_rng(31)
    base = AffineMinTerm(rng.uniform(-1, 1, (3, d)), rng.uniform(-0.3, 0.3, 3))
    mol = MollifiedTerm(base, 0.2)
    pts, wts = _mollifier_grid(d)
    rows = MOLLIFIER_BLOCK // len(wts)
    x = rng.uniform(-1, 1, (rows + 7, d))
    ref = np.array([
        sum(w * base.value(xi - mol.delta * z) for z, w in zip(pts, wts)) for xi in x
    ])
    got = mol.value(x)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@batch_settings
@given(seed=st.integers(0, 2**32 - 1), ties=st.integers(0, 3))
def test_batched_affine_min_kink_iff_some_point_ties(seed, ties):
    rng = np.random.default_rng(seed)
    k = AffineMinTerm([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 1.0])
    x = rng.uniform(-1, 1, (6, 2))
    x[rng.choice(6, ties, replace=False), 0] = 0.0  # x0 = 0 ties the first two pieces
    raises = []
    for z in x:
        try:
            k.eval(z)
            raises.append(False)
        except KinkError:
            raises.append(True)
    assert sum(raises) == ties
    if ties:
        with pytest.raises(KinkError):
            k.eval(x)
    else:
        np.testing.assert_array_equal(k.eval(x)[1], k.eval_lenient(x)[1])


class RecordingTerm(ConcaveTerm):
    """Passes every call on to ``base`` and keeps a copy of the points of
    each ``value`` call."""

    def __init__(self, base):
        self.base = base
        self.calls = []

    def value(self, x):
        self.calls.append(np.array(x))
        return self.base.value(x)

    def eval(self, x):
        return self.base.eval(x)


@pytest.mark.parametrize("d", [2, 3])
def test_mollified_blocks_shift_every_node_as_one_array_would(d, monkeypatch):
    rng = np.random.default_rng(32)
    affine = AffineMinTerm(rng.uniform(-1, 1, (3, d)), rng.uniform(-0.3, 0.3, 3))
    base = RecordingTerm(affine)
    mol = MollifiedTerm(base, 0.15)
    pts, wts = _mollifier_grid(d)
    x = rng.uniform(-1, 1, (2 * MOLLIFIER_BLOCK // len(wts) + 5, d))
    got = mol.value(x)
    assert len(base.calls) > 2
    assert all(math.prod(z.shape[:-1]) <= MOLLIFIER_BLOCK for z in base.calls)
    np.testing.assert_array_equal(np.concatenate(base.calls), x[:, None, :] - mol.delta * pts)
    # the value the quadrature gives does not depend on the block size
    for block in (1 << 10, 1 << 14, 1 << 16):
        monkeypatch.setattr(concave, "MOLLIFIER_BLOCK", block)
        assert mol.value(x).tobytes() == got.tobytes()
    assert MollifiedTerm(affine, mol.delta).eval(x)[0].tobytes() == got.tobytes()


def test_superposition_grid_calls_the_mollified_base_per_block():
    base = RecordingTerm(AffineMinTerm([[1.0, 0.5], [-0.7, 0.2]], [0.0, 0.3]))
    dom = GridDomain([(-1, 1), (-1, 1)], (65, 65))
    ps = PoleSet([1.0], [[0.1, 0.2]], Params(3.0, 2))
    superposition_grid(ps, MollifiedTerm(base, 0.2), dom)
    nodes, q = 65 * 65, len(_mollifier_grid(2)[1])
    assert len(base.calls) <= math.ceil(nodes * q / MOLLIFIER_BLOCK)


def test_symmetry_and_criterion_decisions_on_verify_draws_match_the_reference(monkeypatch):
    """Every matrix the concave and comparison suites hand to QuadraticTerm
    or criterion_sum over seeds 0-199 is decided as np.allclose at rtol 0
    (symmetry) and the eigenvalue sum (the criterion) decide it.  Every
    criterion decision goes through criterion_sum: eigenvalue_criterion's,
    and the accept loop's, which skips eigenvalue_criterion's checks, so each
    of its matrices must pass them too.  A stacked term or criterion call is
    recorded matrix by matrix.  Work that draws no random numbers (Delta_p,
    operator terms, grid solves) is stubbed, so the draws are verify's own."""
    quadratic, criterion = [], []
    post_init, criterion_sum = concave.QuadraticTerm.__post_init__, concave.criterion_sum

    def record_quadratic(self):
        a = np.asarray(self.a_matrix, dtype=float)
        post_init(self)
        quadratic.extend((m,) for m in a.reshape((-1,) + a.shape[-2:]))

    def record_criterion(h, p):
        total = criterion_sum(h, p)
        h = np.asarray(h, dtype=float)
        lead = h.shape[:-2]
        criterion.extend(zip(h.reshape((-1,) + h.shape[-2:]), np.broadcast_to(p, lead).ravel(),
                             np.broadcast_to(total <= concave.CRITERION_SLACK, lead).ravel()))
        return total

    monkeypatch.setattr(concave.QuadraticTerm, "__post_init__", record_quadratic)
    monkeypatch.setattr(concave, "criterion_sum", record_criterion)
    monkeypatch.setattr(concave, "operator_term", lambda h, p, xi: np.zeros(len(xi)))
    monkeypatch.setattr(superpose, "evaluate", lambda ps, k, x: x)
    monkeypatch.setattr(superpose, "delta_p_direct", lambda res: np.zeros(len(res)))
    monkeypatch.setattr(comparison, "solve_p_harmonic", lambda dom, data, p: data)
    monkeypatch.setattr(comparison, "comparison_check", lambda *args, **kwargs: SimpleNamespace(
        min_gap=0.0, tol=comparison.COMPARISON_TOL))
    for seed in range(200):
        verify.verify_concave(seed)
        verify.verify_comparison(seed)

    def by_size(records):
        """Stacks of the recorded matrices and their other fields, one per size."""
        for n in sorted({r[0].shape[0] for r in records}):
            group = [r for r in records if r[0].shape[0] == n]
            yield (np.array(field) for field in zip(*group))

    def symmetric(a, rel):
        # np.allclose(a, a.T, rtol=0, atol=rel * max(1, max |a|)) for each matrix of a stack
        atol = rel * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        return np.isclose(a, a.swapaxes(1, 2), rtol=0, atol=atol[:, None, None]).all(axis=(1, 2))

    # the first check's matrices twice (its sums, and eigenvalue_criterion's),
    # the accept loop's once
    assert len(quadratic) > 200 * 10 and len(criterion) == 200 * 3 * verify.TRIALS
    for (a,) in by_size(quadratic):
        assert symmetric(a, 1e-12).all()
    for h, p, decision in by_size(criterion):
        lam = np.linalg.eigvalsh(h)
        assert symmetric(h, 1e-10).all() and (p > 2).all()
        assert np.array_equal(
            decision, lam[:, :-1].sum(axis=1) + (p - 1) * lam[:, -1] <= concave.CRITERION_SLACK)
