"""Concave terms, mollification, and the eigenvalue sufficient condition."""

import numpy as np
import pytest

from plap import (
    AffineMinTerm,
    MollifiedTerm,
    Params,
    PoleSet,
    QuadraticTerm,
    ZeroTerm,
    delta_p_direct,
    eigenvalue_criterion,
    operator_term,
)
from plap.concave import criterion_sum
from plap.errors import KinkError


def random_nsd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * -rng.uniform(0, 3, n)) @ q.T


def test_zero_term():
    v, g, h = ZeroTerm().eval(np.array([1.0, 2.0]))
    assert v == 0.0
    assert np.all(g == 0) and np.all(h == 0)


def test_quadratic_eval():
    k = QuadraticTerm(-np.eye(2))
    v, g, h = k.eval([1.0, 1.0])
    assert v == pytest.approx(-1.0)
    np.testing.assert_allclose(g, [-1, -1])
    np.testing.assert_allclose(h, -np.eye(2))
    assert k.concave


def test_quadratic_concavity_flag():
    assert not QuadraticTerm(np.diag([1.0, -1.0])).concave
    assert QuadraticTerm(np.zeros((2, 2))).concave


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


def test_mollified_requires_positive_delta():
    with pytest.raises(ValueError):
        MollifiedTerm(ZeroTerm(), 0.0)


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
    assert not QuadraticTerm(a).concave
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


def test_concavity_implies_criterion():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.01, 8.0))
        assert eigenvalue_criterion(random_nsd(rng, n), p)


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
            assert operator_term(term, p, xi, np.zeros(n)) <= 1e-12
        hits += 1


def test_operator_term_concave_nonpositive():
    rng = np.random.default_rng(25)
    k = QuadraticTerm(random_nsd(rng, 3))
    for _ in range(20):
        xi = rng.standard_normal(3)
        assert operator_term(k, 3.5, xi, np.zeros(3)) <= 1e-12


def test_operator_term_zero_matrix():
    k = QuadraticTerm(np.zeros((2, 2)))
    assert operator_term(k, 3.0, [1.0, 0.0], [0.0, 0.0]) == 0.0


def test_operator_term_counterexample_nonpositive():
    p, n = 3, 3
    a = np.diag([1.0 - (p + n - 2)] + [1.0] * (n - 1))
    k = QuadraticTerm(a)
    rng = np.random.default_rng(26)
    for _ in range(200):
        xi = rng.standard_normal(n)
        assert operator_term(k, p, xi, np.zeros(n)) <= 1e-12


def test_concave_superposition_stays_supersolution():
    rng = np.random.default_rng(27)
    for _ in range(40):
        p = float(rng.choice([2.5, 3.0, 4.0]))
        n = int(rng.choice([2, 3]))
        count = int(rng.integers(1, 5))
        ps = PoleSet(
            rng.uniform(0.3, 2, count), rng.uniform(-1, 1, (count, n)), Params(p, n)
        )
        k = QuadraticTerm(random_nsd(rng, n), b=rng.uniform(-1, 1, n))
        for _ in range(5):
            x = rng.uniform(-2, 2, n)
            if np.min(np.linalg.norm(x - ps.locations, axis=1)) < 0.3:
                continue
            assert delta_p_direct(ps, k, x) <= 1e-10
