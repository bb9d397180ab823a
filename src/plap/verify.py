"""Randomized invariant suites, shared between the CLI ``verify`` command
and the test suite.  Each check reports its worst residual; a suite passes
when every check does.

These suites are the only implementation of the randomized checks: the
release criteria in ``tests/test_acceptance.py`` call them.  The superpose
and concave suites draw 1-8 poles (1-5 in the concave suite) with weights in
[0.1, 2] and locations in [-1, 1]^n, and query points in [-2, 2]^n at least
``MIN_POLE_DISTANCE`` from every pole."""

from dataclasses import dataclass, field

import numpy as np

from . import comparison, concave, evolution, superpose
from .core import Params

DEFAULT_SEED = 20160118
SUITE_NAMES = ("superpose", "concave", "comparison", "evolution")
TRIALS = 100                # per check of the concave suite
MIN_POLE_DISTANCE = 0.05    # of a query point from every pole
BRACKET_RADII = 33          # per call of the function whose sign change is bracketed
BRACKET_XTOL = 2e-12        # the bracket's final width, brentq's default xtol


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_residual: float
    tolerance: float

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_residual": float(self.worst_residual),
            "tolerance": float(self.tolerance),
        }


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, worst, tol):
        self.checks.append(
            CheckResult(name=name, passed=worst <= tol, worst_residual=worst, tolerance=tol)
        )

    def to_dict(self):
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "checks": [c.to_dict() for c in self.checks],
        }


def _random_pole_set(rng, p, n, max_poles=8):
    count = int(rng.integers(1, max_poles + 1))
    weights = rng.uniform(0.1, 2.0, count)
    locations = rng.uniform(-1.0, 1.0, (count, n))
    return superpose.PoleSet(weights, locations, Params(float(p), int(n), 1.0))


def _random_point_away(rng, ps):
    n = ps.params.n
    while True:
        x = rng.uniform(-2.0, 2.0, n)
        if superpose.pole_distance(ps, x) >= MIN_POLE_DISTANCE:
            return x


def _rel(a, b, scale):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)


def _derived_stacks(base, q, shift, s):
    """The stacked pole sets ``base`` moved by the rotations q (B, n, n) and
    shifts (B, n), with their weights scaled by s (B,), and reduced to their
    first pole, each built from ``base``'s arrays as ``PoleSet`` would build
    them from one set's."""
    build = superpose.PoleSet._from_rows
    moved = base.locations @ q.mT + shift[:, None, :]
    return (
        build(base.weights, moved, base.counts, base.params),
        build(s[:, None] * base.weights, base.locations, base.counts, base.params),
        build(base.weights[:, :1], base.locations[:, :1], np.ones_like(base.counts), base.params),
    )


def verify_superpose(seed=DEFAULT_SEED) -> SuiteReport:
    """200 draws, each of p, n, a pole set, a point, a rotation, a shift and
    a weight factor s.  The draw loop makes only the draws and the point's
    rejection test; the routes then run once per (p, n) class on the
    stacked sets of its draws."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport("superpose")
    classes = {}
    for _ in range(200):
        p = (2.0, 2.5, 3.0, 4.0)[rng.integers(4)]
        n = (2, 3, 5)[rng.integers(3)]
        ps = _random_pole_set(rng, p, n)
        x = _random_point_away(rng, ps)
        # isometry: the rotation from the QR of g, then a translation
        g = rng.standard_normal((n, n))
        shift = rng.uniform(-1, 1, n)
        s = float(rng.uniform(0.5, 3.0))
        # a Python float power, which rounds unlike an array's
        classes.setdefault((p, n), []).append((ps, x, g, shift, s, s ** (p - 1)))

    dc, fd, sign, iso, scal, null = ([] for _ in range(6))
    for (p, n), draws in classes.items():
        sets, x, g, shift, s, factor = zip(*draws)
        base = superpose.PoleSet.stack(sets)
        x, shift, factor = np.array(x), np.array(shift), np.array(factor)
        q = np.linalg.qr(np.array(g))[0]
        moved, scaled, single = _derived_stacks(base, q, shift, np.array(s))
        x_moved = (q @ x[..., None])[..., 0] + shift
        res = superpose.evaluate(base, None, x)
        c = superpose.delta_p_closed_form(res)
        scale = superpose.delta_p_scale(res)
        dc.append(_rel(superpose.delta_p_direct(res), c, scale))
        fd.append(_rel(superpose.delta_p_fd(base, None, x), c, scale))
        # the part of the closed form on the wrong side of its sign class
        wrong = {superpose.SignClass.NON_POSITIVE: c, superpose.SignClass.NON_NEGATIVE: -c}
        sign.append(wrong.get(superpose.sign_region(p, n), np.abs(c)) / np.maximum(scale, 1e-300))

        c_moved, c_scaled, c_single = (
            superpose.delta_p_closed_form(superpose.evaluate(ps, None, z))
            for ps, z in ((moved, x_moved), (scaled, x), (single, x))
        )
        iso.append(_rel(c_moved, c, scale))
        # weight scaling: a -> s a multiplies the closed form by s^(p-1)
        scal.append(_rel(c_scaled, factor * c, factor * scale))
        null.append(np.abs(c_single))

    def worst(parts):
        # a NaN residual is a failure, not a draw to skip
        return float(np.concatenate([[0.0], *parts]).max())

    rep.add("three_way_direct_vs_closed", worst(dc), 1e-10)
    rep.add("three_way_fd_vs_closed", worst(fd), 1e-4)
    rep.add("sign_soundness", worst(sign), 1e-12)
    rep.add("isometry_equivariance", worst(iso), 1e-12)
    rep.add("weight_scaling", worst(scal), 1e-11)
    rep.add("single_pole_nullity", worst(null), 0.0)
    return rep


def _nsd_draw(rng, n):
    """The draws of one n x n negative semidefinite matrix: a Gaussian
    matrix for its eigenvectors and its eigenvalues."""
    return rng.standard_normal((n, n)), -rng.uniform(0.0, 3.0, n)


def _nsd(g, lam):
    """Q diag(lam) Q^T with Q from the QR of g, for stacks g (..., n, n)
    and lam (..., n)."""
    q = np.linalg.qr(g)[0]
    return (q * lam[..., None, :]) @ q.mT


def _by_size(draws):
    """The draws (tuples whose first field has length n) grouped by n, in
    order of first appearance: per n, the draws' indices and a stacked array
    of each field."""
    groups = {}
    for i, draw in enumerate(draws):
        groups.setdefault(len(draw[0]), []).append(i)
    return [(rows, *map(np.array, zip(*(draws[i] for i in rows)))) for rows in groups.values()]


def verify_concave(seed=DEFAULT_SEED) -> SuiteReport:
    """Each check's draw loop makes only the draws and the decisions later
    draws depend on; its matrices are then built and checked per size n."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport("concave")

    draws = []
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.01, 8.0))
        draws.append(_nsd_draw(rng, n) + (p,))
    worst = 0.0
    for _, g, lam, p in _by_size(draws):
        h = _nsd(g, lam)
        failed = ~concave.eigenvalue_criterion(h, p)
        worst = max(worst, float(np.max(concave.criterion_sum(h, p), where=failed, initial=0.0)))
    rep.add("concavity_implies_criterion", worst, 1e-12)

    accepted = []
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        p = float(rng.uniform(2.01, 6.0))
        h = (lambda a: 0.5 * (a + a.T))(rng.standard_normal((n, n)))
        # only a matrix that meets the criterion draws its 10 directions
        if concave.eigenvalue_criterion(h, p):
            accepted.append((h, p, rng.standard_normal((10, n))))
    worst = 0.0
    for h, p, xi in accepted:
        terms = concave.operator_term(h, p, xi)
        worst = max(worst, float(terms.max()))
    rep.add("criterion_implies_sign", worst, 1e-12)

    draws, trials = [], []
    for _ in range(TRIALS):
        p = (2.5, 3.0, 4.0)[rng.integers(3)]
        n = (2, 3)[rng.integers(2)]
        ps = _random_pole_set(rng, p, n, max_poles=5)
        draws.append(_nsd_draw(rng, n))
        b, c0 = rng.uniform(-1, 1, n), float(rng.uniform(-1, 1))
        trials.append((ps, b, c0, np.array([_random_point_away(rng, ps) for _ in range(5)])))
    worst = -np.inf  # the largest value of Δ_p(V + K) itself, so its margin shows
    for rows, g, lam in _by_size(draws):
        for i, h in zip(rows, _nsd(g, lam)):
            ps, b, c0, x = trials[i]
            k = concave.QuadraticTerm(h, b=b, c0=c0)
            worst = max(worst, float(superpose.delta_p_direct(superpose.evaluate(ps, k, x)).max()))
    rep.add("concave_superposition_sign", worst, 1e-10)

    base = concave.AffineMinTerm(
        [[1.0, 0.5], [-0.7, 0.2], [0.1, -1.0]], [0.0, 0.3, -0.2]
    )
    box = np.stack(np.meshgrid(*[np.linspace(-1, 1, 7)] * 2, indexing="ij"), axis=-1)
    box = box.reshape(-1, 2)
    sups = []
    for delta in (0.4, 0.2, 0.1):
        mol = concave.MollifiedTerm(base, delta)
        sups.append(float(np.abs(mol.value(box) - base.value(box)).max()))
    # locally uniform convergence: sup distance must shrink as delta halves
    worst = max(sups[i + 1] / sups[i] for i in range(len(sups) - 1))
    rep.add("mollification_sup_shrinks", worst, 0.99)

    mol = concave.MollifiedTerm(concave.QuadraticTerm(_nsd(*_nsd_draw(rng, 2))), 0.2)
    _, _, h = mol.eval(box[::5])
    worst = max(0.0, float(np.linalg.eigvalsh(h)[:, -1].max()))
    rep.add("mollified_hessian_nsd", worst, 1e-10)
    return rep


def verify_comparison(seed=DEFAULT_SEED) -> SuiteReport:
    rng = np.random.default_rng(seed)
    rep = SuiteReport("comparison")
    dom = comparison.GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33))

    worst_mp = 0.0
    nodes_xy = dom.nodes()
    for p in (2.0, 3.0, 4.0):
        data = np.sin(2 * nodes_xy[..., 0]) + 0.5 * np.cos(3 * nodes_xy[..., 1])
        sol = comparison.solve_p_harmonic(dom, data, p)
        bmask = dom.boundary_mask()
        lo, hi = data[bmask].min(), data[bmask].max()
        worst_mp = max(
            worst_mp,
            float(np.max(sol) - hi),
            float(lo - np.min(sol)),
        )
    rep.add("discrete_maximum_principle", worst_mp, 1e-9)

    worst = 0.0
    refine_pair = None
    for i in range(5):
        p = (2.5, 3.0, 4.0)[rng.integers(3)]
        params = Params(p, 2, 1.0)
        count = int(rng.integers(1, 4))
        ps = superpose.PoleSet(
            rng.uniform(0.3, 1.5, count), rng.uniform(-0.5, 0.5, (count, 2)), params
        )
        k = concave.QuadraticTerm(_nsd(*_nsd_draw(rng, 2)), b=rng.uniform(-0.5, 0.5, 2))
        report = comparison.comparison_check(ps, k, dom)
        worst = max(worst, -report.min_gap)
        if i == 0:
            coarse = comparison.GridDomain(
                bounds=dom.bounds, shape=tuple((m - 1) // 2 + 1 for m in dom.shape)
            )
            rep_coarse = comparison.comparison_check(ps, k, coarse)
            refine_pair = (max(0.0, -rep_coarse.min_gap), max(0.0, -report.min_gap))
    tol = report.tol
    rep.add("comparison_principle", worst, tol)
    # violations must not grow under refinement
    rep.add(
        "refinement_no_persistent_violation",
        refine_pair[1] - max(refine_pair[0], tol),
        0.0,
    )
    return rep


def _bracket_sign_change(f, lo, hi):
    """[lo, hi] narrowed to a sign change of f, a function vectorized over
    radii, until it is no wider than BRACKET_XTOL or holds no float inside.
    Each call of f takes BRACKET_RADII radii spread over the bracket, ends
    included; the first neighbours that differ in sign are the next bracket."""
    while hi - lo > BRACKET_XTOL and np.nextafter(lo, hi) < hi:
        r = np.linspace(lo, hi, BRACKET_RADII)
        s = np.sign(f(r))
        change = np.flatnonzero(s[:-1] != s[1:])
        if not change.size:
            raise ValueError(f"f does not change sign on [{lo!r}, {hi!r}]")
        lo, hi = r[change[0]], r[change[0] + 1]
    return lo, hi


def verify_evolution(seed=DEFAULT_SEED) -> SuiteReport:
    rng = np.random.default_rng(seed)
    rep = SuiteReport("evolution")

    kw = evolution.EvolutionKernel(evolution.HOMOGENEOUS, Params(3.0, 2, 1.0))
    offsets, times = [], []
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(y) < 0.1:
            continue
        offsets.append(y)
        times.append(rng.uniform(0.2, 5.0))
    g = evolution.two_bump_gradient(kw, offsets, np.zeros(2), times)
    rep.add("two_bump_gradient_symmetry", float(np.abs(g).max()), 1e-14)

    worst_defect = worst_radius = 0.0
    for p, n, big_c, t in ((3.0, 2, 1.0, 1.0), (4.0, 3, 2.0, 0.5)):
        kb = evolution.EvolutionKernel(
            evolution.BARENBLATT, Params(p, n, 1.0), big_c=big_c
        )
        radius = evolution.sign_change_radius(kb, t)
        support = evolution.support_radius(kb, t)
        points = []
        while len(points) < 50:
            r = float(rng.uniform(0.05 * support, 0.9 * support))
            if abs(r - radius) < 0.05 * support:
                continue  # the defect crosses zero there
            direction = rng.standard_normal(n)
            points.append(r * direction / np.linalg.norm(direction))
        for a in (0.5, 2.0):
            lhs = evolution.barenblatt_defect_fd(kb, a, points, t)
            rhs = evolution.barenblatt_defect(kb, a, points, t)
            worst_defect = max(worst_defect, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))

        def bt_fd(r):  # the FD B_t at radii r on the first axis
            x = np.multiply.outer(r, np.eye(n)[0])
            return evolution._time_difference(lambda s: evolution.kernel_value(kb, x, s), t)

        lo, hi = _bracket_sign_change(bt_fd, 0.05 * support, 0.99 * support)
        worst_radius = max(worst_radius, abs(0.5 * (lo + hi) - radius) / radius)
    rep.add("barenblatt_defect_identity", worst_defect, 1e-3)
    rep.add("sign_change_radius_bracketing", worst_radius, 0.01)

    kb = evolution.EvolutionKernel(evolution.BARENBLATT, Params(3.0, 2, 1.0))
    t = 1.0
    step = 1e-8
    r = evolution.support_radius(kb, t)
    inside, outside = evolution.kernel_value(kb, [[r - step, 0.0], [r + step, 0.0]], t)
    worst = 0.0 if (inside > 0.0 and outside == 0.0) else 1.0
    rep.add("support_radius_consistent", worst, 0.0)
    return rep


def run_suite(name, seed=DEFAULT_SEED):
    """Run one named suite (or 'all'); returns a list of SuiteReport."""
    # looked up at call time, so a suite patched on the module is the one run
    runners = {
        "superpose": verify_superpose,
        "concave": verify_concave,
        "comparison": verify_comparison,
        "evolution": verify_evolution,
    }
    names = SUITE_NAMES if name == "all" else (name,)
    return [runners[s](seed) for s in names]
