"""Randomized invariant suites, shared between the CLI ``verify`` command
and the test suite.  Each check reports its worst residual; a suite passes
when every check does.

These suites are the only implementation of the randomized checks: the
release criteria in ``tests/test_acceptance.py`` call them.  The superpose
and concave suites draw 1-8 poles (1-5 in the concave suite) with weights in
[0.1, 2] and locations in [-1, 1]^n, and query points in [-2, 2]^n at least
``MIN_POLE_DISTANCE`` from every pole."""

import functools
import logging
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import comparison, concave, evolution, superpose
from .core import Params, _power, axis_norm
from .errors import PlapError

DEFAULT_SEED = 20160118
SUITE_NAMES = ("superpose", "concave", "comparison", "evolution")
# run_suite("all") runs these in a forked child beside the others where it
# can; per seed, the seconds each process logs at DEBUG on 2 cores: comparison
# 33-38 ms in the child against superpose 14 + concave 13.5 + evolution 7 ms
# in the parent
FORKED_SUITES = ("comparison",)
DRAWS = 200                 # of the superpose suite
TRIALS = 100                # per check of the concave suite
MIN_POLE_DISTANCE = 0.05    # of a query point from every pole
BRACKET_RADII = 33          # per call of the function whose sign change is bracketed
BRACKET_XTOL = 2e-12        # the bracket's final width, brentq's default xtol

log = logging.getLogger(__name__)


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


@functools.cache
def _params(p, n):
    """The ``Params`` of a drawn (p, n), c = 1, built once."""
    return Params(p, n, 1.0)


def _pole_draws(rng, size, n, max_poles):
    """The pole counts (size,) in [1, max_poles], weights (size, max_poles)
    in [0.1, 2] and locations (size, max_poles, n) in [-1, 1]^n of ``size``
    pole sets: set b is the first counts[b] poles of row b, in the first
    coordinates of its own dimension."""
    counts = rng.integers(1, max_poles + 1, size)
    weights = rng.uniform(0.1, 2.0, (size, max_poles))
    return counts, weights, rng.uniform(-1.0, 1.0, (size, max_poles, n))


def _points_away(rng, locations, counts, dims, per_row):
    """Points (B, per_row, N) in [-2, 2]^N for the pole sets of
    ``_pole_draws``, locations (B, m, N): row b's points are at least
    ``MIN_POLE_DISTANCE`` from its first counts[b] poles in its first
    dims[b] coordinates, as ``superpose.pole_distance`` measures it (the
    other coordinates are zeroed on both sides, which adds exact zeros to
    each squared norm).  The points still owed are drawn again in one call
    per round, in row order."""
    size, m, n = locations.shape
    kept = np.arange(n) < dims[:, None, None]
    poles = np.where(kept, locations, 0.0)[:, None]
    real = np.arange(m) < counts[:, None, None]
    points = rng.uniform(-2.0, 2.0, (size, per_row, n))
    while True:
        d = axis_norm(np.where(kept, points, 0.0)[:, :, None] - poles)
        near = ((d < MIN_POLE_DISTANCE) & real).any(axis=-1)
        if not near.any():
            return points
        points[near] = rng.uniform(-2.0, 2.0, (int(near.sum()), n))


def _classes(*keys):
    """(combination, rows) for each distinct combination of the values of
    ``keys``, arrays of one length, in sorted order."""
    combos, inverse = np.unique(np.stack(keys, axis=-1), axis=0, return_inverse=True)
    return [(tuple(c.tolist()), np.flatnonzero(inverse.ravel() == i)) for i, c in enumerate(combos)]


def _stack(p, n, counts, weights, locations):
    """The stacked pole sets whose row b holds the first counts[b] poles of
    weights[b] and locations[b] in their first n coordinates, with p[b] and
    c = 1.  Weights and locations drawn from continuous distributions are
    neither 0 nor equal, so the rows are merged sets as drawn."""
    m = counts.max()
    return superpose.PoleSet._from_rows(weights[:, :m], locations[:, :m, :n], counts,
                                        _params(float(p[0]), n), p)


def _worst(parts, floor=0.0):
    """The largest of ``floor`` and every value in ``parts``, numbers or
    arrays; a NaN anywhere is the result, so a NaN residual fails its
    check.  A zero is +0.0 whichever signed zero np.max picks among ties."""
    return float(np.concatenate([[floor], *map(np.ravel, parts)]).max()) + 0.0


def _rel(a, b, scale):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)


def _derived_stacks(base, q, shift, s):
    """The stacked pole sets ``base`` moved by the rotations q (B, n, n) and
    shifts (B, n), with their weights scaled by s (B,), and reduced to their
    first pole, each built from ``base``'s arrays as ``PoleSet`` would build
    them from one set's."""
    def build(weights, locations, counts):
        return superpose.PoleSet._from_rows(weights, locations, counts, base.params, base.p)

    moved = base.locations @ q.mT + shift[:, None, :]
    return (
        build(base.weights, moved, base.counts),
        build(s[:, None] * base.weights, base.locations, base.counts),
        build(base.weights[:, :1], base.locations[:, :1], np.ones_like(base.counts)),
    )


def verify_superpose(seed=DEFAULT_SEED) -> SuiteReport:
    """DRAWS draws, each of p, n, a pole set, a point, a rotation, a shift
    and a weight factor s.  Each kind is drawn for every draw in one
    generator call, the vectors and matrices with 5 coordinates of which a
    draw keeps its first n, and the points in the rounds of their rejection
    test.  The routes then run once per dimension n on the stacked sets of
    its draws, each row with its own p."""
    rng = np.random.default_rng(seed)
    p = np.array([2.0, 2.5, 3.0, 4.0])[rng.integers(4, size=DRAWS)]
    n = np.array([2, 3, 5])[rng.integers(3, size=DRAWS)]
    counts, weights, locations = _pole_draws(rng, DRAWS, 5, max_poles=8)
    # isometry: the rotation from the QR of g, then a translation
    g = rng.standard_normal((DRAWS, 5, 5))
    shift = rng.uniform(-1.0, 1.0, (DRAWS, 5))
    s = rng.uniform(0.5, 3.0, DRAWS)
    x = _points_away(rng, locations, counts, n, 1)[:, 0]

    rep = SuiteReport("superpose")
    dc, fd, sign, iso, scal, null = ([] for _ in range(6))
    for (dim,), rows in _classes(n):
        base = _stack(p[rows], dim, counts[rows], weights[rows], locations[rows])
        xs, sh, ss = x[rows, :dim], shift[rows, :dim], s[rows]
        q = np.linalg.qr(g[rows, :dim, :dim])[0]
        moved, scaled, single = _derived_stacks(base, q, sh, ss)
        x_moved = (q @ xs[..., None])[..., 0] + sh
        res = superpose.evaluate(base, None, xs)
        c = superpose.delta_p_closed_form(res)
        scale = superpose.delta_p_scale(res)
        dc.append(_rel(superpose.delta_p_direct(res), c, scale))
        fd.append(_rel(superpose.delta_p_fd(base, None, xs), c, scale))
        # the part of the closed form on the wrong side of its row's sign class
        region = superpose.sign_classes(base.p, dim)
        wrong = np.where(region == superpose.SignClass.NON_POSITIVE.value, c,
                         np.where(region == superpose.SignClass.NON_NEGATIVE.value, -c, np.abs(c)))
        sign.append(wrong / np.maximum(scale, 1e-300))

        c_moved, c_scaled, c_single = (
            superpose.delta_p_closed_form(superpose.evaluate(ps, None, z))
            for ps, z in ((moved, x_moved), (scaled, xs), (single, xs))
        )
        iso.append(_rel(c_moved, c, scale))
        # weight scaling: a -> s a multiplies the closed form by s^(p-1)
        factor = _power(ss, base.p - 1)
        scal.append(_rel(c_scaled, factor * c, factor * scale))
        null.append(np.abs(c_single))

    rep.add("three_way_direct_vs_closed", _worst(dc), 1e-10)
    rep.add("three_way_fd_vs_closed", _worst(fd), 1e-4)
    rep.add("sign_soundness", _worst(sign), 1e-12)
    rep.add("isometry_equivariance", _worst(iso), 1e-12)
    rep.add("weight_scaling", _worst(scal), 1e-11)
    rep.add("single_pole_nullity", _worst(null), 0.0)
    return rep


def _nsd_draw(rng, n, size=()):
    """The draws of negative semidefinite n x n matrices, one per index of
    ``size``: Gaussian matrices (*size, n, n) for their eigenvectors and
    their eigenvalues (*size, n)."""
    return rng.standard_normal((*size, n, n)), -rng.uniform(0.0, 3.0, (*size, n))


def _nsd(g, lam):
    """Q diag(lam) Q^T with Q from the QR of g, for stacks g (..., n, n)
    and lam (..., n)."""
    q = np.linalg.qr(g)[0]
    return (q * lam[..., None, :]) @ q.mT


def verify_concave(seed=DEFAULT_SEED) -> SuiteReport:
    """Each check draws its TRIALS trials as ``verify_superpose`` draws:
    each kind of value in one generator call, with the most coordinates a
    trial can have (5 for the matrix checks, 3 for V + K), of which a trial
    keeps its first n.  Its matrices are then built and checked per size n,
    and V + K per (n, pole count) class, each row with its own p."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport("concave")

    n = rng.integers(2, 6, TRIALS)
    p = rng.uniform(2.01, 8.0, TRIALS)
    g, lam = _nsd_draw(rng, 5, (TRIALS,))
    missed = []
    for (dim,), rows in _classes(n):
        h = _nsd(g[rows, :dim, :dim], lam[rows, :dim])
        missed.append(concave.criterion_sum(h, p[rows])[~concave.eigenvalue_criterion(h, p[rows])])
    rep.add("concavity_implies_criterion", _worst(missed), 1e-12)

    n = rng.integers(2, 6, TRIALS)
    p = rng.uniform(2.01, 6.0, TRIALS)
    a = rng.standard_normal((TRIALS, 5, 5))
    xi = rng.standard_normal((TRIALS, 10, 5))
    terms = []
    for (dim,), rows in _classes(n):
        m = a[rows, :dim, :dim]
        h = 0.5 * (m + m.mT)
        # only a matrix that meets the criterion is checked; h is symmetric
        # and p > 2 by construction, so this is eigenvalue_criterion without
        # its checks
        met = concave.criterion_sum(h, p[rows]) <= concave.CRITERION_SLACK
        terms.append(concave.operator_term(h[met][:, None], p[rows][met][:, None],
                                           xi[rows][met][..., :dim]))
    rep.add("criterion_implies_sign", _worst(terms), 1e-12)

    p = np.array([2.5, 3.0, 4.0])[rng.integers(3, size=TRIALS)]
    n = np.array([2, 3])[rng.integers(2, size=TRIALS)]
    counts, weights, locations = _pole_draws(rng, TRIALS, 3, max_poles=5)
    g, lam = _nsd_draw(rng, 3, (TRIALS,))
    b, c0 = rng.uniform(-1.0, 1.0, (TRIALS, 3)), rng.uniform(-1.0, 1.0, TRIALS)
    x = _points_away(rng, locations, counts, n, 5)
    signs = []
    # one evaluation per (n, pole count): no row is padded, so each rounds as alone
    for (dim, _), rows in _classes(n, counts):
        ps = _stack(p[rows], dim, counts[rows], weights[rows], locations[rows])
        k = concave.QuadraticTerm(_nsd(g[rows, :dim, :dim], lam[rows, :dim]),
                                  b=b[rows, :dim], c0=c0[rows])
        signs.append(superpose.delta_p_direct(
            superpose.evaluate(ps, k, x[rows, :, :dim].swapaxes(0, 1))))
    # the largest value of Δ_p(V + K) itself, so its margin shows
    rep.add("concave_superposition_sign", _worst(signs, floor=-np.inf), 1e-10)

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
    rep.add("mollification_sup_shrinks", _worst([np.divide(sups[1:], sups[:-1])]), 0.99)

    mol = concave.MollifiedTerm(concave.QuadraticTerm(_nsd(*_nsd_draw(rng, 2))), 0.2)
    _, _, h = mol.eval(box[::5])
    rep.add("mollified_hessian_nsd", _worst([np.linalg.eigvalsh(h)[:, -1]]), 1e-10)
    return rep


def verify_comparison(seed=DEFAULT_SEED) -> SuiteReport:
    rng = np.random.default_rng(seed)
    rep = SuiteReport("comparison")
    dom = comparison.GridDomain(bounds=[(-1, 1), (-1, 1)], shape=(33, 33))

    excess = []
    nodes_xy = dom.nodes()
    for p in (2.0, 3.0, 4.0):
        data = np.sin(2 * nodes_xy[..., 0]) + 0.5 * np.cos(3 * nodes_xy[..., 1])
        sol = comparison.solve_p_harmonic(dom, data, p)
        bmask = dom.boundary_mask()
        lo, hi = data[bmask].min(), data[bmask].max()
        excess.append([np.max(sol) - hi, lo - np.min(sol)])
    rep.add("discrete_maximum_principle", _worst(excess), 1e-9)

    gaps = []
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
        gaps.append(-report.min_gap)
        if i == 0:
            coarse = comparison.GridDomain(
                bounds=dom.bounds, shape=tuple((m - 1) // 2 + 1 for m in dom.shape)
            )
            rep_coarse = comparison.comparison_check(ps, k, coarse)
            refine_pair = (_worst([-rep_coarse.min_gap]), _worst([-report.min_gap]))
    tol = report.tol
    rep.add("comparison_principle", _worst(gaps), tol)
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
        if axis_norm(y) < 0.1:
            continue
        offsets.append(y)
        times.append(rng.uniform(0.2, 5.0))
    g = evolution.two_bump_gradient(kw, offsets, np.zeros(2), times)
    rep.add("two_bump_gradient_symmetry", float(np.abs(g).max()), 1e-14)

    defects, radii = [], []
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
            points.append(r * direction / axis_norm(direction))
        for a in (0.5, 2.0):
            lhs = evolution.barenblatt_defect_fd(kb, a, points, t)
            rhs = evolution.barenblatt_defect(kb, a, points, t)
            defects.append(np.abs(lhs - rhs) / np.abs(rhs))

        def bt_fd(r):  # the FD B_t at radii r on the first axis
            x = np.multiply.outer(r, np.eye(n)[0])
            return evolution._time_difference(lambda s: evolution.kernel_value(kb, x, s), t)

        lo, hi = _bracket_sign_change(bt_fd, 0.05 * support, 0.99 * support)
        radii.append(abs(0.5 * (lo + hi) - radius) / radius)
    rep.add("barenblatt_defect_identity", _worst(defects), 1e-3)
    rep.add("sign_change_radius_bracketing", _worst(radii), 0.01)

    kb = evolution.EvolutionKernel(evolution.BARENBLATT, Params(3.0, 2, 1.0))
    t = 1.0
    step = 1e-8
    r = evolution.support_radius(kb, t)
    inside, outside = evolution.kernel_value(kb, [[r - step, 0.0], [r + step, 0.0]], t)
    worst = 0.0 if (inside > 0.0 and outside == 0.0) else 1.0
    rep.add("support_radius_consistent", worst, 0.0)
    return rep


def _timed(runners, suites, seed):
    """{suite: (report, seconds)} of each suite run in turn at ``seed``."""
    out = {}
    for suite in suites:
        start = time.perf_counter()
        out[suite] = (runners[suite](seed), time.perf_counter() - start)
    return out


def _can_fork():
    """Whether a forked child can run beside this process: it may run on
    more than one CPU (Linux's sched_getaffinity), and it has no other
    Python thread, whose locks a fork could copy held."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) > 1 and threading.active_count() == 1


def _forked(runners, seed):
    """_timed of every suite, FORKED_SUITES run in a forked child while this
    process runs the others.  The child sends its results, or the exception
    it raised, as one pickle through a pipe and ends with os._exit; the child
    is reaped before this returns or raises, and killed first if this
    process's own suites raise."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = _timed(runners, FORKED_SUITES, seed)
            except BaseException as exc:  # raised again in the parent
                result = exc
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        finally:
            # no atexit handlers and no flush of buffers copied from the parent
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            here = _timed(runners, [s for s in SUITE_NAMES if s not in FORKED_SUITES], seed)
            data = fh.read()
    except BaseException:
        import signal  # only on this path, so start-up does not load it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        ended = f"exit status {status}" if status > 0 else f"signal {-status}"
        raise PlapError(f"the forked suites {', '.join(FORKED_SUITES)} ended "
                        f"without a report ({ended})")
    # bytes this function's own child wrote
    result = pickle.loads(data)
    if isinstance(result, BaseException):
        raise result
    return {**here, **result}


def run_suite(name, seed=DEFAULT_SEED):
    """Run one named suite (or 'all'); returns a list of SuiteReport in
    SUITE_NAMES order and logs each suite's seconds at DEBUG.  An unknown
    name raises ValueError before any suite runs.

    'all' runs FORKED_SUITES in a forked child beside the other suites where
    the process may run on more than one CPU and has no other Python thread
    (Linux only); elsewhere, or pinned to one CPU (``taskset -c 0``), the
    suites run one after another.  Each suite draws from its own generator
    and shares no state with the others, so both paths give the same
    reports; each suite's seconds are measured in the process that ran it."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}: expected one of {SUITE_NAMES + ('all',)}")
    # looked up at call time, so a suite patched on the module is the one run
    runners = {
        "superpose": verify_superpose,
        "concave": verify_concave,
        "comparison": verify_comparison,
        "evolution": verify_evolution,
    }
    suites = SUITE_NAMES if name == "all" else (name,)
    if name == "all" and _can_fork():
        timed = _forked(runners, seed)
    else:
        timed = _timed(runners, suites, seed)
    log.debug("verify stages (s): %s",
              ", ".join(f"{suite} {timed[suite][1]:.4f}" for suite in suites))
    return [timed[suite][0] for suite in suites]
