"""Seeded input generators for the benchmark workloads (three gated, compare-3d by hand).

A workload turns a seed into one *pass*: a fixed list of ``plap`` CLI
operations whose configs are generated here and written as JSON.  The same
seed always gives byte-identical configs.  Each pass is stratified (every
size class appears in it a fixed number of times) so that the work in a
pass barely depends on the seed; only positions, weights and the random
draws inside a size class change.
"""

import json

import numpy as np

EVAL_POLE_COUNTS = (16, 64, 256)
EVAL_DIMS = (2, 3)
EVAL_MEDIAN_CLASS = (64, 3)
EVAL_PS = (2.5, 3.0, 4.0)
EVAL_FAR_POINTS = 20
EVAL_NEAR_POINTS = 2
EVAL_ON_POINTS = 2
FAR_MARGIN = 0.3            # same margin as ``plap verify``
FD_STEP = 1e-4              # the CLI default; near-pole means within 10 * FD_STEP

# (grid nodes per axis, p) for each op of a pass; the small grids are the
# majority so that the per-op median falls inside one size class and rests
# on several ops, and two passes of compare-3d fit in a run.
COMPARE_3D_OPS = ((17, 3.5), (17, 4.0)) * 4 + ((21, 4.0),)
COMPARE_2D_OPS = ((33, 3.0), (33, 4.0), (33, 2.5), (33, 3.0), (33, 4.0), (65, 3.0))
VERIFY_OPS = 12
BASE_TOL = 1e-3             # comparison tolerance at spacing 1/32, scaled as h^2

WORKLOAD_IDS = {"eval-poles": 1, "compare-3d": 2, "compare-2d-mollified": 3, "verify-all": 4}
WORKLOADS = tuple(WORKLOAD_IDS)


def _nsd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * -rng.uniform(0.0, 3.0, n)) @ q.T
    return 0.5 * (a + a.T)


def _poles(rng, count, n, weight_range, radius):
    """``count`` poles with |y| <= radius (radius None: the cube [-1, 1]^n)."""
    weights = rng.uniform(*weight_range, count)
    if radius is None:
        locations = rng.uniform(-1.0, 1.0, (count, n))
    else:
        locations = np.empty((count, n))
        for i in range(count):
            while True:
                y = rng.uniform(-radius, radius, n)
                if np.linalg.norm(y) <= radius:
                    locations[i] = y
                    break
    return [
        {"weight": float(w), "location": [float(c) for c in y]}
        for w, y in zip(weights, locations)
    ]


def _eval_points(rng, locations):
    n = locations.shape[1]
    far = []
    while len(far) < EVAL_FAR_POINTS:
        x = rng.uniform(-2.5, 2.5, n)
        if np.min(np.linalg.norm(x[None, :] - locations, axis=1)) >= FAR_MARGIN:
            far.append(x)
    near = []
    for _ in range(EVAL_NEAR_POINTS):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        y = locations[rng.integers(len(locations))]
        near.append(y + rng.uniform(0.2, 0.8) * 10 * FD_STEP * u)
    on = [locations[rng.integers(len(locations))] for _ in range(EVAL_ON_POINTS)]
    points = far + near + on
    return [[float(c) for c in points[i]] for i in rng.permutation(len(points))]


def eval_config(rng, count, n, p, with_k):
    poles = _poles(rng, count, n, (0.2, 2.0), None)
    cfg = {"schema_version": 1, "params": {"p": p, "n": n}, "poles": poles}
    if with_k:
        cfg["concave"] = {
            "kind": "quadratic",
            "a_matrix": _nsd(rng, n).tolist(),
            "b": rng.uniform(-0.5, 0.5, n).tolist(),
            "c0": float(rng.uniform(-1.0, 1.0)),
        }
    locations = np.array([pole["location"] for pole in poles])
    cfg["points"] = _eval_points(rng, locations)
    return cfg


def _compare_tol(shape):
    h = 2.0 / (shape - 1)
    return BASE_TOL * (h / (1 / 32)) ** 2


def compare_3d_config(rng, shape, p):
    count = int(rng.integers(1, 4))
    return {
        "schema_version": 1,
        "params": {"p": p, "n": 3},
        "poles": _poles(rng, count, 3, (0.3, 1.5), 0.5),
        "concave": {
            "kind": "quadratic",
            "a_matrix": _nsd(rng, 3).tolist(),
            "b": rng.uniform(-0.5, 0.5, 3).tolist(),
        },
        "grid": {"bounds": [[-1.0, 1.0]] * 3, "shape": [shape] * 3},
        "tol": _compare_tol(shape),
    }


def compare_2d_config(rng, shape, p):
    count = int(rng.integers(1, 4))
    pieces = 3
    return {
        "schema_version": 1,
        "params": {"p": p, "n": 2},
        "poles": _poles(rng, count, 2, (0.3, 1.5), 0.5),
        "concave": {
            "kind": "mollified",
            "delta": float(rng.uniform(0.1, 0.3)),
            "base": {
                "kind": "affine_min",
                "slopes": rng.uniform(-1.0, 1.0, (pieces, 2)).tolist(),
                "offsets": rng.uniform(-0.3, 0.3, pieces).tolist(),
            },
        },
        "grid": {"bounds": [[-1.0, 1.0]] * 2, "shape": [shape] * 2},
        "tol": _compare_tol(shape),
    }


def _eval_ops(rng):
    """Per (pole count, n): one pure op for each p and one op with a
    quadratic K, so about a quarter of the ops carry K.  An op costs about
    poles x (3 + 2n); the middle class EVAL_MEDIAN_CLASS has its pure ops
    twice, so that the median op of a pass falls inside that class and not
    on the step between two classes."""
    combos = []
    for ci, count in enumerate(EVAL_POLE_COUNTS):
        for ni, n in enumerate(EVAL_DIMS):
            reps = 2 if (count, n) == EVAL_MEDIAN_CLASS else 1
            combos += [(count, n, p, False) for p in EVAL_PS] * reps
            combos.append((count, n, EVAL_PS[(2 * ci + ni) % len(EVAL_PS)], True))
    return [{"kind": "eval", "config": eval_config(rng, *combos[i])}
            for i in rng.permutation(len(combos))]


def _verify_ops(rng):
    seeds = rng.integers(0, 2**31 - 1, VERIFY_OPS)
    return [{"kind": "verify", "seed": int(s)} for s in seeds]


def make_pass(workload, seed):
    """The list of operations of one pass of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    if workload == "eval-poles":
        return _eval_ops(rng)
    if workload == "compare-3d":
        return [{"kind": "compare", "config": compare_3d_config(rng, m, p)} for m, p in COMPARE_3D_OPS]
    if workload == "compare-2d-mollified":
        return [{"kind": "compare", "config": compare_2d_config(rng, m, p)} for m, p in COMPARE_2D_OPS]
    return _verify_ops(rng)


def make_warmup(workload, seed):
    """One small untimed op that touches the workload's lazy costs (imports,
    caches) so that they land in set-up rather than in the first timed op."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], 1])
    if workload == "eval-poles":
        cfg = eval_config(rng, 16, 2, 3.0, True)
        cfg["points"] = cfg["points"][:4]
        return {"kind": "eval", "config": cfg}
    if workload.startswith("compare-"):
        make, n = (compare_3d_config, 3) if workload == "compare-3d" else (compare_2d_config, 2)
        cfg = make(rng, 9, 4.0)
        # one central pole: on the coarsest grid the excision ball is 3 spacings wide
        cfg["poles"] = [{"weight": 1.0, "location": [0.0] * n}]
        return {"kind": "compare", "config": cfg}
    return {"kind": "verify", "seed": int(rng.integers(0, 2**31 - 1)), "suite": "evolution"}


def config_bytes(op):
    """Canonical serialization of an op's config (None for ``verify``)."""
    if "config" not in op:
        return None
    return (json.dumps(op["config"], sort_keys=True) + "\n").encode()


def items_in(op):
    """Items an op produces for ``fail_frac``: eval rows, else the op itself."""
    return len(op["config"]["points"]) if op["kind"] == "eval" else 1


def argv(op, cfg_path, out_prefix):
    """``plap`` argument vector of ``op``; outputs go to ``out_prefix``.*."""
    if op["kind"] == "eval":
        return ["eval", "--config", cfg_path, "--out", out_prefix + ".csv"]
    if op["kind"] == "compare":
        return ["compare", "--config", cfg_path, "--out", out_prefix + ".csv",
                "--summary", out_prefix + ".json"]
    return ["verify", "--suite", op.get("suite", "all"), "--seed", str(op["seed"]),
            "--out", out_prefix + ".json"]
