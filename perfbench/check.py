"""Output checker: judges every item a workload produced against a numpy
reference written here, independently of plap.

An item is an eval row for ``plap eval`` and the whole op otherwise.  Each
check returns one failure reason per failed item.  ``POLE_RULE_INF`` marks
the one known defect at the time this benchmark was written (``plap eval``
writes +inf at a pole where p > n, although the potential extends
continuously there); it counts in ``failed`` like every other reason, but
it does not make a run incorrect.
"""

import csv
import json
import math
import os

import numpy as np

from workloads import FD_STEP, items_in

DIRECT_VS_CLOSED_TOL = 1e-10
FD_VS_CLOSED_TOL = 1e-4
SIGN_TOL = 1e-12
VALUE_RTOL = 1e-10
BOUNDARY_RTOL = 1e-9
MOLLIFIER_NODES = 16

POLE_RULE_INF = "on_pole_inf_for_p_gt_n"
KNOWN_DEFECTS = frozenset({POLE_RULE_INF})


# ---------------------------------------------------------------- reference

def _profile(p, n, c, r):
    """v, v', v'' of the fundamental solution at radii r > 0."""
    if p == n:
        v = -c * np.log(r)
    else:
        v = -c * (p - 1) / (p - n) * r ** ((p - n) / (p - 1))
    e = (1 - n) / (p - 1)
    return v, -c * r**e, -c * e * r ** (e - 1)


def _concave_value(term, x):
    """K at the points x (shape (m, n)); 0 for no term."""
    if term is None or term["kind"] == "zero":
        return np.zeros(len(x))
    if term["kind"] == "quadratic":
        a = np.asarray(term["a_matrix"], dtype=float)
        a = 0.5 * (a + a.T)
        b = np.asarray(term.get("b", np.zeros(len(a))), dtype=float)
        return 0.5 * np.einsum("mi,ij,mj->m", x, a, x) + x @ b + float(term.get("c0", 0.0))
    if term["kind"] == "affine_min":
        m = np.asarray(term["slopes"], dtype=float)
        q = np.asarray(term["offsets"], dtype=float)
        return np.min(x @ m.T + q, axis=-1)
    # mollified: tensor Gauss-Legendre nodes weighted by the normalized bump
    d = x.shape[1]
    z1, w1 = np.polynomial.legendre.leggauss(MOLLIFIER_NODES)
    z = np.stack(np.meshgrid(*([z1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    w = np.prod(np.stack(np.meshgrid(*([w1] * d), indexing="ij"), axis=-1).reshape(-1, d), axis=1)
    r2 = np.sum(z**2, axis=1)
    inside = r2 < 1.0
    z, w = z[inside], w[inside] * np.exp(-1.0 / (1.0 - r2[inside]))
    w /= w.sum()
    shifted = x[:, None, :] - float(term["delta"]) * z[None, :, :]
    base = _concave_value(term["base"], shifted.reshape(-1, d)).reshape(len(x), -1)
    return base @ w


def _quadratic_parts(term, x):
    """Gradient and Hessian of a quadratic K (zeros for no term)."""
    n = x.shape[1]
    if term is None:
        return np.zeros_like(x), np.zeros((n, n))
    a = np.asarray(term["a_matrix"], dtype=float)
    a = 0.5 * (a + a.T)
    b = np.asarray(term.get("b", np.zeros(n)), dtype=float)
    return x @ a + b, a


def _pole_terms(cfg, x):
    """Per-pole offsets, radii and v, v', v'' at points x (none on a pole)."""
    p, n = float(cfg["params"]["p"]), int(cfg["params"]["n"])
    c = float(cfg["params"].get("c", 1.0))
    y = np.array([pole["location"] for pole in cfg["poles"]], dtype=float)
    d = x[:, None, :] - y[None, :, :]
    r = np.linalg.norm(d, axis=-1)
    return (d, r) + _profile(p, n, c, r)


def _weights(cfg):
    return np.array([pole["weight"] for pole in cfg["poles"]], dtype=float)


def potential(cfg, x):
    """W = V + K at points x (none on a pole)."""
    v = _pole_terms(cfg, x)[2]
    return v @ _weights(cfg) + _concave_value(cfg.get("concave"), x)


def superposition(cfg, x):
    """Value, |grad|, value magnitude, gradient magnitude and the Delta_p
    scale yardstick of V + K (K quadratic or absent) at points x."""
    p, n = float(cfg["params"]["p"]), int(cfg["params"]["n"])
    a = _weights(cfg)
    d, r, v, dv, ddv = _pole_terms(cfg, x)
    term = cfg.get("concave")
    k = _concave_value(term, x)
    kg, kh = _quadratic_parts(term, x)
    grad = np.einsum("i,mi,mij->mj", a, dv / r, d) + kg
    gn = np.linalg.norm(grad, axis=1)
    total = ((n + abs(p - 2)) * (np.abs(ddv) + np.abs(dv) / r)) @ a
    total = np.maximum(total + (1 + abs(p - 2)) * np.abs(kh).sum(), 1e-300)
    if p == 2:
        scale = total
    else:
        eps = 1e-12 * max(1.0, float(a.sum()))
        scale = np.where(gn < eps, 1e-300, np.maximum(gn, eps) ** (p - 2) * total)
    mag_v = np.abs(v) @ a + np.abs(k)
    mag_g = np.abs(dv) @ a + np.linalg.norm(kg, axis=1)
    return v @ a + k, gn, mag_v, mag_g, scale


def on_pole_value(cfg, j):
    """The value the README rule gives at pole j: +inf for 2 <= p <= n, the
    continuous extension (pole j contributes its limit 0) for p > n."""
    p, n = float(cfg["params"]["p"]), int(cfg["params"]["n"])
    if p <= n:
        return math.inf
    others = dict(cfg, poles=[q for i, q in enumerate(cfg["poles"]) if i != j])
    y = np.array([cfg["poles"][j]["location"]], dtype=float)
    if not others["poles"]:
        return float(_concave_value(cfg.get("concave"), y)[0])
    return float(potential(others, y)[0])


def sign_bound(p, n):
    """+1 if Delta_p V <= 0 is the rule for (p, n), -1 if >= 0, 0 if == 0."""
    if p == 2 or n == 1 or p + n == 2:
        return 0
    return 1 if -(p - 2) * (p + n - 2) / (p - 1) < 0 else -1


def _rel(a, b, scale):
    return abs(a - b) / max(abs(a), abs(b), scale)


# ------------------------------------------------------------------- checks

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_eval(cfg, header, rows, accuracy):
    """One failure reason per failed eval row; ``accuracy`` (a dict)
    collects the worst route residuals seen."""
    p, n = float(cfg["params"]["p"]), int(cfg["params"]["n"])
    points = np.array(cfg["points"], dtype=float)
    if len(rows) != len(points):
        return ["missing_row"] * len(points)
    col = {name: i for i, name in enumerate(header)}
    y = np.array([pole["location"] for pole in cfg["poles"]], dtype=float)
    dist = np.linalg.norm(points[:, None, :] - y[None, :, :], axis=-1)
    off_pole = dist.min(axis=1) > 0
    ref = np.full((5, len(points)), np.nan)
    ref[:, off_pole] = superposition(cfg, points[off_pole])
    value, gn, mag_v, mag_g, scale = ref
    pure = cfg.get("concave") is None
    sign = sign_bound(p, n)
    failures = []
    for i, row in enumerate(rows):
        try:
            x = [float(row[col[f"x{j}"]]) for j in range(n)]
            val, g, direct, closed, fd = (
                float(row[col[k]])
                for k in ("value", "grad_norm", "delta_p_direct", "delta_p_closed_form", "delta_p_fd")
            )
        except (KeyError, IndexError, ValueError):
            failures.append("unparseable_row")
            continue
        if x != list(points[i]):
            failures.append("row_point_mismatch")
            continue
        if not off_pole[i]:
            want = on_pole_value(cfg, int(np.argmin(dist[i])))
            if math.isinf(want):
                ok = val == math.inf
            else:
                ok = math.isfinite(val) and abs(val - want) <= VALUE_RTOL * max(abs(want), 1.0)
            if not ok:
                failures.append(POLE_RULE_INF if val == math.inf else "on_pole_value")
            continue
        if not abs(val - value[i]) <= VALUE_RTOL * mag_v[i]:
            failures.append("value")
            continue
        if dist[i].min() <= 10 * FD_STEP:
            continue  # near-pole rows carry the value only
        if not abs(g - gn[i]) <= VALUE_RTOL * mag_g[i]:
            failures.append("grad_norm")
            continue
        s = scale[i]
        if pure:
            dc, fc = _rel(direct, closed, s), _rel(fd, closed, s)
            accuracy["worst_direct_vs_closed"] = max(accuracy.get("worst_direct_vs_closed", 0.0), dc)
            accuracy["worst_fd_vs_closed"] = max(accuracy.get("worst_fd_vs_closed", 0.0), fc)
            if not dc <= DIRECT_VS_CLOSED_TOL:
                failures.append("direct_vs_closed")
            elif not fc <= FD_VS_CLOSED_TOL:
                failures.append("fd_vs_closed")
            elif not (sign * closed if sign else abs(closed)) / s <= SIGN_TOL:
                failures.append("sign")
        elif not math.isnan(closed):
            failures.append("closed_form_with_k")
        elif not _rel(direct, fd, s) <= FD_VS_CLOSED_TOL:
            failures.append("direct_vs_fd")
    return failures


def _grid_nodes(grid):
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(grid["bounds"], grid["shape"])]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def check_compare(cfg, summary, header, rows):
    """Failure reasons of one ``plap compare`` op (empty when it passed)."""
    reasons = []
    if summary.get("violations") != 0:
        reasons.append("violations")
    if not summary.get("min_gap", -math.inf) >= -float(cfg["tol"]):
        reasons.append("min_gap")
    nodes = _grid_nodes(cfg["grid"])
    dim = nodes.shape[1]
    try:
        cols = [header.index(name) for name in [f"x{j}" for j in range(dim)] + ["w", "h"]]
        table = np.array([[float(row[j]) for j in cols] for row in rows])
    except (ValueError, IndexError):
        return reasons + ["unparseable_rows"]
    if table.shape != (len(nodes), dim + 2) or not np.array_equal(table[:, :dim], nodes):
        return reasons + ["grid_mismatch"]
    lo = np.array([b[0] for b in cfg["grid"]["bounds"]])
    hi = np.array([b[1] for b in cfg["grid"]["bounds"]])
    boundary = np.any((nodes == lo) | (nodes == hi), axis=1)
    shift = float(cfg.get("shift", 0.0))
    w_ref = potential(cfg, nodes[boundary])
    w, h = table[boundary, dim], table[boundary, dim + 1]
    tol = BOUNDARY_RTOL * np.maximum(np.abs(w_ref), 1.0)
    if not np.all(np.abs(h - (w_ref + shift)) <= tol):
        reasons.append("boundary_h")
    if not np.all(np.abs(w - w_ref) <= tol):
        reasons.append("boundary_w")
    return reasons


def check_verify(report):
    return [] if report.get("passed") is True else ["verify_failed"]


# ---------------------------------------------------------------- per run

def check_op(op, out_prefix, returncode, accuracy):
    """(items, failure reasons) of one executed op.

    A non-zero exit or a missing output fails every item of the op."""
    items = items_in(op)
    if returncode != 0:
        return items, [f"exit_{returncode}"] * items
    try:
        if op["kind"] == "eval":
            header, rows = read_csv(out_prefix + ".csv")
            return items, check_eval(op["config"], header, rows, accuracy)
        if op["kind"] == "compare":
            with open(out_prefix + ".json") as fh:
                summary = json.load(fh)
            header, rows = read_csv(out_prefix + ".csv")
            min_gap = summary.get("min_gap")
            if isinstance(min_gap, float):
                accuracy["min_gap_min"] = min(accuracy.get("min_gap_min", math.inf), min_gap)
            return items, check_compare(op["config"], summary, header, rows)[:1]  # one item
        with open(out_prefix + ".json") as fh:
            return items, check_verify(json.load(fh))
    except (OSError, json.JSONDecodeError):
        return items, ["missing_output"] * items


def check_run(ops, executed, out_dir):
    """Check every executed op.  ``executed`` lists (pass, op index, exit
    code).  Returns attempted items, a reason -> count map and accuracy."""
    attempted = 0
    reasons = {}
    accuracy = {}
    for pass_no, i, rc in executed:
        items, failed = check_op(ops[i], os.path.join(out_dir, f"p{pass_no}-o{i}"), rc, accuracy)
        attempted += items
        for reason in failed:
            reasons[reason] = reasons.get(reason, 0) + 1
    return attempted, reasons, accuracy
