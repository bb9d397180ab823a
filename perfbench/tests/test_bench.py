"""Self-tests of the benchmark's input generator and output checker.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json

import numpy as np
import pytest

import check
import run
import workloads
import yardstick
from plap import cli


def run_op(op, tmp_path, name="op"):
    cfg = tmp_path / f"{name}.json"
    data = workloads.config_bytes(op)
    if data is not None:
        cfg.write_bytes(data)
    prefix = str(tmp_path / name)
    rc = cli.main(workloads.argv(op, str(cfg), prefix))
    return prefix, rc


def fail_frac(op, prefix, rc=0):
    items, failures = check.check_op(op, prefix, rc, {})
    return len(failures) / items, failures


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    def dump(seed):
        ops = workloads.make_pass(workload, seed) + [workloads.make_warmup(workload, seed)]
        return [workloads.config_bytes(op) or json.dumps(op).encode() for op in ops]

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.fixture
def eval_op():
    # p < n: every on-pole row must read +inf, so a clean run has no failure
    rng = np.random.default_rng(3)
    return {"kind": "eval", "config": workloads.eval_config(rng, 16, 3, 2.5, False)}


def test_clean_eval_rows_pass(eval_op, tmp_path):
    prefix, rc = run_op(eval_op, tmp_path)
    assert rc == 0
    assert fail_frac(eval_op, prefix) == (0.0, [])


@pytest.mark.parametrize("column", ["value", "grad_norm", "delta_p_direct", "delta_p_fd"])
def test_corrupted_eval_row_raises_fail_frac(eval_op, tmp_path, column):
    prefix, _ = run_op(eval_op, tmp_path)
    first_far = next(
        i for i, x in enumerate(eval_op["config"]["points"])
        if min(np.linalg.norm(np.subtract(x, pole["location"]))
               for pole in eval_op["config"]["poles"]) > 10 * workloads.FD_STEP)

    def corrupt(header, rows):
        j = header.index(column)
        rows[first_far][j] = repr(float(rows[first_far][j]) * 1.01)

    rewrite_csv(prefix + ".csv", corrupt)
    frac, failures = fail_frac(eval_op, prefix)
    assert frac == 1 / len(eval_op["config"]["points"])
    assert len(failures) == 1


def test_on_pole_inf_for_p_above_n_is_counted_as_known_defect(tmp_path):
    cfg = workloads.eval_config(np.random.default_rng(4), 16, 2, 3.0, True)
    op = {"kind": "eval", "config": cfg}
    prefix, _ = run_op(op, tmp_path)
    frac, failures = fail_frac(op, prefix)
    assert failures == [check.POLE_RULE_INF] * workloads.EVAL_ON_POINTS
    assert frac > 0


def test_failed_op_fails_every_item(eval_op, tmp_path):
    frac, _ = fail_frac(eval_op, str(tmp_path / "missing"), rc=1)
    assert frac == 1.0


@pytest.fixture
def compare_run(tmp_path):
    rng = np.random.default_rng(5)
    op = {"kind": "compare", "config": workloads.compare_2d_config(rng, 17, 3.0)}
    op["config"]["concave"] = {"kind": "quadratic", "a_matrix": [[-1.0, 0.0], [0.0, -0.5]]}
    prefix, rc = run_op(op, tmp_path)
    assert rc == 0
    return op, prefix


def test_clean_compare_passes(compare_run):
    op, prefix = compare_run
    assert fail_frac(op, prefix) == (0.0, [])


@pytest.mark.parametrize("field,value", [("violations", 1), ("min_gap", -1.0)])
def test_comparison_violation_raises_fail_frac(compare_run, field, value):
    op, prefix = compare_run
    with open(prefix + ".json") as fh:
        summary = json.load(fh)
    summary[field] = value
    with open(prefix + ".json", "w") as fh:
        json.dump(summary, fh)
    assert fail_frac(op, prefix)[0] == 1.0


def test_boundary_h_off_w_raises_fail_frac(compare_run):
    op, prefix = compare_run

    def corrupt(header, rows):
        rows[0][header.index("h")] = repr(float(rows[0][header.index("h")]) + 1e-3)

    rewrite_csv(prefix + ".csv", corrupt)
    assert fail_frac(op, prefix) == (1.0, ["boundary_h"])


def test_failed_verify_suite_raises_fail_frac(tmp_path):
    op = {"kind": "verify", "seed": 11, "suite": "evolution"}
    prefix, rc = run_op(op, tmp_path)
    assert rc == 0
    assert fail_frac(op, prefix)[0] == 0.0
    with open(prefix + ".json") as fh:
        report = json.load(fh)
    report["passed"] = False
    with open(prefix + ".json", "w") as fh:
        json.dump(report, fh)
    assert fail_frac(op, prefix) == (1.0, ["verify_failed"])


def timed_result(scale):
    passes = [{"lat": [2.0, 6.0], "yard": [1.0, 3.0, 1.0]},
              {"lat": [4.0, 3.0], "yard": [2.0, 2.0, 2.0]}]
    for p in passes:
        p["lat"] = [scale * t for t in p["lat"]]
        p["yard"] = [scale * t for t in p["yard"]]
    return {"passes": passes, "items_per_pass": 3, "peak_rss_kb": 2048}


def test_op_cost_is_latency_over_the_yardsticks_around_it():
    gated, seconds = run.end_to_end(timed_result(1.0), [0.5, 0.3, 0.4])
    # costs: pass 0 -> 2/2, 6/2; pass 1 -> 4/2, 3/2
    assert gated == {"setup_s": 0.4, "wall_rel": 1.5 + 2.25, "op_p50_rel": 1.75,
                     "peak_rss_mb": 2.0}
    assert seconds == {"wall_s": 3.0 + 4.5, "op_p50_s": 3.5, "items_per_s": 3 / 7.5,
                       "yardstick_s": 2.0}


def test_a_uniformly_slower_host_leaves_the_costs_unchanged():
    fast, _ = run.end_to_end(timed_result(1.0), [0.4])
    slow, seconds = run.end_to_end(timed_result(2.0), [0.4])
    assert slow == fast
    assert seconds["wall_s"] == 15.0


def test_yardstick_repeats_its_computation():
    stick = yardstick.Yardstick()
    assert 0.0 < stick.measure()
    assert 0.0 < stick.measure()
