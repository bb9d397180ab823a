"""End-to-end command-line tests via the console entry point."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from plap import Params, PoleSet, cli, comparison, delta_p_scale, evaluate, verify
from plap.errors import SolverFailureError
from plap.schemas import SCHEMAS

CLI = [sys.executable, "-m", "plap.cli"]


def run(*args, env=None):
    # env=None inherits the caller's environment, so the child finds plap
    # through PYTHONPATH or an install, like the test process did.
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def write_json(path, obj):
    path.write_text(json.dumps(obj))


EVAL_CFG = {
    "schema_version": 1,
    "params": {"p": 3.0, "n": 2},
    "poles": [
        {"weight": 1.0, "location": [0.5, 0.0]},
        {"weight": 2.0, "location": [-0.5, 0.25]},
    ],
    "points": [[0.1, 0.2], [1.5, -0.8], [0.5, 0.0]],
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_eval_csv(tmp_path):
    cfg = tmp_path / "eval.json"
    out = tmp_path / "out.csv"
    write_json(cfg, EVAL_CFG)
    res = run("eval", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    header = rows[0]
    assert header[:2] == ["x0", "x1"]
    assert "delta_p_direct" in header and "delta_p_closed_form" in header
    assert len(rows) == 1 + 3
    i_dir = header.index("delta_p_direct")
    i_cf = header.index("delta_p_closed_form")
    # regular point: the two analytic routes agree to high precision
    a, b = float(rows[1][i_dir]), float(rows[1][i_cf])
    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)
    # the third query point sits on a pole and must be flagged, not crash
    flag = header.index("flag")
    assert rows[3][flag] != ""


def test_eval_deterministic(tmp_path):
    cfg = tmp_path / "eval.json"
    write_json(cfg, EVAL_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("eval", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert run("eval", "--config", str(cfg), "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_eval_with_weights_near_1e150_writes_finite_routes(tmp_path, p):
    """|grad V| about 1e150 squares to inf, so the routes form their bracket
    from a unit direction: every column is finite, with numpy's warnings as
    errors, and direct and FD meet the closed form against delta_p_scale."""
    weights, locations, points = [1e150, 5e149], [[0.0, 0.0], [1.0, 0.0]], [[2.0, 1.0], [-1.0, 0.5]]
    path, out = tmp_path / "eval.json", tmp_path / "out.csv"
    write_json(path, dict(EVAL_CFG, params={"p": p, "n": 2}, points=points,
                          poles=[{"weight": w, "location": y} for w, y in zip(weights, locations)]))
    assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    header, *rows = read_csv(out)
    assert [row[-1] for row in rows] == ["", ""]
    table = np.array([[float(v) for v in row[:-1]] for row in rows])
    assert np.isfinite(table).all()
    direct, closed, fd = (table[:, header.index(f"delta_p_{route}")]
                          for route in ("direct", "closed_form", "fd"))
    scale = delta_p_scale(evaluate(PoleSet(weights, locations, Params(p, 2)), None, points))
    assert (abs(direct - closed) <= 1e-10 * scale).all()
    assert (abs(fd - closed) <= 1e-4 * scale).all()


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    bad = dict(EVAL_CFG)
    bad["unknown_key"] = 1
    write_json(cfg, bad)
    res = run("eval", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "unknown_key" in res.stderr


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_valid_against_its_metaschema(name):
    schema = SCHEMAS[name]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def with_changes(**changes):
    return dict(EVAL_CFG, **changes)


@pytest.mark.parametrize("cfg", [
    with_changes(params={"p": 1.0, "n": 2}),
    with_changes(poles=[{"weight": 1.0, "location": [0.5, 0.0, 0.0]}]),
    with_changes(points=[[0.1, 0.2], [0.3, 0.4, 0.5]]),
    with_changes(poles=[{"weight": 0.0, "location": [0.5, 0.0]}]),
], ids=["p_one", "pole_dimension", "point_dimension", "zero_weights"])
def test_config_rejected_by_a_constructor_exits_2(tmp_path, capsys, cfg):
    path = tmp_path / "eval.json"
    write_json(path, cfg)
    main_exits_2_with_one_error_line(capsys, "eval", path, tmp_path)


COMPARE_CFG = {
    "schema_version": 1,
    "params": {"p": 3.0, "n": 2},
    "poles": [{"weight": 1.0, "location": [0.2, 0.1]}],
    "grid": {"bounds": [[-1, 1], [-1, 1]], "shape": [9, 9]},
}
QUADRATIC_3D = {"kind": "quadratic", "a_matrix": (-np.eye(3)).tolist()}
AFFINE_3D = {"kind": "affine_min", "slopes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "offsets": [0.0, 0.0]}


def test_compare_csv_matches_a_row_by_row_reference(tmp_path):
    path, out = tmp_path / "cmp.json", tmp_path / "o.csv"
    write_json(path, dict(COMPARE_CFG, concave={"kind": "quadratic", "a_matrix": [[-1.0, 0.2], [0.2, -0.5]]}))
    args = ["compare", "--config", str(path), "--out", str(out), "--summary", str(tmp_path / "s.json")]
    assert cli.main(args) == cli.EXIT_OK
    params, ps, k, dom = cli._build(json.loads(path.read_text()))
    report = comparison.comparison_check(ps, k, dom)
    nodes = dom.nodes().reshape(-1, 2)
    w, h = report.w_values.ravel(), report.h_values.ravel()
    mask = report.excised_mask.ravel()
    assert mask.any()
    lines = ["x0,x1,w,h,gap,excised"] + [
        ",".join([format(float(v), ".17g") for v in (*nodes[i], w[i], h[i], w[i] - h[i])]
                 + [str(int(mask[i]))])
        for i in range(len(nodes))
    ]
    assert out.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def test_csv_matches_csv_writer_on_every_kind_of_cell(tmp_path, monkeypatch):
    """inf, nan and -0.0 floats, integers (beyond int64 too), booleans and
    flag strings, over several chunks: the bytes csv.writer writes from the
    cells formatted one at a time."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4)
    header = ["f", "i", "big", "b", "flag"]
    columns = [
        np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1 / 3, -1e300, 5e-324, 2.5, 7.0]),
        np.arange(-5, 5),
        np.array([2**70 + i for i in range(10)], dtype=object),
        np.arange(10) % 2 == 0,
        np.where(np.arange(10) % 3 == 0, "near-pole", ""),
    ]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(
            [format(v, ".17g") if c.dtype.kind == "f" else str(v) for v in c.tolist()]
            for c in columns
        )))
    out = tmp_path / "o.csv"
    cli._write_csv(out, header, columns)
    assert out.read_bytes() == ref.read_bytes()
    cli._write_csv(out, header, [c[:0] for c in columns])
    assert out.read_bytes() == b"f,i,big,b,flag\r\n"


def main_exits_2_with_one_error_line(capsys, command, path, out_dir):
    args = [command, "--config", str(path), "--out", str(out_dir / "o.csv")]
    if command == "compare":
        args += ["--summary", str(out_dir / "s.json")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


SIGN_MAP_CFG = {"schema_version": 1, "p_min": 0.5, "p_max": 3.0, "p_step": 0.5, "n_min": 1, "n_max": 3}
SWEEP_CFG = {"schema_version": 1, "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2}, "t": 1.0,
             "radii": {"min": 0.1, "max": 2.0, "count": 5}}


# the schema accepts each; the kind's own keys are missing
CONCAVE_WITHOUT_KEYS = [{"kind": "quadratic"}, {"kind": "affine_min", "slopes": [[1, 0]]},
                        {"kind": "mollified", "delta": 0.2}]
# the schema accepts each too; it carries keys that only another kind takes
QUADRATIC_WITH_OTHER_KEYS = {"kind": "quadratic", "a_matrix": [[-1.0, 0.0], [0.0, -1.0]],
                             "delta": 0.2, "slopes": [[1.0, 0.0]]}
HOMOGENEOUS_WITH_OTHER_KEYS = {"schema_version": 1, "a": 2.0, "t": 1.0,
                               "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2, "big_c": 2.0},
                               "y": [1.0, 0.0], "times": {"min": 0.5, "max": 2.0, "count": 5}}


@pytest.mark.parametrize("command,cfg", [
    ("eval", with_changes(concave=QUADRATIC_3D)),
    ("eval", with_changes(concave=AFFINE_3D)),
    ("eval", with_changes(concave={"kind": "mollified", "delta": 0.1, "base": AFFINE_3D})),
    ("compare", dict(COMPARE_CFG, concave=QUADRATIC_3D)),
    ("compare", dict(COMPARE_CFG, concave={"kind": "mollified", "delta": 0.1, "base": QUADRATIC_3D})),
    ("compare", dict(COMPARE_CFG, params={"p": 2.0, "n": 2})),
    ("compare", dict(COMPARE_CFG, grid={"bounds": [[-1, 1]] * 3, "shape": [9, 9, 9]})),
    *[(command, dict(cfg, concave=term)) for command, cfg in (("eval", EVAL_CFG), ("compare", COMPARE_CFG))
      for term in CONCAVE_WITHOUT_KEYS],
    ("evolution-sweep", {"schema_version": 1, "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2},
                         "radii": {"min": 0.1, "max": 2.0, "count": 5}}),
    ("evolution-sweep", {"schema_version": 1, "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2},
                         "t": 1.0}),
    ("evolution-sweep", {"schema_version": 1, "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
                         "times": {"min": 0.5, "max": 2.0, "count": 5}}),
    ("evolution-sweep", {"schema_version": 1, "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
                         "y": [1.0, 0.0]}),
    ("evolution-sweep", {"schema_version": 1, "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
                         "y": [0.0, 0.0], "times": {"min": 0.5, "max": 2.0, "count": 5}}),
    ("eval", with_changes(concave=QUADRATIC_WITH_OTHER_KEYS)),
    ("compare", dict(COMPARE_CFG, concave={"kind": "mollified", "delta": 0.1,
                                           "base": QUADRATIC_WITH_OTHER_KEYS})),
    ("eval", with_changes(concave={"kind": "zero", "offsets": [0.0]})),
    ("evolution-sweep", HOMOGENEOUS_WITH_OTHER_KEYS),
    ("evolution-sweep", dict(SWEEP_CFG, kernel=dict(SWEEP_CFG["kernel"], small_c=2.0))),
], ids=["eval_quadratic_dimension", "eval_affine_dimension", "eval_mollified_base_dimension",
        "compare_quadratic_dimension", "compare_mollified_base_dimension", "compare_p_two",
        "compare_grid_dimension", "eval_quadratic_without_a_matrix", "eval_affine_without_offsets",
        "eval_mollified_without_base", "compare_quadratic_without_a_matrix",
        "compare_affine_without_offsets", "compare_mollified_without_base",
        "barenblatt_without_t", "barenblatt_without_radii", "homogeneous_without_y",
        "homogeneous_without_times", "homogeneous_zero_y", "eval_quadratic_with_other_keys",
        "compare_mollified_base_with_other_keys", "eval_zero_with_offsets",
        "homogeneous_with_other_keys", "barenblatt_with_small_c"])
def test_config_error_in_a_subcommand_exits_2(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    write_json(path, cfg)
    main_exits_2_with_one_error_line(capsys, command, path, tmp_path)


@pytest.mark.parametrize("command,cfg,line", [
    *[("eval", with_changes(concave=term), line) for term, line in zip(CONCAVE_WITHOUT_KEYS, [
        "error: a quadratic concave term needs a_matrix",
        "error: a affine_min concave term needs offsets",
        "error: a mollified concave term needs base",
    ])],
    ("compare", dict(COMPARE_CFG, grid={"bounds": [[-1, 1]] * 3, "shape": [9, 9, 9]}),
     "error: the grid has dimension 3, but the poles have dimension 2"),
    ("evolution-sweep", dict(SWEEP_CFG, kernel={"kind": "barenblatt", "p": 1025.0, "n": 2}),
     "error: a^(p-1) overflows a double for a = 2.0 and p = 1025.0"),
    ("evolution-sweep", dict(SWEEP_CFG, kernel={"kind": "barenblatt", "p": 40.0, "n": 2}, a=1e10),
     "error: a^(p-1) overflows a double for a = 10000000000.0 and p = 40.0"),
    ("eval", with_changes(concave=QUADRATIC_WITH_OTHER_KEYS),
     "error: a quadratic concave term does not take delta, slopes"),
    ("evolution-sweep", HOMOGENEOUS_WITH_OTHER_KEYS,
     "error: a homogeneous sweep does not take a, t, kernel.big_c"),
    ("eval", with_changes(poles=[{"weight": 1e308, "location": [0.0, 0.0]},
                                 {"weight": 1e308, "location": [1.0, 0.0]}]),
     "error: the sum of the weights overflows a double"),
    # W is finite, W + shift is not
    ("compare", dict(COMPARE_CFG, shift=1.7e308, concave={"kind": "quadratic", "c0": 1.7e308,
                                                          "a_matrix": (-np.eye(2)).tolist()}),
     "error: boundary values must be finite"),
    ("compare", dict(COMPARE_CFG, grid={"bounds": [[-1e154, 1e154], [-1, 1]], "shape": [9, 9]}),
     "error: the default tolerance overflows a double for a grid spacing of 2.5e+153"),
], ids=["quadratic_keys", "affine_min_keys", "mollified_keys", "grid_dimension",
        "barenblatt_default_a_overflows", "barenblatt_large_a_overflows",
        "quadratic_other_keys", "homogeneous_other_keys", "weight_sum_overflows",
        "shifted_boundary_overflows", "default_tolerance_overflows"])
def test_config_error_line_names_the_defect(tmp_path, capsys, command, cfg, line):
    path = tmp_path / "cfg.json"
    write_json(path, cfg)
    assert main_exits_2_with_one_error_line(capsys, command, path, tmp_path) == line


def test_compare_at_p_two_names_the_harness_contract(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    write_json(path, dict(COMPARE_CFG, params={"p": 2.0, "n": 2}))
    line = main_exits_2_with_one_error_line(capsys, "compare", path, tmp_path)
    assert line == "error: the comparison harness requires p > 2"


LOADERS = {"eval": EVAL_CFG, "sign-map": SIGN_MAP_CFG, "compare": COMPARE_CFG,
           "evolution-sweep": SWEEP_CFG}


@pytest.mark.parametrize("command,cfg,count", [
    ("sign-map", dict(SIGN_MAP_CFG, n_max=10**12), "6e+12"),
    ("sign-map", dict(SIGN_MAP_CFG, p_max=1e300, p_step=1e-300), "inf"),
    ("evolution-sweep", dict(SWEEP_CFG, radii={"min": 0.1, "max": 2.0, "count": 10**15}), "1e+15"),
    ("compare", dict(COMPARE_CFG, grid={"bounds": [[-1, 1], [-1, 1]], "shape": [100000, 100000]}),
     "1e+10"),
], ids=["sign_map_n_max", "sign_map_p_step", "sweep_count", "compare_shape"])
def test_table_above_the_row_limit_exits_2(tmp_path, capsys, command, cfg, count):
    path = tmp_path / "cfg.json"
    write_json(path, cfg)
    line = main_exits_2_with_one_error_line(capsys, command, path, tmp_path)
    assert f"would have {count} rows, above the limit of {cli.MAX_ROWS}" in line
    assert not (tmp_path / "o.csv").exists()


def test_compare_grid_whose_band_cannot_fit_exits_2(tmp_path, capsys):
    # 60^3 nodes are within the row limit, but the Newton systems' band is 5 GB
    path = tmp_path / "cfg.json"
    write_json(path, dict(COMPARE_CFG, params={"p": 3.0, "n": 3},
                          poles=[{"weight": 1.0, "location": [0.2, 0.1, 0.0]}],
                          grid={"bounds": [[-1, 1]] * 3, "shape": [60, 60, 60]}))
    line = main_exits_2_with_one_error_line(capsys, "compare", path, tmp_path)
    assert "60x60x60 grid have a band of 4.98 GiB, above the limit of 1 GiB" in line
    assert not (tmp_path / "o.csv").exists()


def test_compare_pole_on_the_boundary_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    write_json(path, dict(COMPARE_CFG, poles=[{"weight": 1.0, "location": [1.0, 0.0]}]))
    line = main_exits_2_with_one_error_line(capsys, "compare", path, tmp_path)
    assert "boundary" in line


def test_row_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROWS", 5)
    path, out = tmp_path / "sweep.json", tmp_path / "o.csv"
    write_json(path, SWEEP_CFG)  # 5 radii
    assert cli.main(["evolution-sweep", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert len(read_csv(out)) == 1 + 5
    write_json(path, dict(SWEEP_CFG, radii=dict(SWEEP_CFG["radii"], count=6)))
    line = main_exits_2_with_one_error_line(capsys, "evolution-sweep", path, tmp_path)
    assert "would have 6 rows" in line


def test_sign_map_step_below_the_rounding_exits_2(tmp_path, capsys):
    path = tmp_path / "map.json"
    for bounds, wanted in (
        # rounded to 12 decimals, the six p values 2 + i 1e-13 would all read 2
        ((2, 2.0000000000005, 1e-13), "p_step 1e-13 is below the 12-decimal rounding"),
        # the second row, 1e308 + 1e308, is inf, whose sign class would read NonNegative
        ((1e308, 1.7e308, 1e308), "p rows from p_min 1e+308 in steps of 1e+308 overflow a double"),
    ):
        p_min, p_max, p_step = bounds
        write_json(path, dict(SIGN_MAP_CFG, p_min=p_min, p_max=p_max, p_step=p_step))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = main_exits_2_with_one_error_line(capsys, "sign-map", path, tmp_path)
        assert wanted in line
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("p,sign_class", [(1e297, "NonPositive"), (-1e297, "NonNegative")])
def test_sign_map_keeps_a_p_too_large_to_round(tmp_path, p, sign_class):
    # p rounded to 12 decimals overflows to inf from |p| of about 1.8e296
    path = tmp_path / "map.json"
    write_json(path, dict(SIGN_MAP_CFG, p_min=p, p_max=p, p_step=1.0, n_min=2, n_max=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sign-map", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    assert read_csv(tmp_path / "o.csv")[1:] == [[repr(p), "2", sign_class]]


def test_sign_map_writes_a_p_without_decimals_as_it_is(tmp_path):
    # rounding to 12 decimals multiplies by 1e12; divided back, 1.006e15
    # came out as 1005999999999999.9, and 8 more of these 101 rows moved
    path = tmp_path / "map.json"
    write_json(path, dict(SIGN_MAP_CFG, p_min=1e15, p_max=1.1e15, p_step=1e12, n_min=2, n_max=2))
    assert cli.main(["sign-map", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    p = [row[0] for row in read_csv(tmp_path / "o.csv")[1:]]
    assert p == ["%.17g" % (1e15 + i * 1e12) for i in range(101)]
    assert p[6] == "1006000000000000"
    # p_max - p_min, or p_step * 3, overflows a double, but no p does
    for p_min, p_max, p_step in ((-1.7e308, 1.7e308, 1e308), (-8e307, 8e307, 6e307)):
        write_json(path, dict(SIGN_MAP_CFG, p_min=p_min, p_max=p_max, p_step=p_step,
                              n_min=2, n_max=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sign-map", "--config", str(path),
                             "--out", str(tmp_path / "o.csv")]) == 0
        rows = read_csv(tmp_path / "o.csv")[1:]
        p = [float(row[0]) for row in rows]
        assert len(p) == 4 and p[0] == p_min and all(map(math.isfinite, p))
        for i in range(4):
            exact = Fraction(p_min) + i * Fraction(p_step)
            assert abs(Fraction(p[i]) - exact) <= abs(exact) * Fraction(1, 2**51)
        assert [row[2] for row in rows] == [
            "NonNegative" if v < 0 else "NonPositive" for v in p]


def test_main_reuses_one_parser_with_the_outputs_of_fresh_parsers(tmp_path, capsys, monkeypatch):
    """In-process calls of several subcommands, one refused for its
    arguments (exit 2), print, write and return what the same calls give
    when each builds its own parser."""
    write_json(tmp_path / "eval.json", EVAL_CFG)
    write_json(tmp_path / "map.json", SIGN_MAP_CFG)

    def calls(out):
        out.mkdir()
        return [
            ["eval", "--config", str(tmp_path / "eval.json"), "--out", str(out / "eval.csv")],
            ["verify", "--suite", "bogus"],
            ["sign-map", "--config", str(tmp_path / "map.json"), "--out", str(out / "map.csv")],
            ["verify", "--suite", "evolution", "--seed", "3"],
            ["eval", "--config", str(tmp_path / "eval.json")],
        ]

    def run_in_process(out):
        seen = []
        for argv in calls(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return seen, files

    assert cli.build_parser() is cli.build_parser()
    shared = run_in_process(tmp_path / "shared")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = run_in_process(tmp_path / "fresh")
    assert shared == fresh
    assert [code for code, _, _ in shared[0]] == [0, 2, 0, 0, 2]
    assert "invalid choice: 'bogus'" in shared[0][1][2]
    assert sorted(shared[1]) == ["eval.csv", "map.csv"]


@pytest.mark.parametrize("defect", ["truncated", "missing", "directory"])
@pytest.mark.parametrize("command", sorted(LOADERS))
def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys, command, defect):
    path = tmp_path / "cfg.json"
    text = json.dumps(LOADERS[command])
    if defect == "truncated":
        path.write_text(text[: len(text) // 2])
    elif defect == "directory":
        path.mkdir()
    line = main_exits_2_with_one_error_line(capsys, command, path, tmp_path)
    assert str(path) in line


@pytest.mark.parametrize("defect", ["missing_directory", "directory"])
@pytest.mark.parametrize("command,flag", [
    ("eval", "--out"), ("sign-map", "--out"), ("verify", "--out"), ("compare", "--out"),
    ("compare", "--summary"), ("evolution-sweep", "--out"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, flag, defect):
    if command == "verify":
        args = ["verify", "--suite", "evolution"]
    else:
        path = tmp_path / "cfg.json"
        write_json(path, LOADERS[command])
        args = [command, "--config", str(path)]
    outputs = {"--out": tmp_path / "o.csv"}
    if command == "compare":
        outputs["--summary"] = tmp_path / "s.json"
    outputs[flag] = tmp_path / "missing" / "o" if defect == "missing_directory" else tmp_path
    for name, target in outputs.items():
        args += [name, str(target)]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == cli.EXIT_USAGE
    strerror = os.strerror(errno.ENOENT if defect == "missing_directory" else errno.EISDIR)
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {outputs[flag]}: {strerror}"]


@pytest.mark.parametrize("command,flag", [("verify", "--out"), ("compare", "--out"),
                                          ("compare", "--summary")])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, flag):
    ran = []
    monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: ran.append("suite"))
    monkeypatch.setattr(comparison, "comparison_check", lambda *a, **kw: ran.append("solver"))
    if command == "verify":
        args = ["verify", "--suite", "all"]
    else:
        write_json(tmp_path / "cfg.json", COMPARE_CFG)
        args = ["compare", "--config", str(tmp_path / "cfg.json")]
    outputs = {"--out": tmp_path / "o.csv"}
    if command == "compare":
        outputs["--summary"] = tmp_path / "s.json"
    outputs[flag] = tmp_path / "missing" / "o"
    for name, target in outputs.items():
        args += [name, str(target)]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {outputs[flag]}: {os.strerror(errno.ENOENT)}"]
    assert ran == []
    assert sorted(path.name for path in tmp_path.iterdir()) == (
        [] if command == "verify" else ["cfg.json"])


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_solver_failure_exits_1_with_its_residual(tmp_path, capsys, monkeypatch, command):
    def fail(*args):
        raise SolverFailureError("no convergence", residual=0.5)

    monkeypatch.setattr(comparison, "_solve", fail)
    if command == "verify":
        args = ["verify", "--suite", "comparison"]
    else:
        path = tmp_path / "cfg.json"
        write_json(path, COMPARE_CFG)
        args = ["compare", "--config", str(path), "--out", str(tmp_path / "o.csv"),
                "--summary", str(tmp_path / "s.json")]
    assert cli.main(args) == cli.EXIT_FAILURE
    assert capsys.readouterr().err.splitlines() == ["solver failure: no convergence (residual 0.5)"]


def test_a_real_non_convergence_prints_its_residual_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(comparison, "MAX_NEWTON_ITER", 0)
    path = tmp_path / "cfg.json"
    write_json(path, COMPARE_CFG)
    args = ["compare", "--config", str(path), "--out", str(tmp_path / "o.csv"),
            "--summary", str(tmp_path / "s.json")]
    assert cli.main(args) == cli.EXIT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].count("(residual ") == 1, err
    assert err[0].startswith("solver failure: no convergence within 0 iterations (residual ")


@pytest.mark.parametrize("cfg,token", [
    (with_changes(poles=[{"weight": math.nan, "location": [0.5, 0.0]}]), "NaN"),
    (with_changes(params={"p": math.nan, "n": 2}), "NaN"),
    (with_changes(poles=[{"weight": 1.0, "location": [math.inf, 0.0]}]), "Infinity"),
    (with_changes(fd_step=math.inf), "Infinity"),
    (with_changes(points=[[0.1, 0.2], [math.nan, 0.2]]), "NaN"),
    (with_changes(points=[[0.1, -math.inf]]), "-Infinity"),
    (with_changes(fd_step=1e300), "1e999"),
    (with_changes(poles=[{"weight": 10**400, "location": [0.5, 0.0]}]), "1" + "0" * 400),
], ids=["nan_weight", "nan_p", "infinite_location", "infinite_fd_step", "nan_point",
        "negative_infinite_point", "overflowing_fd_step", "overflowing_integer_weight"])
def test_non_finite_number_in_a_config_exits_2(tmp_path, capsys, cfg, token):
    path = tmp_path / "eval.json"
    # json.dumps writes NaN, Infinity and -Infinity; 1e999 is a literal json reads as inf
    path.write_text(json.dumps(cfg).replace("1e+300", "1e999"))
    line = main_exits_2_with_one_error_line(capsys, "eval", path, tmp_path)
    assert f"{path}: {token} is " in line
    assert not (tmp_path / "o.csv").exists()


def test_eval_near_pole_row_on_a_kink(tmp_path):
    # K = min(x0, -x0) has a kink on x0 = 0; the near-pole row needs no
    # derivative of K, so it must not fail there
    path, out = tmp_path / "eval.json", tmp_path / "o.csv"
    write_json(path, {
        "schema_version": 1,
        "params": {"p": 3.0, "n": 2},
        "poles": [{"weight": 1.0, "location": [0.0, 0.5]}],
        "concave": {"kind": "affine_min", "slopes": [[1.0, 0.0], [-1.0, 0.0]],
                    "offsets": [0.0, 0.0]},
        "points": [[0.0, 0.5005]],
    })
    assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    header, row = read_csv(out)
    assert row[header.index("flag")] == "near-pole"
    assert float(row[header.index("value")]) == pytest.approx(-2.0 * 5e-4**0.5, rel=1e-12)


def test_eval_with_a_zero_concave_term_is_eval_without_one(tmp_path):
    """Kind zero and a mollified zero are K = None: the same bytes, with
    the closed form filled in on every regular row."""
    outs = []
    for cfg in (EVAL_CFG, with_changes(concave={"kind": "zero"}),
                with_changes(concave={"kind": "mollified", "delta": 0.2, "base": {"kind": "zero"}})):
        path, out = tmp_path / "eval.json", tmp_path / f"o{len(outs)}.csv"
        write_json(path, cfg)
        assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        outs.append(out.read_bytes())
    assert outs[1] == outs[0] and outs[2] == outs[0]
    header, *rows = read_csv(tmp_path / "o0.csv")
    closed, flag = header.index("delta_p_closed_form"), header.index("flag")
    assert all(math.isfinite(float(row[closed])) for row in rows if not row[flag])


def test_missing_subcommand_usage():
    res = run()
    assert res.returncode == 2


def test_sign_map(tmp_path):
    cfg = tmp_path / "map.json"
    out = tmp_path / "map.csv"
    write_json(cfg, {
        "schema_version": 1,
        "p_min": 0.5, "p_max": 3.0, "p_step": 0.5,
        "n_min": 1, "n_max": 3,
    })
    res = run("sign-map", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    table = {(row[0], row[1]): row[2] for row in rows[1:]}
    assert table[("2", "2")] == "IdenticallyZero"
    assert table[("3", "1")] == "IdenticallyZero"
    assert table[("1", "2")] == "Excluded"
    assert table[("3", "2")] == "NonPositive"
    assert table[("1.5", "2")] == "NonNegative"


VERIFY_CHECKS = [
    "three_way_direct_vs_closed", "three_way_fd_vs_closed", "sign_soundness",
    "isometry_equivariance", "weight_scaling", "single_pole_nullity",
    "concavity_implies_criterion", "criterion_implies_sign", "concave_superposition_sign",
    "mollification_sup_shrinks", "mollified_hessian_nsd",
    "discrete_maximum_principle", "comparison_principle", "refinement_no_persistent_violation",
    "two_bump_gradient_symmetry", "barenblatt_defect_identity", "sign_change_radius_bracketing",
    "support_radius_consistent",
]


def test_verify_ok(tmp_path):
    # every suite at a second fixed seed; the release criteria and
    # test_comparison run them at the default seed
    out = tmp_path / "report.json"
    res = run("verify", "--suite", "all", "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr or out.read_text()
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["seed"] == 7
    assert [s["suite"] for s in report["suites"]] == ["superpose", "concave", "comparison", "evolution"]
    assert [c["name"] for s in report["suites"] for c in s["checks"]] == VERIFY_CHECKS


def test_verify_unknown_suite():
    res = run("verify", "--suite", "nope")
    assert res.returncode == 2


def test_verify_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "superpose", "--seed", "-1"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err


def test_compare(tmp_path):
    cfg = tmp_path / "cmp.json"
    write_json(cfg, {
        "schema_version": 1,
        "params": {"p": 3.0, "n": 2},
        "poles": [{"weight": 1.0, "location": [0.2, 0.1]}],
        "grid": {"bounds": [[-1, 1], [-1, 1]], "shape": [17, 17]},
    })
    out = tmp_path / "grid.csv"
    summary = tmp_path / "summary.json"
    res = run("compare", "--config", str(cfg), "--out", str(out),
              "--summary", str(summary))
    assert res.returncode == 0, res.stderr
    s = json.loads(summary.read_text())
    assert s["violations"] == 0
    assert s["min_gap"] >= -s["tolerance"]
    rows = read_csv(out)
    assert rows[0][:2] == ["x0", "x1"]
    assert len(rows) == 1 + 17 * 17


def test_evolution_sweep_barenblatt(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    write_json(cfg, {
        "schema_version": 1,
        "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2},
        "t": 1.0, "a": 2.0,
        "radii": {"min": 0.1, "max": 2.3, "count": 40},
    })
    res = run("evolution-sweep", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    signs = [row[-1] for row in rows[1:]]
    # the scaled solution fails on one side of the sign-change radius only
    assert "-1" in signs and "1" in signs


def test_evolution_sweep_homogeneous(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    write_json(cfg, {
        "schema_version": 1,
        "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
        "y": [1.2, 0.0],
        "times": {"min": 0.5, "max": 2.0, "count": 10},
    })
    res = run("evolution-sweep", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = read_csv(out)
    assert len(rows) == 11


def test_the_cli_and_its_commands_that_solve_nothing_load_no_scipy(tmp_path):
    """scipy loads at the first banded solve, not with ``plap.cli``; eval,
    sign-map, evolution-sweep and the verify suites that solve no linear
    system, run in one process, never load it.  The comparison suite then
    loads no scipy subpackage but scipy.linalg."""
    runs = []
    for name, cfg in (("eval", EVAL_CFG), ("sign-map", SIGN_MAP_CFG),
                      ("evolution-sweep", SWEEP_CFG)):
        write_json(tmp_path / f"{name}.json", cfg)
        runs.append([name, "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.csv")])
    for suite in ("superpose", "concave", "evolution", "comparison"):
        runs.append(["verify", "--suite", suite, "--out", str(tmp_path / f"{suite}.json")])
    code = (
        "import json, sys\n"
        "import plap.cli\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "*runs, comparison = json.loads(sys.argv[1])\n"
        "for args in runs:\n"
        "    assert plap.cli.main(args) == plap.cli.EXIT_OK, args\n"
        "    assert not scipy(), (args, scipy())\n"
        "assert plap.cli.main(comparison) == plap.cli.EXIT_OK\n"
        "packages = [m for m in scipy() if m.count('.') == 1 and not m.startswith('scipy._')\n"
        "            and hasattr(sys.modules[m], '__path__')]\n"
        "assert packages == ['scipy.linalg'], scipy()\n"
    )
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_log_env_smoke(tmp_path):
    cfg = tmp_path / "eval.json"
    write_json(cfg, EVAL_CFG)
    args = ["eval", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    logged = "wrote 3 rows"  # cmd_eval logs this at INFO, below the WARNING default

    env = dict(os.environ, PLAP_LOG="DEBUG")
    res = run(*args, env=env)
    assert res.returncode == 0, res.stderr
    assert logged in res.stderr

    # control: the same run without PLAP_LOG stays quiet
    del env["PLAP_LOG"]
    res = run(*args, env=env)
    assert res.returncode == 0, res.stderr
    assert logged not in res.stderr


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_log_env_rejects_non_level(monkeypatch, capsys, value):
    # basic_format is a logging attribute but no level; verbose is neither
    monkeypatch.setenv("PLAP_LOG", value)
    assert cli.main(["sign-map", "--help"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "PLAP_LOG must be a logging level name" in err


def test_evolution_sweep_radius_at_the_support_edge_exits_2(tmp_path, capsys):
    # the support radius at p = 3, n = 2, t = 1 is 3.5568933045; 3.5568933
    # lies inside the margin where the time derivative is undefined
    path = tmp_path / "sweep.json"
    write_json(path, {"schema_version": 1, "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2},
                      "t": 1.0, "radii": {"min": 0.0, "max": 3.5568933, "count": 2}})
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolution-sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "3.5568933" in err[0]
    assert not (tmp_path / "o.csv").exists()


def test_evolution_sweep_whose_rows_overflow_exits_1_with_one_line(tmp_path, capsys):
    """|x| of radii 1e199 and 1e200 overflows: both rows used to be written
    as NaN, with a defect_sign of -9223372036854775808 (NaN cast to an
    int), after four RuntimeWarnings, and the sweep exited 0."""
    path, out = tmp_path / "sweep.json", tmp_path / "o.csv"
    write_json(path, {"schema_version": 1, "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2,
                                                      "big_c": 1e-300},
                      "t": 1.0, "radii": {"min": 1e199, "max": 1e200, "count": 2}})
    assert cli.main(["evolution-sweep", "--config", str(path), "--out", str(out)]) == cli.EXIT_FAILURE
    assert capsys.readouterr().err.splitlines() == [
        "error: the kernel time derivative or the defect is not finite at radius 1e+199"]
    assert not out.exists()


def test_evolution_sweep_bump_offset_of_the_wrong_dimension_exits_2(tmp_path, capsys):
    # a 3-vector y for an n = 2 kernel used to be read as a 2-D radius |y|
    path = tmp_path / "sweep.json"
    write_json(path, {"schema_version": 1, "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
                      "y": [0.5, 0.2, 0.3], "times": {"min": 0.5, "max": 2.0, "count": 5}})
    line = main_exits_2_with_one_error_line(capsys, "evolution-sweep", path, tmp_path)
    assert "n = 2" in line and "3 coordinates" in line
    assert not (tmp_path / "o.csv").exists()


def test_eval_logs_its_stage_times_at_debug(tmp_path):
    cfg = tmp_path / "eval.json"
    write_json(cfg, EVAL_CFG)
    args = ["eval", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    stages = "eval stages (s): load+validate "

    res = run(*args, env=dict(os.environ, PLAP_LOG="DEBUG"))
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if stages in line]
    assert len(lines) == 1
    for stage in ("build", "rows", "csv"):
        assert f", {stage} " in lines[0]

    env = dict(os.environ)
    env.pop("PLAP_LOG", None)
    res = run(*args, env=env)
    assert res.returncode == 0, res.stderr
    assert stages not in res.stderr


def test_compare_logs_its_stage_times_at_debug(tmp_path):
    cfg = tmp_path / "compare.json"
    write_json(cfg, COMPARE_CFG)
    args = ["compare", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
            "--summary", str(tmp_path / "s.json")]
    stages = "compare stages (s): load+validate "

    res = run(*args, env=dict(os.environ, PLAP_LOG="DEBUG"))
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if stages in line]
    assert len(lines) == 1
    for stage in ("build", "check", "csv"):
        assert f", {stage} " in lines[0]

    env = dict(os.environ)
    env.pop("PLAP_LOG", None)
    res = run(*args, env=env)
    assert res.returncode == 0, res.stderr
    assert stages not in res.stderr


def test_verify_logs_each_suites_seconds_at_debug(tmp_path):
    args = ["verify", "--suite", "all", "--out", str(tmp_path / "v.json")]
    stages = "verify stages (s): "

    res = run(*args, env=dict(os.environ, PLAP_LOG="DEBUG"))
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if stages in line]
    assert len(lines) == 1
    seconds = lines[0].split(stages)[1].split(", ")
    assert [s.split(" ")[0] for s in seconds] == list(verify.SUITE_NAMES)
    assert all(float(s.split(" ")[1]) >= 0.0 for s in seconds)

    env = dict(os.environ)
    env.pop("PLAP_LOG", None)
    res = run(*args, env=env)
    assert res.returncode == 0, res.stderr
    assert stages not in res.stderr
