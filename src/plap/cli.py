"""Command-line front end.

Subcommands: eval | sign-map | verify | compare | evolution-sweep.
Configs are JSON validated against the schemas in ``schemas.py`` (unknown
keys rejected); outputs are CSV with 17 significant digits (round-trip
exact for doubles) plus JSON summaries.  Set PLAP_LOG to a logging level
name (DEBUG, INFO, WARNING, ERROR, CRITICAL) for diagnostics on stderr.
"""

import argparse
import errno
import functools
import itertools
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import comparison, concave, evolution, schemas, superpose, verify
from .core import Params
from .errors import PlapError, SolverFailureError, UnsupportedConfigurationError

log = logging.getLogger("plap")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

CSV_CHUNK_ROWS = 1024  # rows formatted at a time, so no whole table of cells is held in memory
EVAL_BLOCK = 1 << 17    # FD stencil offsets per block of eval rows: (block, 2n, poles, n) stays about 1 MB
MAX_ROWS = 10**6        # of a sign-map, compare or evolution-sweep table


def _check_output(path):
    """Exit 2 with the line ``_open_output`` would give if ``path`` cannot be
    written: it is a directory, or its directory is missing or read-only.
    Runs before any work and creates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    _usage_error(f"error: cannot write {path}: {os.strerror(code)}")


def _open_output(path, **kwargs):
    """``path`` opened for writing; exit 2 with one line if it cannot be."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        _usage_error(f"error: cannot write {path}: {exc.strerror}")


def _write_csv(path, header, columns):
    """A CSV table from equal-length columns (arrays or sequences): floats
    with 17 significant digits, anything else (integers, flags) as str.
    Rows end in \r\n, as csv.writer ends them; no header or cell holds a
    comma, quote or line break, so none is quoted."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    row_format = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\r\n"
    with _open_output(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            chunk = [c[start : start + CSV_CHUNK_ROWS].tolist() for c in columns]
            cells = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(row_format * len(chunk[0]) % cells)


def _usage_error(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _check_rows(count, table):
    """Exit 2 unless a table of ``count`` rows (a float: it may be inf)
    stays within MAX_ROWS; called before anything of that size exists."""
    if not count <= MAX_ROWS:
        _usage_error(f"error: the {table} would have {count:.4g} rows, above the limit of {MAX_ROWS}")


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _within_double(parse):
    """A json number hook: ``parse``, refusing what a double cannot hold."""
    def number(text):
        value = parse(text)
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{text} is too large for a double")
        return value
    return number


def _load_config(path, schema_name):
    try:
        with open(path) as fh:
            # json would otherwise take the tokens NaN and Infinity, read
            # 1e999 as inf, and give an int such as 10**400 that no float()
            # below can convert
            cfg = json.load(fh, parse_constant=_reject_constant,
                            parse_float=_within_double(float), parse_int=_within_double(int))
    except OSError as exc:
        _usage_error(f"error: cannot read config {path}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, a non-finite number, bytes that are not UTF-8
        _usage_error(f"error: config {path}: {exc}")
    error = schemas.config_error(cfg, schema_name)
    if error is not None:
        where, message = error
        _usage_error(f"config validation failed at {'/'.join(map(str, where))}: {message}")
    return cfg


def _build(cfg):
    """Params, pole set, concave term and grid (None where absent) of an
    eval or compare config.  A value the schema accepts but a constructor
    rejects is a config error."""
    try:
        pcfg, poles, grid = cfg["params"], cfg["poles"], cfg.get("grid")
        params = Params(float(pcfg["p"]), int(pcfg["n"]), float(pcfg.get("c", 1.0)))
        ps = superpose.PoleSet(
            [q["weight"] for q in poles], [q["location"] for q in poles], params
        )
        if any(len(x) != params.n for x in cfg.get("points", ())):
            raise ValueError(f"query points must have dimension {params.n}")
        dom = comparison.GridDomain(grid["bounds"], grid["shape"]) if grid else None
        return params, ps, _concave_from(cfg.get("concave"), params.n), dom
    except ValueError as exc:
        _usage_error(f"error: {exc}")


# per kind of concave term and of evolution sweep, which the schema cannot
# say: the keys it needs, then the other keys it takes (a sweep's kernel
# keys prefixed "kernel."); a key that only other kinds take is refused
KIND_KEYS = {
    "zero": ((), ()),
    "quadratic": (("a_matrix",), ("b", "c0")),
    "affine_min": (("slopes", "offsets"), ()),
    "mollified": (("base", "delta"), ()),
    "barenblatt": (("t", "radii"), ("a", "kernel.big_c")),
    "homogeneous": (("y", "times"), ("kernel.small_c",)),
}
_KIND_ONLY = {key for needs, takes in KIND_KEYS.values() for key in needs + takes}


def _check_kind(keys, kind, what):
    """Exit 2 unless the keys of a config object of ``kind`` hold every key
    that kind needs and none that only other kinds take."""
    needs, takes = KIND_KEYS[kind]
    missing = [key for key in needs if key not in keys]
    if missing:
        _usage_error(f"error: {what} needs {' and '.join(missing)}")
    foreign = [key for key in keys if key in _KIND_ONLY and key not in needs + takes]
    if foreign:
        _usage_error(f"error: {what} does not take {', '.join(foreign)}")


def _concave_from(term_cfg, n):
    """The concave term of a config, checked to act on points of dimension n;
    None for K = 0, which a mollified zero is too."""
    if term_cfg is None:
        return None
    kind = term_cfg["kind"]
    _check_kind(term_cfg, kind, f"a {kind} concave term")
    if kind == "zero":
        return None
    if kind == "mollified":
        base = _concave_from(term_cfg["base"], n)
        return None if base is None else concave.MollifiedTerm(base, float(term_cfg["delta"]))
    if kind == "quadratic":
        k = concave.QuadraticTerm(
            np.asarray(term_cfg["a_matrix"], dtype=float),
            b=term_cfg.get("b"),
            c0=float(term_cfg.get("c0", 0.0)),
        )
        dim = k.a_matrix.shape[0]
    else:
        # the schema's enum leaves "affine_min"
        k = concave.AffineMinTerm(term_cfg["slopes"], term_cfg["offsets"])
        dim = k.slopes.shape[1]
    if dim != n:
        raise ValueError(f"the concave term has dimension {dim}, expected {n}")
    return k


def cmd_eval(args):
    start = time.perf_counter()
    cfg = _load_config(args.config, "eval")
    loaded = time.perf_counter()
    params, ps, k, _ = _build(cfg)
    step = float(cfg.get("fd_step", superpose.DEFAULT_FD_STEP))
    n = params.n
    built = time.perf_counter()

    x = np.asarray(cfg["points"], dtype=float).reshape(-1, n)
    near = superpose.near_pole(ps, x, step)
    value, grad_norm, direct, closed, fd = np.full((5, len(x)), np.nan)
    if near.any():
        value[near] = superpose.superposition_value(ps, k, x[near])
    far = np.flatnonzero(~near)
    block_rows = max(1, EVAL_BLOCK // (2 * n * len(ps) * n))
    for first in range(0, len(far), block_rows):
        i = far[first : first + block_rows]
        res = superpose.evaluate(ps, k, x[i])
        value[i], grad_norm[i] = res.value, res.grad_norm
        direct[i] = superpose.delta_p_direct(res)
        if k is None:
            closed[i] = superpose.delta_p_closed_form(res)
        fd[i] = superpose.delta_p_fd(ps, k, x[i], step=step)
    computed = time.perf_counter()

    header = (
        [f"x{j}" for j in range(n)]
        + ["value", "grad_norm", "delta_p_direct", "delta_p_closed_form", "delta_p_fd", "flag"]
    )
    columns = [*x.T, value, grad_norm, direct, closed, fd, np.where(near, "near-pole", "")]
    _write_csv(args.out, header, columns)
    log.info("wrote %d rows to %s", len(x), args.out)
    log.debug(
        "eval stages (s): load+validate %.4f, build %.4f, rows %.4f, csv %.4f",
        loaded - start, built - loaded, computed - built, time.perf_counter() - computed,
    )
    return EXIT_OK


def cmd_sign_map(args):
    cfg = _load_config(args.config, "sign_map")
    p_min, p_max, p_step = (float(cfg[key]) for key in ("p_min", "p_max", "p_step"))
    # the length of np.arange(p_min, p_max + p_step / 2, p_step), in floats:
    # it may be inf.  p_max - p_min, and p_step * i below, may overflow where
    # no p does; there every term is halved, which is exact for terms so large
    span = (p_max - p_min) / p_step
    if np.isinf(span):
        span = (p_max / 2 - p_min / 2) / p_step * 2
    p_count = max(0.0, float(np.ceil(span + 0.5)))
    n_count = max(0.0, float(cfg["n_max"]) - float(cfg["n_min"]) + 1.0)
    # the p column is built even when the n range is empty
    _check_rows(p_count * max(n_count, 1.0), "sign map")
    # p_min + i p_step rounded to decimals lands exactly on the zero lines;
    # np.arange's step, (p_min + p_step) - p_min, carries the rounding of
    # p_min and drifts its rows off them once |p_min| reaches about 10
    with np.errstate(over="ignore"):
        i = np.arange(int(p_count))
        p_values = p_min + p_step * i
        p_values = np.where(np.isinf(p_values), (p_min / 2 + p_step / 2 * i) * 2, p_values)
    # p_step > 0, so only the last row can overflow, and to +inf
    if np.isinf(p_values[-1:]).any():
        _usage_error(
            f"error: p rows from p_min {cfg['p_min']!r} in steps of {cfg['p_step']!r} overflow a double"
        )
    # rounding multiplies by 1e12: from |p| 1e12 = 2^53 on, where p has no
    # decimals left to round, the product is whole and dividing it back can
    # move p by an ulp
    rounds = np.abs(p_values) < 2.0**53 / 1e12
    p_values[rounds] = np.round(p_values[rounds], 12)
    if np.any(np.diff(p_values) <= 0.0):
        _usage_error(
            f"error: p_step {cfg['p_step']!r} is below the 12-decimal rounding of p, "
            "so rows would repeat a p value"
        )
    # Python ints, so an n beyond int64 is still written as an integer
    n_values = np.array(range(int(cfg["n_min"]), int(cfg["n_max"]) + 1), dtype=object)
    p_column = np.repeat(p_values, len(n_values))
    n_column = np.tile(n_values, len(p_values))
    classes = superpose.sign_classes(p_column, n_column)
    _write_csv(args.out, ["p", "n", "sign_class"], [p_column, n_column, classes])
    return EXIT_OK


def cmd_verify(args):
    reports = verify.run_suite(args.suite, seed=args.seed)
    payload = {
        "seed": args.seed,
        "suites": [rep.to_dict() for rep in reports],
        "passed": all(rep.passed for rep in reports),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for rep in reports:
        for check in rep.checks:
            status = "pass" if check.passed else "FAIL"
            log.info("%s/%s: %s (worst %.3e)", rep.suite, check.name, status,
                     check.worst_residual)
    return EXIT_OK if payload["passed"] else EXIT_FAILURE


def cmd_compare(args):
    start = time.perf_counter()
    cfg = _load_config(args.config, "compare")
    loaded = time.perf_counter()
    _, ps, k, dom = _build(cfg)
    _check_rows(math.prod(map(float, dom.shape)), "comparison grid")
    built = time.perf_counter()
    report = comparison.comparison_check(
        ps,
        k,
        dom,
        shift=float(cfg.get("shift", 0.0)),
        tol=float(cfg["tol"]) if "tol" in cfg else None,
    )
    checked = time.perf_counter()
    w = report.w_values.ravel()
    h = report.h_values.ravel()
    header = [f"x{i}" for i in range(dom.dim)] + ["w", "h", "gap", "excised"]
    columns = [*dom.nodes().reshape(-1, dom.dim).T, w, h, w - h,
               report.excised_mask.ravel().astype(int)]
    _write_csv(args.out, header, columns)
    summary = {
        "min_gap": report.min_gap,
        "violations": report.violations,
        "tolerance": report.tol,
        "excised_nodes": report.excised,
    }
    with _open_output(args.summary) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.debug(
        "compare stages (s): load+validate %.4f, build %.4f, check %.4f, csv %.4f",
        loaded - start, built - loaded, checked - built, time.perf_counter() - checked,
    )
    return EXIT_OK


def cmd_evolution_sweep(args):
    cfg = _load_config(args.config, "evolution_sweep")
    kcfg = cfg["kernel"]
    params = Params(p=float(kcfg["p"]), n=int(kcfg["n"]), c=1.0)
    kernel = evolution.EvolutionKernel(
        kind=kcfg["kind"],
        params=params,
        big_c=float(kcfg.get("big_c", 1.0)),
        small_c=float(kcfg.get("small_c", 1.0)),
    )
    _check_kind([*cfg, *(f"kernel.{key}" for key in kcfg)], kernel.kind, f"a {kernel.kind} sweep")
    sweep = cfg["radii"] if kernel.kind == evolution.BARENBLATT else cfg["times"]
    _check_rows(float(sweep["count"]), "sweep")
    if kernel.kind == evolution.BARENBLATT:
        t = float(cfg["t"])
        a = float(cfg.get("a", 2.0))
        radii = np.linspace(sweep["min"], sweep["max"], int(sweep["count"]))
        edge = radii[evolution.near_support_edge(kernel, radii, t)]
        if edge.size:
            _usage_error(
                f"error: radius {float(edge[0])!r} is at the edge of the support radius "
                f"{evolution.support_radius(kernel, t)!r}, where the time derivative is undefined"
            )
        x = np.zeros((radii.size, params.n))
        x[:, 0] = radii
        header, column = "radius", radii
    else:
        y = np.asarray(cfg["y"], dtype=float)
        if y.shape != (params.n,):
            _usage_error(f"error: the bump offset y has {y.size} coordinates, but n = {params.n}")
        header, column = "t", np.geomspace(sweep["min"], sweep["max"], int(sweep["count"]))
    # a row that overflows is refused below, after the whole sweep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kernel.kind == evolution.BARENBLATT:
            derivative = evolution.kernel_time_derivative(kernel, x, t)
            defect = evolution.barenblatt_defect(kernel, a, x, t)
        else:
            derivative = evolution.kernel_time_derivative(kernel, y, column)
            defect = evolution.two_bump_defect(kernel, y, column)
    finite = np.isfinite(derivative) & np.isfinite(defect)
    if not finite.all():
        raise PlapError(f"the kernel time derivative or the defect is not finite at {header} "
                        f"{float(column[np.argmin(finite)])!r}")
    _write_csv(args.out, [header, "kernel_time_derivative", "defect", "defect_sign"],
               [column, derivative, defect, np.sign(defect).astype(int)])
    return EXIT_OK


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser; built once per process, as ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="plap",
        description="Verification experiments for p-Laplacian superpositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a configuration at query points")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_map = sub.add_parser("sign-map", help="classify the (p, n) sign regions")
    p_map.add_argument("--config", required=True)
    p_map.add_argument("--out", required=True)
    p_map.set_defaults(func=cmd_sign_map)

    p_verify = sub.add_parser("verify", help="run randomized invariant suites")
    p_verify.add_argument("--suite", required=True, choices=verify.SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=nonnegative_int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="discrete comparison-principle run")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--summary", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_evo = sub.add_parser("evolution-sweep", help="defect sweep tables")
    p_evo.add_argument("--config", required=True)
    p_evo.add_argument("--out", required=True)
    p_evo.set_defaults(func=cmd_evolution_sweep)
    return parser


def main(argv=None):
    level = logging.getLevelName(os.environ.get("PLAP_LOG", "WARNING").upper())
    if not isinstance(level, int):
        print(
            "error: PLAP_LOG must be a logging level name "
            "(DEBUG, INFO, WARNING, ERROR, CRITICAL)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    logging.basicConfig(stream=sys.stderr, level=level)
    args = build_parser().parse_args(argv)
    # every output is checked before the work that fills it
    for path in (args.out, getattr(args, "summary", None)):
        if path is not None:
            _check_output(path)
    try:
        return args.func(args)
    except SolverFailureError as exc:
        print(f"solver failure: {exc} (residual {exc.residual})", file=sys.stderr)
        return EXIT_FAILURE
    except UnsupportedConfigurationError as exc:
        # p <= 2 in compare, a grid of the wrong dimension or whose band does
        # not fit, a pole on a node or the boundary, a zero bump offset
        _usage_error(f"error: {exc}")
    except PlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
