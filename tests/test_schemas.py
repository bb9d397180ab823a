"""``schemas.config_error`` against jsonschema, the reference it replaces.

jsonschema is a test dependency only: it judges every example config and
every mutation of one here, and ``config_error`` must agree with it on
accept/reject and, for a single defect, on ``best_match``'s path and
message, byte for byte.
"""

import copy
import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import best_match

from plap import cli, schemas
from plap.schemas import SCHEMAS

VALIDATORS = {name: jsonschema.validators.validator_for(s)(s) for name, s in SCHEMAS.items()}

QUADRATIC = {"kind": "quadratic", "a_matrix": [[-1.0, 0.2], [0.2, -0.5]], "b": [0.1, 0], "c0": 1}
AFFINE = {"kind": "affine_min", "slopes": [[1.0, 0.0], [-1, 0.5]], "offsets": [0.0, 0.25]}
NESTED = {"kind": "mollified", "delta": 0.1,
          "base": {"kind": "mollified", "delta": 0.05, "base": AFFINE}}
EVAL = {
    "schema_version": 1,
    "params": {"p": 3.0, "n": 2, "c": 1.5},
    "poles": [{"weight": 1.0, "location": [0.5, 0.0]}, {"weight": 0, "location": [-0.5, 1]}],
    "points": [[0.1, 0.2], [1.5, -0.8]],
    "fd_step": 1e-4,
}
COMPARE = {
    "schema_version": 1,
    "params": {"p": 3.0, "n": 2},
    "poles": [{"weight": 1.0, "location": [0.2, 0.1]}],
    "grid": {"bounds": [[-1, 1], [-1.0, 1.0]], "shape": [9, 17]},
    "shift": 0.0,
    "tol": 1e-3,
}
EXAMPLES = {
    "eval_pure": ("eval", EVAL),
    "eval_zero": ("eval", dict(EVAL, concave={"kind": "zero"})),
    "eval_quadratic": ("eval", dict(EVAL, concave=QUADRATIC)),
    "eval_nested_mollified": ("eval", dict(EVAL, concave=NESTED)),
    "sign_map": ("sign_map", {"schema_version": 1, "p_min": 0.5, "p_max": 3, "p_step": 0.5,
                              "n_min": 1, "n_max": 3}),
    "compare_affine": ("compare", dict(COMPARE, concave=AFFINE)),
    "compare_mollified": ("compare", dict(COMPARE, concave={"kind": "mollified", "delta": 0.2,
                                                             "base": QUADRATIC})),
    "evolution_barenblatt": ("evolution_sweep", {
        "schema_version": 1,
        "kernel": {"kind": "barenblatt", "p": 3.0, "n": 2, "big_c": 1.0, "small_c": 2},
        "t": 1.0, "a": 2.0, "radii": {"min": 0, "max": 2.3, "count": 40}}),
    "evolution_homogeneous": ("evolution_sweep", {
        "schema_version": 1, "kernel": {"kind": "homogeneous", "p": 3.0, "n": 2},
        "y": [1.2, 0.0], "times": {"min": 0.5, "max": 2.0, "count": 10}}),
}
DROP = object()


def reference(cfg, name):
    """jsonschema's verdict: (path, message) of best_match, or None."""
    error = best_match(VALIDATORS[name].iter_errors(cfg))
    return None if error is None else (tuple(error.absolute_path), error.message)


def schema_nodes(schema):
    """Every schema dict inside ``schema``, itself included."""
    yield schema
    for value in schema.values():
        if isinstance(value, dict):
            subs = value.values() if value is schema.get("properties") else [value]
            for sub in subs:
                if isinstance(sub, dict):
                    yield from schema_nodes(sub)


IDS = {node["$id"]: node for s in SCHEMAS.values() for node in schema_nodes(s) if "$id" in node}


def sites(instance, schema, path=()):
    """(path, value, schema) of every value in ``instance``, with its schema."""
    schema = IDS[schema["$ref"]] if "$ref" in schema else schema
    yield path, instance, schema
    if isinstance(instance, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                yield from sites(instance[key], sub, path + (key,))
    elif isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            yield from sites(item, schema["items"], path + (i,))


def boundary_values(bound, kind):
    """The bound itself (as given and as the other numeric type) and the
    nearest values on either side of it."""
    if kind == "integer":
        return [bound, float(bound), bound - 1, bound + 1]
    return [bound, float(bound), math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]


def edits(value, schema):
    """Replacement values for one site, each a single defect or a boundary
    case; DROP removes the key."""
    kind = schema.get("type")
    out = []
    if kind == "object":
        out += [{}, [], "x"]
    if kind == "array":
        out += [[], {}, None]
        if "maxItems" in schema:
            out += [[0.0], [0.0, 1.0, 2.0]]
    if kind in ("number", "integer"):
        out += [True, False, "1", None, [1.0]]
        if kind == "integer":
            out += [2.5, 2.0]
        if "minimum" in schema:
            out += boundary_values(schema["minimum"], kind)
        if "exclusiveMinimum" in schema:
            out += boundary_values(schema["exclusiveMinimum"], kind)
    if "enum" in schema:
        out += ["cubic", True, None]
    if "const" in schema:
        out += [2, 1.0, True, "1"]
    return out


def with_edits(cfg, *changes):
    """A copy of ``cfg`` with each (path, value) change made; DROP removes the key."""
    cfg = copy.deepcopy(cfg)
    for path, new in changes:
        target = cfg
        for key in path[:-1]:
            target = target[key]
        if new is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = new
    return cfg


def single_defects(cfg, name):
    """(path, value) of each single mutation of ``cfg``: every required key
    dropped, an unknown key added to every object, every value replaced by
    each of its ``edits``."""
    for path, value, schema in sites(cfg, SCHEMAS[name]):
        if schema.get("type") == "object" and isinstance(value, dict):
            for key in schema.get("required", ()):
                yield path + (key,), DROP
            yield path + ("unknown_key",), 1
        if path:
            for new in edits(value, schema):
                yield path, new


def label(path, new):
    return f"drop {path}" if new is DROP else f"{path} = {new!r}"


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_examples_are_valid_for_both(example):
    name, cfg = EXAMPLES[example]
    assert reference(cfg, name) is None
    assert schemas.config_error(cfg, name) is None


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_single_defect_reports_best_match(example):
    name, cfg = EXAMPLES[example]
    cases = [with_edits(cfg, change) for change in single_defects(cfg, name)]
    assert len(cases) > 20
    mismatches = [
        (got, want)
        for mutated in cases
        if (got := schemas.config_error(mutated, name)) != (want := reference(mutated, name))
    ]
    assert not mismatches, mismatches[:5]
    # some mutations are boundary values the schema accepts
    assert {reference(mutated, name) is None for mutated in cases} == {True, False}


def test_single_defect_cases_cover_every_listed_kind():
    labels = {label(*change) for name, cfg in EXAMPLES.values()
              for change in single_defects(cfg, name)}
    for wanted in ("drop ('poles', 0, 'location')", "('params', 'unknown_key') = 1",
                   "('grid', 'bounds', 0) = [0.0]", "('grid', 'bounds', 0) = [0.0, 1.0, 2.0]",
                   "('concave', 'kind') = 'cubic'", "('schema_version',) = 2",
                   "('concave', 'base', 'delta') = 0", "('concave', 'base', 'base', 'kind') = 'cubic'",
                   "('points',) = []", "('params', 'p') = True", "('params', 'p') = '1'",
                   "('params', 'p') = None", "('params', 'n') = 0", "('params', 'c') = 0.0"):
        assert wanted in labels, wanted


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_several_defects_report_one_of_jsonschemas_errors(example):
    name, cfg = EXAMPLES[example]
    rejected = [c for c in single_defects(cfg, name) if reference(with_edits(cfg, c), name)]
    rng = np.random.default_rng(7)
    tried = 0
    for i, j in rng.integers(0, len(rejected), size=(40, 2)):
        (a, _), (b, _) = rejected[i], rejected[j]
        if a[: len(b)] == b[: len(a)]:
            continue  # one site inside the other
        merged = with_edits(cfg, rejected[i], rejected[j])
        got = schemas.config_error(merged, name)
        errors = {(tuple(e.absolute_path), e.message) for e in VALIDATORS[name].iter_errors(merged)}
        assert len(errors) >= 2 and got in errors, (got, errors)
        tried += 1
    assert tried >= 10


def test_several_defects_exit_2(tmp_path, capsys):
    cfg = with_edits(EVAL, (("params", "n"), 0), (("poles", 1, "weight"), "heavy"))
    cfg["extra"] = True
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    errors = {f"config validation failed at {'/'.join(map(str, e.absolute_path))}: {e.message}"
              for e in VALIDATORS["eval"].iter_errors(cfg)}
    assert len(err) == 1 and err[0] in errors and len(errors) == 3


def test_number_arrays_off_the_fast_path_agree():
    name, cfg = EXAMPLES["eval_pure"]
    for value in (True, np.float64(0.5), 2**70, "0.5"):
        mutated = with_edits(cfg, (("points", 1, 0), value))
        assert schemas.config_error(mutated, name) == reference(mutated, name)
    assert schemas.config_error(with_edits(cfg, (("params", "n"), 2.0)), name) is None


def test_every_keyword_in_the_schemas_is_implemented():
    nodes = [node for s in SCHEMAS.values() for node in schema_nodes(s)]
    assert {key for node in nodes for key in node} <= schemas._KEYWORDS.keys()
    assert {node["type"] for node in nodes if "type" in node} <= schemas._TYPES.keys()
    # the walker implements additionalProperties: false and scalar const/enum values only
    assert {node["additionalProperties"] for node in nodes if "additionalProperties" in node} == {False}
    scalars = [node["const"] for node in nodes if "const" in node]
    scalars += [v for node in nodes if "enum" in node for v in node["enum"]]
    assert all(isinstance(v, (str, int, float)) for v in scalars)
    assert {node["$ref"] for node in nodes if "$ref" in node} <= schemas._REFS.keys()


def test_importing_the_cli_leaves_jsonschema_unloaded():
    code = "import sys, plap.cli; sys.exit('jsonschema' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr



def test_the_cli_kind_keys_are_the_schema_keys():
    """``cli.KIND_KEYS`` lists per kind the keys ``SCHEMAS`` lets every kind
    take: the concave kinds and their keys are ``_CONCAVE``'s, the sweep
    kinds and theirs the ``evolution_sweep`` ones (kernel keys under
    ``kernel.``)."""
    def keys(kinds):
        return {key for kind in kinds for part in cli.KIND_KEYS[kind] for key in part}

    concave_kinds = schemas._CONCAVE["properties"]["kind"]["enum"]
    sweep = SCHEMAS["evolution_sweep"]["properties"]
    kernel = sweep["kernel"]["properties"]
    sweep_kinds = kernel["kind"]["enum"]
    assert set(cli.KIND_KEYS) == set(concave_kinds) | set(sweep_kinds)
    assert keys(concave_kinds) == schemas._CONCAVE["properties"].keys() - {"kind"}
    assert keys(sweep_kinds) == (sweep.keys() - {"schema_version", "kernel"}) | {
        "kernel." + key for key in kernel.keys() - {"kind", "p", "n"}}
