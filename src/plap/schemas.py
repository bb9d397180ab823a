"""Published JSON schemas for the CLI configuration files, and their validator.

Every config carries a ``schema_version`` field; unknown keys are
rejected so that typos cannot silently change an experiment.

At import each schema is compiled once into an accept predicate, one
closure per schema node with ``$ref`` resolved, which takes JSON-native
values only (dict, list, str, int, float, bool, None).  ``config_error``
returns None as soon as the predicate accepts a config.  On a config it
refuses, the walker interprets the ``SCHEMAS`` dicts directly, with
jsonschema's semantics for exactly the keywords they use, and reports the
error jsonschema's ``best_match`` would choose; it is the only code that
finds and ranks errors.  Both check an array of numbers in one pass over
its elements, which is most of a config.
"""

import math
import numbers

_PARAMS = {
    "type": "object",
    "properties": {
        "p": {"type": "number"},
        "n": {"type": "integer", "minimum": 1},
        "c": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["p", "n"],
    "additionalProperties": False,
}

_POLE = {
    "type": "object",
    "properties": {
        "weight": {"type": "number", "minimum": 0},
        "location": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["weight", "location"],
    "additionalProperties": False,
}

_CONCAVE = {
    "$id": "concave_term",
    "type": "object",
    "properties": {
        "kind": {"enum": ["zero", "quadratic", "affine_min", "mollified"]},
        "a_matrix": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "b": {"type": "array", "items": {"type": "number"}},
        "c0": {"type": "number"},
        "slopes": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "offsets": {"type": "array", "items": {"type": "number"}},
        "base": {"$ref": "concave_term"},
        "delta": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SCHEMAS = {
    "eval": {
        "type": "object",
        "properties": {
            "schema_version": {"const": 1},
            "params": _PARAMS,
            "poles": {"type": "array", "items": _POLE, "minItems": 1},
            "concave": _CONCAVE,
            "points": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "number"}},
                "minItems": 1,
            },
            "fd_step": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["schema_version", "params", "poles", "points"],
        "additionalProperties": False,
    },
    "sign_map": {
        "type": "object",
        "properties": {
            "schema_version": {"const": 1},
            "p_min": {"type": "number"},
            "p_max": {"type": "number"},
            "p_step": {"type": "number", "exclusiveMinimum": 0},
            "n_min": {"type": "integer", "minimum": 1},
            "n_max": {"type": "integer", "minimum": 1},
        },
        "required": ["schema_version", "p_min", "p_max", "p_step", "n_min", "n_max"],
        "additionalProperties": False,
    },
    "compare": {
        "type": "object",
        "properties": {
            "schema_version": {"const": 1},
            "params": _PARAMS,
            "poles": {"type": "array", "items": _POLE, "minItems": 1},
            "concave": _CONCAVE,
            "grid": {
                "type": "object",
                "properties": {
                    "bounds": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "shape": {"type": "array", "items": {"type": "integer", "minimum": 9}},
                },
                "required": ["bounds", "shape"],
                "additionalProperties": False,
            },
            "shift": {"type": "number"},
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["schema_version", "params", "poles", "grid"],
        "additionalProperties": False,
    },
    "evolution_sweep": {
        "type": "object",
        "properties": {
            "schema_version": {"const": 1},
            "kernel": {
                "type": "object",
                "properties": {
                    "kind": {"enum": ["barenblatt", "homogeneous"]},
                    "p": {"type": "number", "exclusiveMinimum": 2},
                    "n": {"type": "integer", "minimum": 1},
                    "big_c": {"type": "number", "exclusiveMinimum": 0},
                    "small_c": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["kind", "p", "n"],
                "additionalProperties": False,
            },
            "t": {"type": "number", "exclusiveMinimum": 0},
            "a": {"type": "number", "exclusiveMinimum": 0},
            "radii": {
                "type": "object",
                "properties": {
                    "min": {"type": "number", "minimum": 0},
                    "max": {"type": "number", "exclusiveMinimum": 0},
                    "count": {"type": "integer", "minimum": 2},
                },
                "required": ["min", "max", "count"],
                "additionalProperties": False,
            },
            "y": {"type": "array", "items": {"type": "number"}},
            "times": {
                "type": "object",
                "properties": {
                    "min": {"type": "number", "exclusiveMinimum": 0},
                    "max": {"type": "number", "exclusiveMinimum": 0},
                    "count": {"type": "integer", "minimum": 2},
                },
                "required": ["min", "max", "count"],
                "additionalProperties": False,
            },
        },
        "required": ["schema_version", "kernel"],
        "additionalProperties": False,
    },
}


def config_error(instance, name):
    """The error in ``instance`` against ``SCHEMAS[name]`` as (path, message),
    path a tuple of keys and indices; None if the instance is valid.

    A config the compiled predicate accepts is valid.  On any other the
    walker decides, and path and message are those of jsonschema's
    ``best_match``: the error nearest the root, then the greatest path, then
    one whose instance does not have its schema's type; ties go to the first
    error found, with keywords checked in each schema's order.
    """
    return None if _ACCEPT[name](instance) else _walker_error(instance, SCHEMAS[name])


def _walker_error(instance, schema):
    """``config_error`` from the walker alone."""
    errors = []
    _walk(instance, schema, (), errors)
    if not errors:
        return None
    path, message, _ = max(errors, key=lambda e: (-len(e[0]), e[0], not e[2]))
    return path, message


def _is_number(x):
    return type(x) in _NUMBER_TYPES or isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": _is_number,
    # an integral float such as 2.0 is an integer, as in jsonschema
    "integer": lambda x: _is_number(x)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
_NUMBER = {"type": "number"}
_NUMBER_TYPES = frozenset((int, float))  # what json parses a number to; a bool is neither
_REFS = {_CONCAVE["$id"]: _CONCAVE}


def _walk(instance, schema, path, errors):
    for keyword, value in schema.items():
        _KEYWORDS[keyword](instance, value, schema, path, errors)


def _fail(errors, path, instance, schema, message):
    expected = schema.get("type")
    errors.append((path, message, expected is not None and _TYPES[expected](instance)))


def _type(instance, name, schema, path, errors):
    if not _TYPES[name](instance):
        _fail(errors, path, instance, schema, f"{instance!r} is not of type {name!r}")


def _properties(instance, properties, schema, path, errors):
    if isinstance(instance, dict):
        for key, sub in properties.items():
            if key in instance:
                _walk(instance[key], sub, path + (key,), errors)


def _required(instance, required, schema, path, errors):
    if isinstance(instance, dict):
        for key in required:
            if key not in instance:
                _fail(errors, path, instance, schema, f"{key!r} is a required property")


def _additional_properties(instance, allowed, schema, path, errors):
    if not allowed and isinstance(instance, dict):
        extras = sorted(instance.keys() - schema.get("properties", {}).keys(), key=str)
        if extras:
            listed = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            _fail(errors, path, instance, schema,
                  f"Additional properties are not allowed ({listed} {verb} unexpected)")


def _all_json_numbers(values):
    """Whether every value is an int or a float, what json parses a number to."""
    return all(map(_NUMBER_TYPES.__contains__, map(type, values)))


def _items(instance, items, schema, path, errors):
    if not isinstance(instance, list):
        return
    if items == _NUMBER and _all_json_numbers(instance):
        return
    for i, item in enumerate(instance):
        _walk(item, items, path + (i,), errors)


def _min_items(instance, bound, schema, path, errors):
    if isinstance(instance, list) and len(instance) < bound:
        problem = "should be non-empty" if bound == 1 else "is too short"
        _fail(errors, path, instance, schema, f"{instance!r} {problem}")


def _max_items(instance, bound, schema, path, errors):
    if isinstance(instance, list) and len(instance) > bound:
        problem = "is expected to be empty" if bound == 0 else "is too long"
        _fail(errors, path, instance, schema, f"{instance!r} {problem}")


def _minimum(instance, bound, schema, path, errors):
    if _is_number(instance) and instance < bound:
        _fail(errors, path, instance, schema, f"{instance!r} is less than the minimum of {bound!r}")


def _exclusive_minimum(instance, bound, schema, path, errors):
    if _is_number(instance) and instance <= bound:
        _fail(errors, path, instance, schema,
              f"{instance!r} is less than or equal to the minimum of {bound!r}")


def _equal(a, b):
    """JSON equality of a value with a scalar of a schema: a bool equals only itself."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _const(instance, value, schema, path, errors):
    if not _equal(instance, value):
        _fail(errors, path, instance, schema, f"{value!r} was expected")


def _enum(instance, values, schema, path, errors):
    if not any(_equal(instance, v) for v in values):
        _fail(errors, path, instance, schema, f"{instance!r} is not one of {values!r}")


def _ref(instance, ref, schema, path, errors):
    _walk(instance, _REFS[ref], path, errors)


_KEYWORDS = {
    "$id": lambda *_: None,
    "$ref": _ref,
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "const": _const,
    "enum": _enum,
}


_JSON_TYPES = frozenset((dict, list, str, int, float, bool, type(None)))
# the keywords ``accept`` below applies; any other keyword refuses to compile
_PREDICATE_KEYWORDS = frozenset((
    "$id", "$ref", "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "const", "enum",
))
_ABSENT = object()


def _compile(schema, compiled):
    """The accept predicate of ``schema``: one closure for the node that
    applies each of its keywords as the walker does, and is True exactly
    for the JSON-native values in which the walker finds no error.
    ``compiled`` maps the id of every node compiled so far to its closure,
    so a shared node, or one a ``$ref`` names, compiles once.  A keyword
    outside ``_PREDICATE_KEYWORDS`` is an error."""
    if id(schema) in compiled:
        return compiled[id(schema)]
    unknown = schema.keys() - _PREDICATE_KEYWORDS
    if unknown:
        raise ValueError(f"no accept predicate for schema keyword(s) {sorted(unknown)}")
    # a $ref back to this node, met while its subnodes compile, calls the closure below
    compiled[id(schema)] = lambda x: accept(x)
    type_ok = _TYPES[schema["type"]] if "type" in schema else None
    properties = schema.get("properties", {})
    names = properties.keys()
    subs = [(key, _compile(sub, compiled)) for key, sub in properties.items()]
    closed = not schema.get("additionalProperties", True)
    required = frozenset(schema.get("required", ()))
    items = schema.get("items")
    item_ok = None if items is None or items == _NUMBER else _compile(items, compiled)
    min_items, max_items = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    minimum, above = schema.get("minimum"), schema.get("exclusiveMinimum")
    const, enum = schema.get("const", _ABSENT), schema.get("enum")
    ref = _compile(_REFS[schema["$ref"]], compiled) if "$ref" in schema else None

    def accept(x):
        t = type(x)
        if t not in _JSON_TYPES or type_ok is not None and not type_ok(x):
            return False
        if t is dict:
            keys = x.keys()
            if closed and not keys <= names or not keys >= required:
                return False
            for key, sub in subs:
                if key in x and not sub(x[key]):
                    return False
        elif t is list:
            if not min_items <= len(x) <= max_items:
                return False
            if items is not None and not (
                _all_json_numbers(x) if item_ok is None else all(map(item_ok, x))
            ):
                return False
        elif t in _NUMBER_TYPES:
            if minimum is not None and x < minimum or above is not None and x <= above:
                return False
        if const is not _ABSENT and not _equal(x, const):
            return False
        if enum is not None and not any(_equal(x, v) for v in enum):
            return False
        return ref is None or ref(x)

    compiled[id(schema)] = accept
    return accept


_COMPILED = {}
_ACCEPT = {name: _compile(schema, _COMPILED) for name, schema in SCHEMAS.items()}
