"""Published JSON schemas for the CLI configuration files, and their validator.

Every config carries a ``schema_version`` field; unknown keys are
rejected so that typos cannot silently change an experiment.

At import each schema is compiled once into a check: one closure per schema
node, ``$ref`` resolved, that applies the node's keywords with jsonschema's
semantics for exactly the keywords the schemas use, to any value (a
``np.float64``, a ``Fraction`` or a bool included), and returns the node's
errors, an empty tuple for a valid value.  ``config_error`` ranks them as
jsonschema's ``best_match`` does.  An array of numbers is checked in one pass
over its elements, which is most of a config; only an array that fails it is
walked item by item.
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

    Path and message are those of jsonschema's ``best_match``: the error
    nearest the root, then the greatest path, then one whose instance does
    not have its schema's type; ties go to the first error found, with each
    node's keywords checked in the order of ``_KEYWORDS``, which is also the
    order of the node's dict.
    """
    errors = _CHECKS[name](instance)
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
# per type, the classes of json's values that have it, which need no call of its test
_NATIVE = {"object": {dict}, "array": {list}, "number": _NUMBER_TYPES, "integer": {int}}
_REFS = {_CONCAVE["$id"]: _CONCAVE}
# the keywords a check applies, in the order it applies them; a schema node
# must list its keywords in this order, so that its errors come in jsonschema's
_KEYWORDS = (
    "$id", "$ref", "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "const", "enum",
)
_ANY_KIND = frozenset(("$id", "$ref", "type", "const", "enum"))  # they apply to any value
_ABSENT = object()


def _all_json_numbers(values):
    """Whether every value is an int or a float, what json parses a number to."""
    return all(map(_NUMBER_TYPES.__contains__, map(type, values)))


def _kind(x):
    """The type of ``x`` among object, array and number, which decides the
    keywords that apply to it; None for any other value."""
    return next((name for name in ("object", "array", "number") if _TYPES[name](x)), None)


def _equal(a, b):
    """JSON equality of a value with a scalar of a schema: a bool equals only itself."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _compile(schema, compiled):
    """The check of ``schema``: one closure for the node that returns the
    errors of a value as (path below the node, message, whether the value
    has the node's type), in the order jsonschema finds them.  ``compiled``
    maps the id of every node compiled so far to its closure, so a shared
    node, or one a ``$ref`` names, compiles once.  A keyword outside
    ``_KEYWORDS``, or out of its order, is an error."""
    if id(schema) in compiled:
        return compiled[id(schema)]
    known = [key for key in _KEYWORDS if key in schema]
    if len(known) < len(schema):
        raise ValueError(f"no check for schema keyword(s) {sorted(schema.keys() - set(known))}")
    if known != list(schema):
        raise ValueError(f"schema keywords {list(schema)} are out of the order of _KEYWORDS")
    # a $ref back to this node, met while its subnodes compile, calls the closure below
    compiled[id(schema)] = lambda x: check(x)
    ref = _compile(_REFS[schema["$ref"]], compiled) if "$ref" in schema else None
    type_name = schema.get("type")
    type_ok = _TYPES[type_name] if type_name is not None else None
    properties = schema.get("properties", {})
    names = properties.keys()
    subs = [(key, _compile(sub, compiled)) for key, sub in properties.items()]
    required = schema.get("required", [])
    required_set = frozenset(required)
    closed = not schema.get("additionalProperties", True)
    items = schema.get("items")
    item = None if items is None else _compile(items, compiled)
    numbers_only = items == _NUMBER
    min_items, max_items = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    minimum, above = schema.get("minimum"), schema.get("exclusiveMinimum")
    const, enum = schema.get("const", _ABSENT), schema.get("enum")
    # a value of the node's type needs no other test for the keywords that apply to it
    own_kind = "number" if type_name == "integer" else type_name
    native = _NATIVE.get(type_name, ())
    by_kind = not schema.keys() <= _ANY_KIND

    def check(x):
        errors = () if ref is None else ref(x)
        typed = type(x) in native or type_ok is not None and type_ok(x)
        if typed:
            kind = own_kind
        else:
            kind = _kind(x) if by_kind else None
            if type_ok is not None:
                errors += (((), f"{x!r} is not of type {type_name!r}", False),)
        if kind == "object":
            for key, sub in subs:
                if key in x:
                    found = sub(x[key])
                    if found:
                        errors += tuple(((key,) + path, m, t) for path, m, t in found)
            keys = x.keys()
            if not keys >= required_set:
                errors += tuple(((), f"{key!r} is a required property", typed)
                                for key in required if key not in x)
            if closed and not keys <= names:
                extras = sorted(keys - names, key=str)
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                errors += (((), f"Additional properties are not allowed ({listed} {verb} unexpected)",
                            typed),)
        elif kind == "array":
            if item is not None and not (numbers_only and _all_json_numbers(x)) and any(map(item, x)):
                errors += tuple(((i,) + path, m, t)
                                for i, value in enumerate(x) for path, m, t in item(value))
            if len(x) < min_items:
                problem = "should be non-empty" if min_items == 1 else "is too short"
                errors += (((), f"{x!r} {problem}", typed),)
            if len(x) > max_items:
                problem = "is expected to be empty" if max_items == 0 else "is too long"
                errors += (((), f"{x!r} {problem}", typed),)
        elif kind == "number":
            if minimum is not None and x < minimum:
                errors += (((), f"{x!r} is less than the minimum of {minimum!r}", typed),)
            if above is not None and x <= above:
                errors += (((), f"{x!r} is less than or equal to the minimum of {above!r}", typed),)
        if const is not _ABSENT and not _equal(x, const):
            errors += (((), f"{const!r} was expected", typed),)
        if enum is not None and not any(_equal(x, v) for v in enum):
            errors += (((), f"{x!r} is not one of {enum!r}", typed),)
        return errors

    compiled[id(schema)] = check
    return check


_COMPILED = {}
_CHECKS = {name: _compile(schema, _COMPILED) for name, schema in SCHEMAS.items()}
