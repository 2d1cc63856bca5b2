"""The scenario JSON schema and its checker.

``SCENARIO_SCHEMA`` is the Draft 2020-12 schema of a scenario document,
and ``_check_schema`` checks a document against it, or against one of
its subschemas, with no validator library: ``_violation`` implements
the keywords the schema uses (``CHECKED_KEYWORDS``), and words each
violation as the tests' reference validator words it.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional

from .errors import SchemaViolation

_GENERATOR = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "params": {"type": "object"},
    },
    "required": ["name"],
    "additionalProperties": False,
}


def _cocycle(group: str) -> dict:
    """The schema of a cocycle role whose consumer accepts only one group."""
    return {
        "type": "object",
        "properties": {
            "group": {"type": "string", "enum": [group]},
            "transitions": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "pair": {"type": "array", "items": {"type": "string"},
                                 "minItems": 2, "maxItems": 2},
                        "component": {"type": "integer", "minimum": 0},
                        "generator": _GENERATOR,
                    },
                    "required": ["pair", "component", "generator"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["group", "transitions"],
        "additionalProperties": False,
    }


_CHART_GENERATORS = {"type": "object", "additionalProperties": _GENERATOR}

SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hfe scenario",
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "n": {"type": "integer", "minimum": 0},
        "k": {"type": "integer", "minimum": 0},
        "nerve": {
            "type": "object",
            "properties": {
                "charts": {"type": "array", "items": {"type": "string"},
                           "minItems": 1},
                "overlaps": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "pair": {"type": "array", "items": {"type": "string"},
                                     "minItems": 2, "maxItems": 2},
                            "components": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "properties": {
                                        "points": {
                                            "type": "array",
                                            "items": {
                                                "type": "object",
                                                "properties": {
                                                    "id": {"type": "string"},
                                                    "params": {
                                                        "type": "array",
                                                        "items": {"type": "number"},
                                                    },
                                                },
                                                "required": ["id"],
                                                "additionalProperties": False,
                                            },
                                        },
                                        "edges": {
                                            "type": "array",
                                            "items": {
                                                "type": "array",
                                                "items": {"type": "integer"},
                                                "minItems": 2,
                                                "maxItems": 2,
                                            },
                                        },
                                        "contractible": {"type": "boolean"},
                                    },
                                    "required": ["points"],
                                    "additionalProperties": False,
                                },
                            },
                        },
                        "required": ["pair", "components"],
                        "additionalProperties": False,
                    },
                },
                "triples": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "key": {"type": "array", "items": {"type": "string"},
                                    "minItems": 3, "maxItems": 3},
                            "points": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "properties": {
                                        "id": {"type": "string"},
                                        "memberships": {
                                            "type": "object",
                                            "additionalProperties": {
                                                "type": "array",
                                                "items": {"type": "integer"},
                                                "minItems": 2,
                                                "maxItems": 2,
                                            },
                                        },
                                    },
                                    "required": ["id", "memberships"],
                                    "additionalProperties": False,
                                },
                            },
                        },
                        "required": ["key", "points"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["charts"],
            "additionalProperties": False,
        },
        "pair_cocycle": _cocycle("Glkd"),
        "gl_cocycle": _cocycle("Gl"),
        "mp_cocycle": _cocycle("Mp"),
        "d_adapted": {"type": "boolean"},
        "delta_samples": _CHART_GENERATORS,
        "sections": {
            "type": "object",
            "properties": {
                "first": _CHART_GENERATORS,
                "second": _CHART_GENERATORS,
            },
            "additionalProperties": False,
        },
        "pair_sections": _CHART_GENERATORS,
        "self_compat": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "pair_cocycle": _cocycle("Glkd"),
                    "delta_samples": _CHART_GENERATORS,
                },
                "required": ["name", "pair_cocycle", "delta_samples"],
                "additionalProperties": False,
            },
        },
        "frame_pairs": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "first": _GENERATOR,
                    "second": _GENERATOR,
                    "k": {"type": "integer", "minimum": 0},
                    "expected_delta": {},
                },
                "required": ["name", "first", "second", "k", "expected_delta"],
                "additionalProperties": False,
            },
        },
        "sign_cochains": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "degree": {"type": "integer", "enum": [2]},
                    "values": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "triple": {"type": "array",
                                           "items": {"type": "string"},
                                           "minItems": 3, "maxItems": 3},
                                "point": {"type": "string"},
                                "sign": {"type": "integer", "enum": [1, -1]},
                            },
                            "required": ["triple", "point", "sign"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["degree", "values"],
                "additionalProperties": False,
            },
        },
        "pipelines": {"type": "array", "items": {"type": "string"}},
        "expectations": {
            "type": "object",
            "properties": {
                "lift_classes": {"type": "integer", "minimum": 1},
                "obstructed": {"type": "boolean"},
                "self_compat_eps": {"type": "object",
                                    "additionalProperties": {"enum": [0, 1]}},
                "sign_cochains": {"type": "object", "additionalProperties": {
                    "enum": ["feasible", "infeasible"]}},
            },
            "additionalProperties": False,
        },
        "tolerances": {"type": "object", "additionalProperties": False,
                       "properties": {key: {"type": "number", "exclusiveMinimum": 0}
                                      for key in ("rel", "abs", "singular", "track")}},
    },
    "required": ["name", "n", "k", "nerve", "pipelines"],
    "additionalProperties": False,
}

# Draft 2020-12 type checks: bool is neither an integer nor a number,
# and an integral float is an integer.  A number is real: JSON has no
# complex numbers, and an API caller's complex tolerance is not one.
_TYPES: dict[str, Callable] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}

# The keywords _violation implements; the schema uses no others.
CHECKED_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "enum",
})


def _violation(value, schema: dict) -> Optional[tuple[tuple, str]]:
    """None, or the path and message of the first violation of ``schema``
    by ``value`` under Draft 2020-12, worded as the tests' reference
    validator words it, for the keywords in CHECKED_KEYWORDS.  A node's
    own keywords come first, in the order type, required,
    additionalProperties: false (every extra key in one message),
    minItems, maxItems, minimum, exclusiveMinimum, enum; then its
    children, in schema order, then document order.  NaN and Infinity
    pass ``minimum`` and ``exclusiveMinimum``, as in that validator."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return (), f"{value!r} is not of type {kind!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return (), f"{key!r} is a required property"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if extra is False and not value.keys() <= props.keys():
            extras = sorted((key for key in value if key not in props), key=str)
            return (), (f"Additional properties are not allowed ("
                        f"{', '.join(map(repr, extras))} "
                        f"{'was' if len(extras) == 1 else 'were'} unexpected)")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return (), f"{value!r} " + ("should be non-empty" if schema["minItems"] == 1
                                        else "is too short")
        if len(value) > schema.get("maxItems", math.inf):
            return (), f"{value!r} " + ("is expected to be empty" if schema["maxItems"] == 0
                                        else "is too long")
    elif _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return (), f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return (), (f"{value!r} is less than or equal to the minimum of "
                        f"{schema['exclusiveMinimum']!r}")
    # enum members are scalars; True equals 1 in Python but not in JSON
    if "enum" in schema and not any(
            value == member and isinstance(value, bool) == isinstance(member, bool)
            for member in schema["enum"]):
        return (), f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        for key, sub in props.items():
            if key in value and (found := _violation(value[key], sub)):
                return (key, *found[0]), found[1]
        if isinstance(extra, dict):
            for key, item in value.items():
                if key not in props and (found := _violation(item, extra)):
                    return (key, *found[0]), found[1]
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            if found := _violation(item, schema["items"]):
                return (i, *found[0]), found[1]
    return None


def _check_schema(doc, schema: dict = SCENARIO_SCHEMA, path: tuple = ()) -> None:
    """Raise SchemaViolation for the first violation of ``schema`` in
    ``doc`` (see _violation), the value at ``path`` of a scenario."""
    found = _violation(doc, schema)
    if found is not None:
        raise SchemaViolation(path + found[0], found[1])
