"""Scenario files: JSON schema, loading, and the built-in corpus.

A scenario bundles a nerve, group-valued cocycles (by role), sampled
scalar fields, frame sections, and the list of verification pipelines to
run on them.  Everything is declarative: transition functions and
sections are generator descriptions resolved by :mod:`hfe.generators`,
and loading evaluates every generator once, on the stack of the points
its consumer reads.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .cech import Cocycle, Nerve, chart_stacks
from .config import get_tolerances, loosest, tolerance_overrides
from .errors import SchemaViolation, ValidationError
from .generators import build_generator, parse_complex
from .groups import stack_values

if TYPE_CHECKING:  # _build_scenario imports them for the documents that have them
    from .induction import FrameSectionData, PairSectionData

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


class Scenario:
    """A loaded scenario with every generator evaluated; load_scenario
    sets the optional parts that the document has."""

    def __init__(self, name: str, n: int, k: int, nerve: Nerve, pipelines: list[str],
                 d_adapted: bool, expectations: dict,
                 tolerance_overrides: dict[str, float]):
        self.name = name
        self.n = n
        self.k = k
        self.nerve = nerve
        self.pipelines = pipelines
        self.d_adapted = d_adapted
        self.expectations = expectations
        self.tolerance_overrides = tolerance_overrides
        self.pair_cocycle: Optional[Cocycle] = None
        self.gl_cocycle: Optional[Cocycle] = None
        self.mp_cocycle: Optional[Cocycle] = None
        self.delta_samples: Optional[np.ndarray] = None
        self.sections_first: Optional[FrameSectionData] = None
        self.sections_second: Optional[FrameSectionData] = None
        self.pair_sections: Optional[PairSectionData] = None
        self.self_compat_cases: list[dict] = []
        self.frame_pairs: list[dict] = []
        self.sign_cochains: dict[str, np.ndarray] = {}


def _build_cocycle(doc: dict, nerve: Nerve, n: int, k: int) -> Cocycle:
    """The cocycle a document describes, each generator evaluated once on
    the rows of its component.  Its transitions must name each component
    of the nerve once."""
    pairs = {pair for pair, _ in nerve.keys}
    table: dict[tuple, Callable] = {}
    for tr in doc["transitions"]:
        key = pair, ci = tuple(tr["pair"]), tr["component"]
        if pair not in pairs:
            raise ValidationError(f"cocycle references unknown overlap {pair}")
        if key not in nerve.components:
            raise ValidationError(f"cocycle references unknown component {ci} "
                                  f"of overlap {pair}")
        if key in table:
            raise ValidationError(f"cocycle has two transitions for overlap "
                                  f"{pair} component {ci}")
        table[key] = build_generator(tr["generator"], n, k)
    missing = [key for key in nerve.keys if key not in table]
    if missing:
        pair = missing[0][0]
        raise ValidationError(f"cocycle missing transitions for {pair} components "
                              f"{[ci for p, ci in missing if p == pair]}")
    return Cocycle.evaluate(doc["group"], n, k, nerve, [table[key] for key in nerve.keys])


def _build_chart_generators(doc: dict, nerve: Nerve, n: int, k: int
                            ) -> dict[str, Callable]:
    out = {}
    for ch, gen in doc.items():
        if ch not in nerve.charts:
            raise ValidationError(f"generator for unknown chart {ch!r}")
        out[ch] = build_generator(gen, n, k)
    return out


def _build_delta_samples(doc: dict, nerve: Nerve, n: int, k: int) -> np.ndarray:
    """Delta-sample generators, one per chart, each evaluated once on its
    chart's rows of the nerve: the (R,) stack of their scalar values."""
    values, = chart_stacks(nerve, _build_chart_generators(doc, nerve, n, k),
                           "delta sample", ((),), "a scalar")
    return values


def _build_frame(spec: dict, n: int, k: int, what: str
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A frame (U, V) generator evaluated once, at the origin."""
    U, V = stack_values([(build_generator(spec, n, k), np.zeros((1, 0)), ["origin"])],
                        ((n, n), (n, n)), lambda r: f"{what} is not a frame (U, V) for n={n}")
    return U[0], V[0]


def _expected_delta(fp: dict) -> complex:
    """A frame pair's expected delta, which must be a finite complex scalar."""
    what = f"expected delta of frame pair {fp['name']!r}"
    try:
        value = parse_complex(fp["expected_delta"])
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{what} at origin is not finite")
    return value


def _build_sign_cochain(name: str, doc: dict, nerve: Nerve) -> np.ndarray:
    """The bits over nerve.triples of a degree-2 sign cochain: 1 where
    its last value at a triple point is -1.  A value at a triple point
    that the nerve does not have raises ValidationError."""
    signs = {(tuple(v["triple"]), v["point"]): v["sign"] for v in doc["values"]}
    known = set(nerve.triples)
    for key, point in signs:
        if (key, point) not in known:
            raise ValidationError(f"sign cochain {name!r} names point {point!r} of "
                                  f"triple {list(key)}, which the nerve does not have")
    return np.array([signs.get(tp) == -1 for tp in nerve.triples], dtype=np.uint8)


def run_tolerances(document: dict[str, float],
                   tolerances: Optional[dict[str, float]] = None) -> dict[str, float]:
    """The tolerance overrides of a run: a document's, overridden by
    ``tolerances``.  They pass the document's checks: the schema's
    ``tolerances`` subschema, and finiteness."""
    overrides = {**document, **(tolerances or {})}
    _check_schema(overrides, SCENARIO_SCHEMA["properties"]["tolerances"], ("tolerances",))
    # json reads NaN and Infinity, and the schema's exclusiveMinimum lets
    # both through; so it does an integer beyond the float range
    nonfinite = sorted(key for key, value in overrides.items()
                       if not abs(value) <= sys.float_info.max)
    if nonfinite:
        raise ValidationError(f"tolerances {nonfinite} must be finite")
    return overrides


def load_scenario(source: str | Path | dict,
                  tolerances: Optional[dict[str, float]] = None) -> Scenario:
    """Load and validate a scenario from a path or a dict, at the
    loosest of the current tolerances and those of a run of it
    (run_tolerances): what a run tightens, its stages judge."""
    if isinstance(source, dict):
        doc = source
    else:
        # JSON text is UTF-8 (RFC 8259)
        text = Path(source).read_text(encoding="utf-8")
        doc = json.loads(text)
    _check_schema(doc)
    overrides = run_tolerances(doc.get("tolerances", {}), tolerances)
    base = get_tolerances()
    run = base.with_overrides(**overrides)
    with tolerance_overrides(**loosest(base, run).as_dict()):
        return _build_scenario(doc)


def _build_scenario(doc: dict) -> Scenario:
    n, k = doc["n"], doc["k"]
    if k > n:
        raise ValidationError("k must not exceed n")
    nerve = Nerve(doc["nerve"])
    sc = Scenario(
        name=doc["name"],
        n=n,
        k=k,
        nerve=nerve,
        pipelines=list(doc["pipelines"]),
        d_adapted=doc.get("d_adapted", False),
        expectations=doc.get("expectations", {}),
        tolerance_overrides=doc.get("tolerances", {}),
    )
    if "pair_cocycle" in doc:
        sc.pair_cocycle = _build_cocycle(doc["pair_cocycle"], nerve, n, k)
    if "gl_cocycle" in doc:
        sc.gl_cocycle = _build_cocycle(doc["gl_cocycle"], nerve, n, k)
    if "mp_cocycle" in doc:
        sc.mp_cocycle = _build_cocycle(doc["mp_cocycle"], nerve, n, k)
    if "delta_samples" in doc:
        sc.delta_samples = _build_delta_samples(doc["delta_samples"], nerve, n, k)
    sections = doc.get("sections", {})
    if sections or "pair_sections" in doc:
        from .induction import FrameSectionData, PairSectionData
    if "first" in sections:
        sc.sections_first = FrameSectionData.evaluate(
            nerve, n, _build_chart_generators(sections["first"], nerve, n, k))
    if "second" in sections:
        sc.sections_second = FrameSectionData.evaluate(
            nerve, n, _build_chart_generators(sections["second"], nerve, n, k))
    if "pair_sections" in doc:
        sc.pair_sections = PairSectionData.evaluate(
            nerve, n, _build_chart_generators(doc["pair_sections"], nerve, n, k))
    for case in doc.get("self_compat", []):
        sc.self_compat_cases.append(
            {
                "name": case["name"],
                "pair_cocycle": _build_cocycle(case["pair_cocycle"], nerve, n, k),
                "delta_samples": _build_delta_samples(
                    case["delta_samples"], nerve, n, k
                ),
            }
        )
    for fp in doc.get("frame_pairs", []):
        sc.frame_pairs.append(
            {
                "name": fp["name"],
                "first": _build_frame(fp["first"], n, fp["k"],
                                      f"frame pair {fp['name']!r} first member"),
                "second": _build_frame(fp["second"], n, fp["k"],
                                       f"frame pair {fp['name']!r} second member"),
                "k": fp["k"],
                "expected_delta": _expected_delta(fp),
            }
        )
    for name, sdoc in doc.get("sign_cochains", {}).items():
        sc.sign_cochains[name] = _build_sign_cochain(name, sdoc, nerve)
    return sc


_BUILTIN_DIR = Path(__file__).parent / "scenarios"


def builtin_scenario_names() -> list[str]:
    """Names of the scenarios shipped with the package."""
    return sorted(p.stem for p in _BUILTIN_DIR.glob("*.json"))


def builtin_scenario_path(name: str) -> Path:
    path = _BUILTIN_DIR / f"{name}.json"
    if not path.is_file():
        raise ValidationError(f"no built-in scenario named {name!r}")
    return path
