"""Scenario files: loading, and the built-in corpus.

A scenario bundles a nerve, group-valued cocycles (by role), sampled
scalar fields, frame sections, and the list of verification pipelines to
run on them.  Everything is declarative: transition functions and
sections are generator descriptions resolved by :mod:`hfe.generators`,
and loading evaluates every generator once, on the stack of the points
its consumer reads.  This module is the one place that evaluates
generators: it holds each role's layout, the shapes of the arrays a
generator returns for it, and the rule that names the first bad row.
A document is first checked against the scenario schema of
:mod:`hfe.schema`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import groups as G
from .cech import Cocycle
from .config import get_tolerances, loosest, tolerance_overrides
from .errors import ValidationError, raise_first
from .generators import build_generator, parse_complex
from .nerve import Nerve
from .schema import SCENARIO_SCHEMA, _check_schema


class Scenario:
    """A loaded scenario with every generator evaluated; load_scenario
    sets the optional parts that the document has.

    A frame-section family (sections_first, sections_second) is the
    stacks (U, V), each (R, n, n), of its frames at every chart row of
    the nerve; the transport checks them as positive Lagrangian frames.
    pair_sections is the stacks (W1, C1, z1, W2, C2, z2) of a pair of
    meta frames (W, (C, z)) in block form at every chart row, the W and
    C (R, n, n) and the z (R,); build_delta_D_tilde checks them as Ball
    points and metalinear frames."""

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
        self.sections_first: Optional[tuple[np.ndarray, ...]] = None
        self.sections_second: Optional[tuple[np.ndarray, ...]] = None
        self.pair_sections: Optional[tuple[np.ndarray, ...]] = None
        self.self_compat_cases: list[dict] = []
        self.frame_pairs: list[dict] = []
        self.sign_cochains: dict[str, np.ndarray] = {}


def stack_values(parts: Sequence[tuple[Callable, np.ndarray, Sequence[str]]],
                 layout: tuple, error: Callable[[int], str]) -> list[np.ndarray]:
    """Evaluate generators on stacks of rows of the nerve and stack their
    values.  ``parts`` lists, in row order, triples (fn, params, ids) of
    P rows each: fn(params, ids) is called once and returns one array of
    shape (P, *shape) per shape of the layout.  Returns one complex stack
    (R, *shape) per shape, R the total row count; raises
    ValidationError(error(r)) for r the first row of the first part whose
    arrays do not fit the layout, or else for the first row with a NaN or
    infinite entry."""
    values = [(fn(params, ids), len(params)) for fn, params, ids in parts]
    row = 0
    for arrays, size in values:
        if len(arrays) != len(layout) or any(
                np.shape(a) != (size, *shape) for a, shape in zip(arrays, layout)):
            raise ValidationError(error(row))
        row += size
    stacks = [np.concatenate([np.empty((0, *shape), dtype=complex)]
                             + [arrays[i] for arrays, _ in values])
              for i, shape in enumerate(layout)]
    finite = np.logical_and.reduce(
        [np.isfinite(s).all(axis=tuple(range(1, s.ndim))) for s in stacks])
    raise_first([(~finite, lambda r: ValidationError(
        f"{error(r)}: it has a non-finite entry"))])
    return stacks


def evaluate_cocycle(group: str, n: int, k: int, nerve: Nerve,
                     transitions: Sequence[Callable]) -> Cocycle:
    """The cocycle whose transition on each component of nerve.keys is
    the generator in the same place of transitions, evaluated once on
    the stack of the component's rows by stack_values.  group is one of
    the schema's cocycle groups: a value of an n x n matrix (Gl), a pair
    of them (Glkd) or a 2n x 2n matrix with its anchor (Mp) that does
    not fit that layout raises ValidationError, and so does an Mp value
    that is not in its group.  An Ml cocycle is not evaluated from
    generators: Cocycle.ml builds one from its stacks."""
    square = (n, n)
    layout = {"Gl": (square,), "Glkd": (square, square),
              "Mp": ((2 * n, 2 * n), ())}[group]
    stacks = stack_values(
        [(fn, nerve.params[rows.start:rows.stop], nerve.ids[rows.start:rows.stop])
         for fn, rows in zip(transitions, nerve.components.values(), strict=True)],
        layout,
        lambda r: f"transition of {nerve.keys[nerve.comp[r]][0]} at "
                  f"{nerve.ids[r]} is not a {group} value for n={n}")
    if group == "Glkd":
        return Cocycle(group, n, k, np.stack(stacks, axis=1))
    if group == "Mp":
        # a copy, so that the stack is contiguous
        g = stacks[0].real.copy()
        G.check_sp(g)
        dets = G.alpha0_det(g)
        G.check_mp(dets, stacks[1])
        return Cocycle(group, n, k, g, stacks[1], dets)
    return Cocycle(group, n, k, *stacks)


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
    return evaluate_cocycle(doc["group"], n, k, nerve, [table[key] for key in nerve.keys])


def chart_stacks(doc: dict, nerve: Nerve, n: int, k: int, role: str,
                 layout: tuple, kind: str) -> tuple[np.ndarray, ...]:
    """The generators of a chart role, one per chart, each evaluated once
    on the stack of its chart's rows of the nerve, by stack_values.  A
    generator for a chart the nerve does not have, a chart without a
    generator, or a value that is not ``kind`` (of the layout) raises
    ValidationError."""
    generators = {}
    for ch, gen in doc.items():
        if ch not in nerve.charts:
            raise ValidationError(f"generator for unknown chart {ch!r}")
        generators[ch] = build_generator(gen, n, k)
    sites = nerve.sites
    missing = sorted(set(nerve.charts) - set(generators))
    if missing:
        raise ValidationError(f"no {role} for charts {missing}")
    parts = [(generators[ch], nerve.site_params[rows.start:rows.stop],
              [pid for _, pid in sites[rows.start:rows.stop]])
             for ch, rows in nerve.charts.items()]
    return tuple(stack_values(parts, layout,
                              lambda r: f"{role} of chart {sites[r][0]!r} at "
                                        f"{sites[r][1]} is not {kind}"))


def _build_delta_samples(doc: dict, nerve: Nerve, n: int, k: int) -> np.ndarray:
    """Delta-sample generators, one per chart, each evaluated once on its
    chart's rows of the nerve: the (R,) stack of their scalar values."""
    values, = chart_stacks(doc, nerve, n, k, "delta sample", ((),), "a scalar")
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
    # the schema's integers include floats such as 1.0: read as ints
    n, k = int(doc["n"]), int(doc["k"])
    frame_pairs = [{**fp, "k": int(fp["k"])} for fp in doc.get("frame_pairs", [])]
    if k > n:
        raise ValidationError("k must not exceed n")
    for fp in frame_pairs:
        if fp["k"] > n:
            raise ValidationError(f"frame pair {fp['name']!r}: k must not exceed n")
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
    frame = ((n, n), (n, n))
    if "first" in sections:
        sc.sections_first = chart_stacks(sections["first"], nerve, n, k, "section",
                                         frame, f"a frame (U, V) for n={n}")
    if "second" in sections:
        sc.sections_second = chart_stacks(sections["second"], nerve, n, k, "section",
                                          frame, f"a frame (U, V) for n={n}")
    if "pair_sections" in doc:
        meta = ((n, n), (n, n), ())
        sc.pair_sections = chart_stacks(doc["pair_sections"], nerve, n, k, "pair section",
                                        meta + meta,
                                        f"a pair of meta frames (W, C, z) for n={n}")
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
    for fp in frame_pairs:
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
    """The file of a built-in scenario, one that builtin_scenario_names
    lists."""
    return _BUILTIN_DIR / f"{name}.json"
