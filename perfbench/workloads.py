"""Seeded scenario documents for the synthetic workloads, and the
reference each verification is checked against.

Both synthetic families are rings of charts: chart i overlaps chart
i+1 (mod N) in one component and there are no triple points, so with
c = N components every one of the 2^c sign patterns is a valid lift,
2^(N-1) of them are coboundaries, and H^1 has two classes.  A twisted
component carries a transition of negative determinant in the first
slot; any subset of twisted components glues, so the seed may choose
the subset freely.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CORPUS = [
    "trivial_r2",
    "circle_mobius",
    "abstract_k1_nonorientable",
    "torus_grid",
    "sphere_octa",
]

RING_PIPELINES = ["validate", "lift", "induce", "delta_tilde"]
DENSE_PIPELINES = ["validate", "lift", "induce", "delta_tilde", "recipe",
                   "delta_D", "cross_check"]

_REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _cplx(rng: random.Random, re: tuple[float, float], im: tuple[float, float]):
    return [round(rng.uniform(*re), 6), round(rng.uniform(*im), 6)]


def _ring(rng: random.Random, n_charts: int, points: int):
    """Chart ids in seeded order, the ring's overlaps as sorted pairs,
    and the seeded set of twisted component indices.

    Point ids are unique across the whole nerve because a chart's sample
    graph merges the points of all its overlaps by id.
    """
    charts = [f"c{i:02d}" for i in range(n_charts)]
    rng.shuffle(charts)
    twisted = {j for j in range(n_charts) if rng.random() < 0.5}
    overlaps = []
    for j in range(n_charts):
        a, b = charts[j], charts[(j + 1) % n_charts]
        pts = [{"id": f"o{j:02d}p{i:02d}", "params": [i / max(points - 1, 1)]}
               for i in range(points)]
        comp = {"points": pts}
        if points > 1:
            comp["edges"] = [[i, i + 1] for i in range(points - 1)]
        overlaps.append({"pair": sorted((a, b)), "components": [comp]})
    return charts, overlaps, twisted


def _pair_cocycle(overlaps, twisted, n: int):
    transitions = []
    for j, ov in enumerate(overlaps):
        g = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
        if j in twisted:
            g[0][0] = -1.0
        transitions.append({
            "pair": ov["pair"], "component": 0,
            "generator": {"name": "pair_const",
                          "params": {"first": g, "second": g}},
        })
    return {"group": "Glkd", "transitions": transitions}


def _delta_samples(rng: random.Random, charts):
    """One linear delta field shared by every chart: the transformation
    factor conj(det D1) det D2 is 1 on every component, so neighbouring
    charts must agree.  For t in [0, 1], |delta| >= 1.0."""
    gen = {"name": "linear_scalar",
           "params": {"const": round(rng.uniform(1.5, 2.5), 6),
                      "slope": round(rng.uniform(-0.5, 0.5), 6)}}
    return {ch: gen for ch in charts}


def ring_enum_doc(seed: int, n_charts: int = 13) -> dict:
    """A ring of n_charts charts with one sample point per overlap, for
    n=1, k=0: all 2^n_charts sign patterns go through GF(2) solving."""
    rng = random.Random(f"ring_enum/{seed}")
    charts, overlaps, twisted = _ring(rng, n_charts, 1)
    return {
        "name": f"ring_enum_{n_charts}",
        "description": f"Seeded ring of {n_charts} charts, one point per "
                       f"overlap, {len(twisted)} twisted components.",
        "n": 1,
        "k": 0,
        "nerve": {"charts": charts, "overlaps": overlaps},
        "pair_cocycle": _pair_cocycle(overlaps, twisted, 1),
        "delta_samples": _delta_samples(rng, charts),
        "pipelines": RING_PIPELINES,
        "expectations": {"lift_classes": 2},
    }


def _block_params(rng: random.Random, with_b: bool, with_slope: bool) -> dict:
    """Reduced Ball point Wr(t) = Wr + t Wr_slope with |Wr(t)| <= 0.5 for
    t in [0, 1], and an invertible reduced frame block Cr."""
    p = {"A": [[1]],
         "Wr": [[_cplx(rng, (-0.25, 0.25), (-0.1, 0.1))]],
         "Cr": [[_cplx(rng, (0.6, 1.6), (-0.4, 0.4))]]}
    if with_b:
        p["B"] = [[_cplx(rng, (-0.4, 0.4), (-0.2, 0.2))]]
    if with_slope:
        p["Wr_slope"] = [[_cplx(rng, (-0.15, 0.15), (-0.05, 0.05))]]
    return p


def dense_samples_doc(seed: int, n_charts: int = 6, points: int = 8) -> dict:
    """The abstract_k1_nonorientable construction (n=2, k=1) scaled to a
    ring of n_charts charts with a path of `points` samples on every
    overlap, running all seven pipelines that construction runs.

    Sections are shared by all charts: the Ball point of a section must
    agree across each overlap, and the twist diag(-1, 1, -1, 1) fixes
    the block-diagonal Ball points these sections have.
    """
    rng = random.Random(f"dense_samples/{seed}")
    charts, overlaps, twisted = _ring(rng, n_charts, points)
    mp = []
    for j, ov in enumerate(overlaps):
        s = -1 if j in twisted else 1
        g = [[s, 0, 0, 0], [0, 1, 0, 0], [0, 0, s, 0], [0, 0, 0, 1]]
        mp.append({"pair": ov["pair"], "component": 0,
                   "generator": {"name": "mp_const",
                                 "params": {"g": g,
                                            "zeta": [0, 1] if s < 0 else 1}}})
    first = {"name": "frame_blocks", "params": _block_params(rng, True, True)}
    second = {"name": "frame_blocks", "params": _block_params(rng, False, True)}
    pair = {"name": "meta_pair_blocks",
            "params": {"first": _block_params(rng, True, True),
                       "second": _block_params(rng, False, False)}}
    return {
        "name": f"dense_samples_{n_charts}x{points}",
        "description": f"Seeded ring of {n_charts} charts with {points} "
                       f"points per overlap, {len(twisted)} twisted "
                       "components, n=2, k=1.",
        "n": 2,
        "k": 1,
        "nerve": {"charts": charts, "overlaps": overlaps},
        "pair_cocycle": _pair_cocycle(overlaps, twisted, 2),
        "delta_samples": _delta_samples(rng, charts),
        "mp_cocycle": {"group": "Mp", "transitions": mp},
        "d_adapted": True,
        "sections": {"first": {ch: first for ch in charts},
                     "second": {ch: second for ch in charts}},
        "pair_sections": {ch: pair for ch in charts},
        "pipelines": DENSE_PIPELINES,
        "expectations": {"lift_classes": 2},
    }


def overlap_points(doc: dict) -> int:
    """Overlap sample points of a scenario document."""
    return sum(len(comp["points"])
               for ov in doc["nerve"].get("overlaps", [])
               for comp in ov["components"])


_RING_CHECKS = [
    "nerve.structure", "cocycle.pair", "pair_data.consistency",
    "lift.double-cover", "lift.class-count", "induce.compatible",
    "delta_tilde.glue", "delta_tilde.unique-class",
    "delta_tilde.equivalent-glues", "delta_tilde.inequivalent-fails",
]
_DENSE_CHECKS = _RING_CHECKS[:2] + ["cocycle.mp"] + _RING_CHECKS[2:] + [
    "recipe.projection", "recipe.sheet-coboundary", "delta_D.glue",
    "cross_check.agreement",
]


def ring_reference(doc: dict) -> dict:
    """Reference for a generated ring: the counts follow from the nerve.

    A ring of N charts has c = N components and no triple points, so
    every pattern is valid (2^c), the coboundaries are the image of
    delta0 of rank N-1, and there are two classes.
    """
    n_charts = len(doc["nerve"]["charts"])
    comps = sum(len(ov["components"]) for ov in doc["nerve"]["overlaps"])
    valid, cob = 2 ** comps, 2 ** (n_charts - 1)
    checks = _DENSE_CHECKS if "recipe" in doc["pipelines"] else _RING_CHECKS
    return {
        "checks": list(checks),
        "details": {
            "lift.class-count": {"valid_lifts": valid, "coboundaries": cob,
                                 "classes": valid // cob},
        },
    }


def corpus_reference() -> dict:
    """Per built-in scenario: the check ids and the verdict details
    (lift counts, self-compatibility epsilons, obstruction verdicts)
    recorded from the engine as first benchmarked.  Residuals and
    witnesses are left out: they may change without a verdict changing."""
    return json.loads((_REFERENCE_DIR / "corpus.json").read_text())


def check_report(report: dict, reference: dict) -> tuple[list[str], list[str]]:
    """Compare one JSON report with its reference.

    Returns (problems, extra check ids).  Any problem fails the
    verification; extra ids are only reported.
    """
    problems = []
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    checks = {c["id"]: c for c in report.get("checks", [])}
    for cid in reference["checks"]:
        if cid not in checks:
            problems.append(f"missing check {cid}")
        elif checks[cid].get("pass") is not True:
            problems.append(f"check {cid} failed")
    for cid, want in reference.get("details", {}).items():
        got = checks.get(cid, {}).get("details", {})
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{cid}.{key} = {got.get(key)!r}, "
                                f"expected {value!r}")
    extra = sorted(set(checks) - set(reference["checks"]))
    return problems, extra
