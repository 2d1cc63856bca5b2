"""Generators evaluated on stacks of sample points give, bit for bit, the
values the former per-point generators gave at each point, on every
generator of the corpus and of the golden dense rings, at the points
the loader evaluates it on."""

import cmath
import json
from cmath import sqrt as principal_sqrt
from pathlib import Path

import numpy as np
import pytest

from hfe import ball
from hfe.errors import ValidationError
from hfe.generators import build_generator, parse_complex, parse_matrix
from hfe.groups import alpha0_det
from hfe.nerve import Nerve
from hfe.scenario import builtin_scenario_names, builtin_scenario_path
from hfe.smallmat import det

GOLDEN_SCENARIOS = Path(__file__).parent / "golden" / "scenarios"


# ---------------------------------------------------------------------------
# the former per-point generators, each a callable from the params of one
# sample point to a plain value: a scalar, a matrix, or a tuple of such
# values
# ---------------------------------------------------------------------------

def _param(pt, idx=0):
    return pt[idx] if len(pt) > idx else 0.0


def _zeta(params, det_value):
    if "zeta" in params:
        return parse_complex(params["zeta"])
    return int(params.get("sheet", 1)) * principal_sqrt(det_value)


def _blocks(params, n, k):
    A = parse_matrix(params["A"]).real if k else np.zeros((0, 0))
    B = parse_matrix(params["B"]) if "B" in params else np.zeros((k, n - k))
    Wr0 = parse_matrix(params["Wr"])
    Wslope = parse_matrix(params["Wr_slope"]) if "Wr_slope" in params else None
    Cr = parse_matrix(params["Cr"])

    def Wr(pt):
        return Wr0 if Wslope is None else Wr0 + _param(pt) * Wslope

    return A, B, Wr, Cr


def _block_frame(A, B, Wr, Cr):
    n = A.shape[0] + Wr.shape[0]
    k = A.shape[0]
    Ur, Vr = ball.phi_inv_raw(Wr, Cr)
    U = np.zeros((n, n), dtype=complex)
    V = np.zeros((n, n), dtype=complex)
    U[:k, :k] = A
    U[:k, k:] = B
    U[k:, k:] = Ur
    V[k:, k:] = Vr
    return U, V


def _meta_member(spec, n, k):
    A, B, Wr, Cr = _blocks(spec, n, k)
    C = np.zeros((n, n), dtype=complex)
    C[:k, :k] = A
    C[:k, k:] = B
    C[k:, k:] = Cr
    z = int(spec.get("zsign", 1)) * principal_sqrt(det(C))

    def fn(pt):
        W = np.zeros((n, n), dtype=complex)
        W[:k, :k] = np.eye(k)
        W[k:, k:] = Wr(pt)
        return W, C, z

    return fn


def _mobius(params):
    wa, wb = parse_complex(params["w_a"]), parse_complex(params["w_b"])

    def fn(pt):
        z = complex(_param(pt, 0), _param(pt, 1))
        num = 1.0 + 0j if wa == complex("inf") else z - wa
        den = 1.0 + 0j if wb == complex("inf") else z - wb
        return np.array([[num / den]], dtype=complex)

    return fn


def _former(spec, n, k):
    """The former per-point generator of a description."""
    p = spec.get("params", {})
    name = spec["name"]
    if name == "const":
        M = parse_matrix(p["value"])
        return lambda pt: M
    if name == "pair_const":
        pair = parse_matrix(p["first"]), parse_matrix(p["second"])
        return lambda pt: pair
    if name == "mp_const":
        g = parse_matrix(p["g"]).real
        value = (g, _zeta(p, alpha0_det(g)))
        return lambda pt: value
    if name == "mp_rotation":
        theta = float(p["theta"])
        g = np.array([[np.cos(theta), np.sin(theta)],
                      [-np.sin(theta), np.cos(theta)]])
        value = (g, int(p.get("sheet", 1)) * cmath.exp(0.5j * theta))
        return lambda pt: value
    if name == "const_scalar":
        v = parse_complex(p["value"])
        return lambda pt: v
    if name == "linear_scalar":
        c0, c1 = parse_complex(p["const"]), parse_complex(p.get("slope", 0.0))
        return lambda pt: c0 + c1 * _param(pt)
    if name == "mobius_ratio":
        return _mobius(p)
    if name == "frame_const":
        UV = parse_matrix(p["U"]), parse_matrix(p["V"])
        return lambda pt: UV
    if name == "frame_phi_inv":
        UV = ball.phi_inv_raw(parse_matrix(p["W"]), parse_matrix(p["C"]))
        return lambda pt: UV
    if name == "frame_blocks":
        A, B, Wr, Cr = _blocks(p, n, k)
        return lambda pt: _block_frame(A, B, Wr(pt), Cr)
    if name == "meta_pair_blocks":
        f1, f2 = _meta_member(p["first"], n, k), _meta_member(p["second"], n, k)
        return lambda pt: (f1(pt), f2(pt))
    raise AssertionError(f"no former generator {name!r}")


def _flat(value):
    """The arrays of a plain value, depth first."""
    if isinstance(value, tuple):
        return [a for member in value for a in _flat(member)]
    return [np.asarray(value)]


# ---------------------------------------------------------------------------
# every generator of a document with the points the loader evaluates it on
# ---------------------------------------------------------------------------

def _evaluations(doc):
    """(label, spec, n, k, params, ids, points) of every generator of a
    document: the params and ids of the nerve's rows it is evaluated on,
    and the former sample points of those rows, as (params, id) read off
    the document.  On the chart rows these are the points of each id's
    first overlap row, or ((), "origin") at an origin."""
    n, k = doc["n"], doc["k"]
    nerve = Nerve(doc["nerve"])
    listed = {(tuple(ov["pair"]), ci): [(tuple(pt.get("params", ())), pt["id"])
                                        for pt in comp["points"]]
              for ov in doc["nerve"].get("overlaps", [])
              for ci, comp in enumerate(ov["components"])}
    firsts = {ch: {} for ch in nerve.charts}
    for pair, ci in nerve.keys:
        for ch in pair:
            for params, pid in listed[(pair, ci)]:
                firsts[ch].setdefault(pid, params)

    def cocycle(role, cdoc):
        for tr in cdoc["transitions"]:
            key = tuple(tr["pair"]), tr["component"]
            rows = nerve.components[key]
            yield (f"{role} {tr['pair']}", tr["generator"], n, k,
                   nerve.params[rows], nerve.ids[rows.start:rows.stop], listed[key])

    def charts(role, family):
        for ch, spec in family.items():
            rows = nerve.charts[ch]
            points = [(params, pid) for pid, params in firsts[ch].items()]
            yield (f"{role} {ch}", spec, n, k, nerve.site_params[rows],
                   [pid for _, pid in nerve.sites[rows.start:rows.stop]],
                   points or [((), "origin")])

    for role in ("pair_cocycle", "gl_cocycle", "mp_cocycle"):
        if role in doc:
            yield from cocycle(role, doc[role])
    if "delta_samples" in doc:
        yield from charts("delta_samples", doc["delta_samples"])
    for member, family in doc.get("sections", {}).items():
        yield from charts(f"sections.{member}", family)
    if "pair_sections" in doc:
        yield from charts("pair_sections", doc["pair_sections"])
    for case in doc.get("self_compat", []):
        yield from cocycle(f"self_compat {case['name']}", case["pair_cocycle"])
        yield from charts(f"self_compat {case['name']}", case["delta_samples"])
    for fp in doc.get("frame_pairs", []):
        for member in ("first", "second"):
            yield (f"frame_pairs {fp['name']}", fp[member], n, fp["k"],
                   np.zeros((1, 0)), ["origin"], [((), "origin")])


DOCUMENTS = ([builtin_scenario_path(name) for name in builtin_scenario_names()]
             + sorted(GOLDEN_SCENARIOS.glob("*.json")))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_stacked_generators_match_former_per_point_values(path):
    evaluations = list(_evaluations(json.loads(path.read_text())))
    assert evaluations
    for label, spec, n, k, params, ids, points in evaluations:
        assert ids == [pid for _, pid in points], label
        got = build_generator(spec, n, k)(params, ids)
        former = _former(spec, n, k)
        want = [np.stack(member) for member in
                zip(*(_flat(former(params)) for params, _ in points))]
        assert len(got) == len(want), label
        for a, b in zip(got, want):
            assert a.shape == b.shape, label
            assert np.array_equal(a, b), label


# ---------------------------------------------------------------------------
# block forms at k = n, where the reduced blocks are 0 x 0
# ---------------------------------------------------------------------------

PARAMS, IDS = np.array([[0.0], [1.0]]), ["t0", "t1"]
SHARED = {"A": [[2, 0], [0, -3]], "Wr": [], "Cr": []}


def test_frame_blocks_at_k_equals_n():
    U, V = build_generator({"name": "frame_blocks", "params": {
        **SHARED, "B": [[], []], "Wr_slope": []}}, 2, 2)(PARAMS, IDS)
    assert np.array_equal(U, np.broadcast_to(np.diag([2.0, -3.0]), (2, 2, 2)))
    assert np.array_equal(V, np.zeros((2, 2, 2)))


def test_meta_pair_blocks_at_k_equals_n():
    W1, C1, z1, W2, C2, z2 = build_generator({"name": "meta_pair_blocks", "params": {
        "first": SHARED, "second": {**SHARED, "zsign": -1}}}, 2, 2)(PARAMS, IDS)
    for W, C in ((W1, C1), (W2, C2)):
        assert np.array_equal(W, np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert np.array_equal(C, np.broadcast_to(np.diag([2.0, -3.0]), (2, 2, 2)))
    root = principal_sqrt(np.linalg.det(np.diag([2.0, -3.0])))
    assert z1.tolist() == [root] * 2
    assert z2.tolist() == [-root] * 2


@pytest.mark.parametrize("params, message", [
    ({**SHARED, "Wr": [[]]}, "parameter 'Wr' must be 0 x 0, got 1 x 0"),
    ({**SHARED, "B": []}, "parameter 'B' must be 2 x 0, got 0"),
    ({**SHARED, "A": []}, "parameter 'A' must be 2 x 2, got 0"),
])
def test_empty_list_is_only_a_matrix_without_rows(params, message):
    with pytest.raises(ValidationError, match=message):
        build_generator({"name": "frame_blocks", "params": params}, 2, 2)
