import copy
import itertools
import json
import tracemalloc
from cmath import sqrt as principal_sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfe import ball
from hfe.cech import (
    Cocycle,
    _gf2_nullspace,
    _gf2_reduce,
    _membership_residuals,
    chart_signs,
    gf2_solve,
    lift_classes,
    lift_double_cover,
    lifts_equivalent,
    push_cocycle,
    validate_cocycle,
    z2_coboundary_solve,
)
from hfe.errors import TrackingError, ValidationError
from hfe.groups import mp_mul
from hfe.nerve import Nerve
from hfe.scenario import (
    _build_sign_cochain,
    builtin_scenario_names,
    builtin_scenario_path,
    evaluate_cocycle,
)
from hfe.smallmat import det
from hfe.tracking import Walk

from helpers import by_key, component, nerve_doc, per_point, random_sp

GOLDEN_SCENARIOS = Path(__file__).parent / "golden" / "scenarios"
# every corpus scenario and golden dense ring, by its file name
CORPUS = pytest.mark.parametrize(
    "path", [builtin_scenario_path(name) for name in builtin_scenario_names()]
    + sorted(GOLDEN_SCENARIOS.glob("*.json")), ids=lambda path: path.stem)
SIDES = (("a", "b"), ("b", "c"), ("a", "c"))


def _const(value):
    M = np.array(value, dtype=complex)
    return per_point(lambda *_: M)


def triangle_nerve(points=("p",)):
    comp = component(points, [(i, i + 1) for i in range(len(points) - 1)])
    return Nerve(nerve_doc("abc", {pair: [comp] for pair in SIDES}, {("a", "b", "c"): [
        (p, {pair: (0, i) for pair in SIDES}) for i, p in enumerate(points)]}))


def circle_nerve():
    return Nerve(nerve_doc("ab", {("a", "b"): [component(["east"]), component(["west"])]}))


def test_nerve_rejects_malformed():
    with pytest.raises(ValidationError, match="duplicate chart ids"):
        Nerve(nerve_doc("aa"))
    with pytest.raises(ValidationError, match="sorted pairs"):
        Nerve(nerve_doc("ab", {("b", "a"): [component(["p"])]}))
    with pytest.raises(ValidationError, match="disconnected"):
        Nerve(nerve_doc("ab", {("a", "b"): [component(["p", "q"])]}))


def test_validate_cocycle_accepts_consistent_triangle():
    nerve = triangle_nerve()
    c = evaluate_cocycle("Gl", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_const([[2.0]]),),
        ("b", "c"): (_const([[3.0]]),),
        ("a", "c"): (_const([[6.0]]),),
    }))
    out = validate_cocycle(nerve, c)
    assert out["ok"] and out["max_residual"] < 1e-12


def test_validate_cocycle_flags_broken_identity():
    nerve = triangle_nerve()
    c = evaluate_cocycle("Gl", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_const([[2.0]]),),
        ("b", "c"): (_const([[3.0]]),),
        ("a", "c"): (_const([[5.0]]),),
    }))
    out = validate_cocycle(nerve, c)
    assert not out["ok"]
    assert any(f[0] == "cocycle" for f in out["failures"])


def _rotation(theta, sheet=1):
    g = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    value = (g, sheet * np.exp(0.5j * theta))
    return per_point(lambda *_: value)


@pytest.mark.parametrize("sheet", [1, -1])
def test_validate_mp_cocycle_on_triangle(sheet):
    # rotations by 0.7 and 1.9 compose to 2.6 with the anchors
    # e^{i theta/2}; the other sheet over t_ac misses the product's
    # anchor by 2 at both triple points
    nerve = triangle_nerve(("p", "q"))
    c = evaluate_cocycle("Mp", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_rotation(0.7),),
        ("b", "c"): (_rotation(1.9),),
        ("a", "c"): (_rotation(2.6, sheet),),
    }))
    out = validate_cocycle(nerve, c)
    if sheet == 1:
        assert out["ok"] and out["max_residual"] < 1e-12
    else:
        assert [f[:3] for f in out["failures"]] == [
            ("cocycle", ("a", "b", "c"), "p"), ("cocycle", ("a", "b", "c"), "q")]
        assert abs(out["max_residual"] - 2.0) < 1e-12


def _alpha0_root(g, sign=1.0):
    """sign times the principal root of det alpha(g, 0)."""
    n = len(g) // 2
    return sign * principal_sqrt(det(ball.alpha_raw(g, np.zeros((n, n)))[1]))


def test_mp_triangle_residuals_are_pinned():
    # An n = 2 triangle of seeded random_sp elements, t_ac = t_ab t_bc,
    # with a perturbed t_ab anchor at p2 (membership), a perturbed t_ac
    # anchor at p0 (membership and cocycle) and the other t_ac sheet at
    # p3 (cocycle).  The values below were re-recorded when determinants,
    # and again when products, moved to the closed forms of hfe.smallmat,
    # and when the tracked anchors moved to track_sqrt's closed form, each
    # of which moves their last bits; no golden report reaches mp_mul or
    # these residuals.
    ids = ("p0", "p1", "p2", "p3")
    nerve = triangle_nerve(ids)
    rng = np.random.default_rng(19)
    values = {}
    for i, p in enumerate(ids):
        g1, g2 = random_sp(rng, 2), random_sp(rng, 2)
        values[p] = ((g1, _alpha0_root(g1, 1 + 3e-9 if i == 2 else 1.0)),
                     (g2, _alpha0_root(g2)),
                     (g1 @ g2, _alpha0_root(g1 @ g2, {0: 1 + 2e-8, 3: -1.0}.get(i, 1.0))))
    c = evaluate_cocycle("Mp", 2, 0, nerve, by_key(nerve, {
        pair: (per_point(lambda pid, _, j=j: values[pid][j]),)
        for j, pair in enumerate(SIDES)}))
    assert validate_cocycle(nerve, c) == {
        "ok": False, "max_residual": 95.30390661790905, "failures": [
            ("membership", ("a", "b"), 0, "p2", 5.999999835307505e-09),
            ("membership", ("a", "c"), 0, "p0", 4.000000060222288e-08),
            ("cocycle", ("a", "b", "c"), "p0", 3.2463039979152093e-07),
            ("cocycle", ("a", "b", "c"), "p2", 1.4663278704697278e-07),
            ("cocycle", ("a", "b", "c"), "p3", 95.30390661790905)]}
    assert _membership_residuals(c).tolist() == [
        1.5969949940837668e-16, 2.644266862192411e-16, 5.999999835307505e-09, 0.0,
        4.000000060222288e-08, 1.1027924931775653e-16, 1.9034877485339496e-16, 0.0,
        1.4613137057114996e-16, 2.4340666034977294e-17, 1.286577438019938e-16, 0.0]
    # the products of the t_ab and t_bc elements, checked by check_mp
    _, zeta = mp_mul(*(np.array([values[p][j][m] for p in ids])
                       for j in (0, 1) for m in (0, 1)))
    assert zeta.tolist() == [
        (13.70482823627064 - 8.697121239091707j), (8.125634025365422 - 13.845540079751673j),
        (25.309711418204756 + 41.814354084646865j), (32.97611468102113 + 34.39890281248681j)]


def test_gl_cocycle_with_an_overflowing_product_fails():
    # the corner of t_ab t_bc sums 1e400 and -1e400: its NaN residual
    # fails, as the cocycle filter is a negated comparison
    nerve = triangle_nerve()
    values = {("a", "b"): [[1e200, 1e200], [0.0, 1.0]],
              ("b", "c"): [[1e200, 0.0], [-1e200, 1.0]], ("a", "c"): np.eye(2)}
    c = evaluate_cocycle("Gl", 2, 0, nerve, by_key(nerve, {
        pair: (_const(value),) for pair, value in values.items()}))
    report = validate_cocycle(nerve, c)
    assert not report["ok"] and np.isnan(report["max_residual"])
    assert [f[:3] for f in report["failures"]] == [("cocycle", ("a", "b", "c"), "p")]


def test_cocycle_evaluates_each_transition_once_per_component():
    nerve = circle_nerve()
    calls = []

    def fn(params, ids):
        calls.append(list(ids))
        return (np.ones((len(params), 1, 1)),)

    c = evaluate_cocycle("Gl", 1, 0, nerve, [fn, _const([[2.0]])])
    assert calls == [["east"]]
    assert np.allclose(c.mats, [np.eye(1), [[2.0]]])
    # one call on the stack of a component's two points
    calls.clear()
    c = evaluate_cocycle("Gl", 1, 0, triangle_nerve(("p", "q")), [fn] * 3)
    assert calls == [["p", "q"]] * 3
    assert c.mats.tolist() == [[[1.0]]] * 6
    # one generator per component
    with pytest.raises(ValueError):
        evaluate_cocycle("Gl", 1, 0, nerve, [fn])


def test_push_cocycle_pair_first():
    nerve = circle_nerve()
    pc = evaluate_cocycle("Glkd", 1, 0, nerve, [
        per_point(lambda *_: (np.array([[2.0]]), np.array([[5.0]])))] * 2)
    first = push_cocycle(pc)
    assert first.group == "Gl"
    assert np.allclose(first.mats, [[[2.0]], [[2.0]]])


def test_lift_double_cover_correctable_defect():
    # three -1 transitions on a triangle: principal roots give defect -1,
    # which is a coboundary of component flips
    nerve = triangle_nerve()
    c = evaluate_cocycle("Gl", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_const([[-1.0]]),),
        ("b", "c"): (_const([[-1.0]]),),
        ("a", "c"): (_const([[1.0]]),),
    }))
    lifted = lift_double_cover(nerve, c)
    assert isinstance(lifted, Cocycle) and lifted.group == "Ml"
    assert validate_cocycle(nerve, lifted)["ok"]


@per_point
def _winding(pid, params):
    return np.array([[np.exp(2j * np.pi * params[0])]])


def _path(m):
    """The points t0, ..., t{m-1}, point ti at parameter i/8, joined in a
    path."""
    return component([(f"t{i}", (i / 8.0,)) for i in range(m)],
                     [(i, i + 1) for i in range(m - 1)])


def test_lift_double_cover_obstructed():
    # the ab transition winds once around zero between the two triple
    # points while bc and ac stay near 1, so the two sign defects put
    # contradictory demands on the same three components
    short = component([("t0", (0.0,)), ("t8", (1.0,))], [(0, 1)])
    nerve = Nerve(nerve_doc(
        "abc", {("a", "b"): [_path(9)], ("b", "c"): [short], ("a", "c"): [short]},
        {("a", "b", "c"): [
            ("t0", {("a", "b"): (0, 0), ("b", "c"): (0, 0), ("a", "c"): (0, 0)}),
            ("t8", {("a", "b"): (0, 8), ("b", "c"): (0, 1), ("a", "c"): (0, 1)}),
        ]}))
    c = evaluate_cocycle("Gl", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_winding,),
        ("b", "c"): (_const([[1.0]]),),
        ("a", "c"): (_winding,),  # equals 1 at both triple points
    }))
    lifted = lift_double_cover(nerve, c)
    # the defect bits over the two triple points: one of each sign
    assert isinstance(lifted, np.ndarray) and lifted.dtype == np.uint8
    assert sorted(lifted.tolist()) == [0, 1]
    assert z2_coboundary_solve(nerve, lifted) is None


def test_lift_tracks_branch_along_component():
    # a determinant winding once around zero forces the other sheet at
    # the far end of the component
    nerve = Nerve(nerve_doc("ab", {("a", "b"): [_path(9)]}))
    lifted = lift_double_cover(nerve, evaluate_cocycle("Gl", 1, 0, nerve, [_winding]))
    z_end = lifted.roots[-1]
    assert abs(z_end + 1.0) < 1e-9  # continued onto the other sheet


def test_lift_rejects_too_coarse_edges():
    comp = component([("p", (0.0,)), ("q", (0.5,))], [(0, 1)])
    nerve = Nerve(nerve_doc("ab", {("a", "b"): [comp]}))

    with pytest.raises(TrackingError):
        lift_double_cover(nerve, evaluate_cocycle("Gl", 1, 0, nerve, [_winding]))


def test_lifts_equivalent_witness_and_rejection():
    nerve = circle_nerve()

    def ml(*signs):
        return Cocycle.ml(1, 0, np.ones((len(signs), 1, 1)), signs)

    base = ml(1, 1)
    both = ml(-1, -1)
    one = ml(-1, 1)
    witness = lifts_equivalent(nerve, base, both)
    assert witness is not None
    assert witness["a"] * witness["b"] == -1
    assert lifts_equivalent(nerve, base, one) is None


def test_z2_coboundary_solve_feasible_case():
    nerve = triangle_nerve()
    cochain = np.array([1], dtype=np.uint8)  # -1 at the triple point p
    sol = z2_coboundary_solve(nerve, cochain)
    # one bit per component, of odd parity: the signs multiply to -1
    assert sol is not None and len(sol) == len(nerve.keys) == 3
    assert sol.sum() % 2 == 1
    assert ((nerve.delta1 @ sol) & 1).tolist() == cochain.tolist()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 12))
def test_gf2_solve_recovers_consistent_systems(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    b = (A @ x) & 1
    sol = gf2_solve(A, b)
    assert sol is not None
    assert np.array_equal((A @ sol) & 1, b)


def test_gf2_solve_infeasible():
    A = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    b = np.array([0, 1], dtype=np.uint8)
    assert gf2_solve(A, b) is None


def test_gf2_solve_particular_solution_sets_free_variables_to_zero():
    # pivots in columns 0 and 2; the free column 1 stays 0
    A = np.array([[1, 1, 0], [1, 1, 1]], dtype=np.uint8)
    assert gf2_solve(A, np.array([1, 0])).tolist() == [1, 0, 1]


def _delta0(nerve):
    """The dense delta0 of a nerve, components x charts: the incidence
    matrix of its chart graph, ones at the two charts of each join."""
    delta0 = np.zeros((len(nerve.joins), len(nerve.charts)), dtype=np.uint8)
    delta0[np.arange(len(nerve.joins))[:, None], nerve.joins] = 1
    return delta0


def test_nerve_incidence_matrices():
    nerve = triangle_nerve(points=("p", "q"))
    # components (a,b), (a,c), (b,c) against charts a, b, c
    assert nerve.joins.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert _delta0(nerve).tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert nerve.delta1.tolist() == [[1, 1, 1], [1, 1, 1]]
    assert nerve.delta1.dtype == np.uint8
    assert not nerve.joins.flags.writeable
    # the forest is rooted at the last chart, c, and reaches a and b
    # through the components (a,c) and (b,c)
    tree = nerve.forest.depth > 0
    assert nerve.forest.visits[nerve.forest.depth == 0].tolist() == [[2, 2]]
    assert nerve.forest.visits[tree].tolist() == [[2, 0], [2, 1]]
    assert nerve.forest.edges[tree].tolist() == [1, 2]


@st.composite
def _nerve_docs(draw):
    """The nerve document of a ring of 2-6 charts or a 2 x 2 or 3 x 3
    torus grid of charts, in random chart order, optionally with a chart
    that meets no overlap.  Each overlap has one or two path components
    of 1-4 points whose ids come from a pool of six, so a chart's
    overlaps share some ids; a point has 0-2 random params, so one id
    may have different params in different components.  Where three
    charts overlap pairwise (a ring of 3, a row or column of the 3 x 3
    grid), some of the ids in all three overlaps are triple points, in
    random order."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        names = [f"c{i}" for i in range(n)]
        pairs = {tuple(sorted((names[i], names[(i + 1) % n]))) for i in range(n)}
    else:
        m = draw(st.integers(2, 3))
        names = [f"c{i}{j}" for i in range(m) for j in range(m)]
        pairs = {tuple(sorted((f"c{i}{j}", f"c{(i + di) % m}{(j + dj) % m}")))
                 for i in range(m) for j in range(m) for di, dj in ((0, 1), (1, 0))}
    pool = [f"p{i}" for i in range(6)]
    params = st.lists(st.floats(-2.0, 2.0), max_size=2)
    overlaps = {}
    for pair in sorted(pairs):
        comps = []
        for _ in range(draw(st.integers(1, 2))):
            ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                                unique=True))
            comps.append(component([(pid, draw(params)) for pid in ids],
                                   [(i, i + 1) for i in range(len(ids) - 1)]))
        overlaps[pair] = comps
    triples = {}
    for key in itertools.combinations(sorted(names), 3):
        a, b, c = key
        sides = ((a, b), (b, c), (a, c))
        if not all(side in overlaps for side in sides):
            continue
        # the first (component, position) of every id in each overlap
        first = {side: {} for side in sides}
        for side in sides:
            for ci, comp in enumerate(overlaps[side]):
                for pi, pt in enumerate(comp["points"]):
                    first[side].setdefault(pt["id"], (ci, pi))
        common = sorted(set.intersection(*(set(at) for at in first.values())))
        ids = draw(st.lists(st.sampled_from(common), unique=True)) if common else []
        triples[key] = [(pid, {side: first[side][pid] for side in sides}) for pid in ids]
    if draw(st.booleans()):
        names.append("isolated")
    return nerve_doc(draw(st.permutations(names)), overlaps, triples)


def _overlaps(doc):
    """The components of each chart pair of a nerve document."""
    return {tuple(ov["pair"]): ov["components"] for ov in doc["overlaps"]}


@given(_nerve_docs())
def test_chart_rows_index_every_chart_point(doc):
    nerve = Nerve(doc)
    overlaps = _overlaps(doc)
    # the pair and the point of every overlap row, read off the document
    rows_of = [(pair, pt) for pair in sorted(overlaps) for comp in overlaps[pair]
               for pt in comp["points"]]
    pairs = [pair for pair, _ in rows_of]
    assert len(pairs) == len(nerve.ids) == len(nerve.ends) == len(nerve.params)
    assert nerve.ids == [pt["id"] for _, pt in rows_of]
    width = nerve.params.shape[1]
    assert width == max([len(pt["params"]) for _, pt in rows_of], default=0)
    assert nerve.params.tolist() == [pt["params"] + [0.0] * (width - len(pt["params"]))
                                     for _, pt in rows_of]
    start = 0
    for ch in nerve.charts:
        rows = nerve.charts[ch]
        assert rows.start == start
        start = rows.stop
        met = [r for r, pair in enumerate(pairs) if ch in pair]
        ids = list(dict.fromkeys(nerve.ids[r] for r in met))
        sites = [nerve.sites[r] for r in rows]
        assert all(c == ch for c, _ in sites)
        if met:
            # its distinct point ids in first-row order, with the params
            # of their first rows
            assert [pid for _, pid in sites] == ids
            assert nerve.site_params[rows].tolist() == [
                nerve.params[next(r for r in met if nerve.ids[r] == pid)].tolist()
                for pid in ids]
        else:
            assert sites == [(ch, "origin")]
            assert nerve.site_params[rows].tolist() == [[0.0] * width]
        edges = {tuple(sorted((comp["points"][i]["id"], comp["points"][j]["id"])))
                 for pair in overlaps if ch in pair
                 for comp in overlaps[pair] for i, j in comp["edges"]}
        # the chart's sample graph: the edges its walk visits from its rows
        walk = nerve.chart_walk
        assert {tuple(sorted((nerve.sites[cur][1], nerve.sites[nxt][1])))
                for (cur, nxt), depth in zip(walk.visits.tolist(), walk.depth.tolist())
                if depth != 0 and cur in rows} == edges
    assert start == len(nerve.sites) == len(nerve.site_params)
    # both chart rows of an overlap row carry its point id
    for r, (pair, ends) in enumerate(zip(pairs, nerve.ends.tolist())):
        for ch, e in zip(pair, ends):
            assert nerve.sites[e] == (ch, nerve.ids[r])


def _former_walks(charts, overlaps, comps):
    """The overlap and chart walks as they were built before the nerve
    took its document: one walk per component, joined, and the chart
    graphs of the components' point ids."""
    visits, depth, offset = [np.empty((0, 2), dtype=int)], [np.empty(0, dtype=int)], 0
    at = {ch: {} for ch in charts}
    vertices = {ch: [] for ch in charts}
    edges = {ch: set() for ch in charts}
    for pair, ci in comps:
        comp = overlaps[pair][ci]
        ids = [pt["id"] for pt in comp["points"]]
        walk = Walk.of(len(ids), comp["edges"], [0])
        visits.append(walk.visits + offset)
        depth.append(walk.depth)
        offset += len(ids)
        for ch in pair:
            for pid in ids:
                if pid not in at[ch]:
                    at[ch][pid] = len(vertices[ch])
                    vertices[ch].append(pid)
            edges[ch].update((min(ids[i], ids[j]), max(ids[i], ids[j]))
                             for i, j in comp["edges"])
    sites, rows = [], {}
    for ch in charts:
        rows[ch] = range(len(sites), len(sites) + max(1, len(vertices[ch])))
        sites += vertices[ch] or ["origin"]
    chart_walk = Walk.of(
        len(sites),
        [(span.start + at[ch][a], span.start + at[ch][b]) for ch, span in rows.items()
         for a, b in sorted(edges[ch])],
        [r for span in rows.values() for r in sorted(span, key=lambda r: sites[r])])
    return (np.concatenate(visits), np.concatenate(depth)), chart_walk


def _former_maps(doc):
    """The maps the nerve now builds, as they were built before it did,
    by walking the memberships: the sorted components, the sorted triple
    points, the overlap rows of every component and of the factors of
    every triple point, the coboundaries, and the walks."""
    charts, overlaps = doc["charts"], _overlaps(doc)
    triples = {tuple(tr["key"]): tr["points"] for tr in doc["triples"]}
    comps = [(pair, ci) for pair in sorted(overlaps) for ci in range(len(overlaps[pair]))]
    tps = [(key, tp) for key in sorted(triples) for tp in triples[key]]
    spans, start = {}, 0
    for pair, ci in comps:
        size = len(overlaps[pair][ci]["points"])
        spans[(pair, ci)] = range(start, start + size)
        start += size

    def membership(tp, pair):
        return tp["memberships"][",".join(pair)]

    triple_rows = [[spans[(pair, membership(tp, pair)[0])].start + membership(tp, pair)[1]
                    for pair in ((a, b), (b, c), (a, c))] for (a, b, c), tp in tps]
    col = {ch: i for i, ch in enumerate(charts)}
    delta0 = np.zeros((len(comps), len(charts)), dtype=np.uint8)
    delta0[np.repeat(np.arange(len(comps)), 2),
           [col[ch] for pair, _ in comps for ch in pair]] = 1
    at = {key: i for i, key in enumerate(comps)}
    delta1 = np.zeros((len(tps), len(comps)), dtype=np.uint8)
    delta1[np.repeat(np.arange(len(tps)), 3),
           [at[(pair, membership(tp, pair)[0])]
            for (a, b, c), tp in tps for pair in ((a, b), (b, c), (a, c))]] = 1
    walks = _former_walks(charts, overlaps, comps)
    return comps, tps, spans, triple_rows, delta0, delta1, walks


@given(_nerve_docs(), st.data())
def test_nerve_maps_match_former_builds(doc, data):
    nerve = Nerve(doc)
    comps, tps, spans, triple_rows, delta0, delta1, walks = _former_maps(doc)
    assert nerve.keys == comps == list(nerve.components)
    assert nerve.triples == [(key, tp["id"]) for key, tp in tps]
    assert nerve.components == spans
    assert nerve.triple_rows.tolist() == triple_rows
    assert nerve.triple_rows.shape == (len(tps), 3)
    assert _delta0(nerve).tolist() == delta0.tolist()
    assert nerve.delta1.tolist() == delta1.tolist()
    assert nerve.delta1.dtype == np.uint8
    # the walks visit the same rows in the same order at the same depths
    (visits, depth), chart_walk = walks
    assert nerve.overlap_walk.visits.tolist() == visits.tolist()
    assert nerve.overlap_walk.depth.tolist() == depth.tolist()
    assert nerve.chart_walk.visits.tolist() == chart_walk.visits.tolist()
    assert nerve.chart_walk.depth.tolist() == chart_walk.depth.tolist()
    # every row's component and chart number against the ranges
    for i, rows in enumerate(nerve.components.values()):
        assert nerve.comp[rows].tolist() == [i] * len(rows)
    for i, rows in enumerate(nerve.charts.values()):
        assert nerve.chart[rows].tolist() == [i] * len(rows)
    assert len(nerve.comp) == len(nerve.ids)
    assert len(nerve.chart) == len(nerve.sites)
    # a sign cochain's bits against its former dict, which counted a
    # triple point it does not name as +1
    named = data.draw(st.lists(st.sampled_from(tps), unique_by=lambda t: id(t[1]))
                      if tps else st.just([]))
    values = [{"triple": list(key), "point": tp["id"],
               "sign": data.draw(st.sampled_from([1, -1]))} for key, tp in named]
    signs = {(tuple(v["triple"]), v["point"]): v["sign"] for v in values}
    former = [0 if signs.get((key, tp["id"]), 1) == 1 else 1 for key, tp in tps]
    bits = _build_sign_cochain("c", {"degree": 2, "values": values}, nerve)
    assert bits.dtype == np.uint8 and bits.tolist() == former
    feasible = gf2_solve(delta1, np.array(former, dtype=np.uint8)) is not None
    sol = z2_coboundary_solve(nerve, bits)
    assert (sol is not None) == feasible
    if sol is not None:
        assert len(sol) == len(comps)
        assert ((delta1 @ sol) & 1).tolist() == former


def _composes_to_zero(nerve):
    """delta1 delta0 = 0 over GF(2), the precondition of lift_classes."""
    return not np.any((nerve.delta1.astype(int) @ _delta0(nerve).astype(int)) % 2)


@CORPUS
def test_corpus_coboundaries_compose_to_zero(path):
    assert _composes_to_zero(Nerve(json.loads(path.read_text())["nerve"]))


@given(_nerve_docs())
def test_generated_nerve_coboundaries_compose_to_zero(doc):
    # each chart of a triple key lies on exactly two of its three pairs
    assert _composes_to_zero(Nerve(doc))


@given(st.integers(0, 8), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_reversed_nullspace_is_the_top_down_basis(rows, cols, seed):
    M = np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    null = _gf2_nullspace(M)
    _, pivots = _gf2_reduce(M)
    free = sorted(set(range(cols)) - set(pivots))
    # each row's highest one is at its own free column, where no other
    # row has a one: reversed, the rows are reduced from the top down
    assert [int(np.flatnonzero(row)[-1]) for row in null] == free
    assert null[:, free].tolist() == np.eye(len(free), dtype=int).tolist()
    assert not np.any((M.astype(int) @ null.T.astype(int)) % 2)


def _brute_force_classes(delta1, delta0):
    """Enumerate all 2^c sign patterns and all 2^h chart-sign patterns:
    the number of valid patterns, and the coboundaries."""
    c, h = delta0.shape

    def patterns(width):
        return (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1

    valid = [p for p in patterns(c) if not np.any((delta1 @ p) % 2)]
    return len(valid), {tuple((delta0 @ y) % 2) for y in patterns(h)}


@st.composite
def _chart_graphs(draw):
    """The nerve of a random chart multigraph: 1-8 charts in random
    order and 0-12 components, each joining two distinct charts, so
    parallel components, isolated charts and several pieces occur; it
    has no triple point."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = list(itertools.combinations(names, 2))
    joined = draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([]))
    overlaps = {}
    for i, pair in enumerate(joined):
        overlaps.setdefault(pair, []).append(component([f"p{i}"]))
    return Nerve(nerve_doc(draw(st.permutations(names)), overlaps))


def _pieces(nerve):
    """The connected pieces of the chart graph, as a label per chart:
    the smallest chart position of its piece."""
    label = list(range(len(nerve.charts)))
    for _ in nerve.charts:
        for a, b in nerve.joins.tolist():
            label[a] = label[b] = min(label[a], label[b])
    return label


@given(_chart_graphs(), st.data())
def test_chart_signs_match_gf2_solve_on_the_chart_graph(nerve, data):
    delta0 = _delta0(nerve).astype(int)
    c, h = delta0.shape

    def bits(size):
        return np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))

    # right-hand sides: coboundaries of chart signs, which are feasible,
    # and random bits, which mostly are not
    for _ in range(data.draw(st.integers(1, 4))):
        b = np.array((delta0 @ bits(h)) % 2 if data.draw(st.booleans()) else bits(c),
                     dtype=np.uint8).reshape(c)
        want = gf2_solve(delta0, b)
        x, exact = chart_signs(nerve, b)
        assert x.shape == (h,) and x.dtype == np.uint8
        assert exact is (want is not None)
        if want is not None:
            assert x.tolist() == want.tolist()
    # each piece is rooted at its last chart, and im delta0 has
    # 2^(charts - pieces) elements
    label = _pieces(nerve)
    roots = nerve.forest.visits[nerve.forest.depth == 0, 0].tolist()
    assert sorted(roots) == sorted(max(i for i in range(h) if label[i] == piece)
                                   for piece in set(label))
    image = {tuple((delta0 @ y) % 2) for y in (np.arange(2 ** h)[:, None] >> np.arange(h)) & 1}
    assert len(image) == 2 ** (h - len(set(label))) == lift_classes(nerve).coboundaries


@given(_nerve_docs())
def test_every_walk_visit_crosses_its_edge(doc):
    nerve = Nerve(doc)
    overlaps = _overlaps(doc)
    row = {site: r for r, site in enumerate(nerve.sites)}
    # the edge lists the constructor builds: the components' graphs in
    # document order, and each chart's graph in point-id order
    overlap_edges = [(nerve.components[pair, ci].start + i, nerve.components[pair, ci].start + j)
                     for pair in overlaps for ci, comp in enumerate(overlaps[pair])
                     for i, j in comp["edges"]]
    chart_edges = [(row[ch, a], row[ch, b]) for ch in nerve.charts for a, b in sorted(
        {tuple(sorted((comp["points"][i]["id"], comp["points"][j]["id"])))
         for pair in overlaps if ch in pair for comp in overlaps[pair]
         for i, j in comp["edges"]})]
    for walk, edges in ((nerve.overlap_walk, overlap_edges), (nerve.chart_walk, chart_edges),
                        (nerve.forest, nerve.joins.tolist())):
        step = walk.depth != 0
        assert walk.edges[~step].tolist() == [-1] * int((~step).sum())
        assert [sorted(edges[e]) for e in walk.edges[step].tolist()] == [
            sorted(visit) for visit in walk.visits[step].tolist()]
        # every vertex is reached, so the walk crosses each edge from both ends
        assert sorted(walk.edges[step].tolist()) == sorted(list(range(len(edges))) * 2)


def _with_delta1(nerve, rng, t):
    """A copy of nerve whose delta1 is t random rows of the left kernel
    of its delta0, so that delta1 delta0 = 0 as on every nerve."""
    c = len(nerve.joins)
    left = [y for y in (np.arange(2 ** c)[:, None] >> np.arange(c)) & 1
            if not np.any((y @ _delta0(nerve)) % 2)]
    out = copy.copy(nerve)
    out.delta1 = np.array([left[i] for i in rng.integers(0, len(left), t)],
                          dtype=np.uint8).reshape(t, c)
    return out


def _check_against_brute_force(nerve):
    delta1 = nerve.delta1.astype(int)
    valid, image = _brute_force_classes(delta1, _delta0(nerve).astype(int))
    lc = lift_classes(nerve)
    reps = lc.representatives
    assert (lc.valid, lc.coboundaries) == (valid, len(image))
    assert lc.classes == valid // len(image) == 2 ** len(reps)
    # each representative is a valid pattern that is zero on the tree
    assert reps.dtype == np.uint8 and reps.shape == (len(reps), len(nerve.keys))
    assert not np.any((delta1 @ reps.T) % 2)
    assert not np.any(reps[:, nerve.forest.edges[nerve.forest.depth > 0]])
    # and no nonzero sum of them is a coboundary, so they span H^1
    picks = (np.arange(1, 2 ** len(reps))[:, None] >> np.arange(len(reps))) & 1
    assert image.isdisjoint(map(tuple, (picks @ reps) % 2))


@given(_chart_graphs(), st.integers(0, 8), st.integers(0, 2 ** 32 - 1))
def test_lift_classes_match_brute_force_enumeration(nerve, t, seed):
    _check_against_brute_force(_with_delta1(nerve, np.random.default_rng(seed), t))


@CORPUS
def test_lift_classes_of_the_corpus_match_brute_force_enumeration(path):
    nerve = Nerve(json.loads(path.read_text())["nerve"])
    assert len(nerve.keys) <= 16
    _check_against_brute_force(nerve)


def test_lift_classes_of_a_long_ring_hold_no_chart_by_chart_array():
    # 1,024 charts in a ring, one point per overlap and no triple point:
    # delta1 is empty, and H^1 is the class of the component that closes
    # the ring; a (C, C) uint8 array alone would take 1 MB
    names = [f"c{i:04d}" for i in range(1024)]
    nerve = Nerve(nerve_doc(names, {
        tuple(sorted(pair)): [component([f"p{i}"])]
        for i, pair in enumerate(zip(names, names[1:] + names[:1]))}))
    tracemalloc.start()
    try:
        lc = lift_classes(nerve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lc.classes, len(lc.representatives)) == (2, 1)
    assert peak < 2 ** 20
