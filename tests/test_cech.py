import itertools
from cmath import sqrt as principal_sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfe import ball
from hfe.cech import (
    Cocycle,
    Nerve,
    _membership_residuals,
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
from hfe.scenario import (
    _build_sign_cochain,
    builtin_scenario_names,
    builtin_scenario_path,
    load_scenario,
)
from hfe.smallmat import det
from hfe.tracking import Walk

from helpers import by_key, component, nerve_doc, per_point, random_sp

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
    c = Cocycle.evaluate("Gl", 1, 0, nerve, by_key(nerve, {
        ("a", "b"): (_const([[2.0]]),),
        ("b", "c"): (_const([[3.0]]),),
        ("a", "c"): (_const([[6.0]]),),
    }))
    out = validate_cocycle(nerve, c)
    assert out["ok"] and out["max_residual"] < 1e-12


def test_validate_cocycle_flags_broken_identity():
    nerve = triangle_nerve()
    c = Cocycle.evaluate("Gl", 1, 0, nerve, by_key(nerve, {
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
    c = Cocycle.evaluate("Mp", 1, 0, nerve, by_key(nerve, {
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
    # p3 (cocycle).  The values below were re-recorded when determinants
    # moved to the closed forms of hfe.smallmat, which move their last
    # bits; no golden report reaches mp_mul or these residuals.
    ids = ("p0", "p1", "p2", "p3")
    nerve = triangle_nerve(ids)
    rng = np.random.default_rng(19)
    values = {}
    for i, p in enumerate(ids):
        g1, g2 = random_sp(rng, 2), random_sp(rng, 2)
        values[p] = ((g1, _alpha0_root(g1, 1 + 3e-9 if i == 2 else 1.0)),
                     (g2, _alpha0_root(g2)),
                     (g1 @ g2, _alpha0_root(g1 @ g2, {0: 1 + 2e-8, 3: -1.0}.get(i, 1.0))))
    c = Cocycle.evaluate("Mp", 2, 0, nerve, by_key(nerve, {
        pair: (per_point(lambda pid, _, j=j: values[pid][j]),)
        for j, pair in enumerate(SIDES)}))
    assert validate_cocycle(nerve, c) == {
        "ok": False, "max_residual": 95.3039066179093, "failures": [
            ("membership", ("a", "b"), 0, "p2", 5.999999835307505e-09),
            ("membership", ("a", "c"), 0, "p0", 4.000000060222288e-08),
            ("cocycle", ("a", "b", "c"), "p0", 3.2463039393643745e-07),
            ("cocycle", ("a", "b", "c"), "p2", 1.4663279184558976e-07),
            ("cocycle", ("a", "b", "c"), "p3", 95.3039066179093)]}
    assert _membership_residuals(c).tolist() == [
        1.5969949940837668e-16, 2.644266862192411e-16, 5.999999835307505e-09, 0.0,
        4.000000060222288e-08, 1.1027924931775653e-16, 1.9034877485339496e-16, 0.0,
        1.4613137057114996e-16, 2.4340666034977294e-17, 1.286577438019938e-16, 0.0]
    # the products of the t_ab and t_bc elements, checked by check_mp
    _, zeta = mp_mul(*(np.array([values[p][j][m] for p in ids])
                       for j in (0, 1) for m in (0, 1)))
    assert zeta.tolist() == [
        (13.704828236270643 - 8.697121239091713j), (8.125634025365418 - 13.845540079751663j),
        (25.309711418204742 + 41.81435408464688j), (32.976114681021066 + 34.39890281248722j)]


def test_cocycle_evaluates_each_transition_once_per_component():
    nerve = circle_nerve()
    calls = []

    def fn(params, ids):
        calls.append(list(ids))
        return (np.ones((len(params), 1, 1)),)

    c = Cocycle.evaluate("Gl", 1, 0, nerve, [fn, _const([[2.0]])])
    assert calls == [["east"]]
    assert np.allclose(c.mats, [np.eye(1), [[2.0]]])
    # one call on the stack of a component's two points
    calls.clear()
    c = Cocycle.evaluate("Gl", 1, 0, triangle_nerve(("p", "q")), [fn] * 3)
    assert calls == [["p", "q"]] * 3
    assert c.mats.tolist() == [[[1.0]]] * 6
    # one generator per component
    with pytest.raises(ValueError):
        Cocycle.evaluate("Gl", 1, 0, nerve, [fn])
    with pytest.raises(ValidationError, match="1 values for 2 sample points"):
        validate_cocycle(nerve, Cocycle("Gl", 1, 0, c.mats[:1]))


def test_push_cocycle_pair_first():
    nerve = circle_nerve()
    pc = Cocycle.evaluate("Glkd", 1, 0, nerve, [
        per_point(lambda *_: (np.array([[2.0]]), np.array([[5.0]])))] * 2)
    first = push_cocycle(pc)
    assert first.group == "Gl"
    assert np.allclose(first.mats, [[[2.0]], [[2.0]]])


def test_lift_double_cover_correctable_defect():
    # three -1 transitions on a triangle: principal roots give defect -1,
    # which is a coboundary of component flips
    nerve = triangle_nerve()
    c = Cocycle.evaluate("Gl", 1, 0, nerve, by_key(nerve, {
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
    c = Cocycle.evaluate("Gl", 1, 0, nerve, by_key(nerve, {
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
    lifted = lift_double_cover(nerve, Cocycle.evaluate("Gl", 1, 0, nerve, [_winding]))
    z_end = lifted.roots[-1]
    assert abs(z_end + 1.0) < 1e-9  # continued onto the other sheet


def test_lift_rejects_too_coarse_edges():
    comp = component([("p", (0.0,)), ("q", (0.5,))], [(0, 1)])
    nerve = Nerve(nerve_doc("ab", {("a", "b"): [comp]}))

    with pytest.raises(TrackingError):
        lift_double_cover(nerve, Cocycle.evaluate("Gl", 1, 0, nerve, [_winding]))


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


def test_nerve_incidence_matrices():
    nerve = triangle_nerve(points=("p", "q"))
    # components (a,b), (a,c), (b,c) against charts a, b, c
    assert nerve.delta0.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert nerve.delta1.tolist() == [[1, 1, 1], [1, 1, 1]]
    assert nerve.delta0.dtype == nerve.delta1.dtype == np.uint8
    assert nerve.delta0 is nerve.delta0  # built once


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
            # the draw population: its overlap rows, duplicates included
            assert [nerve.sites[r][1] for r in nerve.draws[ch]] == [
                nerve.ids[r] for r in met]
            assert all(r in rows for r in nerve.draws[ch])
        else:
            assert sites == [(ch, "origin")]
            assert nerve.site_params[rows].tolist() == [[0.0] * width]
            assert nerve.draws[ch] == [rows.start]
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
    assert nerve.delta0.tolist() == delta0.tolist()
    assert nerve.delta1.tolist() == delta1.tolist()
    assert nerve.delta0.dtype == nerve.delta1.dtype == np.uint8
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


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_corpus_coboundaries_compose_to_zero(name):
    nerve = load_scenario(builtin_scenario_path(name)).nerve
    composite = nerve.delta1.astype(int) @ nerve.delta0.astype(int)
    assert not np.any(composite % 2)


def _brute_force_classes(delta1, delta0):
    """Enumerate all 2^c sign patterns in integer order, component 0 the
    least significant bit, and test each against the coboundaries of
    all 2^h chart-sign patterns."""
    c, h = delta0.shape

    def patterns(width):
        return (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1

    valid = [p for p in patterns(c) if not np.any((delta1 @ p) % 2)]
    image = {tuple((delta0 @ y) % 2) for y in patterns(h)}
    gluing = [p for p in valid if tuple(p) in image]
    equiv = next((p for p in gluing if np.any(p)), None)
    inequiv = next((p for p in valid if tuple(p) not in image), None)
    return len(valid), len(image), len(gluing), equiv, inequiv


@st.composite
def _coboundary_pairs(draw):
    c = draw(st.integers(0, 12))
    h = draw(st.integers(0, 6))
    t = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta0 = rng.integers(0, 2, size=(c, h))
    delta1 = rng.integers(0, 2, size=(t, c))
    if draw(st.booleans()):
        # rows from the left kernel of delta0, so delta1 delta0 = 0
        left = [y for y in (np.arange(2 ** c)[:, None] >> np.arange(c)) & 1
                if not np.any((y @ delta0) % 2)]
        delta1 = np.array([left[i] for i in rng.integers(0, len(left), t)],
                          dtype=int).reshape(t, c)
    return delta1.astype(np.uint8), delta0.astype(np.uint8)


def _same_pattern(got, want):
    if want is None:
        return got is None
    return got is not None and np.array_equal(got, want)


@given(_coboundary_pairs())
def test_lift_classes_match_brute_force_enumeration(pair):
    delta1, delta0 = pair
    valid, cob, gluing, equiv, inequiv = _brute_force_classes(
        delta1.astype(int), delta0.astype(int))
    lc = lift_classes(delta1, delta0)
    assert (lc.valid, lc.coboundaries, lc.gluing) == (valid, cob, gluing)
    assert lc.classes == valid // cob
    assert _same_pattern(lc.witness_equiv, equiv)
    assert _same_pattern(lc.witness_inequiv, inequiv)
