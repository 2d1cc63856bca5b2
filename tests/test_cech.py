from cmath import sqrt as principal_sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfe import ball
from hfe.cech import (
    ORIGIN,
    Cocycle,
    Nerve,
    OverlapComponent,
    SamplePoint,
    SignCochain,
    TriplePoint,
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
from hfe.scenario import builtin_scenario_names, builtin_scenario_path, load_scenario

from helpers import per_point, random_sp


def _pt(pid, params=()):
    return SamplePoint(pid, tuple(params))


def _const(value):
    M = np.array(value, dtype=complex)
    return per_point(lambda pt: M)


def triangle_nerve(points=("p",)):
    comps = (OverlapComponent(
        tuple(_pt(p) for p in points),
        tuple((i, i + 1) for i in range(len(points) - 1)),
    ),)
    overlaps = {("a", "b"): comps, ("b", "c"): comps, ("a", "c"): comps}
    triples = {
        ("a", "b", "c"): tuple(
            TriplePoint(p, {("a", "b"): (0, i), ("b", "c"): (0, i),
                            ("a", "c"): (0, i)})
            for i, p in enumerate(points)
        )
    }
    return Nerve(("a", "b", "c"), overlaps, triples)


def circle_nerve():
    comps = (
        OverlapComponent((_pt("east"),)),
        OverlapComponent((_pt("west"),)),
    )
    return Nerve(("a", "b"), {("a", "b"): comps})


def test_nerve_rejects_malformed():
    with pytest.raises(ValidationError):
        Nerve(("a", "a"))
    with pytest.raises(ValidationError):
        Nerve(("a", "b"), {("b", "a"): (OverlapComponent((_pt("p"),)),)})
    with pytest.raises(ValidationError):
        OverlapComponent((_pt("p"), _pt("q")))  # disconnected


def test_validate_cocycle_accepts_consistent_triangle():
    nerve = triangle_nerve()
    c = Cocycle.evaluate("Gl", 1, 0, nerve, {
        ("a", "b"): (_const([[2.0]]),),
        ("b", "c"): (_const([[3.0]]),),
        ("a", "c"): (_const([[6.0]]),),
    })
    out = validate_cocycle(nerve, c)
    assert out["ok"] and out["max_residual"] < 1e-12


def test_validate_cocycle_flags_broken_identity():
    nerve = triangle_nerve()
    c = Cocycle.evaluate("Gl", 1, 0, nerve, {
        ("a", "b"): (_const([[2.0]]),),
        ("b", "c"): (_const([[3.0]]),),
        ("a", "c"): (_const([[5.0]]),),
    })
    out = validate_cocycle(nerve, c)
    assert not out["ok"]
    assert any(f[0] == "cocycle" for f in out["failures"])


def _rotation(theta, sheet=1):
    g = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    value = (g, sheet * np.exp(0.5j * theta))
    return per_point(lambda pt: value)


@pytest.mark.parametrize("sheet", [1, -1])
def test_validate_mp_cocycle_on_triangle(sheet):
    # rotations by 0.7 and 1.9 compose to 2.6 with the anchors
    # e^{i theta/2}; the other sheet over t_ac misses the product's
    # anchor by 2 at both triple points
    nerve = triangle_nerve(("p", "q"))
    c = Cocycle.evaluate("Mp", 1, 0, nerve, {
        ("a", "b"): (_rotation(0.7),),
        ("b", "c"): (_rotation(1.9),),
        ("a", "c"): (_rotation(2.6, sheet),),
    })
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
    return sign * principal_sqrt(np.linalg.det(ball.alpha_raw(g, np.zeros((n, n)))[1]))


def test_mp_triangle_residuals_are_pinned():
    # An n = 2 triangle of seeded random_sp elements, t_ac = t_ab t_bc,
    # with a perturbed t_ab anchor at p2 (membership), a perturbed t_ac
    # anchor at p0 (membership and cocycle) and the other t_ac sheet at
    # p3 (cocycle).  Every value below was recorded before the roots
    # became arrays; no golden report reaches mp_mul or these residuals.
    ids = ("p0", "p1", "p2", "p3")
    nerve = triangle_nerve(ids)
    rng = np.random.default_rng(19)
    values = {}
    for i, p in enumerate(ids):
        g1, g2 = random_sp(rng, 2), random_sp(rng, 2)
        values[p] = ((g1, _alpha0_root(g1, 1 + 3e-9 if i == 2 else 1.0)),
                     (g2, _alpha0_root(g2)),
                     (g1 @ g2, _alpha0_root(g1 @ g2, {0: 1 + 2e-8, 3: -1.0}.get(i, 1.0))))
    c = Cocycle.evaluate("Mp", 2, 0, nerve, {
        pair: (per_point(lambda pt, j=j: values[pt.id][j]),)
        for j, pair in enumerate((("a", "b"), ("b", "c"), ("a", "c")))})
    assert validate_cocycle(nerve, c) == {
        "ok": False, "max_residual": 95.30390661790965, "failures": [
            ("membership", ("a", "b"), 0, "p2", 5.9999999672366795e-09),
            ("membership", ("a", "c"), 0, "p0", 4.00000004988725e-08),
            ("cocycle", ("a", "b", "c"), "p0", 3.246303989839913e-07),
            ("cocycle", ("a", "b", "c"), "p2", 1.466328193573504e-07),
            ("cocycle", ("a", "b", "c"), "p3", 95.30390661790965)]}
    assert _membership_residuals(c).tolist() == [
        1.596994994083766e-16, 6.61066715548103e-17, 5.9999999672366795e-09,
        1.5970263939721556e-16, 4.00000004988725e-08, 1.9880874401742407e-16, 0.0,
        3.504667419987107e-16, 3.0125753804056367e-16, 2.4340666034977294e-17,
        1.9298661570299093e-16, 2.5882693515862737e-16]
    # the products of the t_ab and t_bc elements, checked by check_mp
    _, zeta = mp_mul(*(np.array([values[p][j][m] for p in ids])
                       for j in (0, 1) for m in (0, 1)))
    assert zeta.tolist() == [
        (13.704828236270634 - 8.69712123909171j), (8.125634025365425 - 13.845540079751668j),
        (25.309711418204664 + 41.814354084646936j), (32.9761146810212 + 34.398902812487435j)]


def test_cocycle_evaluates_each_transition_once_per_component():
    nerve = circle_nerve()
    calls = []

    def fn(points):
        calls.append([pt.id for pt in points])
        return (np.ones((len(points), 1, 1)),)

    c = Cocycle.evaluate("Gl", 1, 0, nerve, {("a", "b"): (fn, _const([[2.0]]))})
    assert calls == [["east"]]
    assert np.allclose(c.mats, [np.eye(1), [[2.0]]])
    # one call on the stack of a component's two points
    calls.clear()
    c = Cocycle.evaluate("Gl", 1, 0, triangle_nerve(("p", "q")),
                         {pair: (fn,) for pair in (("a", "b"), ("b", "c"), ("a", "c"))})
    assert calls == [["p", "q"]] * 3
    assert c.mats.tolist() == [[[1.0]]] * 6
    with pytest.raises(ValidationError, match="missing transition"):
        Cocycle.evaluate("Gl", 1, 0, nerve, {})
    with pytest.raises(ValidationError, match="component count mismatch"):
        Cocycle.evaluate("Gl", 1, 0, nerve, {("a", "b"): (fn,)})
    with pytest.raises(ValidationError, match="1 values for 2 sample points"):
        validate_cocycle(nerve, Cocycle("Gl", 1, 0, c.mats[:1]))


def test_push_cocycle_pair_first():
    nerve = circle_nerve()
    pc = Cocycle.evaluate("Glkd", 1, 0, nerve, {
        ("a", "b"): (per_point(lambda pt: (np.array([[2.0]]), np.array([[5.0]]))),) * 2
    })
    first = push_cocycle(pc)
    assert first.group == "Gl"
    assert np.allclose(first.mats, [[[2.0]], [[2.0]]])


def test_lift_double_cover_correctable_defect():
    # three -1 transitions on a triangle: principal roots give defect -1,
    # which is a coboundary of component flips
    nerve = triangle_nerve()
    c = Cocycle.evaluate("Gl", 1, 0, nerve, {
        ("a", "b"): (_const([[-1.0]]),),
        ("b", "c"): (_const([[-1.0]]),),
        ("a", "c"): (_const([[1.0]]),),
    })
    lifted = lift_double_cover(nerve, c)
    assert isinstance(lifted, Cocycle) and lifted.group == "Ml"
    assert validate_cocycle(nerve, lifted)["ok"]


@per_point
def _winding(pt):
    return np.array([[np.exp(2j * np.pi * pt.params[0])]])


def test_lift_double_cover_obstructed():
    # the ab transition winds once around zero between the two triple
    # points while bc and ac stay near 1, so the two sign defects put
    # contradictory demands on the same three components
    ab_pts = tuple(_pt(f"t{i}", (i / 8.0,)) for i in range(9))
    ab_comp = OverlapComponent(ab_pts, tuple((i, i + 1) for i in range(8)))
    short = OverlapComponent((ab_pts[0], ab_pts[8]), ((0, 1),))
    nerve = Nerve(
        ("a", "b", "c"),
        {("a", "b"): (ab_comp,), ("b", "c"): (short,), ("a", "c"): (short,)},
        {("a", "b", "c"): (
            TriplePoint("t0", {("a", "b"): (0, 0), ("b", "c"): (0, 0),
                               ("a", "c"): (0, 0)}),
            TriplePoint("t8", {("a", "b"): (0, 8), ("b", "c"): (0, 1),
                               ("a", "c"): (0, 1)}),
        )},
    )
    c = Cocycle.evaluate("Gl", 1, 0, nerve, {
        ("a", "b"): (_winding,),
        ("b", "c"): (_const([[1.0]]),),
        ("a", "c"): (_winding,),  # equals 1 at both triple points
    })
    lifted = lift_double_cover(nerve, c)
    assert isinstance(lifted, SignCochain)
    assert set(lifted.values.values()) == {1, -1}
    assert z2_coboundary_solve(nerve, lifted) is None


def test_lift_tracks_branch_along_component():
    # a determinant winding once around zero forces the other sheet at
    # the far end of the component
    pts = tuple(_pt(f"t{i}", (i / 8.0,)) for i in range(9))
    comp = OverlapComponent(pts, tuple((i, i + 1) for i in range(8)))
    nerve = Nerve(("a", "b"), {("a", "b"): (comp,)})
    lifted = lift_double_cover(
        nerve, Cocycle.evaluate("Gl", 1, 0, nerve, {("a", "b"): (_winding,)}))
    z_end = lifted.roots[-1]
    assert abs(z_end + 1.0) < 1e-9  # continued onto the other sheet


def test_lift_rejects_too_coarse_edges():
    pts = (_pt("p", (0.0,)), _pt("q", (0.5,)))
    comp = OverlapComponent(pts, ((0, 1),))
    nerve = Nerve(("a", "b"), {("a", "b"): (comp,)})

    with pytest.raises(TrackingError):
        lift_double_cover(
            nerve, Cocycle.evaluate("Gl", 1, 0, nerve, {("a", "b"): (_winding,)}))


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
    cochain = SignCochain(2, {(("a", "b", "c"), "p"): -1})
    sol = z2_coboundary_solve(nerve, cochain)
    assert sol is not None and sol.degree == 1
    assert np.prod([v for v in sol.values.values()]) == -1


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
def _generated_nerves(draw):
    """A ring of 2-6 charts or a 2 x 2 or 3 x 3 torus grid of charts, in
    random chart order, optionally with a chart that meets no overlap.
    Each overlap has one or two path components of 1-4 points whose ids
    come from a pool of six, so a chart's overlaps share some ids."""
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
    overlaps = {}
    for pair in sorted(pairs):
        comps = []
        for _ in range(draw(st.integers(1, 2))):
            ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                                unique=True))
            path = tuple((i, i + 1) for i in range(len(ids) - 1))
            comps.append(OverlapComponent(tuple(_pt(p) for p in ids), path))
        overlaps[pair] = tuple(comps)
    if draw(st.booleans()):
        names.append("isolated")
    return Nerve(tuple(draw(st.permutations(names))), overlaps)


@given(_generated_nerves())
def test_chart_rows_index_every_chart_point(nerve):
    index = nerve.point_index
    # the pair of every overlap row, read off the nerve on its own
    pairs = [pair for pair, ci in nerve.component_list()
             for _ in nerve.overlaps[pair][ci].points]
    assert len(pairs) == len(index.points) == len(index.ends)
    start = 0
    for ch in nerve.charts:
        rows = index.charts[ch]
        assert rows.start == start
        start = rows.stop
        met = [r for r, pair in enumerate(pairs) if ch in pair]
        ids = list(dict.fromkeys(index.points[r].id for r in met))
        sites = [index.sites[r] for r in rows]
        assert all(c == ch for c, _ in sites)
        if met:
            # its distinct point ids in first-row order
            assert [pt.id for _, pt in sites] == ids
            # the draw population: its overlap rows, duplicates included
            assert [index.sites[r][1].id for r in index.draws[ch]] == [
                index.points[r].id for r in met]
            assert all(r in rows for r in index.draws[ch])
        else:
            assert sites == [(ch, ORIGIN)]
            assert index.draws[ch] == [rows.start]
        edges = {tuple(sorted((comp.points[i].id, comp.points[j].id)))
                 for pair in nerve.overlaps if ch in pair
                 for comp in nerve.overlaps[pair] for i, j in comp.edges}
        # the chart's sample graph: the edges its walk visits from its rows
        walk = index.chart_walk
        assert {tuple(sorted((index.sites[cur][1].id, index.sites[nxt][1].id)))
                for (cur, nxt), depth in zip(walk.visits.tolist(), walk.depth.tolist())
                if depth != 0 and cur in rows} == edges
    assert start == len(index.sites)
    # both chart rows of an overlap row carry its point id
    for r, (pair, ends) in enumerate(zip(pairs, index.ends.tolist())):
        for ch, e in zip(pair, ends):
            assert (index.sites[e][0], index.sites[e][1].id) == (ch, index.points[r].id)


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
