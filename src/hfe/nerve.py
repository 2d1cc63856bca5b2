"""The finite nerve of a scenario and the index of its sample points.

A nerve is a finite chart set together with sampled overlaps: every
connected overlap component is a rooted connected graph of sample
points, and triple intersections are recorded as sample points with
their component memberships in the three pairwise overlaps.  The Nerve
is built from the nerve section of a scenario document, and is the one
index of these points: its rows, and the maps from a row to its
component, chart and triple points, are built once by its constructor,
and every stack of the engine has one row per row of it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .tracking import Walk


class Nerve:
    """A finite nerve and the index of its sample points.

    The constructor takes the ``nerve`` section of a scenario document
    (``charts``, ``overlaps`` and ``triples``, as the scenario schema
    shapes them), checks it, and builds every row map of the nerve once,
    as the attributes below; the engine indexes these and builds no map
    of its own.  A sample point is its rows.

    Overlap rows, one per (component, point), the components in key order:

    keys        the sorted component keys (pair, component index)
    ids         the point id of each overlap row
    params      (P, D) float array: the parameters of each overlap row's
                point, zero-padded to the longest
    comp        (P,) int array: the position in keys of each overlap row's
                component
    components  (pair, component index) -> the range of its overlap rows
    overlap_walk  the Walk of the components' graphs on the overlap rows,
                each rooted at its first row
    noncontractible  the keys of the components declared non-contractible,
                in document order

    Chart rows, chart by chart in the given order: one per point id of the
    overlaps containing the chart, in the order of their first overlap
    rows, or one origin row for a chart that meets no overlap:

    charts      chart -> the range of its chart rows
    chart       (R,) int array: the position in charts of each chart row's
                chart
    sites       (chart, point id) of each chart row, the id "origin" for
                an origin row
    site_params (R, D) float array: the params of each chart row's first
                overlap row, zeros for an origin row
    ends        (P, 2) int array: the chart rows of each overlap row's
                point in the first and the second chart of its overlap
    draws       chart -> the chart rows of the overlap rows containing the
                chart, in overlap-row order (a point in two of them once
                per row), or its origin row: the population of the
                chart's seeded draws
    chart_walk  the Walk of the charts' sample graphs on the chart rows,
                each rooted at its rows in point-id order: a chart's graph
                has an edge between the rows of two point ids that some
                overlap component containing the chart joins

    The chart graph, triple points, and the GF(2) coboundaries:

    joins       (C, 2) int array: the positions in charts of the two charts
                of each component of keys, the edges of the chart graph,
                whose incidence matrix is delta0
    forest      the Walk of the chart graph, each piece rooted at its last
                chart
    triples     (triple key, point id) of every triple point, the keys
                sorted
    triple_rows (T, 3) int array: the overlap rows of the factors t_ab,
                t_bc, t_ac at each triple point
    delta1      (T, C) uint8: from component signs to triple-point signs,
                ones at the three components of each triple point;
                delta1 delta0 = 0 over GF(2), since each chart of a
                triple key lies on exactly two of its three pairs

    A sign cochain is the GF(2) bits of its signs, 1 for -1: over keys in
    degree 1 and over triples in degree 2.
    """

    def __init__(self, doc: dict):
        charts = doc["charts"]
        overlaps = doc.get("overlaps", [])
        listed = [(tuple(ov["pair"]), ci, comp) for ov in overlaps
                  for ci, comp in enumerate(ov["components"])]
        # the components in key order
        order = sorted(range(len(listed)), key=lambda j: listed[j][:2])
        sizes = [len(listed[j][2]["points"]) for j in order]
        first = np.cumsum([0] + sizes).tolist()
        start = dict(zip(order, first))
        # each component's fault, in document order: it has no point, an
        # edge leaves it, it lists a point id twice (chart rows are one
        # per point id), or its graph is disconnected
        faults, graphs = {}, {}
        for j, (_, _, comp) in enumerate(listed):
            npts, pairs = len(comp["points"]), comp.get("edges", [])
            ids = [pt["id"] for pt in comp["points"]]
            if not npts:
                faults[j] = "overlap component needs at least one point"
            elif not all(0 <= i < npts and 0 <= k < npts for i, k in pairs):
                faults[j] = "edge references a missing point"
            elif len(set(ids)) < npts:
                twice = next(pid for i, pid in enumerate(ids) if pid in ids[:i])
                faults[j] = f"overlap component lists point {twice!r} twice"
            else:
                graphs[j] = [(int(i), int(k)) for i, k in pairs]
        edges = [(start[j] + i, start[j] + k) for j, pairs in graphs.items() for i, k in pairs]
        walk = Walk.of(first[-1], edges, [r for r, size in zip(first, sizes) if size])
        reached = np.zeros(first[-1], dtype=bool)
        reached[walk.visits[walk.depth >= 0, 1]] = True
        for j in np.repeat(order, sizes)[~reached].tolist():
            faults.setdefault(int(j), "overlap component graph is disconnected")
        if faults:
            raise ValidationError(faults[min(faults)])
        chartset = set(charts)
        if len(chartset) != len(charts):
            raise ValidationError("duplicate chart ids")
        pairs = [tuple(ov["pair"]) for ov in overlaps]
        for a, b in dict.fromkeys(pairs):
            if a == b:
                raise ValidationError("self-overlap (a, a) not allowed")
            if a > b:
                raise ValidationError("overlap keys must be sorted pairs")
            if a not in chartset or b not in chartset:
                raise ValidationError(f"overlap ({a},{b}) references unknown chart")
        # a repeated pair or triple key, rejected below, is its last listing
        self.keys = [listed[j][:2] for j in order]
        self.components = {key: range(r, r + size)
                           for key, r, size in zip(self.keys, first, sizes)}
        points = [pt for j in order for pt in listed[j][2]["points"]]
        self.ids = [pt["id"] for pt in points]
        keys = [tuple(tr["key"]) for tr in doc.get("triples", [])]
        triples = {key: tr["points"] for key, tr in zip(keys, doc.get("triples", []))}
        rows_of = {}
        for key, pts in triples.items():
            a, b, c = key
            if not (a < b < c) or {a, b, c} - chartset:
                raise ValidationError(f"bad triple key {key}")
            rows_of[key] = []
            for tp in pts:
                memberships = {tuple(pair.split(",")): v
                               for pair, v in tp["memberships"].items()}
                factors = []
                for pair in ((a, b), (b, c), (a, c)):
                    if pair not in memberships:
                        raise ValidationError(
                            f"triple point {tp['id']} missing membership for {pair}"
                        )
                    ci, pi = memberships[pair]
                    rows = self.components.get((pair, ci)) if ci >= 0 else None
                    if rows is None or not 0 <= pi < len(rows):
                        raise ValidationError(
                            f"triple point {tp['id']}: bad membership for {pair}"
                        )
                    factors.append(rows[int(pi)])
                    if self.ids[factors[-1]] != tp["id"]:
                        raise ValidationError(
                            f"triple point {tp['id']}: id mismatch in {pair}"
                        )
                rows_of[key].append(factors)
        for what, found in (("overlap", pairs), ("triple key", keys)):
            if len(set(found)) != len(found):
                twice = next(key for i, key in enumerate(found) if key in found[:i])
                raise ValidationError(f"{what} {twice} is listed twice")
        width = max((len(pt.get("params", ())) for pt in points), default=0)
        try:
            self.params = np.array([[*pt.get("params", ()), *[0.0] * width][:width]
                                    for pt in points], dtype=float).reshape(len(points), width)
        except OverflowError:
            raise ValidationError("sample point params must fit a float") from None
        bad = np.flatnonzero(~np.isfinite(self.params).all(axis=1))
        if bad.size:
            raise ValidationError(f"params of sample point {points[bad[0]]['id']} "
                                  "must be finite")
        self.noncontractible = [(pair, ci) for pair, ci, comp in listed
                                if not comp.get("contractible", True)]
        self.triples = [(key, tp["id"]) for key in sorted(triples) for tp in triples[key]]
        self.triple_rows = np.array([f for key in sorted(rows_of) for f in rows_of[key]],
                                    dtype=int).reshape(-1, 3)
        self.comp = np.repeat(np.arange(len(self.keys)), sizes)
        self.overlap_walk = walk

        # per chart: the position of each point id among its chart rows,
        # their first overlap rows, the position of every overlap row it
        # is in, and the id pairs of its graph's edges
        at: dict[str, dict[str, int]] = {ch: {} for ch in charts}
        firsts: dict[str, list[int]] = {ch: [] for ch in charts}
        met: dict[str, list[int]] = {ch: [] for ch in charts}
        joined: dict[str, set] = {ch: set() for ch in charts}
        for j, ((pair, _), span) in zip(order, self.components.items()):
            ids = self.ids[span.start:span.stop]
            for ch in pair:
                for r, pid in zip(span, ids):
                    if pid not in at[ch]:
                        at[ch][pid] = len(firsts[ch])
                        firsts[ch].append(r)
                    met[ch].append(at[ch][pid])
                joined[ch].update((min(ids[i], ids[k]), max(ids[i], ids[k]))
                                  for i, k in graphs[j])
        sites: list[tuple[str, str]] = []
        rows: dict[str, range] = {}
        for ch in charts:
            rows[ch] = range(len(sites), len(sites) + max(1, len(firsts[ch])))
            sites += [(ch, self.ids[r]) for r in firsts[ch]] or [(ch, "origin")]
        self.charts = rows
        self.chart = np.repeat(np.arange(len(rows)), [len(span) for span in rows.values()])
        self.sites = sites
        self.site_params = np.zeros((len(sites), width))
        for ch, span in rows.items():
            self.site_params[span.start:span.start + len(firsts[ch])] = self.params[firsts[ch]]
        self.ends = np.array([[rows[ch].start + at[ch][pid] for ch in pair]
                              for (pair, _), span in self.components.items()
                              for pid in self.ids[span.start:span.stop]],
                             dtype=int).reshape(-1, 2)
        self.draws = {ch: [rows[ch].start + i for i in met[ch]] or [rows[ch].start]
                      for ch in charts}
        self.chart_walk = Walk.of(
            len(sites),
            [(span.start + at[ch][a], span.start + at[ch][b]) for ch, span in rows.items()
             for a, b in sorted(joined[ch])],
            [r for span in rows.values() for r in sorted(span, key=lambda r: sites[r][1])])
        self.joins = self.chart[self.ends[first[:-1]]]
        self.forest = Walk.of(len(rows), self.joins.tolist(), range(len(rows) - 1, -1, -1))
        self.delta1 = np.zeros((len(self.triples), len(self.keys)), dtype=np.uint8)
        self.delta1[np.arange(len(self.triples))[:, None], self.comp[self.triple_rows]] = 1
        for shared in (self.params, self.comp, self.chart, self.site_params, self.ends,
                       self.triple_rows, self.joins, self.delta1):
            shared.setflags(write=False)
