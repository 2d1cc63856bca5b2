"""The stacked per-point kernels against the scalar code they replace.

The block-pattern checks of groups and frames run on stacks of matrices
and must raise, for the first failing matrix, exactly what the scalar
checks raised one matrix at a time; track_sqrt on a stack of paths must
return bit for bit what it returns path by path; and the verification
stages must take their determinants over stacks, and track_graph its
steps one depth at a time, so that their number does not grow with the
sampling density.
"""

import json
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from hfe.config import get_tolerances
from hfe.errors import SingularityError, SubgroupRejection, TrackingError, raise_first
from hfe.frames import frame_pattern, meta_pattern
from hfe.groups import _glk_pattern
from hfe import smallmat, tracking
from hfe.pipelines import run_scenario
from hfe.tracking import Walk, track_graph, track_sqrt

GOLDEN_DIR = Path(__file__).parent / "golden"

# ---------------------------------------------------------------------------
# scalar oracles: the block-pattern checks as they were, one matrix a call
# ---------------------------------------------------------------------------


def _oracle_glk(A, k, label=""):
    tols = get_tolerances()
    n = A.shape[0]
    bad = [(i, j) for i in range(k, n) for j in range(k) if abs(A[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection(f"nonzero lower-left block{label}")
    Ak = A[:k, :k]
    bad = [(i, j) for i in range(k) for j in range(k) if abs(Ak[i, j].imag) > tols.abs]
    if bad:
        raise SubgroupRejection(f"A-block not real{label}")
    Ak = Ak.real
    if k and abs(np.linalg.det(Ak)) <= tols.singular:
        raise SingularityError("A-block singular")
    return {"A": Ak, "B": A[:k, k:], "D": A[k:, k:]}


def _oracle_frame(U, V, k):
    tols = get_tolerances()
    n = U.shape[0]
    bad = [(i, j) for i in range(n) for j in range(k) if abs(V[i, j]) > tols.abs]
    bad += [(i, j) for i in range(k) for j in range(k, n) if abs(V[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("V does not vanish on the D-block")
    bad = [(i, j) for i in range(k, n) for j in range(k) if abs(U[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("U lower-left block nonzero")
    A = U[:k, :k]
    bad = [(i, j) for i in range(k) for j in range(k) if abs(A[i, j].imag) > tols.abs]
    if bad:
        raise SubgroupRejection("A-block not real")
    A = A.real
    if k and abs(np.linalg.det(A)) <= tols.singular:
        raise SingularityError("A-block singular")
    return {"A": A, "B": U[:k, k:], "Ur": U[k:, k:], "Vr": V[k:, k:]}


def _oracle_meta(W, C, k):
    tols = get_tolerances()
    n = W.shape[0]
    bad = [
        (i, j)
        for i in range(k)
        for j in range(n)
        if abs(W[i, j] - (1.0 if i == j else 0.0)) > 1e3 * tols.abs
    ]
    bad += [(i, j) for i in range(k, n) for j in range(k) if abs(W[i, j]) > 1e3 * tols.abs]
    if bad:
        raise SubgroupRejection("W not of the form diag(1, Wr)")
    cb = {"A": None, "B": C[:k, k:], "Cr": C[k:, k:]}
    bad = [(i, j) for i in range(k, n) for j in range(k) if abs(C[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("C lower-left block nonzero")
    A = C[:k, :k]
    bad = [(i, j) for i in range(k) for j in range(k) if abs(A[i, j].imag) > tols.abs]
    if bad:
        raise SubgroupRejection("C's A-block not real")
    cb["A"] = A.real
    if k and abs(np.linalg.det(cb["A"])) <= tols.singular:
        raise SingularityError("A-block singular")
    cb["Wr"] = W[k:, k:]
    return cb


def _outcome(fn):
    """("ok", blocks) or the class and message of what fn raised."""
    try:
        return "ok", fn()
    except (SubgroupRejection, SingularityError) as exc:
        return type(exc), str(exc)


def _first_failure(oracle, stacks):
    """The oracle applied matrix by matrix: the first failure, or the
    blocks of every matrix."""
    blocks = []
    for mats in zip(*stacks):
        out = _outcome(lambda: oracle(*mats))
        if out[0] != "ok":
            return out
        blocks.append(out[1])
    return "ok", blocks


def _assert_same(oracle_out, stacked_out):
    if oracle_out[0] != "ok" or stacked_out[0] != "ok":
        assert stacked_out == oracle_out
        return
    stacked = stacked_out[1]
    for p, want in enumerate(oracle_out[1]):
        for key, value in want.items():
            assert np.array_equal(stacked[key][p], value), key


def _random_stacks(rng, P, n, k):
    """Valid stacks: upper block-triangular matrices with a real
    invertible k x k corner, D-adapted frames (U, V) and meta frames
    W = diag(1_k, Wr), C."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    upper = cplx(P, n, n)
    upper[:, k:, :k] = 0
    upper[:, :k, :k] = rng.standard_normal((P, k, k)) + 3 * np.eye(k)
    V = np.zeros((P, n, n), dtype=complex)
    V[:, k:, k:] = cplx(P, n - k, n - k)
    W = np.zeros((P, n, n), dtype=complex)
    W[:, :k, :k] = np.eye(k)
    W[:, k:, k:] = 0.3 * cplx(P, n - k, n - k)
    return {"A": upper, "U": upper.copy(), "V": V, "W": W, "C": upper.copy()}


_SIZES = np.array([1e-13, 1e-9, 1e-7, 0.5])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_block_pattern_matches_the_scalar_checks(n, data):
    k = data.draw(st.integers(0, n))
    P = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    stacks = _random_stacks(rng, P, n, k)
    # perturb a random share of the entries, often several in one matrix
    share = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    for M in stacks.values():
        hit = rng.random(M.shape) < share
        M[hit] += (rng.choice(_SIZES, hit.sum())
                   * rng.choice([1, 1j, -1 - 1j], hit.sum()))
    if k and data.draw(st.booleans()):
        # a singular corner
        name = data.draw(st.sampled_from(["A", "U", "C"]))
        stacks[name][data.draw(st.integers(0, P - 1)), 0, :k] = 0
    label = data.draw(st.sampled_from(["", " (first)"]))

    def glk():
        checks, A, _ = _glk_pattern(stacks["A"], k, label)
        raise_first(checks)
        return {"A": A, "B": stacks["A"][:, :k, k:], "D": stacks["A"][:, k:, k:]}

    def frame():
        checks, blocks = frame_pattern(stacks["U"], stacks["V"], k)
        raise_first(checks)
        return blocks

    def meta():
        checks, blocks = meta_pattern(stacks["W"], stacks["C"], k)
        raise_first(checks)
        return blocks

    _assert_same(_first_failure(lambda A: _oracle_glk(A, k, label), [stacks["A"]]),
                 _outcome(glk))
    _assert_same(_first_failure(lambda U, V: _oracle_frame(U, V, k),
                                [stacks["U"], stacks["V"]]), _outcome(frame))
    _assert_same(_first_failure(lambda W, C: _oracle_meta(W, C, k),
                                [stacks["W"], stacks["C"]]), _outcome(meta))


# ---------------------------------------------------------------------------
# a stack of paths against each path alone
# ---------------------------------------------------------------------------

def _tracked(f, z0):
    """The list of track_sqrt's roots of a stack of paths f, given det
    f(0), or the message of the TrackingError raised."""
    try:
        return track_sqrt(f, z0, smallmat.det(f(np.zeros(1))[:, 0])).tolist()
    except TrackingError as exc:
        return str(exc)


_ENTRIES = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=18, max_size=18)
_PATH = st.tuples(_ENTRIES, st.sampled_from([None, None, None, "vanishes", "not finite",
                                             "stray"]), st.sampled_from([1.0, -1.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.lists(_PATH, min_size=1, max_size=5))
def test_stacked_tracking_matches_each_path(m, paths):
    # path p is the straight path A + sX of m x m matrices, with A near
    # 2I, unless it vanishes at s = 1/2, is NaN at s = 1 or has an anchor
    # on neither sheet
    A, X, anchors = [], [], []
    for entries, broken, sign in paths:
        a = 2.0 * np.eye(m) + 0.5 * np.reshape(entries[:m * m], (m, m))
        x = np.reshape(entries[9:9 + m * m], (m, m))
        x = {"vanishes": -2.0 * a, "not finite": np.where(np.eye(m) > 0, np.nan, x)}.get(broken, x)
        A.append(a)
        X.append(x)
        anchors.append(sign * (2.0 if broken == "stray" else 1.0)
                       * np.sqrt(complex(smallmat.det(a[None])[0])))
    A, X = np.array(A, dtype=complex), np.array(X, dtype=complex)

    def f(s):
        return A[:, None] + s[None, :, None, None] * X[:, None]

    alone = []
    for p in range(len(A)):
        alone.append(_tracked(lambda s, p=p: f(s)[p:p + 1], anchors[p:p + 1]))
        if isinstance(alone[-1], str):
            break
    # bit for bit, or the first path's error
    assert _tracked(f, anchors) == (alone[-1] if isinstance(alone[-1], str)
                                    else [z for [z] in alone])


# ---------------------------------------------------------------------------
# determinants over stacks
# ---------------------------------------------------------------------------

def _dense_ring(points: int) -> dict:
    """The seeded dense ring of tests/golden/scenarios with `points`
    samples on the path of every overlap."""
    doc = json.loads((GOLDEN_DIR / "scenarios" / "dense_ring_seed0.json").read_text())
    for ov in doc["nerve"]["overlaps"]:
        for comp in ov["components"]:
            stem = comp["points"][0]["id"][:3]
            comp["points"] = [{"id": f"{stem}p{i:02d}", "params": [i / (points - 1)]}
                              for i in range(points)]
            comp["edges"] = [[i, i + 1] for i in range(points - 1)]
    return doc


def test_det_calls_do_not_grow_with_sample_points(monkeypatch):
    # Every determinant of the load and the seven stages is taken over a
    # stack, or once per generator.  Every module takes its determinants
    # from the kernel.
    real_det = smallmat.det
    count = [0]

    def counting_det(a, *args, **kwargs):
        count[0] += 1
        return real_det(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hfe.") and getattr(module, "det", None) is real_det:
            monkeypatch.setattr(module, "det", counting_det)
    counts = []
    for points in (8, 16):
        count[0] = 0
        report = run_scenario(_dense_ring(points))
        assert report.passed
        counts.append(count[0])
    assert counts[0] > 0
    assert abs(counts[1] - counts[0]) <= 4, counts


def test_graph_steps_do_not_grow_with_vertices(monkeypatch):
    # a star is one depth below its centre whatever its number of leaves
    calls = []

    def counted(name, kernel):
        def fn(*args):
            calls.append(name)
            return kernel(*args)
        return fn

    for name in ("cmul", "_sqrt"):
        monkeypatch.setattr(tracking, name, counted(name, getattr(tracking, name)))
    counts = []
    for leaves in (4, 64):
        calls.clear()
        values = np.exp(1j * np.linspace(0.0, 1.0, leaves + 1))
        z = track_graph(values,
                        Walk.of(leaves + 1, [(0, i) for i in range(1, leaves + 1)], [0]),
                        [f"s{i}" for i in range(leaves + 1)], 1,
                        jump=lambda v: "", cycle=lambda v: "")
        assert np.allclose(z * z, values)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0]
