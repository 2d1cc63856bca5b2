"""End-to-end acceptance criteria.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line; run with ``pytest -s`` to see the lines
on passing runs as well.
"""

from cmath import sqrt as principal_sqrt

import numpy as np

from hfe import ball
from hfe.cech import lift_double_cover, z2_coboundary_solve
from hfe.frames import (
    alpha_tilde,
    check_ball,
    check_frame_pairs,
    delta,
    delta_L_tilde,
    gamma_stack,
    pairing_density,
    validate_lagrangian,
)
from hfe.groups import check_ml, ml_mul
from hfe.scenario import builtin_scenario_path, load_scenario
from hfe.smallmat import det

from helpers import (
    gamma_two_legs,
    normal_complex,
    random_ball_point,
    random_gl,
    random_gl_real,
    random_mlkd_stack,
    random_positive_frame,
    random_sp,
)


def _verdict(label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


def _block_pair(rng, n, k):
    """Frame pair (U, V) in D-adapted block form sharing a real A block."""
    A = random_gl_real(rng, k)
    frames = []
    for _ in range(2):
        B = normal_complex(rng, (k, n - k))
        Ur, Vr = random_positive_frame(rng, n - k)
        U = np.zeros((n, n), dtype=complex)
        V = np.zeros((n, n), dtype=complex)
        U[:k, :k] = A
        U[:k, k:] = B
        U[k:, k:] = Ur
        V[k:, k:] = Vr
        validate_lagrangian(U[None], V[None])
        frames.append((U, V))
    return frames


def _columns(U, V):
    """The stacked columns (U; V) (2n, n) of a frame."""
    return np.vstack([U, V])


def _ball_stack(rng, m, r, radius=0.9):
    """m symmetric r x r matrices of operator norm < radius, each scaled
    as random_ball_point scales one."""
    W = normal_complex(rng, (m, r, r))
    W = 0.5 * (W + np.swapaxes(W, -1, -2))
    if not r:
        return W
    scale = radius * rng.uniform(0.05, 1.0, m) / np.linalg.norm(W, 2, axis=(-2, -1))
    return W * scale[:, None, None]


def _block_pair_stacks(rng, m, n, k):
    """m frame pairs in D-adapted block form, as stacked columns (m, 2n,
    n): the members of pair p share the real block A[p] of a
    random_mlkd_stack pair and have the upper rows (A B; 0 U_r) and the
    lower rows (0 0; 0 V_r), with (U_r, V_r) = phi_inv(W, D), W a Ball
    point and B, D the member's other blocks."""
    M1, _, M2, _ = random_mlkd_stack(rng, m, n, k)
    stacks = []
    for M in (M1, M2):
        Ur, Vr = ball.phi_inv_raw(_ball_stack(rng, m, n - k), M[:, k:, k:])
        U, V = M.copy(), np.zeros_like(M)
        U[:, k:, k:], V[:, k:, k:] = Ur, Vr
        validate_lagrangian(U, V)
        stacks.append(np.concatenate([U, V], axis=1))
    check_frame_pairs(*stacks, k)
    return stacks


def test_criterion_01_metalinear_group_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = np.array([random_gl(rng, n), random_gl(rng, n)])
        z = [s * principal_sqrt(d) for s, d in zip(rng.choice([1, -1], 2),
                                                   np.linalg.det(A))]
        C, (zc,) = ml_mul(A[:1], z[:1], A[1:], z[1:])
        d = np.linalg.det(C[0])
        worst = max(worst, abs(zc * zc - d) / abs(d))
    lift_ok = True
    for _ in range(50):
        A = random_gl(rng, int(rng.integers(1, 7)))
        z = principal_sqrt(np.linalg.det(A))
        # both sheets over A are metalinear (check_ml raises otherwise)
        check_ml(det(np.array([A, A])), [z, -z])
        lift_ok = lift_ok and abs(z * z - np.linalg.det(A)) <= 1e-9 * abs(z * z)
    _verdict(
        "criterion 1: metalinear products keep z^2 = det on 1000 draws "
        "and both lift sheets project exactly",
        worst < 1e-9 and lift_ok,
        f"worst residual {worst:.2e}",
    )


def test_criterion_02_delta_transformation_law():
    rng = np.random.default_rng(102)
    worst = 0.0
    min_abs = float("inf")
    for n in range(1, 5):
        for k in range(0, n + 1):
            S1, S2 = _block_pair_stacks(rng, 500, n, k)
            base = np.array(delta(S1, S2, k))
            min_abs = min(min_abs, np.min(np.abs(base)))
            g1, _, g2, _ = random_mlkd_stack(rng, 500, n, k)
            T1, T2 = S1 @ g1, S2 @ g2
            for T in (T1, T2):
                validate_lagrangian(T[:, :n], T[:, n:])
            check_frame_pairs(T1, T2, k)
            moved = np.array(delta(T1, T2, k))
            detA = np.linalg.det(g1[:, :k, :k].real)
            target = np.conj(np.linalg.det(g1)) * np.linalg.det(g2) / (detA * detA) * base
            worst = max(worst, np.max(np.abs(moved - target) / np.abs(target)))
    _verdict(
        "criterion 2: pairing determinant transformation law on 500 draws "
        "per (n, k), n <= 4",
        worst < 1e-9 and min_abs > 1e-12,
        f"worst residual {worst:.2e}, min |delta| {min_abs:.2e}",
    )


def test_criterion_03_ball_chart_roundtrips():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        U0, V0 = random_positive_frame(rng, n)
        W, C, _ = ball.phi_raw(U0, V0)
        check_ball(W[None])
        U, V = ball.phi_inv_raw(W, C)
        worst = max(
            worst,
            float(np.max(np.abs(U - U0))),
            float(np.max(np.abs(V - V0))),
        )
    for _ in range(500):
        n = int(rng.integers(1, 5))
        W = random_ball_point(rng, n)
        C = random_gl(rng, n)
        U, V = ball.phi_inv_raw(W, C)
        validate_lagrangian(U[None], V[None])
        W2, C2, _ = ball.phi_raw(U, V)
        worst = max(
            worst,
            float(np.max(np.abs(W2 - W))),
            float(np.max(np.abs(C2 - C))),
        )
    Wa, Ca, _ = ball.phi_raw(np.array([[1.0]]), np.array([[1j]]))
    anchor_ok = (
        abs(Wa[0, 0]) < 1e-12 and abs(Ca[0, 0] - 2.0) < 1e-12
    )
    _verdict(
        "criterion 3: 1000 Ball-chart roundtrips and the origin anchor "
        "(W, C) = (0, 2)",
        worst < 1e-10 and anchor_ok,
        f"worst roundtrip {worst:.2e}",
    )


def test_criterion_04_automorphy_cocycle_and_cover():
    rng = np.random.default_rng(104)
    worst = 0.0
    proj_ok = True
    deck_ok = True
    for i in range(300):
        n = int(rng.integers(1, 4))
        g, h = random_sp(rng, n), random_sp(rng, n)
        W = random_ball_point(rng, n)
        hW, ah = ball.alpha_raw(h, W)
        _, ag = ball.alpha_raw(g, hW)
        _, agh = ball.alpha_raw(g @ h, W)
        scale = max(1.0, float(np.max(np.abs(ag @ ah))))
        worst = max(worst, float(np.max(np.abs(agh - ag @ ah))) / scale)
        if i < 60:  # tracked-sheet checks on a subsample
            _, a0 = ball.alpha_raw(g, np.zeros((n, n)))
            zeta = principal_sqrt(np.linalg.det(a0))
            _, A, z = alpha_tilde(g[None], [zeta], W[None])
            _, am = ball.alpha_raw(g, W)
            proj_ok = proj_ok and np.array_equal(A[0], am)
            _, dA, dz = alpha_tilde(g[None], [-zeta], W[None])
            flipped, fz = ml_mul(A, z, np.eye(n)[None], [-1.0])
            deck_ok = (
                deck_ok
                and np.array_equal(dA, flipped)
                and dz == fz
            )
    _verdict(
        "criterion 4: automorphy cocycle identity on 300 pairs, tracked "
        "factor projects exactly, deck acts by the sheet flip",
        worst < 1e-8 and proj_ok and deck_ok,
        f"worst cocycle residual {worst:.2e}",
    )


def test_criterion_05_gamma_square_and_path_independence(corpus_reports):
    rng = np.random.default_rng(105)
    worst_sq = 0.0
    worst_path = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 5))
        W1, W2 = random_ball_point(rng, n)[None], random_ball_point(rng, n)[None]
        v, = gamma_stack(W1, W2)
        target = np.linalg.det(0.5 * (np.eye(n) - W1[0].conj().T @ W2[0]))
        worst_sq = max(worst_sq, abs(v * v - target) / max(1.0, abs(target)))
        if i < 200:
            worst_path = max(
                worst_path,
                abs(v - gamma_two_legs(W1, W2, 0.3)[0]),
                abs(v - gamma_two_legs(W1, W2, 0.7)[0]),
            )
    anchor_flagged = all(
        any("2^(-n/2)" in note for note in report.notes)
        for report in corpus_reports.values()
    )
    _verdict(
        "criterion 5: gamma squares to its determinant on 1000 pairs, is "
        "path independent, and the origin anchor is flagged in reports",
        worst_sq < 1e-9 and worst_path < 1e-8 and anchor_flagged,
        f"square {worst_sq:.2e}, path {worst_path:.2e}",
    )


def _check(report, check_id):
    for c in report.checks:
        if c.check_id == check_id:
            return c
    raise AssertionError(f"missing check {check_id}")


def test_criterion_06_gluing_and_lift_classes(corpus_reports):
    ok = True
    details = []
    for name, classes in (("circle_mobius", 2), ("torus_grid", 4)):
        report = corpus_reports[name]
        glue = _check(report, "delta_tilde.glue")
        count = _check(report, "lift.class-count")
        unique = _check(report, "delta_tilde.unique-class")
        ok = ok and glue.max_residual < 1e-9
        ok = ok and count.details["classes"] == classes
        ok = ok and unique.passed and count.passed
        details.append(f"{name}: glue {glue.max_residual:.2e}, "
                       f"classes {count.details['classes']}")
    _verdict(
        "criterion 6: square-root datum glues on both twisted scenarios "
        "with lift classes 2 and 4 counted from GF(2) ranks",
        ok,
        "; ".join(details),
    )


def test_criterion_07_self_compatibility(corpus_reports):
    report = corpus_reports["trivial_r2"]
    ok = True
    for name, eps in (("eps0", 0), ("eps1", 1)):
        c = _check(report, f"self_compat.{name}")
        ok = ok and c.passed and c.details["epsilon"] == eps
        ok = ok and c.max_residual < 1e-9  # squared identity
    _verdict(
        "criterion 7: self-compatibility realizes both parity classes "
        "with the squared identity (the positivity of the normalized "
        "values is an identity of the formulas, property-tested in "
        "tests/test_compatibility.py)",
        ok,
    )


def test_criterion_08_recipe_on_metaplectic_scenarios(corpus_reports):
    ok = True
    details = []
    for name in ("circle_mobius", "abstract_k1_nonorientable"):
        report = corpus_reports[name]
        proj = _check(report, "recipe.projection")
        sheet = _check(report, "recipe.sheet-coboundary")
        ok = ok and proj.passed and proj.max_residual < 1e-10
        ok = ok and proj.details["cocycle"] < 1e-9
        ok = ok and sheet.passed
        details.append(f"{name}: projection {proj.max_residual:.2e}")
    _verdict(
        "criterion 8: the recipe projects onto the frame transitions, "
        "yields valid metalinear cocycles, and sheet changes are "
        "coboundaries",
        ok,
        "; ".join(details),
    )


def test_criterion_09_block_datum_and_cross_check(corpus_reports):
    ok = True
    details = []
    for name in ("circle_mobius", "abstract_k1_nonorientable"):
        c = _check(corpus_reports[name], "delta_D.glue")
        ok = ok and c.passed and c.max_residual < 1e-8
        ok = ok and c.details["square_identity"] < 1e-9
        details.append(f"{name}: glue {c.max_residual:.2e}")
    cc = _check(corpus_reports["abstract_k1_nonorientable"],
                "cross_check.agreement")
    ok = ok and cc.passed and cc.details["global_sign"] in (1, -1)
    details.append(f"global sign {cc.details['global_sign']}")
    _verdict(
        "criterion 9: block-form square-root datum glues (including a "
        "negative shared determinant) and matches the compatible "
        "construction up to one global sign",
        ok,
        "; ".join(details),
    )


def test_criterion_10_obstruction(corpus_reports):
    report = corpus_reports["sphere_octa"]
    lift = _check(report, "obstruction.lift")
    fc = _check(report, "obstruction.cochain.fundamental_class")
    tv = _check(report, "obstruction.cochain.trivial")
    scenario = load_scenario(builtin_scenario_path("sphere_octa"))
    nerve = scenario.nerve
    defect = lift_double_cover(nerve, scenario.gl_cocycle)
    ok = (
        lift.passed
        and lift.details["obstructed"] is True
        and z2_coboundary_solve(nerve, defect) is None
        and fc.details["verdict"] == "infeasible"
        and tv.details["verdict"] == "feasible"
    )
    _verdict(
        "criterion 10: the sphere cocycle is obstructed with an "
        "infeasible defect class while the trivial cochain is feasible",
        ok,
    )


def test_criterion_11_density_invariance():
    rng = np.random.default_rng(111)
    worst_hd = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        (U1, V1), (U2, V2) = _block_pair(rng, n, k)
        lifts = np.column_stack([rng.standard_normal(2 * n)
                                 for _ in range(2 * n - k)])[None]
        nu1, nu2 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        preq = complex(*rng.standard_normal(2))
        v, = pairing_density([preq], [nu1], [nu2], _columns(U1, V1)[None],
                             _columns(U2, V2)[None], k, lifts)
        (g1,), _, (g2,), _ = random_mlkd_stack(rng, 1, n, k)
        T1, T2 = _columns(U1, V1) @ g1, _columns(U2, V2) @ g2
        validate_lagrangian(np.array([T1[:n], T2[:n]]), np.array([T1[n:], T2[n:]]))
        v2, = pairing_density(
            [preq],
            [nu1 * abs(np.linalg.det(g1)) ** -0.5],
            [nu2 * abs(np.linalg.det(g2)) ** -0.5],
            T1[None], T2[None], k,
            lifts,
        )
        worst_hd = max(worst_hd, abs(v2 - v) / max(1.0, abs(v)))
    worst_hf = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        A = random_gl_real(rng, k)
        metas, frames = [], []
        for _ in range(2):
            B = normal_complex(rng, (k, n - k))
            Wr = random_ball_point(rng, n - k)
            Cr = random_gl(rng, n - k)
            W = np.zeros((n, n), dtype=complex)
            W[:k, :k] = np.eye(k)
            W[k:, k:] = Wr
            C = np.zeros((n, n), dtype=complex)
            C[:k, :k] = A
            C[:k, k:] = B
            C[k:, k:] = Cr
            metas.append((W, C))
        # the meta frames (W[p], (C[p], zc[p])) and their projected frames
        W, C = (np.array(x) for x in zip(*metas))
        zc = [principal_sqrt(d) for d in np.linalg.det(C)]
        check_ball(W)
        check_ml(det(C), zc)
        U, V = ball.phi_inv_raw(W, C)
        validate_lagrangian(U, V)
        S = np.concatenate([U, V], axis=-2)
        lifts = np.column_stack([rng.standard_normal(2 * n)
                                 for _ in range(2 * n - k)])[None]
        nu1, nu2 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        preq = complex(*rng.standard_normal(2))
        dt = delta_L_tilde(W[:1], C[:1], zc[:1], W[1:], C[1:], zc[1:], k)
        v, = pairing_density([preq], [nu1], [nu2], S[:1], S[1:], k, lifts,
                             delta_tilde=dt)
        M1, z1, M2, z2 = random_mlkd_stack(rng, 1, n, k)
        M, zm = np.concatenate([M1, M2]), [z1[0], z2[0]]
        C2, z = ml_mul(C, zc, M, zm)
        dt2 = delta_L_tilde(W[:1], C2[:1], z[:1], W[1:], C2[1:], z[1:], k)
        T = S @ M
        validate_lagrangian(T[:, :n], T[:, n:])
        v2, = pairing_density(
            [preq], [nu1 / zm[0]], [nu2 / zm[1]],
            T[:1], T[1:], k, lifts,
            delta_tilde=dt2,
        )
        worst_hf = max(worst_hf, abs(v2 - v) / max(1.0, abs(v)))
    _verdict(
        "criterion 11: pairing densities are invariant under frame "
        "changes on 200 half-density and 200 half-form draws",
        worst_hd < 1e-9 and worst_hf < 1e-9,
        f"half-density {worst_hd:.2e}, half-form {worst_hf:.2e}",
    )
