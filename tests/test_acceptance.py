"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every tolerance is pinned here, not computed at runtime.
"""

import math
import time

import numpy as np

from convexsmooth import (
    Ball,
    BallBody,
    BlendedGauge,
    HalfspaceBody,
    OutsideDomain,
    PatchParams,
    ball_gauge,
    ball_gauge_derivatives,
    ball_support_check,
    body_gauge,
    boundary_mesh,
    boundary_projection,
    boundary_surjectivity_probe,
    blended_gauge_sq,
    enclosing_radius,
    extract_smoothed_body,
    gauge_sq_hessian_check,
    hausdorff_measure,
    normal_lift,
    project_body,
    subgradient_certificate,
    symmetric_difference_measure,
)
from convexsmooth.bodies import contains_many
from convexsmooth.gauge import body_gauge_values, member_gauges
from helpers import (
    QuadraticPatch,
    boundary_cloud,
    brute_distance,
    fd_gradient,
    fd_jacobian,
    gauge_by_bisection,
    random_ball_body,
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_gauge_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(10)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(100):
            radius = rng.uniform(0.5, 2.0)
            center = rng.standard_normal(dim)
            center *= rng.uniform(0.0, 0.8) * radius / np.linalg.norm(center)
            ball = Ball(center, radius)
            x = rng.standard_normal(dim) * rng.uniform(0.1, 3.0)
            closed = ball_gauge(ball, x)
            oracle = gauge_by_bisection(ball, x)
            worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"closed-form vs bisection gauge, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_hessian_floor_and_finite_differences():
    start = time.time()
    rng = np.random.default_rng(20)
    min_margin = np.inf
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        body = random_ball_body(rng, dim, int(rng.integers(2, 6)))
        floor = 1.0 / (2.0 * body.radius**2)
        balls = body.balls()
        for _ in range(1000):
            x = rng.standard_normal(dim) * rng.uniform(0.05, 2.5) * body.radius
            idx = int(np.argmax(member_gauges(body, x)))
            ev = ball_gauge_derivatives(balls[idx], x)
            min_margin = min(min_margin, np.linalg.eigvalsh(ev.hess_sq)[0] - floor)
    floor_ok = min_margin >= -1e-9

    fd_ok = True
    for _ in range(100):
        ball = Ball(rng.uniform(-0.5, 0.5, size=2), rng.uniform(0.6, 1.8))
        x = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
        ev = ball_gauge_derivatives(ball, x)
        g_fd = fd_gradient(lambda y: ball_gauge(ball, y), x, h=1e-6)
        fd_ok &= np.linalg.norm(g_fd - ev.grad) <= 1e-5 * (1 + np.linalg.norm(ev.grad))

        def grad_sq(y):
            e = ball_gauge_derivatives(ball, y)
            return 2.0 * e.value * e.grad

        h_fd = fd_jacobian(grad_sq, x, h=1e-6)
        h_fd = 0.5 * (h_fd + h_fd.T)
        fd_ok &= np.abs(h_fd - ev.hess_sq).max() <= 1e-5 * (1 + np.abs(ev.hess_sq).max())
    elapsed = time.time() - start
    _report(
        2,
        floor_ok and fd_ok and elapsed < 10.0,
        f"squared-gauge Hessian floor margin {min_margin:.2e}, FD match, {elapsed:.1f}s",
    )


def test_criterion_3_enclosing_radius_containment():
    start = time.time()
    rng = np.random.default_rng(30)
    worst = -np.inf
    for k in range(20):
        patch = QuadraticPatch(rng, 1 + k % 2)
        params = PatchParams(
            lipschitz=patch.lipschitz,
            eta=patch.eta,
            r=patch.r,
            r0=patch.r,
            diam=patch.diam_bound,
        )
        R = enclosing_radius(params)
        ts = patch.sample_domain(rng, 100)
        graph = np.column_stack([ts, [patch.value(t) for t in ts]])
        lifts = np.array([normal_lift(patch.grad(t)).lift for t in ts])
        centers = graph - R * lifts
        margins = (
            np.linalg.norm(graph[None, :, :] - centers[:, None, :], axis=2) - R
        )
        worst = max(worst, float(np.max(margins)))
    elapsed = time.time() - start
    _report(
        3,
        worst <= 1e-9 and elapsed < 30.0,
        f"rolled enclosing balls contain every patch, worst margin {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_characterization_dichotomy():
    start = time.time()
    rng = np.random.default_rng(40)
    ok = True

    bodies = [random_ball_body(rng, 2, int(rng.integers(2, 7))) for _ in range(6)]
    bodies += [random_ball_body(rng, 3, int(rng.integers(2, 5))) for _ in range(2)]
    for body in bodies:
        samples = 240 if body.dim == 2 else 150
        ok &= ball_support_check(body, body.radius, samples).passed
        ok &= gauge_sq_hessian_check(body).passed
        floor = 1.0 / (2.0 * body.radius**2)
        balls = body.balls()
        pts = []
        for _ in range(40):
            x = rng.standard_normal(body.dim) * rng.uniform(0.3, 1.6) * body.radius
            value, argmax = body_gauge(body, x)
            ev = ball_gauge_derivatives(balls[argmax[0]], x)
            pts.append((x, value**2, 2.0 * ev.value * ev.grad))
        ok &= subgradient_certificate(pts, eta=floor).passed

    square = HalfspaceBody(
        normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[0.5] * 4
    )
    slab = HalfspaceBody(
        normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[0.5, 0.5, 0.05, 0.05]
    )
    for poly in (square, slab):
        for R in (1.0, 10.0, 100.0):
            ok &= not ball_support_check(poly, R, 360).passed
    elapsed = time.time() - start
    _report(
        4,
        ok and elapsed < 30.0,
        f"ball bodies certify, flat faces fail at R in {{1,10,100}}, {elapsed:.1f}s",
    )


def test_criterion_5_projection_vs_brute_force():
    start = time.time()
    rng = np.random.default_rng(50)
    ok = True
    worst_discrepancy = 0.0
    for _ in range(10):
        body = random_ball_body(rng, 2, int(rng.integers(2, 6)))
        cloud = boundary_cloud(body, 20_000)
        queries = rng.uniform(-2.0, 2.0, size=(50, 2)) * body.radius
        projections = []
        for x in queries:
            p = project_body(body, x)
            projections.append(p)
            discrepancy = abs(np.linalg.norm(x - p) - brute_distance(body, cloud, x))
            worst_discrepancy = max(worst_discrepancy, discrepancy)
            q = project_body(body, p)
            ok &= bool(np.linalg.norm(q - p) <= 1e-8)  # idempotence
        projections = np.array(projections)
        for i in range(0, 50, 5):
            d = np.linalg.norm(projections - projections[i], axis=1)
            ok &= bool(
                np.all(d <= np.linalg.norm(queries - queries[i], axis=1) + 2e-9)
            )
    elapsed = time.time() - start
    _report(
        5,
        ok and worst_discrepancy <= 2e-3 and elapsed < 60.0,
        f"exact projection vs dense-boundary oracle, worst discrepancy {worst_discrepancy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_boundary_projection_domain():
    start = time.time()
    rng = np.random.default_rng(60)
    from convexsmooth import projection_domain

    worst_ratio = 0.0
    circle = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
    lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)
    for body, n_interior, n_exterior in ((circle, 400, 400), (lens, 100, 500)):
        mesh = boundary_mesh(body, 1440)
        width = projection_domain(mesh).width
        pts = []
        for _ in range(n_interior):
            k = int(rng.integers(0, len(mesh.points)))
            p = mesh.points[k]
            depth = rng.uniform(1e-3, 0.9 * width)
            pts.append(p * (1.0 - depth / np.linalg.norm(p)))
        for _ in range(n_exterior):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            pts.append(rng.uniform(1.01, 2.0) * u / body_gauge_values(body, u[None])[0] * 1.0)
        pts = np.array(pts)
        projs = np.array(
            [boundary_projection(body, mesh, x) for x in pts]
        )
        for _ in range(5000):
            i, j = rng.integers(0, len(pts), size=2)
            sep = np.linalg.norm(pts[i] - pts[j])
            if sep < 0.01:
                continue
            worst_ratio = max(
                worst_ratio, float(np.linalg.norm(projs[i] - projs[j]) / sep)
            )

    cmesh = boundary_mesh(circle, 720)
    raised = False
    try:
        boundary_projection(circle, cmesh, np.array([0.3, 0.0]))
    except OutsideDomain:
        raised = True
    elapsed = time.time() - start
    _report(
        6,
        worst_ratio <= 2.0 + 1e-6 and raised and elapsed < 10.0,
        f"projection ratio <= 2 on pairs at least 0.01 apart inside the mesh-estimated tube, "
        f"worst ratio {worst_ratio:.6f}, deep interior rejected, {elapsed:.1f}s",
    )


def test_criterion_7_surjectivity_probe():
    start = time.time()
    inner = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
    outer_ball = BallBody(radius=2.0, centers=[[0.0, 0.0]], dim=2)
    outer_square = HalfspaceBody(
        normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[2.0] * 4
    )
    gap_ball, _ = boundary_surjectivity_probe(inner, outer_ball, 360)
    gap_square, _ = boundary_surjectivity_probe(inner, outer_square, 360)
    elapsed = time.time() - start
    _report(
        7,
        gap_ball <= 1e-6 and gap_square <= 1e-6 and elapsed < 5.0,
        f"projection maps outer onto inner boundary, gaps {gap_ball:.1e}/{gap_square:.1e}, {elapsed:.1f}s",
    )


def _gap_values(body: BallBody, pts: np.ndarray) -> np.ndarray:
    sq = member_gauges(body, pts) ** 2
    part = -np.partition(-sq, 1, axis=-1)
    return part[..., 0] - part[..., 1]


def _hessian_jump_across_blend_boundary(gauge: BlendedGauge, mesh) -> float:
    """Max Hessian entry change across the gap = delta surface.

    Anchors a segment from the deepest in-tube mesh vertex to the most
    agreeing one and bisects the gap to relative offsets of 1e-9 on both
    sides. Finite differences cannot certify continuity at these blend
    widths (the third derivative scales like 1/delta^2), so the check
    compares the closed-form Hessian field, which earlier tests validated
    against finite differences at O(1) widths.
    """
    body, delta = gauge.body, gauge.delta
    gaps = _gap_values(body, mesh.points)
    inner = mesh.points[int(np.argmin(gaps))]
    outer = mesh.points[int(np.argmax(gaps))]
    if gaps.min() > delta * (1 - 1e-6) or gaps.max() < delta * (1 + 1e-6):
        return 0.0  # no blend boundary crossing on this boundary

    def at(s: float) -> np.ndarray:
        return inner + s * (outer - inner)

    def solve(target: float) -> np.ndarray:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _gap_values(body, at(mid)[None, :])[0] < target:
                lo = mid
            else:
                hi = mid
        return at(hi)

    x_in = solve(delta * (1 - 1e-9))
    x_out = solve(delta * (1 + 1e-9))
    _, _, h_in = blended_gauge_sq(gauge, x_in)
    _, _, h_out = blended_gauge_sq(gauge, x_out)
    return float(np.abs(h_in - h_out).max())


def test_criterion_8_end_to_end_2d():
    start = time.time()
    rng = np.random.default_rng(80)
    eps_rel, delta, resolution = 0.05, 1e-3, 10_000
    worst_fixture_time = 0.0
    worst_sd_ratio = 0.0
    worst_eig_ratio = np.inf
    worst_jump = 0.0
    for k in range(25):
        t_fix = time.time()
        body = random_ball_body(rng, 2, 3 + k % 6)
        floor = 1.0 / (2.0 * body.radius**2)

        smoothed = extract_smoothed_body(
            body,
            delta=delta,
            epsilon=eps_rel,
            order="C2",
            resolution=4096,
        )
        w_mesh = boundary_mesh(body, resolution)
        we_mesh = boundary_mesh(smoothed, resolution)
        boundary = hausdorff_measure(w_mesh)
        symdiff = symmetric_difference_measure(w_mesh, we_mesh)
        worst_sd_ratio = max(worst_sd_ratio, symdiff / (eps_rel * boundary))
        assert symdiff < eps_rel * boundary, f"fixture {k}: symdiff {symdiff:.4f}"

        shrink = rng.random((resolution, 1)) ** 0.5
        samples = we_mesh.points * shrink
        assert bool(np.all(contains_many(body, samples))), f"fixture {k}: escape"

        mus = body_gauge_values(body, we_mesh.points)
        assert np.all(mus >= 1 - 5 * eps_rel) and np.all(mus <= 1 + 5 * eps_rel)

        idx = rng.integers(0, len(we_mesh.points), size=200)
        eig_min = np.inf
        for i in idx:
            _, _, hess = blended_gauge_sq(smoothed.gauge, we_mesh.points[i])
            eig_min = min(eig_min, float(np.linalg.eigvalsh(hess)[0]))
        worst_eig_ratio = min(worst_eig_ratio, eig_min / floor)
        assert eig_min >= 0.9 * floor, f"fixture {k}: curvature {eig_min:.4f}"

        jump = _hessian_jump_across_blend_boundary(smoothed.gauge, we_mesh)
        worst_jump = max(worst_jump, jump)
        assert jump <= 1e-4, f"fixture {k}: Hessian jump {jump:.2e}"

        worst_fixture_time = max(worst_fixture_time, time.time() - t_fix)
    elapsed = time.time() - start
    _report(
        8,
        worst_fixture_time < 60.0,
        "25 fixtures: symdiff/eps*H <= "
        f"{worst_sd_ratio:.3f}, min eig/floor {worst_eig_ratio:.3f}, "
        f"C2 jump {worst_jump:.1e}, worst fixture {worst_fixture_time:.1f}s, total {elapsed:.0f}s",
    )


def test_criterion_9_3d_smoke():
    start = time.time()
    body = BallBody(
        radius=1.0,
        centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]],
        dim=3,
    )
    smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2", resolution=4)
    w_mesh = boundary_mesh(body, 5)
    we_mesh = boundary_mesh(smoothed, 5)
    symdiff = symmetric_difference_measure(w_mesh, we_mesh)
    boundary = hausdorff_measure(w_mesh)
    elapsed = time.time() - start
    _report(
        9,
        symdiff < 0.05 * boundary and elapsed < 300.0,
        f"3-ball body at icosphere level 5: symdiff {symdiff:.4f} < {0.05 * boundary:.4f}, {elapsed:.0f}s",
    )


def test_criterion_10_mesh_convergence():
    start = time.time()
    circle = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
    errors = [
        abs(hausdorff_measure(boundary_mesh(circle, n)) - 2 * math.pi)
        for n in (360, 720, 1440)
    ]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]

    sphere = BallBody(radius=1.0, centers=[[0.0, 0.0, 0.0]], dim=3)
    errors3 = [
        abs(hausdorff_measure(boundary_mesh(sphere, lvl)) - 4 * math.pi)
        for lvl in (3, 4, 5)
    ]
    ratios += [errors3[0] / errors3[1], errors3[1] / errors3[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    elapsed = time.time() - start
    _report(
        10,
        ok,
        f"perimeter/area error ratios {', '.join(f'{r:.2f}' for r in ratios)}, {elapsed:.0f}s",
    )
