import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import nnls

from convexsmooth import (
    Ball,
    BallBody,
    HalfspaceBody,
    InvalidBody,
    OutsideDomain,
    RayMiss,
    boundary_mesh,
    boundary_projection,
    boundary_surjectivity_probe,
    body_from_json,
    contains,
    project_ball,
    project_body,
)
from convexsmooth.bodies import MEMBERSHIP_SLACK
from convexsmooth.gauge import body_gauge_values
from convexsmooth.measure import boundary_samples, radial_function, sample_directions
from convexsmooth.project import PROBE_GAP_THRESHOLD, _ray_exits
from helpers import ball_bodies, bench_corpus, boundary_cloud, boundary_projection_accepts, brute_distance


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


def unit_ball():
    return BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)


class TestProjectBall:
    def test_radial(self):
        p = project_ball(Ball([1.0, 0.0], 1.0), [3.0, 0.0])
        assert np.allclose(p, [2.0, 0.0])

    def test_identity_inside(self):
        x = np.array([1.2, 0.3])
        assert np.array_equal(project_ball(Ball([1.0, 0.0], 1.0), x), x)

    def test_one_lipschitz(self):
        ball = Ball([0.3, -0.1], 0.8)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-3, 3, size=(10_000, 2))
        ys = rng.uniform(-3, 3, size=(10_000, 2))
        for x, y in zip(xs[:500], ys[:500]):
            d = np.linalg.norm(project_ball(ball, x) - project_ball(ball, y))
            assert d <= np.linalg.norm(x - y) + 1e-12


class TestProjectBody:
    def test_single_ball_reduces_to_closed_form(self):
        body = BallBody(radius=1.0, centers=[[0.2, -0.3]], dim=2)
        x = np.array([2.0, 1.0])
        assert np.allclose(
            project_body(body, x), project_ball(Ball([0.2, -0.3], 1.0), x)
        )

    def test_lens_tip(self):
        p = project_body(lens(), np.array([0.0, 2.0]))
        assert np.linalg.norm(p - [0.0, np.sqrt(0.75)]) <= 1e-6

    def test_fixed_inside(self):
        x = np.array([0.1, -0.2])
        assert np.array_equal(project_body(lens(), x), x)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        body = lens()
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            p = project_body(body, x)
            q = project_body(body, p)
            assert np.linalg.norm(p - q) <= 1e-9

    def test_one_lipschitz_with_tolerance(self):
        body = lens()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(60, 2))
        proj = [project_body(body, x) for x in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                lhs = np.linalg.norm(proj[i] - proj[j])
                assert lhs <= np.linalg.norm(pts[i] - pts[j]) + 2e-10

    def test_matches_brute_force(self):
        body = lens()
        cloud = boundary_cloud(body, 20_000)
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=2)
            p = project_body(body, x)
            assert contains(body, p) or np.linalg.norm(p - project_body(body, p)) < 1e-8
            assert abs(np.linalg.norm(x - p) - brute_distance(body, cloud, x)) <= 2e-3

    def test_thin_lens_vertex_is_exact(self):
        # the arcs meet at the vertex at an angle of 3.6 degrees
        body = BallBody(radius=1.0, centers=[[0.9995, 0.0], [-0.9995, 0.0]], dim=2)
        p = project_body(body, np.array([0.0, 1.0]))
        assert np.linalg.norm(p - [0.0, np.sqrt(1.0 - 0.9995**2)]) <= 1e-15

    def test_batch_matches_single_points(self):
        body = BallBody(
            radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
        )
        pts = np.random.default_rng(5).uniform(-2, 2, size=(40, 3))
        batch = project_body(body, pts)
        assert batch.shape == pts.shape
        for x, p in zip(pts, batch):
            assert np.array_equal(project_body(body, x), p)


class TestProjectBodyProperties:
    """Exact projection on random bodies with degenerate corners.

    The KKT residual is the distance from x - p to the cone of the active
    normals. Its bound has a rounding floor of 1e-15 R: p itself carries
    an absolute rounding error of a few ulp of R, which no relative bound
    can absorb once x is very close to the body.
    """

    @settings(max_examples=150, deadline=None)
    @given(body=ball_bodies(), seed=st.integers(0, 2**32 - 1))
    def test_feasible_kkt_idempotent_nonexpansive(self, body, seed):
        rng = np.random.default_rng(seed)
        R, A = body.radius, body.centers
        u = rng.standard_normal((12, body.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        # half anywhere within 3R, half just beyond the boundary
        far = u[:6] * rng.uniform(0.0, 3.0, (6, 1)) * R
        beyond = 1.0 + 10.0 ** rng.uniform(-12.0, 0.0, (6, 1))
        near = u[6:] / body_gauge_values(body, u[6:])[:, None] * beyond
        pts = np.vstack([far, near])
        proj = project_body(body, pts)

        excess = np.linalg.norm(proj[:, None, :] - A[None], axis=2) - R
        assert np.all(excess <= MEMBERSHIP_SLACK * R)
        for x, p, e in zip(pts, proj, excess):
            r = x - p
            active = np.abs(e) <= MEMBERSHIP_SLACK * R
            if np.any(active):
                normals = (p - A[active]).T / R
                lam, _ = nnls(normals, r)
                r = r - normals @ lam
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(x - p) + 1e-15 * R

        assert np.array_equal(project_body(body, proj), proj)
        moved = np.linalg.norm(proj[:, None] - proj[None], axis=2)
        apart = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        assert np.all(moved <= apart + 1e-12 * R)


class TestBoundaryProjection:
    def test_interior_point_projects_radially(self):
        p = boundary_projection(unit_ball(), np.array([0.6, 0.0]))
        assert np.linalg.norm(p - [1.0, 0.0]) <= 1e-7

    def test_exterior_point(self):
        p = boundary_projection(unit_ball(), np.array([2.0, 0.0]))
        assert np.linalg.norm(p - [1.0, 0.0]) <= 1e-9

    def test_deep_interior_raises(self):
        with pytest.raises(OutsideDomain, match="sphere depths 0.7 "):
            boundary_projection(unit_ball(), np.array([0.3, 0.0]))

    def test_two_lipschitz_on_domain(self):
        body = unit_ball()
        rng = np.random.default_rng(4)
        pts, projs = [], []
        for _ in range(120):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            if rng.random() < 0.5:
                x = (1.0 - rng.uniform(0.01, 0.95) * 0.5) * u
            else:
                x = rng.uniform(1.01, 2.0) * u
            pts.append(x)
            projs.append(boundary_projection(body, x))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                sep = np.linalg.norm(pts[i] - pts[j])
                ratio = np.linalg.norm(projs[i] - projs[j]) / sep
                assert ratio <= 2.0 + 1e-6

    def test_interior_lens_points_reach_the_nearest_arc(self):
        body = lens()
        mesh = boundary_mesh(body, 1440)
        cloud = boundary_cloud(body, 100_000)
        rng = np.random.default_rng(6)
        for k in rng.choice(len(mesh.points), size=20, replace=False):
            x = mesh.points[k] * (1.0 - 1e-3 / np.linalg.norm(mesh.points[k]))
            p = boundary_projection(body, x)
            assert np.max(np.linalg.norm(p - body.centers, axis=1)) == pytest.approx(1.0, abs=1e-15)
            nearest_sample = np.min(np.linalg.norm(cloud - x, axis=1))
            assert np.linalg.norm(x - p) <= nearest_sample + 1e-15

    def test_interior_3d(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0, 0.0]], dim=3)
        p = boundary_projection(body, np.array([0.0, 0.0, 0.7]))
        assert np.linalg.norm(p - [0.0, 0.0, 1.0]) <= 1e-6

    def test_points_straddling_the_lens_tip_axis_raise(self):
        # 2e-7 apart, on either side of the medial axis x = 0: the nearest
        # boundary points lie on different arcs, 4.3e-4 apart
        tip = np.array([0.0, np.sqrt(0.75)])
        for side in (-1.0, 1.0):
            with pytest.raises(OutsideDomain):
                boundary_projection(lens(), tip + [side * 1e-7, -5e-4])

    def test_a_repeated_center_is_one_sphere(self):
        twice = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]], dim=2)
        x = np.array([-0.45, 0.1])
        assert np.array_equal(boundary_projection(twice, x), boundary_projection(lens(), x))


class TestBoundaryProjectionProperties:
    """The 2-Lipschitz bound and the exact images on random bodies.

    Pairs are as close as 1e-9 R, so the rounding of the images, a few ulp
    of R, moves a ratio by at most ~1e-7.
    """

    @settings(max_examples=150, deadline=None)
    @given(body=ball_bodies(), seed=st.integers(0, 2**32 - 1))
    # an image 1.99e-12 outside sphere 0, within the slack of R = 2
    @example(body=BallBody(radius=2.0, centers=[[0.0, 0.0], [2e-12, 0.0]], dim=2), seed=0)
    def test_two_lipschitz_at_any_separation_and_exact_images(self, body, seed):
        rng = np.random.default_rng(seed)
        R, A = body.radius, body.centers
        u = rng.standard_normal((8, body.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        boundary = u / body_gauge_values(body, u)[:, None]
        # six points moved in from the boundary by 1e-8 R to R, two moved
        # out, and a neighbor of each from 1e-9 R to R away
        depth = 10.0 ** rng.uniform(-8.0, 0.0, (8, 1)) * R
        depth[6:] *= -1.0
        base = boundary - depth * u
        step = rng.standard_normal((8, body.dim))
        step *= 10.0 ** rng.uniform(-9.0, 0.0, (8, 1)) * R / np.linalg.norm(step, axis=1, keepdims=True)
        pts = np.vstack([base, base + step])

        kept, images = [], []
        for x in pts:
            if not boundary_projection_accepts(body, x):
                with pytest.raises(OutsideDomain):
                    boundary_projection(body, x)
                continue
            p = boundary_projection(body, x)
            assert abs(np.max(np.linalg.norm(p - A, axis=1)) - R) <= MEMBERSHIP_SLACK * R
            if contains(body, x):
                depth = R - np.max(np.linalg.norm(x - A, axis=1))
                assert abs(np.linalg.norm(x - p) - depth) <= 8 * np.finfo(float).eps * R
            kept.append(x)
            images.append(p)
        kept, images = np.array(kept), np.array(images)
        for i in range(len(kept)):
            sep = np.linalg.norm(kept[i + 1 :] - kept[i], axis=1)
            moved = np.linalg.norm(images[i + 1 :] - images[i], axis=1)
            assert np.all(moved <= (2.0 + 1e-6) * sep)


def three_ball():
    return BallBody(
        radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
    )


def box(dim, offsets):
    eye = np.eye(dim)
    return HalfspaceBody(normals=np.vstack([eye, -eye]), offsets=offsets)


class TestSurjectivityProbe:
    def test_ball_in_ball(self):
        outer = BallBody(radius=2.0, centers=[[0.0, 0.0]], dim=2)
        gap, report = boundary_surjectivity_probe(unit_ball(), outer, 360)
        assert gap <= 1e-6
        assert report["hits"] == report["rays"] == 360
        assert report["threshold"] == PROBE_GAP_THRESHOLD == 1e-6
        assert report["passed"] is True

    def test_ball_in_square(self):
        gap, _ = boundary_surjectivity_probe(unit_ball(), box(2, [2.0] * 4), 360)
        assert gap <= 1e-6

    @pytest.mark.parametrize(
        "outer",
        [box(3, [2.0, 1.5, 2.5, 1.8, 2.2, 1.6]), BallBody(radius=2.5, centers=[[0.4, 0.0, 0.0]], dim=3)],
        ids=["box", "ball"],
    )
    def test_three_ball_3d(self, outer):
        gap, report = boundary_surjectivity_probe(three_ball(), outer, 360)
        assert gap <= 1e-6
        assert report["hits"] == report["rays"] == 642  # icosphere level 3

    @pytest.mark.parametrize(
        "inner, outer",
        [
            (lens(), BallBody(radius=2.0, centers=[[0.3, 0.1], [-0.2, -0.4], [0.0, 0.5]], dim=2)),
            (three_ball(), BallBody(radius=2.5, centers=[[0.4, 0.0, 0.0], [-0.3, 0.3, 0.1]], dim=3)),
            (lens(), box(2, [1.5, 2.0, 1.2, 1.7])),
            (three_ball(), box(3, [2.0, 1.5, 2.5, 1.8, 2.2, 1.6])),
        ],
    )
    def test_hits_lie_on_the_outer_boundary(self, inner, outer):
        points, normals = boundary_samples(inner, 720)
        hits = points + _ray_exits(outer, points, normals)[:, None] * normals
        if isinstance(outer, BallBody):
            excess = np.max(np.linalg.norm(hits[:, None] - outer.centers, axis=2), axis=1) - outer.radius
            scale = outer.radius
        else:
            excess = np.max(hits @ outer.normals.T - outer.offsets, axis=1)
            scale = np.max(outer.offsets)
        assert np.max(np.abs(excess)) <= 1e-15 * scale

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "make",
        [
            lambda corpus, rng: corpus.polygon_2d(rng),
            lambda corpus, rng: corpus.box(rng, 2, 0.5, 1.5),
            lambda corpus, rng: corpus.box(rng, 3, 0.5, 1.5),
        ],
        ids=["polygon", "box-2d", "box-3d"],
    )
    def test_exits_from_the_origin_are_the_radial_function_s(self, make, seed):
        # the probe's rays and measure's radii leave a halfspace body by one
        # face rule; the probe's own dot products once moved the exits by up
        # to 4.3e-16 relative
        body = body_from_json(make(bench_corpus(), np.random.default_rng(seed)))
        u = sample_directions(body.dim, 360).directions
        assert _ray_exits(body, np.zeros_like(u), u).tobytes() == radial_function(body, u).tobytes()

    @pytest.mark.parametrize(
        "normals",
        [[[1, 0], [0, 1], [0, -1]], [[1, 0], [0, 1]]],
        ids=["missing-face", "quadrant"],
    )
    def test_unbounded_outer_body(self, normals):
        outer = HalfspaceBody(normals=normals, offsets=[2.0] * len(normals))
        with pytest.raises(RayMiss, match="never leaves"):
            boundary_surjectivity_probe(unit_ball(), outer, 64)

    def test_outer_of_another_dimension_rejected(self):
        with pytest.raises(InvalidBody, match="dim 3"):
            boundary_surjectivity_probe(unit_ball(), three_ball(), 64)

    def test_outer_not_containing_inner_detected(self):
        small = BallBody(radius=0.5, centers=[[0.0, 0.0]], dim=2)
        with pytest.raises(RayMiss, match="outside the outer body"):
            boundary_surjectivity_probe(unit_ball(), small, 64)

    @pytest.mark.parametrize(
        "outer",
        [box(3, [0.7, 2.0, 2.0, 2.0, 2.0, 2.0]), BallBody(radius=1.4, centers=[[0.0, 0.0, 0.6]], dim=3)],
        ids=["box", "ball"],
    )
    def test_3d_outer_not_containing_inner_detected(self, outer):
        with pytest.raises(RayMiss, match="outside the outer body"):
            boundary_surjectivity_probe(three_ball(), outer, 64)
