"""Worked examples and dimension-generic property tests for the domains."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exitlaw.geometry import Ball, BoxDomain, as_point

DIMS = [1, 2, 3, 4, 8]


def unit_ball(d):
    return Ball(np.zeros(d), 1.0)


# ---------------------------------------------------------------- examples

def test_ball_contains():
    b = unit_ball(2)
    # the boundary point (1, 0) is not in the open set
    assert b.contains_many(rows((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))).tolist() == [
        True, False, False]


def test_radial_point_returns_rho_or_names_the_point():
    b = Ball(np.array([1.0, 0.0]), 2.0)
    q, rho = b.radial_point([1.0, 1.5])
    assert q.dtype == np.float64 and np.array_equal(q, [1.0, 1.5]) and rho == 1.5
    with pytest.raises(ValueError, match=r"theta \[3\. 0\.\] is not strictly inside the ball"):
        b.radial_point((3.0, 0.0), "theta")
    with pytest.raises(ValueError, match="dimension mismatch"):
        b.radial_point((1.0, 0.5, 0.5))


def test_interior_point_coerces_or_names_the_point():
    b = unit_ball(2)
    q = b.interior_point([0.5, 0])
    assert q.dtype == np.float64 and np.array_equal(q, [0.5, 0.0])
    with pytest.raises(ValueError, match=r"house \[1\. 0\.\] is not strictly inside"):
        b.interior_point((1.0, 0.0), "house")
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    with pytest.raises(ValueError, match="start point .* strictly inside"):
        box.interior_point((2.0, 0.5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        box.interior_point((1.0, 0.5, 0.5))


def test_interior_starts_pairs_one_start_with_its_ids():
    starts, grid = unit_ball(2).interior_starts([0.5, 0], [4, 9, 2])
    assert starts.dtype == np.float64 and np.array_equal(starts, [[0.5, 0.0]])
    assert grid.dtype == np.uint64 and np.array_equal(grid, [[4, 9, 2]])


def test_interior_starts_returns_c_ordered_starts():
    theta = np.asfortranarray([[0.2, 0.0], [0.3, -0.4], [0.0, 0.5]])
    grid = np.arange(6, dtype=np.uint64).reshape(3, 2)
    starts, got = unit_ball(2).interior_starts(theta, grid)
    assert starts.flags.c_contiguous and np.array_equal(starts, theta)
    assert np.array_equal(got, grid)


@pytest.mark.parametrize("theta_shape, ids_shape", [
    ((2,), (3, 1)),      # one start with a grid
    ((3, 2), (6,)),      # k starts with flat ids
    ((3, 2), (2, 4)),    # k starts with a grid of another k
    ((1, 3, 2), (1, 3)), # starts of three dimensions
])
def test_interior_starts_names_a_shape_mismatch(theta_shape, ids_shape):
    theta, ids = np.full(theta_shape, 0.1), np.zeros(ids_shape, dtype=np.uint64)
    with pytest.raises(ValueError, match="must pair up") as exc:
        unit_ball(2).interior_starts(theta, ids)
    msg = str(exc.value)
    assert "\n" not in msg
    assert f"starts of shape {theta_shape} and ids of shape {ids_shape}" in msg


def test_interior_starts_names_a_start_outside_the_domain():
    theta = np.array([[0.2, 0.0], [0.0, 1.5]])
    with pytest.raises(ValueError, match=r"start point \[0\.  1\.5\] is not strictly inside"):
        unit_ball(2).interior_starts(theta, np.zeros((2, 3), dtype=np.uint64))


def test_box_contains():
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    assert box.contains_many(rows((1.0, 0.5), (0.0, 0.5), (1.0, 1.0))).tolist() == [
        True, False, False]


def rows(*pts):
    return np.array(pts, dtype=float)


def test_ball_distance_examples():
    b = unit_ball(2)
    dist = b.distance_to_boundary_many(rows((0.0, 0.0), (0.8, 0.0)))
    assert dist[0] == 1.0
    assert dist[1] == pytest.approx(0.2, abs=1e-15)


def test_box_distance_example():
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    # face distances (0.3, 1.7, 0.4, 0.6) -> min 0.3
    assert box.distance_to_boundary_many(rows((0.3, 0.4)))[0] == pytest.approx(0.3)


def test_ball_projection_examples():
    assert np.allclose(unit_ball(2).project_to_boundary_many(rows((0.5, 0.0))), [(1.0, 0.0)])
    b2 = Ball(np.zeros(2), 2.0)
    assert np.allclose(b2.project_to_boundary_many(rows((0.0, -1.0))), [(0.0, -2.0)])


def test_box_projection_example_and_tiebreak():
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    assert np.allclose(box.project_to_boundary_many(rows((0.3, 0.4))), [(0.0, 0.4)])
    sq = BoxDomain((0.0, 0.0), (4.0, 4.0))
    # row 0 is equidistant to x=0 and y=0: lowest coordinate index wins;
    # row 1 to the lower and upper face of the same axis: lower wins
    got = sq.project_to_boundary_many(rows((0.5, 0.5), (2.0, 1.0)))
    assert np.allclose(got, [(0.0, 0.5), (2.0, 0.0)])


def test_projection_of_boundary_point_is_identity():
    b = unit_ball(3)
    q = rows((0.0, 1.0, 0.0))
    assert np.array_equal(b.project_to_boundary_many(q), q)


def test_ball_center_projection_is_deterministic():
    b = unit_ball(2)
    assert np.allclose(b.project_to_boundary_many(rows((0.0, 0.0))), [(1.0, 0.0)])


def test_ball_refuses_a_too_coarse_grid():
    # near 1e12 float64 points lie 2^-13 apart, far coarser than the
    # BOUNDARY_RTOL a boundary point may lie off the unit sphere
    with pytest.raises(ValueError, match=r"center \[1\.e\+12 0\.e\+00\] and radius 1: "
                                         r"float64 points there are spaced 0\.000122 apart"):
        Ball(np.array([1e12, 0.0]), 1.0)


@pytest.mark.parametrize("radius", [1e160, 1.4e154, 1e-160, 1.4e-154])
def test_ball_refuses_a_radius_whose_square_is_not_normal(radius):
    with pytest.raises(ValueError, match="its square is not a normal float64"):
        Ball(np.zeros(2), radius)


@pytest.mark.parametrize("radius", [1.3e154, 1.5e-154])
def test_ball_accepts_a_radius_whose_square_is_normal(radius):
    b = Ball(np.zeros(2), radius)
    assert b.contains_many(np.zeros((1, 2)))[0]


@pytest.mark.parametrize("cx", [1000.0, 1e6])
def test_projection_off_origin_lands_on_the_sphere(cx):
    b = Ball(np.array([cx, 0.0]), 1.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((20_000, 2))
    v *= (rng.uniform(0.5, 1.0 - 1e-6, 20_000) / np.linalg.norm(v, axis=1))[:, None]
    q = b.project_to_boundary_many(b.center + v)
    assert np.abs(np.linalg.norm(q - b.center, axis=1) - 1.0).max() <= 1e-9


def test_crossing_examples():
    b = unit_ball(2)
    pts, t = b.crossing_many(rows((0, 0), (0.6, 0.0)), rows((2, 0), (0.6, 1.2)))
    assert np.allclose(pts[0], (1, 0)) and t[0] == pytest.approx(0.5)
    assert np.allclose(pts[1], (0.6, 0.8), atol=1e-12)
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    pts, _ = box.crossing_many(rows((0.5, 0.5)), rows((1.5, 0.5)))
    assert np.allclose(pts, [(1.0, 0.5)])


def test_box_crossing_with_a_subnormal_direction_component_is_quiet():
    # (upper - a) / 1e-310 overflows to inf, which loses the min: no warning
    box = BoxDomain((-1.0, -1.0), (1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pts, t = box.crossing_many(rows((0.0, 0.0)), rows((2.0, 1e-310)))
    assert t.tolist() == [0.5]
    assert pts.tolist() == [[1.0, 0.5 * 1e-310]]


def test_dimension_mismatch_raises():
    b = unit_ball(3)
    with pytest.raises(ValueError):
        b.contains_many(rows((0.0, 0.0)))
    with pytest.raises(ValueError):
        as_point((1.0, float("nan")))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Ball(np.zeros(2), float("inf"))
    with pytest.raises(ValueError):
        BoxDomain((0.0, 1.0), (1.0, 1.0))


def test_domains_are_immutable():
    b = unit_ball(2)
    with pytest.raises((ValueError, AttributeError)):
        b.center[0] = 5.0
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    with pytest.raises((ValueError, AttributeError)):
        box.lower[0] = -1.0


def test_diameter():
    assert unit_ball(4).diameter() == 2.0
    assert BoxDomain((0.0, 0.0), (2.0, 1.0)).diameter() == pytest.approx(np.sqrt(5))


# ------------------------------------------------------- property checks

def random_interior(drawn, domain):
    """Map a unit-cube draw into the open domain."""
    u = np.asarray(drawn)
    if isinstance(domain, Ball):
        # radial map, avoiding the boundary
        v = 2.0 * u - 1.0
        n = np.linalg.norm(v)
        if n == 0:
            return np.array(domain.center)
        rad = 0.98 * domain.radius * (n / np.sqrt(len(u)))
        return domain.center + (rad / n) * v
    lo, hi = domain.lower, domain.upper
    return lo + (0.02 + 0.96 * u) * (hi - lo)


coords = st.floats(0.0, 1.0, allow_nan=False)


@pytest.mark.parametrize("d", DIMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_projection_lands_on_ball_boundary(d, data):
    u = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    ball = Ball(np.linspace(-0.5, 0.5, d), 1.7)
    p = random_interior(u, ball)
    q = ball.project_to_boundary_many(p[None, :])[0]
    assert abs(np.linalg.norm(q - ball.center) - ball.radius) <= 1e-12 * ball.radius
    dist = ball.distance_to_boundary_many(p[None, :])[0]
    assert np.linalg.norm(q - p) == pytest.approx(dist, abs=1e-12)


@pytest.mark.parametrize("d", DIMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_projection_lands_on_box_boundary(d, data):
    u = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    box = BoxDomain(np.zeros(d), np.arange(1.0, d + 1.0))
    p = random_interior(u, box)
    q = box.project_to_boundary_many(p[None, :])[0]
    on_face = np.any((np.abs(q - box.lower) == 0) | (np.abs(q - box.upper) == 0))
    assert on_face
    assert not box.contains_many(q[None, :])[0]
    dist = box.distance_to_boundary_many(p[None, :])[0]
    assert np.linalg.norm(q - p) == pytest.approx(dist, abs=1e-12)


@pytest.mark.parametrize("d", DIMS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_crossing_reconstruction(d, data):
    u = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    for domain in (Ball(np.zeros(d), 1.3),
                   BoxDomain(-np.ones(d), np.ones(d))):
        a = random_interior(u, domain)
        direction = v if np.linalg.norm(v) > 1e-3 else np.ones(d)
        direction = direction / np.linalg.norm(direction)
        b = a + 4.0 * domain.diameter() * direction   # certainly outside
        q = domain.crossing_many(a[None, :], b[None, :])[0][0]
        # q lies on the segment: recover t by projection onto (b - a)
        t = float((q - a) @ (b - a) / ((b - a) @ (b - a)))
        assert 0.0 < t <= 1.0
        assert np.allclose(a + t * (b - a), q, atol=1e-9)
        # and on the boundary
        if isinstance(domain, Ball):
            assert abs(np.linalg.norm(q) - 1.3) <= 1e-9
        else:
            assert np.max(np.abs(q)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", DIMS)
def test_distance_vanishes_along_rays(d):
    for domain in (Ball(np.zeros(d), 2.0), BoxDomain(np.zeros(d), np.ones(d))):
        if isinstance(domain, Ball):
            inside, edge = np.array(domain.center), 2.0 * np.eye(d)[0]
        else:
            inside, edge = np.full(d, 0.5), np.concatenate([[1.0], np.full(d - 1, 0.5)])
        fracs = np.array([0.0, 0.9, 0.99, 0.999, 0.9999])
        dists = list(domain.distance_to_boundary_many(inside + fracs[:, None] * (edge - inside)))
        assert all(x > 0 for x in dists)
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-3 * domain.diameter()


@pytest.mark.parametrize("d", DIMS)
def test_batch_ops_match_scalar(d):
    # each row of a batch equals the same op on that row alone
    rs = np.random.default_rng(d)   # plain numpy rng is fine for *test inputs*
    for domain in (Ball(rs.normal(size=d), 1.5),
                   BoxDomain(np.zeros(d), np.full(d, 2.0))):
        pts = np.array([random_interior(rs.uniform(size=d), domain) for _ in range(32)])
        dist_b = domain.distance_to_boundary_many(pts)
        proj_b = domain.project_to_boundary_many(pts)
        for i in range(32):
            assert dist_b[i] == domain.distance_to_boundary_many(pts[i:i + 1])[0]
            assert np.array_equal(proj_b[i], domain.project_to_boundary_many(pts[i:i + 1])[0])
            assert domain.contains_many(pts[i:i + 1])[0]
        assert domain.contains_many(pts).all()


def test_crossing_many_matches_scalar():
    b = unit_ball(3)
    rs = np.random.default_rng(0)
    inside = rs.uniform(-0.4, 0.4, size=(16, 3))
    outside = inside + rs.normal(size=(16, 3)) * 3.0
    outside /= np.maximum(np.linalg.norm(outside, axis=1, keepdims=True) / 2.5, 1.0)
    outside[np.linalg.norm(outside, axis=1) <= 1.0] += 2.0
    pts, t = b.crossing_many(inside, outside)
    for i in range(16):
        q, _ = b.crossing_many(inside[i:i + 1], outside[i:i + 1])
        assert np.array_equal(pts[i], q[0])
        assert 0.0 < t[i] <= 1.0
