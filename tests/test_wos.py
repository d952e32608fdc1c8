"""Tests for the walk-on-spheres sampler."""

import numpy as np
import pytest
from scipy import stats as sps

from exitlaw import Ball, BoxDomain, WosConfig, MaxHopsExceeded
from exitlaw.ball import ExactConfig, sample_exact_batch
from exitlaw.geometry import Domain
from exitlaw.wos import wos_exit_batch
from exitlaw import rng, stats, wos

BALL2 = Ball(np.zeros(2), 1.0)
THETA2 = np.array([0.5, 0.0])


def ids(n):
    return np.arange(n, dtype=np.uint64)


class RecordingBall(Domain):
    """Delegates to a Ball, keeping every point whose distance was queried."""

    def __init__(self, ball):
        self.ball = ball
        self.queried = []

    @property
    def dimension(self):
        return self.ball.dimension

    def distance_to_boundary_many(self, pts):
        self.queried.append(np.array(pts))
        return self.ball.distance_to_boundary_many(pts)

    def __getattr__(self, name):
        return getattr(self.ball, name)

    # abstract-method stubs; all real calls go through __getattr__
    def diameter(self):
        return self.ball.diameter()

    def contains_many(self, pts):
        return self.ball.contains_many(pts)

    def project_to_boundary_many(self, pts):
        return self.ball.project_to_boundary_many(pts)

    def crossing_many(self, inside, outside):
        return self.ball.crossing_many(inside, outside)


def test_config_validation():
    with pytest.raises(ValueError):
        WosConfig(epsilon=0.0)


def test_epsilon_default_is_relative_to_diameter():
    assert WosConfig().resolve_epsilon(BALL2) == pytest.approx(2e-6)
    big = Ball(np.zeros(2), 100.0)
    assert WosConfig().resolve_epsilon(big) == pytest.approx(2e-4)
    assert WosConfig(epsilon=1e-3).resolve_epsilon(big) == 1e-3


def test_center_start_hops_onto_the_sphere():
    # from the center the largest inscribed sphere is the boundary itself
    rec = RecordingBall(BALL2)
    batch = wos_exit_batch(rec, np.zeros(2), WosConfig(), 0, ids(100))
    # queried[0] is the start, queried[1] the position after hop 1
    assert np.abs(np.linalg.norm(rec.queried[1], axis=1) - 1.0).max() <= 1e-12
    assert (batch.steps == 1).all()


def test_every_hop_strictly_interior():
    rec = RecordingBall(BALL2)
    wos_exit_batch(rec, THETA2, WosConfig(), 3, ids(50))
    for pts in rec.queried:
        assert (rec.ball.distance_to_boundary_many(pts) > 0).all()
        assert rec.ball.contains_many(pts).all()


def test_exit_points_on_boundary():
    batch = wos_exit_batch(BALL2, THETA2, WosConfig(), 1, ids(2000))
    resid = np.abs(np.linalg.norm(batch.points, axis=1) - 1.0)
    assert resid.max() <= 1e-9
    assert batch.exit_times is None
    assert (batch.steps >= 1).all()


def test_exit_points_on_boundary_off_origin():
    # far from the origin the float64 grid around the ball is 512 times
    # coarser than an ulp of the radial scale
    ball = Ball(np.array([1000.0, 0.0]), 1.0)
    batch = wos_exit_batch(ball, np.array([1000.5, 0.0]), WosConfig(), 1, ids(2000))
    assert np.abs(np.linalg.norm(batch.points - ball.center, axis=1) - 1.0).max() <= 1e-9


def test_ball_mean_and_trace_law():
    batch = wos_exit_batch(BALL2, THETA2, WosConfig(), 0, ids(10_000))
    sm = stats.summarize(batch)
    tol = 4 * np.sqrt(0.75 / (2 * 10_000))
    assert np.abs(sm.mean - THETA2).max() < tol
    assert abs(sm.trace - 0.75) < 4 * sm.trace_se


@pytest.mark.parametrize("theta", [(0.5, 0.5), (1.0, 0.3), (1.7, 0.8), (1.999, 0.999)])
def test_box_exits_lie_on_a_face(theta):
    # a full hop ends on a face up to rounding: projection keeps every
    # exit in the closed box, also from next to a corner
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    pts = wos_exit_batch(box, np.array(theta), WosConfig(), 7, ids(10_000)).points
    assert ((pts >= box.lower) & (pts <= box.upper)).all()
    assert ((pts == box.lower) | (pts == box.upper)).any(axis=1).all()


@pytest.mark.parametrize("theta", [(0.4, 0.3), (1.0, 0.5), (1.7, 0.8)])
def test_box_mean_is_unbiased(theta):
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    batch = wos_exit_batch(box, np.array(theta), WosConfig(), 5, ids(10_000))
    # conservative variance bound: trace <= diam^2 = 5
    tol = 4 * np.sqrt(5.0 / (2 * 10_000))
    assert np.abs(batch.points.mean(axis=0) - theta).max() < tol


def test_matches_exact_sampler_in_distribution():
    # two-sample chi-square over 36 arcs; calibrated statistic 34.9
    n = 10_000
    w = wos_exit_batch(BALL2, THETA2, WosConfig(), 1, ids(n))
    e = sample_exact_batch(BALL2, THETA2, ExactConfig(), 1001, ids(n))
    bins = np.linspace(-np.pi, np.pi, 37)
    c1 = np.histogram(np.arctan2(w.points[:, 1], w.points[:, 0]), bins=bins)[0]
    c2 = np.histogram(np.arctan2(e.points[:, 1], e.points[:, 0]), bins=bins)[0]
    stat = ((c1 - c2) ** 2 / (c1 + c2)).sum()
    assert stat < sps.chi2.ppf(0.999, 35)


def test_epsilon_grid_hop_growth_is_additive():
    # mean hops grow ~linearly in log(1/eps); calibrated increments 6.66, 6.92
    means = [wos_exit_batch(BALL2, THETA2, WosConfig(epsilon=e), 11, ids(2000)).steps.mean()
             for e in (1e-4, 1e-6, 1e-8)]
    assert means[0] < means[1] < means[2]
    inc1, inc2 = means[1] - means[0], means[2] - means[1]
    assert abs(inc2 - inc1) < 0.15 * inc1


def test_hop_profile_fields():
    hops = wos_exit_batch(BALL2, THETA2, WosConfig(), 4, ids(500)).steps
    assert hops.shape == (500,)
    assert 1 <= hops.mean() <= np.percentile(hops, 95) <= hops.max()
    # hop cost: calibrated 17.9; hops of half the distance would take ~167
    assert hops.mean() <= 25
    assert hops.max() < wos.MAX_HOPS   # termination invariant: nowhere near the cap


def test_max_hops_error(monkeypatch):
    monkeypatch.setattr(wos, "MAX_HOPS", 1)
    with pytest.raises(MaxHopsExceeded) as err:
        wos_exit_batch(BALL2, THETA2, WosConfig(epsilon=1e-9), 0, ids(8))
    assert err.value.hops == 1
    assert err.value.positions.shape[1] == 2


def test_start_point_must_be_interior():
    with pytest.raises(ValueError):
        wos_exit_batch(BALL2, np.array([1.0, 0.0]), WosConfig(), 0, ids(1))


def test_batch_row_matches_single_stream_batch():
    batch = wos_exit_batch(BALL2, THETA2, WosConfig(), 8, ids(8))
    for i in range(8):
        one = wos_exit_batch(BALL2, THETA2, WosConfig(), 8, [i])
        assert np.array_equal(one.points[0], batch.points[i])
        assert one.steps[0] == batch.steps[i]
        assert one.exit_times is None


def test_deterministic_and_split_invariant():
    whole = wos_exit_batch(BALL2, THETA2, WosConfig(), 2, ids(64))
    again = wos_exit_batch(BALL2, THETA2, WosConfig(), 2, ids(64))
    assert np.array_equal(whole.points, again.points)
    parts = [wos_exit_batch(BALL2, THETA2, WosConfig(), 2, ids(64)[lo:hi])
             for lo, hi in [(0, 20), (20, 64)]]
    assert np.array_equal(np.concatenate([p.points for p in parts]), whole.points)


def per_round_walks(domain, theta, cfg, seed, stream_ids):
    """Reference: one sphere draw per hop, as before lookahead windows."""
    eps, d = cfg.resolve_epsilon(domain), domain.dimension
    Y = np.tile(theta, (stream_ids.size, 1))
    points, hops = np.empty_like(Y), np.zeros(stream_ids.size, dtype=np.int64)
    alive, hop = np.arange(stream_ids.size), 0
    while alive.size:
        dist = domain.distance_to_boundary_many(Y[alive])
        done = dist < eps
        if done.any():
            points[alive[done]] = domain.project_to_boundary_many(Y[alive[done]])
            alive, dist = alive[~done], dist[~done]
            if not alive.size:
                break
        dirs = rng.sphere_rows(seed, stream_ids[alive], hop, d)[:, 0]
        Y[alive] += dist[:, None] * dirs
        hops[alive] += 1
        hop += 1
    return points, hops


@pytest.mark.parametrize("k", [1, 3, 7, None])
@pytest.mark.parametrize("d", [2, 3])
def test_lookahead_window_matches_per_round_walks(monkeypatch, k, d):
    # the window length K (forced, or the default doubling) never moves a bit
    domain = Ball(np.zeros(d), 1.0)
    theta = np.full(d, 0.3)
    cfg = WosConfig(epsilon=1e-4)
    want_points, want_hops = per_round_walks(domain, theta, cfg, 6, ids(40))
    if k is not None:
        monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: k)
    batch = wos_exit_batch(domain, theta, cfg, 6, ids(40))
    assert np.array_equal(batch.points, want_points)
    assert np.array_equal(batch.steps, want_hops)


@pytest.mark.parametrize("k", [1, 3, 7, None])
def test_lookahead_window_matches_per_round_walks_with_redraws(monkeypatch, zero_directions, k):
    # degenerate directions at the first hop and at later ones are redrawn
    # the same inside any window as one hop at a time (d = 5: the
    # dimensions below draw directions from raw words, with no redraws)
    d = 5
    domain = Ball(np.zeros(d), 1.0)
    theta = np.full(d, 0.3)
    cfg = WosConfig(epsilon=1e-4)
    retries = zero_directions(d, {0: (0,), 3: (0, d, 6 * d), 11: (5 * d,), 39: (2 * d, 3 * d)})
    want_points, want_hops = per_round_walks(domain, theta, cfg, 6, ids(40))
    assert len(retries) == 7
    if k is not None:
        monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: k)
    batch = wos_exit_batch(domain, theta, cfg, 6, ids(40))
    assert len(retries) == 14
    assert np.array_equal(batch.points, want_points)
    assert np.array_equal(batch.steps, want_hops)


def test_lookahead_window_respects_hop_cap(monkeypatch):
    monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: 7)
    monkeypatch.setattr(wos, "MAX_HOPS", 5)
    with pytest.raises(MaxHopsExceeded) as exc:
        wos_exit_batch(BALL2, THETA2, WosConfig(), 0, ids(10))
    assert exc.value.hops == 5
