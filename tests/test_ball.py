"""Closed-form checks for the ball kernel, trace, and exact sampler."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from exitlaw import Ball
from exitlaw import ball as ball_module
from exitlaw.ball import (ExactConfig, MaxProposalsExceeded, expected_exit_time,
                          kernel_normalization, poisson_kernel, rejection_envelope,
                          sample_exact_batch, second_moment_quadrature, theoretical_mean,
                          theoretical_trace)
from exitlaw import rng
from exitlaw.geometry import BoxDomain


def unit_ball(d):
    return Ball(np.zeros(d), 1.0)


# ------------------------------------------------------------ closed forms

def center_kernel(d):
    """The kernel at the unit ball's centre, at a boundary point."""
    y = np.zeros((1, d))
    y[0, 0] = 1.0
    return float(poisson_kernel(unit_ball(d), np.zeros(d), y)[0])


def arc_probabilities(ball, x, n_arcs, nodes_per_arc=64):
    """Exit probabilities of the n_arcs equal arcs of a circle (d = 2).

    The chi-square reference: composite trapezoid rule inside each arc,
    renormalized to sum to one.
    """
    width = 2.0 * math.pi / n_arcs
    h = width / nodes_per_arc
    probs = np.empty(n_arcs)
    for k in range(n_arcs):
        ys = ball_module._circle_nodes(ball, k * width + h * np.arange(nodes_per_arc + 1))
        vals = poisson_kernel(ball, x, ys) * ball.radius
        probs[k] = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    return probs / probs.sum()


@pytest.mark.parametrize("d", range(1, 13))
def test_center_kernel_is_inverse_surface_area(d):
    assert center_kernel(d) == pytest.approx(math.gamma(d / 2) / (2 * math.pi ** (d / 2)),
                                             rel=1e-14)


def test_kernel_constant_at_large_dimension():
    # Gamma(d/2) alone overflows from d = 344; the constant itself is finite
    # up to d = 438 and obeys K_d / K_(d-2) = (d/2 - 1) / pi
    exact = math.factorial(199) / Fraction(2 * math.pi ** 200)   # Gamma(200) = 199!
    assert center_kernel(400) == pytest.approx(float(exact), rel=1e-11)
    assert center_kernel(438) / center_kernel(436) == pytest.approx(218 / math.pi, rel=1e-11)
    for d in (439, 1500):
        with pytest.raises(ValueError, match=f"overflows float64 in d={d} "):
            center_kernel(d)


def test_kernel_overflow_and_underflow_at_large_dimension():
    # d = 400 near the boundary: ~1.4e393, beyond float64, is refused
    x, y = np.zeros(400), np.zeros((1, 400))
    x[0], y[0, 0] = 0.5, 1.0
    with pytest.raises(ValueError, match="overflows float64 in d=400 "):
        poisson_kernel(unit_ball(400), x, y)
    # d = 1,500 on a radius-1000 ball: the constant alone overflows, the
    # value underflows
    y = np.zeros((1, 1500))
    y[0, 0] = 1000.0
    assert poisson_kernel(Ball(np.zeros(1500), 1000.0), np.zeros(1500), y)[0] == 0.0


def test_kernel_hand_values():
    # center start: uniform over the boundary, 1/S
    k = poisson_kernel(unit_ball(2), np.zeros(2), [[1.0, 0.0]])
    assert k[0] == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    k = poisson_kernel(unit_ball(3), np.zeros(3), [[0.0, 0.0, 1.0]])
    assert k[0] == pytest.approx(1 / (4 * math.pi), rel=1e-14)
    # off-center: mass piles up on the near side
    k = poisson_kernel(unit_ball(2), np.array([0.5, 0.0]), [[1.0, 0.0], [-1.0, 0.0]])
    assert k[0] == pytest.approx(3 / (2 * math.pi), rel=1e-14)
    assert k[1] == pytest.approx(1 / (6 * math.pi), rel=1e-14)


def test_kernel_query_validation():
    b = unit_ball(2)
    on = [[1.0, 0.0]]
    with pytest.raises(ValueError, match="kernel point x"):
        poisson_kernel(b, np.array([1.0, 0.0]), on)                  # x on boundary
    with pytest.raises(ValueError, match="off the boundary"):
        poisson_kernel(b, np.zeros(2), [[1.0, 0.0], [0.5, 0.0]])     # a row interior
    with pytest.raises(ValueError, match="off the boundary"):
        poisson_kernel(b, np.zeros(2), [[1.0, 1.0]])                 # y outside
    for ys in ([1.0, 0.0], [[1.0, 0.0, 0.0]], [[np.nan, 0.0]]):      # not finite (m, 2)
        with pytest.raises(ValueError, match=r"finite \(m, 2\) array"):
            poisson_kernel(b, np.zeros(2), ys)


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.9])
def test_normalization_d2_trapezoid(rho):
    b = unit_ball(2)
    norm = kernel_normalization(b, np.array([rho, 0.0]), 10_000)
    assert abs(norm - 1.0) <= 1e-6   # spectral convergence: actually ~1e-15


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.9])
def test_normalization_d1_exact(rho):
    b = unit_ball(1)
    assert abs(kernel_normalization(b, np.array([rho]), 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_normalization_monte_carlo(d):
    b = unit_ball(d)
    x = np.zeros(d)
    x[0] = 0.5
    # SE of the surface-area-weighted kernel mean is ~5e-3 at this n;
    # 0.02 is ~4 SE (the tight 5e-3 budget belongs to the 1e6-sample runs)
    norm = kernel_normalization(b, x, 300_000, seed=0)
    assert abs(norm - 1.0) <= 0.02
    # center start: the kernel is constant, so MC is exact at any n
    exact = kernel_normalization(b, np.zeros(d), 128, seed=0)
    assert abs(exact - 1.0) <= 1e-12


def test_d2_normalization_sums_in_chunks(monkeypatch):
    # 100 nodes in chunks of 7 against one chunk: only the summation order differs
    x = np.array([0.6, 0.2])
    whole = kernel_normalization(unit_ball(2), x, 100)
    monkeypatch.setattr(ball_module, "_CHUNK", 7)
    assert kernel_normalization(unit_ball(2), x, 100) == pytest.approx(whole, rel=1e-14, abs=0)


def test_normalization_rejects_outside_point():
    with pytest.raises(ValueError):
        kernel_normalization(unit_ball(2), np.array([1.0, 0.0]), 100)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("resolution", [0, -3])
def test_normalization_rejects_resolution_below_1(d, resolution):
    with pytest.raises(ValueError, match=f"resolution must be >= 1, got {resolution}"):
        kernel_normalization(unit_ball(d), np.zeros(d), resolution)


def test_normalization_refuses_resolution_above_the_cap(monkeypatch):
    monkeypatch.setattr(rng, "sphere_rows", None)   # any draw would fail
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="at most MAX_RESOLUTION = 100000000, got"):
            kernel_normalization(unit_ball(d), np.zeros(d), ball_module.MAX_RESOLUTION + 1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_normalization_rejects_seed_outside_64_bits(seed):
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            kernel_normalization(unit_ball(d), np.zeros(d), 16, seed=seed)


def test_normalization_runs_at_the_largest_seed():
    assert abs(kernel_normalization(unit_ball(3), np.zeros(3), 16, seed=2 ** 64 - 1)
               - 1.0) <= 1e-12


def test_theoretical_mean_and_trace():
    b = Ball(np.array([1.0, -2.0]), 2.0)
    th = np.array([1.5, -2.0])
    assert np.array_equal(theoretical_mean(b, th), th)
    assert theoretical_trace(b, th) == pytest.approx(4.0 - 0.25, abs=1e-15)
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    assert np.array_equal(theoretical_mean(box, (0.4, 0.3)), (0.4, 0.3))
    with pytest.raises(ValueError):
        theoretical_mean(b, np.array([3.5, -2.0]))
    with pytest.raises(ValueError):
        theoretical_trace(b, np.array([3.0, -2.0]))


def test_trace_table_values():
    b = unit_ball(2)
    assert theoretical_trace(b, (0.2, 0.0)) == pytest.approx(0.96, abs=1e-15)
    assert theoretical_trace(b, (0.5, 0.0)) == pytest.approx(0.75, abs=1e-15)
    assert theoretical_trace(b, (0.8, 0.0)) == pytest.approx(0.36, abs=1e-15)


def test_trace_monotone_and_boundary_limit():
    b = unit_ball(3)
    rhos = np.linspace(0.0, 0.999, 40)
    traces = [theoretical_trace(b, np.r_[r, 0.0, 0.0]) for r in rhos]
    assert all(a > bb for a, bb in zip(traces, traces[1:]))
    # factored form stays accurate as rho -> r
    near = theoretical_trace(b, np.r_[1.0 - 1e-6, 0.0, 0.0])
    assert near == pytest.approx(2e-6 * (1 - 5e-7), rel=1e-9)
    assert near < 3e-6


def test_expected_exit_time_values():
    assert expected_exit_time(unit_ball(2), np.zeros(2)) == pytest.approx(0.5)
    b4 = unit_ball(4)
    assert expected_exit_time(b4, (0.5, 0, 0, 0)) == pytest.approx(0.1875)
    assert expected_exit_time(unit_ball(1), np.zeros(1)) == pytest.approx(1.0)


def test_quadrature_identity_matches_trace():
    b = unit_ball(2)
    for rho in (0.0, 0.25, 0.5, 0.9):
        th = np.array([rho, 0.0])
        assert abs(second_moment_quadrature(b, th)
                   - theoretical_trace(b, th)) <= 1e-8
    with pytest.raises(ValueError):
        second_moment_quadrature(unit_ball(3), np.zeros(3))


# ------------------------------------------------------------ exact sampler

def test_envelope_hand_values():
    # (r/(r-rho))^(d-2) for d >= 2: one at any start in the plane
    for rho in (0.0, 0.5, 0.95):
        assert rejection_envelope(unit_ball(2), (rho, 0.0)) == 1.0
    assert rejection_envelope(unit_ball(4), (0.8, 0, 0, 0)) == pytest.approx(25.0)
    assert rejection_envelope(Ball(np.ones(3), 2.0), (2.0, 1.0, 1.0)) == pytest.approx(2.0)
    # (r+rho)/r on the line
    assert rejection_envelope(unit_ball(1), (0.5,)) == pytest.approx(1.5)


def test_exact_sampler_rejects_non_ball_domains():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="balls only"):
        sample_exact_batch(box, (0.1, 0.2), ExactConfig(), 0, np.arange(4, dtype=np.uint64))


def test_near_boundary_start_rejected_with_advice(monkeypatch):
    # the plane serves (1 - 1e-12, 0) at M = 1, one proposal per sample
    batch = sample_exact_batch(unit_ball(2), (1.0 - 1e-12, 0.0), ExactConfig(), 0,
                               np.arange(4, dtype=np.uint64))
    assert (batch.steps == 1).all()
    # in d = 3 it needs M = 1e12, and the cap would stop every stream
    monkeypatch.setattr(rng, "sphere_rows", None)   # any draw would fail
    with pytest.raises(MaxProposalsExceeded, match="after 0 proposals") as exc:
        sample_exact_batch(unit_ball(3), (1.0 - 1e-12, 0.0, 0.0), ExactConfig(), 0,
                           np.arange(4, dtype=np.uint64))
    assert exc.value.stream_ids.size == 4
    assert "M = 1e+12" in str(exc.value) and "walk-on-spheres" in str(exc.value)


@pytest.mark.parametrize("rho", [1.0 - 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)])
def test_plane_start_at_the_boundary_edge_follows_the_wrapped_cauchy_law(rho):
    # in the plane the exit angle phi from a-hat is wrapped Cauchy: its CDF
    # maps phi to 1/2 + arctan((1 + rho)/(1 - rho) tan(phi/2))/pi, uniform
    n = 100_000
    batch = sample_exact_batch(unit_ball(2), (rho, 0.0), ExactConfig(), 1,
                               np.arange(n, dtype=np.uint64))
    assert (batch.steps == 1).all()
    assert np.abs(np.hypot(batch.points[:, 0], batch.points[:, 1]) - 1.0).max() <= 1e-15
    phi = np.arctan2(batch.points[:, 1], batch.points[:, 0])
    u = 0.5 + np.arctan((1.0 + rho) / (1.0 - rho) * np.tan(phi / 2)) / math.pi
    assert sps.kstest(u, "uniform").pvalue > 1e-3


def test_line_start_at_the_boundary_edge_exits_at_the_ends():
    b = Ball(np.zeros(1), 2.0)
    for th in (np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0)):
        batch = sample_exact_batch(b, (th,), ExactConfig(), 4,
                                   np.arange(1000, dtype=np.uint64))
        assert set(np.unique(batch.points[:, 0])) <= {-2.0, 2.0}


def test_exact_points_on_boundary_and_deterministic():
    b = Ball(np.array([0.5, -1.0, 2.0]), 1.5)
    th = np.array([0.9, -1.0, 2.0])
    ids = np.arange(256, dtype=np.uint64)
    batch = sample_exact_batch(b, th, ExactConfig(), 5, ids)
    radii = np.linalg.norm(batch.points - b.center, axis=1)
    assert np.abs(radii - 1.5).max() <= 1e-9 * 1.5
    assert (batch.steps >= 1).all()
    again = sample_exact_batch(b, th, ExactConfig(), 5, ids)
    assert np.array_equal(batch.points, again.points)
    assert np.array_equal(batch.steps, again.steps)


def test_exact_batch_row_matches_single_stream_batch():
    b = unit_ball(3)
    th = np.array([0.5, 0.0, 0.0])
    batch = sample_exact_batch(b, th, ExactConfig(), 9, np.arange(8, dtype=np.uint64))
    assert (batch.steps > 1).any()   # M = 2: some rows reject first
    for i in range(8):
        one = sample_exact_batch(b, th, ExactConfig(), 9, [i])
        assert np.array_equal(one.points[0], batch.points[i])
        assert one.steps[0] == batch.steps[i]


def test_acceptance_rate_matches_envelope():
    # steps are Geometric(1/M); mean steps estimates M. In the plane M = 1,
    # so the check runs in d = 3.
    b = unit_ball(3)
    th = np.array([0.5, 0.0, 0.0])
    M = rejection_envelope(b, th)   # 2.0
    n = 20_000
    batch = sample_exact_batch(b, th, ExactConfig(), 21, np.arange(n, dtype=np.uint64))
    se = math.sqrt(M * (M - 1) / n)   # geometric sd / sqrt(n)
    assert abs(batch.steps.mean() - M) <= 4 * se


def test_exact_plane_is_rejection_free_near_boundary():
    # the benchmark's privacy house: every first proposal is accepted, and
    # the points follow the harmonic measure (36-arc chi-square)
    b = unit_ball(2)
    th = np.array([0.95, 0.0])
    n = 100_000
    batch = sample_exact_batch(b, th, ExactConfig(), 6, np.arange(n, dtype=np.uint64))
    assert (batch.steps == 1).all()
    ang = np.arctan2(batch.points[:, 1], batch.points[:, 0])
    counts = np.histogram(ang, bins=36, range=(-math.pi, math.pi))[0]
    expect = n * np.roll(arc_probabilities(b, th, 36, nodes_per_arc=512), 18)
    stat = ((counts - expect) ** 2 / expect).sum()
    assert stat < sps.chi2.ppf(0.999, 35)


def test_exact_line_exit_share():
    # d = 1: exit at c + r with probability (1 + rho/r)/2, envelope 1 + rho/r
    b = Ball(np.array([0.5]), 2.0)
    th = np.array([1.5])   # rho/r = 0.5
    n = 50_000
    batch = sample_exact_batch(b, th, ExactConfig(), 12, np.arange(n, dtype=np.uint64))
    assert set(np.unique(batch.points[:, 0])) == {-1.5, 2.5}
    p = 0.75
    share = float(np.mean(batch.points[:, 0] == 2.5))
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / n)
    assert abs(batch.steps.mean() - 1.5) <= 4 * math.sqrt(1.5 * 0.5 / n)


def test_exact_points_stay_on_sphere_at_the_refusal_edge(monkeypatch):
    b = Ball(np.array([0.3, -0.2]), 2.0)
    e = np.array([0.6, 0.8])
    th = b.center + 2.0 * (1.0 - 1e-8) * e
    batch = sample_exact_batch(b, th, ExactConfig(), 8, np.arange(20_000, dtype=np.uint64))
    radii = np.linalg.norm(batch.points - b.center, axis=1)
    assert np.abs(radii - 2.0).max() <= 1e-9 * 2.0
    # directions within 1e-6 rad of -e, where |u + a| ~ 1 - rho/r and the
    # unrenormalized map misses the sphere by ~2e-8 of r
    ang = math.atan2(-e[1], -e[0]) + np.linspace(-1e-6, 1e-6, 2001)
    near = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    monkeypatch.setattr(rng, "sphere_rows", lambda seed, ids, start, d, rounds:
                        near[:, None, :])
    batch = sample_exact_batch(b, th, ExactConfig(), 8,
                               np.arange(near.shape[0], dtype=np.uint64))
    radii = np.linalg.norm(batch.points - b.center, axis=1)
    assert np.abs(radii - 2.0).max() <= 1e-9 * 2.0


def stick_streams(monkeypatch, stuck, ends=None):
    """Make every proposal with p < 1 reject on the streams in ``stuck``.

    Their uniforms read 1 - 2^-53, the largest below 1; the other streams
    read their own. ``ends`` collects the end of each uniform request.
    """
    uniform_values = rng.uniform_values

    def stub(seed, ids, start, count):
        if ends is not None:
            ends.append(start + count)
        u = uniform_values(seed, ids, start, count)
        u[np.isin(ids, stuck)] = 1.0 - 2.0 ** -53
        return u

    monkeypatch.setattr(rng, "uniform_values", stub)


def test_proposal_cap_names_drawn_envelope_and_unfinished(monkeypatch):
    # d = 4, rho = 0.2: M = 1.5625, which the up-front rule passes; the odd
    # streams never accept, so they reach a cap of 150 and the even finish
    monkeypatch.setattr(ball_module, "MAX_PROPOSALS", 150)
    ids = np.arange(64, dtype=np.uint64)
    ends = []
    stick_streams(monkeypatch, ids[1::2], ends)
    with pytest.raises(MaxProposalsExceeded) as exc:
        sample_exact_batch(unit_ball(4), (0.2, 0, 0, 0), ExactConfig(), 1, ids)
    err = exc.value
    assert err.proposals == 150
    assert err.envelope == pytest.approx(1.5625)
    assert np.array_equal(err.stream_ids, ids[1::2])
    assert max(ends) == 150   # the last window is clipped to the cap
    msg = str(err)
    assert "32 exact sample(s)" in msg
    assert "150 proposals" in msg and "M = 1.56" in msg and "walk-on-spheres" in msg


def test_envelope_above_cap_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(ball_module, "MAX_PROPOSALS", 50)
    monkeypatch.setattr(rng, "sphere_rows", None)   # any draw would fail
    with pytest.raises(MaxProposalsExceeded, match="after 0 proposals") as exc:
        sample_exact_batch(unit_ball(4), (0.9, 0, 0, 0), ExactConfig(), 1,
                           np.arange(8, dtype=np.uint64))
    assert exc.value.stream_ids.size == 8


def test_start_grid_cap_names_only_the_capping_start(monkeypatch):
    # the starts run one after another: start 0 (M = 4) finishes, and the
    # odd streams of start 1 (M = 1.5625) never accept, so they reach a cap
    # of 150 alone
    monkeypatch.setattr(ball_module, "MAX_PROPOSALS", 150)
    starts = np.array([[0.5, 0, 0, 0], [0.2, 0, 0, 0]])
    grid = np.arange(2 * 64, dtype=np.uint64).reshape(2, 64)
    stick_streams(monkeypatch, grid[1, 1::2])
    with pytest.raises(MaxProposalsExceeded) as exc:
        sample_exact_batch(unit_ball(4), starts, ExactConfig(), 1, grid)
    err = exc.value
    assert err.proposals == 150
    assert err.envelope == rejection_envelope(unit_ball(4), starts[1])
    assert np.array_equal(err.stream_ids, grid[1, 1::2])
    assert "32 exact sample(s)" in str(err) and "M = 1.56" in str(err)


def test_start_grid_envelope_above_cap_refused_before_any_start_draws(monkeypatch):
    # with a cap of 50, start 1 (M = 100) expects 8 e^-0.5 of its 8 streams
    # stopped: refused before start 0 (M = 1.5625, 8 e^-32) draws, naming
    # start 1's streams and envelope
    monkeypatch.setattr(ball_module, "MAX_PROPOSALS", 50)
    monkeypatch.setattr(rng, "sphere_rows", None)   # any draw would fail
    starts = np.array([[0.2, 0, 0, 0], [0.9, 0, 0, 0]])
    grid = np.arange(16, dtype=np.uint64).reshape(2, 8)
    with pytest.raises(MaxProposalsExceeded, match="after 0 proposals") as exc:
        sample_exact_batch(unit_ball(4), starts, ExactConfig(), 1, grid)
    assert np.array_equal(exc.value.stream_ids, grid[1])
    assert exc.value.envelope == rejection_envelope(unit_ball(4), starts[1])


def test_up_front_refusal_counts_the_streams_the_cap_would_stop(monkeypatch):
    # d = 3, M = 70, cap 1000: n e^(-1000/70) = n 6.2e-7 against 2^-20 = 9.5e-7,
    # so one stream draws and two are refused
    monkeypatch.setattr(ball_module, "MAX_PROPOSALS", 1000)
    th = (1.0 - 1.0 / 70.0, 0.0, 0.0)
    assert rejection_envelope(unit_ball(3), th) == pytest.approx(70.0)
    assert sample_exact_batch(unit_ball(3), th, ExactConfig(), 2, [0]).steps[0] >= 1
    with pytest.raises(MaxProposalsExceeded, match="2 exact sample.*after 0 proposals"):
        sample_exact_batch(unit_ball(3), th, ExactConfig(), 2, [0, 1])


def test_envelope_beyond_float64_is_refused_as_inf():
    # M = 10^398 at d = 400, rho = 0.9: refused by the cap, not an overflow
    theta = np.zeros(400)
    theta[0] = 0.9
    with pytest.raises(MaxProposalsExceeded, match=r"after 0 proposals .* M = inf"):
        sample_exact_batch(unit_ball(400), theta, ExactConfig(), 1, np.arange(2, dtype=np.uint64))


def test_rejection_envelope_beyond_float64_is_inf():
    # (1 / 0.1)^398 overflows float64: the envelope is inf, as the kernel's
    theta = np.zeros(400)
    theta[0] = 0.9
    assert rejection_envelope(unit_ball(400), theta) == np.inf
    theta[0] = 0.5
    assert rejection_envelope(unit_ball(400), theta) == pytest.approx(2.0 ** 398)


def test_exact_center_start_accepts_immediately():
    # at the center the kernel is uniform and M = 1: every proposal lands
    b = unit_ball(3)
    batch = sample_exact_batch(b, np.zeros(3), ExactConfig(), 3,
                               np.arange(64, dtype=np.uint64))
    assert (batch.steps == 1).all()


def test_exact_sampler_goodness_of_fit():
    # 36-arc chi-square of 1e5 draws against the quadrature arc masses
    b = unit_ball(2)
    th = np.array([0.5, 0.0])
    n = 100_000
    batch = sample_exact_batch(b, th, ExactConfig(), 2, np.arange(n, dtype=np.uint64))
    ang = np.arctan2(batch.points[:, 1], batch.points[:, 0])
    counts = np.histogram(ang, bins=36, range=(-math.pi, math.pi))[0]
    # arc k of arc_probabilities starts at angle 0; histogram starts at -pi
    probs = arc_probabilities(b, th, 36)
    expect = n * np.roll(probs, 18)
    stat = ((counts - expect) ** 2 / expect).sum()
    assert stat < sps.chi2.ppf(0.999, 35)


def test_arc_probabilities_sum_and_symmetry():
    b = unit_ball(2)
    p = arc_probabilities(b, np.array([0.5, 0.0]), 36)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert (p > 0).all()
    # symmetric about the x-axis: arc k reflects onto arc 35-k
    assert np.allclose(p, p[::-1], rtol=1e-10)
    # near side (angle ~0) beats far side (angle ~pi)
    assert p[0] > p[18]
    with pytest.raises(ValueError):
        arc_probabilities(b, np.array([1.5, 0.0]), 36)


def test_second_moment_identity_on_samples():
    b = unit_ball(2)
    th = np.array([0.5, 0.0])
    n = 50_000
    batch = sample_exact_batch(b, th, ExactConfig(), 4, np.arange(n, dtype=np.uint64))
    # mean |Y - theta|^2 estimates the trace
    w = float(np.sum((batch.points - th) ** 2, axis=1).mean())
    # SE of mean |Y-theta|^2 at this n, measured once and rounded up
    assert abs(w - 0.75) <= 4 * 0.004


def per_round_exact(ball, theta, seed, stream_ids):
    """Reference: one Moebius proposal per stream per request, no lookahead."""
    d, r, c = ball.dimension, ball.radius, ball.center
    a = (theta - c) / r
    gap = (r - float(np.linalg.norm(theta - c))) / r
    power = gap * (2.0 - gap)
    peak = gap if d >= 2 else 2.0 - gap
    points = np.empty((stream_ids.size, d))
    steps = np.empty(stream_ids.size, dtype=np.int64)
    alive, t = np.arange(stream_ids.size), 0
    while alive.size:
        x = rng.sphere_rows(seed, stream_ids[alive], t * d, d)[:, 0]
        v = x + a
        s2 = np.einsum("ij,ij->i", v, v)
        u = rng.uniform_values(seed, stream_ids[alive], t, 1)[:, 0]
        acc = u < (np.sqrt(s2) / peak) ** (2 - d)
        y = a + v[acc] * (power / s2[acc])[:, None]
        y /= np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
        points[alive[acc]] = c + r * y
        steps[alive[acc]] = t + 1
        alive = alive[~acc]
        t += 1
    return points, steps


@pytest.mark.parametrize("k", [1, 3, 7, None])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lookahead_window_matches_per_round_proposals(monkeypatch, k, d):
    # each row keeps its first accept among K proposals: the same sample
    b = Ball(np.linspace(-0.5, 0.5, d), 2.0)
    th = b.center + 1.5 / math.sqrt(d)
    ids = np.arange(300, dtype=np.uint64)
    want_points, want_steps = per_round_exact(b, th, 4, ids)
    if k is not None:
        monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: k)
    batch = sample_exact_batch(b, th, ExactConfig(), 4, ids)
    assert np.array_equal(batch.points, want_points)
    assert np.array_equal(batch.steps, want_steps)


@pytest.mark.parametrize("d,rho", [(1, 0.5), (2, 0.0), (2, 0.5), (2, 0.95), (3, 0.5),
                                   (4, 0.5)])
def test_in_place_accept_paths_match_per_round_proposals(d, rho):
    # in the plane every row accepts its first proposal, which the kernel
    # maps to its exit point where it lies; off the plane some first
    # proposals reject and the accepted ones are gathered with np.take.
    # Both give the reference's points and steps, for one start and for a
    # three-start grid.
    b = Ball(np.linspace(-0.5, 0.5, d), 2.0)
    axes = np.eye(d)
    starts = b.center + 2.0 * rho * np.stack([axes[0], -axes[0], axes[-1]])
    grid = np.arange(3 * 150, dtype=np.uint64).reshape(3, 150)
    one = sample_exact_batch(b, starts[0], ExactConfig(), 9, grid[0])
    many = sample_exact_batch(b, starts, ExactConfig(), 9, grid)
    for i, start in enumerate(starts):
        want_points, want_steps = per_round_exact(b, start, 9, grid[i])
        rows = slice(150 * i, 150 * (i + 1))
        assert np.array_equal(many.points[rows], want_points)
        assert np.array_equal(many.steps[rows], want_steps)
        if i == 0:
            assert np.array_equal(one.points, want_points)
            assert np.array_equal(one.steps, want_steps)
    if d == 2:
        assert (many.steps == 1).all()
    else:
        assert (one.steps > 1).any() and (many.steps > 1).any()


def test_exact_batch_memory_stays_small():
    # numpy reports its buffers to tracemalloc; 200,000 plane samples hold
    # their points (3.2 MB), one proposal window and a few per-row arrays,
    # ~14 MB in all. Full-width gathers, scatters and temporaries took ~29 MB.
    tracemalloc.start()
    try:
        sample_exact_batch(unit_ball(2), np.array([0.5, 0.0]), ExactConfig(), 1,
                           np.arange(200_000, dtype=np.uint64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_exact_start_grid_memory_stays_within_one_start():
    # a (3, 10^5) grid draws each start's streams as their own batch into
    # its rows, so it peaks no higher than the same 3*10^5 samples drawn as
    # one start (~19 MiB); one lockstep batch of the three peaked at ~30 MiB
    def peak_of(theta, stream_ids):
        tracemalloc.start()
        try:
            sample_exact_batch(unit_ball(2), theta, ExactConfig(), 1, stream_ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ids = np.arange(300_000, dtype=np.uint64)
    one = peak_of(np.array([0.5, 0.0]), ids)
    grid = peak_of(np.tile([0.5, 0.0], (3, 1)), ids.reshape(3, -1))
    assert grid <= one


@pytest.mark.parametrize("k", [1, 3, 7, None])
def test_lookahead_window_matches_per_round_proposals_with_redraws(
        monkeypatch, zero_directions, k):
    # degenerate directions at the first proposal and at later ones of
    # streams that live for several proposals are redrawn the same inside
    # any window as one proposal at a time
    d = 3
    b = Ball(np.zeros(d), 1.0)
    th = np.array([0.8, 0.0, 0.0])                 # M = 5: several proposals
    ids = np.arange(200, dtype=np.uint64)
    long = ids[sample_exact_batch(b, th, ExactConfig(), 4, ids).steps >= 5][:6].tolist()
    retries = zero_directions(d, {0: (0,)} | {sid: (d, 2 * d, 4 * d) for sid in long})
    want_points, want_steps = per_round_exact(b, th, 4, ids)
    redrawn = len(retries)
    if k is not None:
        monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: k)
    batch = sample_exact_batch(b, th, ExactConfig(), 4, ids)
    assert len(long) == 6
    assert redrawn >= 7 and len(retries) >= 2 * redrawn
    assert np.array_equal(batch.points, want_points)
    assert np.array_equal(batch.steps, want_steps)


@pytest.mark.parametrize("d,rho", [(1, 0.5), (2, 0.0), (2, 0.5), (2, 0.95),
                                   (3, 0.0), (3, 0.5), (4, 0.5)])
def test_exact_reads_uniforms_only_where_a_proposal_can_reject(monkeypatch, d, rho):
    # p >= 1 accepts whatever the uniform, so the plane reads none; rows
    # that do read one still read word t for proposal t
    b = Ball(np.zeros(d), 1.0)
    th = np.zeros(d)
    th[0] = rho
    ids = np.arange(400, dtype=np.uint64)
    want_points, want_steps = per_round_exact(b, th, 6, ids)
    rows = []
    uniform_values = rng.uniform_values

    def counted(seed, stream_ids, start, count):
        rows.append(len(stream_ids))
        return uniform_values(seed, stream_ids, start, count)

    monkeypatch.setattr(rng, "uniform_values", counted)
    batch = sample_exact_batch(b, th, ExactConfig(), 6, ids)
    assert np.array_equal(batch.points, want_points)
    assert np.array_equal(batch.steps, want_steps)
    if d == 2:
        assert rows == []
    elif d == 1 or rho == 0.0:
        # on the line p is 1 at the near point; at the center of a d=3
        # ball |u| rounds to either side of 1, and p = 1/|u| with it
        assert 0 < rows[0] < ids.size
    else:
        assert rows[0] == ids.size
