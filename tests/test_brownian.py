"""Tests for the discretized Brownian exit sampler."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from exitlaw import Ball, BoxDomain, BrownianConfig, MaxStepsExceeded
from exitlaw.brownian import simulate_exit_batch
from exitlaw.exits import ExitBatch
from exitlaw import brownian, driver, passage, philox, rng, stats

BALL2 = Ball(np.zeros(2), 1.0)
THETA2 = np.array([0.5, 0.0])


def ids(n):
    return np.arange(n, dtype=np.uint64)


def hop_directions(seed, n, d):
    """First-round hop directions of streams 0..n-1: Gaussian words [0, d), by rng.unit_rows."""
    g = rng.gaussian_values(seed, ids(n), 0, d).reshape(n, 1, d)
    return rng.unit_rows(seed, ids(n), 0, g)[:, 0]


def test_config_validation():
    with pytest.raises(ValueError):
        BrownianConfig(dt=0.0)


def test_exit_time_is_within_the_final_step():
    # a layer of 4 sqrt(dt) = 1 covers the unit disk: every round is a step
    cfg = BrownianConfig(dt=1 / 16)
    batch = simulate_exit_batch(BALL2, THETA2, cfg, 0, ids(500))
    lo = (batch.steps - 1) * cfg.dt
    hi = batch.steps * cfg.dt
    assert (batch.exit_times > lo).all()
    assert (batch.exit_times <= hi).all()


def test_exit_points_on_boundary():
    for domain, theta in [(BALL2, THETA2),
                          (BoxDomain((0.0, 0.0), (2.0, 1.0)), np.array([0.4, 0.3]))]:
        batch = simulate_exit_batch(domain, theta, BrownianConfig(dt=1e-3), 1, ids(400))
        if isinstance(domain, Ball):
            resid = np.abs(np.linalg.norm(batch.points, axis=1) - 1.0)
        else:
            lo = np.abs(batch.points - domain.lower).min(axis=1)
            hi = np.abs(batch.points - domain.upper).min(axis=1)
            resid = np.minimum(lo, hi)
        assert resid.max() <= 1e-9 * domain.diameter()


@pytest.mark.parametrize("domain, start, exit_point", [
    (BALL2, (0.5, 0.0), (1.0, 0.0)),
    (BoxDomain((0.0, 0.0), (1.0, 1.0)), (0.5, 0.5), (1.0, 0.5)),
])
def test_step_landing_on_the_boundary_exits_there(monkeypatch, domain, start, exit_point):
    # Brownian motion leaves an open set when it first meets the
    # complement: a step of sqrt(0.25) * (1, 0) that lands exactly on the
    # boundary is the exit, at crossing parameter t = 1
    def gaussians(seed, ids, start, count, substream=rng.TAG_GAUSS):
        g = np.zeros((len(ids), count))
        if start == 0:
            g[:, 0] = 1.0
        return g

    monkeypatch.setattr(rng, "gaussian_values", gaussians)
    batch = simulate_exit_batch(domain, np.array(start), BrownianConfig(dt=0.25), 0, ids(3))
    assert (batch.points == exit_point).all()
    assert (batch.steps == 1).all()
    assert (batch.exit_times == 0.25).all()


def test_hop_rounding_onto_the_boundary_exits_at_its_projection(monkeypatch):
    # at dt = 1e-40 the hop radius 0.5 - sqrt(dt) rounds to 0.5: from
    # (0.5, 0) the first round hops along (1, 0) onto the sphere's point
    # (1, 0), and exits there after one round, at the hop time
    def gaussians(seed, ids, start, count, substream=rng.TAG_GAUSS):
        g = np.zeros((len(ids), count))
        if start == 0:
            g[:, 0] = 1.0
        return g

    monkeypatch.setattr(rng, "gaussian_values", gaussians)
    cap_steps(monkeypatch, 10)
    batch = simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=1e-40), 5, ids(3))
    assert (batch.points == (1.0, 0.0)).all()
    assert (batch.steps == 1).all()
    u = rng.uniform_values(5, ids(3), 0, 1)[:, 0]
    assert np.array_equal(batch.exit_times, 0.25 * passage.times(2, u))


def test_first_round_hops_one_step_short_of_the_inscribed_sphere(monkeypatch):
    # at dt = 1e-4 the layer is 0.04 deep: a walk at distance 0.5 hops by
    # 0.5 - sqrt(dt) along the unit direction of its Gaussian words [0, 2)
    cap_steps(monkeypatch, 1)
    with pytest.raises(MaxStepsExceeded) as err:
        simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=1e-4), 9, ids(64))
    dirs = hop_directions(9, 64, 2)
    assert np.array_equal(err.value.stream_ids, ids(64))
    assert np.array_equal(err.value.positions, THETA2 + (0.5 - math.sqrt(1e-4)) * dirs)
    assert (BALL2.distance_to_boundary_many(err.value.positions) >= 0.01 - 1e-15).all()


def test_hop_directions_share_the_sphere_redraws(monkeypatch):
    # a floor of 0.3 redraws ~4 % of the 2-d hop directions from the retry
    # substreams: the hops still equal rng.unit_rows' directions, and
    # the walks are still the same in any window
    monkeypatch.setattr(rng, "NORM_FLOOR", 0.3)
    cfg = BrownianConfig(dt=1e-4)
    want = simulate_exit_batch(BALL2, THETA2, cfg, 9, ids(200))
    monkeypatch.setattr(rng, "WINDOW_VALUES", 1)
    assert_same_exits(simulate_exit_batch(BALL2, THETA2, cfg, 9, ids(200)), want)
    cap_steps(monkeypatch, 1)
    with pytest.raises(MaxStepsExceeded) as err:
        simulate_exit_batch(BALL2, THETA2, cfg, 9, ids(64))
    dirs = hop_directions(9, 64, 2)
    assert np.array_equal(err.value.positions, THETA2 + (0.5 - math.sqrt(1e-4)) * dirs)


@pytest.mark.parametrize("d", [2, 3])
def test_exit_time_variance_at_the_centre(d):
    # from the centre the first hop takes (1 - sqrt(dt))^2 T_d, and the
    # layer walk that ends it O(dt) more; Var tau = 2 / (d^2 (d+2))
    n = 20_000
    batch = simulate_exit_batch(Ball(np.zeros(d), 1.0), np.zeros(d), BrownianConfig(dt=1e-4),
                                4, ids(n))
    tau = batch.exit_times
    var = 2.0 / (d * d * (d + 2))
    # the SE of a sample variance, from the fourth central moment; the
    # floors are criterion 4's 5 sqrt(dt), relative for the variance
    se = math.sqrt(np.mean((tau - tau.mean()) ** 4) - tau.var() ** 2) / math.sqrt(n)
    floor = 5 * math.sqrt(1e-4)
    assert abs(tau.var() - var) <= max(4 * se, floor * var)
    assert abs(tau.mean() - 1.0 / d) <= max(4 * tau.std() / math.sqrt(n), floor)


def test_window_size_does_not_change_results(monkeypatch):
    # the blocks are lookahead windows of rounds: one round per window
    # (WINDOW_VALUES 1), windows of a few rounds, and the default; ball at
    # d=2, box at d=3
    box3 = BoxDomain((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    cfg = BrownianConfig(dt=1e-3)
    default = rng.WINDOW_VALUES
    for domain, theta in [(BALL2, THETA2), (box3, np.array([0.4, 0.3, 0.5]))]:
        d = domain.dimension
        monkeypatch.setattr(rng, "WINDOW_VALUES", default)
        want = simulate_exit_batch(domain, theta, cfg, 3, ids(100))
        for values in (1, 7 * d * 100, 4096):
            monkeypatch.setattr(rng, "WINDOW_VALUES", values)
            got = simulate_exit_batch(domain, theta, cfg, 3, ids(100))
            case = (d, values)
            assert np.array_equal(want.points, got.points), case
            assert np.array_equal(want.steps, got.steps), case
            assert np.array_equal(want.exit_times, got.exit_times), case


def cap_steps(monkeypatch, steps):
    monkeypatch.setattr(BrownianConfig, "resolve_max_steps", lambda self, domain: steps)


def test_max_steps_cap_off_the_window_edge(monkeypatch):
    # with an unbounded layer every round is a dt-step: the cap of 701
    # rounds ends partway through a lookahead window of up to 64 rounds,
    # and one round into a 7-round window; the pending positions are the
    # sums of exactly 701 increments
    monkeypatch.setattr(brownian, "KAPPA", math.inf)
    cfg = BrownianConfig(dt=1e-6)
    cap_steps(monkeypatch, 701)
    g = rng.gaussian_values(0, ids(16), 0, 701 * 2).reshape(16, 701, 2)
    incr = np.concatenate([np.tile(THETA2, (16, 1, 1)), g * np.sqrt(1e-6)], axis=1)
    want = np.cumsum(incr, axis=1)[:, -1]
    for values in (rng.WINDOW_VALUES, 16 * 2 * 7):
        monkeypatch.setattr(rng, "WINDOW_VALUES", values)
        with pytest.raises(MaxStepsExceeded) as err:
            simulate_exit_batch(BALL2, THETA2, cfg, 0, ids(16))
        assert err.value.steps == 701
        assert np.array_equal(err.value.positions, want), values


def test_walk_memory_stays_small():
    # numpy reports its buffers to tracemalloc; 20,000 walks at d=2 hold a
    # few arrays of one value per walk and one lookahead window
    ball = Ball(np.zeros(2), 1.0)
    tracemalloc.start()
    try:
        simulate_exit_batch(ball, np.array([0.2, 0.0]), BrownianConfig(dt=1e-3), 1,
                            ids(20_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_hop_normalization_never_reaches_the_step_gaussians(monkeypatch):
    # rng.unit_rows normalizes its input in place; a hop hands it a copy of
    # its round's Gaussians, so in 8-round windows that mix hops and layer
    # steps the walks are the same when unit_rows copies its input first
    cfg = BrownianConfig(dt=1e-3)
    monkeypatch.setattr(rng, "lookahead_rounds", lambda live, words, done: 8)
    want = simulate_exit_batch(BALL2, THETA2, cfg, 5, ids(200))
    real, hops = rng.unit_rows, []

    def copying(seed, stream_ids, gauss_start, g):
        hops.append(g.shape[0])
        return real(seed, stream_ids, gauss_start, g.copy())

    monkeypatch.setattr(rng, "unit_rows", copying)
    assert_same_exits(simulate_exit_batch(BALL2, THETA2, cfg, 5, ids(200)), want)
    assert 200 <= sum(hops) < want.steps.sum()   # every walk hops first, and some step


def test_stream_groups_do_not_change_results():
    # a (3, 30) grid walked whole, and as column groups of 7 streams (four
    # full groups and a group of two): the lockstep batch moves no bit
    cfg = BrownianConfig(dt=1e-3)
    starts = THREE_STARTS[[0, 300, 550]]
    grid = ids(90).reshape(3, 30)
    want = simulate_exit_batch(BALL2, starts, cfg, 3, grid)
    for lo in range(0, 30, 7):
        part = simulate_exit_batch(BALL2, starts, cfg, 3, grid[:, lo:lo + 7])
        rows = (30 * np.arange(3)[:, None] + np.arange(lo, min(lo + 7, 30))).ravel()
        assert_same_exits(part, ExitBatch(want.points[rows], want.steps[rows],
                                          want.exit_times[rows]))


def test_batch_split_does_not_change_results():
    cfg = BrownianConfig(dt=1e-3)
    whole = simulate_exit_batch(BALL2, THETA2, cfg, 3, ids(100))
    parts = [simulate_exit_batch(BALL2, THETA2, cfg, 3, ids(100)[lo:hi])
             for lo, hi in [(0, 30), (30, 31), (31, 100)]]
    assert np.array_equal(np.concatenate([p.points for p in parts]), whole.points)
    assert np.array_equal(np.concatenate([p.steps for p in parts]), whole.steps)


def test_batch_row_matches_single_stream_batch():
    cfg = BrownianConfig(dt=1e-2)
    batch = simulate_exit_batch(BALL2, THETA2, cfg, 5, ids(8))
    for i in range(8):
        one = simulate_exit_batch(BALL2, THETA2, cfg, 5, [i])
        assert np.array_equal(one.points[0], batch.points[i])
        assert one.steps[0] == batch.steps[i]
        assert one.exit_times[0] == batch.exit_times[i]


def test_max_steps_carries_partial_state(monkeypatch):
    # every round a dt-step (an unbounded layer), as in the plain walk
    monkeypatch.setattr(brownian, "KAPPA", math.inf)
    cfg = BrownianConfig(dt=1e-6)
    cap_steps(monkeypatch, 50)
    with pytest.raises(MaxStepsExceeded) as err:
        simulate_exit_batch(BALL2, THETA2, cfg, 0, ids(32))
    e = err.value
    assert e.steps == 50
    assert e.stream_ids.size == 32          # nobody exits this fast
    assert e.positions.shape == (32, 2)
    assert BALL2.contains_many(e.positions).all()
    assert "50 steps" in str(e) and "dt=1e-06" in str(e) and "diameter 2" in str(e)


# ---------------------------------------------------------------------------
# Multi-start batches, the config's one field dt, and the step cap
# ---------------------------------------------------------------------------

#: 700 streams from three starts, one per stream (an (m, 1) stream grid)
#: of unequal runs of 300, 250 and 150 streams.
THREE_STARTS = np.repeat([[0.2, 0.0], [0.5, 0.0], [0.3, -0.4]], [300, 250, 150], axis=0)


def assert_same_exits(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.exit_times, want.exit_times)


def test_config_has_the_single_field_dt():
    assert [f.name for f in dataclasses.fields(BrownianConfig)] == ["dt"]
    with pytest.raises(TypeError):
        BrownianConfig(workers=2)


def test_workers_knob_is_dropped_and_moves_no_bit(monkeypatch):
    # the command line's --workers reaches sampler_config, which drops it
    want = simulate_exit_batch(BALL2, THREE_STARTS, BrownianConfig(dt=1e-2), 7,
                               ids(700)[:, None])
    for workers in (2, 3):
        cfg = driver.sampler_config("brownian", dt=1e-2, workers=workers)
        assert cfg == BrownianConfig(dt=1e-2)
        assert_same_exits(simulate_exit_batch(BALL2, THREE_STARTS, cfg, 7, ids(700)[:, None]),
                          want)


def test_max_steps_names_pending_walks_in_row_order_at_any_window(monkeypatch):
    # every walk still inside at the cap is named, in row order, with its
    # position, whatever the window size
    cap_steps(monkeypatch, 40)
    errors = []
    for values in (rng.WINDOW_VALUES, 3):
        monkeypatch.setattr(rng, "WINDOW_VALUES", values)
        with pytest.raises(MaxStepsExceeded) as err:
            simulate_exit_batch(BALL2, THREE_STARTS, BrownianConfig(dt=1e-6), 0,
                                ids(700)[:, None])
        errors.append(err.value)
    serial, windowed = errors
    assert 0 < serial.stream_ids.size < 700
    assert np.all(np.diff(serial.stream_ids.astype(np.int64)) > 0)
    assert BALL2.contains_many(serial.positions).all()
    assert np.array_equal(windowed.stream_ids, serial.stream_ids)
    assert np.array_equal(windowed.positions, serial.positions)
    assert windowed.steps == serial.steps == 40
    assert str(windowed) == str(serial)


def test_default_step_cap_scales_with_diameter_and_dt():
    assert BrownianConfig(dt=1e-4).resolve_max_steps(BALL2) == 4_000_000
    box = BoxDomain((0.0, 0.0), (3.0, 4.0))
    assert BrownianConfig(dt=1e-2).resolve_max_steps(box) == 250_000
    # a cap beyond 2^62 steps names dt and the diameter instead of clipping
    with pytest.raises(ValueError, match=r"dt=4\.94066e-324 .* diameter 2: .* exceeds 2\^62"):
        BrownianConfig(dt=5e-324).resolve_max_steps(BALL2)
    with pytest.raises(ValueError, match=r"dt=1e-10 .* diameter 2e\+150: .* = inf"):
        BrownianConfig(dt=1e-10).resolve_max_steps(Ball(np.zeros(2), 1e150))


def test_theta_must_be_interior():
    with pytest.raises(ValueError):
        simulate_exit_batch(BALL2, np.array([1.0, 0.0]), BrownianConfig(), 0, ids(1))


def test_mean_is_unbiased():
    # ball: exact trace; box: conservative diam^2 bound
    cfg = BrownianConfig(dt=1e-3)
    n = 4000
    batch = simulate_exit_batch(BALL2, np.array([0.2, 0.0]), cfg, 11, ids(n))
    tol = 4 * np.sqrt(0.96 / (2 * n))
    assert np.abs(batch.points.mean(axis=0) - [0.2, 0.0]).max() < tol

    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    bb = simulate_exit_batch(box, np.array([0.4, 0.3]), cfg, 11, ids(n))
    tol = 4 * np.sqrt(5.0 / (2 * n))
    assert np.abs(bb.points.mean(axis=0) - [0.4, 0.3]).max() < tol


def test_trace_law():
    # dt=1e-3 keeps the discretization bias within ~2 SE at this n
    # (seed fixed; calibrated z = +0.85)
    batch = simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=1e-3), 2, ids(10_000))
    sm = stats.summarize(batch)
    assert abs(sm.trace - 0.75) <= 4 * sm.trace_se


@pytest.mark.parametrize("d", [2, 3])
def test_exit_time_law(d):
    ball = Ball(np.zeros(d), 1.0)
    theta = np.r_[0.5, np.zeros(d - 1)]
    cfg = BrownianConfig(dt=1e-3)
    batch = simulate_exit_batch(ball, theta, cfg, 0, ids(2000))
    tbar = batch.exit_times.mean()
    se = batch.exit_times.std(ddof=1) / np.sqrt(2000)
    tol = max(4 * se, 5 * np.sqrt(cfg.dt))
    assert abs(tbar - 0.75 / d) <= tol


def test_dt_refinement_shrinks_trace_bias():
    # fixed seeds; pooled n = 9000 per dt. Calibrated biases:
    # dt=1e-2 ~ +0.013, dt=1e-3 ~ +0.004, dt=1e-4 under the noise floor.
    biases, ses = [], []
    for dt in (1e-2, 1e-3, 1e-4):
        batch = simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=dt), 6, ids(9000))
        sm = stats.summarize(batch)
        biases.append(abs(sm.trace - 0.75))
        ses.append(sm.trace_se)
    slack = 2 * np.hypot(ses[0], ses[1])
    assert biases[0] > biases[1] - slack
    assert biases[1] > biases[2] - 2 * np.hypot(ses[1], ses[2])
    assert biases[0] > biases[2]   # the end-to-end refinement is unambiguous


def test_exit_times_positive_and_steps_consistent():
    batch = simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=1e-2), 8, ids(300))
    assert (batch.exit_times > 0).all()
    assert (batch.steps >= 1).all()
    assert len(batch) == 300
    assert batch.dimension == 2


def test_dt_whose_steps_overflow_a_crossing_names_dt_and_diameter():
    with pytest.raises(ValueError, match=r"dt=1e\+307 is too large .* diameter 2: .* overflows"):
        BrownianConfig(dt=1e307).resolve_max_steps(BALL2)
    with pytest.raises(ValueError, match=r"dt=1e\+156 is too large .* diameter 2e\+80: "):
        BrownianConfig(dt=1e156).resolve_max_steps(Ball(np.zeros(2), 1e80))
    with pytest.raises(ValueError, match=r"dt=1e\+307 is too large .* diameter 5: "):
        BrownianConfig(dt=1e307).resolve_max_steps(BoxDomain((0.0, 0.0), (3.0, 4.0)))
    # below diameter sqrt(2) the crossing's 4 A bounds dt, not 2 D^2
    with pytest.raises(ValueError, match=r"dt=5e\+305 is too large .* diameter 1: "):
        BrownianConfig(dt=5e305).resolve_max_steps(Ball(np.zeros(2), 0.5))


@pytest.mark.parametrize("radius, dt", [(1.0, 1e305), (0.5, 3e305)])
def test_largest_accepted_dt_crosses_without_overflow(radius, dt):
    # a step of Box-Muller's largest deviate in every coordinate, from near
    # the boundary and from the centre, at a dt the check accepts
    ball = Ball(np.zeros(2), radius)
    BrownianConfig(dt=dt).resolve_max_steps(ball)
    inside = radius * np.array([[-(1 - 1e-12), 0.0], [0.0, 0.0], [1 - 1e-12, 0.0]])
    outside = inside + math.sqrt(dt * 106 * math.log(2))
    with np.errstate(all="raise"):
        pts, t = ball.crossing_many(inside, outside)
    assert np.isfinite(pts).all() and ((0 < t) & (t <= 1)).all()
    batch = simulate_exit_batch(ball, np.zeros(2), BrownianConfig(dt=dt), 3, ids(500))
    assert np.isfinite(batch.points).all() and np.isfinite(batch.exit_times).all()


# ---------------------------------------------------------------------------
# Exit times summed on demand
# ---------------------------------------------------------------------------

def per_round_clock(domain, theta, cfg, seed, stream_ids, sequential=False):
    """Exit times by a clock run inside the walk, round by round.

    The walk of ``simulate_exit_batch`` with one round per request: each
    live walk sums its hops' times R * R * T_d(u) in round order, u its
    tag-0 uniform word k, and counts its whole layer steps n; its exit
    time is that sum + n * dt, plus t * dt for a step exit crossing at t.
    ``sequential`` runs the clock of exitlaw 0.6.0 instead: a running T
    gains each round's time, dt for a step and the hop's time for a hop,
    and a step exit takes T + t * dt.
    """
    starts, grid = domain.interior_starts(theta, stream_ids)
    ids = grid.ravel()
    m, d = ids.shape[0], domain.dimension
    sqdt = math.sqrt(cfg.dt)
    X = np.repeat(starts, grid.shape[1], axis=0)
    T, n, live, times, k = np.zeros(m), np.zeros(m, dtype=np.int64), np.arange(m), np.empty(m), 0
    while live.size:
        dist = domain.distance_to_boundary_many(X)
        gk = rng.gaussian_values(seed, ids[live], k * d, d).reshape(-1, d)
        Y = X + sqdt * gk
        dT = np.full(live.size, cfg.dt)
        hopping = dist > brownian.KAPPA * sqdt
        hop = np.flatnonzero(hopping)
        if hop.size:
            R = dist[hop] - sqdt
            dirs = rng.unit_rows(seed, ids[live[hop]], k * d, gk[hop, None])[:, 0]
            Y[hop] = X[hop] + R[:, None] * dirs
            u = rng.uniform_values(seed, ids[live[hop]], k, 1)[:, 0]
            dT[hop] = R * R * passage.times(d, u)
        if not sequential:
            dT[~hopping] = 0.0
        inside = domain.contains_many(Y)
        k += 1
        out = np.flatnonzero(~inside)
        walk, jump = out[~hopping[out]], out[hopping[out]]
        tail = domain.crossing_many(X[walk], Y[walk])[1] * cfg.dt
        if sequential:
            times[live[walk]] = T[walk] + tail
            times[live[jump]] = T[jump] + dT[jump]
        else:
            times[live[walk]] = T[walk] + n[walk] * cfg.dt + tail
            times[live[jump]] = (T[jump] + dT[jump]) + n[jump] * cfg.dt
        n += ~hopping
        X, T, n, live = Y[inside], (T + dT)[inside], n[inside], live[inside]
    return times


def sequential_clock(domain, theta, cfg, seed, stream_ids):
    """Exit times by the clock of exitlaw 0.6.0 (``per_round_clock``'s ``sequential``)."""
    return per_round_clock(domain, theta, cfg, seed, stream_ids, sequential=True)


CLOCK_CASES = [(Ball(np.zeros(d), 1.0), np.r_[0.3, np.zeros(d - 1)]) for d in range(1, 6)]
CLOCK_CASES.append((BoxDomain((0.0, 0.0), (2.0, 1.0)), np.array([0.4, 0.3])))


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("dt", [1e-2, 1e-4])
@pytest.mark.parametrize("case", range(len(CLOCK_CASES)))
def test_exit_times_replay_the_per_round_clock_byte_for_byte(monkeypatch, case, dt, seed):
    # at the default window and record sizes, and under windows of one
    # round, of a few rounds and of 4096 values, each with a record that
    # the clock folds at every window, every few windows and every
    # thousand hops
    domain, theta = CLOCK_CASES[case]
    d, cfg = domain.dimension, BrownianConfig(dt=dt)
    want = per_round_clock(domain, theta, cfg, seed, ids(120)).tobytes()
    batch = simulate_exit_batch(domain, theta, cfg, seed, ids(120))
    assert batch.exit_times.tobytes() == want
    for values, hops in [(1, 1), (7 * d * 100, 7), (4096, 1000)]:
        monkeypatch.setattr(rng, "WINDOW_VALUES", values)
        monkeypatch.setattr(brownian, "CLOCK_HOPS", hops)
        got = simulate_exit_batch(domain, theta, cfg, seed, ids(120))
        assert_same_exits(got, batch)
        assert got.exit_times.tobytes() == want, (values, hops)


@pytest.mark.parametrize("dt", [1e-2, 1e-4])
@pytest.mark.parametrize("case", range(len(CLOCK_CASES)))
def test_exit_times_stay_within_1e13_of_the_sequential_clock(case, dt):
    # n dt rounds once where the clock of 0.6.0 added dt n times
    domain, theta = CLOCK_CASES[case]
    cfg = BrownianConfig(dt=dt)
    want = sequential_clock(domain, theta, cfg, 11, ids(120))
    got = simulate_exit_batch(domain, theta, cfg, 11, ids(120)).exit_times
    assert (np.abs(got - want) <= 1e-13 * want).all()


def test_a_fold_past_the_table_keeps_the_walk_and_fails_every_read(monkeypatch):
    # passage.times raises from d = 44 on: a fold inside the walk keeps the
    # error and drops the record, so the walk returns its exits and every
    # read raises that error
    ball, cfg = Ball(np.zeros(44), 1.0), BrownianConfig(dt=1e-3)
    want = simulate_exit_batch(ball, np.zeros(44), cfg, 5, ids(20))
    monkeypatch.setattr(brownian, "CLOCK_HOPS", 1)
    got = simulate_exit_batch(ball, np.zeros(44), cfg, 5, ids(20))
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.steps, want.steps)
    for _ in range(2):
        with pytest.raises(ValueError, match="d=44"):
            got.exit_times


def test_exit_times_are_read_once_from_a_private_record():
    # the first read sums the clock and every later read returns its
    # array; the clock reads no array of the batch or of the caller
    stream_ids = ids(300)
    batch = simulate_exit_batch(BALL2, THETA2, BrownianConfig(dt=1e-3), 4, stream_ids)
    want = per_round_clock(BALL2, THETA2, BrownianConfig(dt=1e-3), 4, ids(300))
    stream_ids[:] = 0
    batch.points[:] = 0.0
    batch.steps[:] = 1
    times = batch.exit_times
    assert np.array_equal(times, want)
    assert batch.exit_times is times
    with pytest.raises(AttributeError):
        batch.exit_times = want


def test_the_walk_draws_no_time(monkeypatch):
    # the rounds fetch no tag-0 word and call no passage.times; the read
    # fetches no more tag-0 words than windows of every live walk would
    words, gauss = [], []
    raw, gaussian_values, first_passage = philox.raw_words, rng.gaussian_values, passage.times

    def counted(seed, stream_ids, substream, start, count):
        if substream == rng.TAG_UNIFORM:
            words.append(np.size(stream_ids) * count)
        return raw(seed, stream_ids, substream, start, count)

    def windows(seed, stream_ids, start, count, substream=rng.TAG_GAUSS):
        gauss.append(np.size(stream_ids) * count)
        return gaussian_values(seed, stream_ids, start, count, substream)

    def refuse(d, u):
        raise AssertionError("the walk drew a first-passage time")

    monkeypatch.setattr(philox, "raw_words", counted)
    monkeypatch.setattr(rng, "gaussian_values", windows)
    monkeypatch.setattr(passage, "times", refuse)
    starts = np.array([[0.2, 0.0, 0.0], [0.5, 0.0, 0.0], [0.8, 0.0, 0.0]])
    grid = ids(3 * 200).reshape(3, 200)
    batch = simulate_exit_batch(Ball(np.zeros(3), 1.0), starts, BrownianConfig(dt=1e-4), 7, grid)
    assert words == []
    monkeypatch.setattr(passage, "times", first_passage)
    assert batch.exit_times.shape == (600,)
    # a hop reads one word; windows of K rounds for L live walks fetch L K
    assert 0 < sum(words) <= sum(gauss) // 3


def test_record_and_replay_memory_at_scale():
    # 200,000 walks in d=4: a clock run inside the walk peaked at 64.5 MiB
    # (tracemalloc); the record, its folds and the read stay within 1.25x
    ball = Ball(np.zeros(4), 1.0)
    bound = 1.25 * 64.5 * 2**20
    tracemalloc.start()
    try:
        batch = simulate_exit_batch(ball, np.array([0.5, 0.0, 0.0, 0.0]),
                                    BrownianConfig(dt=1e-3), 1, ids(200_000))
        _, walk = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        times = batch.exit_times
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walk <= bound and read <= bound, (walk / 2**20, read / 2**20)
    assert np.isfinite(times).all() and (times > 0).all()
