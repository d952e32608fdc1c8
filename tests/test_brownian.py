"""Tests for the discretized Brownian exit sampler."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from exitlaw import Ball, BoxDomain, BrownianConfig, MaxStepsExceeded
from exitlaw.brownian import simulate_exit_batch
from exitlaw import brownian, rng, stats

BALL2 = Ball(np.zeros(2), 1.0)
THETA2 = np.array([0.5, 0.0])


def ids(n):
    return np.arange(n, dtype=np.uint64)


def test_config_validation():
    with pytest.raises(ValueError):
        BrownianConfig(dt=0.0)


def test_exit_time_is_within_the_final_step():
    cfg = BrownianConfig(dt=1e-3)
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


def test_block_width_does_not_change_results(monkeypatch):
    # Ball at d=2; box at d=3, where 7 and 255 words give odd requests with
    # odd Gaussian offsets. Width d is one step per block, so every exit
    # takes its previous point from the carried position; 255/256/257
    # straddle philox.NARROW_WORDS.
    box3 = BoxDomain((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    cfg = BrownianConfig(dt=1e-3)
    default = brownian._BLOCK_WORDS
    for domain, theta in [(BALL2, THETA2), (box3, np.array([0.4, 0.3, 0.5]))]:
        d = domain.dimension
        monkeypatch.setattr(brownian, "_BLOCK_WORDS", default)
        want = simulate_exit_batch(domain, theta, cfg, 3, ids(100))
        for words in (d, 7, 255, 256, 257):
            monkeypatch.setattr(brownian, "_BLOCK_WORDS", words)
            got = simulate_exit_batch(domain, theta, cfg, 3, ids(100))
            case = (d, words)
            assert np.array_equal(want.points, got.points), case
            assert np.array_equal(want.steps, got.steps), case
            assert np.array_equal(want.exit_times, got.exit_times), case


def cap_steps(monkeypatch, steps):
    monkeypatch.setattr(BrownianConfig, "resolve_max_steps", lambda self, domain: steps)


def test_max_steps_cap_off_the_block_edge(monkeypatch):
    # the cap of 701 steps ends partway through the second 512-step block
    # at d=2, and one step into a 4-step block after a width-7 patch; the
    # pending positions are the sums of exactly 701 increments
    cfg = BrownianConfig(dt=1e-6)
    cap_steps(monkeypatch, 701)
    g = rng.gaussian_values(0, ids(16), 0, 701 * 2).reshape(16, 701, 2)
    incr = np.concatenate([np.tile(THETA2, (16, 1, 1)), g * np.sqrt(1e-6)], axis=1)
    want = np.cumsum(incr, axis=1)[:, -1]
    for words in (brownian._BLOCK_WORDS, 7):
        monkeypatch.setattr(brownian, "_BLOCK_WORDS", words)
        with pytest.raises(MaxStepsExceeded) as err:
            simulate_exit_batch(BALL2, THETA2, cfg, 0, ids(16))
        assert err.value.steps == 701
        assert np.array_equal(err.value.positions, want), words


def test_block_memory_stays_small():
    # numpy reports its buffers to tracemalloc; 500 streams at d=2, walked
    # in groups of 256, hold a few live x 1,024 arrays per block, about 8 MB
    ball = Ball(np.zeros(2), 1.0)
    tracemalloc.start()
    try:
        simulate_exit_batch(ball, np.array([0.2, 0.0]), BrownianConfig(dt=1e-3), 1, ids(500))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_stream_groups_do_not_change_results(monkeypatch):
    # 30 streams in groups of 7: four full groups and a group of two
    cfg = BrownianConfig(dt=1e-3)
    want = simulate_exit_batch(BALL2, THETA2, cfg, 3, ids(30))
    monkeypatch.setattr(brownian, "_GROUP_STREAMS", 7)
    got = simulate_exit_batch(BALL2, THETA2, cfg, 3, ids(30))
    assert np.array_equal(want.points, got.points)
    assert np.array_equal(want.steps, got.steps)
    assert np.array_equal(want.exit_times, got.exit_times)


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
# threads over stream groups
# ---------------------------------------------------------------------------

#: 700 streams from three starts, one per stream: groups of 256, 256 and
#: 188 streams, the first two straddling a change of start.
THREE_STARTS = np.repeat([[0.2, 0.0], [0.5, 0.0], [0.3, -0.4]], [300, 250, 150], axis=0)


def assert_same_exits(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.exit_times, want.exit_times)


@pytest.mark.parametrize("workers", [0, -2, 1.5, "2"])
def test_config_rejects_workers_below_1(workers):
    with pytest.raises(ValueError, match=re.escape(f"workers must be >= 1, got {workers!r}")):
        BrownianConfig(workers=workers)


def test_worker_threads_are_bit_identical(monkeypatch):
    monkeypatch.setattr(brownian.os, "cpu_count", lambda: 8)
    cfg = BrownianConfig(dt=1e-2)
    want = simulate_exit_batch(BALL2, THREE_STARTS, cfg, 7, ids(700))
    for workers in (2, 3):
        got = simulate_exit_batch(BALL2, THREE_STARTS, replace(cfg, workers=workers), 7,
                                  ids(700))
        assert_same_exits(got, want)


@pytest.mark.parametrize("workers, groups, cpus, threads", [
    (64, 5, 3, 3),       # capped by the CPU count
    (2, 50, 8, 2),       # capped by the request
    (64, 2, 8, 2),       # capped by the group count
    (4, 1, 8, None),     # one group: no pool at all
    (4, 50, 1, None),    # one CPU: no pool at all
    (4, 50, None, None), # unknown CPU count counts as one
])
def test_thread_pool_is_clamped(monkeypatch, workers, groups, cpus, threads):
    seen = []
    real = brownian.ThreadPoolExecutor

    def recording(max_workers):
        seen.append(max_workers)
        return real(max_workers=min(max_workers, 3))

    # groups of 4 streams, the last one short
    monkeypatch.setattr(brownian, "_GROUP_STREAMS", 4)
    monkeypatch.setattr(brownian, "ThreadPoolExecutor", recording)
    monkeypatch.setattr(brownian.os, "cpu_count", lambda: cpus)
    cfg = BrownianConfig(dt=1e-2)
    got = simulate_exit_batch(BALL2, THETA2, replace(cfg, workers=workers), 3,
                              ids(4 * groups - 1))
    assert seen == ([] if threads is None else [threads])
    assert_same_exits(got, simulate_exit_batch(BALL2, THETA2, cfg, 3, ids(4 * groups - 1)))


def test_threaded_max_steps_names_the_serial_pending_walks(monkeypatch):
    # every group of 256, 256 and 1 streams reaches the cap, the lone
    # stream long before the others; both runs raise the first group's error
    monkeypatch.setattr(brownian.os, "cpu_count", lambda: 8)
    cap_steps(monkeypatch, 5000)
    m = 2 * brownian._GROUP_STREAMS + 1
    errors = []
    for workers in (1, 3):
        with pytest.raises(MaxStepsExceeded) as err:
            simulate_exit_batch(BALL2, THREE_STARTS[:m], BrownianConfig(dt=1e-6, workers=workers),
                                0, ids(m))
        errors.append(err.value)
    serial, threaded = errors
    assert np.array_equal(serial.stream_ids, ids(brownian._GROUP_STREAMS))
    assert np.array_equal(threaded.stream_ids, serial.stream_ids)
    assert np.array_equal(threaded.positions, serial.positions)
    assert threaded.steps == serial.steps == 5000
    assert str(threaded) == str(serial)


def test_default_step_cap_scales_with_diameter_and_dt():
    assert BrownianConfig(dt=1e-4).resolve_max_steps(BALL2) == 4_000_000
    box = BoxDomain((0.0, 0.0), (3.0, 4.0))
    assert BrownianConfig(dt=1e-2).resolve_max_steps(box) == 250_000
    # a cap beyond 2^62 steps names dt and the diameter instead of clipping
    with pytest.raises(ValueError, match=r"dt=4\.94066e-324 .* diameter 2: .* exceeds 2\^62"):
        BrownianConfig(dt=5e-324).resolve_max_steps(BALL2)
    with pytest.raises(ValueError, match=r"dt=0\.0001 .* diameter 2e\+200: .* = inf"):
        BrownianConfig().resolve_max_steps(Ball(np.zeros(2), 1e200))


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
