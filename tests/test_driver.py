"""Tests for the sampling driver and the exit value types."""

import numpy as np
import pytest

from exitlaw import driver
from exitlaw.brownian import BrownianConfig
from exitlaw.exits import ExitBatch, ExitSample, points_of
from exitlaw.geometry import Ball, BoxDomain

DISK = Ball(np.zeros(2), 1.0)
THETA = np.array([0.3, 0.1])


# ---------------------------------------------------------------------------
# stream allocation
# ---------------------------------------------------------------------------


def test_stream_block_layout():
    assert np.array_equal(driver.stream_block(0, 5), np.arange(5, dtype=np.uint64))
    blk = driver.stream_block(3, 4)
    assert blk.dtype == np.uint64
    assert np.array_equal(blk, (3 << 32) + np.arange(4, dtype=np.uint64))


def test_stream_blocks_of_distinct_contexts_are_disjoint():
    a = driver.stream_block(0, 1000)
    b = driver.stream_block(1, 1000)
    assert not np.intersect1d(a, b).size


@pytest.mark.parametrize("context, n", [(-1, 10), (1 << 32, 10), (0, 1 << 32)])
def test_stream_block_range_validation(context, n):
    with pytest.raises(ValueError):
        driver.stream_block(context, n)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_sample_exits_validates_method_and_n():
    with pytest.raises(ValueError, match="method"):
        driver.sample_exits(DISK, THETA, "teleport", 10, seed=0)
    with pytest.raises(ValueError, match="n >= 1"):
        driver.sample_exits(DISK, THETA, "wos", 0, seed=0)


def test_exact_method_rejects_non_ball_domains():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="balls only"):
        driver.sample_exits(box, np.array([0.1, 0.2]), "exact", 10, seed=0)


def test_dispatch_tags_and_clock_presence():
    for method in driver.METHODS:
        cfg = BrownianConfig(dt=1e-3) if method == "brownian" else None
        batch = driver.sample_exits(DISK, THETA, method, 8, seed=0,
                                    brownian_cfg=cfg)
        assert batch.method == method
        assert len(batch) == 8 and batch.dimension == 2
        if method == "brownian":
            assert batch.exit_times is not None and batch.exit_times.shape == (8,)
        else:
            assert batch.exit_times is None


def test_context_moves_streams_seed_held_fixed():
    a = driver.sample_exits(DISK, THETA, "wos", 32, seed=4, context=0)
    b = driver.sample_exits(DISK, THETA, "wos", 32, seed=4, context=1)
    c = driver.sample_exits(DISK, THETA, "wos", 32, seed=4, context=0)
    assert not np.array_equal(a.points, b.points)
    assert np.array_equal(a.points, c.points)


def test_worker_chunking_reassembles_identically():
    lone = driver.sample_exits(DISK, THETA, "wos", 50, seed=2, workers=1)
    pool = driver.sample_exits(DISK, THETA, "wos", 50, seed=2, workers=7)
    assert np.array_equal(lone.points, pool.points)
    assert np.array_equal(lone.steps, pool.steps)
    timed = driver.sample_exits(DISK, THETA, "brownian", 20, seed=2, workers=3,
                                brownian_cfg=BrownianConfig(dt=1e-3))
    timed1 = driver.sample_exits(DISK, THETA, "brownian", 20, seed=2, workers=1,
                                 brownian_cfg=BrownianConfig(dt=1e-3))
    assert np.array_equal(timed.exit_times, timed1.exit_times)


@pytest.mark.parametrize("workers, n, cpus, threads", [
    (64, 5, 3, 3),       # capped by the CPU count
    (2, 50, 8, 2),       # capped by the request
    (64, 2, 8, 2),       # capped by the sample count
    (4, 50, 1, None),    # one CPU: no pool at all
    (4, 50, None, None), # unknown CPU count counts as one
])
def test_thread_pool_is_clamped(monkeypatch, workers, n, cpus, threads):
    seen = []
    real = driver.ThreadPoolExecutor

    def recording(max_workers):
        seen.append(max_workers)
        return real(max_workers=min(max_workers, 3))

    monkeypatch.setattr(driver, "ThreadPoolExecutor", recording)
    monkeypatch.setattr(driver.os, "cpu_count", lambda: cpus)
    got = driver.sample_exits(DISK, THETA, "exact", n, seed=2, workers=workers)
    assert seen == ([] if threads is None else [threads])
    want = driver.sample_exits(DISK, THETA, "exact", n, seed=2)
    assert np.array_equal(got.points, want.points)


# ---------------------------------------------------------------------------
# exit value types
# ---------------------------------------------------------------------------


def test_exit_sample_validation():
    p = np.array([1.0, 0.0])
    ExitSample(p, 3, "brownian", exit_time=0.25)
    ExitSample(p, 3, "wos")
    ExitSample(p, 0, "exact")
    with pytest.raises(ValueError, match="method tag"):
        ExitSample(p, 3, "levy")
    with pytest.raises(ValueError, match="exit_time"):
        ExitSample(p, 3, "brownian")
    with pytest.raises(ValueError, match="exit_time"):
        ExitSample(p, 3, "brownian", exit_time=float("nan"))
    with pytest.raises(ValueError, match="undefined"):
        ExitSample(p, 3, "wos", exit_time=0.25)
    with pytest.raises(ValueError, match="steps"):
        ExitSample(p, -1, "exact")


def test_exit_batch_times_iff_brownian():
    pts = np.zeros((4, 2))
    steps = np.ones(4, dtype=np.int64)
    times = np.full(4, 0.5)
    ExitBatch(pts, steps, "brownian", times)
    ExitBatch(pts, steps, "exact")
    with pytest.raises(ValueError, match="exit_times"):
        ExitBatch(pts, steps, "brownian")
    with pytest.raises(ValueError, match="exit_times"):
        ExitBatch(pts, steps, "wos", times)
    with pytest.raises(ValueError, match="method tag"):
        ExitBatch(pts, steps, "levy")


def test_exit_batch_indexing_and_iteration():
    batch = driver.sample_exits(DISK, THETA, "brownian", 5, seed=1,
                                brownian_cfg=BrownianConfig(dt=1e-3))
    one = batch[2]
    assert isinstance(one, ExitSample)
    assert np.array_equal(one.exit_point, batch.points[2])
    assert one.steps == int(batch.steps[2])
    assert one.exit_time == float(batch.exit_times[2])
    # indexing hands out copies, not views into the batch
    one.exit_point[0] = 99.0
    assert batch.points[2, 0] != 99.0
    samples = list(batch)
    assert len(samples) == 5
    assert all(s.method == "brownian" for s in samples)


def test_points_of_accepts_batch_array_and_samples():
    batch = driver.sample_exits(DISK, THETA, "exact", 6, seed=0)
    assert points_of(batch) is batch.points
    arr = np.zeros((3, 2))
    assert points_of(arr) is arr
    stacked = points_of(list(batch))
    assert np.array_equal(stacked, batch.points)


def test_points_of_rejects_bad_input():
    with pytest.raises(ValueError, match="shape"):
        points_of(np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        points_of([])
    mixed = [ExitSample(np.array([1.0, 0.0]), 1, "exact"),
             ExitSample(np.array([1.0, 0.0, 0.0]), 1, "exact")]
    with pytest.raises(ValueError, match="mixed dimensions"):
        points_of(mixed)
