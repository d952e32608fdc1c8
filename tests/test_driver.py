"""Tests for the sampling driver, its sampler registry and the exit value type."""

import dataclasses

import numpy as np
import pytest

from exitlaw import driver
from exitlaw.brownian import BrownianConfig
from exitlaw.driver import ExactConfig
from exitlaw.exits import points_of
from exitlaw.geometry import Ball, BoxDomain
from exitlaw.wos import WosConfig

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
    # a method name, a missing config or any other object is not a config
    for not_a_config in ("teleport", "wos", None, WosConfig):
        with pytest.raises(ValueError, match=r"sampler must be a config of a method in "
                                             r"\('brownian', 'wos', 'exact'\)"):
            driver.sample_exits(DISK, THETA, not_a_config, 10, seed=0)
    with pytest.raises(ValueError, match="n >= 1"):
        driver.sample_exits(DISK, THETA, WosConfig(), 0, seed=0)


@pytest.mark.parametrize("workers", [0, -2])
def test_sample_exits_rejects_workers_below_1(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        driver.sample_exits(DISK, THETA, ExactConfig(), 10, seed=0, workers=workers)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_raises(seed):
    # Philox would key on the seed modulo 2^64 and alias a seed in range
    for sampler in (BrownianConfig(dt=1e-3), WosConfig(), ExactConfig()):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            driver.sample_exits(DISK, THETA, sampler, 4, seed=seed)


def test_largest_seed_runs_and_differs_from_seed_0():
    top = driver.sample_exits(DISK, THETA, ExactConfig(), 5, seed=2 ** 64 - 1)
    zero = driver.sample_exits(DISK, THETA, ExactConfig(), 5, seed=0)
    assert np.isfinite(top.points).all()
    assert not np.array_equal(top.points, zero.points)


def test_exact_method_rejects_non_ball_domains():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="balls only"):
        driver.sample_exits(box, np.array([0.1, 0.2]), ExactConfig(), 10, seed=0)


def test_registry_maps_each_method_to_one_config_type():
    assert driver.METHODS == ("brownian", "wos", "exact")
    assert [driver.method_of(cls()) for cls in driver.SAMPLERS.values()] == list(driver.METHODS)
    assert ExactConfig() == ExactConfig()
    # each config type holds only the knobs a user sets
    names = {m: {f.name for f in dataclasses.fields(cls)} for m, cls in driver.SAMPLERS.items()}
    assert names == {"brownian": {"dt", "exit_rule"}, "wos": {"epsilon"},
                     "exact": set()}


def test_sampler_config_takes_each_method_its_own_knobs():
    knobs = dict(dt=1e-3, exit_rule="first-outside", epsilon=1e-5)
    assert driver.sampler_config("brownian", **knobs) == BrownianConfig(
        dt=1e-3, exit_rule="first-outside")
    assert driver.sampler_config("wos", **knobs) == WosConfig(epsilon=1e-5)
    assert driver.sampler_config("exact", **knobs) == ExactConfig()
    assert driver.sampler_config("wos") == WosConfig()
    with pytest.raises(ValueError, match=r"method must be one of \('brownian', 'wos', 'exact'\)"):
        driver.sampler_config("teleport")
    with pytest.raises(ValueError, match="epsilon"):
        driver.sampler_config("wos", epsilon=-1.0)


def test_dispatch_tags_and_clock_presence():
    for method in driver.METHODS:
        batch = driver.sample_exits(DISK, THETA, driver.sampler_config(method, dt=1e-3),
                                    8, seed=0)
        assert len(batch) == 8 and batch.dimension == 2
        if method == "brownian":
            assert batch.exit_times is not None and batch.exit_times.shape == (8,)
        else:
            assert batch.exit_times is None


def test_context_moves_streams_seed_held_fixed():
    a = driver.sample_exits(DISK, THETA, WosConfig(), 32, seed=4, context=0)
    b = driver.sample_exits(DISK, THETA, WosConfig(), 32, seed=4, context=1)
    c = driver.sample_exits(DISK, THETA, WosConfig(), 32, seed=4, context=0)
    assert not np.array_equal(a.points, b.points)
    assert np.array_equal(a.points, c.points)


def test_worker_chunking_reassembles_identically():
    lone = driver.sample_exits(DISK, THETA, WosConfig(), 50, seed=2, workers=1)
    pool = driver.sample_exits(DISK, THETA, WosConfig(), 50, seed=2, workers=7)
    assert np.array_equal(lone.points, pool.points)
    assert np.array_equal(lone.steps, pool.steps)
    timed = driver.sample_exits(DISK, THETA, BrownianConfig(dt=1e-3), 20, seed=2, workers=3)
    timed1 = driver.sample_exits(DISK, THETA, BrownianConfig(dt=1e-3), 20, seed=2, workers=1)
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
    got = driver.sample_exits(DISK, THETA, ExactConfig(), n, seed=2, workers=workers)
    assert seen == ([] if threads is None else [threads])
    want = driver.sample_exits(DISK, THETA, ExactConfig(), n, seed=2)
    assert np.array_equal(got.points, want.points)


# ---------------------------------------------------------------------------
# exit value type
# ---------------------------------------------------------------------------


def test_points_of_accepts_batch_array_and_samples():
    batch = driver.sample_exits(DISK, THETA, ExactConfig(), 6, seed=0)
    assert points_of(batch) is batch.points
    arr = np.zeros((3, 2))
    assert points_of(arr) is arr


def test_points_of_rejects_bad_input():
    with pytest.raises(ValueError, match="shape"):
        points_of(np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        points_of([])
