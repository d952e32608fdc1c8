"""Tests for the sampling driver, its sampler registry and the exit value type."""

import dataclasses
import re

import numpy as np
import pytest

from exitlaw import ball, brownian, driver, rng, wos
from exitlaw.brownian import BrownianConfig
from exitlaw.driver import ExactConfig
from exitlaw.exits import points_of
from exitlaw.geometry import Ball, BoxDomain
from exitlaw.wos import MaxHopsExceeded, WosConfig

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


@pytest.mark.parametrize("context", [np.uint32(7), np.int64(7), np.uint64(7)])
def test_numpy_integer_contexts_own_their_streams(context):
    # shifted in a numpy dtype, a uint32 7 << 32 would wrap to context 0
    assert np.array_equal(driver.stream_block(context, 3), driver.stream_block(7, 3))


@pytest.mark.parametrize("context", [7.0, np.float64(7.0), "7"])
def test_non_integer_contexts_are_refused(context):
    with pytest.raises(TypeError):
        driver.stream_block(context, 3)
    with pytest.raises(TypeError):
        driver.sample_exits(DISK, [[0.1, 0.0]], ExactConfig(), 2, seed=0, context=[context])


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
    assert names == {"brownian": {"dt"}, "wos": {"epsilon"}, "exact": set()}


def test_sampler_config_takes_each_method_its_own_knobs():
    knobs = dict(dt=1e-3, epsilon=1e-5, workers=2)
    assert driver.sampler_config("brownian", **knobs) == BrownianConfig(dt=1e-3)
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


# ---------------------------------------------------------------------------
# multi-start batches
# ---------------------------------------------------------------------------

#: Three starts per dimension on the unit ball, the last one off-axis.
STARTS = {
    2: [(0.2, 0.0), (0.5, 0.0), (0.3, -0.4)],
    3: [(0.2, 0.0, 0.0), (0.5, 0.0, 0.0), (0.3, -0.4, 0.1)],
    4: [(0.2, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.3, -0.4, 0.1, -0.2)],
}

#: Method -> (kernel, a config that runs it fast).
KERNELS = {
    "brownian": (brownian.simulate_exit_batch, BrownianConfig(dt=1e-2)),
    "wos": (wos.wos_exit_batch, WosConfig()),
    "exact": (ball.sample_exact_batch, ExactConfig()),
}


def assert_same_exits(got, want):
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.steps, want.steps)
    if want.exit_times is None:
        assert got.exit_times is None
    else:
        assert np.array_equal(got.exit_times, want.exit_times)


def rows_of(batch, lo, hi):
    times = batch.exit_times[lo:hi] if batch.exit_times is not None else None
    return type(batch)(batch.points[lo:hi], batch.steps[lo:hi], times)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("method", sorted(KERNELS))
def test_multi_start_kernel_batch_equals_single_start_calls(monkeypatch, method, d, order):
    # a (3, n) stream grid: the batch is byte-equal to three one-start
    # batches, also when lookahead windows of 7 values or fewer per round
    # cut the rounds differently, and to the (3n, 1) grid in which every
    # stream is its own start
    monkeypatch.setattr(rng, "WINDOW_VALUES", 7 * 3 * 30 * d)
    kernel, cfg = KERNELS[method]
    domain, n = Ball(np.zeros(d), 1.0), 30
    starts = np.array(STARTS[d], order=order)
    grid = np.stack([driver.stream_block(c, n) for c in (5, 0, 2)])
    batch = kernel(domain, starts, cfg, 3, grid)
    assert len(batch) == 3 * n
    for i, theta in enumerate(starts):
        one = kernel(domain, theta, cfg, 3, grid[i])
        assert_same_exits(rows_of(batch, i * n, (i + 1) * n), one)
    per_stream = kernel(domain, np.repeat(starts, n, axis=0), cfg, 3, grid.reshape(-1, 1))
    assert_same_exits(per_stream, batch)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", sorted(KERNELS))
def test_sample_exits_serves_k_starts_in_one_call(method, k, order):
    # k*n rows ordered by start; row block i is start i's one-start call
    sampler = KERNELS[method][1]
    domain, n, contexts = Ball(np.zeros(3), 1.0), 25, [4, 0, 9][:k]
    starts = np.array(STARTS[3][:k], order=order)
    batch = driver.sample_exits(domain, starts, sampler, n, seed=6, context=contexts)
    assert len(batch) == k * n
    for i, (theta, context) in enumerate(zip(starts, contexts)):
        one = driver.sample_exits(domain, theta, sampler, n, seed=6, context=context)
        assert_same_exits(rows_of(batch, i * n, (i + 1) * n), one)


@pytest.mark.parametrize("method", sorted(KERNELS))
def test_a_start_outside_the_domain_is_named(method):
    starts = np.array([[0.2, 0.0], [1.2, 0.0], [0.3, -0.4]])
    with pytest.raises(ValueError) as exc:
        driver.sample_exits(DISK, starts, KERNELS[method][1], 5, seed=0, context=[0, 1, 2])
    msg = str(exc.value)
    assert "\n" not in msg and "is not strictly inside the" in msg
    assert re.search(re.escape(str(starts[1])), msg), msg


def test_a_near_boundary_start_keeps_the_exact_refusal():
    starts = np.array([[0.2, 0.0], [1.0 - 1e-12, 0.0]])
    with pytest.raises(ValueError, match="walk-on-spheres") as exc:
        driver.sample_exits(DISK, starts, ExactConfig(), 5, seed=0, context=[0, 1])
    assert f"rho/r > {ball.MAX_RHO_FRACTION!r}" in str(exc.value)
    assert "\n" not in str(exc.value)


def test_starts_and_contexts_must_pair_up():
    starts = np.array(STARTS[2])
    for context in (0, [0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="need one context per start"):
            driver.sample_exits(DISK, starts, WosConfig(), 5, seed=0, context=context)
    with pytest.raises(ValueError, match="need one context per start"):
        driver.sample_exits(DISK, THETA, WosConfig(), 5, seed=0, context=[0])
    with pytest.raises(ValueError, match=r"must pair up.*starts of shape \(3, 2\) and ids "
                                         r"of shape \(4,\)"):
        wos.wos_exit_batch(DISK, starts, WosConfig(), 0, np.arange(4, dtype=np.uint64))


@pytest.mark.parametrize("method", sorted(KERNELS))
def test_repeated_contexts_and_no_starts_are_refused(method):
    # a repeated context would hand two starts the same streams
    sampler = KERNELS[method][1]
    for context in ([0, 0], [3, 3]):
        with pytest.raises(ValueError, match=r"contexts must be distinct") as exc:
            driver.sample_exits(DISK, np.array([[0.2, 0.0], [0.5, 0.0]]), sampler, 5, seed=0,
                                context=context)
        assert "\n" not in str(exc.value) and str(context) in str(exc.value)
    with pytest.raises(ValueError, match=r"need at least one start, got starts of shape "
                                         r"\(0, 2\)"):
        driver.sample_exits(DISK, np.zeros((0, 2)), sampler, 5, seed=0, context=[])


def test_max_hops_carries_pending_streams_and_positions_pair_by_pair(monkeypatch):
    # the compacted kernel drops absorbed walks; the pending ones keep
    # their ids and positions in step, whatever their start
    monkeypatch.setattr(wos, "MAX_HOPS", 3)
    cfg, n = WosConfig(epsilon=1e-2), 20
    starts = np.repeat(np.array(STARTS[2]), n, axis=0)
    ids = np.arange(3 * n, dtype=np.uint64)
    with pytest.raises(MaxHopsExceeded) as exc:
        wos.wos_exit_batch(DISK, starts, cfg, 1, ids.reshape(-1, 1))
    err = exc.value
    assert err.hops == 3
    assert 0 < err.stream_ids.size < 3 * n
    assert err.positions.shape == (err.stream_ids.size, 2)
    for sid, pos in zip(err.stream_ids.tolist(), err.positions):
        with pytest.raises(MaxHopsExceeded) as one:
            wos.wos_exit_batch(DISK, starts[sid], cfg, 1, [sid])
        assert one.value.stream_ids.tolist() == [sid]
        assert np.array_equal(one.value.positions[0], pos)


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
