"""Tests for summaries and the comparison table."""

import numpy as np
import pytest

from exitlaw import Ball, BoxDomain, BrownianConfig, ExactConfig, WosConfig
from exitlaw.ball import sample_exact_batch
from exitlaw.exits import ExitBatch
from exitlaw.stats import (TABLE1_SETTINGS, SummaryStats, compare, reproduce_table1,
                           summarize)


def test_two_point_hand_example():
    sm = summarize(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.array_equal(sm.mean, [0.0, 0.0])
    assert sm.trace == pytest.approx(2.0)          # (n-1) divisor
    assert sm.mean_se[0] == pytest.approx(1.0)     # sd 1.41.. / sqrt(2)
    assert sm.n == 2


def test_trace_is_sum_of_unbiased_variances():
    pts = np.random.default_rng(1).normal(size=(257, 3))
    sm = summarize(pts)
    assert sm.trace == pytest.approx(pts.var(axis=0, ddof=1).sum(), rel=1e-12)
    assert np.allclose(sm.mean_se, pts.std(axis=0, ddof=1) / np.sqrt(257), rtol=1e-12)


def test_trace_se_matches_direct_delta_formula():
    pts = np.random.default_rng(2).normal(size=(1000, 2))
    sm = summarize(pts)
    w = np.einsum("ij,ij->i", pts - pts.mean(axis=0), pts - pts.mean(axis=0))
    direct = (1000 / 999) * w.std(ddof=1) / np.sqrt(1000)
    assert sm.trace_se == pytest.approx(direct, rel=1e-10)


def test_trace_se_does_not_depend_on_where_the_ball_sits():
    # the same exit points, centred at the origin and shifted to (1e7, 0)
    pts = sample_exact_batch(Ball(np.zeros(2), 1.0), np.array([0.5, 0.0]), ExactConfig(),
                             1, np.arange(4000, dtype=np.uint64)).points
    near = summarize(pts)
    far = summarize(pts + np.array([1e7, 0.0]))
    assert far.trace_se == pytest.approx(near.trace_se, rel=1e-6)
    assert far.trace == pytest.approx(near.trace, rel=1e-6)


@pytest.mark.parametrize("power", [-500, -250, 250, 500])
def test_summary_scales_by_powers_of_two_exactly(power):
    # |Y - mean|^4 would pass float64 (or underflow) at these scales; the
    # summary of 2^k Y is 2^k times that of Y in every bit
    pts = np.random.default_rng(4).normal(size=(500, 3))
    unit, scaled = summarize(pts), summarize(np.ldexp(pts, power))
    assert np.array_equal(scaled.mean, np.ldexp(unit.mean, power))
    assert np.array_equal(scaled.mean_se, np.ldexp(unit.mean_se, power))
    assert scaled.trace == np.ldexp(unit.trace, 2 * power)
    assert scaled.trace_se == np.ldexp(unit.trace_se, 2 * power)


def test_summarize_input_forms():
    batch = sample_exact_batch(Ball(np.zeros(2), 1.0), np.array([0.3, 0.0]), ExactConfig(),
                               0, np.arange(50, dtype=np.uint64))
    from_batch = summarize(batch)
    from_array = summarize(batch.points)
    assert np.array_equal(from_batch.mean, from_array.mean)
    assert from_batch.trace == from_array.trace


def test_summarize_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize(np.empty((0, 2)))
    with pytest.raises(ValueError):
        summarize([])


def test_single_point_summary_is_degenerate_not_crashing():
    sm = summarize(np.array([[0.3, 0.4]]))
    assert sm.n == 1
    assert np.array_equal(sm.mean, [0.3, 0.4])
    assert np.isnan(sm.trace) and np.isnan(sm.trace_se)
    assert np.isnan(sm.mean_se).all()
    row = compare(sm, Ball(np.zeros(2), 1.0), (0.3, 0.4))
    assert not row.passed
    assert not np.isfinite(row.z_trace)


def test_identical_points_fail_with_degenerate_errors_not_crashing():
    # a shell wider than the start's distance absorbs every walk at its
    # start: all points coincide, so both standard errors are 0
    sm = summarize(np.tile([1.0, 0.0], (10, 1)))
    assert sm.trace == 0.0 and sm.trace_se == 0.0
    row = compare(sm, Ball(np.zeros(2), 1.0), (0.5, 0.0))
    assert not row.passed
    assert row.z_trace == -np.inf


def test_compare_perfect_agreement_passes():
    b = Ball(np.zeros(2), 1.0)
    sm = SummaryStats(n=100, mean=np.array([0.5, 0.0]), trace=0.75,
                      mean_se=np.array([0.01, 0.01]), trace_se=0.01)
    row = compare(sm, b, (0.5, 0.0), sampler=ExactConfig())
    assert row.passed
    assert row.z_mean == (0.0, 0.0)
    assert row.z_trace == 0.0
    assert row.trace_theory == pytest.approx(0.75)


def test_compare_corrupted_mean_fails():
    b = Ball(np.zeros(2), 1.0)
    batch = sample_exact_batch(b, np.array([0.5, 0.0]), ExactConfig(), 1,
                               np.arange(10_000, dtype=np.uint64))
    shifted = ExitBatch(batch.points + np.array([1.0, 0.0]), batch.steps)
    # theta=(0.5,0) is ~115 SEs away from the shifted cloud's mean
    row = compare(summarize(shifted), b, (0.5, 0.0))
    assert not row.passed
    assert abs(row.z_mean[0]) > 50


def test_compare_box_has_no_trace_column():
    box = BoxDomain((0.0, 0.0), (2.0, 1.0))
    sm = SummaryStats(n=100, mean=np.array([0.4, 0.3]), trace=0.5,
                      mean_se=np.array([0.01, 0.01]), trace_se=0.01)
    row = compare(sm, box, (0.4, 0.3))
    assert row.trace_theory is None and row.z_trace is None
    assert row.passed


def test_compare_dimension_mismatch():
    sm = SummaryStats(n=10, mean=np.zeros(3), trace=1.0,
                      mean_se=np.ones(3), trace_se=1.0)
    with pytest.raises(ValueError):
        compare(sm, Ball(np.zeros(2), 1.0), (0.0, 0.0))


def test_compare_cells_come_from_the_sampler_config():
    b = Ball(np.zeros(2), 3.0)
    sm = SummaryStats(n=100, mean=np.array([0.5, 0.0]), trace=8.75,
                      mean_se=np.array([0.01, 0.01]), trace_se=0.01)
    cells = [(row.method, row.dt, row.epsilon) for row in (
        compare(sm, b, (0.5, 0.0), sampler=BrownianConfig(dt=1e-3)),
        compare(sm, b, (0.5, 0.0), sampler=WosConfig()),
        compare(sm, b, (0.5, 0.0), sampler=WosConfig(epsilon=1e-4)),
        compare(sm, b, (0.5, 0.0), sampler=ExactConfig()),
        compare(sm, b, (0.5, 0.0)))]
    # the wos default shell resolves to 1e-6 of the diameter
    assert cells == [("brownian", 1e-3, None), ("wos", None, 6e-6), ("wos", None, 1e-4),
                     ("exact", None, None), ("", None, None)]


@pytest.mark.parametrize("sampler", ["exact", None, ExactConfig])
def test_table_config_rejects_unknown_sampler(sampler):
    # the table's sampler argument must be a config; sample_exits refuses the rest
    with pytest.raises(ValueError, match="sampler must be a config of a method in"):
        reproduce_table1(sampler, 10, seed=0)


def test_table_settings_and_theory_column():
    assert TABLE1_SETTINGS == ((2, 0.2), (2, 0.5), (2, 0.8),
                               (3, 0.2), (3, 0.5), (3, 0.8),
                               (4, 0.2), (4, 0.5), (4, 0.8))
    rows = reproduce_table1(ExactConfig(), 64, seed=0)
    theory = [row.trace_theory for row in rows]
    assert theory == pytest.approx([0.96, 0.75, 0.36] * 3, abs=1e-15)
    assert [row.d for row in rows] == [2, 2, 2, 3, 3, 3, 4, 4, 4]


def test_table_passes_on_all_methods():
    for sampler in (ExactConfig(), WosConfig()):
        rows = reproduce_table1(sampler, 400, seed=0)
        assert all(row.passed for row in rows), sampler
    rows = reproduce_table1(BrownianConfig(dt=1e-3), 200, seed=0)
    assert all(row.passed for row in rows)


def test_table_n1_is_degenerate_not_crashing():
    rows = reproduce_table1(ExactConfig(), 1, seed=0)
    assert len(rows) == 9
    assert all(not row.passed for row in rows)
    assert not any(np.isfinite(row.z_trace) for row in rows)


def test_table_workers_do_not_change_rows():
    # 3 x 300 walks per dimension: four brownian stream groups
    a = reproduce_table1(BrownianConfig(dt=1e-2), 300, seed=2)
    b = reproduce_table1(BrownianConfig(dt=1e-2, workers=4), 300, seed=2)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.summary.mean, rb.summary.mean)
        assert ra.summary.trace == rb.summary.trace
        assert ra.z_trace == rb.z_trace


def test_pass_rate_calibration_over_100_seeds():
    # z <= 4 must almost never false-alarm: >= 99 of 100 seeds all-PASS.
    # Deterministic outcome at the default n: 99/100.  The lone failure
    # (seed 16, d=3 rho=0.2) is a single event seen twice: the sample mean
    # drifts toward the center (z_mean = -3.4), and because every exit point
    # sits on the sphere, sd(||Y - m||^2) scales with ||m||, so that same
    # drift halves the estimated trace SE and pushes z_trace to 5.5.  The
    # SE formula itself is exercised separately above.
    passes = sum(
        all(row.passed for row in reproduce_table1(ExactConfig(), 500, seed=s))
        for s in range(100)
    )
    assert passes >= 99
