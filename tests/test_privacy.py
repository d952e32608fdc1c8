"""Tests for the spatial-cloaking privacy analysis.

The sample-mean attack on exit points is an estimation problem with a
closed-form RMSE for ball regions, so most checks here compare measured
attack error against sqrt(trace / trips) using standard errors computed
from the replications themselves.  The closed-form sampler keeps the
larger grids cheap; one test cross-checks all three sampler tags.
"""

import dataclasses
import math

import numpy as np
import pytest

from exitlaw import driver, rng
from exitlaw.brownian import BrownianConfig
from exitlaw.driver import ExactConfig
from exitlaw.geometry import Ball, BoxDomain
from exitlaw.wos import WosConfig
from exitlaw.privacy import (
    CloakScenario,
    predicted_rmse,
    privacy_curve,
    run_attacks,
)

UNIT_DISK = Ball(np.zeros(2), 1.0)


def disk_scenario(house, trips, sampler=ExactConfig()):
    return CloakScenario(house=np.asarray(house, dtype=float),
                         privacy_region=UNIT_DISK, trips=trips, sampler=sampler)


def rms_with_se(reports):
    """Root-mean-square error over replications, with its standard error.

    The SE comes from the replications themselves: the squared errors are
    iid, so their mean has a textbook SE, and the square root maps it down
    by 1/(2*rms).
    """
    sq = np.array([rep.error ** 2 for rep in reports])
    m = sq.mean()
    se_m = sq.std(ddof=1) / math.sqrt(len(sq))
    rms = math.sqrt(m)
    return rms, se_m / (2.0 * rms)


# ---------------------------------------------------------------------------
# predicted RMSE: hand values
# ---------------------------------------------------------------------------


def test_predicted_rmse_hand_values():
    # house at the center of the unit disk: trace 1, so 100 trips -> 0.1
    assert predicted_rmse(disk_scenario([0.0, 0.0], 100)) == pytest.approx(0.1, rel=1e-15)
    # house at 0.8 from center: trace (1-0.8)(1+0.8) = 0.36, 100 trips -> 0.06
    assert predicted_rmse(disk_scenario([0.8, 0.0], 100)) == pytest.approx(0.06, rel=1e-14)
    # house at 0.5: trace 0.75, 50 trips -> sqrt(0.015)
    assert predicted_rmse(disk_scenario([0.5, 0.0], 50)) == pytest.approx(
        math.sqrt(0.75 / 50.0), rel=1e-15)


def test_predicted_rmse_none_for_box_regions():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    scn = CloakScenario(house=np.array([0.2, 0.3]), privacy_region=box,
                        trips=40, sampler=WosConfig())
    assert predicted_rmse(scn) is None


# ---------------------------------------------------------------------------
# validation and report structure
# ---------------------------------------------------------------------------


def test_scenario_rejects_house_on_or_outside_boundary():
    with pytest.raises(ValueError, match="strictly inside"):
        disk_scenario([1.0, 0.0], 10)
    with pytest.raises(ValueError, match="strictly inside"):
        disk_scenario([1.5, 0.0], 10)


def test_scenario_rejects_bad_trips_and_sampler():
    with pytest.raises(ValueError, match="trips"):
        disk_scenario([0.3, 0.0], 0)
    for sampler in ("teleport", "exact", None):
        with pytest.raises(ValueError, match="sampler must be a config of a method in"):
            disk_scenario([0.3, 0.0], 10, sampler=sampler)


def test_run_attacks_rejects_zero_replications():
    with pytest.raises(ValueError, match="replications"):
        run_attacks(disk_scenario([0.3, 0.0], 10), seed=0, replications=0)


def test_scenario_is_frozen_with_readonly_house():
    scn = disk_scenario([0.3, 0.0], 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.trips = 20
    with pytest.raises(ValueError):
        scn.house[0] = 0.9


def test_report_fields_are_consistent():
    scn = disk_scenario([0.5, 0.0], 64)
    rep, = run_attacks(scn, seed=3, replications=1)
    assert rep.estimate.shape == (2,)
    assert rep.error == pytest.approx(
        float(np.linalg.norm(rep.estimate - scn.house)), rel=1e-12)
    assert rep.predicted_rmse == predicted_rmse(scn)
    assert rep.ratio == rep.error / rep.predicted_rmse
    assert np.isfinite(rep.estimate).all() and math.isfinite(rep.error)


# ---------------------------------------------------------------------------
# replication layout and determinism
# ---------------------------------------------------------------------------


def test_first_replication_stable_as_count_grows():
    scn = disk_scenario([0.4, 0.1], 17)
    a = run_attacks(scn, seed=5, replications=2)
    b = run_attacks(scn, seed=5, replications=6)
    assert np.array_equal(a[0].estimate, b[0].estimate)
    assert a[0].error == b[0].error
    assert np.array_equal(a[1].estimate, b[1].estimate)


def test_workers_do_not_change_reports(monkeypatch):
    # the command line's --workers reaches sampler_config, which drops it,
    # and lookahead windows of one round move no bit either
    house = [0.2, -0.3]
    a = run_attacks(disk_scenario(house, 23, BrownianConfig(dt=1e-2)), seed=1, replications=40)
    monkeypatch.setattr(rng, "WINDOW_VALUES", 1)
    b = run_attacks(disk_scenario(house, 23, driver.sampler_config("brownian", dt=1e-2,
                                                                   workers=4)),
                    seed=1, replications=40)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.estimate, rb.estimate)
        assert ra.error == rb.error


def test_seed_and_context_move_the_draws():
    scn = disk_scenario([0.2, -0.3], 23)
    base, = run_attacks(scn, seed=1, replications=1)
    other_seed, = run_attacks(scn, seed=2, replications=1)
    other_context, = run_attacks(scn, seed=1, replications=1, context=1)
    assert not np.array_equal(base.estimate, other_seed.estimate)
    assert not np.array_equal(base.estimate, other_context.estimate)
    again, = run_attacks(scn, seed=1, replications=1)
    assert np.array_equal(base.estimate, again.estimate)


# ---------------------------------------------------------------------------
# the attack obeys the closed-form error law
# ---------------------------------------------------------------------------


def test_rms_error_matches_prediction_at_half_radius():
    scn = disk_scenario([0.5, 0.0], 50)
    reports = run_attacks(scn, seed=0, replications=500)
    rms, se = rms_with_se(reports)
    assert abs(rms - math.sqrt(0.75 / 50.0)) <= 4.0 * se


def test_attack_is_unbiased_per_coordinate():
    scn = disk_scenario([0.5, 0.2], 20)
    reports = run_attacks(scn, seed=11, replications=600)
    estimates = np.array([rep.estimate for rep in reports])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(len(reports))
    assert (np.abs(mean - scn.house) <= 4.0 * se).all()


def test_rmse_law_across_offset_and_trips_grid():
    cell = 0
    for rho in (0.1, 0.5, 0.9):
        for trips in (10, 50, 200):
            scn = disk_scenario([rho, 0.0], trips)
            reports = run_attacks(scn, seed=0, replications=500, context=cell)
            cell += 1
            rms, se = rms_with_se(reports)
            pred = reports[0].predicted_rmse
            assert abs(rms - pred) <= 4.0 * se, (rho, trips, rms, pred, se)


# ---------------------------------------------------------------------------
# the privacy curve
# ---------------------------------------------------------------------------


def test_privacy_curve_tracks_prediction_and_decreases():
    scn = disk_scenario([0.5, 0.0], 10)
    points = privacy_curve(scn, trips_grid=(10, 40, 160), replications=500, seed=0)
    assert [p.trips for p in points] == [10, 40, 160]
    for p in points:
        assert 0.8 < p.ratio < 1.2
        assert p.ratio == p.empirical_rmse / p.predicted_rmse
    # error shrinks as the observer collects more trips
    assert points[0].empirical_rmse > points[1].empirical_rmse > points[2].empirical_rmse
    # quadrupling the trips halves the prediction
    assert points[0].predicted_rmse == pytest.approx(2.0 * points[1].predicted_rmse, rel=1e-12)


def test_house_near_boundary_means_worse_privacy():
    preds = [predicted_rmse(disk_scenario([rho, 0.0], 100)) for rho in (0.1, 0.5, 0.9)]
    assert preds[0] > preds[1] > preds[2]
    assert preds[0] == pytest.approx(math.sqrt(0.99 / 100.0), rel=1e-14)
    assert preds[2] == pytest.approx(math.sqrt(0.19 / 100.0), rel=1e-13)


# ---------------------------------------------------------------------------
# sampler independence and non-ball regions
# ---------------------------------------------------------------------------


def test_sampler_tags_are_statistically_indistinguishable():
    # All three samplers draw the same exit law, so their attack errors
    # must agree with the prediction and with each other.
    stats = {}
    for sampler, cfg in (("exact", ExactConfig()), ("wos", WosConfig()),
                         ("brownian", BrownianConfig(dt=1e-3))):
        scn = disk_scenario([0.5, 0.0], 25, sampler=cfg)
        reports = run_attacks(scn, seed=4, replications=200)
        rms, se = rms_with_se(reports)
        assert 0.8 < rms / reports[0].predicted_rmse < 1.2, sampler
        stats[sampler] = (rms, se)
    pairs = [("exact", "wos"), ("exact", "brownian"), ("wos", "brownian")]
    for a, b in pairs:
        (ra, sa), (rb, sb) = stats[a], stats[b]
        assert abs(ra - rb) <= 4.0 * math.hypot(sa, sb), (a, b, ra, rb)


def test_privacy_curve_checks_every_cell_before_sampling(monkeypatch):
    calls = []
    real = driver.sample_exits
    monkeypatch.setattr(driver, "sample_exits",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    with pytest.raises(ValueError, match="trips must be >= 1, got 0"):
        privacy_curve(disk_scenario([0.5, 0.0], 10), trips_grid=(10, 0), replications=1, seed=0)
    assert calls == []


def test_privacy_curve_cells_keep_the_scenario_sampler():
    # cell g is the scenario at that trip count, sampled by the same
    # config (not a default one) on stream context g
    scn = disk_scenario([0.5, 0.0], 10, sampler=WosConfig(epsilon=1e-4))
    points = privacy_curve(scn, trips_grid=(7, 12), replications=4, seed=3)
    for g, trips in enumerate((7, 12)):
        cell = dataclasses.replace(scn, trips=trips)
        reports = run_attacks(cell, seed=3, replications=4, context=g)
        rms = math.sqrt(float(np.mean([rep.error ** 2 for rep in reports])))
        assert points[g].empirical_rmse == rms


def test_box_region_reports_error_without_prediction():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    scn = CloakScenario(house=np.array([0.2, 0.3]), privacy_region=box,
                        trips=50, sampler=WosConfig())
    rep, = run_attacks(scn, seed=2, replications=1)
    assert rep.predicted_rmse is None and rep.ratio is None
    assert math.isfinite(rep.error) and rep.error > 0.0
    points = privacy_curve(scn, trips_grid=(10, 40), replications=30, seed=2)
    assert all(p.predicted_rmse is None and p.ratio is None for p in points)
    assert all(math.isfinite(p.empirical_rmse) for p in points)


def test_closed_form_sampler_requires_ball_region():
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    scn = CloakScenario(house=np.array([0.2, 0.3]), privacy_region=box,
                        trips=10, sampler=ExactConfig())
    with pytest.raises(ValueError):
        run_attacks(scn, seed=0, replications=1)
