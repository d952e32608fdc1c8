"""Location privacy under spatial cloaking, as an estimation problem.

A user's trips start at a hidden house location inside a privacy
region; an observer sees only where each trip crosses the region's
boundary. Exit points are unbiased for the start, so the observer's
best simple attack is their sample mean, and for ball regions the
root-mean-square error of that attack has the closed form
sqrt((r^2 - |house-c|^2) / trips): privacy degrades as 1/sqrt(trips)
and collapses as the house approaches the boundary.

The module mounts exactly that attack and compares its measured error
against the prediction. Box regions are supported for the attack itself
(the mean is still unbiased) but have no closed-form RMSE, so their
reports carry no prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import driver
from .ball import theoretical_trace
from .brownian import BrownianConfig
from .geometry import Ball, Domain


@dataclass(frozen=True)
class CloakScenario:
    """A hidden house in a privacy region, observed over some trips.

    Trips are memoryless, always start at the house, and are reduced to
    their boundary exit points immediately — the exit points are all
    the observer gets. ``sampler`` is the config of the exit sampler
    that generates them (all three draw the same law).
    """

    house: np.ndarray
    privacy_region: Domain
    trips: int
    sampler: driver.Sampler = BrownianConfig()

    def __post_init__(self):
        house = self.privacy_region.interior_point(self.house, "house")
        if self.trips < 1:
            raise ValueError(f"trips must be >= 1, got {self.trips}")
        driver.method_of(self.sampler)  # a ValueError unless a sampler config
        house.flags.writeable = False
        object.__setattr__(self, "house", house)


@dataclass(frozen=True)
class PrivacyReport:
    """Outcome of one sample-mean attack.

    ``predicted_rmse`` is the closed-form root-mean-square error for
    ball regions and None for regions without one; ``ratio`` is
    error / predicted_rmse where a prediction exists.
    """

    estimate: np.ndarray
    error: float
    predicted_rmse: float | None
    ratio: float | None


def predicted_rmse(scenario: CloakScenario) -> float | None:
    """sqrt(trace / trips) for ball regions, None otherwise."""
    if not isinstance(scenario.privacy_region, Ball):
        return None
    return math.sqrt(theoretical_trace(scenario.privacy_region, scenario.house)
                     / scenario.trips)


def run_attacks(scenario: CloakScenario, seed: int, replications: int,
                context: int = 0) -> list[PrivacyReport]:
    """Mount ``replications`` independent sample-mean attacks.

    Replication j consumes streams [j*trips, (j+1)*trips) of the given
    context, so reports are independent across replications and
    reproducible individually.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    batch = driver.sample_exits(scenario.privacy_region, scenario.house, scenario.sampler,
                                replications * scenario.trips, seed, context=context)
    pts = batch.points.reshape(replications, scenario.trips, -1)
    estimates = pts.mean(axis=1)
    diffs = estimates - scenario.house
    errors = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    pred = predicted_rmse(scenario)
    return [
        PrivacyReport(
            estimate=estimates[j],
            error=float(errors[j]),
            predicted_rmse=pred,
            ratio=float(errors[j] / pred) if pred is not None else None,
        )
        for j in range(replications)
    ]


@dataclass(frozen=True)
class PrivacyCurvePoint:
    """One grid row: measured vs predicted attack RMSE at a trip count."""

    trips: int
    empirical_rmse: float
    predicted_rmse: float | None
    ratio: float | None


def privacy_curve(scenario: CloakScenario, trips_grid, replications: int,
                  seed: int) -> list[PrivacyCurvePoint]:
    """Attack RMSE over a grid of trip counts, each over many replications.

    Grid cell g uses stream context g, so cells are independent. Every
    cell is checked before any is sampled.
    """
    cells = [replace(scenario, trips=int(trips)) for trips in trips_grid]
    points = []
    for g, cell in enumerate(cells):
        reports = run_attacks(cell, seed, replications, context=g)
        emp = math.sqrt(float(np.mean([rep.error ** 2 for rep in reports])))
        pred = reports[0].predicted_rmse
        points.append(PrivacyCurvePoint(
            trips=cell.trips,
            empirical_rmse=emp,
            predicted_rmse=pred,
            ratio=emp / pred if pred is not None else None,
        ))
    return points
