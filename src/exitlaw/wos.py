"""Walk on spheres: a timestep-free sampler of the exit distribution.

From the current interior point, jump to a uniform point on the sphere
of radius ``step_fraction * dist(Y, boundary)``; repeat until within the
absorption shell (distance < epsilon), then project onto the boundary.
Works on any supported domain. The half-distance default is the
conservative construction; ``step_fraction=1.0`` (the largest inscribed
sphere) samples the same boundary law in fewer hops and is available as
a config knob.

The projection at absorption displaces the exit point by less than
epsilon, which at the default (1e-6 of the domain diameter) is far
below statistical noise at any sample size used here. A walk still
outside the shell after ``MAX_HOPS`` hops raises MaxHopsExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .exits import ExitBatch
from .geometry import Domain

#: Most hops one walk may take.
MAX_HOPS = 1_000_000


@dataclass(frozen=True)
class WosConfig:
    """Absorption shell width and hop radius fraction.

    ``epsilon=None`` resolves to 1e-6 times the domain diameter at run
    time — relative, so the sampler's accuracy is scale invariant.
    """

    epsilon: float | None = None
    step_fraction: float = 0.5

    def __post_init__(self):
        if self.epsilon is not None and not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.step_fraction <= 1.0):
            raise ValueError(f"step_fraction must be in (0, 1], got {self.step_fraction}")

    def resolve_epsilon(self, domain: Domain) -> float:
        return self.epsilon if self.epsilon is not None else 1e-6 * domain.diameter()


class MaxHopsExceeded(RuntimeError):
    """Raised when a walk is still outside the shell after MAX_HOPS hops."""

    def __init__(self, hops: int, stream_ids, positions):
        self.hops = hops
        self.stream_ids = np.asarray(stream_ids)
        self.positions = np.asarray(positions)
        super().__init__(
            f"{self.stream_ids.size} walk(s) not absorbed after {hops} hops "
            f"(epsilon too small?)")


def wos_exit_batch(domain: Domain, theta, cfg: WosConfig, seed: int,
                   stream_ids) -> ExitBatch:
    """Walk-on-spheres exits for one stream per row of ``stream_ids``.

    Hop h of a stream reads its direction from Gaussian words
    [h*d, (h+1)*d) of it.
    """
    theta = domain.interior_point(theta)
    eps = cfg.resolve_epsilon(domain)
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], domain.dimension

    points = np.empty((m, d))
    hops = np.zeros(m, dtype=np.int64)
    Y = np.tile(theta, (m, 1))
    alive = np.arange(m)
    hop = 0
    # Directions of hops [first, first + K) for the streams alive at
    # `first`, one request per window; `rows` maps alive -> window rows.
    dirs, rows, first = np.empty((m, 0, d)), np.arange(m), 0

    while alive.size:
        dist = domain.distance_to_boundary_many(Y[alive])
        absorbed = dist < eps
        if absorbed.any():
            idx = alive[absorbed]
            points[idx] = domain.project_to_boundary_many(Y[idx])
            keep = ~absorbed
            alive = alive[keep]
            dist = dist[keep]
            rows = rows[keep]
            if not alive.size:
                break
        if hop >= MAX_HOPS:
            raise MaxHopsExceeded(hop, ids[alive], Y[alive])
        if hop == first + dirs.shape[1]:
            k = min(rng.lookahead_rounds(alive.size, d, hop), MAX_HOPS - hop)
            dirs = rng.sphere_rows(seed, ids[alive], hop * d, d, rounds=k)
            rows, first = np.arange(alive.size), hop
        Y[alive] += (cfg.step_fraction * dist)[:, None] * dirs[rows, hop - first]
        hops[alive] += 1
        hop += 1

    return ExitBatch(points, hops)

