"""Walk on spheres: a timestep-free sampler of the exit distribution.

From the current interior point, hop to a uniform point on the largest
inscribed sphere, whose radius is the distance to the boundary (Muller
1956); repeat until within the absorption shell (distance < epsilon),
then project onto the boundary. Each hop lands on the sphere that
Brownian motion from the current point first meets, so the chain of hop
points visits a subsequence of one Brownian path and the projected
exit follows the harmonic measure up to the shell. Works on any
supported domain.

The projection at absorption displaces the exit point by less than
epsilon, which at the default (1e-6 of the domain diameter) is far
below statistical noise at any sample size used here. A walk still
outside the shell after ``MAX_HOPS`` hops raises MaxHopsExceeded.

The batch kernel hops all live walks in lockstep, whatever their
starts, so a batch of several starts pays each round's Python cost
once. It keeps the live walks compacted: an absorbed walk's row leaves
the position, distance and lookahead-direction arrays in the round it
is absorbed, so no round gathers live rows out of the full batch.
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
    """Absorption shell width, the sampler's one knob.

    ``epsilon=None`` resolves to 1e-6 times the domain diameter at run
    time — relative, so the sampler's accuracy is scale invariant.
    """

    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

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

    theta is one start for every stream or an (m, d) array of one start
    per stream. Hop h of a stream reads its direction from Gaussian
    words [h*d, (h+1)*d) of it and moves the walk by its distance to the
    boundary along that direction. The live walks are kept compacted:
    an absorbed walk leaves the position, distance and direction arrays,
    and all absorbed points are projected onto the boundary at the end.
    """
    eps = cfg.resolve_epsilon(domain)
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], domain.dimension
    Y = domain.interior_rows(theta, m)

    hops = np.empty(m, dtype=np.int64)
    live = np.arange(m)        # batch row of each live walk
    done, last = [], []        # batch rows and last positions of absorbed walks
    hop = 0
    # Directions of hops [first, first + K) of the live walks, one request
    # per window.
    dirs, first = np.empty((m, 0, d)), 0

    while live.size:
        dist = domain.distance_to_boundary_many(Y)
        absorbed = dist < eps
        if absorbed.any():
            done.append(live[absorbed])
            last.append(Y[absorbed])
            hops[done[-1]] = hop
            keep = ~absorbed
            live, Y, dist = live[keep], Y[keep], dist[keep]
            if not live.size:
                break
            dirs, first = dirs[keep, hop - first:], hop
        if hop >= MAX_HOPS:
            raise MaxHopsExceeded(hop, ids[live], Y)
        if hop == first + dirs.shape[1]:
            k = min(rng.lookahead_rounds(live.size, d, hop), MAX_HOPS - hop)
            dirs = rng.sphere_rows(seed, ids[live], hop * d, d, rounds=k)
            first = hop
        Y += dist[:, None] * dirs[:, hop - first]
        hop += 1

    points = np.empty((m, d))
    if done:
        points[np.concatenate(done)] = domain.project_to_boundary_many(np.concatenate(last))
    return ExitBatch(points, hops)
