"""Brownian motion run to its first exit from a domain: hops through the
interior, discretized steps in a boundary layer.

Brownian motion started at x first meets any sphere around x that lies
in the domain at a uniform point (Muller 1956), after a time R^2 T_d for
a sphere of radius R, with T_d the first-passage time of the unit ball
(``passage``). So while a walk is farther than ``KAPPA * sqrt(dt)`` from
the boundary it hops, as walk on spheres does, to the sphere of radius
dist(x) - sqrt(dt): one step scale inside the largest inscribed one, so
that a hop never lands closer than sqrt(dt) to the boundary. This is the
spherical step of Milstein & Tretyakov (Ann. Appl. Probab. 9, 1999) and
of walk on moving spheres (Deaconu & Herrmann, Ann. Appl. Probab. 23,
2013). The hops follow the law of the continuous path exactly; the
walk's dt-discretization, and with it its O(sqrt(dt)) bias, lives only
in the layer. The margin matters for that bias: hops onto the inscribed
sphere itself start layer walks arbitrarily close to the boundary, and
at equal dt measured 5-10 % more exit-time bias than the plain walk;
with the margin the two agree within 1 SE at n = 100,000 (CHANGES.md).

In the layer the walk steps X_{k+1} = X_k + sqrt(dt) * G_k with standard
Gaussian increments, and stops at the first position not strictly
inside the open domain (a step that lands on the boundary exits there,
with t = 1). The recorded exit is the segment-boundary crossing between
the last inside and first outside positions, with the exit time
interpolated at the crossing parameter; accepting the raw outside point
would bias the exit position outward by O(sqrt(dt)). A walk that steps
back out of the layer hops again. A hop that rounds to a point not
strictly inside the domain exits at its projection onto the boundary.

Round k of a walk, a hop or a step, reads Gaussian words [k*d, (k+1)*d)
of its stream, normalized by ``rng.unit_rows`` for a hop and raw for a
step, and a hop reads tag-0 uniform word k for its time. All walks move
in one lockstep batch, whatever their starts, fetching their words in
``rng.lookahead_rounds`` windows; finished walks leave the batch in the
round they exit, as in ``wos``. A walk depends only on its stream, so no
bit depends on the batch, its split or the window size.

A walk that reaches ``ceil(100 D^2 / dt)`` rounds in a domain of
diameter D raises MaxStepsExceeded rather than being truncated, which
would bias the exit law. A step adds dt to the walk's time and a hop,
of radius above 3 sqrt(dt), a time of mean above 9 dt / d, so a walk at
the cap has lived of order 100 D^2 min(1, 9/d). Brownian motion leaves
the domain with a tail P(tau > t) <= c e^{-lambda_1 t}, lambda_1 >=
pi^2 / (8 D^2) (the domain lies in a ball of radius D), so outliving
that has a probability of order c e^{-120}: the configuration is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import passage, rng
from .exits import ExitBatch
from .geometry import Domain

#: Width of the boundary layer in units of sqrt(dt): a walk hops while
#: farther than KAPPA * sqrt(dt) from the boundary, and steps within it.
KAPPA = 4.0


@dataclass(frozen=True)
class BrownianConfig:
    """Timestep of the walk in the boundary layer: dt is the increment
    variance per coordinate."""

    dt: float = 1e-4

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    def resolve_max_steps(self, domain: Domain) -> int:
        """The round cap ``ceil(100 D^2 / dt)``; a ValueError beyond 2^62 rounds,
        and for a dt whose layer steps could overflow a boundary crossing.

        A step's squared length is below (8.57 sqrt(dt))^2 d, 8.57 =
        sqrt(106 ln 2) being Box-Muller's largest deviate, and a crossing
        in a domain of diameter D forms it times at most max(2 D^2, 4).
        """
        diameter = domain.diameter()
        cap = 100.0 * (diameter * diameter) / self.dt
        if not cap <= 2.0 ** 62:
            raise ValueError(
                f"dt={self.dt:g} is too small for a domain of diameter {diameter:g}: "
                f"the step cap 100 D^2/dt = {cap:.3g} exceeds 2^62")
        step2 = self.dt * (106 * math.log(2)) * domain.dimension
        if not math.isfinite(max(2.0 * diameter * diameter, 4.0) * step2):
            raise ValueError(
                f"dt={self.dt:g} is too large for a domain of diameter {diameter:g}: "
                f"a layer step's boundary crossing, up to max(2 D^2, 4) "
                f"(8.57 sqrt(dt))^2 d, overflows float64")
        return math.ceil(cap)


class MaxStepsExceeded(RuntimeError):
    """Raised when a walk hits the round cap; carries the unfinished state."""

    def __init__(self, steps: int, stream_ids, positions, dt: float, diameter: float):
        self.steps = steps
        self.stream_ids = np.asarray(stream_ids)
        self.positions = np.asarray(positions)
        self.dt = dt
        self.diameter = diameter
        super().__init__(
            f"{self.stream_ids.size} walk(s) still inside after {steps} steps "
            f"of dt={dt:g} in a domain of diameter {diameter:g} "
            f"(dt too small or domain too large?); first pending position: "
            f"{self.positions[0]}")


def simulate_exit_batch(domain: Domain, theta, cfg: BrownianConfig, seed: int,
                        stream_ids) -> ExitBatch:
    """Exit samples for every stream of ``stream_ids``, in ``ravel`` order.

    theta is one start (d,) with stream ids (n,), or k starts (k, d)
    with a (k, n) stream grid whose row i holds start i's streams.
    ``steps`` counts a walk's rounds, hops and layer steps together.
    Raises MaxStepsExceeded with every walk still pending at the round
    cap, in row order.
    """
    starts, grid = domain.interior_starts(theta, stream_ids)
    ids = grid.ravel()
    m, d = ids.shape[0], domain.dimension
    cap = cfg.resolve_max_steps(domain)
    sqdt = math.sqrt(cfg.dt)
    layer = KAPPA * sqdt

    X = np.repeat(starts, grid.shape[1], axis=0)
    T = np.zeros(m)            # time of each live walk
    live = np.arange(m)        # batch row of each live walk
    points = np.empty((m, d))
    times = np.empty(m)
    steps = np.empty(m, dtype=np.int64)
    # Gaussians and uniforms of rounds [first, first + K) of the live walks
    g, u, first = np.empty((m, 0, d)), np.empty((m, 0)), 0
    k = 0

    while live.size:
        if k >= cap:
            raise MaxStepsExceeded(k, ids[live], X, cfg.dt, domain.diameter())
        if k == first + g.shape[1]:
            K = min(rng.lookahead_rounds(live.size, d, k), cap - k)
            g = rng.gaussian_values(seed, ids[live], k * d, K * d).reshape(-1, K, d)
            u = rng.uniform_values(seed, ids[live], k, K)
            first = k
        dist = domain.distance_to_boundary_many(X)
        gk = g[:, k - first]
        Y = X + sqdt * gk
        dT = np.full(live.size, cfg.dt)
        hopping = dist > layer
        hop = np.flatnonzero(hopping)
        if hop.size:
            R = dist[hop] - sqdt
            dirs = rng.unit_rows(seed, ids[live[hop]], k * d, gk[hop, None])[:, 0]
            Y[hop] = X[hop] + R[:, None] * dirs
            dT[hop] = R * R * passage.times(d, u[hop, k - first])
        inside = domain.contains_many(Y)
        k += 1
        if inside.all():
            X, T = Y, T + dT
            continue

        out = np.flatnonzero(~inside)
        hopped = hopping[out]
        walk, rows = out[~hopped], live[out[~hopped]]
        points[rows], t = domain.crossing_many(X[walk], Y[walk])
        times[rows] = T[walk] + t * cfg.dt
        jump, rows = out[hopped], live[out[hopped]]
        points[rows] = domain.project_to_boundary_many(Y[jump])
        times[rows] = T[jump] + dT[jump]
        steps[live[out]] = k

        X, T, live = Y[inside], (T + dT)[inside], live[inside]
        g, u, first = g[inside, k - first:], u[inside, k - first:], k
    return ExitBatch(points, steps, times)
