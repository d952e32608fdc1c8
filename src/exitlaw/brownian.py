"""Discretized Brownian motion run to its first exit from a domain.

The walk is X_{k+1} = X_k + sqrt(dt) * G_k with standard Gaussian
increments, stopped at the first position outside the closed domain.
The recorded exit is the segment-boundary crossing between the last
inside and first outside positions, with the exit time interpolated at
the crossing parameter — accepting the raw outside point would bias the
exit position outward by O(sqrt(dt)). The cruder scheme (project the
first outside point, count a whole step) stays available as
``exit_rule="first-outside"`` for comparison runs.

The batch kernel processes all pending samples in lockstep blocks of
steps. Trajectory prefixes are cumulative sums of counter-addressed
increments and unconsumed block tails are simply discarded, so results
are bit-identical for any block width, batch split, or worker count.

A block is ``ceil(_BLOCK_WORDS / d)`` steps, with ``_BLOCK_WORDS`` =
4 x ``philox.NARROW_WORDS`` = 1,024 Gaussian words per stream: every
full block is long enough for numpy's C Philox path, and the steps a walk
draws past its exit stay under one block. Shorter blocks pay more
per-block call overhead, longer ones discard more steps and hold more
memory; on the ``table1`` brownian run 512 and 2,048 words measured no
faster than 1,024 (CHANGES.md has the sweep). The Gaussian output is the
path buffer, scaled and summed in place, so a block holds a few arrays
of ``live x 1,024`` values whatever the walk length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import philox, rng
from .exits import ExitBatch
from .geometry import Domain, as_point

EXIT_RULES = ("interpolate", "first-outside")

# Philox words per stream per block (see the module docstring).
_BLOCK_WORDS = 4 * philox.NARROW_WORDS


@dataclass(frozen=True)
class BrownianConfig:
    """Timestep and safety cap for the discretized walk.

    dt is the increment variance per coordinate; max_steps bounds the
    walk length and turns a runaway configuration (dt far too small, or
    a huge domain) into an error instead of silent truncation, which
    would bias the exit law.

    ``max_steps=None`` resolves per domain to ``ceil(100 D^2 / dt)``, a
    walk time of 100 D^2 for a domain of diameter D. Brownian motion
    leaves a bounded domain with a tail P(tau > t) <= c e^{-lambda_1 t},
    and lambda_1 >= pi^2 / (8 D^2) because the domain lies in a ball of
    radius D; so a walk that outlives the cap has a probability below
    c e^{-120}, and reaching it means the configuration is wrong. The
    grid walk sees the same Brownian path at the grid times and its rate
    tends to lambda_1 as dt -> 0.
    """

    dt: float = 1e-4
    max_steps: int | None = None
    exit_rule: str = "interpolate"

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.exit_rule not in EXIT_RULES:
            raise ValueError(f"exit_rule must be one of {EXIT_RULES}, got {self.exit_rule!r}")

    def resolve_max_steps(self, domain: Domain) -> int:
        if self.max_steps is not None:
            return self.max_steps
        # clipped so that a vanishing dt or a huge domain still gives an int
        return math.ceil(min(100.0 * domain.diameter() ** 2 / self.dt, 2.0 ** 62))


class MaxStepsExceeded(RuntimeError):
    """Raised when a walk hits the step cap; carries the unfinished state."""

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
    """Exit samples for one stream per row of ``stream_ids``, all started at theta.

    Step k of a stream reads Gaussian words [k*d, (k+1)*d) of it.
    """
    theta = as_point(theta, domain.dimension)
    if not domain.contains(theta):
        raise ValueError(f"start point {theta} is not strictly inside the domain")
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], domain.dimension
    sqdt = math.sqrt(cfg.dt)
    max_steps = cfg.resolve_max_steps(domain)
    block = -(-_BLOCK_WORDS // d)

    points = np.empty((m, d))
    times = np.empty(m)
    steps = np.empty(m, dtype=np.int64)
    X = np.tile(theta, (m, 1))
    alive = np.arange(m)
    done_steps = 0
    g_next = 0

    while alive.size:
        if done_steps >= max_steps:
            raise MaxStepsExceeded(done_steps, ids[alive], X[alive], cfg.dt,
                                   domain.diameter())
        width = min(block, max_steps - done_steps)
        live = alive.size

        # path[:, k] is the position after step done_steps + k + 1; adding
        # X to the first increment gives the sums of cumsum([X, g1, g2, ...])
        g = rng.gaussian_values(seed, ids[alive], g_next, width * d)
        path = g.reshape(live, width, d)
        path *= sqdt
        path[:, 0, :] += X[alive]
        np.cumsum(path, axis=1, out=path)

        out_mask = domain.exited_many(path.reshape(-1, d)).reshape(live, width)
        hit = out_mask.any(axis=1)
        if hit.any():
            rows = np.flatnonzero(hit)
            j = np.argmax(out_mask[rows], axis=1)
            idx = alive[rows]
            prev = np.where((j == 0)[:, None], X[idx], path[rows, j - 1, :])
            first_out = path[rows, j, :]
            total = done_steps + j + 1
            steps[idx] = total
            if cfg.exit_rule == "interpolate":
                pts, t = domain.crossing_many(prev, first_out)
                points[idx] = pts
                times[idx] = (done_steps + j + t) * cfg.dt
            else:
                points[idx] = domain.project_outside_many(first_out)
                times[idx] = total * cfg.dt
        survivors = ~hit
        X[alive[survivors]] = path[survivors, -1, :]
        alive = alive[survivors]
        done_steps += width
        g_next += width * d

    return ExitBatch(points, steps, times)
