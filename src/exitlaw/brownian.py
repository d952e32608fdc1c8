"""Discretized Brownian motion run to its first exit from a domain.

The walk is X_{k+1} = X_k + sqrt(dt) * G_k with standard Gaussian
increments, stopped at the first position outside the closed domain.
The recorded exit is the segment-boundary crossing between the last
inside and first outside positions, with the exit time interpolated at
the crossing parameter — accepting the raw outside point would bias the
exit position outward by O(sqrt(dt)).

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
of ``live x 1,024`` values whatever the walk length. The kernel walks
at most ``_GROUP_STREAMS`` = 256 streams at a time, which holds those
arrays near 2^18 values (2 MB) each however many samples or starts are
asked for; on the ``table1`` brownian runs wider groups saved no time
and raised the peak resident memory (CHANGES.md has the figures).

Groups are also the unit of threading: up to ``BrownianConfig.workers``
threads walk them, each into its own rows, so no bit depends on the
count. A group's long numpy blocks run mostly outside the interpreter
lock; the short per-round Python of wos and exact sampling would not.

A walk that reaches ``ceil(100 D^2 / dt)`` steps in a domain of diameter
D raises MaxStepsExceeded rather than being truncated, which would bias
the exit law. Brownian motion leaves the domain with a tail
P(tau > t) <= c e^{-lambda_1 t}, lambda_1 >= pi^2 / (8 D^2) (the domain
lies in a ball of radius D), so outliving the walk time 100 D^2 has a
probability below c e^{-120}: the configuration is wrong. The grid walk
sees the same path at the grid times, its rate tending to lambda_1.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import philox, rng
from .exits import ExitBatch
from .geometry import Domain

# Philox words per stream per block (see the module docstring).
_BLOCK_WORDS = 4 * philox.NARROW_WORDS

# Streams walked at a time: a block then holds at most 2^18 words.
_GROUP_STREAMS = (1 << 18) // _BLOCK_WORDS


@dataclass(frozen=True)
class BrownianConfig:
    """Timestep of the discretized walk: dt is the increment variance per
    coordinate. ``workers`` caps the threads that walk stream groups; it
    never changes a result."""

    dt: float = 1e-4
    workers: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (isinstance(self.workers, (int, np.integer)) and self.workers >= 1):
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")

    def resolve_max_steps(self, domain: Domain) -> int:
        """The step cap ``ceil(100 D^2 / dt)``; a ValueError beyond 2^62 steps."""
        diameter = domain.diameter()
        cap = 100.0 * (diameter * diameter) / self.dt
        if not cap <= 2.0 ** 62:
            raise ValueError(
                f"dt={self.dt:g} is too small for a domain of diameter {diameter:g}: "
                f"the step cap 100 D^2/dt = {cap:.3g} exceeds 2^62")
        return math.ceil(cap)


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
    """Exit samples for one stream per row of ``stream_ids``.

    theta is one start for every stream or an (m, d) array of one start
    per stream. Step k of a stream reads Gaussian words [k*d, (k+1)*d)
    of it. The streams are walked in groups of at most
    ``_GROUP_STREAMS`` on up to ``cfg.workers`` threads; a walk never
    depends on the others, so neither changes a bit. Raises
    MaxStepsExceeded, carrying the pending walks of the first group (in
    row order) that reaches the step cap.
    """
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], domain.dimension
    starts = domain.interior_rows(theta, m)
    step_cap = cfg.resolve_max_steps(domain)

    points = np.empty((m, d))
    times = np.empty(m)
    steps = np.empty(m, dtype=np.int64)

    def walk(group: slice) -> None:
        _walk(domain, starts[group], cfg, seed, ids[group], step_cap,
              points[group], steps[group], times[group])

    groups = [slice(lo, lo + _GROUP_STREAMS) for lo in range(0, m, _GROUP_STREAMS)]
    threads = min(cfg.workers, len(groups), os.cpu_count() or 1)
    if threads <= 1:
        for group in groups:
            walk(group)
    else:
        # map yields in group order, so the first failing group's error is raised
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(walk, groups))
    return ExitBatch(points, steps, times)


def _walk(domain: Domain, X: np.ndarray, cfg: BrownianConfig, seed: int,
          ids: np.ndarray, step_cap: int, points, steps, times) -> None:
    """Walk the streams ``ids`` from the rows of X to their exits, filling
    points, steps and times; X holds the current positions."""
    m, d = ids.shape[0], domain.dimension
    sqdt = math.sqrt(cfg.dt)
    block = -(-_BLOCK_WORDS // d)
    alive = np.arange(m)
    done_steps = 0
    g_next = 0

    while alive.size:
        if done_steps >= step_cap:
            raise MaxStepsExceeded(done_steps, ids[alive], X[alive], cfg.dt,
                                   domain.diameter())
        width = min(block, step_cap - done_steps)
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
            points[idx], t = domain.crossing_many(prev, path[rows, j, :])
            steps[idx] = done_steps + j + 1
            times[idx] = (done_steps + j + t) * cfg.dt
        survivors = ~hit
        X[alive[survivors]] = path[survivors, -1, :]
        alive = alive[survivors]
        done_steps += width
        g_next += width * d
