"""Value type for sampled boundary exits."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


class ExitBatch:
    """A batch of exits from one sampler run, one row per stream.

    A driver call of k starts with n samples each returns k*n rows
    ordered by start: rows [i*n, (i+1)*n) are start i's, sample index
    order within. ``points`` is (k*n, d); ``steps`` is (k*n,), the
    sampler's work count: rounds, interior hops plus layer steps
    (brownian), sphere hops (wos) or proposals (exact). ``exit_times``
    is (k*n,) from the brownian sampler, the only one with a clock, and
    None from the others: a sampled time, each hop of radius R taking
    R^2 times a draw of the unit ball's first-passage time and each
    layer step dt, the last one up to its crossing; a walk's hop times
    are summed in round order and its n whole steps added as n dt.

    ``ExitBatch(points, steps, exit_times)`` takes the times as an array,
    or as a function of no arguments that returns them: the brownian
    walk passes its clock's read, which sums the times on the first read
    of ``exit_times`` and whose array every later read returns; a read
    that raises caches nothing, so the next read calls it again. The
    attributes are read-only.
    """

    __slots__ = ("points", "steps", "_times")

    def __init__(self, points: np.ndarray, steps: np.ndarray,
                 exit_times: np.ndarray | Callable[[], np.ndarray] | None = None):
        for name, value in (("points", points), ("steps", steps), ("_times", exit_times)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExitBatch is read-only: cannot set {name!r}")

    @property
    def exit_times(self) -> np.ndarray | None:
        times = self._times
        if callable(times):
            times = times()
            object.__setattr__(self, "_times", times)
        return times

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def points_of(samples) -> np.ndarray:
    """Exit points of an ExitBatch or an (n, d) array, as (n, d)."""
    if isinstance(samples, ExitBatch):
        return samples.points
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected (n, d) array, got shape {pts.shape}")
    return pts
