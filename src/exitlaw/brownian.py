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
step, and a hop's time reads tag-0 uniform word k. All walks move in one
lockstep batch, whatever their starts, fetching their words in
``rng.lookahead_rounds`` windows; finished walks leave the batch in the
round they exit, as in ``wos``. A walk depends only on its stream, so no
bit depends on the batch, its split or the window size.

A walk's exit time is the sum of its hops' times, in round order, plus
n dt for its n whole layer steps, plus t dt for a last step that
crosses at t. The path never reads its clock, so the rounds keep none:
they record which walks hopped, with their radii, and the batch's
``exit_times`` folds that record into the sums on its first read
(``_Clock``). A caller that reads only exit points, as ``table1`` does,
draws no tag-0 word and no first-passage time.

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
from array import array
from dataclasses import dataclass

import numpy as np

from . import passage, rng
from .exits import ExitBatch
from .geometry import Domain

#: Width of the boundary layer in units of sqrt(dt): a walk hops while
#: farther than KAPPA * sqrt(dt) from the boundary, and steps within it.
KAPPA = 4.0

#: Most hops and lookahead windows the walk's exit-time record holds
#: before the clock folds it into the walks' hop-time sums: 4 MiB of
#: record, and about eight times that in temporaries while it is folded.
CLOCK_HOPS = 1 << 18


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

    The rounds move positions only. They record the rows that hop, with
    their radii, in a ``_Clock`` that sums the exit times on the first
    read of ``exit_times``. Exits are resolved after the last round, all
    crossings in one call and all hop projections in another.
    """
    starts, grid = domain.interior_starts(theta, stream_ids)
    ids = grid.ravel()
    m, d = ids.shape[0], domain.dimension
    cap = cfg.resolve_max_steps(domain)
    sqdt = math.sqrt(cfg.dt)
    layer = KAPPA * sqdt

    X = np.repeat(starts, grid.shape[1], axis=0)
    live = np.arange(m)        # batch row of each live walk
    steps = np.empty(m, dtype=np.int64)
    clock = _Clock(seed, ids, d, cfg.dt)
    # An exit parks its last inside position (a step) or its landing
    # point (a hop) in its row of points until the loop ends.
    points = np.empty((m, d))
    walked, outside, jumped = [], [], []   # step exits' rows and first outside positions; hop exits' rows
    # Gaussians of rounds [first, first + K) of the walks live at the
    # window's request, one request per window; row[i] is live walk i's
    # row in it, so an exit leaves only row.
    g, row, first = np.empty((m, 0, d)), live, 0
    k = 0

    while live.size:
        if k >= cap:
            raise MaxStepsExceeded(k, ids[live], X, cfg.dt, domain.diameter())
        if k == first + g.shape[1]:
            K = min(rng.lookahead_rounds(live.size, d, k), cap - k)
            g = dist = hopping = hop = R = rows = dirs = None   # spent before the clock folds
            clock.window(k, live.size * K)
            g = rng.gaussian_values(seed, ids[live], k * d, K * d).reshape(-1, K, d)
            row, first = np.arange(live.size), k
        dist = domain.distance_to_boundary_many(X)
        Y = g[row, k - first]      # the round's Gaussians, made into its positions
        hopping = dist > layer
        hop = np.flatnonzero(hopping)
        if hop.size:
            R = dist[hop] - sqdt
            rows = live[hop]
            dirs = rng.unit_rows(seed, ids[rows], k * d, Y[hop, None])[:, 0]
            clock.hops(k, rows, R)
        Y *= sqdt
        Y += X
        if hop.size:
            Y[hop] = X[hop] + R[:, None] * dirs
        inside = domain.contains_many(Y)
        k += 1
        if inside.all():
            X = Y
            continue

        out = np.flatnonzero(~inside)
        hopped = hopping[out]
        walk, jump = out[~hopped], out[hopped]
        by_step, by_hop = live[walk], live[jump]
        steps[by_step] = steps[by_hop] = k
        points[by_step] = X[walk]
        points[by_hop] = Y[jump]
        walked.append(by_step)
        outside.append(Y[walk])
        jumped.append(by_hop)
        X, live, row = Y[inside], live[inside], row[inside]

    if m:
        rows, b = np.concatenate(walked), np.concatenate(outside)
        outside.clear()
        points[rows], t = domain.crossing_many(points[rows], b)
        clock.finish(steps, rows, t * cfg.dt)
        rows = np.concatenate(jumped)
        points[rows] = domain.project_to_boundary_many(points[rows])
    return ExitBatch(points, steps, clock.read)


class _Clock:
    """A walk's record of its hops, summed into exit times.

    A walk's exit time is the sum of its hops' times, in round order,
    plus n dt for its n whole layer steps, plus t dt for a last step
    that crosses at parameter t. A hop of radius R in round k takes
    R^2 T_d(u), u being tag-0 uniform word k of the walk's stream; n is
    the walk's rounds less its hops, less one for a step exit. The walk
    records the rows that hop in each round and their radii (16 bytes a
    hop, and 16 a round with hops), and the round each lookahead window
    starts; it draws no uniform and no time. ``_fold`` adds the record's
    hop times into each walk's sum with one tag-0 request per window, for
    the rows that hopped in it, one ``passage.times`` call and one
    ``np.add.at``, which adds in record order, so the times do not depend
    on when or in how many parts the clock folds.

    The walk calls ``window`` at each window's start, which folds the
    record first if the window's hops could take it past ``CLOCK_HOPS``
    hops and windows, and ``finish`` after its last round; ``read``, the
    batch's ``exit_times``, folds the rest. A fold that cannot tabulate
    T_d (d >= 44) keeps its ValueError for every read and drops the
    record, so the walk still returns its points. The clock holds its
    own copies of the stream ids and of the walks' round counts, and
    reads no array of the batch.
    """

    def __init__(self, seed: int, ids: np.ndarray, d: int, dt: float):
        m = ids.shape[0]
        self.seed, self.ids, self.d, self.dt = seed, ids.copy(), d, dt
        self.hop_time, self.tail = np.zeros(m), np.zeros(m)   # hops folded; a step exit's t dt
        self.n = np.zeros(m, dtype=np.int64)    # whole layer steps: rounds less hops folded
        self.error = None                       # a fold's ValueError, raised by every read
        self._clear()

    def _clear(self):
        self.rows, self.radii = array("q"), array("d")      # each hop, in round order
        self.rounds, self.counts = array("q"), array("q")   # each round with hops
        self.windows = array("q")                           # the round each window starts
        self.pending = 0

    def window(self, k: int, most: int) -> None:
        """Open a window at round k in which at most ``most`` hops are made."""
        if self.pending + most > CLOCK_HOPS:
            self._fold()
        self.windows.append(k)
        self.pending += 1

    def hops(self, k: int, rows: np.ndarray, radii: np.ndarray) -> None:
        self.rows.frombytes(rows.view(np.uint8))
        self.radii.frombytes(radii.view(np.uint8))
        self.rounds.append(k)
        self.counts.append(rows.size)
        self.pending += rows.size

    def finish(self, steps: np.ndarray, rows: np.ndarray, t_dt: np.ndarray) -> None:
        """Take each walk's rounds, and the rows and t dt of the step exits."""
        self.n += steps
        self.n[rows] -= 1
        self.tail[rows] = t_dt

    def read(self) -> np.ndarray:
        """The exit times: the rest of the record folded, then summed."""
        self._fold()
        if self.error is not None:
            raise self.error
        return self.hop_time + self.n * self.dt + self.tail

    def _fold(self) -> None:
        """Add the record's hop times into the walks' sums, and drop it."""
        rows = np.frombuffer(self.rows, dtype=np.int64)
        radii = np.frombuffer(self.radii)
        at = np.repeat(np.frombuffer(self.rounds, dtype=np.int64),
                       np.frombuffer(self.counts, dtype=np.int64))   # round of each hop
        windows = self.windows.tolist()
        self._clear()
        if not rows.size or self.error is not None:
            return
        u = np.empty(rows.size)
        cut = [*np.searchsorted(at, windows).tolist(), rows.size]
        for k0, lo, hi in zip(windows, cut, cut[1:]):
            if lo < hi:
                need, which = np.unique(rows[lo:hi], return_inverse=True)
                words = rng.uniform_values(self.seed, self.ids[need], k0,
                                           int(at[hi - 1]) - k0 + 1)
                u[lo:hi] = words[which, at[lo:hi] - k0]
        self.n -= np.bincount(rows, minlength=self.n.size)
        try:
            np.add.at(self.hop_time, rows, radii * radii * passage.times(self.d, u))
        except ValueError as error:
            self.error = error
