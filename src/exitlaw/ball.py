"""Closed-form exit-law machinery for balls.

For a ball the exit distribution of Brownian motion started at an
interior point x has an explicit density with respect to surface
measure on the sphere,

    K(x, y) = Gamma(d/2) / (2 pi^(d/2) r) * (r^2 - |x-c|^2) / |x-y|^d,

which makes three things possible without any timestepping: direct
evaluation and normalization checks of the density, exact sampling, and
closed forms for the moments — the exit-point mean is x itself, the
covariance trace is r^2 - |x-c|^2, and the expected exit time is
(r^2 - |x-c|^2)/d.

The exact sampler proposes from the Moebius pushforward of the uniform
sphere: in unit coordinates (a = (x-c)/r, rho = |a|), a uniform
direction u maps to the second point y where the chord from -u through
a meets the sphere,

    y = a + (1 - rho^2) (u + a) / |u + a|^2,

the image of u under the ball automorphism sending 0 to a. Its density
is the hyperbolic Poisson kernel ((1 - rho^2)/|y - a|^2)^(d-1) times
the uniform one (Ahlfors 1981; Stoll 2016), so the harmonic measure is
|u + a|^(2-d) times the proposal, up to normalization. Accepting with
that ratio over its maximum leaves an envelope of (1 - rho)^-(d-2):
one in the plane, where no proposal is ever rejected. A proposal reads
its uniform only when its accept probability is below one, so the plane
reads none. In the plane the accepted law is the wrapped Cauchy law
(McCullagh 1996), so every interior start is served exactly; a start is
refused only where the proposal cap would stop its samples
(``sample_exact_batch``).

Densities are with respect to unnormalized (d-1)-dimensional surface
measure, so at the center K is the constant 1/(surface area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exits import ExitBatch
from .geometry import BOUNDARY_RTOL, Ball, Domain

#: Most proposals one exact sample may draw. At envelope M (the mean
#: proposals per sample) a stream outlives the cap with probability
#: (1 - 1/M)^cap <= e^(-cap/M): below e^-40000 at the table1 and privacy
#: starts (M <= 25). A start whose n streams expect more than 2^-20 of
#: them stopped, n e^(-cap/M) > 2^-20, is refused before drawing.
MAX_PROPOSALS = 1_000_000

#: Most boundary nodes (d = 2) or sphere draws (d >= 3) one chunk of
#: ``kernel_normalization`` evaluates at once.
_CHUNK = 1 << 19

#: Most nodes or draws ``kernel_normalization`` accepts, so one call
#: ends within half a minute: the d = 2 rule converges long before it,
#: and d >= 3 Monte Carlo is within ~1e-4 there.
MAX_RESOLUTION = 10 ** 8


def poisson_kernel(ball: Ball, x, ys) -> np.ndarray:
    """Exit density at each row of ys for a walk started at x, per surface measure.

    Raises ValueError unless x lies strictly inside the ball and every
    row of the (m, d) array ys lies on the sphere to within
    ``BOUNDARY_RTOL`` of the radius, and when a value exceeds float64.
    For d >= 3 the value is formed in logs, so only a density beyond
    float64 raises and one below it underflows to 0.
    """
    x, rho = ball.radial_point(x, "kernel point x")
    d, r = ball.dimension, ball.radius
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != d or not np.isfinite(ys).all():
        raise ValueError(f"kernel points ys must be a finite (m, {d}) array, "
                         f"got shape {ys.shape}")
    v = ys - ball.center
    sq = np.einsum("ij,ij->i", v, v)
    # |y - c| within BOUNDARY_RTOL * r of r, tested on squares: no sqrt per row
    if sq.size and not ((r - BOUNDARY_RTOL * r) ** 2 <= sq.min()
                        and sq.max() <= (r + BOUNDARY_RTOL * r) ** 2):
        off = np.abs(np.sqrt(sq) - r)
        i = int(np.argmax(off))
        raise ValueError(f"kernel point y={ys[i]} is off the boundary by {off[i]:.3g}")
    diff = ys - x
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # Gamma(d/2) / (2 pi^(d/2) r) in logs: Gamma(d/2) alone overflows
    # float64 from d = 344, the constant itself (r = 1) from d = 439
    log_const = math.lgamma(d / 2) - d / 2 * math.log(math.pi) - math.log(2.0) - math.log(r)
    with np.errstate(over="ignore"):
        if d <= 2:   # the direct form, which the d = 2 quadrature's digits rest on
            values = math.exp(log_const) * ((r - rho) * (r + rho)) / dist ** d
        else:
            values = np.exp(log_const + math.log(r - rho) + math.log(r + rho)
                            - d * np.log(dist))
    if not np.isfinite(values).all():
        raise ValueError(f"the Poisson kernel overflows float64 in d={d} at radius {r:g}")
    return values


def _circle_nodes(ball: Ball, angles: np.ndarray) -> np.ndarray:
    """Points of a circle (d = 2) at the given angles, one row each."""
    ys = np.empty((angles.shape[0], 2))
    np.cos(angles, out=ys[:, 0])
    np.sin(angles, out=ys[:, 1])
    ys *= ball.radius
    ys += ball.center
    return ys


def kernel_normalization(ball: Ball, x, resolution: int, seed: int = 0) -> float:
    """Numerical total mass of the kernel over the whole boundary.

    Converges to 1 as resolution grows. The rule is per-dimension:

    * d = 1: the boundary is two points; the sum is exact and
      ``resolution`` is ignored.
    * d = 2: trapezoid rule on ``resolution`` equal angles — the
      integrand is smooth and periodic, so convergence is spectral.
    * d >= 3: Monte Carlo over ``resolution`` uniform sphere draws, draw
      i from Gaussian words [i*d, (i+1)*d) of stream 0 under ``seed``,
      normalized by ``rng.unit_rows`` in every d, not by the word rule
      ``rng.sphere_rows`` uses in d <= 4: a seed keeps the draws it had
      before that rule (acceptance criterion 5 reads seed 0, whose error
      sits inside a tolerance of about one standard deviation).
      Surface area times kernel is (1 - rho/r)(1 + rho/r) (r/|x-y|)^d,
      with no Gamma or pi power to overflow at large d.

    Both sums run in chunks of at most ``_CHUNK`` nodes or draws, so
    memory stays bounded at any resolution. Raises ValueError for a
    resolution outside [1, MAX_RESOLUTION] or a seed outside [0, 2^64)
    at any d, and for a mass beyond float64.
    """
    x, rho = ball.radial_point(x, "x")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most MAX_RESOLUTION = {MAX_RESOLUTION}, "
                         f"got {resolution}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    d, r, c = ball.dimension, ball.radius, ball.center
    if d == 1:
        return float(poisson_kernel(ball, x, [[c[0] - r], [c[0] + r]]).sum())
    stream = np.zeros(1, dtype=np.uint64)
    total = 0.0
    done = 0
    while done < resolution:
        # at most 2^21 Gaussian values (16 MB) per request in d >= 3
        step = min(resolution - done, _CHUNK, max(1, (1 << 21) // d))
        if d == 2:
            ang = 2.0 * math.pi * np.arange(done, done + step) / resolution
            total += float(poisson_kernel(ball, x, _circle_nodes(ball, ang)).sum())
        else:
            g = rng.gaussian_values(seed, stream, done * d, step * d).reshape(1, step, d)
            diff = c + r * rng.unit_rows(seed, stream, done * d, g)[0] - x
            with np.errstate(over="ignore"):
                total += float(np.sum((r / np.sqrt(np.einsum("ij,ij->i", diff, diff))) ** d))
        done += step
    if d == 2:
        return total * (2.0 * math.pi * r / resolution)
    mass = (r - rho) / r * ((r + rho) / r) * total / resolution
    if not math.isfinite(mass):
        raise ValueError(f"kernel normalization overflows float64 in d={d}")
    return mass


def theoretical_mean(domain: Domain, theta) -> np.ndarray:
    """Mean of the exit distribution: theta itself, on any supported domain."""
    return domain.interior_point(theta, "theta").copy()


def theoretical_trace(ball: Ball, theta) -> float:
    """Covariance trace of the exit distribution: r^2 - |theta-c|^2.

    Computed as (r - rho)(r + rho), which is the same quantity without
    the cancellation the squared form suffers when theta approaches the
    boundary.
    """
    _, rho = ball.radial_point(theta, "theta")
    return (ball.radius - rho) * (ball.radius + rho)


def expected_exit_time(ball: Ball, theta) -> float:
    """Expected exit time of the Brownian walk: (r^2 - |theta-c|^2) / d."""
    return theoretical_trace(ball, theta) / ball.dimension


def rejection_envelope(ball: Ball, theta) -> float:
    """Envelope M of the exact sampler: its mean proposals per sample.

    The harmonic measure is |u + a|^(2-d) times the Moebius proposal
    (module docstring), and |u + a| ranges over [1 - rho/r, 1 + rho/r].
    The ratio peaks at the far end of that range for d >= 2, giving
    M = (r / (r - rho))^(d-2) (one in the plane), and at the near end
    for d = 1, giving M = (r + rho) / r. An M beyond float64 is inf, which
    the exact sampler refuses.
    """
    _, rho = ball.radial_point(theta, "theta")
    r, d = ball.radius, ball.dimension
    if d == 1:
        return (r + rho) / r
    try:
        return (r / (r - rho)) ** (d - 2)
    except OverflowError:
        return math.inf


class MaxProposalsExceeded(RuntimeError):
    """Raised when exact samples reach MAX_PROPOSALS unaccepted, or would (proposals 0)."""

    def __init__(self, proposals: int, envelope: float, stream_ids):
        self.proposals = proposals
        self.envelope = envelope
        self.stream_ids = np.asarray(stream_ids)
        super().__init__(
            f"{self.stream_ids.size} exact sample(s) unaccepted after {proposals} "
            f"proposals (cap {MAX_PROPOSALS}, envelope M = {envelope:.3g} proposals "
            f"per sample). Use the walk-on-spheres sampler for this start.")


@dataclass(frozen=True)
class ExactConfig:
    """The exact sampler, ``sample_exact_batch``: balls only, no knobs."""


def sample_exact_batch(ball: Ball, theta, cfg: ExactConfig, seed: int,
                       stream_ids) -> ExitBatch:
    """Exact exit samples by Moebius-proposal rejection, one stream per row.

    theta is one start (d,) with stream ids (n,), or k starts (k, d)
    with a (k, n) stream grid whose row i holds start i's streams; rows
    come in ``ravel`` order. Every start is checked before any draw, and
    then each start's streams run as their own batch (``_exact_start``):
    a start takes only a handful of lookahead windows, so unlike the
    walks the sampler saves nothing by running starts in lockstep.

    Proposal t of a stream maps its uniform direction u of round t
    (``rng.sphere_rows``) to y (module docstring) and accepts y
    with probability p = (|u + a| / peak)^(2-d), with peak = 1 - rho/r
    for d >= 2 and 1 + rho/r for d = 1. That is ((r - rho) /
    (r |u + a|))^(d-2) for d >= 2, which is 1 in the plane, and
    |u + a| / (1 + rho/r) on the line. A proposal with p < 1 accepts when
    uniform word t is below p; one with p >= 1 accepts as every uniform
    would, and a stream reads no uniforms for a window whose p are all
    >= 1. Batched execution agrees bit for bit with one proposal per
    request, whatever the lookahead (``rng.lookahead_rounds``). ``steps``
    records the proposals each sample consumed, a Geometric(1/M) count
    whose mean estimates ``rejection_envelope``. Accepted points are
    renormalized onto the sphere, which the map alone misses by rounding
    that grows as the start nears the boundary. Raises ValueError on a
    domain that is not a Ball; MaxProposalsExceeded, naming the start's
    streams and its M, before any draw for a start whose n streams the
    cap is expected to stop, n e^(-MAX_PROPOSALS/M) > 2^-20 (any start
    with M = inf), and, naming its unfinished streams, when a sample's
    proposals reach MAX_PROPOSALS.
    """
    if not isinstance(ball, Ball):
        raise ValueError("the exact sampler is defined for balls only")
    starts, grid = ball.interior_starts(theta, stream_ids)
    for start, row in zip(starts, grid):
        envelope = rejection_envelope(ball, start)
        if row.size * math.exp(-MAX_PROPOSALS / envelope) > 2.0 ** -20:
            raise MaxProposalsExceeded(0, envelope, row)

    n = grid.shape[1]
    points = np.empty((grid.size, ball.dimension))
    steps = np.empty(grid.size, dtype=np.int64)
    for i, start in enumerate(starts):
        rows = slice(i * n, (i + 1) * n)
        _exact_start(ball, start, seed, grid[i], points[rows], steps[rows])
    return ExitBatch(points, steps)


def _exact_start(ball: Ball, theta: np.ndarray, seed: int, ids: np.ndarray,
                 points: np.ndarray, steps: np.ndarray) -> None:
    """Samples of one start into its rows of points and steps, row i from stream ids[i].

    Its constants are scalars: a = (theta - c)/r, power = 1 - (rho/r)^2
    and the peak of ``sample_exact_batch``. Each window (``_exact_window``)
    frees its temporaries before the next.
    """
    d, r, c = ball.dimension, ball.radius, ball.center
    gap = (r - ball.radial_point(theta, "theta")[1]) / r      # 1 - rho/r
    a, power = (theta - c) / r, gap * (2.0 - gap)
    peak = gap if d >= 2 else 2.0 - gap
    m, t = ids.shape[0], 0
    alive = np.arange(m)
    while alive.size:
        live = alive.size
        if t >= MAX_PROPOSALS:
            raise MaxProposalsExceeded(t, rejection_envelope(ball, theta), ids[alive])
        # Proposals [t, t + K) of every live stream from one request each
        # for the Gaussian and uniform words; a row keeps its first accept.
        k = min(rng.lookahead_rounds(live, d + 1, t), MAX_PROPOSALS - t)
        whole = live == m   # no row has accepted yet: alive is arange(m)
        hit, j, y = _exact_window(seed, ids if whole else ids[alive], t, k,
                                  a, power, peak, r, c)
        if hit is None:   # every live row accepted
            idx, alive = (slice(None) if whole else alive), alive[:0]
        else:
            idx, alive = alive[hit], alive[~hit]
        points[idx] = y
        steps[idx] = t + j + 1
        t += k


def _exact_window(seed: int, sids: np.ndarray, t: int, k: int, a: np.ndarray,
                  power: float, peak: float, r: float, c: np.ndarray):
    """Proposals [t, t + k) of the live streams sids of one start: (hit, j, y).

    a (d,), power and peak are the start's constants (``_exact_start``).
    hit marks the streams that accept in the window, None when all do; j
    is each accepting stream's first accept in the window (0 when k = 1)
    and y its exit point, in row order.

    The map from proposal v = u + a to exit point runs in place, with
    the same IEEE operations as c + r (a + v power/s2) / |a + v power/s2|:
    on the proposals themselves when k = 1 and every stream accepts (the
    plane's first window), else on the accepted rows gathered by
    ``np.take``. The window's temporaries die with the call.
    """
    live, d = sids.shape[0], a.shape[0]
    v = rng.sphere_rows(seed, sids, t, d, rounds=k)
    v += a
    v = v.reshape(-1, d)
    s2 = np.einsum("ij,ij->i", v, v)
    hit, j = _accepts(seed, sids, t, k, s2, peak, d)
    if hit is None and k == 1:
        y, q = v, s2
    else:
        rows = np.arange(live) if hit is None else np.flatnonzero(hit)
        pick = rows * k + j
        y, q = np.take(v, pick, axis=0), np.take(s2, pick)
        del v, s2   # free the window before the map's temporaries
    np.divide(power, q, out=q)
    y *= q[:, None]
    y += a
    norm = np.einsum("ij,ij->i", y, y)
    np.sqrt(norm, out=norm)
    y /= norm[:, None]
    y *= r
    y += c
    return hit, j, y


def _accepts(seed: int, sids: np.ndarray, t: int, k: int, s2: np.ndarray,
             peak: float, d: int):
    """(hit, j) of ``_exact_window`` for proposals with |u + a|^2 = s2 (live * k,).

    Proposal t + i of a stream accepts when its uniform word t + i is
    below p = (|u + a| / peak)^(2-d). u < p for every u in [0, 1) once
    p >= 1, so only streams with a p < 1 in the window read their
    uniforms: none in the plane, where p is 1.
    """
    live = sids.shape[0]
    accept_p = np.sqrt(s2).reshape(live, k)
    accept_p /= peak
    accept_p **= 2 - d
    acc = accept_p >= 1.0
    draw = np.flatnonzero(~acc.all(axis=1))
    if draw.size:
        acc[draw] = rng.uniform_values(seed, sids[draw], t, k) < accept_p[draw]
    hit = acc.any(axis=1)
    if hit.all():
        return None, 0 if k == 1 else np.argmax(acc, axis=1)
    return hit, 0 if k == 1 else np.argmax(acc[hit], axis=1)


def second_moment_quadrature(ball: Ball, theta, resolution: int = 4096) -> float:
    """Trapezoid quadrature of |y-theta|^2 K(theta,y) over the circle (d=2).

    The |y-theta|^2 factor cancels against the kernel's denominator, so
    the integrand is constant and the result reproduces the closed-form
    trace to rounding accuracy — a closed-loop identity check.
    """
    if ball.dimension != 2:
        raise ValueError("the quadrature identity check is a d=2 operation")
    theta = ball.interior_point(theta, "theta")
    ys = _circle_nodes(ball, 2.0 * math.pi * np.arange(resolution) / resolution)
    diff = ys - theta
    sq = np.einsum("ij,ij->i", diff, diff)
    vals = sq * poisson_kernel(ball, theta, ys)
    return float(vals.sum() * (2.0 * math.pi * ball.radius / resolution))
