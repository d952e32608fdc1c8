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
one in the plane, where no proposal is ever rejected.

Densities are with respect to unnormalized (d-1)-dimensional surface
measure, so at the center K is the constant 1/(surface area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exits import ExitBatch, points_of
from .geometry import Ball, Domain, as_point

#: Relative boundary tolerance for kernel query points.
BOUNDARY_RTOL = 1e-9

#: sample_exact_batch refuses starts with rho/r beyond this; walk on
#: spheres serves them.
MAX_RHO_FRACTION = 1.0 - 1e-9

#: Most proposals one exact sample may draw. A start whose envelope M
#: (the mean proposals per sample) exceeds it is refused before drawing.
#: At the table1 and privacy starts (M <= 25) a stream outlives the cap
#: with probability (1 - 1/M)^cap < e^-40000.
MAX_PROPOSALS = 1_000_000


@dataclass(frozen=True)
class KernelQuery:
    """A validated (ball, interior point, boundary point) kernel argument."""

    ball: Ball
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        b = self.ball
        x = as_point(self.x, b.dimension)
        y = as_point(self.y, b.dimension)
        rho = float(np.linalg.norm(x - b.center))
        if rho >= b.radius:
            raise ValueError(f"kernel point x={x} is not strictly inside the ball")
        ydist = abs(float(np.linalg.norm(y - b.center)) - b.radius)
        if ydist > BOUNDARY_RTOL * b.radius:
            raise ValueError(f"kernel point y={y} is off the boundary by {ydist:.3g}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def poisson_kernel(query: KernelQuery) -> float:
    """Exit density at query.y for a walk started at query.x, per surface measure."""
    b = query.ball
    return float(_kernel_values(b, query.x, query.y[None, :])[0])


def _kernel_values(ball: Ball, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Unvalidated vectorized kernel evaluation over rows of ys."""
    d = ball.dimension
    rho = float(np.linalg.norm(x - ball.center))
    # Gamma(d/2) / (2 pi^(d/2) r) in logs: Gamma(d/2) alone overflows
    # float64 from d = 344, the constant itself (r = 1) from d = 439
    try:
        const = math.exp(math.lgamma(d / 2) - d / 2 * math.log(math.pi)
                         - math.log(2.0) - math.log(ball.radius))
    except OverflowError:
        raise ValueError(f"the kernel constant Gamma(d/2)/(2 pi^(d/2) r) overflows "
                         f"float64 in d={d} at radius {ball.radius:g}") from None
    numer = (ball.radius - rho) * (ball.radius + rho)
    diff = ys - x
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return const * numer / dist ** d


def kernel_normalization(ball: Ball, x, resolution: int, seed: int = 0) -> float:
    """Numerical total mass of the kernel over the whole boundary.

    Converges to 1 as resolution grows. The rule is per-dimension:

    * d = 1: the boundary is two points; the sum is exact and
      ``resolution`` is ignored.
    * d = 2: trapezoid rule on ``resolution`` equal angles — the
      integrand is smooth and periodic, so convergence is spectral.
    * d >= 3: Monte Carlo over ``resolution`` uniform sphere draws, draw
      i from Gaussian words [i*d, (i+1)*d) of stream 0 under ``seed``.
      Surface area times kernel is (1 - rho/r)(1 + rho/r) (r/|x-y|)^d,
      with no Gamma or pi power to overflow at large d.

    Raises ValueError for a resolution below 1 or a seed outside
    [0, 2^64) at any d, and for a mass beyond float64.
    """
    x = ball.interior_point(x, "x")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    d, r, c = ball.dimension, ball.radius, ball.center
    if d == 1:
        ys = np.array([[c[0] - r], [c[0] + r]])
        return float(_kernel_values(ball, x, ys).sum())
    if d == 2:
        ang = 2.0 * math.pi * np.arange(resolution) / resolution
        ys = c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return float(_kernel_values(ball, x, ys).sum() * (2.0 * math.pi * r / resolution))
    rho = float(np.linalg.norm(x - c))
    stream = np.zeros(1, dtype=np.uint64)
    total = 0.0
    done = 0
    while done < resolution:
        # at most 2^19 draws and 2^21 Gaussian values (16 MB) per request
        step = min(resolution - done, 1 << 19, max(1, (1 << 21) // d))
        diff = c + r * rng.sphere_rows(seed, stream, done * d, d, rounds=step)[0] - x
        with np.errstate(over="ignore"):
            total += float(np.sum((r / np.sqrt(np.einsum("ij,ij->i", diff, diff))) ** d))
        done += step
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
    theta = as_point(theta, ball.dimension)
    rho = float(np.linalg.norm(theta - ball.center))
    if rho >= ball.radius:
        raise ValueError(f"theta {theta} is not strictly inside the ball")
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
    for d = 1, giving M = (r + rho) / r.
    """
    theta = as_point(theta, ball.dimension)
    r, d = ball.radius, ball.dimension
    rho = float(np.linalg.norm(theta - ball.center))
    if rho >= r:
        raise ValueError(f"theta {theta} is not strictly inside the ball")
    if d == 1:
        return (r + rho) / r
    return (r / (r - rho)) ** (d - 2)


class MaxProposalsExceeded(RuntimeError):
    """Raised when exact samples are still unaccepted after MAX_PROPOSALS proposals."""

    def __init__(self, proposals: int, envelope: float, stream_ids):
        self.proposals = proposals
        self.envelope = envelope
        self.stream_ids = np.asarray(stream_ids)
        super().__init__(
            f"{self.stream_ids.size} exact sample(s) unaccepted after {proposals} "
            f"proposals (cap {MAX_PROPOSALS}, envelope M = {envelope:.3g} proposals "
            f"per sample). Use the walk-on-spheres sampler for this start.")


def _check_exact_start(ball: Ball, theta) -> np.ndarray:
    theta = as_point(theta, ball.dimension)
    rho = float(np.linalg.norm(theta - ball.center))
    if rho >= ball.radius:
        raise ValueError(f"theta {theta} is not strictly inside the ball")
    if rho / ball.radius > MAX_RHO_FRACTION:
        raise ValueError(
            f"theta is within {ball.radius - rho:.3g} of the boundary, closer than "
            f"the exact sampler serves (rho/r > {MAX_RHO_FRACTION!r}; envelope "
            f"M = {rejection_envelope(ball, theta):.3g} proposals per sample). "
            f"Use the walk-on-spheres sampler for near-boundary starts.")
    return theta


@dataclass(frozen=True)
class ExactConfig:
    """The exact sampler, ``sample_exact_batch``: balls only, no knobs."""


def sample_exact_batch(ball: Ball, theta, cfg: ExactConfig, seed: int,
                       stream_ids) -> ExitBatch:
    """Exact exit samples by Moebius-proposal rejection, one stream per row.

    Proposal t of a stream maps the uniform direction u read from its
    Gaussian words [t*d, (t+1)*d) to y (module docstring) and accepts y
    when uniform word t is below (|u + a| / peak)^(2-d), with peak =
    1 - rho/r for d >= 2 and 1 + rho/r for d = 1. That probability is
    ((r - rho) / (r |u + a|))^(d-2) for d >= 2, which is 1 in the plane,
    and |u + a| / (1 + rho/r) on the line. Batched execution agrees bit
    for bit with one proposal per request, whatever the lookahead
    (``rng.lookahead_rounds``). ``steps`` records the proposals each
    sample consumed, a Geometric(1/M) count whose mean estimates
    ``rejection_envelope``. Accepted points are renormalized onto the
    sphere, which the map alone misses by rounding that grows as the
    start nears the boundary. Raises MaxProposalsExceeded when M or a
    sample's proposals exceed MAX_PROPOSALS, and ValueError on a domain
    that is not a Ball.
    """
    if not isinstance(ball, Ball):
        raise ValueError("the exact sampler is defined for balls only")
    theta = _check_exact_start(ball, theta)
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], ball.dimension
    r, c = ball.radius, ball.center
    a = (theta - c) / r
    gap = (r - float(np.linalg.norm(theta - c))) / r      # 1 - rho/r
    power = gap * (2.0 - gap)                             # 1 - (rho/r)^2
    peak = gap if d >= 2 else 2.0 - gap
    envelope = rejection_envelope(ball, theta)
    if envelope > MAX_PROPOSALS:
        raise MaxProposalsExceeded(0, envelope, ids)

    points = np.empty((m, d))
    steps = np.empty(m, dtype=np.int64)
    alive = np.arange(m)
    t = 0
    while alive.size:
        if t >= MAX_PROPOSALS:
            raise MaxProposalsExceeded(t, envelope, ids[alive])
        # Proposals [t, t + K) of every live stream from one request each
        # for the Gaussian and uniform words; a row keeps its first accept.
        live = alive.size
        k = min(rng.lookahead_rounds(live, d + 1, t), MAX_PROPOSALS - t)
        v = rng.sphere_rows(seed, ids[alive], t * d, d, rounds=k).reshape(-1, d) + a
        s2 = np.einsum("ij,ij->i", v, v)
        accept_p = (np.sqrt(s2) / peak) ** (2 - d)
        u = rng.uniform_values(seed, ids[alive], t, k)
        acc = (u.reshape(-1) < accept_p).reshape(live, k)
        hit = acc.any(axis=1)
        if hit.any():
            rows = np.flatnonzero(hit)
            j = np.argmax(acc[rows], axis=1)
            pick = rows * k + j
            y = a + v[pick] * (power / s2[pick])[:, None]
            y /= np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
            idx = alive[rows]
            points[idx] = c + r * y
            steps[idx] = t + j + 1
            alive = alive[~hit]
        t += k

    return ExitBatch(points, steps)


def second_moment_identity_check(samples, theta) -> float:
    """Empirical mean of |Y - theta|^2 — a consistent estimator of the trace."""
    pts = points_of(samples)
    theta = as_point(theta, pts.shape[1])
    diff = pts - theta
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def second_moment_quadrature(ball: Ball, theta, resolution: int = 4096) -> float:
    """Trapezoid quadrature of |y-theta|^2 K(theta,y) over the circle (d=2).

    The |y-theta|^2 factor cancels against the kernel's denominator, so
    the integrand is constant and the result reproduces the closed-form
    trace to rounding accuracy — a closed-loop identity check.
    """
    if ball.dimension != 2:
        raise ValueError("the quadrature identity check is a d=2 operation")
    theta = ball.interior_point(theta, "theta")
    r, c = ball.radius, ball.center
    ang = 2.0 * math.pi * np.arange(resolution) / resolution
    ys = c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    diff = ys - theta
    sq = np.einsum("ij,ij->i", diff, diff)
    vals = sq * _kernel_values(ball, theta, ys)
    return float(vals.sum() * (2.0 * math.pi * r / resolution))


def arc_probabilities(ball: Ball, x, n_arcs: int, nodes_per_arc: int = 64) -> np.ndarray:
    """Exit probabilities of the n_arcs equal arcs of a circle (d=2).

    Composite trapezoid rule inside each arc, renormalized to sum to
    one so the result is usable directly as chi-square expectations.
    """
    if ball.dimension != 2:
        raise ValueError("arc probabilities are a d=2 operation")
    x = ball.interior_point(x, "x")
    r, c = ball.radius, ball.center
    width = 2.0 * math.pi / n_arcs
    h = width / nodes_per_arc
    probs = np.empty(n_arcs)
    for k in range(n_arcs):
        ang = k * width + h * np.arange(nodes_per_arc + 1)
        ys = c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        vals = _kernel_values(ball, x, ys) * r
        probs[k] = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    return probs / probs.sum()
