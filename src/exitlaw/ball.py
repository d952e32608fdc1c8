"""Closed-form exit-law machinery for balls.

For a ball the exit distribution of Brownian motion started at an
interior point x has an explicit density with respect to surface
measure on the sphere,

    K(x, y) = Gamma(d/2) / (2 pi^(d/2) r) * (r^2 - |x-c|^2) / |x-y|^d,

which makes three things possible without any timestepping: direct
evaluation and normalization checks of the density, exact sampling by
rejection from the uniform sphere proposal, and closed forms for the
moments — the exit-point mean is x itself, the covariance trace is
r^2 - |x-c|^2, and the expected exit time is (r^2 - |x-c|^2)/d.

Densities are with respect to unnormalized (d-1)-dimensional surface
measure, so at the center K is the constant 1/(surface area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exits import ExitBatch, ExitSample, points_of
from .geometry import Ball, Domain, as_point

#: Relative boundary tolerance for kernel query points.
BOUNDARY_RTOL = 1e-9

#: sample_exact refuses starts with rho/r beyond this (envelope degenerates).
MAX_RHO_FRACTION = 1.0 - 1e-9


def gamma_half(d: int) -> float:
    """Gamma(d/2) for integer d >= 1, by the recurrence from Gamma(1/2) and Gamma(1).

    Only half-integer arguments are ever needed, so the two base cases
    plus Gamma(x+1) = x*Gamma(x) cover everything without a
    special-functions dependency.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    x, val = (0.5, math.sqrt(math.pi)) if d % 2 else (1.0, 1.0)
    while x < d / 2:
        val *= x
        x += 1.0
    return val


def sphere_surface_area(d: int, radius: float) -> float:
    """Surface area of the (d-1)-sphere of the given radius in R^d."""
    return 2.0 * math.pi ** (d / 2) / gamma_half(d) * radius ** (d - 1)


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
    const = gamma_half(d) / (2.0 * math.pi ** (d / 2) * ball.radius)
    numer = (ball.radius - rho) * (ball.radius + rho)
    diff = ys - x
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return const * numer / dist ** d


def kernel_normalization(ball: Ball, x, resolution: int,
                         stream: rng.RngStream | None = None) -> float:
    """Numerical total mass of the kernel over the whole boundary.

    Converges to 1 as resolution grows. The rule is per-dimension:

    * d = 1: the boundary is two points; the sum is exact and
      ``resolution`` is ignored.
    * d = 2: trapezoid rule on ``resolution`` equal angles — the
      integrand is smooth and periodic, so convergence is spectral.
    * d >= 3: Monte Carlo over ``resolution`` uniform sphere draws
      (surface area times the mean kernel value), from ``stream``
      (default: a fresh stream with seed 0, stream_id 0).
    """
    x = as_point(x, ball.dimension)
    if not ball.contains(x):
        raise ValueError(f"kernel normalization needs an interior point, got {x}")
    d, r, c = ball.dimension, ball.radius, ball.center
    if d == 1:
        ys = np.array([[c[0] - r], [c[0] + r]])
        return float(_kernel_values(ball, x, ys).sum())
    if d == 2:
        ang = 2.0 * math.pi * np.arange(resolution) / resolution
        ys = c + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return float(_kernel_values(ball, x, ys).sum() * (2.0 * math.pi * r / resolution))
    if stream is None:
        stream = rng.RngStream(seed=0, stream_id=0)
    area = sphere_surface_area(d, r)
    total = 0.0
    done = 0
    while done < resolution:
        step = min(resolution - done, 1 << 19)
        ys = c + r * rng.unit_vectors(stream, step, d)
        total += float(_kernel_values(ball, x, ys).sum())
        done += step
    return area * total / resolution


def theoretical_mean(domain: Domain, theta) -> np.ndarray:
    """Mean of the exit distribution: theta itself, on any supported domain."""
    theta = as_point(theta, domain.dimension)
    if not domain.contains(theta):
        raise ValueError(f"theta {theta} is not strictly inside the domain")
    return theta.copy()


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
    """Envelope constant M = max_y K(theta,y)/uniform(y) for the rejection sampler.

    The kernel peaks at the boundary point nearest theta, where
    |theta - y| = r - rho; M is the kernel-to-proposal ratio there:
    M = (r + rho) r^(d-2) / (r - rho)^(d-1). Expected proposals per
    accepted sample equal M, so M also prices the sampler.
    """
    theta = as_point(theta, ball.dimension)
    r, d = ball.radius, ball.dimension
    rho = float(np.linalg.norm(theta - ball.center))
    if rho >= r:
        raise ValueError(f"theta {theta} is not strictly inside the ball")
    return (r + rho) * r ** (d - 2) / (r - rho) ** (d - 1)


def _check_exact_start(ball: Ball, theta) -> np.ndarray:
    theta = as_point(theta, ball.dimension)
    rho = float(np.linalg.norm(theta - ball.center))
    if rho >= ball.radius:
        raise ValueError(f"theta {theta} is not strictly inside the ball")
    if rho / ball.radius > MAX_RHO_FRACTION:
        raise ValueError(
            f"theta is within {ball.radius - rho:.3g} of the boundary; the "
            f"rejection envelope degenerates (expected proposals "
            f"{rejection_envelope(ball, theta):.3g}). Use the walk-on-spheres "
            f"sampler for near-boundary starts.")
    return theta


def sample_exact_batch(ball: Ball, theta, seed: int, stream_ids,
                       gauss_start: int = 0, uniform_start: int = 0) -> ExitBatch:
    """Exact exit samples by rejection, one stream per row of ``stream_ids``.

    Proposal t of a stream consumes its Gaussian words [t*d, (t+1)*d)
    (the uniform sphere point) and uniform word t (the accept test), so
    batch and scalar execution agree bit for bit, whatever the lookahead
    (``rng.lookahead_rounds``). ``steps`` records the proposals each
    sample consumed; its mean estimates M.
    """
    theta = _check_exact_start(ball, theta)
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    m, d = ids.shape[0], ball.dimension
    r, c = ball.radius, ball.center
    gap = r - float(np.linalg.norm(theta - c))

    points = np.empty((m, d))
    steps = np.empty(m, dtype=np.int64)
    alive = np.arange(m)
    retry_state: dict = {}
    t = 0
    while alive.size:
        # Proposals [t, t + K) of every live stream from one request each
        # for the Gaussian and uniform words; a row keeps its first accept.
        live, k = alive.size, rng.lookahead_rounds(alive.size, d + 1, t)
        dirs = rng.sphere_rows(seed, ids[alive], gauss_start + t * d, d, retry_state,
                               rounds=k)
        ys = c + r * dirs.reshape(-1, d)
        diff = ys - theta
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        accept_p = (gap / dist) ** d
        u = rng.uniform_values(seed, ids[alive], uniform_start + t, k)
        acc = (u.reshape(-1) < accept_p).reshape(live, k)
        hit = acc.any(axis=1)
        if hit.any():
            rows = np.flatnonzero(hit)
            j = np.argmax(acc[rows], axis=1)
            idx = alive[rows]
            points[idx] = ys.reshape(live, k, d)[rows, j]
            steps[idx] = t + j + 1
            alive = alive[~hit]
        t += k

    return ExitBatch(points, steps, "exact")


def sample_exact(ball: Ball, theta, stream: rng.RngStream) -> ExitSample:
    """One exact exit sample from the stream (see sample_exact_batch)."""
    batch = sample_exact_batch(ball, theta, stream.seed, [stream.stream_id],
                               gauss_start=stream._gcur, uniform_start=stream._ucur)
    sample = batch[0]
    stream._gcur += sample.steps * ball.dimension
    stream._ucur += sample.steps
    return sample


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
    theta = as_point(theta, 2)
    if not ball.contains(theta):
        raise ValueError(f"theta {theta} is not strictly inside the ball")
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
    x = as_point(x, 2)
    if not ball.contains(x):
        raise ValueError(f"x {x} is not strictly inside the ball")
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
