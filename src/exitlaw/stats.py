"""Summary statistics for exit samples and theory-vs-empirical comparison.

The estimators are the plain ones: componentwise mean, covariance trace
as the sum of unbiased (n-1) per-coordinate variances, standard errors
for both, with the trace SE by the delta method (the SE of the mean of
W_j = |Y_j - mean|^2). ``summarize`` takes every moment over the whole
sample at once, in sample order.

Comparison rows score each statistic as a z-value against the
closed-form mean/trace and flag PASS when every |z| <= 4 — wide enough
that a correctly sampling suite of nine rows times (d+1) statistics
stays quiet, tight enough that a real bias of a few standard errors
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver
from .ball import theoretical_mean, theoretical_trace
from .brownian import BrownianConfig
from .exits import points_of
from .geometry import Ball, Domain
from .wos import WosConfig

#: PASS threshold on |z|.
Z_MAX = 4.0

#: The nine (dimension, distance-from-center) table settings, in row order.
TABLE1_SETTINGS = tuple((d, rho) for d in (2, 3, 4) for rho in (0.2, 0.5, 0.8))


@dataclass(frozen=True)
class SummaryStats:
    """Empirical mean and covariance trace of an exit sample, with SEs."""

    n: int
    mean: np.ndarray
    trace: float
    mean_se: np.ndarray
    trace_se: float


def summarize(samples) -> SummaryStats:
    """Mean, covariance trace, and standard errors of the exit points."""
    pts = points_of(samples)
    n, d = pts.shape
    if n < 1:
        raise ValueError(f"expected a nonempty (n, d) array, got {pts.shape}")
    mu = pts.mean(axis=0)
    if n < 2:
        return SummaryStats(n=n, mean=mu, trace=np.nan,
                            mean_se=np.full(d, np.nan), trace_se=np.nan)
    # |Y_j - mean|^4 leaves float64 from |Y_j - mean| ~ 1e77 on (and
    # underflows below ~1e-77): the moments are taken of dev / 2^e, with
    # max |dev / 2^e| in [0.5, 1), and scaled back by powers of two, so
    # each value is bit for bit the unscaled one wherever that one neither
    # overflows nor underflows.
    dev = pts - mu
    e = int(np.frexp(np.abs(dev).max())[1])
    dev = np.ldexp(dev, -e)
    var = np.diag(dev.T @ dev) / (n - 1)
    # Sample variance of W_j = |Y_j - mean|^2 for the delta-method trace SE.
    w = np.einsum("ij,ij->i", dev, dev)
    wdev = w - w.mean()
    var_w = float(wdev @ wdev) / (n - 1)
    bias = n / (n - 1)
    return SummaryStats(
        n=n,
        mean=mu,
        trace=float(np.ldexp(var.sum(), 2 * e)),
        mean_se=np.ldexp(np.sqrt(var / n), e),
        trace_se=float(np.ldexp(bias * np.sqrt(var_w / n), 2 * e)),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One theory-vs-empirical row: z-scores and a PASS/FAIL verdict.

    trace_theory and z_trace are None when the domain has no closed-form
    trace (boxes); dt and epsilon carry the knob of whichever sampler
    produced the data and are None otherwise.
    """

    d: int
    theta: tuple
    method: str
    n: int
    summary: SummaryStats
    trace_theory: float | None
    z_mean: tuple
    z_trace: float | None
    passed: bool
    dt: float | None = None
    epsilon: float | None = None


def compare(summary: SummaryStats, domain: Domain, theta, *,
            sampler: driver.Sampler | None = None) -> ComparisonRow:
    """Score a summary against the closed-form mean (and trace, for balls).

    ``sampler`` is the config that drew the sample; it fills the row's
    method, dt and epsilon cells.
    """
    theta = theoretical_mean(domain, theta)
    if summary.mean.shape[0] != domain.dimension:
        raise ValueError(
            f"dimension mismatch: summary is {summary.mean.shape[0]}-dimensional, "
            f"domain is {domain.dimension}-dimensional")
    with np.errstate(divide="ignore", invalid="ignore"):
        z_mean = (summary.mean - theta) / summary.mean_se
    if isinstance(domain, Ball):
        trace_theory = theoretical_trace(domain, theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_trace = float(np.divide(summary.trace - trace_theory, summary.trace_se))
        zs = np.append(z_mean, z_trace)
    else:
        trace_theory = None
        z_trace = None
        zs = z_mean
    ok = bool(np.all(np.isfinite(zs)) and np.max(np.abs(zs)) <= Z_MAX)
    return ComparisonRow(
        d=domain.dimension,
        theta=tuple(float(v) for v in theta),
        method=driver.method_of(sampler) if sampler is not None else "",
        n=summary.n,
        summary=summary,
        trace_theory=trace_theory,
        z_mean=tuple(float(z) for z in z_mean),
        z_trace=z_trace,
        passed=ok,
        dt=sampler.dt if isinstance(sampler, BrownianConfig) else None,
        epsilon=sampler.resolve_epsilon(domain) if isinstance(sampler, WosConfig) else None,
    )


def reproduce_table1(sampler: driver.Sampler, n: int, seed: int) -> list[ComparisonRow]:
    """Run the nine (d, rho) settings on the unit ball and score each row.

    Settings are d in {2, 3, 4} crossed with start distance rho in
    {0.2, 0.5, 0.8} from the center of the unit ball, n samples each,
    drawn by the ``sampler`` config. Row k draws from stream context k,
    so rows are independent and any row can be recomputed in isolation.
    The three rows of one dimension are drawn in one driver call, one
    lockstep batch of 3n walks.
    """
    rows = []
    for d in sorted({d for d, _ in TABLE1_SETTINGS}):
        contexts = [k for k, (dk, _) in enumerate(TABLE1_SETTINGS) if dk == d]
        domain = Ball(np.zeros(d), 1.0)
        starts = np.zeros((len(contexts), d))
        starts[:, 0] = [TABLE1_SETTINGS[k][1] for k in contexts]
        batch = driver.sample_exits(domain, starts, sampler, n, seed, context=contexts)
        for i, theta in enumerate(starts):
            part = batch.points[i * n:(i + 1) * n]
            rows.append(compare(summarize(part), domain, theta, sampler=sampler))
    return rows
