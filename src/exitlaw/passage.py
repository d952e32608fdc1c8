"""First-passage time T_d of Brownian motion from the centre of the unit
ball in R^d to its sphere, drawn by inverting its distribution.

The survival function is the Ciesielski-Taylor series (Trans. AMS 103,
1962; Kent, Z. Wahrsch. 52, 1980)

    P(T_d > t) = sum_k c_k exp(-j_k^2 t / 2),
    c_k = j_k^(nu-1) / (2^(nu-1) Gamma(nu+1) J_{nu+1}(j_k)),

with nu = d/2 - 1 and j_k the k-th positive zero of the Bessel function
J_nu; E T_d = 1/d and Var T_d = 2 / (d^2 (d+2)). A ball of radius R
scales the time by R^2.

``times`` inverts the series, one uniform per draw, through a table
built on first use per d with numpy alone. The zeros come from Bessel's
integral, a trapezoid rule that is spectrally exact for integer nu
(even d), or from the closed-form spherical Bessel functions (odd d).
On a geometric grid of ``NODES`` times the quantile is the cubic Hermite
interpolant of the exact survival and density there, which holds the
mean and variance to 1e-8 relative for d <= 6 (no per-draw series).
Past the grid the second term is below 2^-53 of the first, so the
one-term tail ``c_1 exp(-j_1^2 t/2)`` is inverted in closed form. Below
the grid lies a probability of ``LOWER_MASS`` (up to 1e-8 where the
series' rounding is larger, d > 8), whose draws take the grid's first
time. From d = 44 on the series cancels beyond float64 and ``times``
raises ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Terms of the series: term 40 is below e^-60 at the grid's first time.
TERMS = 40

#: Grid nodes between the lower and the tail time.
NODES = 1024

#: Probability mass below the grid's first time.
LOWER_MASS = 1e-12


def _bessel(nu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_nu(x) and J_{nu+1}(x) for nu = d/2 - 1 and x > 0."""
    if nu != math.floor(nu):
        # J_{-1/2} and J_{1/2} in closed form, then J_{o+2} = 2(o+1)/x J_{o+1} - J_o
        a = np.sqrt(2.0 / (np.pi * x))
        lo, hi, order = a * np.cos(x), a * np.sin(x), -0.5
        while order < nu:
            lo, hi, order = hi, 2.0 * (order + 1.0) / x * hi - lo, order + 1.0
        return lo, hi
    # J_n(x) = mean of cos(n tau - x sin tau) over a period: the trapezoid
    # rule is exact up to aliased orders beyond x + n
    tau = np.linspace(0.0, 2.0 * np.pi, int(x.max() + nu) + 64, endpoint=False)
    phase = np.multiply.outer(x, np.sin(tau))
    return (np.cos(nu * tau - phase).mean(axis=-1),
            np.cos((nu + 1.0) * tau - phase).mean(axis=-1))


@functools.lru_cache(maxsize=None)
def series(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``TERMS`` zeros j_k of J_nu and coefficients c_k, nu = d/2 - 1."""
    nu = d / 2.0 - 1.0
    # zeros lie beyond nu and more than 1 apart: bracket them on a unit
    # grid, then Newton from the secant point, J_nu' = (nu/x) J_nu - J_{nu+1}
    span = np.pi * (TERMS + 2) + 10 * max(nu, 0.0) ** (1 / 3)
    x = max(nu, 0.0) + 0.25 + np.arange(math.ceil(span))
    f = _bessel(nu, x)[0]
    i = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[:TERMS]
    j = x[i] + f[i] / (f[i] - f[i + 1])
    for _ in range(5):
        f, g = _bessel(nu, j)
        j = j - f / (nu / j * f - g)
    g = _bessel(nu, j)[1]
    log_c = (nu - 1.0) * np.log(j / 2.0) - math.lgamma(nu + 1.0) - np.log(np.abs(g))
    return _frozen(j, np.sign(g) * np.exp(log_c))


def survival(d: int, t) -> tuple[np.ndarray, np.ndarray]:
    """P(T_d > t) and the density of T_d at the times t > 0."""
    j, c = series(d)
    terms = c * np.exp(-0.5 * j * j * np.asarray(t, dtype=np.float64)[..., None])
    return terms.sum(axis=-1), (0.5 * j * j * terms).sum(axis=-1)


@functools.lru_cache(maxsize=None)
def _table(d: int):
    """The negated survival at the grid times (ascending), per interval the
    rows (survival at its start, 1 / its width, cubic coefficients)
    padded with the first row in front and the last behind, and c_1, j_1^2.

    Raises ValueError where the series cancels too much in float64 to
    place the grid's first time below a mass of 1e-8 (d of 44 and more).
    """
    j, c = series(d)
    # past t_tail the second term is below 2^-53 of the first
    t_tail = 2.0 * (math.log(abs(c[1] / c[0])) + 53 * math.log(2)) / (j[1] ** 2 - j[0] ** 2)
    # the series converges from 120 / j_TERMS^2 on (last term e^-60); the
    # grid starts where P(T_d <= t) reaches LOWER_MASS, above the rounding
    # of the series' largest term with 2^10 to spare
    t = np.geomspace(120.0 / j[-1] ** 2, t_tail, 512)
    noise = 2.0 ** -42 * np.abs(c * np.exp(-0.5 * j * j * t[:, None])).max(axis=1)
    lower = 1.0 - survival(d, t)[0]
    first = np.flatnonzero((lower >= LOWER_MASS) & (lower >= noise))
    if not (first.size and first[0] > 0 and noise[first[0]] <= 1e4 * LOWER_MASS):
        raise ValueError(f"cannot tabulate the first-passage time of d={d}: its series "
                         f"cancels beyond float64 precision")
    t = np.geomspace(t[first[0] - 1], t_tail, NODES)
    s, f = survival(d, t)
    # the Hermite cubic in x = (S - s_i) / h_i, h_i = s_{i+1} - s_i, with
    # the slopes dt/dS = -1/f scaled by h_i
    h = np.diff(s)
    m0, m1 = -h / f[:-1], -h / f[1:]
    dt = np.diff(t)
    rows = np.stack([s[:-1], 1.0 / h, t[:-1], m0, 3 * dt - 2 * m0 - m1, m0 + m1 - 2 * dt], axis=1)
    # searchsorted's index i in [0, NODES] picks padded row i, interval i - 1
    # clamped to the grid: the first below it, the last past it
    return *_frozen(-s, np.concatenate([rows[:1], rows, rows[-1:]])), c[0], j[0] ** 2


def _frozen(*arrays):
    """The arrays made read-only: the caches hand the same ones to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def times(d: int, u) -> np.ndarray:
    """T_d at the uniforms u in [0, 1): the time of survival 1 - u."""
    neg_s, rows, c1, j1sq = _table(d)
    target = 1.0 - np.asarray(u, dtype=np.float64)
    i = np.searchsorted(neg_s, -target)
    r = rows[i]
    x = target - r[:, 0]
    x *= r[:, 1]
    np.maximum(x, 0.0, out=x)
    np.minimum(x, 1.0, out=x)
    out = r[:, 5] * x
    out += r[:, 4]
    out *= x
    out += r[:, 3]
    out *= x
    out += r[:, 2]
    tail = i == neg_s.size    # below the grid's last survival
    if tail.any():
        out[tail] = 2.0 * np.log(c1 / target[tail]) / j1sq
    return out
