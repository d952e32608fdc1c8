"""Tests for the first-passage time sampler of the brownian walk's hops."""

import math

import numpy as np
import pytest
from scipy import special

from exitlaw import passage

DIMS = [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("d", DIMS)
def test_zeros_and_coefficients_match_scipy(d):
    nu = d / 2 - 1
    j, c = passage.series(d)
    assert j.shape == c.shape == (passage.TERMS,)
    # the first TERMS zeros, none skipped: J_nu changes sign once between them
    assert np.abs(special.jv(nu, j)).max() < 1e-14
    x = np.linspace(1e-3, j[-1] + 0.5, 200_000)
    assert np.count_nonzero(np.diff(np.sign(special.jv(nu, x)))) == passage.TERMS
    if nu == int(nu):
        assert np.allclose(j, special.jn_zeros(int(nu), passage.TERMS), rtol=1e-14, atol=0)
    want = j ** (nu - 1) / (2 ** (nu - 1) * special.gamma(nu + 1) * special.jv(nu + 1, j))
    assert np.allclose(c, want, rtol=1e-12, atol=0)


def test_survival_matches_the_closed_forms_in_d_1_and_3():
    t = np.geomspace(0.05, 8.0, 200)
    k = np.arange(400)[:, None]
    odd = 2 * k + 1
    d1 = 4 / np.pi * np.sum((-1.0) ** k / odd * np.exp(-odd ** 2 * np.pi ** 2 * t / 8), axis=0)
    d3 = 2 * np.sum((-1.0) ** k * np.exp(-(k + 1) ** 2 * np.pi ** 2 * t / 2), axis=0)
    assert np.allclose(passage.survival(1, t)[0], d1, rtol=0, atol=1e-14)
    assert np.allclose(passage.survival(3, t)[0], d3, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", DIMS)
def test_table_holds_the_mean_and_variance(d):
    # E g(T) = integral of g(t) f(t) dt by Gauss-Legendre on a geometric
    # grid from the table's first time, with g(t) the table's draw at the
    # survival of t: the draw's law, not the series', is what is checked
    t_lo = passage.times(d, [0.0])[0]
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.geomspace(t_lo, 40.0, 801)
    half = np.diff(edges)[:, None] / 2
    t = (edges[:-1, None] + half + half * x).ravel()
    weight = (half * w).ravel()
    s, f = passage.survival(d, t)
    keep = s > 1e-14
    draw = passage.times(d, 1.0 - s[keep])
    m1 = np.sum(weight[keep] * f[keep] * draw)
    m2 = np.sum(weight[keep] * f[keep] * draw ** 2)
    assert m1 == pytest.approx(1 / d, rel=1e-6, abs=0)
    assert m2 - m1 ** 2 == pytest.approx(2 / (d * d * (d + 2)), rel=1e-6, abs=0)


@pytest.mark.parametrize("d", DIMS)
def test_extreme_uniforms_give_finite_positive_times(d):
    u = np.array([0.0, 2.0 ** -53, 0.5, 1 - 2.0 ** -53])
    got = passage.times(d, u)
    assert np.isfinite(got).all() and (got > 0).all()
    # below LOWER_MASS every draw takes the table's first time
    assert got[0] == got[1]
    assert 1 - passage.survival(d, got[0])[0] < passage.LOWER_MASS
    assert got[1] < got[2] < got[3]
    # the tail inverts c_1 exp(-j_1^2 t / 2) = 2^-53
    j, c = passage.series(d)
    assert got[-1] == pytest.approx(2 * math.log(c[0] * 2.0 ** 53) / j[0] ** 2, rel=1e-12)


def test_times_are_monotone_in_the_uniform():
    u = np.sort(np.random.default_rng(0).random(100_000))
    assert np.all(np.diff(passage.times(2, u)) >= 0)


def test_dimensions_the_series_cannot_hold_are_refused():
    assert np.isfinite(passage.times(43, [0.5])).all()
    with pytest.raises(ValueError, match="d=44: its series cancels beyond float64"):
        passage.times(44, [0.5])


def formula_times(d, u):
    """T_d by the first form of ``times``: interval searchsorted - 1 clamped
    to the grid, the cubic in one expression, the tail found by comparison."""
    neg_s, padded, c1, j1sq = passage._table(d)
    s, rows = -neg_s, padded[1:-1]
    target = 1.0 - np.asarray(u, dtype=np.float64)
    i = np.searchsorted(-s, -target) - 1
    r = rows[np.minimum(np.maximum(i, 0), len(rows) - 1)]
    x = np.minimum(np.maximum((target - r[:, 0]) * r[:, 1], 0.0), 1.0)
    out = ((r[:, 5] * x + r[:, 4]) * x + r[:, 3]) * x + r[:, 2]
    tail = target < s[-1]
    out[tail] = 2.0 * np.log(c1 / target[tail]) / j1sq
    return out


@pytest.mark.parametrize("d", range(1, 10))
def test_times_equal_the_formula_byte_for_byte(d):
    # random uniforms; at every grid node the uniform of its survival and
    # one ulp either side, and of one ulp either side of the survival; and
    # the two ends of [0, 1)
    s = -passage._table(d)[0]
    node = 1.0 - s
    u = np.concatenate([np.random.default_rng(d).random(200_000),
                        node, np.nextafter(node, 0.0), np.nextafter(node, 1.0),
                        1.0 - np.nextafter(s, 0.0), 1.0 - np.nextafter(s, 2.0),
                        [0.0, 1.0 - 2.0 ** -53]])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(passage.times(d, u).view(np.uint64),
                          formula_times(d, u).view(np.uint64))
    assert passage.times(d, u[:0]).shape == (0,)
