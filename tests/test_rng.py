"""Distributional and reproducibility tests for the stream layer."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats as sps

from exitlaw import philox, rng

N_BIG = 100_000


def test_uniform_range_and_ks():
    u = rng.uniform_values(0, 1, 0, 10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    stat, _ = sps.kstest(u, "uniform")
    assert stat < 0.02  # ~1.63/sqrt(1e4) is the 1% critical value


def test_gaussian_ks_and_moments():
    g = rng.gaussian_values(0, 1, 0, N_BIG)
    stat, _ = sps.kstest(g[:10_000], "norm")
    assert stat < 0.02
    assert abs(g.mean()) < 0.02          # SE = 1/sqrt(1e5) ~ 0.0032
    assert abs(g.var() - 1.0) < 0.02     # SE of var ~ sqrt(2/1e5) ~ 0.0045
    assert abs(sps.skew(g)) < 0.05
    assert abs(sps.kurtosis(g)) < 0.1


def test_gaussian_random_access_bit_exact():
    whole = rng.gaussian_values(3, 5, 0, 11)
    parts = [rng.gaussian_values(3, 5, s, c) for s, c in [(0, 3), (3, 5), (8, 3)]]
    assert np.array_equal(np.concatenate(parts), whole)
    # odd starts too
    assert np.array_equal(rng.gaussian_values(3, 5, 1, 4), whole[1:5])
    assert np.array_equal(rng.gaussian_values(3, 5, 7, 1), whole[7:8])


def test_gaussian_batch_matches_scalar():
    ids = np.array([2, 9, 2**33], dtype=np.uint64)
    batch = rng.gaussian_values(1, ids, 4, 7)
    for i, sid in enumerate(ids):
        assert np.array_equal(batch[i], rng.gaussian_values(1, int(sid), 4, 7))


def test_stream_cursors_are_contiguous():
    # consecutive windows of a stream read consecutive values
    a = rng.gaussian_values(8, 3, 0, 5)
    b = rng.gaussian_values(8, 3, 5, 4)
    assert np.array_equal(np.concatenate([a, b]), rng.gaussian_values(8, 3, 0, 9))
    u1 = rng.uniform_values(8, 3, 0, 3)
    u2 = rng.uniform_values(8, 3, 3, 2)
    assert np.array_equal(np.concatenate([u1, u2]), rng.uniform_values(8, 3, 0, 5))


def test_streams_are_deterministic():
    a = rng.gaussian_values(1, 2, 0, 64)
    b = rng.gaussian_values(1, 2, 0, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng.gaussian_values(1, 3, 0, 64))
    assert not np.array_equal(a, rng.gaussian_values(2, 2, 0, 64))


@pytest.mark.parametrize("start,count", [(0, 2), (0, 3), (1, 4), (5, 64)])
def test_gaussian_values_match_out_of_place_box_muller(start, count):
    # the in-place Box-Muller gives the module docstring's formula bit for bit
    ids = np.array([0, 3, 2**40], dtype=np.uint64)
    p0 = start >> 1
    w = philox.raw_words(6, ids, rng.TAG_GAUSS, 2 * p0, 2 * (((start + count + 1) >> 1) - p0))
    u1 = ((w[:, 0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0 ** -53
    u2 = (w[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    want = np.empty(w.shape)
    want[:, 0::2] = radius * np.cos(angle)
    want[:, 1::2] = radius * np.sin(angle)
    off = start - 2 * p0
    got = rng.gaussian_values(6, ids, start, count)
    assert np.array_equal(got, want[:, off : off + count])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_unit_rows_normalizes_in_place_as_out_of_place_division(d):
    # g / |g| bit for bit, written over a contiguous g; a window of an odd
    # Gaussian count per stream (d odd) is a strided view
    ids = np.arange(50, dtype=np.uint64)
    window = rng.gaussian_values(2, ids, 0, 3 * d).reshape(50, 3, d)
    flat = window.reshape(-1, d)
    want = (flat / np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]).reshape(50, 3, d)
    g = window.copy()
    got = rng.unit_rows(2, ids, 0, g)
    assert np.array_equal(got, want)
    assert np.shares_memory(got, g) and np.array_equal(g, want)
    assert np.array_equal(rng.unit_rows(2, ids, 0, window), want)


def one_stream_directions(seed, n, d):
    """n unit-sphere directions read in sequence from stream 0, as (n, d)."""
    return rng.sphere_rows(seed, np.zeros(1, dtype=np.uint64), 0, d, rounds=n)[0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_sphere_point_is_exactly_on_sphere(d):
    center = np.linspace(-1.0, 1.0, d)
    q = center + 2.5 * one_stream_directions(4, 50, d)
    assert np.all(np.abs(np.linalg.norm(q - center, axis=1) - 2.5) <= 1e-12 * 2.5)


def test_sphere_d1_is_two_point_uniform():
    pts = one_stream_directions(6, 10_000, 1)
    assert set(np.unique(pts)) == {-1.0, 1.0}
    # Binomial(1e4, 1/2): 4 sigma is 200
    assert 4800 <= int((pts > 0).sum()) <= 5200


def test_sphere_directions_have_isotropic_moments():
    pts = one_stream_directions(2, 20_000, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # E[x_i] = 0, E[x_i x_j] = delta_ij / d
    assert np.abs(pts.mean(axis=0)).max() < 0.02
    cov = pts.T @ pts / len(pts)
    assert np.abs(cov - np.eye(3) / 3).max() < 0.01


def test_sphere_angles_uniform_d2():
    pts = one_stream_directions(9, 10_000, 2)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    stat, _ = sps.kstest((ang + np.pi) / (2 * np.pi), "uniform")
    assert stat < 0.02


def test_underflow_redraw_uses_retry_substream(monkeypatch):
    # force the guard: stream 5's main Gaussians all have zero norm (d = 5:
    # directions in d <= 4 read no Gaussians)
    real, retry_calls = rng.gaussian_values, []

    def fake(seed, stream_ids, start, count, substream=rng.TAG_GAUSS):
        if substream == rng.TAG_RETRY:
            retry_calls.append((int(stream_ids), start, count))
            return real(seed, stream_ids, start, count, substream)
        return np.zeros((np.size(stream_ids), count))

    monkeypatch.setattr(rng, "gaussian_values", fake)
    q = rng.sphere_rows(13, np.array([5], dtype=np.uint64), 0, 5)[0, 0]
    assert retry_calls == [(5, 0, 5)]
    expect = real(13, 5, 0, 5, substream=rng.TAG_RETRY)
    assert np.array_equal(q, expect / np.linalg.norm(expect))
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_sphere_rows_matches_sequential_streams():
    # Reference: one stream at a time, its d Gaussians normalized by a
    # vector dot product. Same Gaussian words, so agreement to 1 ulp;
    # exact equality is not contracted here (the two paths round the
    # final division differently). The sampler kernels are batch-only, so
    # their bit-exactness never rests on this.
    ids = np.arange(6, dtype=np.uint64)
    batch = rng.sphere_rows(31, ids, 0, 5)[:, 0]
    for i in range(6):
        g = rng.gaussian_values(31, i, 0, 5)
        q = g / np.sqrt(g @ g)
        np.testing.assert_allclose(batch[i], q, rtol=3e-16, atol=0)


def test_sphere_rows_batch_width_invariant():
    # the load-bearing exactness: lockstep result independent of batching
    ids = np.arange(9, dtype=np.uint64)
    whole = rng.sphere_rows(31, ids, 8, 3)
    for lo, hi in [(0, 4), (4, 9)]:
        part = rng.sphere_rows(31, ids[lo:hi], 8, 3)
        assert np.array_equal(part, whole[lo:hi])


def test_sphere_rows_redraw_is_pure(zero_directions):
    # stream 7's direction of round 2 (word s = 10) is degenerate: its
    # redraw is the same in a 5-round window from round 1, alone, and in a
    # wider batch, and it is tag 2's words [s, s + d), normalized as a main
    # direction is
    d, s = 5, 10
    w = rng.gaussian_values(4, 7, s, d, substream=rng.TAG_RETRY)
    retries = zero_directions(d, {7: (s,)})
    window = rng.sphere_rows(4, np.array([7], dtype=np.uint64), 1, d, rounds=5)[0, 1]
    alone = rng.sphere_rows(4, np.array([7], dtype=np.uint64), 2, d)[0, 0]
    wide = rng.sphere_rows(4, np.array([1, 7, 30], dtype=np.uint64), 2, d, rounds=2)[1, 0]
    assert retries == [(7, s, rng.TAG_RETRY)] * 3
    assert np.array_equal(window, alone) and np.array_equal(wide, alone)
    assert np.array_equal(alone, w / np.sqrt(np.einsum("i,i", w, w)))


def test_sphere_rows_redraws_are_capped(monkeypatch):
    # every Gaussian word zero: attempt a reads the direction's words on
    # substream TAG_RETRY + a, and the last attempt raises naming the stream
    calls = []

    def zeros(seed, stream_ids, start, count, substream=rng.TAG_GAUSS):
        calls.append((start, count, substream))
        return np.zeros(np.shape(stream_ids) + (count,))

    monkeypatch.setattr(rng, "gaussian_values", zeros)
    with pytest.raises(RuntimeError, match=rf"stream 5: .* Gaussian word 10 .* "
                                           rf"after {rng.MAX_REDRAWS} redraw attempts"):
        rng.sphere_rows(1, np.array([5], dtype=np.uint64), 2, 5)
    assert calls == [(10, 5, rng.TAG_GAUSS)] + [(10, 5, rng.TAG_RETRY + a)
                                                for a in range(rng.MAX_REDRAWS)]


def test_lookahead_rounds_doubles_within_caps():
    assert rng.lookahead_rounds(10, 2, 0) == 1
    assert rng.lookahead_rounds(10, 2, 1) == 1
    assert rng.lookahead_rounds(10, 2, 5) == 5        # at most the rounds run so far
    assert rng.lookahead_rounds(1, 2, 10**9) == rng.WINDOW_WORDS // 2
    assert rng.lookahead_rounds(1000, 2, 10**9) == rng.WINDOW_VALUES // 2000
    assert rng.lookahead_rounds(10**6, 3, 10**9) == 1  # one round may exceed the cap
    assert rng.WINDOW_WORDS == 128   # where windows have always been cut
    for w in range(1, 9):
        # one stream's window fills WINDOW_WORDS, and its Gaussian request
        # (K*w words, +2 for pair alignment) fits in one Philox tile
        k = rng.lookahead_rounds(1, w, 10**9)
        assert k == rng.WINDOW_WORDS // w
        assert (k * w + 2) // 4 + 2 <= philox._CHUNK_BLOCKS


def test_sphere_rows_window_matches_single_rounds():
    ids = np.array([3, 8, 2**35], dtype=np.uint64)
    for d in (2, 3, 4, 5):
        window = rng.sphere_rows(12, ids, 6, d, rounds=5)
        assert window.shape == (3, 5, d)
        for t in range(5):
            assert np.array_equal(window[:, t], rng.sphere_rows(12, ids, 6 + t, d)[:, 0])


def test_sphere_rows_window_redraws_round_by_round(zero_directions):
    # zero the main Gaussians of (stream 1, rounds 0 and 2) and (stream 0,
    # round 2): the window must redraw them exactly as five one-round
    # calls do
    d = 5
    retries = zero_directions(d, {1: (0, 2 * d), 0: (2 * d,)})
    ids = np.array([0, 1, 2], dtype=np.uint64)
    window = rng.sphere_rows(4, ids, 0, d, rounds=5)
    assert sorted(retries) == [(0, 10, 2), (1, 0, 2), (1, 10, 2)]
    for t in range(5):
        assert np.array_equal(window[:, t], rng.sphere_rows(4, ids, t, d)[:, 0])
    assert np.allclose(np.linalg.norm(window, axis=2), 1.0)


# ---------------------------------------------------------------------------
# directions from raw words in d = 2, 3, 4
# ---------------------------------------------------------------------------


def word_directions_reference(seed, ids, first, d, rounds):
    """The module docstring's direction formulas, out of place, with np.cos and np.sin."""
    w = rng.SPHERE_WORDS[d]
    words = philox.raw_words(seed, ids, rng.TAG_GAUSS, first * w, rounds * w)
    u = ((words >> np.uint64(11)) * 2.0 ** -53).reshape(len(ids), rounds, w)

    def circle(v):
        return np.stack([np.cos(2.0 * np.pi * v), np.sin(2.0 * np.pi * v)], axis=-1)

    if d == 2:
        return circle(u[..., 0])
    if d == 3:
        s = 2.0 * np.sqrt(u[..., 0] * (1.0 - u[..., 0]))
        return np.concatenate([s[..., None] * circle(u[..., 1]),
                               2.0 * u[..., :1] - 1.0], axis=-1)
    return np.concatenate([np.sqrt(1.0 - u[..., :1]) * circle(u[..., 1]),
                           np.sqrt(u[..., :1]) * circle(u[..., 2])], axis=-1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_word_directions_follow_the_formulas(d):
    # the table sin/cos differs from libm on the rounded angle by < 1e-15
    ids = np.array([0, 5, 2**40, 2**64 - 1], dtype=np.uint64)
    got = rng.sphere_rows(17, ids, 3, d, rounds=50)
    want = word_directions_reference(17, ids, 3, d, 50)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)


def many_directions(d, n=40_000):
    """n directions of round 0, one per stream, as (n, d)."""
    return rng.sphere_rows(5, np.arange(n, dtype=np.uint64), 0, d)[:, 0]


def test_word_direction_marginals_are_uniform():
    # d = 2: the angle; d = 3: Archimedes' z ~ U[-1, 1] and the azimuth;
    # d = 4: the first pair's squared radius ~ U[0, 1]
    crit = 1.63 / math.sqrt(40_000)   # 1 % critical value of the KS statistic
    y2, y3, y4 = (many_directions(d) for d in (2, 3, 4))
    samples = [(np.arctan2(y2[:, 1], y2[:, 0]) + np.pi) / (2 * np.pi),
               (y3[:, 2] + 1.0) / 2.0,
               (np.arctan2(y3[:, 1], y3[:, 0]) + np.pi) / (2 * np.pi),
               y4[:, 0] ** 2 + y4[:, 1] ** 2]
    for u in samples:
        assert sps.kstest(u, "uniform").statistic < crit


@pytest.mark.parametrize("d", [2, 3, 4])
def test_word_directions_are_isotropic_and_unit(d):
    # E[y y^T] = I/d, entry by entry within 4 SE; |y| is 1 to 2 ulp
    y = many_directions(d)
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() <= 4.4e-16
    prods = y[:, :, None] * y[:, None, :]
    se = prods.std(axis=0) / math.sqrt(y.shape[0])
    assert (np.abs(prods.mean(axis=0) - np.eye(d) / d) <= 4 * se).all()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_word_directions_any_split_of_the_window(monkeypatch, d):
    # rounds [3, 14) as one request, in pieces, in stream halves, and in
    # tiles of 5 directions: the same bits
    ids = np.arange(7, dtype=np.uint64) * np.uint64(2**33)
    whole = rng.sphere_rows(8, ids, 3, d, rounds=11)
    for cuts in ([3, 4, 14], [3, 10, 11, 14], [3, 5, 6, 7, 13, 14]):
        parts = [rng.sphere_rows(8, ids, a, d, rounds=b - a) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)
    halves = [rng.sphere_rows(8, ids[lo:hi], 3, d, rounds=11) for lo, hi in [(0, 3), (3, 7)]]
    assert np.array_equal(np.concatenate(halves), whole)
    monkeypatch.setattr(rng, "_TILE", 5)
    assert np.array_equal(rng.sphere_rows(8, ids, 3, d, rounds=11), whole)
    assert np.array_equal(rng.sphere_rows(8, ids, 3, d, rounds=2), whole[:, :2])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_word_directions_read_only_their_words(monkeypatch, d):
    # w words per round from TAG_GAUSS: no Gaussian and no TAG_RETRY word
    reads, raw = [], philox.raw_words

    def spy(seed, stream_ids, substream, start, count):
        reads.append((substream, start, count))
        return raw(seed, stream_ids, substream, start, count)

    monkeypatch.setattr(philox, "raw_words", spy)
    monkeypatch.setattr(rng, "gaussian_values", None)   # any Gaussian would fail
    rng.sphere_rows(2, np.arange(30, dtype=np.uint64), 4, d, rounds=6)
    w = rng.SPHERE_WORDS[d]
    assert reads == [(rng.TAG_GAUSS, 4 * w, 6 * w)]


#: sha256 of ``sphere_rows(21, GAUSSIAN_IDS, 7, d, rounds=9)``, frozen
#: from version 0.5.0, whose every dimension drew the Gaussian rule
GAUSSIAN_DIGESTS = {
    1: "55137e38e3d8a38ee1ca2f16cc74fcf616adbe77b28a0ab2c58d1e7fe6c7df30",
    5: "fff3697029ee2114bae60b51a51fffbadbd83b24420f4699d3fd43194073cfa0",
    6: "0aa6e9e075a98f193193d9bf07868c958b02495a83e92d311054e9a82150eb2b",
}
GAUSSIAN_IDS = np.array([0, 3, 2**40, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("d", sorted(GAUSSIAN_DIGESTS))
def test_gaussian_rule_dimensions_keep_their_bytes(d):
    # outside d = 2, 3, 4, round t is Gaussian words [t d, (t+1) d) over its norm
    got = rng.sphere_rows(21, GAUSSIAN_IDS, 7, d, rounds=9)
    assert hashlib.sha256(got.tobytes()).hexdigest() == GAUSSIAN_DIGESTS[d]
    g = rng.gaussian_values(21, GAUSSIAN_IDS, 7 * d, 9 * d).reshape(-1, d)
    want = g / np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    assert np.array_equal(got.reshape(-1, d), want)


def test_cos_sin_error_at_the_ends_and_table_edges():
    # the angle 2 pi m 2^-53 of m = w >> 11: words 0 and 2^64 - 1, and m at
    # every table edge k 2^43 and one unit to each side of it
    edges = np.arange(1 << rng.TRIG_BITS, dtype=np.int64) << 43
    m = np.concatenate([edges, edges[1:] - 1, edges + 1])
    words = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64),
                            m.astype(np.uint64) << np.uint64(11)])
    cos, sin = np.empty(words.size), np.empty(words.size)
    rng._cos_sin(words.copy(), cos, sin)
    exact = (words >> np.uint64(11)).astype(np.longdouble)
    angle = 8 * np.arctan(np.longdouble(1)) * exact / np.longdouble(2.0 ** 53)
    assert np.abs(cos - np.cos(angle)).max() <= 1e-15
    assert np.abs(sin - np.sin(angle)).max() <= 1e-15
    assert cos[0] == 1.0 and sin[0] == 0.0
