"""Distributional and reproducibility tests for the stream layer."""

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
    # force the guard: stream 5's main Gaussians all have zero norm
    real, retry_calls = rng.gaussian_values, []

    def fake(seed, stream_ids, start, count, substream=rng.TAG_GAUSS):
        if substream == rng.TAG_RETRY:
            retry_calls.append((int(stream_ids), start, count))
            return real(seed, stream_ids, start, count, substream)
        return np.zeros((np.size(stream_ids), count))

    monkeypatch.setattr(rng, "gaussian_values", fake)
    q = rng.sphere_rows(13, np.array([5], dtype=np.uint64), 0, 3)[0, 0]
    assert retry_calls == [(5, 0, 3)]
    expect = real(13, 5, 0, 3, substream=rng.TAG_RETRY)
    assert np.array_equal(q, expect / np.linalg.norm(expect))
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_sphere_rows_matches_sequential_streams():
    # Reference: one stream at a time, its d Gaussians normalized by a
    # vector dot product. Same Gaussian words, so agreement to 1 ulp;
    # exact equality is not contracted here (the two paths round the
    # final division differently). The sampler kernels are batch-only, so
    # their bit-exactness never rests on this.
    ids = np.arange(6, dtype=np.uint64)
    batch = rng.sphere_rows(31, ids, 0, 4)[:, 0]
    for i in range(6):
        g = rng.gaussian_values(31, i, 0, 4)
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
    # stream 7's direction at word s = 9 is degenerate: its redraw is the
    # same in a 5-round window from word 3, alone, and in a wider batch,
    # and it is tag 2's words [s, s + d), normalized as a main direction is
    d, s = 3, 9
    w = rng.gaussian_values(4, 7, s, d, substream=rng.TAG_RETRY)
    retries = zero_directions(d, {7: (s,)})
    window = rng.sphere_rows(4, np.array([7], dtype=np.uint64), 3, d, rounds=5)[0, 2]
    alone = rng.sphere_rows(4, np.array([7], dtype=np.uint64), s, d)[0, 0]
    wide = rng.sphere_rows(4, np.array([1, 7, 30], dtype=np.uint64), s, d, rounds=2)[1, 0]
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
    with pytest.raises(RuntimeError, match=rf"stream 5: .* Gaussian word 6 .* "
                                           rf"after {rng.MAX_REDRAWS} redraw attempts"):
        rng.sphere_rows(1, np.array([5], dtype=np.uint64), 6, 3)
    assert calls == [(6, 3, rng.TAG_GAUSS)] + [(6, 3, rng.TAG_RETRY + a)
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
    window = rng.sphere_rows(12, ids, 6, 3, rounds=5)
    assert window.shape == (3, 5, 3)
    for t in range(5):
        assert np.array_equal(window[:, t], rng.sphere_rows(12, ids, 6 + 3 * t, 3)[:, 0])


def test_sphere_rows_window_redraws_round_by_round(zero_directions):
    # zero the main Gaussians of (stream 1, rounds 0 and 2) and (stream 0,
    # round 2): the window must redraw them exactly as five one-round
    # calls do
    d = 2
    retries = zero_directions(d, {1: (0, 2 * d), 0: (2 * d,)})
    ids = np.array([0, 1, 2], dtype=np.uint64)
    window = rng.sphere_rows(4, ids, 0, d, rounds=5)
    assert sorted(retries) == [(0, 4, 2), (1, 0, 2), (1, 4, 2)]
    for t in range(5):
        assert np.array_equal(window[:, t], rng.sphere_rows(4, ids, t * d, d)[:, 0])
    assert np.allclose(np.linalg.norm(window, axis=2), 1.0)
