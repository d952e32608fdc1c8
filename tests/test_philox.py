"""Known-answer and cross-implementation tests for the counter engine.

numpy ships an independent Philox-4x64-10 (numpy.random.Philox); we use
it as the reference implementation. One wrinkle: numpy pre-increments
its 256-bit counter before producing a block, so our block k under
counter (k, tag, 0, 0) equals numpy's output when numpy is *seeded* with
the 256-bit predecessor of that counter.
"""

import numpy as np
import pytest
from numpy.random import Philox

from exitlaw import philox

U64 = np.uint64
ALL_ONES = 2**64 - 1


def numpy_blocks(seed, stream_id, substream, nblocks):
    """Blocks 0..nblocks-1 of our layout, from numpy's Philox."""
    if substream == 0:
        # predecessor of (0,0,0,0) wraps every limb
        ctr = [ALL_ONES] * 4
    else:
        ctr = [ALL_ONES, substream - 1, 0, 0]
    bg = Philox(key=np.array([seed, stream_id], dtype=U64),
                counter=np.array(ctr, dtype=U64))
    return bg.random_raw(4 * nblocks)


# Frozen from numpy.random.Philox (key=[42,7]), 2026-08: guards against
# both our code and a hypothetical regression in the reference.
KNOWN_BLOCK0 = [0x2FD1BC0D2C8697BB, 0x8EE17F67A549BBA6,
                0x1BDCE1F847E7DF47, 0xE123B6BBE4E89F03]
KNOWN_BLOCKS_1_2 = [0xA64064F34E84B9A3, 0xE287959A866A08FD,
                    0x8DC181F009B96C03, 0xF3F6001D4FA83454,
                    0x69C633EE791DF6B3, 0x89327F7A8F0127A4,
                    0x1ED8260458996FF6, 0x4299F7433FB1683E]
KNOWN_GAUSS_BLOCK0 = [0xCAD494D0B15CF727, 0xCA384A08830E53F2,
                      0x93EF0DC270112D4B, 0x019FD0ADCABBC240]


def test_known_answer_words():
    w = philox.raw_words(42, 7, 0, 0, 12)
    assert w.dtype == np.uint64
    assert list(w[:4]) == KNOWN_BLOCK0
    assert list(w[4:12]) == KNOWN_BLOCKS_1_2


def test_known_answer_gauss_substream():
    w = philox.raw_words(42, 7, 1, 0, 4)
    assert list(w) == KNOWN_GAUSS_BLOCK0


@pytest.mark.parametrize("seed,stream_id,substream",
                         [(0, 0, 0), (42, 7, 0), (42, 7, 1), (42, 7, 2),
                          (12345, ALL_ONES, 0), (ALL_ONES, 3, 1)])
def test_matches_numpy_reference(seed, stream_id, substream):
    ref = numpy_blocks(seed, stream_id, substream, 16)
    mine = philox.raw_words(seed, stream_id, substream, 0, 64)
    assert np.array_equal(mine, ref)


def test_substreams_do_not_collide():
    a = philox.raw_words(1, 2, 0, 0, 64)
    b = philox.raw_words(1, 2, 1, 0, 64)
    c = philox.raw_words(1, 2, 2, 0, 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_streams_do_not_collide():
    ids = np.arange(100, dtype=U64)
    w = philox.raw_words(9, ids, 0, 0, 8)
    assert w.shape == (100, 8)
    # all rows pairwise distinct — 8 words of a good cipher never repeat
    assert len({tuple(row) for row in w}) == 100


def test_random_access_is_consistent():
    whole = philox.raw_words(5, 11, 0, 0, 301)
    for start, count in [(0, 1), (3, 5), (4, 8), (7, 100), (250, 51), (300, 1)]:
        window = philox.raw_words(5, 11, 0, start, count)
        assert np.array_equal(window, whole[start:start + count])


def test_chunked_fill_matches_single_fill(monkeypatch):
    # 200 words from word 2 span 51 blocks: a budget of 64 is one stream a pass
    ids = np.arange(5, dtype=U64)
    whole = philox.raw_words(3, ids, 1, 2, 200)
    monkeypatch.setattr(philox, "_CHUNK_BLOCKS", 64)
    chunked = philox.raw_words(3, ids, 1, 2, 200)
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("count", [1, 2, 7, 255])
def test_wide_path_fills_whole_streams_within_the_block_budget(monkeypatch, count):
    calls = []
    fill = philox._fill_words

    def spy(seed, ids, substream, start, count, out):
        calls.append((ids.copy(), count, out.shape))
        fill(seed, ids, substream, start, count, out)

    ids = np.arange(1000, dtype=U64)
    want = philox.raw_words(3, ids, 2, 5, count)
    monkeypatch.setattr(philox, "_CHUNK_BLOCKS", 300)
    monkeypatch.setattr(philox, "_fill_words", spy)
    assert np.array_equal(philox.raw_words(3, ids, 2, 5, count), want)
    nblocks = ((5 + count + 3) >> 2) - (5 >> 2)
    assert len(calls) > 1
    assert np.array_equal(np.concatenate([c[0] for c in calls]), ids)
    for part, words, shape in calls:
        assert words == count and shape == (part.size, count)
        assert part.size * nblocks <= 300


def test_vectorized_matches_scalar_streams():
    ids = np.array([0, 1, 17, 2**40], dtype=U64)
    batch = philox.raw_words(77, ids, 2, 5, 23)
    for i, sid in enumerate(ids):
        assert np.array_equal(batch[i], philox.raw_words(77, int(sid), 2, 5, 23))


def test_cipher_avalanche():
    # flipping one counter bit (block 0 -> 1) should flip ~half the output bits
    lanes = philox.philox4x64(np.array([0, 1], dtype=U64), 0, 0, np.zeros((1, 1), dtype=U64))
    diff = sum(bin(int(lane[0, 0]) ^ int(lane[0, 1])).count("1") for lane in lanes)
    assert 80 < diff < 176  # 256 output bits, expect ~128 flips


# ---------------------------------------------------------------------------
# tiles: narrow requests (few streams, many words) are cut along their
# blocks, wide ones (many streams, few words) along their streams
# ---------------------------------------------------------------------------


def numpy_words(seed, stream_id, substream, start, count):
    """Words [start, start+count) of one stream, from numpy's Philox."""
    return numpy_blocks(seed, stream_id, substream, (start + count + 3) // 4)[start:start + count]


@pytest.mark.parametrize("substream", [0, 1, 2])
@pytest.mark.parametrize("start", [0, 1, 2, 3, 5, 6, 7, 4097])
def test_narrow_matches_wide_substreams_and_starts(monkeypatch, substream, start):
    # 16-block tiles: the 3 narrow streams cross 3 or 4 tiles each, the
    # 40 wide ones share tiles 5 at a time; both agree with numpy
    monkeypatch.setattr(philox, "_CHUNK_BLOCKS", 16)
    ids = np.array([0, 1, 2**40 + 3, *range(5, 42)], dtype=U64)
    narrow = philox.raw_words(8, ids[:3], substream, start, 150)
    wide = philox.raw_words(8, ids, substream, start, 9)
    assert np.array_equal(narrow[:, :9], wide[:3])
    for sid, row in zip(ids[:3], narrow):
        assert np.array_equal(row, numpy_words(8, int(sid), substream, start, 150))


@pytest.mark.parametrize("seed,stream_id", [(ALL_ONES, 0), (0, ALL_ONES), (ALL_ONES, ALL_ONES)])
@pytest.mark.parametrize("substream", [0, 1])
def test_narrow_matches_wide_at_all_ones_keys(monkeypatch, seed, stream_id, substream):
    monkeypatch.setattr(philox, "_CHUNK_BLOCKS", 4)
    ids = np.array([stream_id, 1, 2, 3], dtype=U64)
    got = philox.raw_words(seed, ids[:1], substream, 3, 50)
    assert np.array_equal(got[0], numpy_words(seed, stream_id, substream, 3, 50))
    assert np.array_equal(got[:, :10], philox.raw_words(seed, ids, substream, 3, 10)[:1])


def test_narrow_scalar_and_array_stream_ids():
    scalar = philox.raw_words(5, 11, 0, 9, 300)
    assert scalar.shape == (300,)
    assert np.array_equal(scalar, numpy_words(5, 11, 0, 9, 300))
    batch = philox.raw_words(5, np.array([11], dtype=U64), 0, 9, 300)
    assert batch.shape == (1, 300)
    assert np.array_equal(batch[0], scalar)


def test_narrow_matches_numpy_reference_directly():
    # one long request of 4 tiles' worth of words, at the default tile size
    count = 4 * 4 * philox._CHUNK_BLOCKS + 300
    for start in (0, 6):
        got = philox.raw_words(42, 7, 1, start, count)
        if start == 0:
            assert list(got[:4]) == KNOWN_GAUSS_BLOCK0
        assert np.array_equal(got, numpy_words(42, 7, 1, start, count))


@pytest.mark.parametrize("tile", [1, 3, 64])
def test_tiles_leave_every_word_unchanged(monkeypatch, tile):
    # many short streams and one stream longer than a tile, at block-0
    # starts 1-3 (the first block partly dropped) and a start past 4096
    monkeypatch.setattr(philox, "_CHUNK_BLOCKS", tile)
    ids = np.arange(2 * tile + 10, dtype=U64)   # 3 blocks each: several tiles
    for substream in (0, 1, 2):
        for start in (1, 2, 3, 4097):
            short = philox.raw_words(3, ids, substream, start, 9)
            long = philox.raw_words(3, ids[-1], substream, start, 4 * tile + 61)
            assert np.array_equal(long[:9], short[-1])
            assert np.array_equal(long, numpy_words(3, int(ids[-1]), substream, start, long.size))
            for sid in (0, ids.size - 2):
                assert np.array_equal(short[sid], numpy_words(3, sid, substream, start, 9))
