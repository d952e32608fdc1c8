"""Counter-based random engine: Philox-4x64 with 10 rounds.

Every output word is a pure function of ``(seed, stream_id, substream,
index)``, so any slice of any stream can be generated independently, out
of order, and concurrently — no generator state to carry, split, or jump.
That property is what makes batched sampling kernels bit-identical to
one-sample-at-a-time execution regardless of batch width or worker count.

The multipliers and Weyl key increments are the published Philox-4x64
parameterization (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3"). The test suite checks the words against frozen known answers
and against numpy's own ``numpy.random.Philox``, word for word.

Layout
------
key      = (seed, stream_id)
counter  = (block_index, substream, 0, 0)
block    = 4 output words; word ``w`` of a substream lives in block
           ``w >> 2``, lane ``w & 3``.

``philox4x64`` enciphers only this layout, whose constant counter words
let it fold the first two rounds (see there).

Tiles
-----
``raw_words`` enciphers a request in tiles of at most ``_CHUNK_BLOCKS``
(stream, block) pairs, in plain vectorized numpy on uint64. A request of
few words per stream (one hop or proposal for many walks) is tiled along
its streams, whole streams to a tile; a stream longer than a tile (the
Monte Carlo draws of ``ball.kernel_normalization``) is tiled along its
blocks as well. The cipher holds about ten uint64 arrays per tile, so a
tile of 2^14 pairs needs ~1.3 MB of scratch: it stays inside a 2 MB L2
cache, where one pass over a whole request of 10^5 streams (~9 MB)
spills out of it. Integer arithmetic has no rounding, so the tiling
cannot change a word.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
_SH32 = _U64(32)
_ROUNDS = 10
_M0_HI, _M0_LO = _U64(int(_M0) >> 32), _M0 & _MASK32
_M1_HI, _M1_LO = _U64(int(_M1) >> 32), _M1 & _MASK32

# Bytes of cipher scratch per (stream, block) pair: about ten uint64 arrays.
_PAIR_BYTES = 80

# Most (stream, block) pairs one tile enciphers: 1.25 MiB of scratch, so
# 2^14 pairs, which leaves room in a 2 MB L2 cache for the tile's output.
_CHUNK_BLOCKS = (5 << 18) // _PAIR_BYTES


def _mulhi(c_hi, c_lo, x, out, t1, t2, t3):
    """High word of the 128-bit product of a constant and a uint64 array, into ``out``.

    numpy has no 128-bit integers, so the high word is assembled from
    32-bit half-products (c = c_hi*2^32 + c_lo), in place in the scratch
    arrays t1..t3; no partial sum can pass 2^64. The caller holds
    ``np.errstate(over="ignore")`` for the wrapping products.
    """
    np.bitwise_and(x, _MASK32, out=t1)  # x_lo
    np.right_shift(x, _SH32, out=t2)    # x_hi
    np.multiply(t1, c_lo, out=out)
    out >>= _SH32
    t1 *= c_hi
    t1 += out                           # c_hi*x_lo + carry of c_lo*x_lo
    np.right_shift(t1, _SH32, out=out)
    t1 &= _MASK32
    np.multiply(t2, c_lo, out=t3)
    t1 += t3                            # c_lo*x_hi + low half of the above
    t1 >>= _SH32
    out += t1
    t2 *= c_hi
    out += t2
    return out


def philox4x64(blocks, substream: int, seed: int, ids):
    """The 10-round cipher on counters ``(block, substream, 0, 0)`` under keys ``(seed, id)``.

    blocks is a (nblocks,) and ids an (m, 1) uint64 array; returns the
    four output lanes, each (m, nblocks). Every request enciphers this
    layout, so the first two rounds are folded: round 1's x2 and x3 are
    zero, so its M1 product vanishes and its M0 product depends on the
    block alone, and round 2's x0 and x1 are still constants, so its M0
    product is a scalar. Only rounds 2-10's M1 and rounds 3-10's M0
    products run on (m, nblocks) arrays.
    """
    shape = (ids.shape[0], blocks.shape[0])
    x0, x1, x3_buf, hi0, hi1, t1, t2, t3 = (np.empty(shape, dtype=_U64) for _ in range(8))
    with np.errstate(over="ignore"):
        # round 1, key (seed, id): x0 = substream ^ seed, x1 = 0,
        # x2 = hi(M0 b) ^ id, x3 = lo(M0 b)
        x2 = ids ^ _mulhi(_M0_HI, _M0_LO, blocks, *(np.empty_like(blocks) for _ in range(4)))
        lo_b = blocks * _M0
        p = (substream ^ seed) * int(_M0)    # round 2's M0 product, all 128 bits
        # round 2, key (seed + W0, id + W1): x0 = hi(M1 x2) ^ k0, x1 = lo(M1 x2),
        # x2 = lo(M0 b) ^ hi(p) ^ k1, x3 = lo(p), a scalar until round 3
        k0, k1 = _U64((seed + int(_W0)) & _MASK64), ids + _W1
        _mulhi(_M1_HI, _M1_LO, x2, x0, t1, t2, t3)
        x0 ^= k0
        np.multiply(x2, _M1, out=x1)
        np.bitwise_xor(lo_b, k1 ^ _U64(p >> 64), out=x2)
        x3 = _U64(p & _MASK64)
        for _ in range(2, _ROUNDS):
            k0 = k0 + _W0
            k1 = k1 + _W1
            _mulhi(_M0_HI, _M0_LO, x0, hi0, t1, t2, t3)
            _mulhi(_M1_HI, _M1_LO, x2, hi1, t1, t2, t3)
            hi1 ^= x1
            hi1 ^= k0                              # new x0
            hi0 ^= x3
            hi0 ^= k1                              # new x2
            np.multiply(x2, _M1, out=x1)           # new x1: low word of M1*x2
            x3 = np.multiply(x0, _M0, out=x3_buf)  # new x3: low word of M0*x0
            x0, hi1 = hi1, x0
            x2, hi0 = hi0, x2
    return x0, x1, x2, x3


def raw_words(seed: int, stream_ids, substream: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of one substream, for each stream id.

    Parameters
    ----------
    seed : int
        Run-level seed (key word 0).
    stream_ids : int or array of uint64
        Per-sample stream identifiers (key word 1). Shape (m,) or scalar.
    substream : int
        Substream tag (counter word 1); distinct tags give independent
        streams within the same (seed, stream_id).
    start, count : int
        Word range requested.

    Returns
    -------
    (m, count) uint64 array (or (count,) for a scalar stream_id).

    Raises ValueError for a seed outside [0, 2^64), which would
    otherwise alias the seed it equals modulo 2^64.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    scalar = np.isscalar(stream_ids)
    ids = np.atleast_1d(np.asarray(stream_ids, dtype=_U64))
    m = ids.shape[0]
    out = np.empty((m, count), dtype=_U64)
    end = start + count
    nblocks = ((end + 3) >> 2) - (start >> 2)
    cuts = [start, end]
    if nblocks > _CHUNK_BLOCKS:   # a stream longer than a tile: cut at tile-aligned words
        span = 4 * _CHUNK_BLOCKS
        cuts[1:1] = range((start // span + 1) * span, end, span)
    rows = max(_CHUNK_BLOCKS // max(nblocks, 1), 1)
    for lo in range(0, m, rows):
        for a, b in zip(cuts, cuts[1:]):
            _fill_words(seed, ids[lo : lo + rows], substream, a, b - a,
                        out[lo : lo + rows, a - start : b - start])
    return out[0] if scalar else out


def _fill_words(seed, ids, substream, start, count, out):
    """One tile: the cipher on every (stream, block) of the word range at once."""
    b0 = start >> 2
    nblocks = ((start + count + 3) >> 2) - b0
    blocks = _U64(b0) + np.arange(nblocks, dtype=_U64)
    lanes = philox4x64(blocks, substream, seed, ids[:, None])
    # Output word w is lane (off + w) & 3 of block (off + w) >> 2.
    off = start - 4 * b0
    for k, lane in enumerate(lanes):
        w0 = (k - off) % 4
        n = len(range(w0, count, 4))
        j0 = (off + w0) >> 2
        out[:, w0::4] = lane[:, j0 : j0 + n]
