"""Counter-based random engine: Philox-4x64 with 10 rounds.

Every output word is a pure function of ``(seed, stream_id, substream,
index)``, so any slice of any stream can be generated independently, out
of order, and concurrently — no generator state to carry, split, or jump.
That property is what makes batched sampling kernels bit-identical to
one-sample-at-a-time execution regardless of batch width or worker count.

The multipliers and Weyl key increments are the published Philox-4x64
parameterization (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3"). The test suite checks the words against frozen known answers
and the two paths below against each other, word for word.

Layout
------
key      = (seed, stream_id)
counter  = (block_index, substream, 0, 0)
block    = 4 output words; word ``w`` of a substream lives in block
           ``w >> 2``, lane ``w & 3``.

Two paths, one cipher
---------------------
``raw_words`` serves a request by one of two implementations of the same
cipher, chosen only by how many words each stream asks for:

* wide (fewer than ``NARROW_WORDS`` words per stream, e.g. one hop or
  proposal for many walks): plain vectorized numpy on uint64 across all
  streams and blocks at once, in passes of whole streams that bound its
  scratch memory.
* narrow (``NARROW_WORDS`` or more, e.g. the Monte Carlo draws of
  ``ball.kernel_normalization``): numpy's C ``numpy.random.Philox``, one
  stream at a time. Its counter is a 256-bit integer (limbs
  little-endian) that it increments *before* producing each block, so
  it is set to the 256-bit predecessor of our
  first block's counter ``(b, tag, 0, 0)``: ``(b-1, tag, 0, 0)``, or
  when ``b = 0`` the borrow ``(2^64-1, tag-1, 0, 0)``, or when the tag is
  0 too ``(2^64-1, 2^64-1, 2^64-1, 2^64-1)``. The words before ``start``
  in the first block are drawn and dropped.

Both paths compute Philox-4x64-10 under the same key and counter, and
integer arithmetic has no rounding, so the path taken cannot change a
word — and every float built from the words is computed after this
module, by the same code either way.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SH32 = _U64(32)
_ROUNDS = 10
_ALL_ONES = (1 << 64) - 1
_M0_HI, _M0_LO = _U64(int(_M0) >> 32), _M0 & _MASK32
_M1_HI, _M1_LO = _U64(int(_M1) >> 32), _M1 & _MASK32

# Most (stream, block) pairs one pass of the wide path enciphers. The
# cipher holds about ten uint64 arrays of that many elements, so a pass
# needs ~40 MB of scratch however many streams a request names; a
# request is split into passes over whole streams.
_CHUNK_BLOCKS = 1 << 19

# Words per stream from which a request takes the narrow path. Measured
# on a 2-core Xeon, numpy 2.4, for 500 streams: the paths tie at 256
# words per stream (~20 Mword/s); below it the wide path wins (2.5x at
# 64, 4x at 8), above it the narrow one (2.3x at 512, 11x at 8,000).
# With fewer streams the tie moves lower (under 64 for 20 streams), with
# more streams to ~128 (5,000), so 256 never costs the narrow path much.
NARROW_WORDS = 256


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


def philox4x64(x0, x1, x2, x3, k0, k1):
    """Run the 10-round block cipher on counter words (x0..x3) under (k0, k1).

    All arguments are uint64 arrays (broadcastable); returns the four
    output lanes as arrays of the broadcast shape.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in (x0, x1, x2, x3, k1)))
    x0, x1, x2, x3 = (np.array(np.broadcast_to(np.asarray(a, dtype=_U64), shape))
                      for a in (x0, x1, x2, x3))
    k0 = _U64(k0)
    k1 = np.asarray(k1, dtype=_U64) + _U64(0)
    hi0, hi1, t1, t2, t3 = (np.empty(shape, dtype=_U64) for _ in range(5))
    with np.errstate(over="ignore"):
        for _ in range(_ROUNDS):
            _mulhi(_M0_HI, _M0_LO, x0, hi0, t1, t2, t3)
            _mulhi(_M1_HI, _M1_LO, x2, hi1, t1, t2, t3)
            hi1 ^= x1
            hi1 ^= k0                     # new x0
            hi0 ^= x3
            hi0 ^= k1                     # new x2
            np.multiply(x2, _M1, out=x1)  # new x1: low word of M1*x2
            np.multiply(x0, _M0, out=x3)  # new x3: low word of M0*x0
            x0, hi1 = hi1, x0
            x2, hi0 = hi0, x2
            k0 = k0 + _W0
            k1 = k1 + _W1
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
    if count >= NARROW_WORDS:
        _fill_narrow(seed, ids, substream, start, count, out)
        return out[0] if scalar else out
    nblocks = ((start + count + 3) >> 2) - (start >> 2)
    rows = max(_CHUNK_BLOCKS // max(nblocks, 1), 1)
    for lo in range(0, m, rows):
        _fill_words(seed, ids[lo : lo + rows], substream, start, count, out[lo : lo + rows])
    return out[0] if scalar else out


def _fill_words(seed, ids, substream, start, count, out):
    """Wide path: the emulated cipher on every (stream, block) at once."""
    b0 = start >> 2
    nblocks = ((start + count + 3) >> 2) - b0
    ctr = np.empty((ids.shape[0], nblocks), dtype=_U64)
    ctr[:] = _U64(b0) + np.arange(nblocks, dtype=_U64)
    lanes = philox4x64(ctr, _U64(substream), _U64(0), _U64(0), seed, ids[:, None])
    # Output word w is lane (off + w) & 3 of block (off + w) >> 2.
    off = start - 4 * b0
    for k, lane in enumerate(lanes):
        w0 = (k - off) % 4
        n = len(range(w0, count, 4))
        j0 = (off + w0) >> 2
        out[:, w0::4] = lane[:, j0 : j0 + n]


def _counter_predecessor(block: int, substream: int) -> np.ndarray:
    """The 256-bit counter one below (block, substream, 0, 0), as 4 limbs."""
    if block:
        limbs = [block - 1, substream, 0, 0]
    elif substream:
        limbs = [_ALL_ONES, substream - 1, 0, 0]
    else:
        limbs = [_ALL_ONES] * 4
    return np.array(limbs, dtype=_U64)


def _fill_narrow(seed, ids, substream, start, count, out):
    """Narrow path: numpy's C Philox, one stream at a time, straight into out."""
    from numpy.random import Philox  # deferred: importing numpy.random costs ~15 ms

    bg = Philox(0)
    state = bg.state
    state["state"]["counter"] = _counter_predecessor(start >> 2, substream)
    state["buffer_pos"] = 4  # empty buffer: the next word starts a fresh block
    key = np.array([seed, 0], dtype=_U64)
    skip = start & 3
    for i, sid in enumerate(ids.tolist()):
        key[1] = sid
        state["state"]["key"] = key
        bg.state = state
        if skip:
            bg.random_raw(skip, output=False)
        out[i] = bg.random_raw(count)
