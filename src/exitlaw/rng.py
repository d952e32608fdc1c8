"""Reproducible random streams and the two primitive distributions.

One logical stream per Monte Carlo sample index: stream ``i`` of a run
with seed ``s`` is addressed by key ``(s, i)``. Within a stream,
substreams keep different kinds of draws from colliding:

===========  ====================================================
tag 0        plain uniforms on [0, 1)
tag 1        the uniform pairs feeding Gaussian deviates
tag 2 + a    redraw attempt a of a sphere direction whose norm
             fell below NORM_FLOOR (see ``sphere_rows``)
===========  ====================================================

Gaussian scheme (fixed; frozen by known-answer tests)
-----------------------------------------------------
Deviates come from Box-Muller on counter-addressed pairs: pair ``p``
reads words ``2p`` and ``2p+1`` of substream 1 and produces

    g[2p]   = sqrt(-2 ln u1) * cos(2 pi u2)
    g[2p+1] = sqrt(-2 ln u1) * sin(2 pi u2)

with ``u1 = ((w >> 11) + 1) * 2^-53`` in (0, 1] (so the log never sees
zero) and ``u2 = (w >> 11) * 2^-53`` in [0, 1). Box-Muller is
rejection-free, so Gaussian index ``k`` is a pure function of the
counter — any slice of the deviate sequence can be generated without
buffering, so a kernel's draws do not depend on how it windows or
batches its requests.
"""

from __future__ import annotations

import numpy as np

from . import philox

TAG_UNIFORM = 0
TAG_GAUSS = 1
TAG_RETRY = 2

#: Sphere draws redraw the Gaussian vector when its norm falls below this.
NORM_FLOOR = 1e-150

#: Most redraw attempts of one sphere direction. A norm below NORM_FLOOR
#: needs a Box-Muller radius of 0 (u1 = 1) or, for a direction of one sine
#: word, u2 = 0: at most 2^-53 per attempt, so a direction reaches the cap
#: with probability below 2^-424.
MAX_REDRAWS = 8

#: Most values one lookahead request (see ``lookahead_rounds``) holds:
#: 256 KB of float64, small next to a command's footprint, and enough to
#: amortize a request's fixed cost.
WINDOW_VALUES = 1 << 15

#: Most words per stream one lookahead request holds: it bounds how far
#: ahead the last few live streams of a batch fetch. Windows move no word
#: (see ``lookahead_rounds``), so the value only trades requests against
#: words fetched and dropped.
WINDOW_WORDS = 128

_INV53 = 2.0 ** -53
_SH11 = np.uint64(11)
_TWO_PI = 2.0 * np.pi


def _u01(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to [0, 1) with 53-bit resolution, in place.

    The values overwrite their words: the result is a float64 view of
    the words' memory, which the caller gives up.
    """
    words >>= _SH11               # 53-bit integers, exact in float64
    u = words.view(np.float64)
    np.multiply(words, _INV53, out=u)
    return u


def uniform_values(seed: int, stream_ids, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) values [start, start+count) for each stream."""
    return _u01(philox.raw_words(seed, stream_ids, TAG_UNIFORM, start, count))


def gaussian_values(seed: int, stream_ids, start: int, count: int,
                    substream: int = TAG_GAUSS) -> np.ndarray:
    """Standard normal deviates [start, start+count) for each stream.

    Random access: the result for any (start, count) window agrees
    bit-for-bit with the corresponding slice of a single long request.
    Box-Muller runs in place: the deviates overwrite their own words,
    the angle u2 taking the odd columns and the log and sqrt one radius
    buffer; cos lands in the even columns, sin overwrites the angle, and
    the radius scales both, with the same IEEE operations as the module
    docstring's formula.
    """
    p0 = start >> 1
    p1 = (start + count + 1) >> 1
    npairs = p1 - p0
    w = philox.raw_words(seed, stream_ids, substream, 2 * p0, 2 * npairs)
    scalar = w.ndim == 1
    w = np.atleast_2d(w)
    top = w[:, 0::2]
    top >>= _SH11
    top += np.uint64(1)
    radius = top * _INV53         # u1 in (0, 1]: safe as a log argument
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _u01(w[:, 1::2])      # u2, in the odd columns
    angle *= _TWO_PI
    g = w.view(np.float64)
    cos = g[:, 0::2]
    np.cos(angle, out=cos)
    np.sin(angle, out=angle)
    cos *= radius
    angle *= radius
    off = start - 2 * p0
    g = g[:, off : off + count]
    return g[0] if scalar else g


def lookahead_rounds(live: int, words_per_round: int, done: int) -> int:
    """Rounds K a lockstep kernel fetches per request for its ``live`` streams.

    Round t of a stream reads words [t*w, (t+1)*w) of its substreams, so K
    rounds of all live streams are one request. K is at most ``done``,
    the rounds already run, so a stream fetches at most twice the rounds
    it uses; and a request stays within WINDOW_VALUES and WINDOW_WORDS.
    """
    cap = min(done, WINDOW_WORDS // words_per_round,
              WINDOW_VALUES // (live * words_per_round))
    return max(1, cap)


def sphere_rows(seed: int, stream_ids, gauss_start: int, d: int,
                rounds: int = 1) -> np.ndarray:
    """Unit-sphere directions, ``rounds`` per stream, as shape (m, rounds, d).

    Direction t of a stream reads Gaussian words [s, s + d) of its main
    Gaussian substream, s = gauss_start + t*d, so all rounds come from
    one request (see ``unit_rows``).
    """
    ids = np.atleast_1d(stream_ids)
    g = gaussian_values(seed, ids, gauss_start, rounds * d).reshape(len(ids), rounds, d)
    return unit_rows(seed, ids, gauss_start, g)


def unit_rows(seed: int, stream_ids, gauss_start: int, g: np.ndarray) -> np.ndarray:
    """The Gaussian vectors g (m, rounds, d) as unit directions, normalized in place.

    Row (i, t) holds Gaussian words [s, s + d) of stream i, s =
    gauss_start + t*d. A row whose norm falls below NORM_FLOOR is redrawn
    from the same words of substream TAG_RETRY + a at attempt a: every
    direction is a pure function of (seed, stream, s), whatever window or
    batch it is drawn in. Raises RuntimeError after MAX_REDRAWS attempts.
    g is overwritten, redrawn rows and all, and returned as the
    directions, so pass a copy of any Gaussians still needed; the
    division is the same IEEE operation as an out-of-place g / |g|. A
    strided g whose rows reshape to (m * rounds, d) only by copying (an
    odd Gaussian count per stream) is normalized in that copy instead.
    """
    m, rounds, d = g.shape
    g = g.reshape(-1, d)
    norms = np.einsum("ij,ij->i", g, g)
    np.sqrt(norms, out=norms)
    for j in np.flatnonzero(norms < NORM_FLOOR):
        i, t = divmod(int(j), rounds)
        sid, s = int(stream_ids[i]), gauss_start + t * d
        for attempt in range(MAX_REDRAWS):
            g[j] = gaussian_values(seed, sid, s, d, substream=TAG_RETRY + attempt)
            norms[j] = np.sqrt(np.einsum("i,i", g[j], g[j]))
            if norms[j] >= NORM_FLOOR:
                break
        else:
            raise RuntimeError(
                f"stream {sid}: the sphere direction at Gaussian word {s} stayed "
                f"below NORM_FLOOR after {MAX_REDRAWS} redraw attempts")
    g /= norms[:, None]
    return g.reshape(m, rounds, d)
