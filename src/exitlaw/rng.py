"""Reproducible random streams and the primitive distributions.

One logical stream per Monte Carlo sample index: stream ``i`` of a run
with seed ``s`` is addressed by key ``(s, i)``. Within a stream,
substreams keep different kinds of draws from colliding:

===========  ====================================================
tag 0        plain uniforms on [0, 1)
tag 1        the uniform pairs feeding Gaussian deviates, and the
             words of sphere directions in d = 2, 3, 4
tag 2 + a    redraw attempt a of a Gaussian sphere direction whose
             norm fell below NORM_FLOOR (see ``unit_rows``)
===========  ====================================================

A word ``w`` gives the uniform ``u = (w >> 11) * 2^-53`` in [0, 1).

Gaussian scheme (fixed; frozen by known-answer tests)
-----------------------------------------------------
Deviates come from Box-Muller on counter-addressed pairs: pair ``p``
reads words ``2p`` and ``2p+1`` of substream 1 and produces

    g[2p]   = sqrt(-2 ln u1) * cos(2 pi u2)
    g[2p+1] = sqrt(-2 ln u1) * sin(2 pi u2)

with ``u1 = ((w >> 11) + 1) * 2^-53`` in (0, 1] (so the log never sees
zero) and ``u2`` the uniform of the second word. Box-Muller is
rejection-free, so Gaussian index ``k`` is a pure function of the
counter — any slice of the deviate sequence can be generated without
buffering, so a kernel's draws do not depend on how it windows or
batches its requests.

Sphere directions (``sphere_rows``)
-----------------------------------
Direction t of a stream in d = 2, 3, 4 reads the uniforms u1.. of words
[t*w, (t+1)*w) of substream 1, w = d - 1, with no Gaussian and no redraw:

    d = 2:  (cos 2 pi u1, sin 2 pi u1)
    d = 3:  (s cos 2 pi u2, s sin 2 pi u2, z),  z = 2 u1 - 1,
            s = 2 sqrt(u1 (1 - u1))  (Archimedes: z is uniform)
    d = 4:  (sqrt(1 - u1) e^(2 pi i u2), sqrt(u1) e^(2 pi i u3))

where e^(i phi) stands for the two coordinates (cos phi, sin phi); cos
and sin come from a table and short polynomials (``_cos_sin``). In every
other dimension direction t is Gaussian words [t*d, (t+1)*d) over their
norm, with redraws (``unit_rows``).
"""

from __future__ import annotations

import functools

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

#: Words per direction of ``sphere_rows`` in the dimensions it draws
#: from raw words; every other dimension reads d Gaussian words.
SPHERE_WORDS = {2: 1, 3: 2, 4: 3}

#: Index bits of ``_trig_table``: 2^10 angles, 16 KB.
TRIG_BITS = 10

#: Most directions ``sphere_rows`` builds from one word request, so that
#: its words and temporaries stay in L2 cache.
_TILE = 1 << 14

_INV53 = 2.0 ** -53
_SH11 = np.uint64(11)
_TWO_PI = 2.0 * np.pi
_SH_INDEX = np.uint64(64 - TRIG_BITS)       # top TRIG_BITS bits of a word
_SH_TOP = np.uint64(TRIG_BITS)
_SH_OFFSET = np.uint64(11 + TRIG_BITS)      # the next 53 - TRIG_BITS bits
_ANGLE = _TWO_PI * _INV53                   # radians per unit of a 53-bit angle


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


def sphere_rows(seed: int, stream_ids, first: int, d: int,
                rounds: int = 1) -> np.ndarray:
    """Unit-sphere directions of rounds [first, first + rounds), as shape (m, rounds, d).

    In d = 2, 3, 4, direction t of a stream maps words [t*w, (t+1)*w) of
    its substream TAG_GAUSS, w = ``SPHERE_WORDS[d]``, to the sphere
    (module docstring); in any other d it is Gaussian words [t*d,
    (t+1)*d) normalized by ``unit_rows``. Either way it is a pure
    function of (seed, stream, t), so any split of the rounds into
    requests draws the same directions.
    """
    ids = np.atleast_1d(stream_ids)
    m = ids.shape[0]
    w = SPHERE_WORDS.get(d)
    if w is None:
        g = gaussian_values(seed, ids, first * d, rounds * d).reshape(m, rounds, d)
        return unit_rows(seed, ids, first * d, g)
    out = np.empty((m, rounds, d))
    step = max(1, _TILE // rounds)
    for lo in range(0, m, step):
        words = philox.raw_words(seed, ids[lo : lo + step], TAG_GAUSS, first * w, rounds * w)
        _word_directions(words.reshape(-1, w), out[lo : lo + step].reshape(-1, d))
    return out


def _word_directions(words: np.ndarray, out: np.ndarray) -> None:
    """Directions (n, d) from their words (n, d - 1), d = 2, 3, 4, into out.

    Each angle word gives a (cos, sin) pair (``_cos_sin``): the one word
    in d = 2, the last in d = 3, the last two in d = 4. In d = 3 and 4
    the first word is the uniform u that sets the pairs' radii and, in
    d = 3, the last coordinate; it is overwritten. All work runs on 1-d
    arrays, so numpy's loops never step through a row of two or three
    values.
    """
    n, d = out.shape
    if d == 3:
        cos, sin = out[:, 0], out[:, 1]
    else:                           # d = 2, 4: the pairs tile each row
        cos, sin = out.reshape(-1)[0::2], out.reshape(-1)[1::2]
    _cos_sin(words[:, 0 if d == 2 else 1 :].reshape(-1), cos, sin)
    if d == 2:
        return
    u = _u01(words[:, 0])
    if d == 3:                      # z = 2u - 1, s = 2 sqrt(u (1 - u))
        np.multiply(u, 2.0, out=out[:, 2])
        out[:, 2] -= 1.0
        radius = 1.0 - u
        radius *= u
        np.sqrt(radius, out=radius)
        radius *= 2.0
    else:                           # radii sqrt(1 - u) and sqrt(u) of the two pairs
        radius = np.empty((n, 2))
        np.subtract(1.0, u, out=radius[:, 0])
        radius[:, 1] = u
        radius = radius.reshape(-1)
        np.sqrt(radius, out=radius)
    cos *= radius
    sin *= radius


@functools.lru_cache(maxsize=None)
def _trig_table() -> np.ndarray:
    """cos and sin of 2 pi k / 2^TRIG_BITS, k = 0 .. 2^TRIG_BITS - 1, as rows (read-only).

    Evaluated in long double and rounded once to float64.
    """
    two_pi = 8 * np.arctan(np.longdouble(1))
    angle = two_pi * np.arange(1 << TRIG_BITS, dtype=np.longdouble) / (1 << TRIG_BITS)
    table = np.stack([np.cos(angle), np.sin(angle)], axis=-1).astype(np.float64)
    table.flags.writeable = False
    return table


def _cos_sin(words: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos and sin of the angles 2 pi (w >> 11) 2^-53 of uint64 words, into cos and sin.

    The top TRIG_BITS bits of the 53-bit angle index ``_trig_table``; the
    low 43 give the offset delta < 2 pi / 2^TRIG_BITS, exactly as integers.
    With C and S from the table, cos = C + (C (cos delta - 1) - S sin delta)
    and sin = S + (S (cos delta - 1) + C sin delta), through degree-6 and
    degree-5 Taylor polynomials: the absolute error stays below 1e-15.
    """
    cs = np.take(_trig_table(), (words >> _SH_INDEX).view(np.int64), axis=0)
    table_cos, table_sin = cs[:, 0], cs[:, 1]
    offset = words << _SH_TOP
    offset >>= _SH_OFFSET
    delta = offset.view(np.float64)  # the offset, below 2^43, converts exactly
    np.multiply(offset.view(np.int64), _ANGLE, out=delta)
    d2 = delta * delta
    sin_d = d2 * (1.0 / 120.0)
    sin_d -= 1.0 / 6.0
    sin_d *= d2
    sin_d *= delta
    sin_d += delta                  # sin delta
    cos_d = d2 * (-1.0 / 720.0)
    cos_d += 1.0 / 24.0
    cos_d *= d2
    cos_d -= 0.5
    cos_d *= d2                     # cos delta - 1
    np.multiply(table_cos, cos_d, out=cos)
    np.multiply(table_sin, sin_d, out=d2)
    cos -= d2
    cos += table_cos
    np.multiply(table_sin, cos_d, out=sin)
    np.multiply(table_cos, sin_d, out=d2)
    sin += d2
    sin += table_sin


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
