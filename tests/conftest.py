"""Shared fixtures."""

import numpy as np
import pytest

from exitlaw import rng


@pytest.fixture
def zero_directions(monkeypatch):
    """Zero the main Gaussian words of chosen sphere directions.

    ``install(d, degenerate)`` takes the dimension and a map from stream
    id to the first words s of the directions whose main Gaussian words
    [s, s + d) read as zeros, so ``rng.unit_rows`` must redraw them (in
    ``rng.sphere_rows`` only outside d = 2, 3, 4, whose directions read
    no Gaussians). It returns the list
    of retry requests, one (stream, start, substream) per redraw attempt,
    which fills as the stub runs.
    """
    real = rng.gaussian_values

    def install(d, degenerate):
        retries = []

        def fake(seed, stream_ids, start, count, substream=rng.TAG_GAUSS):
            g = np.array(real(seed, stream_ids, start, count, substream))
            if substream != rng.TAG_GAUSS:
                retries.append((int(stream_ids), start, substream))
                return g
            rows = g.reshape(-1, count)
            for i, sid in enumerate(np.atleast_1d(stream_ids).tolist()):
                for s in degenerate.get(sid, ()):
                    lo, hi = max(s, start), min(s + d, start + count)
                    if lo < hi:
                        rows[i, lo - start:hi - start] = 0.0
            return g

        monkeypatch.setattr(rng, "gaussian_values", fake)
        return retries

    return install
