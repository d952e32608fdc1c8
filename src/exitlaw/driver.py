"""Shared sampling driver: method dispatch, stream allocation, workers.

Stream ids are allocated as (context << 32) + sample_index, so every
logical sampling context (a table row, a privacy grid cell, ...) owns a
disjoint id block under the run seed. Worker parallelism splits the
sample-index axis into contiguous chunks, one per thread, with no more
threads than samples or CPUs; each chunk is an independent
batch over its own per-sample streams, and results are reassembled in
index order — so the output is a pure function of (seed, context, n)
and worker count can never change a byte.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ball as ball_mod
from . import brownian, wos
from .exits import ExitBatch
from .geometry import Ball, Domain

METHODS = ("brownian", "wos", "exact")


def stream_block(context: int, n: int) -> np.ndarray:
    """Stream ids for n samples of the given context."""
    if not 0 <= context < (1 << 32):
        raise ValueError(f"context must fit in 32 bits, got {context}")
    if n >= (1 << 32):
        raise ValueError(f"a context owns 2^32 stream ids, asked for {n}")
    return (np.uint64(context << 32) + np.arange(n, dtype=np.uint64))


def sample_exits(domain: Domain, theta, method: str, n: int, seed: int,
                 context: int = 0, workers: int = 1,
                 brownian_cfg: brownian.BrownianConfig | None = None,
                 wos_cfg: wos.WosConfig | None = None) -> ExitBatch:
    """Draw n exit samples by the named method, one stream per sample."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    ids = stream_block(context, n)

    if method == "brownian":
        cfg = brownian_cfg or brownian.BrownianConfig()
        kernel = lambda chunk: brownian.simulate_exit_batch(domain, theta, cfg, seed, chunk)
    elif method == "wos":
        cfg = wos_cfg or wos.WosConfig()
        kernel = lambda chunk: wos.wos_exit_batch(domain, theta, cfg, seed, chunk)
    else:
        if not isinstance(domain, Ball):
            raise ValueError("the exact sampler is defined for balls only")
        kernel = lambda chunk: ball_mod.sample_exact_batch(domain, theta, seed, chunk)

    threads = min(workers, n, os.cpu_count() or 1)
    if threads <= 1:
        return kernel(ids)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(kernel, np.array_split(ids, threads)))
    times = (np.concatenate([p.exit_times for p in parts])
             if parts[0].exit_times is not None else None)
    return ExitBatch(
        np.concatenate([p.points for p in parts]),
        np.concatenate([p.steps for p in parts]),
        parts[0].method,
        times,
    )
