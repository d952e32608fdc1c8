"""Shared sampling driver: the sampler registry, stream allocation, workers.

Each sampler is named by a method and configured by one frozen config
type: ``SAMPLERS`` maps ``brownian`` to ``BrownianConfig``, ``wos`` to
``WosConfig`` and ``exact`` to the knob-free ``ExactConfig``. Every
batch kernel is called as ``kernel(domain, theta, cfg, seed,
stream_ids)``; ``sample_exits`` takes a config and runs the kernel of
its type; ``sampler_config`` builds the config of a named method from
the command line's knobs.

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
from dataclasses import fields
from functools import partial

import numpy as np

from . import ball, brownian, wos
from .ball import ExactConfig
from .exits import ExitBatch
from .geometry import Domain

#: Method name -> config type.
SAMPLERS = {"brownian": brownian.BrownianConfig, "wos": wos.WosConfig, "exact": ExactConfig}
METHODS = tuple(SAMPLERS)

#: Config type -> (module, name) of its batch kernel. The kernel is read
#: off its module per call, so a wrapper set on the module attribute (a
#: tracer) is the one that runs.
_KERNELS = {
    brownian.BrownianConfig: (brownian, "simulate_exit_batch"),
    wos.WosConfig: (wos, "wos_exit_batch"),
    ExactConfig: (ball, "sample_exact_batch"),
}

#: Any sampler config, for annotations.
Sampler = brownian.BrownianConfig | wos.WosConfig | ExactConfig


def sampler_config(method: str, **knobs) -> Sampler:
    """The config of the named method, from the command line's sampler knobs.

    A knob that is a field of the method's config type is passed to it;
    the others belong to other samplers and are ignored.
    """
    if method not in SAMPLERS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    cls = SAMPLERS[method]
    return cls(**{f.name: knobs[f.name] for f in fields(cls) if f.name in knobs})


def method_of(sampler: Sampler) -> str:
    """The method name of a sampler config."""
    for method, cls in SAMPLERS.items():
        if type(sampler) is cls:
            return method
    names = ", ".join(cls.__name__ for cls in SAMPLERS.values())
    raise ValueError(f"sampler must be a config of a method in {METHODS} ({names}), "
                     f"got {sampler!r}")


def stream_block(context: int, n: int) -> np.ndarray:
    """Stream ids for n samples of the given context."""
    if not 0 <= context < (1 << 32):
        raise ValueError(f"context must fit in 32 bits, got {context}")
    if n >= (1 << 32):
        raise ValueError(f"a context owns 2^32 stream ids, asked for {n}")
    return (np.uint64(context << 32) + np.arange(n, dtype=np.uint64))


def sample_exits(domain: Domain, theta, sampler: Sampler, n: int, seed: int,
                 context: int = 0, workers: int = 1) -> ExitBatch:
    """Draw n exit samples with the given sampler config, one stream per sample."""
    method_of(sampler)  # a ValueError unless a sampler config
    module, name = _KERNELS[type(sampler)]
    kernel = partial(getattr(module, name), domain, theta, sampler, seed)
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    ids = stream_block(context, n)

    threads = min(workers, n, os.cpu_count() or 1)
    if threads <= 1:
        return kernel(ids)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(kernel, np.array_split(ids, threads)))
    times = (np.concatenate([p.exit_times for p in parts])
             if parts[0].exit_times is not None else None)
    return ExitBatch(np.concatenate([p.points for p in parts]),
                     np.concatenate([p.steps for p in parts]), times)
