"""Shared sampling driver: the sampler registry and stream allocation.

Each sampler is named by a method and configured by one frozen config
type: ``SAMPLERS`` maps ``brownian`` to ``BrownianConfig``, ``wos`` to
``WosConfig`` and ``exact`` to the knob-free ``ExactConfig``. Every
batch kernel is called as ``kernel(domain, theta, cfg, seed,
stream_ids)``, with theta one start (d,) and its stream ids (n,), or k
starts (k, d) and a (k, n) stream grid whose row i holds start i's
streams; ``sample_exits`` takes a config and runs the kernel of its
type; ``sampler_config`` builds the config of a named method from the
command line's knobs.

Stream ids are allocated as (context << 32) + sample_index, so every
logical sampling context (a table row, a privacy grid cell, ...) owns a
disjoint id block under the run seed. ``sample_exits`` serves k starts
on one domain in one kernel call, one distinct context per start. The
walks move them in one lockstep batch and pay their per-round cost once
for all of them: run as separate batches, table1's three starts per
dimension took about 40 % longer with walk on spheres and 80 % with
the brownian walk (``table1 --n 500``). The exact sampler draws them one
after another: a start takes only a handful of lookahead windows, so
lockstep saved it nothing, and three starts on a (3, 10^5) grid peaked
at 30 MiB where one start of the same 3*10^5 samples took 19 MiB. Every
sample reads only its own stream, so the output is a pure function of
(config, seed, contexts, n) however starts are grouped into calls.
Every kernel runs on one thread.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import fields

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
    """Stream ids for n samples of the given context, an integer of any type."""
    context = operator.index(context)  # a Python int: a numpy one would shift in its dtype
    if not 0 <= context < (1 << 32):
        raise ValueError(f"context must fit in 32 bits, got {context}")
    if n >= (1 << 32):
        raise ValueError(f"a context owns 2^32 stream ids, asked for {n}")
    return (np.uint64(context << 32) + np.arange(n, dtype=np.uint64))


def sample_exits(domain: Domain, theta, sampler: Sampler, n: int, seed: int,
                 context: int | Sequence[int] = 0) -> ExitBatch:
    """Draw n exit samples per start with the given sampler config.

    theta is one start (d,) with one ``context``, or k >= 1 starts (k, d)
    with k distinct contexts. Start i draws sample j from stream j of
    context i. The batch holds k*n rows ordered by start, so rows
    [i*n, (i+1)*n) are start i's, byte-equal to a one-start call.
    """
    method_of(sampler)  # a ValueError unless a sampler config
    module, name = _KERNELS[type(sampler)]
    kernel = getattr(module, name)
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    starts = np.asarray(theta, dtype=np.float64)
    multi = starts.ndim == 2
    if np.ndim(context) != multi or multi and len(context) != starts.shape[0]:
        raise ValueError("need one context per start: an int for one (d,) start, a "
                         f"sequence of k for k (k, d) starts; got context {context!r} "
                         f"for starts of shape {starts.shape}")
    if not multi:
        return kernel(domain, starts, sampler, seed, stream_block(context, n))
    contexts = [operator.index(c) for c in context]
    if not contexts:
        raise ValueError(f"need at least one start, got starts of shape {starts.shape}")
    if len(set(contexts)) < len(contexts):
        raise ValueError(f"contexts must be distinct, or two starts share streams; "
                         f"got {contexts}")
    grid = np.stack([stream_block(c, n) for c in contexts])
    return kernel(domain, starts, sampler, seed, grid)
