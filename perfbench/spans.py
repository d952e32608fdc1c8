"""Outside-in span recorder for exitlaw's layers.

``install()`` replaces the public entry points of each ``exitlaw`` module
with timing wrappers, so a traced run needs no change to the package.
A span is (id, name, start, end, parent, info): ``info`` holds the work
counts read from the call's arguments and result. Spans stay in memory
until the run ends; ``layer_metrics`` reduces them to per-layer figures.

Parents follow the calling thread's stack of open spans. A span opened
on a thread with an empty stack (a ``driver`` pool thread) takes the open
``driver.sample_exits`` span as parent, so self time and parallel
efficiency stay right under ``--workers``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

KERNELS = {
    "brownian.simulate_exit_batch": "brownian",
    "wos.wos_exit_batch": "wos",
    "ball.sample_exact_batch": "ball",
}

#: Philox substream tag of the sphere-draw retry pool (``rng.TAG_RETRY``).
TAG_RETRY = 2


class Recorder:
    """Collects spans from wrapped functions, on any thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._anchor = None  # id of the open driver span

    def wrap(self, owner, attr: str, name: str, info=None, anchor: bool = False):
        """Replace ``owner.attr`` with a traced version recording spans named ``name``.

        ``info(arguments, result)`` returns the span's work counts, given
        the call's explicit arguments by parameter name. An ``anchor`` span
        becomes the parent of spans opened on threads that have no open
        span of their own.
        """
        fn = getattr(owner, attr)
        params = list(inspect.signature(fn).parameters)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else rec._anchor
            sid = next(rec._ids)
            outer = rec._anchor
            if anchor:
                rec._anchor = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if anchor:
                    rec._anchor = outer
            counts = info({**dict(zip(params, args)), **kwargs}, result) if info else None
            rec.spans.append((sid, name, start, end, parent, counts))
            return result

        setattr(owner, attr, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        """Write one JSON line per span (counts of kernel spans summarized)."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, counts in sorted(self.spans):
                if counts and "steps" in counts:
                    counts = {k: v for k, v in counts.items() if k != "steps"}
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


def _rows(ids) -> int:
    return int(np.size(ids))


def _philox_info(a, result):
    m, start, count = _rows(a["stream_ids"]), int(a["start"]), int(a["count"])
    blocks = ((start + count + 3) >> 2) - (start >> 2)
    return {"words": m * count, "blocks": m * blocks, "substream": int(a["substream"])}


def _values_info(a, result):
    return {"values": _rows(a["stream_ids"]) * int(a["count"])}


def _sphere_info(a, result):
    return {"rows": _rows(a["stream_ids"])}


def _geometry_info(a, result):
    first = next(v for k, v in a.items() if k != "self")
    return {"rows": int(np.shape(first)[0])}


def _kernel_info(a, result):
    return {"steps": np.asarray(result.steps), "d": int(result.points.shape[1])}


def _driver_info(a, result):
    n, workers = int(a["n"]), int(a.get("workers", 1))
    return {"threads": 1 if workers <= 1 or n == 1 else min(workers, n)}


def install() -> Recorder:
    """Wrap the layer entry points of the imported ``exitlaw`` package."""
    from exitlaw import ball, brownian, cli, driver, geometry, philox, privacy, rng, stats, wos

    rec = Recorder()
    rec.wrap(philox, "raw_words", "philox.raw_words", _philox_info)
    rec.wrap(rng, "gaussian_values", "rng.gaussian_values", _values_info)
    rec.wrap(rng, "uniform_values", "rng.uniform_values", _values_info)
    rec.wrap(rng, "sphere_rows", "rng.sphere_rows", _sphere_info)
    for attr in sorted(a for a in dir(geometry.Ball) if a.endswith("_many")):
        rec.wrap(geometry.Ball, attr, f"geometry.Ball.{attr}", _geometry_info)
    rec.wrap(brownian, "simulate_exit_batch", "brownian.simulate_exit_batch", _kernel_info)
    rec.wrap(wos, "wos_exit_batch", "wos.wos_exit_batch", _kernel_info)
    rec.wrap(ball, "sample_exact_batch", "ball.sample_exact_batch", _kernel_info)
    rec.wrap(driver, "sample_exits", "driver.sample_exits", _driver_info, anchor=True)
    for attr in ("summarize", "compare", "reproduce_table1"):
        rec.wrap(stats, attr, f"stats.{attr}")
    for attr in ("run_attacks", "privacy_curve"):
        rec.wrap(privacy, attr, f"privacy.{attr}")
    rec.wrap(cli, "main", "cli.main")
    return rec


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _profile(steps: list) -> tuple[float, float, float]:
    if not steps:
        return 0.0, 0.0, 0.0
    s = np.concatenate(steps)
    return float(s.mean()), float(np.percentile(s, 95)), float(s.max())


def layer_metrics(spans) -> dict[str, float]:
    """Reduce spans to the per-layer metrics (zeros for layers that did not run)."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    self_s = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(s[2], s[3]) for s in children[sid]]
        self_s[sid] = end - start - _covered(kids, start, end)

    def of(prefix):
        return [s for s in spans if s[1].startswith(prefix)]

    def total_self(prefix):
        return sum(self_s[s[0]] for s in of(prefix))

    m = {}
    px = of("philox.")
    words = sum(s[5]["words"] for s in px)
    busy = sum(s[3] - s[2] for s in px)
    m["philox.calls"] = len(px)
    m["philox.words"] = words
    m["philox.words_per_call"] = _ratio(words, len(px))
    m["philox.useful_ratio"] = _ratio(words, 4 * sum(s[5]["blocks"] for s in px))
    m["philox.busy_s"] = busy
    m["philox.words_per_s"] = _ratio(words, busy)
    m["rng.gaussian.values"] = sum(s[5]["values"] for s in of("rng.gaussian_values"))
    m["rng.gaussian.self_s"] = total_self("rng.gaussian_values")
    m["rng.sphere.rows"] = sum(s[5]["rows"] for s in of("rng.sphere_rows"))
    m["rng.sphere.self_s"] = total_self("rng.sphere_rows")
    m["rng.uniform.values"] = sum(s[5]["values"] for s in of("rng.uniform_values"))
    m["rng.retry_words"] = sum(s[5]["words"] for s in px if s[5]["substream"] == TAG_RETRY)

    geo = of("geometry.")
    rows = sum(s[5]["rows"] for s in geo)
    m["geometry.calls"] = len(geo)
    m["geometry.rows"] = rows
    m["geometry.self_s"] = total_self("geometry.")
    m["geometry.rows_per_s"] = _ratio(rows, m["geometry.self_s"])

    for name, layer in KERNELS.items():
        calls = of(name)
        kids = [k for s in calls for k in children[s[0]]]
        steps = [s[5]["steps"] for s in calls]
        mean, p95, top = _profile(steps)
        m[f"{layer}.self_s"] = total_self(name)
        if layer == "brownian":
            gauss = sum(k[5]["values"] for k in kids if k[1] == "rng.gaussian_values")
            used = sum(int(s[5]["steps"].sum()) * s[5]["d"] for s in calls)
            m["brownian.rounds"] = sum(k[1] == "rng.gaussian_values" for k in kids)
            m["brownian.steps_mean"], m["brownian.steps_p95"], m["brownian.steps_max"] = mean, p95, top
            m["brownian.useful_ratio"] = _ratio(used, gauss)
            continue
        hops = [k[5]["rows"] for k in kids if k[1] == "rng.sphere_rows"]
        m[f"{layer}.rounds"] = len(hops)
        if layer == "wos":
            m["wos.hops_mean"], m["wos.hops_p95"], m["wos.hops_max"] = mean, p95, top
            m["wos.live_rows_mean"] = _ratio(sum(hops), len(hops))
        else:
            m["ball.proposals_mean"], m["ball.proposals_p95"], m["ball.proposals_max"] = mean, p95, top
            samples = sum(s[5]["steps"].size for s in calls)
            m["ball.acceptance_ratio"] = _ratio(samples, sum(int(x.sum()) for x in steps))

    drv = of("driver.")
    kernel_busy = sum(k[3] - k[2] for s in drv for k in children[s[0]] if k[1] in KERNELS)
    m["driver.calls"] = len(drv)
    m["driver.self_s"] = total_self("driver.")
    m["driver.parallel_efficiency"] = _ratio(
        kernel_busy, sum(s[5]["threads"] * (s[3] - s[2]) for s in drv))
    for layer in ("stats", "privacy", "cli"):
        m[f"{layer}.self_s"] = total_self(f"{layer}.")
    return {k: float(v) for k, v in m.items()}
