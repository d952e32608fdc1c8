"""The benchmark's trace mode still sees every sampler kernel, and the
walks' word budget holds.

``perfbench/spans.py`` times the kernels by replacing
``brownian.simulate_exit_batch``, ``wos.wos_exit_batch`` and
``ball.sample_exact_batch`` on their modules, and reads the ``n``
argument of ``driver.sample_exits`` by name. A dispatch that
held the kernel functions themselves would run past those wrappers and
leave every per-layer kernel metric at zero, so this runs a traced
``table1`` per method in a fresh process, as the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exitlaw import Ball, philox, rng
from exitlaw.wos import WosConfig, wos_exit_batch

ROOT = Path(__file__).resolve().parents[1]

#: method -> the per-layer prefix of its kernel
LAYERS = {"brownian": "brownian", "wos": "wos", "exact": "ball"}


@pytest.mark.parametrize("method", sorted(LAYERS))
def test_traced_table1_reaches_the_method_kernel(method, tmp_path):
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"),
        "mode": "trace",
        "spans": str(tmp_path / "spans.jsonl"),
        "argv": ["table1", "--method", method, "--n", "40",
                 "--out", str(tmp_path / "table1.csv")],
    }))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec), str(result)],
                   check=True, timeout=300)
    run = json.loads(result.read_text())
    assert run["error"] is None and run["status"] in (0, 1)
    layers = run["layers"]
    # one driver call per dimension: each draws that dimension's three rows
    assert layers["driver.calls"] == 3
    for name, layer in LAYERS.items():
        assert (layers[f"{layer}.rounds"] > 0) == (name == method), layer
    if method == "brownian":
        # table1 reads no exit time, so the walks fetch no tag-0 uniform
        assert layers["rng.uniform.values"] == 0
    if method != "brownian":
        # the sphere-direction layer is seen, and its d <= 4 directions
        # read raw words: no Gaussian, and no redraw
        assert layers["rng.sphere.rows"] > 0
        assert layers["rng.gaussian.values"] == 0
        assert layers["rng.retry_words"] == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_wos_batch_reads_at_most_twice_its_hop_words(monkeypatch, d):
    # hop h of a walk reads words [h w, (h+1) w); a lookahead window holds
    # at most the rounds run so far, so a batch fetches at most 2 w words
    # per hop its walks take
    words, raw = [], philox.raw_words

    def counted(seed, stream_ids, substream, start, count):
        words.append(np.size(stream_ids) * count)
        return raw(seed, stream_ids, substream, start, count)

    monkeypatch.setattr(philox, "raw_words", counted)
    starts = np.array([[0.0] * d, [0.5] + [0.0] * (d - 1), [0.9] + [0.0] * (d - 1)])
    grid = np.arange(3 * 200, dtype=np.uint64).reshape(3, 200)
    batch = wos_exit_batch(Ball(np.zeros(d), 1.0), starts, WosConfig(), 11, grid)
    assert 0 < sum(words) <= 2 * rng.SPHERE_WORDS[d] * int(batch.steps.sum())
