"""The benchmark's trace mode still sees every sampler kernel.

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

import pytest

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
    if method != "brownian":
        # the sphere-direction layer is seen, and no direction is redrawn
        assert layers["rng.sphere.rows"] > 0
        assert layers["rng.retry_words"] == 0
