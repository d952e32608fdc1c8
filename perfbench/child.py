"""Run one exitlaw command in a fresh process and report what it cost.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``{"src": dir, "argv": [...], "mode": "run" | "trace" | "setup"}``
(plus ``"spans": path`` in trace mode). ``setup`` only imports
``exitlaw.cli`` and parses ``argv``; the other modes then make a single
in-process ``exitlaw.cli.main(argv)`` call. Wall and CPU time cover that
call alone; peak RSS covers the whole process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import numpy

    import exitlaw.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"exitlaw imported from {cli.__file__}, not from {src}")
    if spec["mode"] == "setup":
        cli.parse_args(spec["argv"])
        return 0

    recorder = None
    if spec["mode"] == "trace":
        import spans

        recorder = spans.install()
    status, error = None, None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        status = cli.main(spec["argv"])
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "status": status,
        "error": error,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans)
        recorder.dump(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
