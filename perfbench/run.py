"""exitlaw benchmark: one closed-loop client running a CLI command per workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command is a single in-process ``exitlaw.cli.main(argv)`` call made
by a fresh ``perfbench/child.py`` process against the checkout's ``src/``;
the next command starts only after the previous one has ended. The seed
reaches the program only through the generated argv (``--seed N``).

``--trace 0`` repeats the workload's command until the commands have
taken S seconds (and at least twice) with tracing off and reports the
end-to-end metrics: medians over the commands, and for ``setup_s`` the
median over fresh interpreters, started after the commands, that import
``exitlaw.cli`` and parse the argv.
``--trace 1`` runs untraced/traced pairs for S seconds and reports the
per-layer metrics of the traced commands (medians over pairs) plus the
tracing overhead; spans go to ``.perfbench/<run>/spans-<k>.jsonl``.

Every run checks each CSV it writes (see checks.py) and that all CSVs of
one seed are byte-identical, including the ``--workers 1`` reference of
the threaded workload. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
PROBES_PER_COMMAND = 2
MIN_COMMANDS = 2
BUDGET_S = 170.0

TABLE1_N = 500
TABLE1_ROWS = 9
HOUSE_RHO, RADIUS, DIM = 0.95, 1.0, 2
TRIPS_GRID = (10, 100, 1000, 10000)
REPLICATIONS = 10


@dataclass(frozen=True)
class Workload:
    """A CLI command, how many exit samples it delivers, and how to check its CSV."""

    argv: tuple
    samples: int
    rows: int
    failures: Callable[[str], int]  # CSV text -> failed rows
    reference: tuple | None = None  # argv whose CSV must match byte for byte
    verdict_status: int | None = None  # exit status that only reports FAIL cells


def _table1(method: str, *extra: str) -> tuple:
    return ("table1", "--method", method, "--n", str(TABLE1_N), *extra)


_BROWNIAN = _table1("brownian", "--dt", "1e-4")
_TABLE1_SIZE = dict(samples=TABLE1_ROWS * TABLE1_N, rows=TABLE1_ROWS, verdict_status=1)

WORKLOADS = {
    "table1_wos": Workload(
        _table1("wos"), failures=partial(checks.table1_failures, n=TABLE1_N, method="wos",
                                         rows=TABLE1_ROWS), **_TABLE1_SIZE),
    "table1_brownian": Workload(
        _BROWNIAN, failures=partial(checks.table1_failures, n=TABLE1_N, method="brownian",
                                    rows=TABLE1_ROWS), **_TABLE1_SIZE),
    "table1_brownian_w2": Workload(
        _BROWNIAN + ("--workers", "2"), reference=_BROWNIAN,
        failures=partial(checks.table1_failures, n=TABLE1_N, method="brownian",
                         rows=TABLE1_ROWS), **_TABLE1_SIZE),
    "privacy_exact": Workload(
        ("privacy", "--method", "exact", "--house", f"{HOUSE_RHO},0", "--radius", str(RADIUS),
         "--trips-grid", ",".join(map(str, TRIPS_GRID)), "--replications", str(REPLICATIONS)),
        samples=sum(TRIPS_GRID) * REPLICATIONS, rows=len(TRIPS_GRID),
        failures=partial(checks.privacy_failures, dim=DIM, rho=HOUSE_RHO, radius=RADIUS,
                         grid=TRIPS_GRID, replications=REPLICATIONS)),
}


class Run:
    """One benchmark invocation: its commands, checks and output files."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.perf_counter() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.csvs: set[bytes] = set()
        self.results: list[dict] = []
        self.setup_s: list[float] = []

    def _child(self, spec: dict, tag: str) -> tuple[subprocess.CompletedProcess | None, Path]:
        spec_path = self.dir / f"{tag}.spec.json"
        result_path = self.dir / f"{tag}.result.json"
        spec_path.write_text(json.dumps({"src": str(SRC), **spec}))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
                cwd=self.dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return None, result_path
        return proc, result_path

    def argv(self, base: tuple, csv: Path) -> list[str]:
        return [*base, "--seed", str(self.seed), "--out", str(csv)]

    def setup_probe(self) -> None:
        t0 = time.perf_counter()
        proc, _ = self._child({"argv": self.argv(self.wl.argv, self.dir / "setup.csv"),
                               "mode": "setup"}, "setup")
        elapsed = time.perf_counter() - t0
        if proc is None or proc.returncode != 0:
            raise SystemExit(f"setup probe failed: {proc.stderr if proc else 'timeout'}")
        self.setup_s.append(elapsed)

    def command(self, base: tuple, mode: str = "run") -> dict:
        """Run one command, check its CSV, and return the child's report."""
        tag = f"cmd{len(self.results)}"
        csv = self.dir / f"{tag}.csv"
        spec = {"argv": self.argv(base, csv), "mode": mode,
                "spans": str(self.dir / f"spans-{tag}.jsonl")}
        proc, result_path = self._child(spec, tag)
        result = {"status": None, "error": "timeout" if proc is None else proc.stderr[-2000:]}
        if proc is not None and proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        result["argv"] = spec["argv"]
        self.results.append(result)
        self.attempted += self.wl.rows
        if (result["status"] not in (0, self.wl.verdict_status) or result["error"]
                or not csv.is_file()):
            self.failed += self.wl.rows
            return result
        data = csv.read_bytes()
        self.csvs.add(data)
        if self.wl.verdict_status is not None:
            # The status must agree with the FAIL cells it reports.
            result["program_fail_rows"] = checks.program_failures(data.decode())
            if (result["status"] == 0) != (result["program_fail_rows"] == 0):
                self.failed += self.wl.rows
                return result
        self.failed += self.wl.failures(data.decode())
        return result

    def outcome(self) -> tuple[bool, int]:
        """(correct, failed): a CSV mismatch within the seed fails every row."""
        failed = self.attempted if len(self.csvs) > 1 else self.failed
        return failed == 0, failed

    def timed_out(self) -> bool:
        return time.perf_counter() >= self.deadline


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def machine(results: list[dict]) -> dict:
    """nproc, CPU model, cache sizes, Python and numpy versions of this host."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": next((r["numpy"] for r in results if "numpy" in r), None)}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            key = "L{}{}".format((index / "level").read_text().strip(),
                                 {"Data": "d", "Instruction": "i"}.get(
                                     (index / "type").read_text().strip(), ""))
            caches[key] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics from untraced commands.

    Set-up probes follow commands, so they meet the warm host a user's
    next command would; probe time does not count towards ``seconds``.
    """
    if run.wl.reference:
        run.command(run.wl.reference)
    timed, busy = [], 0.0
    while (len(timed) < MIN_COMMANDS or busy < seconds) and not run.timed_out():
        t0 = time.perf_counter()
        timed.append(run.command(run.wl.argv))
        busy += time.perf_counter() - t0
        for _ in range(PROBES_PER_COMMAND):
            run.setup_probe()
    while len(run.setup_s) < SETUP_PROBES:
        run.setup_probe()
    walls = [r.get("wall_s") for r in timed]
    _, failed = run.outcome()
    return {
        "samples_per_s": _median(run.wl.samples / w for w in walls if w),
        "wall_s": _median(walls),
        "setup_s": _median(run.setup_s),
        "cpu_s": _median(r.get("cpu_s") for r in timed),
        "peak_rss_mb": _median(r.get("peak_rss_mb") for r in timed),
        "pass_share": 1.0 - failed / run.attempted,
    }


def trace(run: Run, seconds: float) -> dict[str, float]:
    """Per-layer metrics from traced commands, each paired with an untraced one."""
    if run.wl.reference:
        run.command(run.wl.reference)
    plain, traced = [], []
    start = time.perf_counter()
    while (not traced or time.perf_counter() - start < seconds) and not run.timed_out():
        plain.append(run.command(run.wl.argv))
        traced.append(run.command(run.wl.argv, mode="trace"))
    layers = [r["layers"] for r in traced if "layers" in r]
    out = {name: _median(lay[name] for lay in layers) for name in (layers[0] if layers else ())}
    out["trace.overhead_s"] = (_median(r.get("wall_s") for r in traced)
                               - _median(r.get("wall_s") for r in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exitlaw" / "cli.py").is_file():
        print(f"error: no exitlaw sources under {SRC}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed, args.trace)
    values = (trace if args.trace else measure)(run, args.seconds)
    correct, failed = run.outcome()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "identical_csvs": len(run.csvs) <= 1, "metrics": values,
              "machine": machine(run.results), "setup_s": run.setup_s,
              "commands": run.results}
    (run.dir / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
