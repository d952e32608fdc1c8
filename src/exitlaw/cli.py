"""Command-line interface: a thin layer over the library.

Four commands:

* ``table1``       — run the nine-setting reproduction table.
* ``sample``       — sample one (domain, theta, method) setting and score it.
* ``kernel-check`` — numerically verify the ball kernel's normalization.
* ``privacy``      — run cloaking attacks over a trips grid.

Each flag and its default is declared once, in ``build_parser``. Each
runner builds the library objects from the flags, and their types check
every value before any sampling; a ``ValueError`` or ``RuntimeError``,
or an output file that cannot be written, is one ``error:`` line and
exit status 2. The CLI checks only what the command line alone gives a
meaning: ``--dim`` against the CSV schema, the coordinates of
``--center``/``--theta``, ``--rho >= 0``, ``--workers >= 1`` for every
command (a no-op: every command runs on one thread), and every
sampler's knobs, which the metadata line records whichever one runs.

Output goes to a CSV (or aligned-text) file whose metadata lines embed
the version, the seed, and the semantic configuration. Worker count,
timestamps, and paths are deliberately excluded: output bytes are a
pure function of (config, seed), so reruns at any parallelism level
produce identical files.

Points on the command line are comma-separated reals without spaces
(``--theta 0.5,0``). A JSON config file can preload any flag of its
command (``--config run.json``); explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, ball, brownian, driver, privacy, stats, wos
from .geometry import Ball

_MAX_DIM = 4  # the CSV schema carries four coordinate columns

SAMPLING_HEADER = ("d,method,n,dt,epsilon,theta_1,theta_2,theta_3,theta_4,"
                   "mean_1,mean_2,mean_3,mean_4,trace_theory,trace_hat,"
                   "trace_se,z_trace,pass").split(",")
KERNEL_HEADER = "d,rho,radius,resolution,normalization,abs_error,tol,pass".split(",")
PRIVACY_HEADER = "trips,empirical_rmse,predicted_rmse,ratio".split(",")


def _real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _point(text: str) -> tuple:
    try:
        return tuple(_real(tok) for tok in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite reals without spaces, got {text!r}")


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitlaw",
        description="Sample Brownian exit distributions and check them against closed forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="run seed in [0, 2^64) (default %(default)s)")
        p.add_argument("--out", help="output path (default: <command>.<ext> "
                                     "in $EXITLAW_OUTPUT_DIR or the working directory)")
        p.add_argument("--format", choices=["csv", "text"], default="csv",
                       help="output format (default %(default)s)")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and unused: every command runs on one thread "
                            "(default %(default)s)")
        p.add_argument("--config", help="JSON file preloading any flag; flags override it")

    def sampler_knobs(p):
        p.add_argument("--method", choices=driver.METHODS, default="brownian",
                       help="sampler (default %(default)s)")
        p.add_argument("--dt", type=_real, default=brownian.BrownianConfig.dt,
                       help="brownian timestep (default %(default)s)")
        p.add_argument("--epsilon", type=_real, default=wos.WosConfig.epsilon,
                       help="wos absorption shell (default 1e-6 x diameter)")

    p = sub.add_parser("table1", help="run the nine-setting reproduction table")
    common(p)
    sampler_knobs(p)
    p.add_argument("--n", dest="n_samples", type=int, default=500,
                   help="samples per row (default %(default)s)")

    p = sub.add_parser("sample", help="sample one setting and score it against theory")
    common(p)
    p.add_argument("--dim", type=int, default=2,
                   help=f"dimension (default %(default)s, max {_MAX_DIM} for the CSV schema)")
    p.add_argument("--center", type=_point, help="ball center (default origin)")
    p.add_argument("--radius", type=_real, default=1.0, help="ball radius (default %(default)s)")
    p.add_argument("--theta", type=_point, help="start point (default: the center)")
    sampler_knobs(p)
    p.add_argument("--n", dest="n_samples", type=int, default=500,
                   help="sample count (default %(default)s)")

    p = sub.add_parser("kernel-check", help="verify the ball kernel integrates to 1")
    common(p)
    p.add_argument("--dim", type=int, default=2, help="dimension (default %(default)s)")
    p.add_argument("--rho", type=_real, default=0.5,
                   help="start distance from center (default %(default)s)")
    p.add_argument("--radius", type=_real, default=1.0, help="ball radius (default %(default)s)")
    p.add_argument("--resolution", type=int,
                   help="quadrature nodes (d=2) or MC draws (d>=3); defaults 10^4 / 10^6")
    p.add_argument("--tol", type=_real,
                   help="pass tolerance (defaults 1e-12 for d=1, 1e-6 for d=2, 5e-3 for d>=3)")

    p = sub.add_parser("privacy", help="mount cloaking attacks over a trips grid")
    common(p)
    p.add_argument("--house", type=_point, default="0.5,0",
                   help="hidden start point (default %(default)s)")
    p.add_argument("--center", type=_point, help="privacy region center (default origin)")
    p.add_argument("--radius", type=_real, default=1.0,
                   help="privacy region radius (default %(default)s)")
    p.add_argument("--trips", type=int, default=100,
                   help="observed trips per attack (default %(default)s)")
    p.add_argument("--trips-grid", dest="trips_grid", type=_int_list,
                   help="comma-separated trip counts; overrides --trips with a grid")
    p.add_argument("--replications", type=int, default=1,
                   help="attacks per grid cell (default %(default)s)")
    sampler_knobs(p)

    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def parse_args(argv=None) -> argparse.Namespace:
    """Parse flags (and an optional JSON config) into the run's namespace.

    Fills the defaults that depend on other flags and makes the CLI's
    own checks; the library checks every other value when it runs.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    cmd = _command_parser(parser, ns.command)
    if ns.config:
        # Precedence: flag defaults < config file < explicit flags. The
        # file's entries become flags placed before the explicit ones, so
        # they are converted and checked exactly as typed flags are.
        ns = parser.parse_args(argv[:1] + _config_flags(ns.config, cmd) + argv[1:])

    err = cmd.error
    if ns.workers < 1:  # every command takes it, though none runs threads
        err(f"workers must be >= 1, got {ns.workers}")
    if "method" in ns:  # the metadata line records every sampler's knobs
        for method in driver.SAMPLERS:
            try:
                _sampler(ns, method)
            except ValueError as exc:
                err(str(exc))
    if "dim" in ns and ns.dim < 1:
        err(f"--dim must be >= 1, got {ns.dim}")
    if ns.command == "sample":
        if ns.dim > _MAX_DIM:
            err(f"--dim > {_MAX_DIM} is not representable in the CSV schema")
        ns.center = ns.center or (0.0,) * ns.dim
        ns.theta = ns.theta or ns.center
        if len(ns.center) != ns.dim or len(ns.theta) != ns.dim:
            err(f"--center/--theta must have {ns.dim} coordinates")
    elif ns.command == "kernel-check":
        if ns.rho < 0:
            err(f"--rho must be >= 0, got {ns.rho}")
        if ns.resolution is None:
            ns.resolution = 10_000 if ns.dim == 2 else 1_000_000
        if ns.tol is None:
            ns.tol = 1e-12 if ns.dim == 1 else (1e-6 if ns.dim == 2 else 5e-3)
    elif ns.command == "privacy":
        ns.center = ns.center or (0.0,) * len(ns.house)
    return ns


def _config_flags(path: str, cmd: argparse.ArgumentParser) -> list[str]:
    """The entries of a JSON config file as ``--flag=value`` arguments of ``cmd``."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except OSError as exc:
        cmd.error(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        cmd.error(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(file_cfg, dict):
        cmd.error(f"config file {path} must hold a JSON object")

    # a key is a flag name or its dest, with "-" or "_": "n", "n_samples", "trips-grid"
    known = {}
    for action in cmd._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and action.dest not in ("help", "config"):
                known[action.dest] = known[opt[2:].replace("-", "_")] = opt
    flags = []
    for key, value in file_cfg.items():
        flag = known.get(key.replace("-", "_"))
        if flag is None:
            cmd.error(f"unknown config file key {key!r}")
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags.append(f"{flag}={value}")
    return flags


# ---------------------------------------------------------------------------
# output rendering


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _meta_lines(ns: argparse.Namespace, keys: tuple) -> list[str]:
    parts = [f"command={ns.command}", f"seed={ns.seed}"]
    for key in keys:
        value = getattr(ns, key)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        parts.append(f"{key}={_fmt(value)}")
    return [f"# exitlaw {__version__}", "# " + " ".join(parts)]


def _render(header, rows, meta, fmt: str) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = meta + [",".join(header)] + [",".join(row) for row in cells]
    else:
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(header)]
        lines = list(meta)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _write(ns: argparse.Namespace, text: str) -> str:
    ext = "csv" if ns.format == "csv" else "txt"
    name = f"{ns.command.replace('-', '_')}.{ext}"
    path = ns.out or os.path.join(os.environ.get("EXITLAW_OUTPUT_DIR", "."), name)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc
    return path


def _sampling_rows(rows: list[stats.ComparisonRow]) -> list[list]:
    """Table rows, the theta and mean cells padded to the schema's four columns."""
    return [[row.d, row.method, row.n, row.dt, row.epsilon,
             *row.theta, *[None] * (4 - row.d), *row.summary.mean, *[None] * (4 - row.d),
             row.trace_theory, row.summary.trace, row.summary.trace_se,
             row.z_trace, "PASS" if row.passed else "FAIL"] for row in rows]


# ---------------------------------------------------------------------------
# command execution


def _sampler(ns: argparse.Namespace, method: str | None = None) -> driver.Sampler:
    """The config of ``method`` (default: the run's) from the run's sampler flags."""
    knobs = {key: value for key, value in vars(ns).items() if key != "method"}
    return driver.sampler_config(method or ns.method, **knobs)


def _run_table1(ns: argparse.Namespace) -> int:
    rows = stats.reproduce_table1(_sampler(ns), ns.n_samples, ns.seed)
    meta = _meta_lines(ns, ("method", "n_samples", "dt", "epsilon"))
    path = _write(ns, _render(SAMPLING_HEADER, _sampling_rows(rows), meta, ns.format))
    npass = sum(r.passed for r in rows)
    print(f"{npass}/{len(rows)} rows PASS ({path})")
    return 0 if npass == len(rows) else 1


def _run_sample(ns: argparse.Namespace) -> int:
    domain = Ball(ns.center, ns.radius)
    sampler = _sampler(ns)
    batch = driver.sample_exits(domain, ns.theta, sampler, ns.n_samples, ns.seed)
    row = stats.compare(stats.summarize(batch), domain, ns.theta, sampler=sampler)
    meta = _meta_lines(ns, ("method", "n_samples", "dt", "epsilon", "dim", "center",
                            "radius", "theta"))
    path = _write(ns, _render(SAMPLING_HEADER, _sampling_rows([row]), meta, ns.format))
    verdict = "PASS" if row.passed else "FAIL"
    print(f"mean {tuple(round(v, 6) for v in row.summary.mean.tolist())} "
          f"trace {row.summary.trace:.6g} vs {row.trace_theory:.6g}: {verdict} ({path})")
    return 0 if row.passed else 1


def _run_kernel_check(ns: argparse.Namespace) -> int:
    x = np.zeros(ns.dim)
    x[0] = ns.rho
    norm = ball.kernel_normalization(Ball(np.zeros(ns.dim), ns.radius), x, ns.resolution,
                                     seed=ns.seed)
    abs_err = abs(norm - 1.0)
    ok = abs_err <= ns.tol
    rows = [[ns.dim, ns.rho, ns.radius, ns.resolution, norm, abs_err,
             ns.tol, "PASS" if ok else "FAIL"]]
    meta = _meta_lines(ns, ("dim", "rho", "radius", "resolution", "tol"))
    path = _write(ns, _render(KERNEL_HEADER, rows, meta, ns.format))
    print(f"normalization {norm:.6f} (abs error {abs_err:.3g}, tol {ns.tol:g}): "
          f"{'PASS' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def _run_privacy(ns: argparse.Namespace) -> int:
    scenario = privacy.CloakScenario(house=ns.house, privacy_region=Ball(ns.center, ns.radius),
                                     trips=ns.trips, sampler=_sampler(ns))
    grid = ns.trips_grid if ns.trips_grid is not None else (ns.trips,)
    points = privacy.privacy_curve(scenario, grid, ns.replications, ns.seed)
    rows = [[p.trips, p.empirical_rmse, p.predicted_rmse, p.ratio] for p in points]
    grid_key = "trips_grid" if ns.trips_grid is not None else "trips"
    meta = _meta_lines(ns, ("method", "dt", "epsilon", "house", "center", "radius",
                            grid_key, "replications"))
    path = _write(ns, _render(PRIVACY_HEADER, rows, meta, ns.format))
    last = points[-1]
    print(f"predicted_rmse {last.predicted_rmse:.6g} empirical_rmse "
          f"{last.empirical_rmse:.6g} at trips={last.trips} ({path})")
    return 0


_RUNNERS = {"table1": _run_table1, "sample": _run_sample,
            "kernel-check": _run_kernel_check, "privacy": _run_privacy}


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed namespace; returns the process exit status.

    A ValueError or RuntimeError from the library, such as a value its
    types refuse or a capped loop, and an output file that cannot be
    written are one ``error:`` line and status 2.
    """
    try:
        return _RUNNERS[ns.command](ns)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
