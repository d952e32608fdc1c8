"""Command-line interface.

Four commands:

* ``table1``       — run the nine-setting reproduction table.
* ``sample``       — sample one (domain, theta, method) setting and score it.
* ``kernel-check`` — numerically verify the ball kernel's normalization.
* ``privacy``      — run cloaking attacks over a trips grid.

Output goes to a CSV (or aligned-text) file whose metadata lines embed
the version, the seed, and the semantic configuration. Worker count,
timestamps, and paths are deliberately excluded: output bytes are a
pure function of (config, seed), so reruns at any parallelism level
produce identical files.

Points on the command line are comma-separated reals without spaces
(``--theta 0.5,0``). A JSON config file can preload any flag
(``--config run.json``); explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, ball, brownian, driver, privacy, stats, wos
from .geometry import Ball

_DEFAULT_MAX_DIM = 4  # the CSV schema carries four coordinate columns

SAMPLING_HEADER = ("d,method,n,dt,epsilon,theta_1,theta_2,theta_3,theta_4,"
                   "mean_1,mean_2,mean_3,mean_4,trace_theory,trace_hat,"
                   "trace_se,z_trace,pass").split(",")
KERNEL_HEADER = "d,rho,radius,resolution,normalization,abs_error,tol,pass".split(",")
PRIVACY_HEADER = "trips,empirical_rmse,predicted_rmse,ratio".split(",")


@dataclass
class RunConfig:
    """A fully resolved run: command plus every knob it needs."""

    command: str
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1
    method: str = "brownian"
    n_samples: int = 500
    dt: float = brownian.BrownianConfig.dt
    epsilon: float | None = wos.WosConfig.epsilon
    step_fraction: float = wos.WosConfig.step_fraction
    exit_rule: str = brownian.BrownianConfig.exit_rule
    dim: int = 2
    center: tuple | None = None
    radius: float = 1.0
    theta: tuple | None = None
    rho: float = 0.5
    resolution: int | None = None
    tol: float | None = None
    house: tuple | None = None
    trips: int = 100
    trips_grid: tuple | None = None
    replications: int = 1


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
        p.add_argument("--seed", type=int, help="run seed (default 0)")
        p.add_argument("--out", help="output path (default: <command>.<ext> "
                                     "in $EXITLAW_OUTPUT_DIR or the working directory)")
        p.add_argument("--format", choices=["csv", "text"], help="output format (default csv)")
        p.add_argument("--workers", type=int, help="parallel workers (never changes results)")
        p.add_argument("--config", help="JSON file preloading any flag; flags override it")

    def sampler_knobs(p):
        p.add_argument("--method", choices=driver.METHODS, help="sampler (default brownian)")
        p.add_argument("--dt", type=_real,
                       help=f"brownian timestep (default {RunConfig.dt:g})")
        p.add_argument("--epsilon", type=_real,
                       help="wos absorption shell (default 1e-6 x diameter)")
        p.add_argument("--step-fraction", dest="step_fraction", type=_real,
                       help=f"wos hop radius fraction (default {RunConfig.step_fraction:g})")

    p = sub.add_parser("table1", help="run the nine-setting reproduction table")
    common(p)
    sampler_knobs(p)
    p.add_argument("--n", dest="n_samples", type=int, help="samples per row (default 500)")

    p = sub.add_parser("sample", help="sample one setting and score it against theory")
    common(p)
    p.add_argument("--dim", type=int, help="dimension (default 2, max 4 for the CSV schema)")
    p.add_argument("--center", type=_point, help="ball center (default origin)")
    p.add_argument("--radius", type=_real, help="ball radius (default 1)")
    p.add_argument("--theta", type=_point, help="start point (default: the center)")
    sampler_knobs(p)
    p.add_argument("--n", dest="n_samples", type=int, help="sample count (default 500)")
    p.add_argument("--exit-rule", dest="exit_rule", choices=brownian.EXIT_RULES,
                   help=f"brownian exit extraction (default {RunConfig.exit_rule})")

    p = sub.add_parser("kernel-check", help="verify the ball kernel integrates to 1")
    common(p)
    p.add_argument("--dim", type=int, help="dimension (default 2)")
    p.add_argument("--rho", type=_real, help="start distance from center (default 0.5)")
    p.add_argument("--radius", type=_real, help="ball radius (default 1)")
    p.add_argument("--resolution", type=int,
                   help="quadrature nodes (d=2) or MC draws (d>=3); defaults 10^4 / 10^6")
    p.add_argument("--tol", type=_real, help="pass tolerance (defaults 1e-6 for d=2, 5e-3 for d>=3)")

    p = sub.add_parser("privacy", help="mount cloaking attacks over a trips grid")
    common(p)
    p.add_argument("--house", type=_point, help="hidden start point (default 0.5,0)")
    p.add_argument("--center", type=_point, help="privacy region center (default origin)")
    p.add_argument("--radius", type=_real, help="privacy region radius (default 1)")
    p.add_argument("--trips", type=int, help="observed trips per attack (default 100)")
    p.add_argument("--trips-grid", dest="trips_grid", type=_int_list,
                   help="comma-separated trip counts; overrides --trips with a grid")
    p.add_argument("--replications", type=int, help="attacks per grid cell (default 1)")
    sampler_knobs(p)

    return parser


def parse_args(argv=None) -> RunConfig:
    """Parse flags (and an optional JSON config) into a validated RunConfig."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        # Precedence: RunConfig defaults < config file < explicit flags. The
        # file's entries become flags placed before the explicit ones, so
        # they are converted and checked exactly as typed flags are.
        ns = parser.parse_args(argv[:1] + _config_flags(ns.config, parser) + argv[1:])

    cfg = RunConfig(command=ns.command)
    for key, value in vars(ns).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(cfg, key, value)

    _validate(cfg, parser)
    return cfg


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The entries of a JSON config file as ``--flag=value`` arguments."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(file_cfg, dict):
        parser.error(f"config file {path} must hold a JSON object")

    known = {f.name for f in fields(RunConfig)}
    flags = []
    for key, value in file_cfg.items():
        key = key.replace("-", "_")
        key = {"n": "n_samples"}.get(key, key)
        if key not in known or key == "command":
            parser.error(f"unknown config file key {key!r}")
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flag = {"n_samples": "n"}.get(key, key).replace("_", "-")
        flags.append(f"--{flag}={value}")
    return flags


def _validate(cfg: RunConfig, parser: argparse.ArgumentParser) -> None:
    err = parser.error
    if cfg.n_samples < 1:
        err(f"--n must be >= 1, got {cfg.n_samples}")
    for method in driver.SAMPLERS:  # the metadata line records every knob
        try:
            _sampler(cfg, method)
        except ValueError as exc:
            err(str(exc))
    if cfg.workers < 1:
        err(f"--workers must be >= 1, got {cfg.workers}")
    if not 0 <= cfg.seed < 1 << 64:
        err(f"--seed must lie in [0, 2^64), got {cfg.seed}")
    if cfg.radius <= 0:
        err(f"--radius must be positive, got {cfg.radius}")

    if cfg.command in ("sample", "kernel-check"):
        if cfg.dim < 1:
            err(f"--dim must be >= 1, got {cfg.dim}")
        if cfg.command == "sample" and cfg.dim > _DEFAULT_MAX_DIM:
            err(f"--dim > {_DEFAULT_MAX_DIM} is not representable in the CSV schema")
    if cfg.command == "sample":
        center = cfg.center if cfg.center is not None else (0.0,) * cfg.dim
        theta = cfg.theta if cfg.theta is not None else center
        if len(center) != cfg.dim or len(theta) != cfg.dim:
            err(f"--center/--theta must have {cfg.dim} coordinates")
        cfg.center, cfg.theta = tuple(center), tuple(theta)
        domain = Ball(np.array(cfg.center), cfg.radius)
        if not domain.contains(np.array(cfg.theta)):
            err("theta outside domain")
    if cfg.command == "kernel-check":
        if not 0 <= cfg.rho < cfg.radius:
            err(f"--rho must lie in [0, radius), got {cfg.rho}")
        if cfg.resolution is None:
            cfg.resolution = 10_000 if cfg.dim == 2 else 1_000_000
        if cfg.resolution < 2:
            err(f"--resolution must be >= 2, got {cfg.resolution}")
        if cfg.tol is None:
            cfg.tol = 1e-12 if cfg.dim == 1 else (1e-6 if cfg.dim == 2 else 5e-3)
    if cfg.command == "privacy":
        house = cfg.house if cfg.house is not None else (0.5, 0.0)
        center = cfg.center if cfg.center is not None else (0.0,) * len(house)
        if len(center) != len(house):
            err("--house and --center must have the same dimension")
        cfg.house, cfg.center = tuple(house), tuple(center)
        region = Ball(np.array(cfg.center), cfg.radius)
        if not region.contains(np.array(cfg.house)):
            err("house outside privacy region")
        if cfg.trips < 1:
            err(f"--trips must be >= 1, got {cfg.trips}")
        if cfg.replications < 1:
            err(f"--replications must be >= 1, got {cfg.replications}")
        if cfg.trips_grid is not None and any(t < 1 for t in cfg.trips_grid):
            err("--trips-grid entries must be >= 1")


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


def _meta_lines(cfg: RunConfig, keys: tuple) -> list[str]:
    parts = [f"command={cfg.command}", f"seed={cfg.seed}"]
    for key in keys:
        value = getattr(cfg, key)
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


def _out_path(cfg: RunConfig) -> str:
    if cfg.out:
        return cfg.out
    ext = "csv" if cfg.format == "csv" else "txt"
    name = f"{cfg.command.replace('-', '_')}.{ext}"
    return os.path.join(os.environ.get("EXITLAW_OUTPUT_DIR", "."), name)


def _write(cfg: RunConfig, text: str) -> str:
    path = _out_path(cfg)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"error: cannot write output file {path}: {exc}")
    return path


def _pad4(values) -> list:
    vals = list(values)
    return vals + [None] * (4 - len(vals))


def _sampling_rows(rows: list[stats.ComparisonRow]) -> list[list]:
    out = []
    for row in rows:
        out.append([
            row.d, row.method, row.n, row.dt, row.epsilon,
            *_pad4(row.theta), *_pad4(row.summary.mean),
            row.trace_theory, row.summary.trace, row.summary.trace_se,
            row.z_trace, "PASS" if row.passed else "FAIL",
        ])
    return out


# ---------------------------------------------------------------------------
# command execution


def _sampler(cfg: RunConfig, method: str | None = None) -> driver.Sampler:
    """The config of ``method`` (default: the run's) from the run's knobs."""
    return driver.sampler_config(method or cfg.method, dt=cfg.dt, exit_rule=cfg.exit_rule,
                                 epsilon=cfg.epsilon, step_fraction=cfg.step_fraction)


def _run_table1(cfg: RunConfig) -> int:
    table_cfg = stats.TableConfig(sampler=_sampler(cfg), n=cfg.n_samples,
                                  workers=cfg.workers)
    rows = stats.reproduce_table1(table_cfg, cfg.seed)
    meta = _meta_lines(cfg, ("method", "n_samples", "dt", "epsilon", "step_fraction"))
    path = _write(cfg, _render(SAMPLING_HEADER, _sampling_rows(rows), meta, cfg.format))
    npass = sum(r.passed for r in rows)
    print(f"{npass}/{len(rows)} rows PASS ({path})")
    return 0 if npass == len(rows) else 1


def _run_sample(cfg: RunConfig) -> int:
    domain = Ball(np.array(cfg.center), cfg.radius)
    theta = np.array(cfg.theta)
    sampler = _sampler(cfg)
    batch = driver.sample_exits(domain, theta, sampler, cfg.n_samples, cfg.seed,
                                workers=cfg.workers)
    row = stats.compare(stats.summarize(batch), domain, theta, sampler=sampler)
    meta = _meta_lines(cfg, ("method", "n_samples", "dt", "epsilon", "step_fraction",
                             "exit_rule", "dim", "center", "radius", "theta"))
    path = _write(cfg, _render(SAMPLING_HEADER, _sampling_rows([row]), meta, cfg.format))
    verdict = "PASS" if row.passed else "FAIL"
    print(f"mean {tuple(round(v, 6) for v in row.summary.mean.tolist())} "
          f"trace {row.summary.trace:.6g} vs {row.trace_theory:.6g}: {verdict} ({path})")
    return 0 if row.passed else 1


def _run_kernel_check(cfg: RunConfig) -> int:
    center = np.zeros(cfg.dim)
    domain = Ball(center, cfg.radius)
    x = np.zeros(cfg.dim)
    x[0] = cfg.rho
    norm = ball.kernel_normalization(domain, x, cfg.resolution, seed=cfg.seed)
    abs_err = abs(norm - 1.0)
    ok = abs_err <= cfg.tol
    rows = [[cfg.dim, cfg.rho, cfg.radius, cfg.resolution, norm, abs_err,
             cfg.tol, "PASS" if ok else "FAIL"]]
    meta = _meta_lines(cfg, ("dim", "rho", "radius", "resolution", "tol"))
    path = _write(cfg, _render(KERNEL_HEADER, rows, meta, cfg.format))
    print(f"normalization {norm:.6f} (abs error {abs_err:.3g}, tol {cfg.tol:g}): "
          f"{'PASS' if ok else 'FAIL'} ({path})")
    return 0 if ok else 1


def _run_privacy(cfg: RunConfig) -> int:
    region = Ball(np.array(cfg.center), cfg.radius)
    scenario = privacy.CloakScenario(house=np.array(cfg.house), privacy_region=region,
                                     trips=cfg.trips, sampler=_sampler(cfg))
    grid = cfg.trips_grid if cfg.trips_grid is not None else (cfg.trips,)
    points = privacy.privacy_curve(scenario, grid, cfg.replications, cfg.seed,
                                   workers=cfg.workers)
    rows = [[p.trips, p.empirical_rmse, p.predicted_rmse, p.ratio] for p in points]
    grid_key = "trips_grid" if cfg.trips_grid is not None else "trips"
    meta = _meta_lines(cfg, ("method", "dt", "epsilon", "step_fraction", "house",
                             "center", "radius", grid_key, "replications"))
    path = _write(cfg, _render(PRIVACY_HEADER, rows, meta, cfg.format))
    last = points[-1]
    print(f"predicted_rmse {last.predicted_rmse:.6g} empirical_rmse "
          f"{last.empirical_rmse:.6g} at trips={last.trips} ({path})")
    return 0


def run(cfg: RunConfig) -> int:
    """Execute a resolved config; returns the process exit status."""
    try:
        if cfg.command == "table1":
            return _run_table1(cfg)
        if cfg.command == "sample":
            return _run_sample(cfg)
        if cfg.command == "kernel-check":
            return _run_kernel_check(cfg)
        if cfg.command == "privacy":
            return _run_privacy(cfg)
        raise ValueError(f"unknown command {cfg.command!r}")
    except SystemExit:
        raise
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
