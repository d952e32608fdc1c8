"""Correctness checks on the CSVs a workload writes.

Both checks score the program's numbers against the ball's closed-form
exit law, never against observed runs, at z = 6 (about 1e-9 per side),
so a correct sampler fails them by chance less than once in 10^7 tables.

For an exit point Y of the ball of radius r started at theta, |theta| = rho,
with T = r^2 - rho^2, the exit covariance is (T/d)·I and
|Y - theta|^2 = r^2 + rho^2 - 2 theta·Y, so Var|Y - theta|^2 = 4 rho^2 T / d
and E|Y - house|^4 = T^2 + 4 rho^2 T / d.

table1: a row fails when its ``n``, ``method`` or ``trace_theory`` cell is
wrong, or when a mean coordinate or ``trace_hat`` is more than 6 closed-form
standard errors from theory: sqrt(T / (d n)) for a mean coordinate,
sqrt(4 rho^2 T / (d n)) for the trace. The program's own ``pass`` cell is a
|z| <= 4 verdict on the same d + 1 statistics with estimated standard
errors; over a table's 36 statistics it reads FAIL on a few tables in a
thousand even for an exact sampler (seed 745011556 of brownian: the mean
of coordinate 2, unbiased by symmetry, at z = 4.04), so the benchmark
records that verdict but does not fail a row on it.

privacy: a grid cell fails when its ``ratio`` (empirical over predicted
attack RMSE) leaves a band derived from the same law. One attack's squared
error over n trips has mean T/n and relative variance

    v = 4 rho^2 / (d T n) + 2 (n - 1) / (d n).

ratio^2 averages R such errors, so it is matched to chi^2_nu / nu with
nu = 2R / v, and the band is that law's Wilson-Hilferty quantiles at z = 6.
"""

from __future__ import annotations

import math

BAND_Z = 6.0


def rows_of(text: str) -> list[dict]:
    """Data rows of a CSV, as dicts keyed by its header; metadata lines skipped."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not body:
        return []
    header = body[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in body[1:]]


def table1_failures(text: str, n: int, method: str, rows: int) -> int:
    """Failed rows out of ``rows`` expected table1 rows (see the module doc)."""
    got = rows_of(text)
    if len(got) != rows:
        return rows
    return sum(not _table1_row_ok(r, n, method) for r in got)


def program_failures(text: str) -> int:
    """Rows whose own ``pass`` cell reads FAIL (recorded, not judged)."""
    return sum(r.get("pass") == "FAIL" for r in rows_of(text))


def _table1_row_ok(row: dict, n: int, method: str) -> bool:
    if row.get("n") != str(n) or row.get("method") != method:
        return False
    try:
        d = int(row["d"])
        theta = [float(row[f"theta_{i}"]) for i in range(1, d + 1)]
        mean = [float(row[f"mean_{i}"]) for i in range(1, d + 1)]
        trace_theory, trace_hat = float(row["trace_theory"]), float(row["trace_hat"])
    except (KeyError, ValueError):
        return False
    rho2 = sum(v * v for v in theta)
    t = 1.0 - rho2  # table1 samples the unit ball
    if not math.isclose(trace_theory, t, rel_tol=1e-9):
        return False
    mean_se = math.sqrt(t / (d * n))
    trace_se = math.sqrt(4.0 * rho2 * t / (d * n))
    return (all(abs(m - th) <= BAND_Z * mean_se for m, th in zip(mean, theta))
            and abs(trace_hat - t) <= BAND_Z * trace_se)


def ratio_band(dim: int, rho: float, radius: float, trips: int,
               replications: int) -> tuple[float, float]:
    """Band for empirical/predicted attack RMSE at one grid cell."""
    t = (radius - rho) * (radius + rho)
    v = 4.0 * rho * rho / (dim * t * trips) + 2.0 * (trips - 1) / (dim * trips)
    nu = 2.0 * replications / v
    w = 2.0 / (9.0 * nu)
    lo = max(0.0, 1.0 - w - BAND_Z * math.sqrt(w)) ** 3
    hi = (1.0 - w + BAND_Z * math.sqrt(w)) ** 3
    return math.sqrt(lo), math.sqrt(hi)


def privacy_failures(text: str, dim: int, rho: float, radius: float,
                     grid: tuple, replications: int) -> int:
    """Failed cells out of ``len(grid)`` privacy grid cells."""
    got = rows_of(text)
    if [r.get("trips") for r in got] != [str(t) for t in grid]:
        return len(grid)
    t = (radius - rho) * (radius + rho)
    failed = 0
    for row, trips in zip(got, grid):
        try:
            ratio, pred = float(row["ratio"]), float(row["predicted_rmse"])
        except (KeyError, ValueError):
            failed += 1
            continue
        lo, hi = ratio_band(dim, rho, radius, trips, replications)
        failed += not (lo <= ratio <= hi and math.isclose(pred, math.sqrt(t / trips),
                                                          rel_tol=1e-9))
    return failed
