"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Every criterion prints exactly one ``criterion N: PASS/FAIL`` line (outside
pytest's capture, so the lines survive into piped logs) and then asserts.
Statistical criteria run at the documented default seed with the stated
tolerances; nothing here loosens a bound that a module-level test enforces.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from exitlaw import cli, driver
from exitlaw.ball import (
    kernel_normalization,
    second_moment_quadrature,
    theoretical_trace,
)
from exitlaw.brownian import BrownianConfig
from exitlaw.driver import ExactConfig
from exitlaw.cli import main
from exitlaw.geometry import Ball, BoxDomain
from exitlaw.privacy import CloakScenario, run_attacks
from exitlaw.stats import summarize
from exitlaw.wos import WosConfig


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def arc_counts(points: np.ndarray, n_arcs: int = 36) -> np.ndarray:
    ang = np.arctan2(points[:, 1], points[:, 0]) % (2.0 * math.pi)
    idx = np.minimum((ang * n_arcs / (2.0 * math.pi)).astype(int), n_arcs - 1)
    return np.bincount(idx, minlength=n_arcs)


def two_sample_chi2(a: np.ndarray, b: np.ndarray) -> float:
    tot = a + b
    live = tot > 0
    return float((((a - b) ** 2)[live] / tot[live]).sum())


def test_criterion_1_reproduction_table_all_methods_and_seeds(tmp_path, capsys):
    # Five seeds x three methods at the documented defaults (n=500,
    # dt=1e-4); every run must report 9/9 rows PASS (exit status 0) and
    # carry the exact theoretical trace column.
    failures = []
    runs = 0
    for method in ("exact", "wos", "brownian"):
        for seed in range(5):
            out = tmp_path / f"t1_{method}_{seed}.csv"
            status = main(["table1", "--method", method, "--seed", str(seed),
                           "--out", str(out)])
            runs += 1
            if status != 0:
                failures.append((method, seed))
            body = [ln for ln in out.read_text().splitlines()
                    if not ln.startswith("#")]
            header = body[0].split(",")
            theory = [row.split(",")[header.index("trace_theory")]
                      for row in body[1:]]
            if theory != ["0.96", "0.75", "0.36"] * 3:
                failures.append((method, seed, "theory column"))
    report(capsys, 1, not failures,
           f"{runs - len(failures)}/{runs} table runs all-PASS "
           f"(5 seeds x 3 methods, n=500)" + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_box_domain_unbiasedness(capsys):
    # Walk-on-spheres on a non-ball domain: the exit-point mean must
    # reproduce the start coordinate-wise, three starts, n=1e4 each.
    box = BoxDomain(np.array([0.0, 0.0]), np.array([2.0, 1.0]))
    worst = 0.0
    ok = True
    for ctx, theta in enumerate([(0.5, 0.5), (1.0, 0.3), (1.7, 0.8)]):
        batch = driver.sample_exits(box, np.array(theta), WosConfig(), 10_000,
                                    seed=0, context=ctx)
        mean = batch.points.mean(axis=0)
        se = batch.points.std(axis=0, ddof=1) / math.sqrt(len(batch))
        z = np.abs(mean - np.array(theta)) / se
        worst = max(worst, float(z.max()))
        ok = ok and bool((z <= 4.0).all())
    report(capsys, 2, ok, f"box exit means unbiased at 3 starts, n=1e4, "
                          f"worst |z| = {worst:.2f} (<= 4)")


def test_criterion_3_trace_precision_run(capsys):
    # Closed-form sampler at n=1e5: the empirical covariance trace must
    # match r^2 - rho^2 within 4 trace SEs, and the SE itself must be
    # small enough to make that a precision statement.
    ok = True
    worst_z = 0.0
    worst_se = 0.0
    ctx = 0
    for d in (2, 3, 4):
        ball = Ball(np.zeros(d), 1.0)
        for rho in (0.0, 0.5, 0.8):
            theta = np.zeros(d)
            theta[0] = rho
            batch = driver.sample_exits(ball, theta, ExactConfig(), 100_000,
                                        seed=0, context=ctx)
            ctx += 1
            s = summarize(batch)
            z = abs(s.trace - (1.0 - rho * rho)) / s.trace_se
            worst_z = max(worst_z, z)
            worst_se = max(worst_se, s.trace_se)
            ok = ok and z <= 4.0 and s.trace_se < 0.01
    report(capsys, 3, ok, f"trace within 4 SE over d in {{2,3,4}} x rho in "
                          f"{{0,0.5,0.8}} at n=1e5; worst |z| = {worst_z:.2f}, "
                          f"worst SE = {worst_se:.4f} (< 0.01)")


def test_criterion_4_exit_time_identity(capsys):
    # Timestepped walks: mean exit time equals (r^2 - rho^2)/d within
    # max(4 SE, 5 sqrt(dt)) — the dt floor absorbs discretization bias.
    dt = 1e-4
    floor = 5.0 * math.sqrt(dt)
    ok = True
    worst = 0.0
    ctx = 0
    for d in (2, 3):
        ball = Ball(np.zeros(d), 1.0)
        for rho in (0.0, 0.5):
            theta = np.zeros(d)
            theta[0] = rho
            batch = driver.sample_exits(ball, theta, BrownianConfig(dt=dt), 2000, seed=0,
                                        context=ctx)
            ctx += 1
            times = batch.exit_times
            err = abs(float(times.mean()) - (1.0 - rho * rho) / d)
            tol = max(4.0 * float(times.std(ddof=1)) / math.sqrt(len(times)), floor)
            worst = max(worst, err / tol)
            ok = ok and err <= tol
    report(capsys, 4, ok, f"mean exit time matches (r^2-rho^2)/d for d in "
                          f"{{2,3}}, rho in {{0,0.5}}, n=2000, dt=1e-4; worst "
                          f"err/tol = {worst:.2f} (<= 1)")


def test_criterion_5_kernel_normalization_and_quadrature_identity(capsys):
    # Kernel mass: spectral quadrature in d=2 (tol 1e-6, 1e4 nodes) and
    # Monte Carlo in d=3 (tol 5e-3, 1e6 draws), across four offsets; plus
    # the d=2 second-moment quadrature closing on the trace to 1e-8.
    ok = True
    worst2 = worst3 = worst_q = 0.0
    for rho in (0.0, 0.25, 0.5, 0.9):
        disk = Ball(np.zeros(2), 1.0)
        x2 = np.array([rho, 0.0])
        err2 = abs(kernel_normalization(disk, x2, 10_000) - 1.0)
        sphere = Ball(np.zeros(3), 1.0)
        x3 = np.array([rho, 0.0, 0.0])
        err3 = abs(kernel_normalization(sphere, x3, 1_000_000, seed=0) - 1.0)
        errq = abs(second_moment_quadrature(disk, x2) - theoretical_trace(disk, x2))
        worst2, worst3, worst_q = (max(worst2, err2), max(worst3, err3),
                                   max(worst_q, errq))
        ok = ok and err2 <= 1e-6 and err3 <= 5e-3 and errq <= 1e-8
    report(capsys, 5, ok, f"kernel mass: d=2 worst err {worst2:.2e} (<= 1e-6), "
                          f"d=3 MC worst err {worst3:.2e} (<= 5e-3), "
                          f"quadrature identity worst err {worst_q:.2e} (<= 1e-8)")


def test_criterion_6_cross_sampler_agreement(capsys):
    # All three samplers draw the same boundary law: two-sample
    # chi-square over 36 equal arcs, every pair below the 0.999 critical
    # value, 1e4 draws per sampler at the documented defaults.
    ball = Ball(np.zeros(2), 1.0)
    theta = np.array([0.5, 0.0])
    counts = {}
    for ctx, method in enumerate(("exact", "wos", "brownian")):
        batch = driver.sample_exits(ball, theta, driver.sampler_config(method), 10_000,
                                    seed=0, context=ctx)
        counts[method] = arc_counts(batch.points)
    crit = chi2.ppf(0.999, 35)
    stats = {
        (a, b): two_sample_chi2(counts[a], counts[b])
        for a, b in (("exact", "wos"), ("exact", "brownian"), ("wos", "brownian"))
    }
    ok = all(v < crit for v in stats.values())
    pretty = ", ".join(f"{a}-{b} {v:.1f}" for (a, b), v in stats.items())
    report(capsys, 6, ok, f"36-arc two-sample chi-square {pretty}, all < "
                          f"{crit:.2f} (0.999 critical value, 35 dof)")


def test_criterion_7_privacy_error_law(capsys):
    # Sample-mean attack over a 3x3 grid of (offset, trips), 500
    # replications per cell: RMS error within 4 SE of sqrt(trace/trips)
    # and monotone decreasing along both axes.
    rhos, trip_counts = (0.1, 0.5, 0.9), (10, 50, 200)
    grid = np.empty((3, 3))
    ok = True
    worst = 0.0
    ctx = 0
    for i, rho in enumerate(rhos):
        for j, trips in enumerate(trip_counts):
            scn = CloakScenario(house=np.array([rho, 0.0]),
                                privacy_region=Ball(np.zeros(2), 1.0),
                                trips=trips, sampler=ExactConfig())
            reports = run_attacks(scn, seed=0, replications=500, context=ctx)
            ctx += 1
            sq = np.array([rep.error ** 2 for rep in reports])
            rms = math.sqrt(sq.mean())
            se_rms = sq.std(ddof=1) / math.sqrt(len(sq)) / (2.0 * rms)
            pred = math.sqrt((1.0 - rho * rho) / trips)
            grid[i, j] = rms
            worst = max(worst, abs(rms - pred) / se_rms)
            ok = ok and abs(rms - pred) <= 4.0 * se_rms
    monotone = bool((np.diff(grid, axis=0) < 0).all()
                    and (np.diff(grid, axis=1) < 0).all())
    ok = ok and monotone
    report(capsys, 7, ok, f"attack RMS tracks sqrt(trace/trips) on 3x3 grid, "
                          f"500 reps/cell, worst |z| = {worst:.2f} (<= 4); "
                          f"monotone in offset and trips: {monotone}")


def test_criterion_8_byte_identical_output_across_workers(tmp_path, capsys):
    # Same seed, different worker counts: every command must emit
    # byte-identical files.
    cases = {
        "table1": ["table1", "--method", "exact", "--n", "150", "--seed", "3"],
        "sample": ["sample", "--method", "wos", "--n", "400", "--theta",
                   "0.5,0", "--seed", "3"],
        "kernel-check": ["kernel-check", "--dim", "3", "--resolution",
                         "200000", "--seed", "3"],
        "privacy": ["privacy", "--method", "exact", "--trips-grid", "20,80",
                    "--replications", "6", "--seed", "3"],
    }
    same = {}
    for name, argv in cases.items():
        a = tmp_path / f"{name}_w1.csv"
        b = tmp_path / f"{name}_w4.csv"
        main(argv + ["--workers", "1", "--out", str(a)])
        main(argv + ["--workers", "4", "--out", str(b)])
        same[name] = a.read_bytes() == b.read_bytes()
    ok = all(same.values())
    report(capsys, 8, ok, "workers 1 vs 4 byte-identical for " +
           ", ".join(sorted(k for k, v in same.items() if v)) +
           (f"; MISMATCH: {sorted(k for k, v in same.items() if not v)}" if not ok else ""))
