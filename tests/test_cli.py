"""Tests for the command-line interface.

Parsing tests call parse_args directly; end-to-end tests call main() with
--out pointed at tmp_path and inspect the written CSV/text plus the one
summary line on stdout.  Fast sampler settings keep these runs cheap —
the statistical behavior of each command's engine is tested in the
module-specific files.
"""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from exitlaw import ball, brownian, cli, driver, rng
from exitlaw.cli import (
    KERNEL_HEADER,
    PRIVACY_HEADER,
    SAMPLING_HEADER,
    RunConfig,
    build_parser,
    main,
    parse_args,
)


def read_table(path):
    """Split an output file into (meta_lines, header_cells, data_rows)."""
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return meta, body[0].split(","), [ln.split(",") for ln in body[1:]]


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_table1_with_seed():
    cfg = parse_args(["table1", "--seed", "7"])
    assert cfg.command == "table1"
    assert cfg.seed == 7
    assert cfg.n_samples == 500
    assert cfg.dt == 1e-4
    assert cfg.method == "brownian"
    assert cfg.format == "csv"
    assert cfg.workers == 1


def test_parse_sample_full_flags():
    cfg = parse_args("sample --dim 2 --center 0,0 --radius 1 --theta 0.5,0"
                     " --n 1000 --method wos".split())
    assert cfg.command == "sample"
    assert cfg.dim == 2
    assert cfg.center == (0.0, 0.0)
    assert cfg.theta == (0.5, 0.0)
    assert cfg.n_samples == 1000
    assert cfg.method == "wos"


def test_parse_privacy_defaults():
    cfg = parse_args(["privacy"])
    assert cfg.house == (0.5, 0.0)
    assert cfg.center == (0.0, 0.0)
    assert cfg.trips == 100
    assert cfg.replications == 1
    assert cfg.trips_grid is None


def test_theta_outside_domain_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args("sample --dim 2 --theta 2,0 --radius 1 --center 0,0".split())
    assert exc.value.code == 2
    assert "theta outside domain" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, fragment", [
    ("table1 --n 0", "--n"),
    ("table1 --dt 0", "dt must be positive"),
    ("table1 --step-fraction 1.5", "step_fraction must be in"),
    ("table1 --epsilon -1", "epsilon must be positive"),
    ("table1 --workers 0", "--workers"),
    ("sample --dim 0", "--dim"),
    ("sample --dim 5", "CSV schema"),
    ("sample --radius -2", "--radius"),
    ("sample --dim 3 --theta 0.5,0", "coordinates"),
    ("kernel-check --rho 1.0", "--rho"),
    ("kernel-check --resolution 1", "--resolution"),
    ("privacy --house 1.5,0", "house outside privacy region"),
    ("privacy --trips 0", "--trips"),
    ("privacy --replications 0", "--replications"),
    ("privacy --trips-grid 10,0", "--trips-grid"),
    ("privacy --house 0.5,0,0 --center 0,0", "same dimension"),
    ("table1 --seed -1", "--seed must lie in [0, 2^64), got -1"),
    ("sample --seed 18446744073709551616",
     "--seed must lie in [0, 2^64), got 18446744073709551616"),
    ("kernel-check --seed -18446744073709551615", "--seed must lie in [0, 2^64)"),
])
def test_out_of_range_values_exit_2(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv.split())
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    ("sample --radius nan", "--radius: expected a finite real, got 'nan'"),
    ("sample --radius inf", "--radius: expected a finite real"),
    ("sample --theta nan,0", "--theta: expected comma-separated finite reals"),
    ("privacy --house 0.5,inf", "--house: expected comma-separated finite reals"),
    ("table1 --dt nan", "--dt: expected a finite real"),
    ("kernel-check --rho nan", "--rho: expected a finite real"),
])
def test_non_finite_values_exit_2(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


def test_malformed_point_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["sample", "--theta", "a,b"])
    assert exc.value.code == 2
    assert "comma-separated" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# JSON config files
# ---------------------------------------------------------------------------


def test_config_file_preloads_flags_and_flags_override(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 7, "n": 250, "method": "exact",
        "step-fraction": 0.7, "theta": [0.5, 0.0],
    }))
    cfg = parse_args(["sample", "--config", str(path)])
    assert (cfg.seed, cfg.n_samples, cfg.method) == (7, 250, "exact")
    assert cfg.step_fraction == 0.7
    assert cfg.theta == (0.5, 0.0)

    cfg = parse_args(["sample", "--config", str(path), "--seed", "3"])
    assert cfg.seed == 3          # explicit flag wins
    assert cfg.n_samples == 250   # file value survives


@pytest.mark.parametrize("payload, fragment", [
    ('{"frobnicate": 1}', "unknown config file key"),
    ('{"command": "sample"}', "unknown config file key"),
    ('[1, 2]', "JSON object"),
    ('{broken', "not valid JSON"),
])
def test_bad_config_files_exit_2(tmp_path, payload, fragment, capsys):
    path = tmp_path / "run.json"
    path.write_text(payload)
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--config", str(path)])
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("payload, fragment", [
    ('{"n": "abc"}', "--n: invalid int value: 'abc'"),
    ('{"n": 2.5}', "--n: invalid int value: '2.5'"),
    ('{"seed": true}', "--seed: invalid int value: 'True'"),
    ('{"dt": "fast"}', "--dt: expected a finite real, got 'fast'"),
    ('{"theta": ["a", 0]}', "--theta: expected comma-separated finite reals"),
    ('{"method": "teleport"}', "--method: invalid choice: 'teleport'"),
])
def test_config_values_of_the_wrong_type_exit_2(tmp_path, payload, fragment, capsys):
    path = tmp_path / "run.json"
    path.write_text(payload)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--config", str(tmp_path / "nope.json")])
    assert exc.value.code == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_config_seed_outside_64_bits_exits_2(tmp_path, seed, capsys):
    # Philox keys on the seed modulo 2^64, so such a seed would alias one in range
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": seed}))
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--method", "exact", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--seed must lie in [0, 2^64), got {seed}" in err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--method", "exact", "--n", "20", "--seed", str(2 ** 64 - 1),
                 "--out", str(out)]) in (0, 1)
    assert f"seed={2 ** 64 - 1}" in out.read_text()


def test_config_values_still_validated(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"dt": -1}')
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--config", str(path)])
    assert exc.value.code == 2
    assert "dt must be positive" in capsys.readouterr().err


def test_knobs_of_other_samplers_still_checked(capsys):
    # the metadata line records dt whatever the method, so it must be valid
    with pytest.raises(SystemExit) as exc:
        parse_args("table1 --method exact --dt 0".split())
    assert exc.value.code == 2
    assert "dt must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sampler flags against the registry
# ---------------------------------------------------------------------------

SAMPLER_FLAGS = ("--dt", "--epsilon", "--step-fraction", "--exit-rule")


def subcommand_actions(name):
    """Option string -> argparse action of one subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt: a for a in sub.choices[name]._actions for opt in a.option_strings}


@pytest.mark.parametrize("command", ["table1", "sample", "privacy"])
def test_sampler_flags_match_the_registry(command):
    actions = subcommand_actions(command)
    assert tuple(actions["--method"].choices) == driver.METHODS
    assert {"--dt", "--epsilon", "--step-fraction"} <= actions.keys()
    knob_fields = {f.name for cls in driver.SAMPLERS.values() for f in dataclasses.fields(cls)}
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    for flag in SAMPLER_FLAGS:
        if flag in actions:
            assert actions[flag].dest in knob_fields & run_fields


def test_run_config_knobs_default_to_the_config_types():
    run_defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    knobs = set()
    for cls in driver.SAMPLERS.values():
        for f in dataclasses.fields(cls):
            if f.name in run_defaults:
                assert run_defaults[f.name] == f.default, (cls.__name__, f.name)
                knobs.add(f.name)
    assert knobs == {"dt", "epsilon", "step_fraction", "exit_rule"}


def test_exit_rule_reaches_the_brownian_config(monkeypatch, tmp_path):
    seen = []
    real = driver.sample_exits

    def recording(domain, theta, sampler, *args, **kwargs):
        seen.append(sampler)
        return real(domain, theta, sampler, *args, **kwargs)

    monkeypatch.setattr(driver, "sample_exits", recording)
    main(["sample", "--exit-rule", "first-outside", "--dt", "1e-3", "--n", "4",
          "--out", str(tmp_path / "s.csv")])
    assert seen == [brownian.BrownianConfig(dt=1e-3, exit_rule="first-outside")]


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def test_sample_writes_schema_and_passes(tmp_path, capsys):
    out = tmp_path / "run.csv"
    status = main(["sample", "--method", "exact", "--n", "200",
                   "--theta", "0.5,0", "--out", str(out)])
    assert status == 0
    meta, header, rows = read_table(out)
    assert header == SAMPLING_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert (row["d"], row["method"], row["n"]) == ("2", "exact", "200")
    assert row["dt"] == "" and row["epsilon"] == ""      # not applicable to exact
    assert (row["theta_1"], row["theta_2"]) == ("0.5", "0")
    assert row["theta_3"] == "" and row["theta_4"] == ""  # d=2 leaves columns empty
    assert row["trace_theory"] == "0.75"
    assert row["pass"] == "PASS"
    assert "PASS" in capsys.readouterr().out


def test_metadata_lines_identify_the_run_only(tmp_path):
    out = tmp_path / "run.csv"
    main(["sample", "--method", "exact", "--n", "50", "--seed", "9",
          "--workers", "4", "--out", str(out)])
    meta, _, _ = read_table(out)
    assert len(meta) == 2
    assert meta[0].startswith("# exitlaw ")
    assert "command=sample" in meta[1] and "seed=9" in meta[1]
    text = "\n".join(meta)
    # reruns at other parallelism levels / paths must produce identical bytes
    assert "workers" not in text
    assert str(out) not in text
    assert not re.search(r"\d{4}-\d{2}-\d{2}", text)


def test_higher_dim_sample_pads_columns(tmp_path):
    out = tmp_path / "run.csv"
    status = main(["sample", "--dim", "3", "--method", "wos", "--n", "100",
                   "--theta", "0.2,0,0", "--out", str(out)])
    assert status == 0
    _, header, rows = read_table(out)
    row = dict(zip(header, rows[0]))
    assert row["theta_3"] == "0" and row["theta_4"] == ""
    assert row["epsilon"] != ""   # wos reports its resolved shell width


def test_table1_csv_has_nine_rows_with_theory_column(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    status = main(["table1", "--method", "exact", "--n", "300", "--out", str(out)])
    assert status == 0
    _, header, rows = read_table(out)
    assert header == SAMPLING_HEADER
    assert len(rows) == 9
    theory = [r[header.index("trace_theory")] for r in rows]
    assert theory == ["0.96", "0.75", "0.36"] * 3
    assert [r[0] for r in rows] == ["2"] * 3 + ["3"] * 3 + ["4"] * 3
    assert "9/9 rows PASS" in capsys.readouterr().out


def test_kernel_check_prints_normalization(tmp_path, capsys):
    out = tmp_path / "k.csv"
    status = main(["kernel-check", "--dim", "2", "--rho", "0.5",
                   "--resolution", "10000", "--out", str(out)])
    assert status == 0
    assert "normalization 1.000000" in capsys.readouterr().out
    _, header, rows = read_table(out)
    assert header == KERNEL_HEADER
    row = dict(zip(header, rows[0]))
    assert row["pass"] == "PASS"
    assert float(row["abs_error"]) <= 1e-6


def test_kernel_check_fail_exits_1(tmp_path, capsys):
    out = tmp_path / "k.csv"
    status = main(["kernel-check", "--dim", "3", "--resolution", "2000",
                   "--tol", "1e-9", "--out", str(out)])
    assert status == 1
    assert "FAIL" in capsys.readouterr().out
    _, header, rows = read_table(out)
    assert rows[0][header.index("pass")] == "FAIL"


@pytest.mark.parametrize("dim", [700, 2000])
def test_kernel_check_at_large_dim_writes_finite_cells(dim, tmp_path, capsys):
    # Gamma(d/2) overflows float64 past d ~ 343 and pi^(d/2) past d ~ 1,240
    out = tmp_path / "k.csv"
    status = main(["kernel-check", "--dim", str(dim), "--resolution", "2", "--out", str(out)])
    assert status in (1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if status == 1:
        _, header, rows = read_table(out)
        assert "nan" not in rows[0] and "inf" not in rows[0]
        assert rows[0][header.index("pass")] == "FAIL"


def test_identical_exit_points_fail_without_traceback(tmp_path, capsys):
    # epsilon 5 absorbs every walk at its start: zero standard errors
    out = tmp_path / "s.csv"
    status = main(["sample", "--method", "wos", "--epsilon", "5", "--theta", "0.5,0",
                   "--n", "10", "--out", str(out)])
    assert status == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "Traceback" not in captured.err
    _, header, rows = read_table(out)
    assert rows[0][header.index("pass")] == "FAIL"


def test_privacy_reports_predicted_rmse(tmp_path, capsys):
    out = tmp_path / "p.csv"
    status = main(["privacy", "--house", "0.8,0", "--radius", "1",
                   "--trips", "100", "--method", "exact", "--out", str(out)])
    assert status == 0
    assert "predicted_rmse 0.06" in capsys.readouterr().out
    meta, header, rows = read_table(out)
    assert header == PRIVACY_HEADER
    row = dict(zip(header, rows[0]))
    assert row["trips"] == "100"
    assert row["predicted_rmse"] == "0.06"
    assert "house=0.8,0" in meta[1]


def test_privacy_grid_rows(tmp_path):
    out = tmp_path / "p.csv"
    status = main(["privacy", "--trips-grid", "10,20", "--replications", "5",
                   "--method", "exact", "--out", str(out)])
    assert status == 0
    meta, header, rows = read_table(out)
    assert [r[0] for r in rows] == ["10", "20"]
    assert "trips_grid=10,20" in meta[1]
    assert all(float(r[header.index("ratio")]) > 0 for r in rows)


def test_text_format_is_aligned_not_csv(tmp_path):
    out = tmp_path / "run.txt"
    main(["sample", "--method", "exact", "--n", "50", "--format", "text",
          "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[2]
    assert "," not in header
    assert header.startswith("d ")
    assert "trace_theory" in header


def test_output_dir_env_var_names_default_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EXITLAW_OUTPUT_DIR", str(tmp_path))
    status = main(["kernel-check", "--dim", "2"])
    assert status == 0
    assert (tmp_path / "kernel_check.csv").exists()
    assert str(tmp_path / "kernel_check.csv") in capsys.readouterr().out


def test_unwritable_out_path_reports_path(tmp_path):
    target = tmp_path / "missing-dir" / "run.csv"
    with pytest.raises(SystemExit) as exc:
        main(["kernel-check", "--dim", "2", "--out", str(target)])
    assert "cannot write output file" in str(exc.value)
    assert str(target) in str(exc.value)


def test_runtime_errors_exit_2(capsys):
    status = cli.run(RunConfig(command="table1", method="teleport"))
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_exact_proposal_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # d = 4, rho = 0.9 needs M = 100 proposals per sample; cap them at 150
    monkeypatch.setattr(ball, "MAX_PROPOSALS", 150)
    status = main(["sample", "--method", "exact", "--dim", "4", "--theta", "0.9,0,0,0",
                   "--n", "64", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "after 150 proposals" in err and "walk-on-spheres" in err
    assert "Traceback" not in err


def test_brownian_step_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # the default cap resolves per domain; shrink it so the walks reach it
    monkeypatch.setattr(brownian.BrownianConfig, "resolve_max_steps", lambda self, domain: 30)
    status = main(["sample", "--method", "brownian", "--dim", "2", "--dt", "1e-6",
                   "--n", "8", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "after 30 steps of dt=1e-06 in a domain of diameter 2" in err
    assert "Traceback" not in err


def test_brownian_step_cap_beyond_2_62_exits_2_with_one_line(tmp_path, capsys):
    # 100 D^2 / dt overflows float64 at radius 1e200
    status = main(["sample", "--method", "brownian", "--radius", "1e200", "--n", "5",
                   "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dt=0.0001" in err and "diameter 2e+200" in err
    assert "Traceback" not in err


def test_sphere_redraw_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # every Gaussian word zero: the first direction exhausts its redraws
    monkeypatch.setattr(rng, "gaussian_values",
                        lambda seed, ids, start, count, substream=rng.TAG_GAUSS:
                        np.zeros(np.shape(ids) + (count,)))
    status = main(["sample", "--method", "wos", "--n", "4", "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stream 0: ") and err.count("\n") == 1
    assert f"after {rng.MAX_REDRAWS} redraw attempts" in err


def test_identical_bytes_across_worker_counts(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["table1", "--method", "exact", "--n", "200", "--seed", "5",
          "--workers", "1", "--out", str(a)])
    main(["table1", "--method", "exact", "--n", "200", "--seed", "5",
          "--workers", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_same_seed_same_bytes_different_seed_differs(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    main(["privacy", "--method", "exact", "--trips", "40", "--replications",
          "3", "--seed", "1", "--out", str(a)])
    main(["privacy", "--method", "exact", "--trips", "40", "--replications",
          "3", "--seed", "1", "--out", str(b)])
    main(["privacy", "--method", "exact", "--trips", "40", "--replications",
          "3", "--seed", "2", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
