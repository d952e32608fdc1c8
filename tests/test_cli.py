"""Tests for the command-line interface.

Parsing tests call parse_args directly; end-to-end tests call main() with
--out pointed at tmp_path and inspect the written CSV/text plus the one
summary line on stdout. A value the library's types refuse exits 2 from
main() with one ``error:`` line and no output file. Fast sampler
settings keep these runs cheap — the statistical behavior of each
command's engine is tested in the module-specific files.
"""

import argparse
import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from exitlaw import ball, brownian, cli, driver, passage, rng
from exitlaw.cli import (
    KERNEL_HEADER,
    PRIVACY_HEADER,
    SAMPLING_HEADER,
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


def exit_status(argv, out):
    """main(argv + --out out) as an exit status, whichever layer refuses the input."""
    try:
        return main(argv + ["--out", str(out)])
    except SystemExit as exc:  # a check of the parser's own
        return exc.code


def assert_one_line_error(err, fragment):
    assert fragment in err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_theta_outside_domain_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = "sample --dim 2 --theta 2,0 --radius 1 --center 0,0".split()
    assert exit_status(argv, out) == 2
    assert_one_line_error(capsys.readouterr().err, "[2. 0.] is not strictly inside")
    assert not out.exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2


def library_case(argv, fragment, subject):
    """A value the library refuses; the id names the flag or fault the case is about."""
    return pytest.param(argv, fragment, id=f"{argv}-{subject}")


@pytest.mark.parametrize("argv, fragment", [
    library_case("table1 --n 0", "need n >= 1 samples, got 0", "--n"),
    ("table1 --dt 0", "dt must be positive"),
    ("table1 --epsilon -1", "epsilon must be positive"),
    ("sample --dim 0", "--dim"),
    ("sample --dim 5", "CSV schema"),
    library_case("sample --radius -2", "radius must be positive and finite, got -2.0",
                 "--radius"),
    ("sample --dim 3 --theta 0.5,0", "coordinates"),
    library_case("kernel-check --rho 1.0", "x [1. 0.] is not strictly inside", "--rho"),
    library_case("kernel-check --resolution 0", "resolution must be >= 1, got 0",
                 "--resolution"),
    library_case("kernel-check --resolution 1000000000000000",
                 "resolution must be at most MAX_RESOLUTION = 100000000",
                 "--resolution above the cap"),
    library_case("privacy --house 1.5,0", "house [1.5 0. ] is not strictly inside",
                 "house outside privacy region"),
    library_case("privacy --trips 0", "trips must be >= 1, got 0", "--trips"),
    library_case("privacy --replications 0", "replications must be >= 1, got 0",
                 "--replications"),
    library_case("privacy --trips-grid 10,0", "trips must be >= 1, got 0", "--trips-grid"),
    library_case("privacy --house 0.5,0,0 --center 0,0", "dimension mismatch: expected 2, got 3",
                 "same dimension"),
    library_case("table1 --seed -1", "seed must lie in [0, 2^64), got -1",
                 "--seed must lie in [0, 2^64), got -1"),
    library_case("sample --seed 18446744073709551616",
                 "seed must lie in [0, 2^64), got 18446744073709551616",
                 "--seed must lie in [0, 2^64), got 18446744073709551616"),
    library_case("kernel-check --seed -18446744073709551615",
                 "seed must lie in [0, 2^64), got -18446744073709551615",
                 "--seed must lie in [0, 2^64)"),
])
def test_out_of_range_values_exit_2(argv, fragment, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert exit_status(argv.split(), out) == 2
    assert_one_line_error(capsys.readouterr().err, fragment)
    assert not out.exists()


@pytest.mark.parametrize("command", ["table1", "sample", "kernel-check", "privacy"])
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_1_exit_2(command, workers, tmp_path, capsys):
    # one check for every command, also the ones that run no threads
    out = tmp_path / "out.csv"
    assert exit_status([command, "--workers", str(workers)], out) == 2
    assert_one_line_error(capsys.readouterr().err, f"workers must be >= 1, got {workers}")
    assert not out.exists()


def test_kernel_check_resolution_1_runs_and_fails(tmp_path, capsys):
    # one node at angle 0 weighs the kernel's peak by the full circumference
    out = tmp_path / "k.csv"
    assert main(["kernel-check", "--resolution", "1", "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    _, header, rows = read_table(out)
    assert rows[0][header.index("resolution")] == "1"


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
        "seed": 7, "replications": 250, "method": "exact",
        "trips-grid": [10, 100], "house": [0.5, 0.0],
    }))
    cfg = parse_args(["privacy", "--config", str(path)])
    assert (cfg.seed, cfg.replications, cfg.method) == (7, 250, "exact")
    assert cfg.trips_grid == (10, 100)
    assert cfg.house == (0.5, 0.0)

    cfg = parse_args(["privacy", "--config", str(path), "--seed", "3"])
    assert cfg.seed == 3             # explicit flag wins
    assert cfg.replications == 250   # file value survives


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
    out = tmp_path / "s.csv"
    assert exit_status(["sample", "--method", "exact", "--config", str(path)], out) == 2
    assert_one_line_error(capsys.readouterr().err, f"seed must lie in [0, 2^64), got {seed}")
    assert not out.exists()


@pytest.mark.parametrize("key", ["n", "n_samples", "trips-grid", "trips_grid"])
def test_config_keys_are_flag_names_or_dests(tmp_path, key):
    path = tmp_path / "run.json"
    if key.startswith("n"):
        path.write_text(json.dumps({key: 1}))
        assert parse_args(["sample", "--config", str(path)]).n_samples == 1
    else:
        path.write_text(json.dumps({key: [10, 100]}))
        assert parse_args(["privacy", "--config", str(path)]).trips_grid == (10, 100)


# walk on spheres always hops to the largest inscribed sphere, and the
# brownian exit is always the crossing of the step that leaves
@pytest.mark.parametrize("key, value", [("step_fraction", "0.5"), ("exit_rule", "interpolate")],
                         ids=["step_fraction", "exit_rule"])
@pytest.mark.parametrize("command", ["table1", "sample", "kernel-check", "privacy"])
def test_removed_knob_is_no_flag_or_config_key(tmp_path, command, key, value, capsys):
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "s.csv"
    assert exit_status([command, flag, value], out) == 2
    assert_one_line_error(capsys.readouterr().err, f"unrecognized arguments: {flag} {value}")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    assert exit_status([command, "--config", str(path)], out) == 2
    assert_one_line_error(capsys.readouterr().err, f"unknown config file key '{key}'")
    assert not out.exists()


def test_config_key_of_another_command_is_unknown(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"house": [0.5, 0]}))
    with pytest.raises(SystemExit) as exc:
        parse_args(["table1", "--config", str(path)])
    assert exc.value.code == 2
    assert "unknown config file key 'house'" in capsys.readouterr().err


@pytest.mark.parametrize("workers, status, fragment", [
    (2, 0, None),
    ("3", 0, None),
    (0, 2, "workers must be >= 1, got 0"),
    (-2, 2, "workers must be >= 1, got -2"),
    (1.5, 2, "invalid int value: '1.5'"),
])
def test_config_file_naming_workers_runs_or_exits_2(tmp_path, capsys, workers, status, fragment):
    # --workers is a validated no-op, from a config file as from the command line
    path, out = tmp_path / "run.json", tmp_path / "s.csv"
    path.write_text(json.dumps({"workers": workers, "n": 20, "dt": 1e-2}))
    assert exit_status(["sample", "--method", "brownian", "--config", str(path)], out) == status
    if fragment is None:
        assert out.exists()
    else:
        assert_one_line_error(capsys.readouterr().err, fragment)
        assert not out.exists()


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

SAMPLER_FLAGS = ("--dt", "--epsilon")


def subcommand_actions(name):
    """Option string -> argparse action of one subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt: a for a in sub.choices[name]._actions for opt in a.option_strings}


@pytest.mark.parametrize("command", ["table1", "sample", "privacy"])
def test_sampler_flags_match_the_registry(command):
    actions = subcommand_actions(command)
    assert tuple(actions["--method"].choices) == driver.METHODS
    assert {"--dt", "--epsilon"} <= actions.keys()
    knob_fields = {f.name for cls in driver.SAMPLERS.values() for f in dataclasses.fields(cls)}
    for flag in SAMPLER_FLAGS:
        if flag in actions:
            assert actions[flag].dest in knob_fields


def test_run_config_knobs_default_to_the_config_types():
    knobs = set()
    for command in ("table1", "sample", "privacy"):
        defaults = {a.dest: a.default for a in subcommand_actions(command).values()}
        for cls in driver.SAMPLERS.values():
            for f in dataclasses.fields(cls):
                if f.name in defaults:
                    assert defaults[f.name] == f.default, (command, cls.__name__, f.name)
                    knobs.add(f.name)
    assert knobs == {"dt", "epsilon"}


SHOWN_DEFAULTS = {"--dt": brownian.BrownianConfig.dt}


@pytest.mark.parametrize("argv, flags", [
    ([], ()),
    (["table1"], ("--dt",)),
    (["sample"], ("--dt",)),
    (["kernel-check"], ()),
    (["privacy"], ("--dt",)),
])
def test_help_exits_0(argv, flags, capsys):
    # argparse formats a help string only when it prints it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: exitlaw") and "Traceback" not in captured.err
    text = " ".join(captured.out.split())
    for flag in flags:
        shown = re.search(rf" {flag} \S+ [^()]*\(default ([^)]*)\)", text)
        assert shown and shown.group(1) == str(SHOWN_DEFAULTS[flag]), flag


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


def test_table1_loads_neither_numpy_ma_nor_numpy_random(tmp_path):
    # np.unique(axis=0) would load numpy.ma (~35 ms per process), and
    # numpy.random costs ~6 MB resident: no command needs either
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = [["table1", "--method", m, "--n", "2"] for m in ("wos", "exact", "brownian")]
    commands += [["sample", "--n", "5"],
                 ["privacy", "--trips", "3"],
                 ["kernel-check", "--dim", "3", "--resolution", "1000"]]
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "from exitlaw.cli import main",
        *(f"assert main({argv + ['--out', str(tmp_path / str(i))]!r}) in (0, 1)"
          for i, argv in enumerate(commands)),
        "print([name for name in ('numpy.ma', 'numpy.random') if name in sys.modules])",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert run.stdout.splitlines()[-1] == "[]"


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


def test_table1_brownian_draws_no_exit_time(tmp_path, monkeypatch):
    # table1 reads exit points only, so its walks never fold their clock
    def refuse(d, u):
        raise AssertionError("table1 drew a first-passage time")

    monkeypatch.setattr(passage, "times", refuse)
    status = main(["table1", "--method", "brownian", "--n", "100", "--dt", "1e-3",
                   "--out", str(tmp_path / "t1.csv")])
    assert status in (0, 1)
    assert len(read_table(tmp_path / "t1.csv")[2]) == 9


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


def test_unwritable_out_path_reports_path(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "run.csv"
    assert main(["kernel-check", "--dim", "2", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cannot write output file" in err and str(target) in err


def test_exact_sample_at_radius_1e100_has_a_finite_trace_se(tmp_path):
    # |Y - mean|^4 ~ 1e400 there: the trace SE must not overflow to inf
    # (which would score z_trace 0 and pass the trace check vacuously)
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(f"sample --method exact --radius 1e100 --n 200 --out {out}".split()) == 0
    row = dict(zip(cli.SAMPLING_HEADER, out.read_text().splitlines()[-1].split(",")))
    assert math.isfinite(float(row["trace_se"])) and float(row["z_trace"]) != 0.0


def test_runtime_errors_exit_2(capsys):
    ns = parse_args(["table1"])
    ns.method = "teleport"
    status = cli.run(ns)
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_exact_proposal_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # d = 4, rho = 0.2 (M = 1.5625) passes the up-front rule at a cap of 150;
    # uniforms of 1 - 2^-53 reject every proposal, so each stream reaches it
    monkeypatch.setattr(ball, "MAX_PROPOSALS", 150)
    monkeypatch.setattr(rng, "uniform_values", lambda seed, ids, start, count:
                        np.full((len(ids), count), 1.0 - 2.0 ** -53))
    status = main(["sample", "--method", "exact", "--dim", "4", "--theta", "0.2,0,0,0",
                   "--n", "64", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "64 exact sample(s) unaccepted after 150 proposals" in err
    assert "walk-on-spheres" in err and "Traceback" not in err


def test_exact_start_the_cap_would_stop_exits_2_before_drawing(monkeypatch, tmp_path, capsys):
    # d = 4, rho = 0.999: M = 999,999.99, just under the cap, yet the cap
    # would stop 3 e^-1 of the 3 streams
    monkeypatch.setattr(rng, "sphere_rows", None)   # any draw would fail
    out = tmp_path / "s.csv"
    status = main(["sample", "--method", "exact", "--dim", "4", "--theta", "0.999,0,0,0",
                   "--n", "3", "--out", str(out)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3 exact sample(s) unaccepted after 0 proposals" in err and "walk-on-spheres" in err
    assert not out.exists()


def test_exact_house_below_the_refusal_draws(monkeypatch, tmp_path):
    # d = 5, rho = 0.97: M ~ 37,000, so 100 trips expect 100 e^-27 ~ 2e-10 of
    # their streams stopped: not refused, the run reaches its first draw
    class Drew(Exception):
        pass

    def sphere_rows(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(rng, "sphere_rows", sphere_rows)
    with pytest.raises(Drew):
        main(["privacy", "--method", "exact", "--house", "0.97,0,0,0,0", "--trips", "100",
              "--out", str(tmp_path / "p.csv")])


def test_exact_plane_house_at_the_boundary_edge_runs(tmp_path):
    assert main(["privacy", "--method", "exact", "--house", "0.999999999999,0",
                 "--trips", "100", "--replications", "5",
                 "--out", str(tmp_path / "p.csv")]) == 0


def test_brownian_step_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # the default cap resolves per domain; shrink it so the walks reach it
    # (from the centre the first hop is the whole disk, so start off it)
    monkeypatch.setattr(brownian.BrownianConfig, "resolve_max_steps", lambda self, domain: 30)
    status = main(["sample", "--method", "brownian", "--dim", "2", "--theta", "0.5,0",
                   "--dt", "1e-6", "--n", "8", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "after 30 steps of dt=1e-06 in a domain of diameter 2" in err
    assert "Traceback" not in err


def test_brownian_step_cap_beyond_2_62_exits_2_with_one_line(tmp_path, capsys):
    # 100 D^2 / dt overflows float64 at radius 1e150 and dt 1e-10
    status = main(["sample", "--method", "brownian", "--radius", "1e150", "--dt", "1e-10",
                   "--n", "5", "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dt=1e-10" in err and "diameter 2e+150" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "sample --method brownian --dt 1e307 --n 50",
    "privacy --method brownian --dt 1e308 --trips 5",
    "sample --method brownian --radius 1e80 --dt 1e156 --n 50",
])
def test_brownian_dt_too_large_exits_2_with_one_line(argv, tmp_path, capsys):
    # steps this long overflowed the boundary crossing: numpy warned and
    # the run wrote nan means, or wrong exits at radius 1e80
    out = tmp_path / "out.csv"
    assert exit_status(argv.split(), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    dt = argv.split("--dt ")[1].split()[0]
    assert f"dt={float(dt):g} is too large for a domain of diameter " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sphere_redraw_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    # every Gaussian word zero: the first brownian hop direction exhausts
    # its redraws in rng.unit_rows (wos directions in d <= 4 read no
    # Gaussians)
    monkeypatch.setattr(rng, "gaussian_values",
                        lambda seed, ids, start, count, substream=rng.TAG_GAUSS:
                        np.zeros(np.shape(ids) + (count,)))
    status = main(["sample", "--method", "brownian", "--n", "4",
                   "--out", str(tmp_path / "s.csv")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stream 0: ") and err.count("\n") == 1
    assert f"after {rng.MAX_REDRAWS} redraw attempts" in err


def test_far_center_coarse_grid_exits_2_with_one_line(tmp_path, capsys):
    # near 1e12 float64 cannot place an exit near the unit sphere: Ball refuses it
    out = tmp_path / "s.csv"
    argv = ("sample --method wos --center 1000000000000,0 --radius 1 "
            "--theta 1000000000000,0.5 --n 20").split()
    assert exit_status(argv, out) == 2
    assert_one_line_error(capsys.readouterr().err, "float64 points there are spaced")
    assert not out.exists()


@pytest.mark.parametrize("ball, fragment", [
    ("--center 1000000000000,0 --radius 1", "float64 points there are spaced"),
    ("--radius 1e160", "its square is not a normal float64"),
    ("--radius 1e-160", "its square is not a normal float64"),
])
@pytest.mark.parametrize("command", ["sample --method brownian", "sample --method wos",
                                     "sample --method exact", "privacy"])
def test_ball_float64_cannot_hold_exits_2_with_one_line(tmp_path, capsys, command, ball,
                                                        fragment):
    out = tmp_path / "s.csv"
    assert exit_status(f"{command} {ball}".split(), out) == 2
    assert_one_line_error(capsys.readouterr().err, fragment)
    assert not out.exists()


@pytest.mark.parametrize("extra", ["--method wos", "--method brownian --dt 1e-3"])
def test_off_origin_ball_samples(tmp_path, extra):
    # |c|/r = 1000: the float64 grid there is 512 ulps of the radius
    out = tmp_path / "s.csv"
    argv = f"sample {extra} --center 1000,0 --radius 1 --theta 1000.5,0 --n 200".split()
    assert exit_status(argv, out) == 0
    assert out.read_text().splitlines()[-1].endswith(",PASS")


def test_identical_bytes_across_worker_counts(tmp_path):
    # --workers is accepted and changes nothing: every kernel runs on one thread
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = "table1 --method brownian --n 200 --dt 1e-2 --seed 5".split()
    main(argv + ["--workers", "1", "--out", str(a)])
    main(argv + ["--workers", "4", "--out", str(b)])
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
