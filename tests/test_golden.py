"""Golden-byte tests: every command's CSV, byte for byte.

Output bytes are a pure function of (config, seed), so any change to a
sampling law or to the stream layout shows up here. Such a change must
bump the version and regenerate the files on purpose; line 1 of every
file names the version that wrote it:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from exitlaw import __version__
from exitlaw.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table1_exact": "table1 --method exact --n 40 --seed 11",
    "table1_wos": "table1 --method wos --n 40 --seed 11",
    "table1_brownian": "table1 --method brownian --n 12 --seed 11",
    "sample_brownian_w2": "sample --method brownian --dim 3 --theta 0.3,0.2,0 "
                          "--n 30 --dt 1e-3 --workers 2 --seed 4",
    "sample_brownian_first_outside": "sample --method brownian --dim 2 --theta 0.6,0 "
                                     "--n 40 --dt 1e-3 --exit-rule first-outside --seed 4",
    "sample_wos": "sample --method wos --dim 2 --theta 0.5,0.1 --n 300 --seed 4",
    "sample_exact": "sample --method exact --dim 4 --theta 0.7,0,0,0 --n 300 --seed 4",
    "kernel_check_d3": "kernel-check --dim 3 --rho 0.2 --resolution 20000 --seed 5",
    "kernel_check_d2": "kernel-check --dim 2 --rho 0.5 --resolution 512",
    "privacy_exact": "privacy --method exact --house 0.9,0 --trips-grid 10,100 "
                     "--replications 5 --seed 2",
    "privacy_wos": "privacy --method wos --house 0.5,0 --trips 50 --replications 3 --seed 2",
    "privacy_brownian": "privacy --method brownian --house 0.2,0.3 --trips 20 --dt 1e-3 "
                        "--seed 2",
}


def run_case(name: str, out: Path) -> None:
    main(CASES[name].split() + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    run_case(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_written_by_this_version(name):
    first = (GOLDEN / f"{name}.csv").read_text().splitlines()[0]
    assert first == f"# exitlaw {__version__}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN / f"{case}.csv")
