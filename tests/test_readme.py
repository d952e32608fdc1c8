"""The README's library example runs against the current API, and its
command-line text names every flag of the CLI and no other."""

import argparse
import re
from pathlib import Path

from exitlaw.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first fenced python block under the README's "## Library" heading."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "vs 0.75" in lines[0] and "predicted" in lines[1]


def test_readme_names_every_cli_flag_and_only_those():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for cmd in sub.choices.values() for action in cmd._actions
             for opt in action.option_strings if opt.startswith("--")}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    assert named == flags - {"--help"}
