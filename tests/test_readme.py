"""The README's library example runs against the current API, its
command-line text names every flag of the CLI and no other, and every
constant it names is defined."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import exitlaw
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


def undefined_constants(text: str) -> set:
    """ALL-CAPS names opening a backticked span of text that no exitlaw module defines."""
    modules = [importlib.import_module(f"exitlaw.{m.name}")
               for m in pkgutil.iter_modules(exitlaw.__path__)]
    named = set(re.findall(r"`([A-Z][A-Z0-9_]*[A-Z0-9])(?!\w)", text))
    return {name for name in named if not any(hasattr(m, name) for m in modules)}


def test_readme_constants_are_defined():
    assert undefined_constants(README.read_text()) == set()
    # a name the code has dropped is caught; math such as `J_{d/2−1}` is not a name
    stale = "capped at `MAX_NUDGES` nudges; `KAPPA·√dt`, `J_{d/2−1}`"
    assert undefined_constants(stale) == {"MAX_NUDGES"}
