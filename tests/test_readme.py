"""The README's examples run as written."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from p1dyn import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title):
    """The text of the README section with this "## " title."""
    body = README.split(f"\n## {title}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def fenced(text, lang=""):
    """The fenced code blocks of text in this language."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


CLI_LINES = [line for block in fenced(section("CLI"))
             for line in block.splitlines() if line.startswith("p1dyn ")]


def test_every_subcommand_has_an_example():
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert {shlex.split(line)[1] for line in CLI_LINES} == set(sub.choices)


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    # --out files land in the temporary directory
    monkeypatch.chdir(tmp_path)
    rc = cli.main(shlex.split(line)[1:])
    assert rc == 0, capsys.readouterr().err


def test_library_example_runs(capsys):
    [code] = fenced(section("Library example"), "python")
    exec(compile(code, "README.md", "exec"), {})
    value, _, bound = capsys.readouterr().out.split()
    assert float(value) > 0 and 0 < float(bound) <= 1e-10
