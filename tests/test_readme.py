"""The README's examples run as written.

The Python block is executed, and each ``rcadjoint ...`` line of the
command-line block goes through ``cli.main`` in a fresh working directory
(the bracket example writes ``h.json``), so the examples cannot drift
from the API.
"""

import re
import shlex
from pathlib import Path

import pytest

from rcadjoint.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang, after):
    """The first fenced block of the given language after a heading."""
    section = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands():
    text = _block("sh", "## Command line").replace("\\\n", " ")
    return [
        shlex.split(line)
        for line in text.splitlines()
        if line.strip().startswith("rcadjoint ")
    ]


def test_python_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python", "## Library overview"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_command_block_is_nonempty():
    assert len(_commands()) >= 6


@pytest.mark.parametrize(
    "argv", _commands(), ids=lambda argv: " ".join(argv[1:3])
)
def test_command_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "rcadjoint"
    assert main(argv[1:]) == 0
