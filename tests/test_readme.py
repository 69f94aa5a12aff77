"""The README's examples run as written.

The Python block is executed, and each ``rcadjoint ...`` line of the
command-line block goes through ``cli.main`` in a fresh working directory
(the bracket example writes ``h.json``), so the examples cannot drift
from the API.  Every subcommand of the parser has such a line, and the
series-file example is the output of the command it names.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from rcadjoint.cli import build_parser, main

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


def _command_id(commands, i):
    """The shortest prefix, two words or more, that sets commands[i] apart
    from every earlier command: 'verify lambda', then 'verify lambda
    --basis delta'."""
    argv = commands[i]
    k = 3
    while k < len(argv) and any(c[1:k] == argv[1:k] for c in commands[:i]):
        k += 1
    return " ".join(argv[1:k])


def _subcommands(parser, prefix=()):
    """Each leaf subcommand of the parser, as a tuple of words."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield prefix
    for action in actions:
        for name, sub in action.choices.items():
            yield from _subcommands(sub, prefix + (name,))


def test_python_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python", "## Library overview"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_series_file_example(capsys):
    assert main(["expand", "--form", "delta", "--precision", "3"]) == 0
    assert capsys.readouterr().out == _block("json", "### Series files")


def test_command_block_is_nonempty():
    assert len(_commands()) >= 6


def test_every_subcommand_has_a_command_example():
    subcommands = set(_subcommands(build_parser()))
    assert {("expand",), ("bracket",), ("adjoint",), ("verify", "ratio"),
            ("verify", "lambda")} <= subcommands
    documented = {tuple(argv[1:1 + len(s)]) for argv in _commands()
                  for s in subcommands}
    assert sorted(subcommands - documented) == []


_COMMANDS = _commands()


@pytest.mark.parametrize(
    "argv", _COMMANDS, ids=[_command_id(_COMMANDS, i) for i in range(len(_COMMANDS))]
)
def test_command_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "rcadjoint"
    assert main(argv[1:]) == 0
