"""The README's examples run as shown.

Each ```python block runs, and each ``print(...)  # value`` line must print
that value (a comment may go on after ", ").  Each block of ``$ ramsey``
commands replays through ``cli.main`` in one fresh directory; every command
must exit 0, and the lines under it must be its output, exactly, or where a
``...`` line elides part of it, in order.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from poset_ramsey import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
_COMMENTED_PRINT = re.compile(r"^print\(.*\)\s+# (.*)$")


def _blocks(language: str) -> list[str]:
    return [body for lang, body in _BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def _command_blocks() -> list[list[tuple[list[str], list[str]]]]:
    """Each shell block of ``$ ramsey`` lines as (argv, shown output lines)."""
    blocks = []
    for body in _blocks(""):
        if not body.startswith("$ ramsey "):
            continue
        steps: list[tuple[list[str], list[str]]] = []
        for line in body.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:])[1:], []))
            else:
                steps[-1][1].append(line)
        blocks.append(steps)
    return blocks


def test_readme_has_examples_of_both_kinds():
    assert len(_blocks("python")) >= 2
    commands = [argv[0] for steps in _command_blocks() for argv, _ in steps]
    assert {"exact", "witness", "bound", "extract", "verify-cert"} <= set(commands)


@pytest.mark.parametrize("code", _blocks("python"),
                         ids=lambda code: code.split("\n", 1)[0].replace("from ", ""))
def test_readme_python_block(code: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, value in zip(prints, printed):
        match = _COMMENTED_PRINT.match(line)
        if match:
            comment = match.group(1)
            assert comment == value or comment.startswith(value + ", "), line


def _elides(line: str) -> bool:
    return line.strip() == "..."


def _shown_in_order(shown: list[str], actual: list[str]) -> bool:
    rest = iter(actual)
    return all(any(line == got for got in rest) for line in shown if not _elides(line))


@pytest.mark.parametrize("steps", _command_blocks(),
                         ids=lambda steps: " / ".join(argv[0] for argv, _ in steps))
def test_readme_command_block(steps, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert cli.main(argv) == 0, argv
        actual = capsys.readouterr().out.splitlines()
        if any(map(_elides, shown)):
            assert _shown_in_order(shown, actual), (argv, actual)
        else:
            assert actual == shown, argv
