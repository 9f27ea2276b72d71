"""The README's CLI quick tour prints what its comments say."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from gluedprod.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_EXPECTED = re.compile(r"\s*# -> (.*)$")


def quick_tour() -> list[tuple[str, str]]:
    """(command, expected stdout) for each ``gluedprod`` command of the
    ``sh`` block under "CLI quick tour" that has a ``# -> expected``
    comment, inline or on the next line; ``\\`` continuations are joined."""
    text = README.read_text()
    section = text[text.index("## CLI quick tour"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    lines = block.replace("\\\n", " ").splitlines()
    tour = []
    for line, following in zip(lines, lines[1:] + [""]):
        if not line.startswith("gluedprod "):
            continue
        inline = _EXPECTED.search(line)
        expected = inline or _EXPECTED.fullmatch(following)
        if expected:
            command = line[:inline.start()] if inline else line
            tour.append((command, expected.group(1)))
    return tour


TOUR = quick_tour()
SUBCOMMANDS = [shlex.split(command)[1] for command, _ in TOUR]


def test_the_quick_tour_has_the_commands_it_documents():
    assert SUBCOMMANDS == ["eval", "classify", "folner"]


@pytest.mark.parametrize("command, expected", TOUR, ids=SUBCOMMANDS)
def test_quick_tour_command_prints_its_comment(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"
