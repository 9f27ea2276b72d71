"""The README's CLI quick tour prints what its comments say."""

from __future__ import annotations

import importlib
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
# a repeated subcommand is numbered from its second use, so the first keeps its plain id
TOUR_IDS = [name if name not in SUBCOMMANDS[:i] else f"{name}{SUBCOMMANDS[:i].count(name) + 1}"
            for i, name in enumerate(SUBCOMMANDS)]


def test_the_quick_tour_has_the_commands_it_documents():
    assert SUBCOMMANDS == ["eval", "eval", "classify", "folner"]


@pytest.mark.parametrize("command, expected", TOUR, ids=TOUR_IDS)
def test_quick_tour_command_prints_its_comment(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"


def budgets() -> list[tuple[str, str, int]]:
    """(lead, ``module.NAME``, stated value) for each entry of the README's
    "Budgets" list that cites a constant, the value read from the first
    number of its bold lead (``10^6`` or ``64``)."""
    text = README.read_text()
    section = text[text.index("## Budgets"):]
    section = section[:section.index("\n## ", 1)]
    out = []
    for entry in section.split("\n- ")[1:]:
        lead = re.match(r"\*\*(.*?)\*\*", entry).group(1)
        cited = re.search(r"`(\w+\.[A-Z_]+)`", entry)
        if cited:
            base, power = re.search(r"(\d+)(?:\^(\d+))?", lead).groups()
            out.append((lead, cited.group(1), int(base) ** int(power or 1)))
    return out


BUDGETS = budgets()


def test_the_budgets_list_cites_every_capped_constant():
    assert [value for _, _, value in BUDGETS] == [10**6, 10**5, 10**7, 64, 128, 18, 10**9]


@pytest.mark.parametrize("lead, name, value", BUDGETS, ids=[name for _, name, _ in BUDGETS])
def test_budget_entry_states_its_constant(lead, name, value):
    module, constant = name.split(".")
    assert getattr(importlib.import_module(f"gluedprod.{module}"), constant) == value, lead
