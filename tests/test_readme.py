"""The README's examples print what the README says they print.

Each ``$ verba ...`` line of a ``sh`` block (a trailing ``\\`` continues it) is
run through ``cli.main``, and its standard output must be the lines that
follow it, up to a blank line or the next ``$``.  A ``$ cat FILE`` example
gives the text of ``FILE`` for the examples after it.  Lines that need a
shell (``|``, ``>`` or ``&&`` outside quotes) are skipped.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from verba.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
_SHELL_OPERATORS = {"|", ">", "&&"}


def _commands(block: str):
    """(argv, output lines) for each ``$`` line of a ``sh`` block."""
    lines = block.splitlines()
    i = 0
    while i < len(lines):
        command = lines[i]
        i += 1
        if not command.startswith("$ "):
            continue
        while command.endswith("\\"):
            command = command[:-1] + lines[i].strip()
            i += 1
        output = []
        while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
            output.append(lines[i])
            i += 1
        argv = list(shlex.shlex(command[2:], posix=True, punctuation_chars=True))
        yield argv, output


def _examples():
    files: dict[str, str] = {}
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M):
        for argv, output in _commands(block):
            if argv[0] == "cat":
                files[argv[1]] = "".join(line + "\n" for line in output)
            elif argv[0] == "verba" and not _SHELL_OPERATORS & set(argv):
                examples.append((argv[1:], output, dict(files)))
    commands = [example[0] for example in examples]
    return [pytest.param(*example, id=_example_id(example[0], commands)) for example in examples]


def _example_id(argv, commands):
    """The fewest leading words of ``argv``, two at least, that begin no other
    command: commands that share their first words are told apart by words,
    not by the numbers pytest appends to equal ids."""
    n = 2
    while n < len(argv) and sum(command[:n] == argv[:n] for command in commands) > 1:
        n += 1
    return " ".join(argv[:n])


_EXAMPLES = _examples()


def test_the_readme_has_examples_to_run():
    commands = {param.values[0][0] for param in _EXAMPLES}
    assert {"reduce", "rewrite", "wlength", "bound", "cover", "verify"} <= commands
    assert any("window.facts" in param.values[2] for param in _EXAMPLES)


@pytest.mark.parametrize("argv, output, files", _EXAMPLES)
def test_readme_example_prints_what_the_readme_shows(
    capsys, monkeypatch, tmp_path, argv, output, files
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in output)
