"""README "Library quick start" runs as written and gives the results its
comments state, and each "Command line" transcript is what the program prints."""

import ast
import re
import shlex
from pathlib import Path

from conftest import cli_equivalence, scalar_equivalence
from entrecovery.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_its_commented_results():
    block = quick_start_block()
    lines = block.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):  # a line whose value the comment states
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            shown.append((ast.unparse(stmt.value), value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    calls = [call for call, _, _ in shown]
    assert calls == ["can_transform(x, y)", "compare(x, y)",
                     "classify_point(prob, p=0.6, q=0.55)", "grid.counts()"]
    for _, value, comment in shown[:3]:
        assert comment.startswith(f"{value}:") or comment == str(value), (value, comment)
    assert [str(value) for _, value, _ in shown[:3]] == [
        "True", "Comparability.LEFT_MAJORIZED", "RegionClass.TRUE_RECOVERY"]
    # "201 x 201 cells over [1/2, 1]^2", then "cells per class"
    assert namespace["grid"].codes.shape == (201, 201)
    counts = shown[3][1]
    assert set(counts) == set(namespace["RegionClass"])
    assert sum(counts.values()) == 201 ** 2


def command_line_transcripts() -> list[tuple[list[str], str]]:
    """(argv, shown stdout) of each `$ entrecovery ...` block of README
    "Command line" that shows output."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    found = []
    for block in section.split("```text\n")[1:]:
        command, _, shown = block.split("```", 1)[0].partition("\n")
        if shown:
            found.append((shlex.split(command.removeprefix("$ entrecovery ")), shown))
    return found


def test_readme_command_line_transcripts_match_the_program(capsys):
    transcripts = command_line_transcripts()
    assert [argv[0] for argv, _ in transcripts] == [
        "transform", "classify", "bell", "classify", "bell", "bell"]
    for argv, shown in transcripts:
        code = main(argv)
        out = capsys.readouterr().out
        # "..." stands for lines left out: the lines after it are a
        # subsequence of the rest of the output, ending with its last line
        head, dots, tail = shown.partition("...\n")
        if dots:
            lines, head, tail = out.splitlines(), head.splitlines(), tail.splitlines()
            assert lines[:len(head)] == head, (argv, out)
            rest = iter(lines[len(head):])
            assert all(line in rest for line in tail), (argv, out)
            assert lines[-1] == tail[-1], (argv, out)
        else:
            assert out == shown
        assert shown.endswith(f"status: {code}\n")


def test_readme_counts_the_scripts_items():
    # README "Tests and scripts" gives the number of scalar draws and of
    # command lines that side_by_side.py compares
    text = " ".join(README.read_text(encoding="utf-8").split())
    draws = re.findall(r"`scalar_equivalence\.py` gives (\d+) seeded float draws", text)
    argvs = re.findall(r"`cli_equivalence\.py` gives (\d+) fixed command lines", text)
    assert draws == [str(scalar_equivalence.DRAWS)]
    assert argvs == [str(len(cli_equivalence.ARGVS))]
