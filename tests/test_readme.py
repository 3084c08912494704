"""README "Library quick start" runs as written and gives the results its
comments state."""

import ast
from pathlib import Path

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
