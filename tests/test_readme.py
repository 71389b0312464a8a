"""The library example in README.md runs, and its annotated values hold."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    lines = block.splitlines()
    namespace: dict = {}
    values = passes = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if hash_:
            assert got == ast.literal_eval(comment.strip()), lines[stmt.lineno - 1]
            values += 1
        elif isinstance(stmt.value, ast.Attribute) and stmt.value.attr == "all_pass":
            assert got is True, lines[stmt.lineno - 1]
            passes += 1
    assert (values, passes) == (2, 2)
