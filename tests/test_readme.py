"""README's library snippets run as written, on the public API only."""

import ast
import re
from pathlib import Path

import pytest

import entro

README = Path(__file__).resolve().parents[1] / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_two_library_snippets():
    assert len(SNIPPETS) == 2


@pytest.mark.parametrize("code", SNIPPETS, ids=["estimators", "run_bundle"])
def test_snippet_imports_are_public_and_it_runs(code, capsys):
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "entro"
        for alias in node.names
    ]
    assert names
    assert set(names) <= set(entro.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
