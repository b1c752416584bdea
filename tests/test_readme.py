"""README's library snippets run as written, on the public API only, and
its gallery table reads the headlines the default suite gives."""

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


def test_gallery_table_matches_the_suite(suite_results):
    """Every row of the README gallery table holds the direct, compacta and
    lifted headlines of its default bundle, to three decimals."""
    rows = re.findall(r"^\| ([\w-]+) +\| +([\d.]+) \| +([\d.]+) \| +([\d.]+) \|",
                      README.read_text(), flags=re.M)
    table = {name: cells for name, *cells in rows}
    assert set(table) == set(suite_results)
    for name, run in suite_results.items():
        assert table[name] == [f"{est.headline:.3f}" for est in (run.bd, run.bc, run.fr)], name
