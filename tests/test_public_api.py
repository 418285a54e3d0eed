"""The package's public names and the README's library example."""

import ast
import re
from pathlib import Path

import stefanlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once_and_cover_readme_example():
    names = stefanlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(stefanlab, name), name

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "stefanlab"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(names), set(imported) - set(names)
