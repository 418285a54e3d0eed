"""The package's public names, the README's library example, and the suite's
warning policy: every warning is an error, with no "ignore" filter in tests/."""

import ast
import re
from pathlib import Path

import stefanlab

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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


def ignore_filters(source: str) -> list[int]:
    """Line numbers of the ``simplefilter`` and ``filterwarnings`` calls in
    `source` (``warnings.*`` and the pytest mark alike) whose action is "ignore"."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("simplefilter", "filterwarnings")
        and any(
            str(getattr(arg, "value", "")).startswith("ignore")
            for arg in node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "action"]
        )
    )


def test_ignore_filter_detector_finds_each_form():
    sample = """
import warnings, pytest
warnings.simplefilter("ignore", RuntimeWarning)
warnings.filterwarnings(action="ignore")
@pytest.mark.filterwarnings("ignore:some message:RuntimeWarning")
def test_x(): warnings.simplefilter("error")
"""
    assert ignore_filters(sample) == [3, 4, 5]


def test_no_test_module_ignores_warnings():
    assert 'filterwarnings = ["error"]' in (TESTS.parent / "pyproject.toml").read_text()
    found = {path.name: ignore_filters(path.read_text()) for path in sorted(TESTS.rglob("*.py"))}
    assert len(found) > 10
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}
