"""The package's public names, the README's library example, the test
oracles' absence from the package, the package's lack of unused definitions
and exports, the runner's one numpy error state and one checkpoint pass,
and the suite's warning policy: every warning is an error, with no "ignore"
filter in tests/."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import stefanlab
from stefanlab import _scheme, control, diagnostics, params, runner, specfun, transforms

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


# The reference implementations in tests/oracles.py, which the engine never calls.
ORACLE_NAMES = (
    "PlantState",
    "ObserverState",
    "step_plant",
    "interface_flux",
    "step_observer",
    "estimate_flux",
    "observer_gain",
    "state_feedback",
    "output_feedback",
    "feedback_flux",
    "kernel_P",
    "kernel_Q",
    "Z2_CAP",
    "_check_domain",
    "_ratio_series_exact",
    "bessel_i1_ratio",
    "bessel_j1_ratio",
    "i1_ratio_array",
    "j1_ratio_array",
    "_grid_ratio",
    "oracle_ratio",
    "injection_source",
    "advance_field",
    "gain_profile",
    "qc_ode_residual",
    "fit_decay_rate",
    "LyapunovSample",
    "lyapunov_sample",
)

# Retired entries with no successor in tests/oracles.py: the initial profiles
# are runner.initial_fields, and the closed-form decay fit is inlined in
# RunSummary.decay_rate.
RETIRED_NAMES = ("init_plant", "init_observer", "centred_decay_rate")


def test_oracles_live_only_in_tests():
    import oracles

    modules = [stefanlab] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(stefanlab.__path__, "stefanlab.")
    ]
    # one module per source file: stefanlab itself for __init__.py
    assert len(modules) == len(list(Path(stefanlab.__file__).parent.glob("*.py")))
    for name in ORACLE_NAMES:
        assert hasattr(oracles, name), name
        assert not [m.__name__ for m in modules if hasattr(m, name)], name
    for name in RETIRED_NAMES:
        assert not hasattr(oracles, name), name
        assert not [m.__name__ for m in modules if hasattr(m, name)], name


def _imports(module) -> set[str]:
    """The modules a module's source imports, at module or function level;
    the package's own as stefanlab.<name>, those of ``from . import`` too."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = ".".join(filter(None, ("stefanlab" if node.level else "", node.module)))
            if name == "stefanlab":
                found.update(f"stefanlab.{alias.name}" for alias in node.names)
            else:
                found.add(name)
    return found


def test_stepping_kernel_imports_no_package_module():
    """``_scheme`` steps plant and observer alike, so it depends on no module
    of the package.  The parameter, evidence, transform and series layers
    depend on no module that steps or runs, and the runner not on the CLI."""
    assert "numpy" in _imports(_scheme)
    assert not [name for name in _imports(_scheme) if name.startswith("stefanlab")]
    # each form is seen: specfun imports scipy.special in a function
    assert {"stefanlab.errors", "scipy.special"} <= _imports(specfun)
    assert {"stefanlab.diagnostics", "stefanlab._scheme"} <= _imports(runner)
    above = {f"stefanlab.{name}" for name in ("runner", "cli", "_scheme")}
    for module in (params, diagnostics, control, transforms, specfun):
        assert not _imports(module) & above, module.__name__
    assert "stefanlab.cli" not in _imports(runner)


# Top-level definitions kept with no caller in the package: the README
# documents bundled_config as the way to find a bundled config.
UNREFERENCED_KEPT = {"cli.bundled_config"}

# Exported names that no module of the package but __init__ uses: the
# library's entry points.  simulate is the lockstep batch of one, which the
# CLI runs through simulate_batch.
LIBRARY_ENTRY_POINTS = {"simulate"}


def _names(tree) -> set[str]:
    """The names and attribute names a syntax tree uses."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_referenced_or_public():
    """A top-level function or class of the package that nothing in it
    names and that __all__ does not export is test-only code: it belongs in
    tests/oracles.py.  An exported name that no other module uses, except
    through exports that are themselves unused, is a second path beside the
    engine's: only the library's entry points may be one."""
    package = Path(stefanlab.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set().union(*map(_names, trees.values()))
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50
    unreferenced = {
        f"{module}.{name}"
        for module, name in defined
        if name not in referenced and name not in stefanlab.__all__
    }
    assert unreferenced == UNREFERENCED_KEPT

    # (the name a top-level statement defines, the names it uses), outside __init__
    uses = [
        (getattr(node, "name", None), _names(node))
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
    ]
    dead = set()
    while True:
        used = set().union(*(names for name, names in uses if name not in dead))
        unused = set(stefanlab.__all__) - used - LIBRARY_ENTRY_POINTS
        if unused == dead:
            break
        dead = unused
    assert not dead, sorted(dead)
    assert LIBRARY_ENTRY_POINTS <= set(stefanlab.__all__) - used


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


def call_owners(source: str, names) -> list[str]:
    """The top-level definitions of `source` that call a function named in
    `names`, plain or as an attribute, one entry per call, "<module>" for a
    statement that defines no name."""
    return sorted(
        getattr(node, "name", "<module>")
        for node in ast.parse(source).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", getattr(call.func, "id", None)) in names
    )


def errstate_owners(source: str) -> list[str]:
    """The top-level definitions of `source` that set numpy's error state,
    one entry per ``errstate`` or ``seterr`` call."""
    return call_owners(source, ("errstate", "seterr"))


def test_errstate_detector_finds_each_form():
    sample = """
import numpy as np
from numpy import errstate
np.seterr(over="ignore")
@np.errstate(invalid="ignore")
def f(): pass
class C:
    def g(self):
        with errstate(over="ignore"):
            pass
"""
    assert errstate_owners(sample) == ["<module>", "C", "f"]


def test_runner_sets_the_error_state_only_in_quiet():
    """The engine holds one numpy error state over its own work, _Quiet's
    stretch: no other block of runner opens one, so nothing it runs falls
    between two partial states."""
    assert errstate_owners(Path(runner.__file__).read_text()) == ["_Quiet"]


def test_runner_transforms_the_error_only_at_the_flush():
    """A checkpoint's row records its index and checks its kernel series;
    the Bessel error pair runs only in the flush's _log_checkpoints, from
    the ring, so no transform runs between a checkpoint's row and its
    flush."""
    owners = call_owners(Path(runner.__file__).read_text(), ("apply_inverse", "apply_direct"))
    assert owners and set(owners) == {"_log_checkpoints"}
