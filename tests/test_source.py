"""The package source: the oldest supported syntax, and one export list per module."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import pairinfo

SRC = Path(__file__).resolve().parents[1] / "src" / "pairinfo"
FILES = sorted(SRC.glob("*.py"))
MODULES = ["encoding", "pmf", "measures", "asymptotics", "inference", "montecarlo"]


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_parses_as_python_3_10(path):
    """``pyproject.toml`` declares ``requires-python = ">=3.10"``."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_package_exports_each_modules_list_once():
    names = [n for m in MODULES for n in importlib.import_module(f"pairinfo.{m}").__all__]
    assert pairinfo.__all__ == [*names, "__version__"]
    assert len(set(pairinfo.__all__)) == len(pairinfo.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_each_exported_name_is_defined_in_its_module(module):
    mod = importlib.import_module(f"pairinfo.{module}")
    for name in mod.__all__:
        obj = getattr(pairinfo, name)
        assert obj is getattr(mod, name)
        assert inspect.getmodule(obj) is mod, name


@pytest.mark.parametrize(
    "text",
    ["count must be an integer", "count must be nonnegative", "count must be at most",
     "duplicate cell"],
)
def test_each_counts_rule_is_written_once(text):
    """The counts reader splits plain lines in numpy and walks every other
    line record by record; only the walk states a rule of the format."""
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1


def test_the_empty_sample_rule_is_written_once():
    """``EmpiricalPmf`` states it; an empty sample given to ``estimate_pmf``
    reaches it as an all-zero count vector."""
    text = "empty sample: n = 0"
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1
    assert not any("all counts are zero" in path.read_text(encoding="utf-8") for path in FILES)


def test_the_record_walk_is_entered_in_one_place():
    """Both readers hand the rest of a file to the record walk through
    ``_reader._walk_from``, the one place that logs where and why."""
    text = "walking records from line"
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1


def _imported(node) -> list[str]:
    """The modules an import statement in a module of pairinfo may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ".".join(filter(None, ["pairinfo" if node.level else "", node.module]))
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


def test_no_module_but_main_imports_the_cli():
    """The CLI sits on top: no module under it imports from it, not even
    inside a function, so the reader and the CLI do not import each other."""
    for path in FILES:
        if path.name == "__main__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert "pairinfo.cli" not in _imported(node), (path.name, node.lineno)


def test_cli_holds_no_private_reader_name():
    """A test that patches a reader knob on ``pairinfo.cli`` raises
    ``AttributeError`` rather than patching a copy that nothing reads."""
    reader = importlib.import_module("pairinfo._reader")
    cli = importlib.import_module("pairinfo.cli")
    private = {name for name in vars(reader) if name.startswith("_") and not name.startswith("__")}
    assert "_FIELD_LINES" in private and "_BLOCK_BYTES" in private
    assert private.isdisjoint(vars(cli))
