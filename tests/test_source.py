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
