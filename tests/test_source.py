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
    ["count must be an integer", 'count", 0, _INT64_MAX)', "duplicate cell"],
)
def test_each_counts_rule_is_written_once(text):
    """The counts reader splits plain lines in numpy and walks every other
    line record by record; only the walk states a rule of the format, the
    count's range by its ``_integer`` call."""
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1


def test_the_empty_sample_rule_is_written_once():
    """``EmpiricalPmf`` states it; an empty sample given to ``estimate_pmf``
    reaches it as an all-zero count vector."""
    text = "empty sample: n = 0"
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1
    assert not any("all counts are zero" in path.read_text(encoding="utf-8") for path in FILES)


@pytest.mark.parametrize(
    "text",
    ["alpha must be in (0, 1)", "alpha must exceed 2**-", "quantile level must be in (0, 1)",
     "empty input: no data rows"],
)
def test_each_level_rule_is_written_once(text):
    """``asymptotics._level`` refuses an alpha for both the interval and the
    test, ``normal_quantile`` a quantile level for both quantiles, and
    ``_reader._labeled`` an empty file for both readers."""
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1


def test_every_integer_range_is_stated_by_one_rule():
    """``encoding._integer`` words the range of every bounded integer input,
    so no other module writes a range text, and none of the old phrasings
    is left."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in FILES}
    for text in ["must be at least", "must be at most"]:
        assert {name: source.count(text) for name, source in sources.items()
                if text in source} == {"encoding.py": 1}
    for text in ["outside [1,", ">= 1, got", "needs >=", "must be in [0, 2**64)",
                 "_validate_df", "_replicate_count"]:
        assert not [name for name, source in sources.items() if text in source], text


def test_the_record_walk_is_entered_in_one_place():
    """Both readers hand the rest of a file to the record walk through
    ``_reader._walk_from``, the one place that logs where and why."""
    text = "walking records from line"
    assert sum(path.read_text(encoding="utf-8").count(text) for path in FILES) == 1


def test_the_variance_and_the_interval_are_row_kernels():
    """``asymptotics`` writes each once over a block of rows and takes the
    scalar as row 0: no ``_variance`` beside ``_variance_rows``, and no
    per-row loop."""
    tree = ast.parse((SRC / "asymptotics.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"_variance_rows", "_interval_rows"} <= names and "_variance" not in names
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, loops)]


def test_the_replicates_are_a_stream_and_the_rate_a_count():
    """``montecarlo._replicates`` yields each block's result and joins none,
    and ``rejection_rate`` counts the stream as it comes: neither holds a
    result per replicate, whatever the number of replicates."""
    tree = ast.parse((SRC / "montecarlo.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def named(function: str) -> set[str]:
        nodes = ast.walk(functions[function])
        return {getattr(node, "attr", getattr(node, "id", None)) for node in nodes}

    engine = functions["_replicates"]
    assert any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(engine))
    assert "concatenate" not in named("_replicates")
    assert {"_replicates", "count_nonzero"} <= named("rejection_rate")
    assert "concatenate" not in named("rejection_rate")


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
