"""The README's Python examples run as written, and its module map names
only what each module exports."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
MAP = README.split("Module map:\n\n", 1)[1].split("\n\n", 1)[0]
BULLETS = re.findall(r"^- `(pairinfo\.\w+)`:(.*?)(?=^- |\Z)", MAP, re.M | re.S)


def _run(code):
    """``code`` run by a fresh interpreter with ``src`` first on its path;
    the rest of the environment, such as PYTHONDONTWRITEBYTECODE, is kept."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_cleanly(code):
    done = _run(code)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_quick_start_prints_its_seeded_values():
    """The quick start draws with seed 42, so its estimate, interval and
    test are fixed numbers."""
    done = _run(next(code for code in BLOCKS if "estimate_report" in code))
    estimate, test = (line.split() for line in done.stdout.splitlines())
    assert [float(v) for v in estimate] == pytest.approx(
        [0.003816041744306775, 0.0028355964183658434, 0.004796487070247707], rel=1e-9
    )
    assert [float(v) for v in test[:2]] == pytest.approx(
        [228.96250465840652, 1.0037029365788026e-51], rel=1e-9
    )
    assert test[2] == "True"


def test_module_map_names_only_exported_names():
    """Each name a module-map bullet backticks is in the ``__all__`` of
    the module the bullet names; dotted names are cross-references."""
    public = {f"pairinfo.{f.stem}" for f in (ROOT / "src" / "pairinfo").glob("[!_]*.py")}
    assert sorted(module for module, _ in BULLETS) == sorted(public)
    for module, text in BULLETS:
        names = [n for n in re.findall(r"`([^`]+)`", text) if n.isidentifier()]
        exported = getattr(importlib.import_module(module), "__all__", [])
        assert [n for n in names if n not in exported] == [], module
