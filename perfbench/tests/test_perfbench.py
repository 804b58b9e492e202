"""Tests of the benchmark itself: smoke runs, checks and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import check_report  # noqa: E402
from worker import measure  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _config(workload: str, work: Path, trace: bool, seconds: float = 0.0) -> dict:
    plan = inputs.build(workload, 7, work, tiny=True)
    return {
        "root": str(ROOT), "work": str(work), "seconds": seconds, "trace": trace,
        "ops": [vars(op) for op in plan.ops], "reference": plan.reference,
        "spans": str(work / "spans.csv"),
    }


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run("--workload", "mc_small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_gives_same_inputs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    plan_a = inputs.build("ingest", 11, first, tiny=True)
    plan_b = inputs.build("ingest", 11, second, tiny=True)
    assert (first / "pairs.csv").read_bytes() == (second / "pairs.csv").read_bytes()
    assert plan_a.reference == plan_b.reference
    assert plan_a.reference["x_labels"] != sorted(plan_a.reference["x_labels"])


def test_t3_is_the_readme_table(tmp_path):
    inputs.build("mc_small", 1, tmp_path, tiny=True)
    assert (tmp_path / "t3.csv").read_text() == "x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n"


def _estimate_report(tmp_path) -> tuple:
    import pairinfo.cli as cli

    plan = inputs.build("ingest", 5, tmp_path, tiny=True)
    out = tmp_path / "estimate.json"
    op = plan.ops[0]
    assert cli.main([*op.argv, "--output", str(out)]) == 0
    return out.read_text(), plan.reference, op


def test_perturbed_estimate_fails_the_check(tmp_path):
    text, reference, op = _estimate_report(tmp_path)
    assert check_report("estimate", text, reference, op.params) == []
    report = json.loads(text)
    report["results"]["mutual_information"]["estimate"] *= 1.001
    problems = check_report("estimate", json.dumps(report), reference, op.params)
    assert any("mutual_information.estimate" in p for p in problems)


@pytest.mark.parametrize("kind", ["estimate", "test", "normality", "power", "trace"])
def test_malformed_report_is_a_problem_not_a_crash(kind):
    assert check_report(kind, "# config: {}\nnot a report\n", {}, {})


def test_perturbed_reference_counts_as_failed_ops(tmp_path):
    config = _config("ingest", tmp_path, trace=False)
    config["reference"]["joint_entropy"]["estimate"] *= 1.001
    result = measure(config)
    # Every estimate call fails its check; the test calls still pass.
    assert result["failed"] == result["attempted"] // 2 > 0
    assert result["problems"][0]["op"] == "estimate"


def test_traced_run_restores_names_and_keeps_bytes(tmp_path):
    import pairinfo.cli as cli
    import pairinfo.montecarlo as montecarlo

    before = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in tracing.BINDINGS}
    measures_before = dict(montecarlo._MEASURES)
    substream_before = montecarlo.RngSpec.substream
    result = measure(_config("mc_small", tmp_path, trace=True))
    # Traced rounds are byte-compared with the untraced ones like reruns.
    assert result["failed"] == 0 and result["attempted"] == 12
    assert result["layers"]["montecarlo.substream.calls"] > 0
    assert {(m, a): getattr(sys.modules[m], a) for m, a, *_ in tracing.BINDINGS} == before
    assert montecarlo._MEASURES == measures_before
    assert montecarlo.RngSpec.substream is substream_before
    assert cli.run.__module__ == "pairinfo.cli" and not hasattr(cli.run, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [
        ("cli.run", 0, 100, -1, 1, None),
        ("inference.chi_square_quantile", 10, 50, 0, 1, (0.95, 1)),
        ("inference.chi_square_cdf", 20, 30, 1, 1, None),
        ("inference.chi_square_quantile", 60, 70, 0, 1, (0.95, 1)),
    ]
    layers = tracing.layer_metrics(spans)
    assert layers["cli.run.self_s"] == pytest.approx(50e-9)
    assert layers["inference.chi_square_quantile.self_s"] == pytest.approx(40e-9)
    assert layers["inference.chi_square_quantile.distinct_ratio"] == 0.5
    assert layers["inference.chi_square_cdf.calls_per_quantile"] == 0.5


def test_predictions_cover_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["layers"]) == {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert all(set(p["on"]) <= workloads for p in predictions["layers"].values())
