"""pairinfo benchmark: CLI end-to-end timings, per-layer spans when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The seed generates the workload's input files and the CLI ``--seed``;
the program sees nothing else.  Inputs are built outside the timed region.
A fresh worker process (``worker.py``) then calls
``pairinfo.cli.main(argv)`` round after round for ``--seconds``,
single-threaded, and checks every report.

End-to-end metrics (``--trace 0``):

* ``setup_s``: set-up every CLI call pays, a fresh interpreter importing
  ``pairinfo.cli`` and building its parser.  Median over the run of its
  ratio to an adjacent bare ``import numpy`` interpreter, times
  ``SPAWN_REF_S``.
* ``round_s``: one round of the workload's commands.  For each command,
  the median over the run of its wall time divided by the mean of the
  in-process calibration kernel just before and after it, times
  ``INPROC_REF_S``; summed over the round.
* ``peak_rss_mb``: peak resident set of the worker process.

The ratios cancel most of a shared host's speed drift (see ``worker.py``);
the reference constants only turn them back into seconds on a host where
the kernels take that long.  Raw wall-time medians per command, per round
and for set-up are printed in the summary and kept in the result file.  ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary.  Results with provenance, and the spans of a
traced run, are kept under ``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

DEADLINE_S = 170  # the whole run, inputs and set-up included

# Median times of the calibration kernels (worker.Calibration) on a quiet
# 2-vCPU Intel Xeon host with Python 3.11 and numpy 2.4.
INPROC_REF_S = 0.027
SPAWN_REF_S = 0.215

# Baseline table of ROADMAP.md (2 CPUs, Python 3.11, numpy 2.4), timed as
# whole CLI processes.  In-process timings here should come out near these minus
# the ~0.33 s start-up that setup_s measures; if not, that is a benchmark
# bug to explain.
ROADMAP_BASELINE_S = {
    "setup (estimate on 2x2 counts, mostly start-up)": 0.33,
    "estimate, 1M-row pairs CSV, 50x54": 1.76,
    "normality, n=20000, R=2000": 2.18,
    "power, n=30000, R=500": 1.19,
}

_OP_METRICS = {"estimate": "estimate_s", "test": "test_s", "normality": "normality_s",
               "power": "power_s", "trace": "trace_s"}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "mc_small", "mc_wide"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the worker")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"


def provenance(root: Path, seed: int, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "workload_seed": seed,
        "roadmap_baseline_s": ROADMAP_BASELINE_S,
    }


def _timing(samples: list) -> dict:
    """Median, sample count, and the highest of p90/p99 with ten samples beyond it."""
    out = {"median": statistics.median(samples), "count": len(samples)}
    ordered = sorted(samples)
    for pct in (99, 90):
        beyond = len(ordered) - int(len(ordered) * pct / 100)
        if beyond >= 10:
            out[f"p{pct}"] = ordered[-beyond]
            break
    return out


def _spawn(args: list, deadline: float) -> None:
    """Run one of the benchmark's own scripts to completion before the deadline."""
    subprocess.run([sys.executable, *map(str, args)], stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()), check=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "pairinfo" / "cli.py").is_file():
        print(f"perfbench: no pairinfo source under {root / 'src'}; "
              "run from the root of a pairinfo checkout", file=sys.stderr)
        return 2

    results_dir = HERE / "_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    deadline = began + DEADLINE_S
    try:
        _spawn([HERE / "inputs.py", args.workload, args.seed, work]
               + (["--tiny"] if args.tiny else []), deadline)
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        config = {
            "root": str(root),
            "work": str(work),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "ops": plan["ops"],
            "reference": plan["reference"],
            "result": str(work / "worker-result.json"),
            "spans": str(results_dir / f"{tag}-spans.csv"),
        }
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        _spawn([HERE / "worker.py", work / "config.json"], deadline)
        measured = json.loads((work / "worker-result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = measured["attempted"], measured["failed"]
    commands = {_OP_METRICS[name]: _timing(times)
                for name, times in measured["op_times"].items()}
    normalized = {_OP_METRICS[name]: statistics.median(ratios) * INPROC_REF_S
                  for name, ratios in measured["op_ratios"].items()}
    calibration = measured["calibration"]
    end_to_end = {
        "setup_s": {"value": statistics.median(measured["setup_ratios"]) * SPAWN_REF_S,
                    "unit": "s"},
        "round_s": {"value": sum(normalized.values()), "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
    }
    summary = {
        "workload": args.workload,
        "provenance": provenance(root, args.seed, plan["versions"]),
        "inputs": plan["inputs"],
        "commands_s": commands,
        "commands_normalized_s": normalized,
        "raw_medians_s": {
            "setup": statistics.median(calibration["setup"]),
            "round": statistics.median(measured["round_times"]),
            "calibration_inproc": statistics.median(calibration["inproc"]),
            "calibration_spawn": statistics.median(calibration["spawn"]),
        },
        "samples_s": {"round": measured["round_times"], **calibration},
        "error_rate": failed / attempted,
        "end_to_end": end_to_end,
        "problems": measured["problems"],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in measured["layers"].items()}
        summary["per_layer"] = metrics
        summary["traced_round_samples_s"] = measured["traced_round_times"]
    else:
        metrics = end_to_end
    (results_dir / f"{tag}.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")

    _print_summary(summary, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("ratio", "per_quantile")) else "count"


def _print_summary(summary: dict, attempted: int, failed: int) -> None:
    prov = summary["provenance"]
    print(f"pairinfo benchmark: workload {summary['workload']}, seed {prov['workload_seed']}")
    print(f"  python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"nproc {prov['nproc']}, cpu {prov['cpu']}, commit {prov['commit']}")
    for name, info in summary["inputs"].items():
        print(f"  input {name}: {info['rows']} rows, {info['cells']} cells, {info['bytes']} bytes")
    print("  wall time per command (raw; normalized in brackets):")
    for metric, info in summary["commands_s"].items():
        tail = "".join(f", {k} {v:.4f} s" for k, v in info.items() if k.startswith("p"))
        print(f"    {metric:<12} {info['median']:.4f} s median of {info['count']}{tail}"
              f"  [{summary['commands_normalized_s'][metric]:.4f} s]")
    raw = summary["raw_medians_s"]
    print(f"  raw medians: set-up {raw['setup']:.4f} s, round {raw['round']:.4f} s, "
          f"calibration in-process {raw['calibration_inproc']:.4f} s, "
          f"spawn {raw['calibration_spawn']:.4f} s")
    print("  end-to-end metrics:")
    for metric, info in summary["end_to_end"].items():
        print(f"    {metric:<12} {info['value']:.4f} {info['unit']}")
    print(f"    {'error_rate':<12} {summary['error_rate']:.4f} failed/attempted ({failed}/{attempted})")
    for entry in summary["problems"]:
        print(f"  FAILED {entry['op']}: {'; '.join(entry['problems'])}")
    for name, info in summary.get("per_layer", {}).items():
        print(f"  {name:<45} {info['value']:.6g} {info['unit']}")


if __name__ == "__main__":
    raise SystemExit(main())
