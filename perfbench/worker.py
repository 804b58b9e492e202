"""Run one workload's CLI invocations in this process and time them.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (``run.py`` writes the
config and reads the result back).  The worker imports pairinfo from the
checkout's ``src``, calls ``pairinfo.cli.main(argv)`` round after round
until the measuring time is spent, checks every report, and writes its
timings, peak RSS and, when tracing, per-layer metrics as JSON.

Shared hosts drift in speed by tens of percent over tens of seconds as
other tenants load them, and that drift swamps run-to-run comparisons.  So
every timed call is paired with calibration kernels that run no pairinfo
code: an in-process kernel just before and just after the call, and after
it a fresh interpreter's set-up paired with a bare ``import numpy``
interpreter.  The ratios of each pair cancel most of the drift.

When tracing, untraced and traced rounds alternate: the untraced ones give
the reference bytes and the overhead base, the traced ones the spans.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import logging
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_report  # noqa: E402
from tracing import Recorder, layer_metrics, median_metrics, traced  # noqa: E402

MAX_PROBLEMS = 20


class Runner:
    """Runs CLI calls, checks their outputs and counts failed ones."""

    def __init__(self, cli, reference: dict, out_dir: Path):
        self.cli = cli
        self.reference = reference
        self.out_dir = out_dir
        self.first: dict = {}  # op name -> (bytes, problems)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def _invoke(self, op: dict) -> tuple:
        """(seconds, output bytes or None, problems) of one CLI call."""
        out = self.out_dir / f"{op['name']}.out"
        out.unlink(missing_ok=True)
        gc.collect()
        start = perf_counter()
        try:
            code = self.cli.main([*op["argv"], "--output", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op, not the end of the run
            return perf_counter() - start, None, [traceback.format_exc(limit=3)]
        elapsed = perf_counter() - start
        if code != 0:
            return elapsed, None, [f"exit code {code}"]
        return elapsed, out.read_bytes(), []

    def run(self, op: dict) -> float:
        """Wall time of one call; its output is checked against the first one."""
        elapsed, data, problems = self._invoke(op)
        name = op["name"]
        if data is not None and name not in self.first:
            text = data.decode("utf-8")
            self.first[name] = (data, check_report(op["kind"], text, self.reference, op["params"]))
        if data is not None:
            first, first_problems = self.first[name]
            if data != first:
                problems = ["output differs from the first run with the same seed"]
            else:
                problems = first_problems
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append({"op": name, "problems": problems[:5]})
        return elapsed


class Calibration:
    """Fixed work that uses no pairinfo code, timed beside the CLI calls.

    ``inproc`` parses CSV text in Python and counts with numpy, like the
    CLI calls; ``spawn`` starts an interpreter that imports numpy, like
    set-up does; ``setup`` starts one that imports ``pairinfo.cli`` and
    builds its parser, which every CLI call pays.
    """

    TEXT = "".join(f"a{i % 50},b{i % 54}\n" for i in range(20_000))
    SETUP_CODE = "import pairinfo.cli as c; c.build_parser(); print(c.__file__)"

    def __init__(self, root: Path):
        import numpy as np

        self.np = np
        self.draws = np.random.default_rng(0).random(200_000)
        self.edges = np.linspace(0.0, 1.0, 5)
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), self.env.get("PYTHONPATH")]))

    def inproc(self) -> float:
        start = perf_counter()
        seen: dict = {}
        for row in csv.reader(io.StringIO(self.TEXT)):
            seen.setdefault(row[0], len(seen))
        for _ in range(3):
            self.np.bincount(self.np.searchsorted(self.edges, self.draws), minlength=6)
        return perf_counter() - start

    def _interpreter(self, code: str) -> tuple:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60, check=True)
        return perf_counter() - start, proc.stdout.strip()

    def spawn(self) -> float:
        return self._interpreter("import numpy")[0]

    def setup(self) -> float:
        elapsed, module_file = self._interpreter(self.SETUP_CODE)
        if not Path(module_file).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"set-up imported {module_file}, not the checkout's src")
        return elapsed


@contextlib.contextmanager
def _cli_log(path: Path):
    """Send the CLI's INFO log lines to a file instead of the terminal.

    ``main`` calls ``logging.basicConfig``, which leaves a root logger that
    already has a handler alone, so the CLI still formats every line.
    """
    root = logging.getLogger()
    handler = logging.FileHandler(path, encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
        handler.close()


def measure(config: dict) -> dict:
    root = Path(config["root"])
    sys.path.insert(0, str(root / "src"))
    import pairinfo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"pairinfo was imported from {cli.__file__}, not from {root / 'src'}")
    out_dir = Path(config["work"])
    ops = config["ops"]
    runner = Runner(cli, config["reference"], out_dir)
    recorder = Recorder() if config["trace"] else None
    calibration = Calibration(root)
    samples = {key: [] for key in ("setup", "spawn", "inproc")}
    op_times = {op["name"]: [] for op in ops}
    op_ratios = {op["name"]: [] for op in ops}
    plain_rounds, traced_rounds, layer_rounds = [], [], []
    start = perf_counter()
    with _cli_log(out_dir / "cli.log"):
        while len(plain_rounds) < 2 or perf_counter() - start < config["seconds"]:
            round_time = 0.0
            for op in ops:
                before = calibration.inproc()
                elapsed = runner.run(op)
                after = calibration.inproc()
                op_times[op["name"]].append(elapsed)
                op_ratios[op["name"]].append(2.0 * elapsed / (before + after))
                round_time += elapsed
                samples["inproc"] += [before, after]
                samples["setup"].append(calibration.setup())
                samples["spawn"].append(calibration.spawn())
            plain_rounds.append(round_time)
            if recorder is None:
                continue
            first_span = len(recorder.spans)
            with traced(recorder):
                round_time = 0.0
                for op in ops:
                    recorder.op += 1
                    round_time += runner.run(op)
            traced_rounds.append(round_time)
            layer_rounds.append(layer_metrics(recorder.spans[first_span:], first_span))
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "op_times": op_times,
        "op_ratios": op_ratios,
        "round_times": plain_rounds,
        "calibration": samples,
        "setup_ratios": [s / b for s, b in zip(samples["setup"], samples["spawn"])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        layers = median_metrics(layer_rounds)
        layers["tracing.overhead_ratio"] = median(traced_rounds) / median(plain_rounds)
        result["layers"] = layers
        result["traced_round_times"] = traced_rounds
        _write_spans(recorder.spans, Path(config["spans"]))
    return result


def _write_spans(spans: list, path: Path) -> None:
    base = spans[0][1] if spans else 0
    with path.open("w", encoding="utf-8") as out:
        out.write("index,name,start_ns,end_ns,parent,op\n")
        for index, (name, start, end, parent, op, _) in enumerate(spans):
            out.write(f"{index},{name},{start - base},{end - base},{parent},{op}\n")


def main(argv: list) -> int:
    config = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = measure(config)
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
