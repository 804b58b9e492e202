"""Command-line surface: ingest CSV data, estimate, test, run studies.

Subcommands
-----------
estimate    joint entropy and mutual information with confidence intervals
test        likelihood-ratio independence test
trace       convergence trace over growing sample sizes (plot-ready rows)
normality   standardized-estimate distribution vs the standard normal
power       rejection rate of the test under the ingested distribution

Input is CSV in one of two layouts: ``pairs`` (one observation per row,
two label columns) or ``counts`` (one cell per row: x label, y label,
count).  Labels are enumerated in first-appearance order, never sorted.
Study commands treat the ingested table's relative frequencies as the true
distribution to simulate from.

Reports go to ``--output`` (default ``-`` = standard output) as JSON with
a fixed key order and floats rounded to 9 significant digits, so identical
input and configuration produce byte-identical bytes.  The trace command
emits CSV rows by default; ``--output-format`` switches between json and
csv for the two row-oriented studies.  Logs go to standard error only.

Exit codes: 0 success, 2 input or data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .asymptotics import EstimateReport, estimate_report
from .inference import independence_test
from .montecarlo import (
    NormalityStudy,
    RngSpec,
    convergence_trace,
    normality_study,
    rejection_rate,
)
from .pmf import EmpiricalPmf, LabeledAlphabets, estimate_pmf

log = logging.getLogger("pairinfo")

SCHEMA_VERSION = 1

_MAX_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation, embedded in every report for provenance."""

    command: str
    input: str
    format: str
    header: bool = False
    alpha: float = 0.05
    seed: int = 0
    n: int | None = None
    replicates: int | None = None
    sizes: list[int] | None = None
    measure: str | None = None
    output: str = "-"
    output_format: str = "json"


def _rows(stream: TextIO, header: bool, width: int):
    """Yield ``(lineno, row)`` for each data row of ``width`` fields.

    Skips the header row when asked and blank lines; rows are yielded
    unstripped, so each caller strips the fields it keeps.
    """
    for lineno, row in enumerate(csv.reader(stream), start=1):
        if (header and lineno == 1) or not row:
            continue
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
        yield lineno, row


def parse_pairs_csv(
    stream: TextIO, header: bool = False
) -> tuple[LabeledAlphabets, np.ndarray]:
    """Read one observation per row (x label, y label).

    Returns the alphabets in first-appearance order and the sample as
    1-based flattened outcome indices.  Encoding needs the column-alphabet
    size, so label indices are collected first and encoded once the file
    is read.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    xs: list[int] = []
    ys: list[int] = []
    for _, (x, y) in _rows(stream, header, 2):
        xs.append(x_order.setdefault(x.strip(), len(x_order)))
        ys.append(y_order.setdefault(y.strip(), len(y_order)))
    if not xs:
        raise ValueError("empty input: no data rows")
    alphabets = LabeledAlphabets(tuple(x_order), tuple(y_order))
    sample = np.array(xs, dtype=np.int64) * len(y_order)
    sample += np.array(ys, dtype=np.int64) + 1
    return alphabets, sample


def parse_counts_csv(
    stream: TextIO, header: bool = False
) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    """Read one cell per row (x label, y label, count).

    Cells never mentioned get count 0; mentioning a cell twice is an
    error.  At least one count must be positive, and every count must fit
    in a signed 64-bit integer.
    """
    x_order: dict[str, int] = {}
    y_order: dict[str, int] = {}
    cells: dict[tuple[int, int], int] = {}
    for lineno, row in _rows(stream, header, 3):
        x, y, raw = (field.strip() for field in row)
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: count must be an integer, got {raw!r}"
            ) from None
        if count < 0:
            raise ValueError(f"line {lineno}: count must be nonnegative, got {count}")
        if count > _MAX_COUNT:
            raise ValueError(
                f"line {lineno}: count must be at most {_MAX_COUNT}, got {count}"
            )
        key = (x_order.setdefault(x, len(x_order)), y_order.setdefault(y, len(y_order)))
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate cell ({x}, {y})")
        cells[key] = count
    if not cells:
        raise ValueError("empty input: no data rows")
    alphabets = LabeledAlphabets(tuple(x_order), tuple(y_order))
    counts = np.zeros(alphabets.shape.size, dtype=np.int64)
    cols = len(y_order)
    for (xi, yi), count in cells.items():
        counts[cols * xi + yi] = count
    if not counts.any():
        raise ValueError("all counts are zero: n = 0")
    return alphabets, EmpiricalPmf(counts, alphabets.shape)


def serialize_counts_csv(alphabets: LabeledAlphabets, emp: EmpiricalPmf) -> str:
    """Counts-layout CSV for an empirical table, one row per cell.

    Zero cells are written too, so parsing the result reproduces the
    alphabets and counts exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = emp.shape.cols
    for xi, x in enumerate(alphabets.x_labels):
        for yi, y in enumerate(alphabets.y_labels):
            writer.writerow([x, y, int(emp.counts[cols * xi + yi])])
    return buf.getvalue()


def parse_sizes(text: str) -> list[int]:
    """Expand ``start:stop:step`` into an inclusive-stop size grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sizes must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"sizes must be three integers, got {text!r}") from None
    if start < 1:
        raise ValueError(f"sizes start must be >= 1, got {start}")
    if step < 1:
        raise ValueError(f"sizes step must be >= 1, got {step}")
    if stop < start:
        raise ValueError(f"sizes stop must be >= start, got {start}:{stop}:{step}")
    return list(range(start, stop + 1, step))


def _jsonable(obj):
    """Plain JSON types with floats rounded to 9 significant digits."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".9g"))
    return obj


def _compact_json(obj) -> str:
    return json.dumps(_jsonable(obj), separators=(",", ":"))


def _report_json(config: RunConfig, alphabets: LabeledAlphabets, results: dict) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "alphabets": {
            "x": list(alphabets.x_labels),
            "y": list(alphabets.y_labels),
        },
        "results": results,
    }
    return json.dumps(_jsonable(report), indent=2) + "\n"


def _csv_report(config: RunConfig, comments: list[str], columns: dict) -> str:
    """The ``# config:`` line and further comment lines, a header row of the
    column names, then one row per index: the first column as int, the
    others at nine significant digits.
    """
    buf = io.StringIO()
    for line in ["# config: " + _compact_json(asdict(config)), *comments]:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for first, *rest in zip(*columns.values()):
        writer.writerow([int(first), *(format(v, ".9g") for v in rest)])
    return buf.getvalue()


def _estimate_dict(rep: EstimateReport) -> dict:
    out = asdict(rep)
    del out["measure"]
    out["variance"] = {**out.pop("variance"), "discrepancy": rep.variance.discrepancy}
    return out


def _normality_fields(study: NormalityStudy) -> tuple[dict, dict]:
    """The study's scalar fields and its array fields, each in field order."""
    scalars, arrays = {}, {}
    for key, val in asdict(study).items():
        (arrays if isinstance(val, np.ndarray) else scalars)[key] = val
    return scalars, arrays


def _ingest(config: RunConfig) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    path = Path(config.input)
    with path.open(newline="", encoding="utf-8") as stream:
        if config.format == "pairs":
            alphabets, sample = parse_pairs_csv(stream, header=config.header)
            emp = estimate_pmf(sample, alphabets.shape)
        else:
            alphabets, emp = parse_counts_csv(stream, header=config.header)
    log.info(
        "ingested %s: %dx%d alphabet, n = %d",
        config.input,
        emp.shape.rows,
        emp.shape.cols,
        emp.n,
    )
    return alphabets, emp


def _emit(config: RunConfig, text: str) -> None:
    if config.output == "-":
        sys.stdout.write(text)
    else:
        Path(config.output).write_text(text, encoding="utf-8")
        log.info("wrote %s", config.output)


def run(config: RunConfig) -> int:
    """Execute one resolved command; returns the process exit code."""
    alphabets, emp = _ingest(config)
    rng = RngSpec(config.seed)
    csv_out = config.output_format == "csv"
    if config.command == "estimate":
        results = {
            measure: _estimate_dict(estimate_report(measure, emp, config.alpha))
            for measure in ("joint_entropy", "mutual_information")
        }
        text = _report_json(config, alphabets, results)
    elif config.command == "test":
        rep = independence_test(emp, config.alpha)
        text = _report_json(config, alphabets, {"independence_test": asdict(rep)})
    elif config.command == "trace":
        trace = convergence_trace(emp.as_zpmf(), config.sizes, config.measure, rng)
        if csv_out:
            true_value = format(trace.true_value, ".9g")
            comment = f"# measure: {trace.measure}, true_value: {true_value}"
            columns = {
                "size": trace.sizes,
                "estimate": trace.estimates,
                "abs_error": trace.abs_errors,
                "a_zn": trace.a_zn,
                "ratio": trace.ratio,
            }
            text = _csv_report(config, [comment], columns)
        else:
            text = _report_json(config, alphabets, {"trace": asdict(trace)})
    elif config.command == "normality":
        study = normality_study(
            emp.as_zpmf(), config.n, config.replicates, config.measure, rng
        )
        scalars, arrays = _normality_fields(study)
        if csv_out:
            comments = [
                "# summary: " + _compact_json(scalars),
                "# bin_edges: " + json.dumps(_jsonable(study.bin_edges)),
                "# bin_counts: " + json.dumps(_jsonable(study.bin_counts)),
            ]
            columns = {
                "index": range(1, study.replicates + 1),
                "t_value": study.t_values,
                "qq_theoretical": study.qq_theoretical,
                "qq_order_statistic": study.qq_sample,
            }
            text = _csv_report(config, comments, columns)
        else:
            text = _report_json(config, alphabets, {"normality": {**scalars, **arrays}})
    elif config.command == "power":
        rate = rejection_rate(
            emp.as_zpmf(), config.n, config.replicates, config.alpha, rng
        )
        results = {
            "rejection_rate": {
                "rate": rate,
                "n": config.n,
                "replicates": config.replicates,
                "alpha": config.alpha,
            }
        }
        text = _report_json(config, alphabets, results)
    else:
        raise ValueError(f"unknown command {config.command!r}")
    _emit(config, text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument(
        "--format",
        required=True,
        choices=("pairs", "counts"),
        help="input layout: one observation per row, or one cell count per row",
    )
    sub.add_argument(
        "--header",
        action="store_true",
        help="skip the first input row (header detection is never automatic)",
    )
    sub.add_argument(
        "--output", default="-", help="report path, or - for standard output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pairinfo",
        description=(
            "Plug-in joint entropy and mutual information for a pair of "
            "categorical variables, with asymptotic inference, an "
            "independence test, and seeded Monte Carlo studies."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="entropy and MI with confidence intervals")
    _add_io_flags(est)
    est.add_argument("--alpha", type=float, default=0.05, help="CI level (default 0.05)")

    test = commands.add_parser("test", help="likelihood-ratio independence test")
    _add_io_flags(test)
    test.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")

    trace = commands.add_parser("trace", help="convergence trace over sample sizes")
    _add_io_flags(trace)
    trace.add_argument("--measure", required=True, choices=("entropy", "mi"))
    trace.add_argument(
        "--sizes", required=True, help="sample-size grid start:stop:step (stop inclusive)"
    )
    trace.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    trace.add_argument(
        "--output-format", choices=("json", "csv"), default="csv",
        help="csv rows (default) or a json report",
    )

    norm = commands.add_parser("normality", help="standardized estimates vs N(0,1)")
    _add_io_flags(norm)
    norm.add_argument("--measure", required=True, choices=("entropy", "mi"))
    norm.add_argument("--n", type=int, required=True, help="sample size per replicate")
    norm.add_argument("--replicates", type=int, required=True)
    norm.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    norm.add_argument(
        "--output-format", choices=("json", "csv"), default="json",
        help="json report (default) or csv rows of T values and QQ pairs",
    )

    power = commands.add_parser("power", help="test rejection rate under the ingested p.m.f.")
    _add_io_flags(power)
    power.add_argument("--n", type=int, required=True, help="sample size per replicate")
    power.add_argument("--replicates", type=int, required=True)
    power.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    power.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
    values["sizes"] = parse_sizes(values["sizes"]) if values["sizes"] else None
    return RunConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return run(_config_from_args(args))
    except (ValueError, OSError, UnicodeDecodeError) as exc:
        print(f"pairinfo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
