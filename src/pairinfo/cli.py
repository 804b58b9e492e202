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
a fixed key order and floats rounded to 9 significant digits (non-finite
ones as null), so identical input and configuration produce byte-identical
bytes.  The trace command emits CSV rows by default; ``--output-format``
switches between json and csv for the two row-oriented studies.  Logs go
to standard error only.

Exit codes: 0 success, 2 input or data error, 64 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoding
from .asymptotics import estimate_report
from .inference import independence_test
from .montecarlo import (
    RngSpec,
    convergence_trace,
    normality_study,
    rejection_rate,
)
from .pmf import EmpiricalPmf, LabeledAlphabets

# Bound here for perfbench/tracing.py, which rebinds the parsers _ingest
# calls and estimate_pmf; serialize_counts_csv is re-exported with them.
from ._reader import parse_counts_csv, parse_pairs_csv, serialize_counts_csv  # noqa: F401
from .pmf import estimate_pmf  # noqa: F401

log = logging.getLogger("pairinfo")

SCHEMA_VERSION = 2


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


def parse_sizes(text: str) -> list[int]:
    """Expand ``start:stop:step`` into an inclusive-stop size grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sizes must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"sizes must be three integers, got {text!r}") from None
    encoding._integer(start, "sizes start", 1)
    encoding._integer(step, "sizes step", 1)
    if stop < start:
        raise ValueError(f"sizes stop must be >= start, got {start}:{stop}:{step}")
    length = (stop - start) // step + 1
    if length > sys.maxsize:
        raise ValueError(f"sizes grid must have at most {sys.maxsize} entries, got {length}")
    return list(range(start, stop + 1, step))


def _spelled(values: np.ndarray) -> list[str]:
    """The ``.9g`` text of each element of a 1-D float array."""
    return list(map("{:.9g}".format, values.tolist()))


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON of each element of a 1-D float array: the repr of the float
    its ``.9g`` text reads as.  That is the text itself but for the values,
    found in numpy, that are not finite (``null``), are subnormal or may
    round to an integer, as every one from 5e7 up may."""
    values = values.astype(float, copy=False)
    texts = _spelled(values)
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        # Rounding to 9 digits moves a value by at most 5e-9 of its size.
        whole = np.abs(values - np.rint(values)) <= 1e-8 * size
    finite = np.isfinite(values)
    other = whole | ~finite | (size < np.finfo(float).tiny)
    for at in np.flatnonzero(other).tolist():
        # JSON has no NaN or infinity; strict parsers reject the bare tokens.
        texts[at] = repr(float(texts[at])) if finite[at] else "null"
    return texts


def _json(obj, sep: str = ", ", colon: str = ": ", step: str = "", outer: str = "") -> str:
    """``obj`` as ``json.dumps`` spells it with ``separators=(sep, colon)``
    and, if ``step`` is given, ``indent=step``, and floats as
    :func:`_json_floats` does.  ``obj`` holds dicts, lists, tuples, arrays,
    strings, bools, ints, floats and ``None``, numpy scalars too; ``outer``
    is the newline and indent before its closing bracket."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_floats(np.array([obj], float))[0]
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner, brackets = outer + step, "[]"
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(key) + colon + _json(val, sep, colon, step, inner)
                 for key, val in obj.items()]
        brackets = "{}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        items = _json_floats(obj)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        values = obj.tolist() if isinstance(obj, np.ndarray) else obj
        items = [_json(val, sep, colon, step, inner) for val in values]
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + (sep + inner).join(items) + outer + brackets[1]


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
    return _json(report, ",", ": ", "  ", "\n") + "\n"


def _csv_report(config: RunConfig, comments: list[str], columns: dict) -> str:
    """The ``# config:`` line and further comment lines, a header row of the
    column names, then one row per index: the first column as int, the
    others as ``.9g`` text.
    """
    first, *rest = columns.values()
    cells = [list(map(str, map(int, first)))]
    cells += [_spelled(np.asarray(column, dtype=float)) for column in rest]
    config_line = "# config: " + _json(asdict(config), ",", ":")
    lines = [config_line, *comments, ",".join(columns)]
    return "\n".join([*lines, *map(",".join, zip(*cells))]) + "\n"


def _ingest(config: RunConfig) -> tuple[LabeledAlphabets, EmpiricalPmf]:
    with Path(config.input).open("rb") as stream:
        if config.format == "pairs":
            alphabets, counts = parse_pairs_csv(stream, header=config.header)
            emp = EmpiricalPmf(counts, alphabets.shape)
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
    columns = None
    if config.command == "estimate":
        results = {}
        for measure in ("joint_entropy", "mutual_information"):
            results[measure] = asdict(estimate_report(measure, emp, config.alpha))
            del results[measure]["measure"]
    elif config.command == "test":
        results = {"independence_test": asdict(independence_test(emp, config.alpha))}
    elif config.command == "trace":
        trace = convergence_trace(emp, config.sizes, config.measure, rng)
        results = {"trace": asdict(trace)}
        if csv_out:
            comments = [f"# measure: {trace.measure}, true_value: {trace.true_value:.9g}"]
            columns = {
                "size": trace.sizes,
                "estimate": trace.estimates,
                "abs_error": trace.abs_errors,
                "a_zn": trace.a_zn,
                "ratio": trace.ratio,
            }
    elif config.command == "normality":
        study = normality_study(emp, config.n, config.replicates, config.measure, rng)
        results = {"normality": asdict(study)}
        if csv_out:
            scalars = {k: v for k, v in results["normality"].items() if np.ndim(v) == 0}
            comments = [
                "# summary: " + _json(scalars, ",", ":"),
                "# bin_edges: " + _json(study.bin_edges),
                "# bin_counts: " + _json(study.bin_counts),
            ]
            columns = {
                "index": range(1, study.replicates + 1),
                "t_value": study.t_values,
                "qq_theoretical": study.qq_theoretical,
                "qq_order_statistic": study.qq_sample,
            }
    elif config.command == "power":
        rate = rejection_rate(emp, config.n, config.replicates, config.alpha, rng)
        results = {
            "rejection_rate": {
                "rate": rate,
                "n": config.n,
                "replicates": config.replicates,
                "alpha": config.alpha,
            }
        }
    else:
        raise ValueError(f"unknown command {config.command!r}")
    if columns is None:
        text = _report_json(config, alphabets, results)
    else:
        text = _csv_report(config, comments, columns)
    _emit(config, text)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# Every flag's spec; each command's help and its flags after the four of
# input and output, in the order its help lists them; and what a command
# changes of a flag's spec.  An omitted flag stays out of the namespace and
# takes its RunConfig default, save trace's --output-format, which differs.
_FLAGS = {
    "--input": dict(required=True, help="input CSV path"),
    "--format": dict(
        required=True,
        choices=("pairs", "counts"),
        help="input layout: one observation per row, or one cell count per row",
    ),
    "--header": dict(
        action="store_true",
        help="skip the first input row (header detection is never automatic)",
    ),
    "--output": dict(help="report path, or - for standard output"),
    "--alpha": dict(type=float, help="test level (default 0.05)"),
    "--measure": dict(required=True, choices=("entropy", "mi")),
    "--sizes": dict(required=True, help="sample-size grid start:stop:step (stop inclusive)"),
    "--n": dict(type=int, required=True, help="sample size per replicate"),
    "--replicates": dict(type=int, required=True),
    "--seed": dict(type=int, help="master seed (default 0)"),
    "--output-format": dict(choices=("json", "csv")),
}
_COMMANDS = {
    "estimate": ("entropy and MI with confidence intervals", "--alpha"),
    "test": ("likelihood-ratio independence test", "--alpha"),
    "trace": ("convergence trace over sample sizes", "--measure --sizes --seed --output-format"),
    "normality": (
        "standardized estimates vs N(0,1)",
        "--measure --n --replicates --seed --output-format",
    ),
    "power": ("test rejection rate under the ingested p.m.f.", "--n --replicates --alpha --seed"),
}
_CHANGES = {
    ("estimate", "--alpha"): dict(help="CI level (default 0.05)"),
    ("trace", "--output-format"): dict(default="csv", help="csv rows (default) or a json report"),
    ("normality", "--output-format"): dict(
        help="json report (default) or csv rows of T values and QQ pairs"
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, when ``command`` names one, of that
    one alone, which reads its arguments and spells its usage and errors as
    the full parser does.  On a small table the other four would cost a
    call more than its study."""
    parser = _Parser(
        prog="pairinfo",
        description=(
            "Plug-in joint entropy and mutual information for a pair of "
            "categorical variables, with asymptotic inference, an "
            "independence test, and seeded Monte Carlo studies."
        ),
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # The parser of one command still lists all five in its usage line.  On
    # the full parser a metavar would replace ``command`` in its errors.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, flags = _COMMANDS[name]
        sub = commands.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in ["--input", "--format", "--header", "--output", *flags.split()]:
            sub.add_argument(flag, **{**_FLAGS[flag], **_CHANGES.get((name, flag), {})})
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
    if values["sizes"] is not None:
        values["sizes"] = parse_sizes(values["sizes"])
    return RunConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return run(_config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"pairinfo: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # str(MemoryError()) is empty, so the line names the cause itself.
        print("pairinfo: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
