"""Checks of the CLI's reports against reference values.

Each check returns a list of problems; an empty list means the report
passed.  Monte Carlo reports are checked only for properties that survive
a change of random stream (lengths, ranges, internal consistency and, where
``sanity`` is set, loose bounds on mean, variance and KS distance), so a
change that reseeds the studies on purpose still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-7  # reports carry nine significant digits
P_TOL = 1e-8  # chi-square c.d.f. target is 1e-10


def _close(got, want, rel=REL_TOL, abs_tol=1e-12) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def _compare(problems: list, where: str, got: dict, want: dict, keys, **tol) -> None:
    for key in keys:
        if not _close(got.get(key), want[key], **tol):
            problems.append(f"{where}.{key} = {got.get(key)!r}, reference {want[key]!r}")


def _alphabets(problems: list, report: dict, ref: dict) -> None:
    alphabets = report.get("alphabets", {})
    if alphabets.get("x") != ref["x_labels"] or alphabets.get("y") != ref["y_labels"]:
        problems.append("alphabet order differs from first appearance in the input")


def check_estimate(report: dict, ref: dict, params: dict) -> list:
    problems: list = []
    _alphabets(problems, report, ref)
    results = report.get("results", {})
    for measure in ("joint_entropy", "mutual_information"):
        got = results.get(measure, {})
        if got.get("n") != ref["n"]:
            problems.append(f"{measure}.n = {got.get('n')!r}, reference {ref['n']}")
        _compare(problems, measure, got, ref[measure],
                 ("estimate", "std_error", "ci_lower", "ci_upper"), abs_tol=1e-9)
    return problems


def check_test(report: dict, ref: dict, params: dict) -> list:
    problems: list = []
    _alphabets(problems, report, ref)
    got = report.get("results", {}).get("independence_test", {})
    want = ref["independence_test"]
    _compare(problems, "independence_test", got, want, ("gamma_sq", "threshold"))
    _compare(problems, "independence_test", got, want, ("p_value",), rel=0.0, abs_tol=P_TOL)
    for key in ("df", "reject"):
        if got.get(key) != want[key]:
            problems.append(f"independence_test.{key} = {got.get(key)!r}, reference {want[key]!r}")
    return problems


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ks(sorted_t: list) -> float:
    r = len(sorted_t)
    return max(max(abs((i + 1) / r - _normal_cdf(t)), abs(i / r - _normal_cdf(t)))
               for i, t in enumerate(sorted_t))


def check_normality(report: dict, ref: dict, params: dict) -> list:
    problems: list = []
    _alphabets(problems, report, ref)
    got = report.get("results", {}).get("normality", {})
    r, measure = params["replicates"], params["measure"]
    t = got.get("t_values", [])
    lengths = {"t_values": r, "qq_theoretical": r, "qq_sample": r,
               "bin_edges": 41, "bin_counts": 40}
    for key, want in lengths.items():
        if len(got.get(key, [])) != want:
            problems.append(f"normality.{key} has {len(got.get(key, []))} entries, expected {want}")
    if problems:
        return problems
    if not all(math.isfinite(v) for v in t):
        return problems + ["normality.t_values has non-finite entries"]
    if sum(got["bin_counts"]) != r or min(got["bin_counts"]) < 0:
        problems.append("normality.bin_counts do not partition the replicates")
    edges = got["bin_edges"]
    if not all(_close(e, -4.0 + 0.2 * i, abs_tol=1e-9) for i, e in enumerate(edges)):
        problems.append("normality.bin_edges are not 41 even steps over [-4, 4]")
    if got["qq_sample"] != sorted(t):
        problems.append("normality.qq_sample is not the sorted t_values")
    qq = got["qq_theoretical"]
    if any(b <= a for a, b in zip(qq, qq[1:])) or not _close(qq[0], -qq[-1], abs_tol=1e-7):
        problems.append("normality.qq_theoretical is not increasing and symmetric")
    mean = sum(t) / r
    var = sum((v - mean) ** 2 for v in t) / (r - 1)
    ks = _ks(sorted(t))
    for key, want in (("mean", mean), ("variance", var), ("ks_distance", ks)):
        if not _close(got.get(key), want, rel=1e-6, abs_tol=1e-6):
            problems.append(f"normality.{key} = {got.get(key)!r} but the t_values give {want!r}")
    want_truth = {"true_value": ref[measure], "sigma": ref[f"{measure}_sigma"]}
    _compare(problems, "normality", got, want_truth, ("true_value", "sigma"))
    if params.get("sanity"):
        # Loose bounds, about six standard errors wide at R replicates, so a
        # correct study fails them with negligible probability on any stream.
        root_r = math.sqrt(r)
        if abs(mean) > 6.0 / root_r:
            problems.append(f"normality.mean = {mean:.4g} is far from 0")
        if abs(var - 1.0) > 6.0 * math.sqrt(2.0 / r):
            problems.append(f"normality.variance = {var:.4g} is far from 1")
        if ks > 3.0 / root_r:
            problems.append(f"normality.ks_distance = {ks:.4g} rejects normality")
    return problems


def check_power(report: dict, ref: dict, params: dict) -> list:
    problems: list = []
    _alphabets(problems, report, ref)
    got = report.get("results", {}).get("rejection_rate", {})
    rate, r = got.get("rate"), params["replicates"]
    if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
        return problems + [f"rejection_rate.rate = {rate!r} outside [0, 1]"]
    if abs(rate * r - round(rate * r)) > 1e-6 * r:
        problems.append(f"rejection_rate.rate = {rate!r} is not a multiple of 1/{r}")
    if got.get("n") != params["n"] or got.get("replicates") != r:
        problems.append("rejection_rate does not echo n and replicates")
    return problems


def _grid(spec: str) -> list:
    start, stop, step = (int(part) for part in spec.split(":"))
    return list(range(start, stop + 1, step))


def check_trace(text: str, ref: dict, params: dict) -> list:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# config: "):
        return ["trace output lacks its comment header"]
    problems: list = []
    measure, truth_text = lines[1].removeprefix("# measure: ").split(", true_value: ")
    truth = float(truth_text)
    if measure != params["measure"] or not _close(truth, ref[params["measure"]]):
        problems.append(f"trace header {lines[1]!r} disagrees with reference "
                        f"{params['measure']} = {ref[params['measure']]!r}")
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    if rows[0] != ["size", "estimate", "abs_error", "a_zn", "ratio"]:
        return problems + [f"trace columns are {rows[0]!r}"]
    sizes = _grid(params["sizes"])
    if [int(row[0]) for row in rows[1:]] != sizes:
        return problems + ["trace sizes differ from the requested grid"]
    for row in rows[1:]:
        est, err, a_zn, ratio = (float(v) for v in row[1:])
        if not (est >= -1e-9 and math.isfinite(est)):
            problems.append(f"trace estimate {est!r} at size {row[0]} is invalid")
        elif not _close(err, abs(est - truth), rel=1e-6, abs_tol=1e-8):
            problems.append(f"trace abs_error {err!r} at size {row[0]} != |estimate - truth|")
        elif not 0.0 <= a_zn <= 1.0:
            problems.append(f"trace a_zn {a_zn!r} at size {row[0]} outside [0, 1]")
        elif a_zn > 0 and not _close(ratio, err / a_zn, rel=1e-6, abs_tol=1e-8):
            problems.append(f"trace ratio {ratio!r} at size {row[0]} != abs_error / a_zn")
        if len(problems) >= 5:
            break
    return problems


_JSON_CHECKS = {
    "estimate": check_estimate,
    "test": check_test,
    "normality": check_normality,
    "power": check_power,
}


def check_report(kind: str, text: str, ref: dict, params: dict) -> list:
    """Problems found in one report; ``kind`` is the CLI subcommand."""
    try:
        if kind == "trace":
            return check_trace(text, ref, params)
        return _JSON_CHECKS[kind](json.loads(text), ref, params)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{kind} report is malformed: {exc!r}"]
