"""Seeded inputs, CLI invocations and reference values for each workload.

Everything here depends on the workload seed alone.  The reference values
are computed independently of pairinfo, with numpy and scipy, straight from
the generated counts; the checks compare the CLI's reports against them.

Usage: ``python3 perfbench/inputs.py WORKLOAD SEED WORK_DIR [--tiny]``
writes the input files and ``plan.json`` into WORK_DIR.  It runs in a
process of its own so that numpy and scipy never enter the process that
starts the timed worker, whose peak RSS would otherwise include them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import chi2, norm

WORKLOADS = ("ingest", "mc_small", "mc_wide")

# The 2x2 counts table of the README's command-line examples, byte for byte.
T3_CSV = "x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n"

ALPHA = 0.05

# Sizes per workload; "tiny" is the smoke size of the benchmark's own tests.
SIZES = {
    "full": {
        "ingest": {"rows": 1_000_000, "x": 50, "y": 54},
        "mc_small": {
            "normality": (20_000, 2000),
            "power": (30_000, 500),
            "sizes": "10000:1000000:10000",
        },
        "mc_wide": {"side": 100, "table_n": 1_000_000,
                    "normality": (20_000, 200), "power": (20_000, 200)},
    },
    "tiny": {
        "ingest": {"rows": 2000, "x": 5, "y": 6},
        "mc_small": {
            "normality": (1000, 100),
            "power": (1000, 20),
            "sizes": "100:1000:100",
        },
        "mc_wide": {"side": 10, "table_n": 10_000,
                    "normality": (1000, 100), "power": (1000, 20)},
    },
}


@dataclass
class Op:
    """One CLI invocation of a round; ``kind`` selects its check."""

    name: str
    kind: str
    argv: list
    params: dict


@dataclass
class Plan:
    ops: list
    reference: dict
    inputs: dict  # file name -> rows, cells, bytes


def _first_appearance(ids: np.ndarray) -> np.ndarray:
    """Distinct ids in the order they first occur."""
    uniq, first = np.unique(ids, return_index=True)
    return uniq[np.argsort(first)]


def _describe(path: Path, rows: int, cells: int) -> dict:
    return {"rows": rows, "cells": cells, "bytes": path.stat().st_size}


def _estimate_ref(values: np.ndarray, weights: np.ndarray, n: int, estimate: float) -> dict:
    """Delta-method standard error and normal interval at the plug-in p.m.f."""
    mean = float((values * weights).sum())
    var = float((values * weights * weights).sum()) - mean**2
    se = np.sqrt(var / n)
    half = norm.ppf(1.0 - ALPHA / 2.0) * se
    return {"estimate": estimate, "std_error": float(se),
            "ci_lower": float(estimate - half), "ci_upper": float(estimate + half)}


def table_reference(counts: np.ndarray) -> dict:
    """Entropy, MI, their delta-method sigmas and the LRT, from a count table."""
    n = int(counts.sum())
    p = counts / n
    px, py = p.sum(axis=1), p.sum(axis=0)
    nz = p > 0
    pv = p[nz]
    h_w = 1.0 + np.log(pv)
    mi_w = np.log(pv / np.outer(px, py)[nz])
    entropy = float(-(pv * np.log(pv)).sum())
    mi = float((pv * mi_w).sum())
    df = (p.shape[0] - 1) * (p.shape[1] - 1)
    gamma_sq = 2.0 * n * mi
    threshold = float(chi2.ppf(1.0 - ALPHA, df))
    return {
        "n": n,
        "entropy": entropy,
        "mi": mi,
        "entropy_sigma": float(np.sqrt((pv * h_w**2).sum() - (pv * h_w).sum() ** 2)),
        "mi_sigma": float(np.sqrt(max((pv * mi_w**2).sum() - mi**2, 0.0))),
        "joint_entropy": _estimate_ref(pv, h_w, n, entropy),
        "mutual_information": _estimate_ref(pv, mi_w, n, max(0.0, mi)),
        "independence_test": {
            "gamma_sq": gamma_sq,
            "df": df,
            "threshold": threshold,
            "p_value": float(chi2.sf(max(gamma_sq, 0.0), df)),
            "reject": bool(gamma_sq > threshold),
        },
    }


def _ingest(rng, size, work: Path, seed: int):
    """Pairs CSV drawn from independent Dirichlet marginals.

    Under independence 2n*MI is chi-square, so the reported p-value lies
    well inside (0, 1) and the scipy comparison tests the c.d.f. for real.
    Label names are numbered by id, and ids first occur in random order.
    """
    n, rows, cols = size["rows"], size["x"], size["y"]
    x = rng.choice(rows, n, p=rng.dirichlet(np.ones(rows)))
    y = rng.choice(cols, n, p=rng.dirichlet(np.ones(cols)))
    x_names = np.array([f"x{i:02d}" for i in range(rows)], dtype=object)
    y_names = np.array([f"y{j:02d}" for j in range(cols)], dtype=object)
    cell_lines = (x_names[:, None] + "," + y_names[None, :] + "\n").ravel()
    path = work / "pairs.csv"
    path.write_text("".join(cell_lines[x * cols + y].tolist()), encoding="utf-8")

    x_order, y_order = _first_appearance(x), _first_appearance(y)
    x_rank = np.empty(rows, dtype=np.int64)
    x_rank[x_order] = np.arange(x_order.size)
    y_rank = np.empty(cols, dtype=np.int64)
    y_rank[y_order] = np.arange(y_order.size)
    counts = np.zeros((x_order.size, y_order.size), dtype=np.int64)
    np.add.at(counts, (x_rank[x], y_rank[y]), 1)
    ref = table_reference(counts)
    ref["x_labels"] = x_names[x_order].tolist()
    ref["y_labels"] = y_names[y_order].tolist()
    io = ["--input", str(path), "--format", "pairs"]
    ops = [
        Op("estimate", "estimate", ["estimate", *io], {}),
        Op("test", "test", ["test", *io, "--alpha", str(ALPHA)], {}),
    ]
    return ops, ref, {path.name: _describe(path, n, counts.size)}


def _mc_small(rng, size, work: Path, seed: int):
    path = work / "t3.csv"
    path.write_text(T3_CSV, encoding="utf-8")
    ref = table_reference(np.array([[2, 4], [1, 3]]))
    ref["x_labels"], ref["y_labels"] = ["x1", "x2"], ["y1", "y2"]
    io = ["--input", str(path), "--format", "counts"]
    (norm_n, norm_r), (pow_n, pow_r) = size["normality"], size["power"]
    ops = [
        Op("normality", "normality",
           ["normality", *io, "--measure", "entropy", "--n", str(norm_n),
            "--replicates", str(norm_r), "--seed", str(seed)],
           {"measure": "entropy", "n": norm_n, "replicates": norm_r, "sanity": True}),
        Op("power", "power",
           ["power", *io, "--n", str(pow_n), "--replicates", str(pow_r),
            "--seed", str(seed)],
           {"n": pow_n, "replicates": pow_r}),
        Op("trace", "trace",
           ["trace", *io, "--measure", "mi", "--sizes", size["sizes"],
            "--seed", str(seed)],
           {"measure": "mi", "sizes": size["sizes"]}),
    ]
    return ops, ref, {path.name: _describe(path, 4, 4)}


def _mc_wide(rng, size, work: Path, seed: int):
    """Counts layout of a side x side table drawn from a flat Dirichlet.

    Every cell gets a row, zero counts included; labels are listed in a
    shuffled order so first appearance is not sorted.
    """
    side = size["side"]
    counts = rng.multinomial(size["table_n"], rng.dirichlet(np.ones(side * side)))
    counts = counts.reshape(side, side)
    x_perm, y_perm = rng.permutation(side), rng.permutation(side)
    x_labels = [f"r{i:03d}" for i in x_perm]
    y_labels = [f"c{j:03d}" for j in y_perm]
    lines = [f"{x},{y},{c}\n" for x, row in zip(x_labels, counts)
             for y, c in zip(y_labels, row.tolist())]
    path = work / "wide.csv"
    path.write_text("".join(lines), encoding="utf-8")
    ref = table_reference(counts)
    ref["x_labels"], ref["y_labels"] = x_labels, y_labels
    io = ["--input", str(path), "--format", "counts"]
    (norm_n, norm_r), (pow_n, pow_r) = size["normality"], size["power"]
    ops = [
        Op("normality", "normality",
           ["normality", *io, "--measure", "mi", "--n", str(norm_n),
            "--replicates", str(norm_r), "--seed", str(seed)],
           {"measure": "mi", "n": norm_n, "replicates": norm_r, "sanity": False}),
        Op("power", "power",
           ["power", *io, "--n", str(pow_n), "--replicates", str(pow_r),
            "--seed", str(seed)],
           {"n": pow_n, "replicates": pow_r}),
    ]
    return ops, ref, {path.name: _describe(path, counts.size, counts.size)}


_BUILDERS = {"ingest": _ingest, "mc_small": _mc_small, "mc_wide": _mc_wide}


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> Plan:
    """Write the workload's input files into ``work`` and plan its round."""
    size = SIZES["tiny" if tiny else "full"][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops, ref, described = _BUILDERS[workload](rng, size, work, seed)
    return Plan(ops=ops, reference=ref, inputs=described)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write a workload's inputs and plan.json")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("work", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    plan = build(args.workload, args.seed, args.work, tiny=args.tiny)
    document = dataclasses.asdict(plan)
    document["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    (args.work / "plan.json").write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
