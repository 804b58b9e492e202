"""Acceptance suite: ten numbered criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the pass/fail
lines; each criterion also asserts, so a red line fails the suite.  The
checks restate the package's headline claims end to end: exact values on
the working 2x2 table, algebraic identities, encoding bijectivity,
convergence, asymptotic normality, variance adjudication, test
calibration, chi-square accuracy, the statistic identity, and bitwise
determinism of the studies.
"""

import json
import math

import numpy as np

from pairinfo import (
    EmpiricalPmf,
    JointPmf,
    PairShape,
    RngSpec,
    ZPmf,
    chi_square_cdf,
    chi_square_quantile,
    decode_index,
    diagonal_index,
    encode_pair,
    entropy,
    estimate_pmf,
    joint_entropy,
    kl_divergence,
    lrt_statistic,
    marginal_x,
    marginal_y,
    mutual_information,
    normality_study,
    rejection_rate,
    sample_z,
    variance_check,
    z_view,
)
from pairinfo.cli import main
from conftest import DEMO_TABLE

H_PRINTED = 1.279854
MI_PRINTED = 0.004021


def check(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def demo_pmf():
    return z_view(JointPmf(DEMO_TABLE))


def test_criterion_01_exact_values():
    z = demo_pmf()
    err_h = abs(joint_entropy(z) - H_PRINTED)
    err_mi = abs(mutual_information(z) - MI_PRINTED)
    check(
        1,
        "exact-value reproduction on the working table",
        err_h <= 5e-6 and err_mi <= 5e-6,
        f"|H err| = {err_h:.2e}, |MI err| = {err_mi:.2e} (tol 5e-6)",
    )


def test_criterion_02_identity_suite():
    rng = np.random.default_rng(20240815)
    worst = 0.0
    ok = True
    for trial in range(1000):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(rows * cols))
        if trial % 3 == 0 and rows * cols > 3:
            probs[rng.integers(0, rows * cols, size=2)] = 0.0
        z = ZPmf(probs, PairShape(rows, cols), renormalize=True)
        mi = mutual_information(z)
        h_x = entropy(marginal_x(z))
        h_y = entropy(marginal_y(z))
        h_xy = joint_entropy(z)
        table = z.probs.reshape(rows, cols)
        product = ZPmf(
            np.outer(table.sum(axis=1), table.sum(axis=0)).ravel(),
            z.shape,
            renormalize=True,
        )
        gaps = (
            abs(mi - (h_x + h_y - h_xy)),
            abs(mi - kl_divergence(z, product)),
        )
        worst = max(worst, *gaps)
        ok &= all(g <= 1e-12 for g in gaps)
        ok &= mi >= -1e-12
        ok &= h_xy <= h_x + h_y + 1e-12

        # independence: flattening an exact product gives MI = 0
        px = rng.dirichlet(np.ones(rows))
        py = rng.dirichlet(np.ones(cols))
        prod_z = z_view(JointPmf(np.outer(px, py), renormalize=True))
        ok &= abs(mutual_information(prod_z)) <= 1e-10
    check(
        2,
        "identity suite on 1000 random p.m.f.s",
        ok,
        f"worst identity gap = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_03_encoding_bijection():
    ok = True
    for rows in range(1, 33):
        for cols in range(1, 33):
            shape = PairShape(rows, cols)
            seen = set()
            for i in range(1, rows + 1):
                base = cols * (i - 1)
                for j in range(1, cols + 1):
                    k = encode_pair(i, j, shape)
                    ok &= k == base + j
                    ok &= decode_index(k, shape) == (i, j)
                    seen.add(k)
            ok &= seen == set(range(1, shape.size + 1))
    for s in range(1, 33):
        shape = PairShape(s, s)
        for i in range(1, s + 1):
            ok &= diagonal_index(i, shape) == encode_pair(i, i, shape)
    check(3, "encoding bijection exhaustive for sides up to 32", ok)


def test_criterion_04_consistency_at_desk_scale():
    z = demo_pmf()
    n = 30000
    h_misses = mi_misses = 0
    for seed in range(10):
        emp = estimate_pmf(sample_z(z, n, RngSpec(seed)), z.shape)
        h_misses += abs(joint_entropy(emp) - H_PRINTED) > 0.01
        mi_misses += abs(mutual_information(emp) - MI_PRINTED) > 0.002
    check(
        4,
        "consistency proxy at n = 30000 over 10 seeds",
        h_misses <= 1 and mi_misses <= 1,
        f"exceedances: entropy {h_misses}/10, MI {mi_misses}/10 (allowed 1)",
    )


def test_criterion_05_clt_normality():
    z = demo_pmf()
    details = []
    ok = True
    for measure in ("entropy", "mi"):
        study = normality_study(z, 20000, 2000, measure, RngSpec(42))
        ok &= abs(study.mean) <= 0.1
        ok &= abs(study.variance - 1) <= 0.15
        ok &= study.ks_distance <= 0.05
        details.append(
            f"{measure}: mean {study.mean:+.3f}, var {study.variance:.3f}, "
            f"KS {study.ks_distance:.3f}"
        )
    check(5, "CLT normality at n = 20000, 2000 replicates", ok, "; ".join(details))


def test_criterion_06_variance_adjudication():
    z = demo_pmf()
    details = []
    ok = True
    for measure in ("entropy", "mi"):
        res = variance_check(z, 20000, 2000, measure, RngSpec(42))
        rel = res.empirical / res.canonical - 1
        ok &= abs(rel) <= 0.10
        details.append(
            f"{measure}: empirical {res.empirical:.6f} vs canonical "
            f"{res.canonical:.6f} ({rel:+.1%}); alternate {res.alternate:.6f} "
            f"reported, no verdict"
        )
    check(6, "empirical variance within 10% of canonical", ok, "; ".join(details))


def test_criterion_07_test_calibration():
    product = ZPmf([0.18, 0.42, 0.12, 0.28], PairShape(2, 2))
    level = rejection_rate(product, 5000, 2000, 0.05, RngSpec(42))
    power = rejection_rate(demo_pmf(), 30000, 500, 0.05, RngSpec(42))
    check(
        7,
        "test level under independence and power under the working table",
        0.035 <= level <= 0.065 and power >= 0.99,
        f"level {level:.4f} in [0.035, 0.065], power {power:.4f} >= 0.99",
    )


def test_criterion_08_chi_square_machinery():
    err_q1 = abs(chi_square_quantile(0.95, 1) - 3.841459)
    ok = err_q1 <= 1e-5
    worst_df2 = max(
        abs(chi_square_cdf(x, 2) - (1 - math.exp(-x / 2)))
        for x in np.linspace(0.01, 30, 100)
    )
    ok &= worst_df2 <= 1e-10
    worst_rt = 0.0
    for df in range(1, 13):
        for p in np.arange(0.01, 1.0, 0.01):
            gap = abs(chi_square_cdf(chi_square_quantile(float(p), df), df) - p)
            worst_rt = max(worst_rt, gap)
    ok &= worst_rt <= 1e-8
    check(
        8,
        "chi-square quantile accuracy and cdf/quantile roundtrip",
        ok,
        f"|q(0.95,1) err| = {err_q1:.1e}, df=2 closed-form gap {worst_df2:.1e}, "
        f"worst roundtrip {worst_rt:.1e}",
    )


def test_criterion_09_statistic_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    ok = True
    for _ in range(1000):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        counts = rng.multinomial(
            int(rng.integers(5, 400)), rng.dirichlet(np.ones(rows * cols))
        )
        emp = EmpiricalPmf(counts, PairShape(rows, cols))
        gamma = lrt_statistic(emp)
        expected = 2 * emp.n * mutual_information(emp)
        rel = abs(gamma - expected) / max(abs(expected), 1e-300)
        worst = max(worst, rel)
        ok &= rel <= 1e-9
    check(
        9,
        "statistic identity gamma^2 = 2 n MI on 1000 random tables",
        ok,
        f"worst relative gap = {worst:.1e} (tol 1e-9)",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    z = demo_pmf()
    seq = normality_study(z, 2000, 300, "mi", RngSpec(7))
    # Replicate i draws only from substream (7, i): a smaller study is a prefix.
    smaller = normality_study(z, 2000, 200, "mi", RngSpec(7))
    ok = bool(np.array_equal(seq.t_values[:200], smaller.t_values))

    counts = tmp_path / "t.csv"
    counts.write_text("x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n", encoding="utf-8")
    args = [
        "normality", "--input", str(counts), "--format", "counts",
        "--measure", "mi", "--n", "2000", "--replicates", "300", "--seed", "7",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    ok &= first == second
    ok &= json.loads(first)["results"]["normality"]["t_values"] == [
        float(format(t, ".9g")) for t in seq.t_values
    ]
    check(
        10,
        "byte-identical reruns, replicates keyed by (seed, index)",
        ok,
        f"{len(first)} report bytes identical; 200-replicate t-values are a "
        "bitwise prefix of the 300-replicate study",
    )
