"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
timing lines.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from alphamod.asymptotics import (
    dilation_necessity_check,
    embedding_consistency_check,
    growth_rate_check,
    seq_multiplier_norm_bruteforce,
)
from alphamod.covering import CoveringSpec, build_partition, verify_partition
from alphamod.grids import random_band_limited, spectrum
from alphamod.indices import (
    SpaceParams,
    embedding_decide,
    embedding_index,
    seq_multiplier_norm_closed,
    shared_exponent_decide,
)

HALF = F(1, 2)


def _stamp(num: int, label: str, t0: float, limit: float):
    elapsed = time.time() - t0
    print(f"\n[PASS] criterion {num}: {label} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def sp(rp, rq, s, alpha, n=1):
    return SpaceParams(rp=rp, rq=rq, s=s, alpha=alpha, n=n)


def test_criterion_1_oracle_agreement():
    t0 = time.time()
    grid = [F(0), F(1, 4), HALF, F(1), F(2)]
    alphas = [F(0), F(1, 4), HALF, F(3, 4), F(1)]
    svals = [F(k, 20) for k in range(-60, 61)]
    cases = disagreements = 0
    for rp in grid:
        for rq in grid:
            for a1 in alphas:
                for a2 in alphas:
                    for s1 in svals:
                        src = sp(rp, rq, s1, a1)
                        tgt = sp(rp, rq, F(0), a2)
                        cases += 1
                        if (embedding_decide(src, tgt).embeds
                                != shared_exponent_decide(src, tgt).embeds):
                            disagreements += 1
    assert cases == 75625
    assert disagreements == 0
    _stamp(1, f"oracle agreement on {cases} exhaustive grid points", t0, 10.0)


def test_criterion_2_branch_collapse():
    t0 = time.time()
    rng = random.Random(202)
    recip_pool = [F(i, 8) for i in range(17)]
    alpha_pool = [F(i, 8) for i in range(9)]
    for _ in range(100000):
        n = rng.randrange(1, 4)
        rp1 = recip_pool[rng.randrange(17)]
        rp2 = recip_pool[rng.randrange(17)]
        rq1 = recip_pool[rng.randrange(17)]
        rq2 = recip_pool[rng.randrange(17)]
        alpha = alpha_pool[rng.randrange(9)]
        bd = embedding_index(n, rp1, rp2, rq1, rq2, alpha, alpha)
        assert bd.value == n * alpha * (rp1 - rp2)
    _stamp(2, "equal-alpha collapse exact on 100000 rational tuples", t0, 5.0)


def test_criterion_3_partition_suite():
    t0 = time.time()
    rng = np.random.default_rng(303)
    N, L = 2 ** 14, 8.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        part = build_partition(CoveringSpec(alpha=alpha, n=1), N=N, L=L)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-8, (alpha, report.sum_deviation)
        for _ in range(20):
            f = random_band_limited(1, N, L, 0.8 * part.safe_radius, rng)
            spec = spectrum(f)
            # sum of the localized pieces, assembled spectrally (linearity
            # of the inverse transform)
            acc = np.zeros_like(spec)
            for m in part.members:
                acc[m.idx] += spec[m.idx] * m.values
            recon = np.fft.ifft(acc) * (N / L)
            err = np.max(np.abs(recon - f.values.reshape(-1)))
            assert err <= 1e-10 * np.max(np.abs(f.values)), (alpha, err)
    _stamp(3, "partition of unity and reconstruction, alpha in {0,1/4,1/2,3/4,1}",
           t0, 30.0)


# each fixture: label, source, target, expected rate, binding terms (by the
# witness family that attains them); hand-derived from the affine formulas
RATE_FIXTURES = [
    ("LE term1 binds", sp(1, 1, 0, F(1, 4)), sp(HALF, 1, 0, HALF), F(1, 8),
     {"uniform"}),
    ("LE term2 binds", sp(1, 0, 0, 0), sp(0, 0, 0, HALF), HALF, {"concentrated"}),
    ("LE term3 binds", sp(1, HALF, 0, 0), sp(1, HALF, 0, HALF), F(1, 4), {"spread"}),
    ("GT term2 binds", sp(1, 1, 0, HALF), sp(HALF, 1, 0, 0), HALF, {"concentrated"}),
    ("GT term3 binds", sp(F(1, 4), 1, 0, HALF), sp(F(1, 4), 1, 0, 0), F(3, 8),
     {"spread"}),
    ("GT term2/3 tie", sp(HALF, 1, 0, HALF), sp(HALF, 1, 0, 0), F(1, 4),
     {"concentrated", "spread"}),
    ("equal-alpha collapse", sp(1, HALF, 0, HALF), sp(HALF, HALF, 0, HALF), F(1, 4),
     {"uniform", "concentrated", "spread"}),
]


def test_criterion_4_growth_rates():
    t0 = time.time()
    bound_terms = set()
    for label, src, tgt, expected_rate, binding in RATE_FIXTURES:
        bd = embedding_index(src.n, src.rp, tgt.rp, src.rq, tgt.rq, src.alpha, tgt.alpha)
        assert bd.value == expected_rate, (label, bd)
        assert set(bd.binding_labels()) == binding, (label, bd.binding_labels())
        report = growth_rate_check(src, tgt, range(4, 10))
        assert report["pass"], (label, report["witness_slopes"], report["predicted_rate"])
        assert abs(report["max_slope"] - float(expected_rate)) <= 0.15, label
        bound_terms |= {(bd.branch, term) for term in binding}
    required = {("LE", "uniform"), ("LE", "concentrated"), ("LE", "spread"),
                ("GT", "concentrated"), ("GT", "spread")}
    assert required <= bound_terms
    _stamp(4, f"growth rates reproduced on {len(RATE_FIXTURES)} settings",
           t0, 300.0)


def test_criterion_5_multiplier_norms():
    t0 = time.time()
    rng = np.random.default_rng(505)
    q_choices = [0.0, 0.25, 0.5, 1.0, 2.0]
    checked_down = checked_up = 0
    for trial in range(100):
        size = int(rng.integers(1, 65))
        keys = rng.choice(np.arange(-64, 65), size=size, replace=False)
        a = {int(k): float(v) for k, v in zip(keys, rng.lognormal(sigma=1.0, size=size))}
        s1, s2 = rng.uniform(-1.5, 1.5, 2)
        if trial % 2 == 0:
            rq2 = float(rng.choice(q_choices))
            rq1 = float(rng.uniform(rq2, 2.5))
            checked_down += 1
        else:
            rq1 = float(rng.choice(q_choices))
            rq2 = float(rng.uniform(rq1 + 0.1, 2.6))
            checked_up += 1
        alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        closed = seq_multiplier_norm_closed(a, s1, s2, rq1, rq2, alpha)
        brute = seq_multiplier_norm_bruteforce(a, s1, s2, rq1, rq2, alpha,
                                               trials=40, seed=trial)
        assert abs(brute - closed) <= 0.05 * closed, (trial, closed, brute)
    assert checked_down == checked_up == 50
    _stamp(5, "closed-form multiplier norms vs optimization on 100 sequences",
           t0, 10.0)


CONSISTENCY_FIXTURES = [
    (sp(HALF, HALF, 0, 0), sp(HALF, 1, 0, 0), "growing"),
    (sp(HALF, HALF, 1, 0), sp(HALF, 1, 0, 0), "bounded"),
    (sp(HALF, HALF, F(3, 10), 0), sp(HALF, HALF, 0, F(1, 4)), "bounded"),
    (sp(HALF, HALF, 0, 0), sp(HALF, HALF, F(3, 10), F(1, 4)), "growing"),
    (sp(1, 0, F(3, 5), 0), sp(0, 0, 0, F(1, 4)), "bounded"),
    (sp(1, 0, 0, 0), sp(0, 0, 0, F(1, 4)), "growing"),
    (sp(HALF, 1, F(2, 5), F(1, 4)), sp(HALF, 0, 0, 0), "bounded"),
    (sp(HALF, 1, F(-2, 5), F(1, 4)), sp(HALF, 0, 0, 0), "growing"),
    (sp(1, HALF, 1, 0), sp(1, 1, 0, F(1, 4)), "bounded"),
    (sp(1, HALF, 0, 0), sp(1, 1, 0, F(1, 4)), "growing"),
]


def test_criterion_6_consistency_direction():
    t0 = time.time()
    boundary = sp(HALF, HALF, HALF, 0), sp(HALF, 1, 0, 0)
    rep = embedding_consistency_check(*boundary, truncation=16)
    assert rep["boundary_skip"]
    for src, tgt, expected in CONSISTENCY_FIXTURES:
        verdict = embedding_decide(src, tgt)
        assert abs(float(verdict.margin)) > 0.2, (src, tgt)
        rep = embedding_consistency_check(src, tgt, truncation=32)
        assert rep["consistent"], (src, tgt, rep)
        assert rep["classification"] == expected, (src, tgt, rep)
    _stamp(6, "multiplier-norm growth matches the verdict on 10 settings "
              "(plus one boundary skip)", t0, 180.0)


def test_criterion_7_dilation_necessity():
    t0 = time.time()
    combos = [(0.0, 0.5, 1), (0.0, 1.0, 1), (0.5, 1.0, 1),
              (1.0, 2.0, 1), (0.0, 0.5, 2), (0.5, 1.0, 2)]
    for rp1, rp2, n in combos:
        rep = dilation_necessity_check(rp1, rp2, n)
        assert abs(rep["slope"] - rep["expected_slope"]) <= 0.1, (rp1, rp2, n, rep)
        assert rep["expected_slope"] == n * (rp1 - rp2)
    _stamp(7, "dilation slopes match the exponent gap on 6 combinations", t0, 30.0)


def test_criterion_8_bernstein_scaling():
    t0 = time.time()
    from alphamod.covering import bump_profile
    from alphamod.grids import from_spectrum, lp_quasinorm

    N, L = 2 ** 12, 64.0
    xi = np.fft.fftfreq(N, d=L / N)
    radii = [0.5, 1.0, 2.0, 4.0, 8.0]
    for rp1, rp2 in [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0), (0.5, 0.0)]:
        logs = []
        for R in radii:
            spec = bump_profile(np.abs(xi) / R, 0.4, 1.0).astype(complex)
            f = from_spectrum(spec, 1, N, L, band_limit=R)
            logs.append(math.log2(lp_quasinorm(f, rp2) / lp_quasinorm(f, rp1)))
        slope = float(np.polyfit(np.log2(radii), logs, 1)[0])
        assert abs(slope - (rp1 - rp2)) <= 0.1, (rp1, rp2, slope)
    _stamp(8, "band-limit norm scaling slope on 4 exponent pairs over 4 octaves",
           t0, 30.0)


def test_criterion_9_determinism():
    t0 = time.time()
    from alphamod.cli import build_parser, config_from_args, render, run

    argv = ["verify-asymptotics", "--source", "p=1,q=inf,s=0,alpha=0",
            "--target", "p=inf,q=inf,s=0,alpha=0.5", "--j-range", "4:8",
            "--seed", "42"]
    outputs = []
    for _ in range(2):
        args = build_parser().parse_args(argv)
        report = run(config_from_args(args))
        outputs.append(render(report, "json").encode())
    assert outputs[0] == outputs[1]
    _stamp(9, "byte-identical verify-asymptotics reports for a fixed seed", t0, 120.0)
