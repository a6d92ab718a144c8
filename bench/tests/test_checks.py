"""Each output check accepts the program's answer and rejects a wrong one.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

import checks
import workloads
from alphamod import asymptotics, cli, covering, grids, indices

MODS = {"asymptotics": asymptotics, "cli": cli, "covering": covering,
        "grids": grids, "indices": indices}
HALF = F(1, 2)


def sp(rp, rq, s, alpha, n=1):
    return indices.SpaceParams(rp=rp, rq=rq, s=s, alpha=alpha, n=n)


# -- decision checks ---------------------------------------------------------

def test_shared_exponent_rejects_flipped_verdict():
    src, tgt = sp(HALF, 0, F(3, 10), 0), sp(HALF, 0, 0, F(3, 4), n=1)
    embeds = indices.embedding_decide(src, tgt).embeds
    args = (1, HALF, F(0), F(3, 10), F(0), F(0), F(3, 4))
    assert checks.shared_exponent(*args, embeds) is None
    assert checks.shared_exponent(*args, not embeds) is not None


@pytest.mark.parametrize("rq1, rq2, s1", [(HALF, 1, F(3, 5)), (1, HALF, 0)])
def test_classical_rejects_flipped_verdict(rq1, rq2, s1):
    alpha = F(1, 4)
    embeds = indices.embedding_decide(sp(HALF, rq1, s1, alpha), sp(HALF, rq2, 0, alpha)).embeds
    assert checks.classical(1, rq1, rq2, s1, F(0), alpha, embeds) is None
    assert checks.classical(1, rq1, rq2, s1, F(0), alpha, not embeds) is not None


def test_p_order_rejects_embedding_against_the_order():
    assert checks.p_order(F(1, 4), HALF, False) is None
    assert checks.p_order(F(1, 4), HALF, True) is not None


def test_self_embedding_rejects_no():
    assert checks.self_embedding(True) is None
    assert checks.self_embedding(False) is not None


def test_monotone_rejects_loss_of_embedding():
    assert checks.monotone_in_s1(False, True) is None
    assert checks.monotone_in_s1(True, False) is not None


def test_float_copy_rejects_disagreement_off_the_boundary():
    assert checks.float_copy(F(3, 10), True, True) is None
    assert checks.float_copy(F(0), True, False) is None
    assert checks.float_copy(F(3, 10), True, False) is not None


def test_regions_reject_mismatch():
    bd = indices.embedding_index(1, 1, 0, 0, 0, 0, HALF)
    regions = indices.region_classify(1, 0, 0, bd.branch)
    assert checks.regions_match_binding(regions, bd.binding_labels()) is None
    assert checks.regions_match_binding({"uniform"}, bd.binding_labels()) is not None


def test_decide_stream_check_catches_a_flipped_verdict():
    wl = workloads.DecideStream(MODS, seed=3)
    wl.run_round([])
    assert wl.check() == []
    pos = next(k for k, (i, is_float, _) in enumerate(wl.ops)
               if not is_float and wl.queries[i].kind == "shared")
    verdict, binding, regions = wl.first[pos]
    flipped = dataclasses.replace(verdict, embeds=not verdict.embeds)
    wl.first[pos] = (flipped, binding, regions)
    assert wl.check()


# -- norm checks -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_partition():
    return covering.build_partition(covering.CoveringSpec(alpha=0.5, n=1), N=1024, L=4.0)


@pytest.fixture(scope="module")
def band_limited(small_partition):
    part = small_partition
    rng = np.random.default_rng(5)
    return grids.random_band_limited(1, part.N, part.L, 0.8 * part.safe_radius, rng)


def test_l2_sandwich_rejects_scaled_norm(small_partition, band_limited):
    part, f = small_partition, band_limited
    value = grids.space_norm(f, sp(HALF, HALF, 0, HALF), part).value
    l2 = checks.lp_norm(f.values, f.L / f.N, 0.5)
    overlap = checks.max_overlap(part)
    assert checks.l2_sandwich(value, l2, overlap) is None
    assert checks.l2_sandwich(1.5 * value, l2, overlap) is not None
    assert checks.l2_sandwich(value / (1.5 * np.sqrt(overlap)), l2, overlap) is not None


def test_q1_lower_rejects_norm_below_lp(small_partition, band_limited):
    part, f = small_partition, band_limited
    value = grids.space_norm(f, sp(1, 1, 0, HALF), part).value
    l1 = checks.lp_norm(f.values, f.L / f.N, 1)
    assert checks.q1_lower(value, l1) is None
    assert checks.q1_lower(l1 / 1.5, l1) is not None


def test_partition_sum_rejects_scaled_windows(small_partition):
    part = small_partition
    radius = np.abs(np.fft.fftfreq(part.N, d=part.L / part.N))
    assert checks.partition_sum(part, radius) is None
    scaled = dataclasses.replace(part, members=[
        dataclasses.replace(m, values=m.values * 1.5) for m in part.members])
    assert checks.partition_sum(scaled, radius) is not None


def test_norm_batch_check_catches_a_scaled_norm():
    wl = workloads.NormBatch(MODS, seed=4)
    wl.run_round([])
    assert wl.check() == []
    pos = next(k for k, op in enumerate(wl.ops) if op[2].rp == op[2].rq == HALF
               and op[2].s == 0)
    wl.first[pos] *= 1.5
    assert wl.check()


# -- sweep checks ------------------------------------------------------------

def test_growth_slope_rejects_wrong_rate():
    assert checks.growth_slope(0.31, F(1, 4)) is None
    assert checks.growth_slope(0.42, F(1, 4)) is not None


def test_consistency_rejects_wrong_label():
    assert checks.consistency_label("growing", "growing") is None
    assert checks.consistency_label("bounded", "growing") is not None


def test_montecarlo_rejects_thread_dependence():
    assert checks.montecarlo_threads(2.4368, 2.4368) is None
    assert checks.montecarlo_threads(2.4368, 2.4369) is not None


def test_lab_sweep_check_catches_wrong_results():
    wl = workloads.LabSweep(MODS, seed=1)
    wl.montecarlo_at_two_threads = lambda: 2.5
    wl.first = [0.3, 0.45, "growing", 2.5]
    assert wl.check() == []
    for pos, wrong in ((0, 0.45), (1, 0.7), (2, "bounded"), (3, 2.6)):
        bad = list(wl.first)
        bad[pos] = wrong
        wl.first = bad
        assert wl.check(), pos
        wl.first = [0.3, 0.45, "growing", 2.5]
