"""Operator-norm lower bounds, growth-rate fits, and consistency checks."""

import numpy as np
import pytest

from alphamod import asymptotics
from alphamod.asymptotics import (
    box_opnorm_lower,
    box_opnorm_montecarlo,
    dilation_necessity_check,
    embedding_consistency_check,
    exponent_fit,
    growth_rate_check,
    plan_grid,
    coarse_norm_ratio_check,
    seq_multiplier_norm_bruteforce,
)
from alphamod.errors import DomainError, GeometryError, ParameterError
from alphamod.grids import box_apply, from_spectrum, space_norm, witness_bump
from alphamod.indices import SpaceParams, seq_multiplier_norm_closed


def sp(rp, rq, s, alpha, n=1):
    return SpaceParams(rp=rp, rq=rq, s=s, alpha=alpha, n=n)


class TestExponentFit:
    def test_exact_powers(self):
        fit = exponent_fit([(j, 2.0 ** (j / 2.0)) for j in range(3, 10)])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fit = exponent_fit([(j, 3.7) for j in range(5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_bounded_perturbation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eps = rng.uniform(-0.05, 0.05, size=8)
            fit = exponent_fit([(j, 2.0 ** (j / 2.0) * (1 + e))
                                for j, e in enumerate(eps)])
            assert abs(fit.slope - 0.5) <= 0.03

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            exponent_fit([(0, 1.0), (1, 2.0)])
        with pytest.raises(DomainError):
            exponent_fit([(0, 1.0), (1, -2.0), (2, 4.0)])


class TestBoxOpNormLower:
    def test_identity_like_ratios(self):
        same = sp(0.5, 0.5, 0, 0.25)
        grid = plan_grid(same, same, 5)
        for s in box_opnorm_lower(5, same, same, grid):
            assert 0.9 <= s.lower_bound <= 1.1

    def test_p_order_required(self):
        src = sp(0.5, 0.5, 0, 0)
        tgt = sp(1.0, 0.5, 0, 0.5)
        grid = plan_grid(tgt, src, 4)
        with pytest.raises(ParameterError):
            box_opnorm_lower(4, src, tgt, grid)

    def test_spread_witness_decays_when_term_negative(self):
        # spread ratios fall like the third term even when it is not binding
        src = sp(0.5, 1.0, 0, 0.0)
        tgt = sp(0.5, 1.0, 0, 0.5)
        vals = []
        for j in (5, 7, 9):
            from alphamod.asymptotics import anchor_for_octave

            k = anchor_for_octave(j, 0.5)
            grid = plan_grid(src, tgt, k)
            samples = box_opnorm_lower(k, src, tgt, grid)
            spread = [s for s in samples if s.witness == "spread"]
            assert spread
            vals.append((spread[0].eff_logscale, spread[0].lower_bound))
        slope = np.polyfit([v[0] for v in vals], np.log2([v[1] for v in vals]), 1)[0]
        assert abs(slope - (-0.25)) <= 0.15


class TestLabPartitions:
    def test_one_covering_per_alpha_at_one_third(self):
        from fractions import Fraction

        from alphamod.asymptotics import matched_fine_index
        from alphamod.covering import CoveringSpec, covering_for

        covering_for.cache_clear()
        src, tgt = sp(1, 0, 0, 0), sp(0, 0, 0, Fraction(1, 3))
        l_fine = matched_fine_index(4, 0.0, 1 / 3)
        grid = plan_grid(src, tgt, 4, l_fine=l_fine)
        third = covering_for(CoveringSpec(alpha=1 / 3, n=1))
        assert grid[float(tgt.alpha)].covering is third
        assert grid[float(src.alpha)].covering is covering_for(CoveringSpec(alpha=0.0, n=1))
        assert covering_for.cache_info().currsize == 2

    def test_partition_for_is_shared_and_cleared_alone(self):
        # bench/workloads.py starts every cold sweep with _partition_cache.clear()
        import alphamod.asymptotics as asymptotics
        from alphamod.covering import covering_for

        asymptotics._partition_cache.clear()
        part = asymptotics.partition_for(0.25, 2 ** 10, 4.0)
        assert asymptotics.partition_for(0.25, 2 ** 10, 4.0) is part
        assert asymptotics.partition_for(0.25, 2 ** 11, 4.0) is not part
        assert asymptotics.partition_for.cache_info().currsize == 2
        coverings = covering_for.cache_info().currsize
        asymptotics._partition_cache.clear()
        assert asymptotics.partition_for.cache_info().currsize == 0
        assert covering_for.cache_info().currsize == coverings
        assert asymptotics.partition_for(0.25, 2 ** 10, 4.0) is not part

    @pytest.mark.parametrize("alphas", [(0.01, 0.75), (0.75, 0.75), (0.0, 0.5)])
    @pytest.mark.parametrize("k", [300, 2 ** 128, 2 ** 256])
    def test_no_grid_beyond_the_budget(self, alphas, k):
        # windows centred beyond DEFAULT_BUDGET points, float range included
        src, tgt = sp(1, 0, 0, alphas[0]), sp(0, 0, 0, alphas[1])
        assert plan_grid(src, tgt, k) is None


# -- the dense per-window loop that _spread_ratio ran before it measured
# through grids.window_lp_norms, kept as the reference it must match bit
# for bit

def _reference_spread_ratio(k, source, target):
    from alphamod.covering import ball_geometry, neighbor_set
    from alphamod.grids import bump_train, sample_lp, weighted_lq

    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    cov_b, cov_a = asymptotics.lab_covering(b), asymptotics.lab_covering(a)
    if a == b:
        members = [k]
    else:
        members = sorted(neighbor_set("GammaTilde", k, (a, b)))
        if len(members) < 3:
            return None
    frac = asymptotics.lab_witness_fraction(a)
    c_ref, _ = ball_geometry(k, b)
    geo = {l: ball_geometry(l, a) for l in members}
    wmax = max(1.0 / (frac * geo[l][1]) for l in members)
    count = len(members)

    def build(sep):
        pitch = sep * wmax
        L = max(24.0, ((count - 1) * pitch + 8.0 * wmax) / 0.7)
        band = max(abs(geo[l][0] - c_ref) + frac * geo[l][1] for l in members)
        N = asymptotics._next_pow2(2.0 * L * (band * 1.05 + 8.0 / L + 0.5))
        if N > asymptotics.DEFAULT_BUDGET:
            return None
        xi = np.fft.fftfreq(N, d=L / N) + c_ref
        return N, L, xi, bump_train(xi, [geo[l] for l in members], pitch, frac)

    def measure(built):
        N, L, xi, total = built
        coarse = (k - 1, k, k + 1)
        eta_b = dict(zip(coarse, cov_b.normalized_windows(coarse, xi)))
        boxed = total * eta_b[k]

        def norm_p(spec_flat, rp):
            return sample_lp(np.abs(np.fft.ifft(spec_flat) * (N / L)), float(rp), L / N)

        def fine_pieces(spec_flat, rp):
            ls = range(members[0] - 2, members[-1] + 3)
            return [norm_p(spec_flat * eta_l, rp) for eta_l in cov_a.normalized_windows(ls, xi)]

        def coarse_pieces(spec_flat, rp):
            return [norm_p(spec_flat * eta_b[m], rp) for m in coarse]

        if a1 <= a2:
            num = weighted_lq(coarse_pieces(boxed, target.rp), target.rq)
            den = weighted_lq(fine_pieces(total, source.rp), source.rq)
        else:
            num = weighted_lq(fine_pieces(boxed, target.rp), target.rq)
            den = weighted_lq(coarse_pieces(total, source.rp), source.rq)
        return num / den

    built = build(3.0) or build(2.0)
    if built is None:
        return None
    value = measure(built)
    if count > 1:
        doubled = build(6.0)
        if doubled is not None:
            check = measure(doubled)
            if abs(check - value) > 0.02 * max(check, value):
                value = check
    return value


class TestSpreadKernelBitIdentity:
    """The spread witness equals the old dense per-window loop bit for bit."""

    @pytest.mark.parametrize("pair", [
        (sp(1, 0.5, 0, 0), sp(1, 0.5, 0, 0.5)),              # LE branch
        (sp(1, 1, 0, 0.5), sp(0.5, 1, 0, 0)),                # GT branch
        (sp(1, 2, 0, 0.25), sp(0.5, 2, 0, 0.75)),            # q = 1/2
    ])
    @pytest.mark.parametrize("j", [5, 7])
    def test_matches_dense_loop(self, pair, j):
        src, tgt = pair
        b = max(float(src.alpha), float(tgt.alpha))
        k = asymptotics.anchor_for_octave(j, b)
        got = asymptotics._spread_ratio(k, src, tgt)
        assert got is not None
        assert got == _reference_spread_ratio(k, src, tgt)


def _round_trip_ratio(f, member, source, target, part1, part2):
    """The ratio as it was measured before pieces were measured from their
    spectra: the piece goes back to samples (box_apply) and each norm
    transforms its function forward again."""
    m1 = sp(source.rp, source.rq, 0, source.alpha)
    m2 = sp(target.rp, target.rq, 0, target.alpha)
    return (space_norm(box_apply(f, member), m2, part2).value
            / space_norm(f, m1, part1).value)


# relative difference allowed between a ratio measured from spectra and the
# same ratio measured through inverse/forward FFT round trips
ROUND_TRIP_RTOL = 1e-12
# the lab_sweep benchmark's growth pairs (p=1,q=2: alpha 0 -> 1/2; p=1,q=1,
# alpha 1/2 -> p=2,q=1, alpha 0); its Monte Carlo op runs on the first
LAB_PAIRS = [(sp(1, 0.5, 0, 0), sp(1, 0.5, 0, 0.5)),
             (sp(1, 1, 0, 0.5), sp(0.5, 1, 0, 0))]


class TestSpectralRatios:
    @pytest.mark.parametrize("pair", LAB_PAIRS)
    @pytest.mark.parametrize("j", [4, 6])
    def test_witness_ratios_near_round_trip(self, pair, j):
        src, tgt = pair
        a1, a2 = float(src.alpha), float(tgt.alpha)
        a, b = min(a1, a2), max(a1, a2)
        k = asymptotics.anchor_for_octave(j, b)
        grid = plan_grid(src, tgt, k)
        samples = box_opnorm_lower(k, src, tgt, grid)
        witnesses = (witness_bump(asymptotics.matched_fine_index(k, a, b), a, grid[a]),
                     witness_bump(k, b, grid[b]))
        for sample, f in zip(samples, witnesses):
            ref = _round_trip_ratio(f, grid[b].member(k), src, tgt, grid[a1], grid[a2])
            assert sample.lower_bound == pytest.approx(ref, rel=ROUND_TRIP_RTOL, abs=0)

    def test_trial_ratios_near_round_trip(self, monkeypatch):
        src, tgt = sp(1.0, 0.5, 0, 0), sp(0.5, 0.5, 0, 0.5)
        grid = plan_grid(src, tgt, 5)
        measured = []
        norm_ratio = asymptotics._norm_ratio

        def recording(spec, band_limit, member, source, target, part1, part2):
            value = norm_ratio(spec, band_limit, member, source, target, part1, part2)
            measured.append((spec.copy(), band_limit, member, part1, part2, value))
            return value

        monkeypatch.setattr(asymptotics, "_norm_ratio", recording)
        mc = box_opnorm_montecarlo(5, src, tgt, grid, trials=6, seed=9)
        # the first two ratios are the witnesses' of box_opnorm_lower
        trials = measured[2:]
        assert len(trials) == 6
        assert mc.lower_bound == max(value for *_, value in measured)
        for spec, band_limit, member, part1, part2, value in trials:
            f = from_spectrum(spec, 1, part1.N, part1.L, band_limit=band_limit)
            ref = _round_trip_ratio(f, member, src, tgt, part1, part2)
            assert value == pytest.approx(ref, rel=ROUND_TRIP_RTOL, abs=0)


class TestMonteCarlo:
    def test_dominates_witnesses_and_monotone(self):
        src = sp(1.0, 0.5, 0, 0)
        tgt = sp(0.5, 0.5, 0, 0.5)
        grid = plan_grid(src, tgt, 5)
        wit = box_opnorm_lower(5, src, tgt, grid)
        few = box_opnorm_montecarlo(5, src, tgt, grid, trials=4, seed=9)
        more = box_opnorm_montecarlo(5, src, tgt, grid, trials=12, seed=9)
        assert few.lower_bound >= max(s.lower_bound for s in wit) - 1e-9
        assert more.lower_bound >= few.lower_bound - 1e-12

    def test_matched_band(self):
        same = sp(0.5, 0.5, 0, 0.25)
        grid = plan_grid(same, same, 4)
        mc = box_opnorm_montecarlo(4, same, same, grid, trials=8, seed=1)
        assert 0.5 <= mc.lower_bound <= 2.0

    def test_lab_sweep_fixture_equals_witness_maximum(self):
        # on the lab_sweep benchmark's Monte Carlo op no random trial beats
        # the witnesses, whatever the seed
        src, tgt = LAB_PAIRS[0]
        k = asymptotics.anchor_for_octave(6, 0.5)
        grid = plan_grid(src, tgt, k)
        best = max(s.lower_bound for s in box_opnorm_lower(k, src, tgt, grid))
        for seed in (41, 3):
            mc = box_opnorm_montecarlo(k, src, tgt, grid, trials=16, seed=seed)
            assert mc.lower_bound == best

    @pytest.mark.parametrize("kwargs, name", [({"seed": -1}, "seed"),
                                              ({"seed": 1.5}, "seed"),
                                              ({"trials": 2.5}, "trials"),
                                              ({"trials": 0}, "trials")])
    def test_inputs_checked_up_front(self, kwargs, name):
        src, tgt = sp(1.0, 0.5, 0, 0), sp(0.5, 0.5, 0, 0.5)
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            box_opnorm_montecarlo(5, src, tgt, {}, **kwargs)
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            coarse_norm_ratio_check(src, 0.5, **kwargs)


class TestGrowthRateCheck:
    def test_concentrated_term_binds(self):
        rep = growth_rate_check(sp(1, 0, 0, 0), sp(0, 0, 0, 0.5), range(4, 9))
        assert rep["predicted_rate"] == pytest.approx(0.5)
        assert rep["pass"]
        assert abs(rep["witness_slopes"]["concentrated"] - 0.5) <= 0.15

    def test_gt_branch_joint(self):
        rep = growth_rate_check(sp(0.5, 1, 0, 0.5), sp(0.5, 1, 0, 0), range(4, 9))
        assert rep["predicted_rate"] == pytest.approx(0.25)
        assert rep["branch"] == "GT"
        assert rep["pass"]

    def test_equal_alpha_uniform_attains(self):
        rep = growth_rate_check(sp(1, 0.5, 0, 0.5), sp(0.5, 0.5, 0, 0.5), range(4, 9))
        assert rep["predicted_rate"] == pytest.approx(0.25)
        assert rep["pass"]
        assert abs(rep["witness_slopes"]["uniform"] - 0.25) <= 0.15

    def test_gt_uniform_attains(self):
        # first tilde region: the matched-scale witness reaches the max
        rep = growth_rate_check(sp(0.75, 0.25, 0, 0.5), sp(0.25, 0.25, 0, 0.25),
                            range(4, 10))
        assert rep["predicted_rate"] == pytest.approx(0.125)
        assert rep["branch"] == "GT"
        assert rep["pass"]
        assert abs(rep["witness_slopes"]["uniform"] - 0.125) <= 0.15

    def test_no_witness_overshoots(self):
        rep = growth_rate_check(sp(1, 0.5, 0, 0), sp(1, 0.5, 0, 0.5), range(4, 9))
        for w, slope in rep["witness_slopes"].items():
            if slope is not None:
                assert slope <= rep["predicted_rate"] + 0.15

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            growth_rate_check(sp(1, 0.5, 0, 0), sp(1, 1.0, 0, 0.5), range(4, 9))
        with pytest.raises(ParameterError):
            growth_rate_check(sp(1, 0.5, 0, 0), sp(1, 0.5, 0, 0.5), range(4, 6))
        with pytest.raises(ParameterError):
            growth_rate_check(sp(1, 0, 0, 0), sp(0, 0, 0, 1), range(4, 9))

    def test_empty_octave_range(self):
        with pytest.raises(ParameterError, match="empty"):
            growth_rate_check(sp(1, 0, 0, 0), sp(0, 0, 0, 0.5), range(9, 5))

    def test_repeat_after_cache_clear_is_identical(self):
        # shared coverings and memoised plateau fractions carry no state
        # into a second sweep beyond the values a cold sweep computes
        import alphamod.asymptotics as asymptotics

        src, tgt = sp(1, 0, 0, 0), sp(0, 0, 0, 0.5)
        first = growth_rate_check(src, tgt, range(4, 8), seed=3)
        asymptotics._partition_cache.clear()
        second = growth_rate_check(src, tgt, range(4, 8), seed=3)
        assert second == first

    def test_two_dimensions_rejected(self):
        # the sweeps measure one-dimensional windows only
        with pytest.raises(ParameterError, match="n = 1"):
            growth_rate_check(sp(1, 0, 0, 0, n=2), sp(0, 0, 0, 0.5, n=2), range(4, 8))
        with pytest.raises(ParameterError, match="n = 1"):
            embedding_consistency_check(sp(1, 0, 0, 0, n=2), sp(0, 0, 0, 0.25, n=2))

    def test_octave_beyond_float_range_skipped(self):
        src, tgt = sp(1, 0, 0, 0), sp(0, 0, 0, 0.5)
        near = growth_rate_check(src, tgt, [4, 5, 6, 7])
        far = growth_rate_check(src, tgt, [4, 5, 6, 7, 600])
        assert far["samples"] == near["samples"]
        assert far["skipped"] == near["skipped"] + [{"j": 600, "reason": "grid budget"}]


class TestBruteForce:
    def test_single_index_exact(self):
        a = {3: 2.5}
        val = seq_multiplier_norm_bruteforce(a, 1.0, -0.5, 0.5, 1.0, 0.0, trials=10)
        w1 = 10.0 ** (1.0 / 2.0)
        w2 = 10.0 ** (-0.5 / 2.0)
        assert val == pytest.approx(2.5 * w2 / w1, rel=1e-12)

    def test_diagonal_sup(self):
        a = {k: float(abs(k) + 1) for k in range(-5, 6)}
        val = seq_multiplier_norm_bruteforce(a, 0.7, 0.7, 0.5, 0.5, 0.25, trials=50)
        assert val == pytest.approx(6.0, rel=1e-9)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            size = int(rng.integers(2, 30))
            keys = rng.choice(np.arange(-30, 31), size=size, replace=False)
            a = {int(k): float(v) for k, v in zip(keys, rng.lognormal(size=size))}
            s1, s2 = rng.uniform(-1, 1, 2)
            rq1, rq2 = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], 2)
            alpha = float(rng.choice([0.0, 0.25, 0.5]))
            closed = seq_multiplier_norm_closed(a, s1, s2, rq1, rq2, alpha)
            brute = seq_multiplier_norm_bruteforce(a, s1, s2, rq1, rq2, alpha,
                                                   trials=60, seed=trial)
            assert abs(brute - closed) <= 0.05 * closed

    def test_support_cap(self):
        a = {k: 1.0 for k in range(70)}
        with pytest.raises(ParameterError):
            seq_multiplier_norm_bruteforce(a, 0, 0, 1, 1, 0)


class TestConsistency:
    def test_divergent_q_up(self):
        rep = embedding_consistency_check(sp(0.5, 0.5, 0, 0), sp(0.5, 1, 0, 0),
                                          truncation=32)
        assert rep["classification"] == "growing"
        assert rep["consistent"]
        assert abs(rep["growth_slope"] - 0.5) <= 0.15

    def test_convergent_with_smoothness(self):
        rep = embedding_consistency_check(sp(0.5, 0.5, 1, 0), sp(0.5, 1, 0, 0),
                                          truncation=32)
        assert rep["classification"] == "bounded"
        assert rep["consistent"]

    def test_boundary_skip(self):
        rep = embedding_consistency_check(sp(0.5, 0.5, 0.5, 0), sp(0.5, 1, 0, 0),
                                          truncation=16)
        assert rep["boundary_skip"]
        assert rep["consistent"]

    def test_identical_spaces_bounded(self):
        space = sp(0.5, 0.5, 0, 0.25)
        rep = embedding_consistency_check(space, space, truncation=16)
        assert rep["classification"] == "bounded"
        assert rep["boundary_skip"]  # margin is exactly zero
        assert rep["consistent"]

    def test_clear_margin_bounded(self):
        rep = embedding_consistency_check(sp(0.5, 0.5, 0.3, 0.25),
                                          sp(0.5, 0.5, 0, 0.25), truncation=16)
        assert rep["classification"] == "bounded"
        assert not rep["boundary_skip"]
        assert rep["consistent"]


    def test_truncation_below_four_rejected(self):
        for truncation in (3, 0, -1):
            with pytest.raises(ParameterError, match="truncation"):
                embedding_consistency_check(sp(1, 0, 0, 0), sp(0, 0, 0, 0.25),
                                            truncation=truncation)

    def test_budget_short_of_four_windows(self, monkeypatch):
        # a 1024-point budget fits the grids of windows k <= 2 only
        monkeypatch.setattr(asymptotics, "DEFAULT_BUDGET", 1024)
        with pytest.raises(GeometryError, match="k = 2"):
            embedding_consistency_check(sp(1, 0, 0, 0), sp(0, 0, 0, 0.5), truncation=8)


class TestProp31:
    def test_equal_alpha_band(self):
        rep = coarse_norm_ratio_check(sp(0.5, 0.5, 0, 0.5), 0.5, trials=8, seed=2)
        assert rep["band"] <= 4.0

    def test_cross_alpha_band(self):
        rep = coarse_norm_ratio_check(sp(0.5, 0.5, 0, 0.0), 0.5, trials=10, seed=3)
        assert rep["band"] <= 16.0

    def test_alpha_order(self):
        with pytest.raises(ParameterError):
            coarse_norm_ratio_check(sp(0.5, 0.5, 0, 0.5), 0.25, trials=2)


class TestDilation:
    def test_equal_exponents_flat(self):
        rep = dilation_necessity_check(0.5, 0.5, 1)
        assert abs(rep["slope"]) <= 1e-9

    def test_one_dim(self):
        rep = dilation_necessity_check(0.0, 0.5, 1)
        assert rep["slope"] == pytest.approx(-0.5, abs=0.05)

    def test_two_dim(self):
        rep = dilation_necessity_check(0.5, 1.0, 2)
        assert rep["slope"] == pytest.approx(-1.0, abs=0.1)
