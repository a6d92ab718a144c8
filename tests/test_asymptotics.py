"""Operator-norm lower bounds, growth-rate fits, and consistency checks."""

import math

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
from alphamod import covering
from alphamod.covering import CoveringSpec, build_partition, freq_axis, neighbor_set
from alphamod.errors import DomainError, GeometryError, ParameterError, TruncationError
from alphamod.grids import (WITNESS_SAFETY, bump_train, localize, spectrum, spectrum_norm,
                            witness_band, witness_bump, witness_fraction)
from alphamod.indices import SpaceParams, seq_multiplier_norm_closed
from test_covering import one_window_reference


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

    def test_one_dimension_required(self):
        # the lab windows are one-dimensional: 2-D spaces get no 1-D measurement
        src, tgt = sp(1, 0, 0, 0, n=2), sp(0, 0, 0, 0.5, n=2)
        grid = plan_grid(src, tgt, 6)
        for call in (box_opnorm_lower, box_opnorm_montecarlo):
            with pytest.raises(ParameterError, match="^lower-bound sweeps measure one-dim"):
                call(6, src, tgt, grid)

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
        box_opnorm_lower(4, src, tgt, grid)
        third = covering_for(CoveringSpec(alpha=1 / 3, n=1))
        assert asymptotics.lab_covering(float(tgt.alpha)) is third
        assert asymptotics.lab_covering(float(src.alpha)) is covering_for(
            CoveringSpec(alpha=0.0, n=1))
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
# for bit; its windows come from the dense one-window-at-a-time oracle

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
    frac = witness_fraction(asymptotics.lab_covering(a))
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
        eta_b = {m: one_window_reference(cov_b, m, xi) for m in coarse}
        boxed = total * eta_b[k]

        def norm_p(spec_flat, rp):
            return sample_lp(np.abs(np.fft.ifft(spec_flat) * (N / L)), float(rp), L / N)

        def fine_pieces(spec_flat, rp):
            ls = range(members[0] - 2, members[-1] + 3)
            return [norm_p(spec_flat * one_window_reference(cov_a, l, xi), rp) for l in ls]

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


# relative difference allowed between a ratio with a p = 2 side, whose
# pieces the kernel measures by Plancherel, and the dense loop's
PLANCHEREL_RTOL = 1e-14


class TestSpreadKernelBitIdentity:
    """The spread witness equals the old dense per-window loop bit for bit,
    or within PLANCHEREL_RTOL when a side has p = 2."""

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
        want = _reference_spread_ratio(k, src, tgt)
        if 0.5 in (float(src.rp), float(tgt.rp)):
            assert got == pytest.approx(want, rel=PLANCHEREL_RTOL, abs=0)
        else:
            assert got == want


def _partition_ratio(spec, band_limit, member, source, target, part1, part2):
    """The ratio as it was measured on full lab partitions: the piece of
    window member, measured on part2 in the target space, over spec measured
    on part1 in the source space."""
    m1 = sp(source.rp, source.rq, 0, source.alpha)
    m2 = sp(target.rp, target.rq, 0, target.alpha)
    return (spectrum_norm(*localize(spec, member, band_limit), m2, part2).value
            / spectrum_norm(spec, band_limit, m1, part1).value)


def _lab_partitions(grid, *alphas):
    N, L = grid
    return {x: build_partition(CoveringSpec(alpha=float(x), n=1), N=N, L=L) for x in alphas}


# relative difference allowed between a ratio measured on band rows and the
# same ratio measured on full lab partitions
PARTITION_RTOL = 1e-12
# the lab_sweep benchmark's growth pairs (p=1,q=2: alpha 0 -> 1/2; p=1,q=1,
# alpha 1/2 -> p=2,q=1, alpha 0); its Monte Carlo op runs on the first
LAB_PAIRS = [(sp(1, 0.5, 0, 0), sp(1, 0.5, 0, 0.5)),
             (sp(1, 1, 0, 0.5), sp(0.5, 1, 0, 0))]


class TestSpectralRatios:
    """Band-row ratios against the partition path they replace."""

    @pytest.mark.parametrize("pair", LAB_PAIRS)
    @pytest.mark.parametrize("j", [4, 6])
    def test_witness_ratios_near_round_trip(self, pair, j):
        # each bump witness, built directly at the bins of its band, against
        # full partitions at plan_grid's (N, L): on the same spectrum, and
        # on the spectrum of the sampled witness (an FFT round trip)
        src, tgt = pair
        a1, a2 = float(src.alpha), float(tgt.alpha)
        a, b = min(a1, a2), max(a1, a2)
        k = asymptotics.anchor_for_octave(j, b)
        grid = plan_grid(src, tgt, k)
        parts = _lab_partitions(grid, a, b)
        samples = box_opnorm_lower(k, src, tgt, grid)
        for sample, (l, alpha) in zip(samples, [(asymptotics.matched_fine_index(k, a, b), a),
                                                (k, b)]):
            f = witness_bump(l, alpha, parts[alpha])
            center, scale, frac, _ = witness_band(l, alpha, parts[alpha].covering, *grid)
            direct = bump_train(freq_axis(*grid), [(center, scale)], 0.0, frac)
            for spec in (direct, spectrum(f)):
                ref = _partition_ratio(spec, f.band_limit, parts[b].member(k), src, tgt,
                                       parts[a1], parts[a2])
                assert sample.lower_bound == pytest.approx(ref, rel=PARTITION_RTOL, abs=0)

    # (pair, k, trials, seed); the lab clip to the safe radii fires at k = 8
    TRIAL_CASES = [(LAB_PAIRS[0], 8, 16, 41), (LAB_PAIRS[0], 6, 8, 3),
                   ((sp(1.0, 0.5, 0, 0), sp(0.5, 0.5, 0, 0.5)), 5, 6, 9)]

    def test_trial_ratios_near_round_trip(self, monkeypatch):
        band_ratio = asymptotics._band_ratio
        measured = []

        def recording(k, source, target, spec, *rest):
            value = band_ratio(k, source, target, spec, *rest)
            measured.append((spec.copy(), value))
            return value

        monkeypatch.setattr(asymptotics, "_band_ratio", recording)
        for (src, tgt), k, trials, seed in self.TRIAL_CASES:
            a1, a2 = float(src.alpha), float(tgt.alpha)
            b = max(a1, a2)
            grid = plan_grid(src, tgt, k)
            parts = _lab_partitions(grid, a1, a2)
            best = max(s.lower_bound for s in box_opnorm_lower(k, src, tgt, grid))
            measured.clear()
            mc = box_opnorm_montecarlo(k, src, tgt, grid, trials=trials, seed=seed)
            runs = measured[-trials:]
            assert mc.lower_bound == max([best] + [value for _, value in runs])
            # the random spectra fill the bins the partition path drew on:
            # every usable window of the second neighbourhood, clipped inside
            # the safe radii when the windows reach past them
            part_b = parts[b]
            drawn = np.zeros(grid[0], dtype=bool)
            reach = 0.0
            for l in neighbor_set("LambdaStar", k, b):
                if l in part_b:
                    m = part_b.member(l)
                    drawn[m.idx] = True
                    reach = max(reach, abs(m.center) + m.support_radius)
            safe = min(p.safe_radius for p in parts.values())
            if reach > safe:
                drawn &= np.abs(freq_axis(*grid)) <= safe * 0.98
            for spec, value in runs:
                assert np.array_equal(spec != 0, drawn)
                ref = _partition_ratio(spec, None, part_b.member(k), src, tgt,
                                       parts[a1], parts[a2])
                assert value == pytest.approx(ref, rel=PARTITION_RTOL, abs=0)


class TestLabGeometry:
    """The sweeps read the lab partitions' reach from covering geometry."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1 / 3, 0.5, 0.75])
    def test_safe_radius_matches_partition(self, alpha):
        for N in (2 ** 10, 2 ** 13, 2 ** 16):
            for L in (16.0, 24.7, 61.38):
                k_usable, safe = asymptotics.lab_safe_radius(alpha, (N, L))
                try:
                    part = build_partition(CoveringSpec(alpha=alpha, n=1), N=N, L=L)
                except GeometryError:
                    # no window beyond the origin fits this grid
                    assert k_usable == 0
                    continue
                assert (k_usable, safe) == (max(part.indices()), part.safe_radius)

    def test_sweeps_build_no_partition(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return build_partition(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "build_partition", counting)
        monkeypatch.setattr(covering, "build_partition", counting)
        asymptotics._partition_cache.clear()
        src, tgt = LAB_PAIRS[0]
        growth_rate_check(src, tgt, range(4, 8))
        embedding_consistency_check(sp(1, 0, 0, 0), sp(0, 0, 0, 0.25), truncation=8)
        k = asymptotics.anchor_for_octave(6, 0.5)
        box_opnorm_montecarlo(k, src, tgt, plan_grid(src, tgt, k), trials=4)
        assert built == []

    def test_sweeps_read_the_witness_band_fraction(self, monkeypatch):
        # at alpha = 0 the plateau fractions over |k| <= 32 and |k| <= 128
        # differ in the last bits; every caller reads the one witness_band uses
        cov = asymptotics.lab_covering(0.0)
        frac = witness_band(0, 0.0, cov, 2 ** 12, 16.0)[2]
        plateau_fraction, probes = covering.Covering.plateau_fraction, set()

        def spying(self, k_probe):
            if self is cov:
                probes.add(k_probe)
            return plateau_fraction(self, k_probe)

        monkeypatch.setattr(covering.Covering, "plateau_fraction", spying)
        src, tgt = LAB_PAIRS[0]
        k = asymptotics.anchor_for_octave(6, 0.5)
        l_fine = asymptotics.matched_fine_index(k, 0.0, 0.5)
        for name, call in (("matched_fine_index",
                            lambda: asymptotics.matched_fine_index(k, 0.0, 0.5)),
                           ("plan_grid", lambda: plan_grid(src, tgt, k, l_fine=l_fine)),
                           ("_spread_ratio", lambda: asymptotics._spread_ratio(k, src, tgt))):
            probes.clear()
            call()
            assert probes, name
            assert {WITNESS_SAFETY * plateau_fraction(cov, p) for p in probes} == {frac}, name
        assert frac == witness_fraction(cov)

    def test_declared_band_beyond_safe_radius_raises(self):
        src, tgt = LAB_PAIRS[0]
        k = asymptotics.anchor_for_octave(6, 0.5)
        grid = plan_grid(src, tgt, k)
        radii = asymptotics._safe_radii(src, tgt, grid)
        # the anchor witness's band reaches past a safe radius cut to 1
        short = {x: (usable, 1.0) for x, (usable, _) in radii.items()}
        with pytest.raises(TruncationError,
                           match=r"^declared band limit \S+ exceeds safe radius 1\.0$"):
            asymptotics._bump_ratio(k, 0.5, k, src, tgt, grid, short)
        assert asymptotics._bump_ratio(k, 0.5, k, src, tgt, grid, radii) > 0


class TestPackedWindowSegments:
    # signed segments, the whole grid both ways, segments that wrap past
    # N/2 (500 to 530, 505 to 512, 0 to 1023), a Nyquist edge alone, and a
    # segment listed from N/2
    @pytest.mark.parametrize("span", [(-40, 25), (0, 1023), (-512, 511), (500, 530),
                                      (505, 512), (-512, -480), (511, 511), (512, 520)])
    @pytest.mark.parametrize("shift", [0.0, 17.25])
    def test_windows_meet_the_segment_of_the_axis(self, span, shift):
        # _packed_windows reads the segment's extremes off its two ends; the
        # windows it picks are those the extremes of the whole segment give
        N, L = grid = (1024, 8.0)
        xi = freq_axis(N, L)[np.arange(span[0], span[1] + 1) % N] + shift
        cov = asymptotics.lab_covering(0.5)
        y_lo, y_hi = covering.warp(np.array([xi.min(), xi.max()]), 0.5) + [-cov.r0, cov.r0]
        meeting = [l for l in range(math.floor(y_lo) - 1, math.ceil(y_hi) + 2)
                   if y_lo < cov.lattice_image(l) < y_hi]
        assert asymptotics._packed_windows(0.5, grid, span, shift)[0] == meeting


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

    def test_preconditions_in_order(self):
        # a pair failing several preconditions names the first failed one:
        # n = 1, a shared q (rate sweeps), 1/p2 <= 1/p1, then alpha < 1
        good_src = sp(1, 0, 0, 0)
        cases = [
            (sp(1, 0, 0, 0, n=2), sp(2, 1, 0, 1, n=2), "measure one-dimensional windows"),
            (good_src, sp(2, 1, 0, 1), "are defined for a shared q"),
            (good_src, sp(2, 0, 0, 1), "require 1/p2 <= 1/p1"),
            (good_src, sp(0, 0, 0, 1), "cover alpha < 1"),
        ]
        for src, tgt, message in cases:
            with pytest.raises(ParameterError, match=f"^rate sweeps {message}"):
                growth_rate_check(src, tgt, range(4, 8))
            if "shared q" not in message:
                with pytest.raises(ParameterError, match=f"^consistency sweeps {message}"):
                    embedding_consistency_check(src, tgt, truncation=8)
        # the consistency sweep needs no shared q
        with pytest.raises(ParameterError, match="^consistency sweeps require 1/p2"):
            embedding_consistency_check(good_src, sp(2, 1, 0, 1), truncation=8)

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
