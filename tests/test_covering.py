"""Covering geometry, partition-of-unity construction, and index sets."""

import math

import numpy as np
import pytest

from alphamod.covering import (
    CoveringSpec,
    Covering,
    ball_geometry,
    bump_profile,
    build_partition,
    covering_for,
    dump_partition_samples,
    freq_axis,
    load_partition_samples,
    neighbor_set,
    partition_rows,
    verify_partition,
    warp,
    warp_radius,
    warp_radius_inv,
)
from alphamod.errors import ParameterError, TruncationError


class TestBallGeometry:
    def test_origin_window(self):
        for alpha in [0.0, 0.25, 0.5, 0.75]:
            center, scale = ball_geometry(0, alpha)
            assert center == 0.0
            assert scale == 1.0

    def test_alpha_zero_is_unit_lattice(self):
        for k in [-5, 1, 17]:
            center, scale = ball_geometry(k, 0.0)
            assert center == float(k)
            assert scale == 1.0

    def test_half_alpha_hand_value(self):
        center, scale = ball_geometry(3, 0.5)
        assert center == pytest.approx(3.0 * math.sqrt(10.0), rel=1e-12)
        assert scale == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_alpha_one_redirects_to_dyadic(self):
        with pytest.raises(ParameterError):
            ball_geometry(3, 1.0)

    def test_two_dim(self):
        center, scale = ball_geometry((0, 3), 0.5)
        assert scale == pytest.approx(math.sqrt(10.0))
        assert np.allclose(center, [0.0, 3.0 * math.sqrt(10.0)])


class TestWarp:
    def test_roundtrip(self):
        for alpha in [0.0, 0.3, 0.5, 0.75]:
            for y in [0.0, 0.3, 1.7, 42.0, 900.0]:
                rho = warp_radius_inv(y, alpha)
                assert warp_radius(rho, alpha) == pytest.approx(y, abs=1e-11)

    def test_odd_symmetry(self):
        assert warp(-3.0, 0.5) == pytest.approx(-warp(3.0, 0.5))


def _reference_warp_radius_inv(y, alpha):
    """Fixed 200-step bisection through the numpy warp_radius."""
    lo, hi = 0.0, max(y, y ** (1.0 / (1.0 - alpha))) * 2.0 + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if warp_radius(mid, alpha) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBitIdentity:
    """The scalar fast paths must reproduce the numpy computations exactly."""

    ALPHAS = [0.1, 1 / 4, 1 / 3, 1 / 2, 3 / 4, 0.9]

    def test_warp_inverse_matches_fixed_bisection(self):
        rng = np.random.default_rng(20161)
        ys = 10.0 ** rng.uniform(-3.0, 4.0, size=400)
        for alpha in self.ALPHAS:
            for y in ys:
                assert warp_radius_inv(y, alpha) == _reference_warp_radius_inv(y, alpha)
                assert warp_radius_inv(float(y), alpha) == _reference_warp_radius_inv(y, alpha)

    def test_scalar_ball_geometry_matches_numpy(self):
        for alpha in [0.0] + self.ALPHAS:
            for k in range(-300, 301):
                kv = np.asarray(k, dtype=float)
                scale = (1.0 + float(np.sum(kv * kv))) ** (alpha / (2.0 * (1.0 - alpha)))
                center, got_scale = ball_geometry(k, alpha)
                assert got_scale == float(scale)
                assert center == float(scale * kv)
                assert ball_geometry(np.int64(k), alpha) == (center, got_scale)


class TestSharedCovering:
    def test_one_instance_per_spec(self):
        spec = CoveringSpec(alpha=0.25, n=1)
        assert covering_for(spec) is covering_for(spec)
        assert covering_for(spec) is covering_for(CoveringSpec(alpha=0.25, n=1))
        assert covering_for(spec) is not covering_for(CoveringSpec(alpha=0.5, n=1))

    def test_memoised_plateau_fraction_matches_fresh(self):
        for alpha in [0.0, 0.25, 0.5, 0.75]:
            spec = CoveringSpec(alpha=alpha, n=1)
            shared = covering_for(spec)
            for probe in (32, 128):
                first = shared.plateau_fraction(probe)
                assert shared.plateau_fraction(probe) == first
                assert first == Covering(spec).plateau_fraction(probe)

    def test_cache_stays_bounded(self):
        from alphamod import covering

        for i in range(covering._COVERING_CACHE_LIMIT + 12):
            covering_for(CoveringSpec(alpha=0.25, n=1, c_small=0.1 + 0.005 * i))
            assert len(covering._covering_cache) <= covering._COVERING_CACHE_LIMIT

    def test_threads_share_coverings_safely(self):
        import sys
        import threading

        from alphamod import covering

        specs = [CoveringSpec(alpha=a, n=1) for a in (0.1, 0.25, 0.5, 0.75)]
        expected = {spec: Covering(spec).plateau_fraction(32) for spec in specs}
        covering._covering_cache.clear()
        seen, errors = [], []

        def work():
            try:
                for _ in range(20):
                    for spec in specs:
                        cov = covering_for(spec)
                        seen.append(cov.alpha == spec.alpha
                                    and cov.plateau_fraction(32) == expected[spec])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(seen) == 6 * 20 * len(specs) and all(seen)

    def test_partition_keeps_callers_spec(self):
        spec = CoveringSpec(alpha=0.5, n=1)
        part = build_partition(spec, N=2 ** 10, L=4.0)
        assert part.spec is spec
        assert part.covering is covering_for(spec)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
class TestAlphaPartition:
    def test_partition_of_unity(self, alpha):
        part = build_partition(CoveringSpec(alpha=alpha, n=1), N=2 ** 12, L=4.0)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-10
        assert report.support_leakage <= 1e-14

    def test_plateau_is_exact(self, alpha):
        part = build_partition(CoveringSpec(alpha=alpha, n=1), N=2 ** 12, L=4.0)
        cov = part.covering
        xi = freq_axis(part.N, part.L)
        for k in [0, 1, max(2, len(part.members) // 4)]:
            if k not in part:
                continue
            m = part.member(k)
            lo, hi = cov.plateau_interval(k)
            dense = m.dense(part.N)
            inside = (xi > lo + 1e-9) & (xi < hi - 1e-9)
            assert inside.any()
            assert np.min(dense[inside]) >= 1.0 - 1e-13
            assert np.max(dense[inside]) <= 1.0 + 1e-13

    def test_overlap_bounded(self, alpha):
        part = build_partition(CoveringSpec(alpha=alpha, n=1), N=2 ** 12, L=4.0)
        assert verify_partition(part).max_overlap <= 2


class TestDyadicPartition:
    def test_sum_to_one(self):
        part = build_partition(CoveringSpec(alpha=1.0, n=1), N=2 ** 12, L=4.0)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-12

    def test_annulus_support(self):
        part = build_partition(CoveringSpec(alpha=1.0, n=1), N=2 ** 14, L=8.0)
        xi = np.abs(freq_axis(part.N, part.L))
        for m in part.members:
            if m.index == 0:
                continue
            j = m.index
            dense = m.dense(part.N)
            inner = xi <= (4.0 / 3.0) * 2.0 ** (j - 1)
            outer = xi >= 1.5 * 2.0 ** j
            assert np.max(np.abs(dense[inner])) == 0.0
            assert np.max(np.abs(dense[outer])) == 0.0

    def test_scales_are_octaves(self):
        part = build_partition(CoveringSpec(alpha=1.0, n=1), N=2 ** 12, L=4.0)
        for m in part.members:
            assert m.scale == 2.0 ** m.index


class TestTwoDimPartition:
    def test_sum_to_one(self):
        part = build_partition(CoveringSpec(alpha=0.5, n=2), N=2 ** 7, L=4.0)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-10
        assert len(part.members) > 4


class TestGradientScaling:
    def test_uniform_derivative_bound(self):
        # |grad eta_k| * scale stays within a fixed band across k = 1..64
        part = build_partition(CoveringSpec(alpha=0.5, n=1), N=2 ** 15, L=3.0)
        report = verify_partition(part)
        ks = [abs(m.index) for m in part.members]
        assert max(ks) >= 64
        assert report.gradient_ratio <= 4.0


class TestNeighborSets:
    def test_lambda_uniform(self):
        spec = CoveringSpec(alpha=0.0, n=1, c_big=0.8, delta=0.15)
        for k in [-3, 0, 7]:
            out = neighbor_set("Lambda", k, 0.0, spec)
            assert out.members == {k - 1, k, k + 1}

    def test_lambda_contains_self(self):
        for alpha in [0.0, 0.3, 0.6]:
            assert 0 in neighbor_set("Lambda", 0, alpha).members

    def test_lambda_star_expands(self):
        spec = CoveringSpec(alpha=0.0, n=1, c_big=0.8, delta=0.15)
        out = neighbor_set("LambdaStar", 0, 0.0, spec)
        assert out.members == {-2, -1, 0, 1, 2}

    def test_lambda_symmetry(self):
        for alpha in [0.0, 0.4, 0.7]:
            for k in range(0, 24, 3):
                for l in neighbor_set("Lambda", k, alpha).members:
                    assert k in neighbor_set("Lambda", l, alpha).members

    def test_gamma_tilde_subset_of_gamma(self):
        for k in [2, 5, 9, 14]:
            gamma = neighbor_set("Gamma", k, (0.0, 0.5)).members
            tilde = neighbor_set("GammaTilde", k, (0.0, 0.5)).members
            assert tilde <= gamma

    def test_gamma_cardinality_growth(self):
        # |Gamma_k^{0,1/2}| ~ <k> along the ray
        ks = [8, 16, 32, 64, 128]
        counts = [len(neighbor_set("Gamma", k, (0.0, 0.5)).members) for k in ks]
        logk = np.log2([math.sqrt(1.0 + k * k) for k in ks])
        logc = np.log2(counts)
        slope = np.polyfit(logk, logc, 1)[0]
        assert abs(slope - 1.0) <= 0.2

    def test_lambda_two_dim(self):
        out = neighbor_set("Lambda", (0, 0), 0.0, CoveringSpec(alpha=0.0, n=2))
        assert (0, 0) in out.members
        assert (1, 0) in out.members
        assert (3, 3) not in out.members

    def test_truncation_error(self):
        spec = CoveringSpec(alpha=0.0, n=1, k_max=3)
        with pytest.raises(TruncationError):
            neighbor_set("Lambda", 3, 0.0, spec)


class TestSampledGamma:
    def test_matches_interval_arithmetic_1d(self):
        fine = build_partition(CoveringSpec(alpha=0.0, n=1), N=2 ** 12, L=8.0)
        coarse = build_partition(CoveringSpec(alpha=0.5, n=1), N=2 ** 12, L=8.0)
        from alphamod.covering import gamma_members_sampled

        xi = freq_axis(fine.N, fine.L)
        cov_f = fine.covering
        cov_c = coarse.covering
        for k in (2, 4, 7):
            sampled = gamma_members_sampled(k, fine, coarse).members
            exact = neighbor_set("Gamma", k, (0.0, 0.5)).members
            assert sampled == exact
            tilde_s = gamma_members_sampled(k, fine, coarse, absorbed=True).members
            tilde_e = neighbor_set("GammaTilde", k, (0.0, 0.5)).members
            assert tilde_e <= tilde_s
            # sampled absorption may additionally pick up windows that are
            # absorbed to machine precision (the profile tails decay like
            # exp(-1/t) at the support edge) without strict containment
            plo, phi = cov_c.exact_one_interval(k)
            for l in tilde_s - tilde_e:
                lo, hi = cov_f.support_interval(l)
                assert not (plo <= lo and hi <= phi)
                anchor_vals = cov_c.normalized_window(k, xi[fine.member(l).idx])
                assert anchor_vals.min() >= 1.0 - 1e-12

    def test_two_dim_sets(self):
        from alphamod.covering import gamma_members_sampled

        fine = build_partition(CoveringSpec(alpha=0.0, n=2), N=2 ** 7, L=4.0)
        coarse = build_partition(CoveringSpec(alpha=0.5, n=2), N=2 ** 7, L=4.0)
        anchor = (2, 0)
        gamma = gamma_members_sampled(anchor, fine, coarse).members
        tilde = gamma_members_sampled(anchor, fine, coarse, absorbed=True).members
        assert gamma
        assert tilde <= gamma
        # every overlapping fine window sits near the anchor center
        import numpy as np

        ck, _ = ball_geometry(anchor, 0.5)
        mk = coarse.member(anchor)
        for l in gamma:
            cl, _ = ball_geometry(l, 0.0)
            dist = float(np.linalg.norm(np.asarray(cl) - np.asarray(ck)))
            assert dist <= mk.support_radius + fine.member(l).support_radius + 1e-9


class TestPointwiseWindows:
    def test_matches_partition_samples(self):
        part = build_partition(CoveringSpec(alpha=0.5, n=1), N=2 ** 12, L=8.0)
        xi = freq_axis(part.N, part.L)
        for k in (0, 3, 7):
            m = part.member(k)
            vals = part.covering.normalized_window(k, xi[m.idx])
            np.testing.assert_allclose(vals, m.values, atol=1e-13)

    def test_sums_to_one_anywhere(self):
        cov = Covering(CoveringSpec(alpha=0.25, n=1))
        xi = np.linspace(-30.0, 30.0, 1501)
        total = np.zeros_like(xi)
        for k in range(-40, 41):
            total += cov.normalized_window(k, xi)
        assert np.max(np.abs(total - 1.0)) <= 1e-12


    def test_windows_equal_one_at_a_time_bit_for_bit(self):
        # the lattice sum formed once for many windows must give what the
        # old per-window evaluation gave, summed in the same order
        def old_normalized_window(cov, k, xi):
            y = warp(xi, cov.alpha, 1)
            l_lo = int(math.floor(float(y.min()) - cov.r0)) - 1
            l_hi = int(math.ceil(float(y.max()) + cov.r0)) + 1
            total = np.zeros_like(y)
            target = None
            for l in range(l_lo, l_hi + 1):
                vals = bump_profile(np.abs(y - float(cov.lattice_image(l))),
                                    cov.delta, cov.r0)
                total += vals
                if l == k:
                    target = vals
            if target is None:
                target = bump_profile(np.abs(y - float(cov.lattice_image(k))),
                                      cov.delta, cov.r0)
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(total > 0, target / np.maximum(total, 1e-300), 0.0)

        for alpha in (0.0, 0.25, 0.5):
            cov = covering_for(CoveringSpec(alpha=alpha, n=1))
            xi = np.fft.fftfreq(2048, d=1.0 / 64.0) + 37.3
            ks = list(range(-3, 40)) + [500]
            rows = list(cov.normalized_windows(ks, xi))
            for k, row in zip(ks, rows):
                assert np.array_equal(row, old_normalized_window(cov, k, xi))
            assert np.array_equal(cov.normalized_window(7, xi), rows[10])


class TestHighAlpha:
    def test_near_dyadic_covering_builds(self):
        # at alpha = 0.9 the window scale grows like <k>^9, so only a few
        # windows fit any desk-scale band; the partition must still be exact
        part = build_partition(CoveringSpec(alpha=0.9, n=1), N=2 ** 13, L=2.0)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-10
        assert len(part.members) >= 3


class TestExport:
    def test_rows_and_binary_roundtrip(self, tmp_path):
        part = build_partition(CoveringSpec(alpha=0.25, n=1), N=2 ** 10, L=4.0)
        rows = partition_rows(part)
        assert len(rows) == len(part.members)
        path = tmp_path / "part.bin"
        dump_partition_samples(part, str(path))
        back = load_partition_samples(str(path))
        assert back["N"] == part.N
        assert back["alpha"] == part.alpha
        assert len(back["members"]) == len(part.members)
        m0 = part.members[0]
        b0 = back["members"][0]
        assert b0["index"] == m0.index
        np.testing.assert_allclose(b0["values"], m0.values)
        np.testing.assert_array_equal(b0["idx"], m0.idx)


class TestCoveringConstants:
    def test_plateau_fraction_positive(self):
        for alpha in [0.0, 0.25, 0.5, 0.75]:
            cov = Covering(CoveringSpec(alpha=alpha, n=1))
            assert cov.plateau_fraction(64) > 0.05

    def test_infeasible_constants_rejected(self):
        from alphamod.errors import CoveringError

        with pytest.raises(CoveringError):
            Covering(CoveringSpec(alpha=0.75, n=1, c_big=0.9, delta=0.2))
