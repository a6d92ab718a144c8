"""Covering geometry, partition-of-unity construction, and index sets."""

import math
import time
import warnings

import numpy as np
import pytest

from alphamod import covering
from alphamod.cli import EXIT_INTERNAL, main
from alphamod.covering import (
    CoveringSpec,
    Covering,
    Partition,
    PartitionMember,
    ball_geometry,
    bin_frequencies,
    bump_profile,
    build_partition,
    covering_for,
    dump_partition_samples,
    freq_axis,
    freq_grid,
    grid_span,
    load_partition_samples,
    neighbor_set,
    partition_rows,
    verify_partition,
    warp,
    warp_radius,
    warp_radius_inv,
)
from alphamod.errors import CoveringError, DomainError, GeometryError, ParameterError


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

    @pytest.mark.parametrize("k, alpha", [(2 ** 2000, 0.5), (2 ** 600, 0.0), (2 ** 300, 0.75),
                                          ((2 ** 600, 0), 0.0), ((0, 2 ** 300), 0.75)])
    def test_centre_beyond_float_range(self, k, alpha):
        with pytest.raises(DomainError, match="float range"):
            ball_geometry(k, alpha)

    @pytest.mark.parametrize("k", [2 ** 128, 2 ** 256])
    def test_lattice_image_beyond_float_range(self, k):
        # the image was 0 (centre squared overflowed) or NaN (centre overflowed)
        with pytest.raises(DomainError):
            Covering(CoveringSpec(alpha=0.75, n=1)).lattice_image(k)
        with pytest.raises(DomainError):
            Covering(CoveringSpec(alpha=0.75, n=2)).lattice_image((k, 0))


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


def _reference_build_1d(spec, N, L):
    """The per-window 1-D builder: support intervals resolved at each use
    and the grid warped again for every window."""
    cov = covering_for(spec)
    f_nyq = N / (2.0 * L)
    k_fit = 0
    while cov.support_outer_radius(k_fit + 1) < f_nyq:
        k_fit += 1
    if spec.k_max is not None:
        k_fit = min(k_fit, spec.k_max)
    if k_fit < 1:
        raise GeometryError("grid too small to hold any window beyond the origin")
    xi = freq_axis(N, L)
    total = np.zeros(N)
    k_touch = k_fit
    while cov.support_interval(k_touch + 1)[0] < f_nyq and k_touch < k_fit + 64:
        k_touch += 1
    cache = {}
    for k in range(-k_touch, k_touch + 1):
        lo, hi = cov.support_interval(k)
        i0 = max(int(math.ceil(lo * L)), -N // 2)
        i1 = min(int(math.floor(hi * L)), N // 2 - 1)
        if i1 < i0:
            continue
        idx = np.arange(i0, i1 + 1) % N
        y = warp(xi[idx], cov.alpha, 1)
        vals = bump_profile(np.abs(y - float(cov.lattice_image(k))), cov.delta, cov.r0)
        keep = vals > 0.0
        cache[k] = (idx[keep], vals[keep])
        total[idx[keep]] += vals[keep]
    if float(total.min()) < 1e-3:
        inside = np.abs(xi) <= cov.support_outer_radius(k_fit)
        if float(total[inside].min()) < 1e-3:
            raise CoveringError("window sum dipped below floor: constants too small")
    members = []
    for k in range(-k_fit, k_fit + 1):
        if k not in cache:
            raise GeometryError(
                f"window {k} holds no grid bin: frequency spacing {1.0 / L:g} "
                f"is too coarse for alpha = {cov.alpha:g}")
        idx, vals = cache[k]
        center, scale = ball_geometry(k, cov.alpha)
        lo, hi = cov.support_interval(k)
        members.append(PartitionMember(
            index=k, center=center, scale=scale,
            support_radius=max(hi - center, center - lo),
            idx=idx, values=vals / total[idx], grid_N=N, grid_L=L))
    safe_radius = cov.support_interval(k_fit + 1)[0]
    return Partition(alpha=cov.alpha, n=1, N=N, L=L,
                     safe_radius=min(safe_radius, f_nyq), members=members,
                     covering=cov, spec=spec)


def _reference_build_2d(spec, N, L):
    """The per-window 2-D builder: one pass for the window sum, outer radii
    resolved again per member, one more lattice pass for the safe radius."""
    cov = covering_for(spec)
    f_nyq = N / (2.0 * L)
    xi = freq_grid(2, N, L).reshape(-1, 2)
    y = warp(xi, cov.alpha, 2)
    k_reach = 1
    while cov.support_outer_radius((k_reach + 1, 0)) < f_nyq:
        k_reach += 1
    if spec.k_max is not None:
        k_reach = min(k_reach, spec.k_max)
    total = np.zeros(N * N)
    cache = {}
    shells = range(-k_reach - 2, k_reach + 3)
    for kx in shells:
        for ky in shells:
            k = (kx, ky)
            r = np.linalg.norm(y - np.asarray(cov.lattice_image(k), dtype=float), axis=-1)
            mask = r < cov.r0
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            vals = bump_profile(r[idx], cov.delta, cov.r0)
            total[idx] += vals
            if max(abs(kx), abs(ky)) <= k_reach and cov.support_outer_radius(k) < f_nyq:
                cache[k] = (idx, vals)
    members = []
    for k, (idx, vals) in cache.items():
        center, scale = ball_geometry(k, cov.alpha)
        outer = cov.support_outer_radius(k)
        cn = float(np.linalg.norm(center))
        members.append(PartitionMember(
            index=k, center=np.asarray(center), scale=scale,
            support_radius=outer - cn if cn > 0 else outer,
            idx=idx, values=vals / total[idx], grid_N=N, grid_L=L))
    edge = math.inf
    for kx in shells:
        for ky in shells:
            if (kx, ky) not in cache:
                yn = float(np.linalg.norm(np.asarray(cov.lattice_image((kx, ky)), dtype=float)))
                edge = min(edge, max(yn - cov.r0, 0.0))
    safe_radius = warp_radius_inv(edge, cov.alpha) if edge < math.inf else f_nyq
    return Partition(alpha=cov.alpha, n=2, N=N, L=L,
                     safe_radius=min(safe_radius, f_nyq), members=members,
                     covering=cov, spec=spec)


def _positive_bins(part):
    """part without its bins of value exactly 0.0."""
    members = []
    for m in part.members:
        keep = m.values != 0.0
        members.append(PartitionMember(
            index=m.index, center=m.center, scale=m.scale,
            support_radius=m.support_radius, idx=m.idx[keep], values=m.values[keep],
            grid_N=m.grid_N, grid_L=m.grid_L))
    return Partition(alpha=part.alpha, n=part.n, N=part.N, L=part.L,
                     safe_radius=part.safe_radius, members=members,
                     covering=part.covering, spec=part.spec)


def _assert_same_build(spec, N, L, reference):
    try:
        want = reference(spec, N, L)
    except (CoveringError, GeometryError) as exc:
        with pytest.raises(type(exc)) as got:
            build_partition(spec, N, L)
        assert str(got.value) == str(exc)
        return
    got = build_partition(spec, N, L)
    for name in ("idx", "values", "offsets", "bases"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.safe_radius == want.safe_radius
    assert len(got.members) == len(want.members)
    for m, r in zip(got.members, want.members):
        assert m.index == r.index
        assert np.asarray(m.center).tobytes() == np.asarray(r.center).tobytes()
        assert (m.scale, m.support_radius) == (r.scale, r.support_radius)


_BUILD_ALPHAS = [0.0, 1 / 4, 1 / 3, 1 / 2, 3 / 4, 0.9]


class TestBuilderBitIdentity:
    """build_partition equals the per-window builders bit for bit, except
    that it keeps only bins of positive value: the 2-D full-grid scan also
    kept bins inside the support whose profile underflows to 0.0."""

    @pytest.mark.parametrize("alpha", _BUILD_ALPHAS)
    @pytest.mark.parametrize("grid", [(4096, 2.0, None), (2 ** 16, 61.38107416879879, None),
                                      (4096, 2.0, 5), (2 ** 13, 2.0, None)])
    def test_one_dim(self, alpha, grid):
        N, L, k_max = grid
        _assert_same_build(CoveringSpec(alpha=alpha, n=1, k_max=k_max), N, L,
                           _reference_build_1d)

    @pytest.mark.parametrize("alpha", _BUILD_ALPHAS)
    @pytest.mark.parametrize("grid", [(64, 1.0), (128, 2.0)])
    def test_two_dim(self, alpha, grid):
        full = []

        def reference(spec, N, L):
            full.append(_reference_build_2d(spec, N, L))
            return _positive_bins(full[0])

        spec = CoveringSpec(alpha=alpha, n=2)
        _assert_same_build(spec, *grid, reference)
        if full:
            # every reference bin the builder left out holds exactly 0.0
            got = build_partition(spec, *grid)
            for m, r in zip(got.members, full[0].members):
                assert np.all(r.values[~np.isin(r.idx, m.idx)] == 0.0)


class TestUsableWindows:
    """How far the usable windows reach is found near the Nyquist frequency,
    and a grid whose bins cannot serve them all is rejected before any
    window is sampled."""

    @pytest.mark.parametrize("alpha", [0.0, 1 / 3, 0.5, 0.75])
    @pytest.mark.parametrize("n", [1, 2])
    def test_first_reaching_matches_upward_scan(self, alpha, n):
        cov = covering_for(CoveringSpec(alpha=alpha, n=n))
        for radius in (0.5, 3.0, 17.3, 256.0, 4096.0, 1e5):
            k = 1
            while cov.support_outer_radius(cov.axis_window(k)) < radius:
                k += 1
            assert cov.first_reaching(radius) == k

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n, N", [(1, 2048), (2, 64)])
    @pytest.mark.parametrize("L", [1e-8, 1e-300])
    def test_bins_too_few_for_the_windows(self, alpha, n, N, L):
        crowd = (N - 2) * N ** (n - 1) + 1
        start = time.perf_counter()
        with pytest.raises(GeometryError, match=f"a window of 1 to {crowd} .* holds no grid bin"):
            build_partition(CoveringSpec(alpha=alpha, n=n), N=N, L=L)
        assert time.perf_counter() - start < 1.0

    def test_as_many_windows_as_bins_serve(self):
        # spacing 2: windows 1 to 63 in (0, 64) share the 31 positive bins
        with pytest.raises(GeometryError, match="a window of 1 to 63 on the first axis"):
            build_partition(CoveringSpec(alpha=0.0, n=1), N=64, L=0.5)
        # with k_max below that count the windows are sampled, and the first
        # empty one in lattice order is named
        with pytest.raises(GeometryError, match="window -61 holds no grid bin"):
            build_partition(CoveringSpec(alpha=0.0, n=1, k_max=62), N=64, L=0.5)


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
        limit = covering_for.cache_info().maxsize
        for i in range(limit + 12):
            covering_for(CoveringSpec(alpha=0.25, n=1, c_small=0.1 + 0.005 * i))
            assert covering_for.cache_info().currsize <= limit

    def test_threads_share_coverings_safely(self):
        import sys
        import threading

        specs = [CoveringSpec(alpha=a, n=1) for a in (0.1, 0.25, 0.5, 0.75)]
        expected = {spec: Covering(spec).plateau_fraction(32) for spec in specs}
        covering_for.cache_clear()
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
        for k in [-3, 0, 7]:
            assert neighbor_set("Lambda", k, 0.0) == {k - 1, k, k + 1}

    def test_lambda_contains_self(self):
        for alpha in [0.0, 0.3, 0.6]:
            assert 0 in neighbor_set("Lambda", 0, alpha)

    def test_lambda_star_expands(self):
        assert neighbor_set("LambdaStar", 0, 0.0) == {-2, -1, 0, 1, 2}

    def test_lambda_symmetry(self):
        for alpha in [0.0, 0.4, 0.7]:
            for k in range(0, 24, 3):
                for l in neighbor_set("Lambda", k, alpha):
                    assert k in neighbor_set("Lambda", l, alpha)

    def test_gamma_tilde_subset_of_gamma(self):
        for k in [2, 5, 9, 14]:
            gamma = neighbor_set("Gamma", k, (0.0, 0.5))
            tilde = neighbor_set("GammaTilde", k, (0.0, 0.5))
            assert tilde <= gamma

    def test_gamma_cardinality_growth(self):
        # |Gamma_k^{0,1/2}| ~ <k> along the ray
        ks = [8, 16, 32, 64, 128]
        counts = [len(neighbor_set("Gamma", k, (0.0, 0.5))) for k in ks]
        logk = np.log2([math.sqrt(1.0 + k * k) for k in ks])
        logc = np.log2(counts)
        slope = np.polyfit(logk, logc, 1)[0]
        assert abs(slope - 1.0) <= 0.2

    def test_lambda_two_dim(self):
        out = neighbor_set("Lambda", (0, 0), 0.0)
        assert (0, 0) in out
        assert (1, 0) in out
        assert (3, 3) not in out


def _reference_lambda_1d(cov, k):
    """Lambda by support-interval overlap, scanning outwards from k until
    the first window that misses."""
    def overlap(a, b):
        return a[0] < b[1] and b[0] < a[1]

    sup_k = cov.support_interval(k)
    members = {k}
    for step in (1, -1):
        l = k + step
        while overlap(cov.support_interval(l), sup_k):
            members.add(l)
            l += step
    return members


class TestLambdaReference:
    """The warped-distance scan gives the interval-overlap sets in 1-D."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1 / 4, 1 / 3, 1 / 2, 3 / 4, 0.8])
    def test_matches_interval_overlap(self, alpha):
        cov = covering_for(CoveringSpec(alpha=alpha, n=1))
        want = {k: _reference_lambda_1d(cov, k) for k in range(-304, 305)}
        for k in range(-300, 301):
            lam = neighbor_set("Lambda", k, alpha)
            assert lam == want[k]
            assert all(type(l) is int for l in lam)
            star = neighbor_set("LambdaStar", k, alpha)
            assert star == set().union(*(want[l] for l in want[k]))


def _gamma_members_sampled(anchor, partition_fine, partition_coarse, absorbed=False):
    """Gamma (or GammaTilde, with absorbed=True) from windows sampled on one
    shared grid, in any dimension: supports are compared bin by bin, and
    absorption means the anchor window equals 1 on every bin of the fine
    window's support."""
    mk = partition_coarse.member(anchor)
    anchor_vals = mk.dense(partition_coarse.N ** partition_coarse.n)
    members = set()
    for m in partition_fine.members:
        local = anchor_vals[m.idx]
        if absorbed:
            if m.idx.size and np.all(local >= 1.0 - 1e-12):
                members.add(m.index)
        elif np.any(local > 0.0):
            members.add(m.index)
    return members


class TestSampledGamma:
    def test_matches_interval_arithmetic_1d(self):
        fine = build_partition(CoveringSpec(alpha=0.0, n=1), N=2 ** 12, L=8.0)
        coarse = build_partition(CoveringSpec(alpha=0.5, n=1), N=2 ** 12, L=8.0)
        cov_f = fine.covering
        cov_c = coarse.covering
        for k in (2, 4, 7):
            sampled = _gamma_members_sampled(k, fine, coarse)
            exact = neighbor_set("Gamma", k, (0.0, 0.5))
            assert sampled == exact
            tilde_s = _gamma_members_sampled(k, fine, coarse, absorbed=True)
            tilde_e = neighbor_set("GammaTilde", k, (0.0, 0.5))
            assert tilde_e <= tilde_s
            # sampled absorption may additionally pick up windows that are
            # absorbed to machine precision (the profile tails decay like
            # exp(-1/t) at the support edge) without strict containment
            plo, phi = cov_c.exact_one_interval(k)
            for l in tilde_s - tilde_e:
                lo, hi = cov_f.support_interval(l)
                assert not (plo <= lo and hi <= phi)
                m = fine.member(l)
                signed = signed_bins(m.idx, fine.N)
                (bins, anchor_vals, _), _ = cov_c.sample_windows(
                    (k,), range(k - 5, k + 6), (fine.N, fine.L), (signed[0], signed[-1]))
                assert np.array_equal(bins, m.idx)
                assert anchor_vals.min() >= 1.0 - 1e-12

    def test_two_dim_sets(self):
        fine = build_partition(CoveringSpec(alpha=0.0, n=2), N=2 ** 7, L=4.0)
        coarse = build_partition(CoveringSpec(alpha=0.5, n=2), N=2 ** 7, L=4.0)
        anchor = (2, 0)
        gamma = _gamma_members_sampled(anchor, fine, coarse)
        tilde = _gamma_members_sampled(anchor, fine, coarse, absorbed=True)
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


def one_window_reference(cov, k, xi):
    """Window k of the one-dimensional covering cov at the frequencies xi,
    evaluated densely: its profile over the lattice sum of the profiles of
    every window reaching xi, summed in lattice order."""
    y = warp(xi, cov.alpha, 1)
    l_lo = int(math.floor(float(y.min()) - cov.r0)) - 1
    l_hi = int(math.ceil(float(y.max()) + cov.r0)) + 1
    total = np.zeros_like(y)
    target = None
    for l in range(l_lo, l_hi + 1):
        vals = bump_profile(np.abs(y - float(cov.lattice_image(l))), cov.delta, cov.r0)
        total += vals
        if l == k:
            target = vals
    if target is None:
        target = bump_profile(np.abs(y - float(cov.lattice_image(k))), cov.delta, cov.r0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, target / np.maximum(total, 1e-300), 0.0)


def signed_bins(idx, N):
    """Signed bin numbers of fft-layout positions on an axis of N bins."""
    return np.where(idx < N // 2, idx, idx - N)


def unpack(packed, size):
    """Dense rows, one per window, of packed windows (bins, samples, offsets)."""
    bins, samples, offsets = packed
    rows = np.zeros((len(offsets) - 1, size))
    for row, lo, hi in zip(rows, offsets[:-1], offsets[1:]):
        row[bins[lo:hi]] = samples[lo:hi]
    return rows


class TestPointwiseWindows:
    def test_matches_partition_samples(self):
        # one sampler builds partitions and samples sweep bands: on the bins
        # of a partition member it gives the member's samples bit for bit
        part = build_partition(CoveringSpec(alpha=0.5, n=1), N=2 ** 12, L=8.0)
        for k in (0, 3, 7):
            m = part.member(k)
            signed = signed_bins(m.idx, part.N)
            (bins, samples, _), _ = part.covering.sample_windows(
                (k,), range(k - 5, k + 6), (part.N, part.L), (signed[0], signed[-1]))
            assert np.array_equal(bins, m.idx)
            assert np.array_equal(samples, m.values)

    def test_sums_to_one_anywhere(self):
        cov = Covering(CoveringSpec(alpha=0.25, n=1))
        # bins 1/25.6 apart on [-30, 30], shifted off the lattice points
        N, L, shift = 2048, 25.6, 0.37
        span = grid_span(-30.0 - shift, 30.0 - shift, N, L)
        packed, _ = cov.sample_windows(range(-40, 41), range(-40, 41), (N, L), span, shift)
        total = unpack(packed, N).sum(axis=0)
        at = np.arange(span[0], span[1] + 1) % N
        assert at.size > 1500
        assert np.max(np.abs(total[at] - 1.0)) <= 1e-12

    def test_windows_equal_one_at_a_time_bit_for_bit(self):
        # each profile evaluated on its support box only, and the lattice sum
        # formed once for many windows, must give what the dense evaluation
        # of one window at a time gives, summed in the same order
        grid, span, shift = (2048, 32.0), (0, 2047), 37.3
        xi = np.fft.fftfreq(2048, d=1.0 / 64.0) + 37.3
        assert np.array_equal(freq_axis(*grid) + shift, xi)
        for alpha in (0.0, 0.25, 0.5):
            cov = covering_for(CoveringSpec(alpha=alpha, n=1))
            ks = list(range(-3, 40)) + [500]
            y = warp(xi, alpha, 1)
            summed = sorted(set(range(math.floor(y.min() - cov.r0) - 1,
                                      math.ceil(y.max() + cov.r0) + 2)).union(ks))
            packed, _ = cov.sample_windows(ks, summed, grid, span, shift)
            rows = unpack(packed, 2048)
            for k, row in zip(ks, rows):
                assert np.array_equal(row, one_window_reference(cov, k, xi))
            # each window lists its bins in ascending fft-layout position; the
            # one holding the grid's centre wraps
            bins, _, offsets = packed
            assert all(np.all(np.diff(bins[lo:hi]) > 0)
                       for lo, hi in zip(offsets[:-1], offsets[1:]))
            one, _ = cov.sample_windows((7,), summed, grid, span, shift)
            assert np.array_equal(unpack(one, 2048)[0], rows[10])

    def test_far_bins_stay_out_of_the_sums(self):
        # bins 1e300 apart: only bin 0 lies in window 0's support box, so no
        # bin near 1e300 is warped (squaring it would overflow, and the warp
        # would send it to 0, inside window 0)
        cov = covering_for(CoveringSpec(alpha=0.5, n=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (bins, samples, offsets), total = cov.sample_windows(
                (0, 1), range(-3, 4), (2048, 1e-300), (-1024, 1023))
        assert bins.tolist() == [0] and samples.tolist() == [1.0]
        assert offsets.tolist() == [0, 1, 1]
        assert np.count_nonzero(total) == 1


class TestBinFrequencies:
    """Frequencies of signed bins by fftfreq's own formula equal the
    fft-layout axis bit for bit, so no caller needs to build the axis."""

    @pytest.mark.parametrize("L", [61.38107416879879, 1e-300, 8.0])
    def test_equal_the_axis(self, L):
        for N in [2 ** e for e in range(1, 17)]:
            axis = freq_axis(N, L)
            # every signed bin, from the Nyquist edge -N/2 up to N/2 - 1
            m = np.arange(-(N // 2), N // 2)
            assert bin_frequencies(m, N, L).tobytes() == axis[m % N].tobytes()
            for edge in (-(N // 2), N // 2 - 1):
                assert bin_frequencies(edge, N, L) == axis[edge % N]
            # the whole grid as the span (0, N - 1) of the spread witness lists it
            p = np.arange(N)
            signed = np.where(p < N // 2, p, p - N)
            assert bin_frequencies(signed, N, L).tobytes() == axis.tobytes()


def segment_reference(cov, ks, grid, span, shift=0.0):
    """Dense rows of the one-dimensional windows ks on the bins of span,
    each evaluated on its own by one_window_reference."""
    N, L = grid
    at = np.arange(span[0], span[1] + 1) % N
    xi = freq_axis(N, L)[at] + shift
    rows = np.zeros((len(ks), N))
    for row, k in zip(rows, ks):
        row[at] = one_window_reference(cov, k, xi)
    return rows


class TestSamplerSegments:
    """Covering.sample_windows against the dense one-window reference on
    segments and whole grids, and against itself under any chunk cap."""

    def test_windows_missing_the_segment_are_empty(self):
        # signed bins 300 to 500 of (2048, 8) lie at 37.5 to 62.5: windows
        # 15 to 23 meet them; -20, 0 and 3 lie below, 25 beyond, and the
        # boxes of 90 and 10^6 lie beyond the Nyquist band (first > last)
        cov = covering_for(CoveringSpec(alpha=0.25, n=1))
        grid, span = (2048, 8.0), (300, 500)
        ks = [-20, 0, 3, 15, 20, 25, 90, 10 ** 6]
        summed = sorted(set(range(-25, 40)).union(ks))
        assert grid_span(*cov.support_interval(90), *grid)[0] > 1023
        packed, total = cov.sample_windows(ks, summed, grid, span)
        rows = unpack(packed, grid[0])
        assert np.array_equal(rows, segment_reference(cov, ks, grid, span))
        sizes = np.diff(packed[2]).tolist()
        assert [k for k, size in zip(ks, sizes) if size] == [15, 20]
        assert np.count_nonzero(total[np.arange(-1024, 300) % 2048]) == 0

    @pytest.mark.parametrize("span", [(0, 2047), (-1024, 1023)])
    @pytest.mark.parametrize("alpha, shift", [(0.0, -21.7), (0.5, 0.0), (0.75, 5.05)])
    def test_whole_grid_spans(self, span, alpha, shift):
        # the whole grid, in fft layout (the spread witness's span) or in
        # signed order, shifted so that window boxes straddle bin 0
        cov = covering_for(CoveringSpec(alpha=alpha, n=1))
        grid = (2048, 16.0)
        y = warp(freq_axis(*grid) + shift, alpha, 1)
        summed = list(range(math.floor(y.min() - cov.r0) - 1, math.ceil(y.max() + cov.r0) + 2))
        ks = summed[1::2]
        packed, _ = cov.sample_windows(ks, summed, grid, span, shift)
        assert np.array_equal(unpack(packed, 2048), segment_reference(cov, ks, grid, span, shift))
        bins, _, offsets = packed
        order = bins if span[0] == 0 else signed_bins(bins, 2048)
        assert all(np.all(np.diff(order[lo:hi]) > 0) for lo, hi in zip(offsets[:-1], offsets[1:]))

    @pytest.mark.parametrize("cap", [1, 3, 200])
    def test_chunk_cap_keeps_bits(self, monkeypatch, cap):
        # the pairs of consecutive windows are evaluated SAMPLE_PAIRS at a
        # time; a window never splits, so any cap gives the same bits
        cases = [(CoveringSpec(alpha=0.0, n=1), 4096, 2.0),
                 (CoveringSpec(alpha=0.5, n=2), 64, 1.0),
                 (CoveringSpec(alpha=0.0, n=2), 32, 1.0)]
        want = [build_partition(*case) for case in cases]
        cov = covering_for(CoveringSpec(alpha=0.5, n=1))
        sweep = ((0, 1, 2, 3), range(-2, 6), (2048, 32.0), (0, 2047), 4.75)
        sweep_want = cov.sample_windows(*sweep)
        monkeypatch.setattr(covering, "SAMPLE_PAIRS", cap)
        # each pass takes the frequencies of its pairs' bins once
        passes = []
        monkeypatch.setattr(covering, "bin_frequencies",
                            lambda m, N, L: passes.append(m.shape[-1]) or bin_frequencies(m, N, L))
        for (spec, N, L), part in zip(cases, want):
            passes.clear()
            got = build_partition(spec, N, L)
            for name in ("idx", "values", "offsets"):
                assert getattr(got, name).tobytes() == getattr(part, name).tobytes(), name
            # under a cap of one pair, each window with a bin is a pass of its own
            assert len(passes) >= (len(part.members) if cap == 1 else 2)
        (bins, samples, offsets), total = cov.sample_windows(*sweep)
        for a, b in zip((bins, samples, offsets, total), (*sweep_want[0], sweep_want[1])):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("alpha, grid", [(0.0, (32, 1.0)), (0.25, (32, 1.0))])
    def test_two_dim_under_a_small_cap(self, monkeypatch, alpha, grid):
        # 2-D boxes are products of their axes' bins, the first axis slowest
        monkeypatch.setattr(covering, "SAMPLE_PAIRS", 7)
        _assert_same_build(CoveringSpec(alpha=alpha, n=2), *grid,
                           lambda spec, N, L: _positive_bins(_reference_build_2d(spec, N, L)))


class TestHighAlpha:
    def test_near_dyadic_covering_builds(self):
        # at alpha = 0.9 the window scale grows like <k>^9, so only a few
        # windows fit any desk-scale band; the partition must still be exact
        part = build_partition(CoveringSpec(alpha=0.9, n=1), N=2 ** 13, L=2.0)
        report = verify_partition(part)
        assert report.sum_deviation <= 1e-10
        assert len(part.members) >= 3

    def test_gap_probe_matches_full_probe_up_to_098(self):
        for alpha in np.linspace(0.0, 0.98, 50).tolist():
            ks = np.arange(0, 514, dtype=float)
            y = warp_radius(ks * (1.0 + ks * ks) ** (alpha / (2 * (1 - alpha))), alpha)
            gap = Covering(CoveringSpec(alpha=alpha, n=1))._min_lattice_gap()
            assert gap == float(np.min(np.diff(y)))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [0.99, 0.995, 0.999])
    def test_gap_probe_stops_at_float_range(self, alpha, n):
        # beyond alpha = 0.983 the axis probe used to overflow and report a
        # negative gap
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                cov = Covering(CoveringSpec(alpha=alpha, n=n))
            except CoveringError as exc:   # two dimensions: the gap is too small
                assert "gap -" not in str(exc)
            else:
                assert cov._min_lattice_gap() > cov.r0 + cov.delta
        assert caught == []

    def test_lattice_beyond_float_range_at_one(self):
        with pytest.raises(CoveringError, match="float range"):
            Covering(CoveringSpec(alpha=0.9995, n=1))

    def test_unwarp_beyond_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            warp_radius_inv(3.0, 0.999)


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


def _reference_plateau_radius_1d(cov, k):
    """The one-dimensional inscribed plateau radius: the distance from the
    window centre to the nearer end of its plateau interval."""
    lo, hi = cov.plateau_interval(k)
    c, _ = ball_geometry(k, cov.alpha)
    return min(c - lo, hi - c)


class TestInscribedPlateauRadius:
    """One plateau formula serves every dimension; in one dimension it
    equals the plateau-interval form bit for bit."""

    def test_equals_plateau_interval_form_1d(self):
        feasible = 0
        for alpha in np.linspace(0.0, 0.98, 15).tolist():
            for c_big in (None, 0.5, 0.6, 0.7, 0.8, 0.9):
                try:
                    cov = Covering(CoveringSpec(alpha=alpha, n=1, c_big=c_big))
                except CoveringError:
                    continue
                feasible += 1
                for k in range(300):
                    assert (cov.inscribed_plateau_radius(k)
                            == _reference_plateau_radius_1d(cov, k)), (alpha, c_big, k)
        assert feasible == 83


class TestCoveringConstants:
    def test_plateau_fraction_positive(self):
        for alpha in [0.0, 0.25, 0.5, 0.75]:
            cov = Covering(CoveringSpec(alpha=alpha, n=1))
            assert cov.plateau_fraction(64) > 0.05

    def test_infeasible_constants_rejected(self):
        with pytest.raises(CoveringError):
            Covering(CoveringSpec(alpha=0.75, n=1, c_big=0.95))

    def test_window_sum_below_floor(self, capsys):
        # support 0.45 leaves gaps in the unit lattice where no window reaches
        with pytest.raises(CoveringError, match="dipped below floor"):
            build_partition(CoveringSpec(alpha=0.0, n=1, c_big=0.45), N=1024, L=8.0)
        assert main(["covering", "--alpha", "0", "--alpha-constants", "0.3,0.45",
                     "--grid", "1024,8"]) == EXIT_INTERNAL
        assert "dipped below floor" in capsys.readouterr().err
