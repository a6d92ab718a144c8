"""Transforms, quasi-norms, covering norms, and witness functions on grids."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from alphamod.covering import (
    CoveringSpec,
    Partition,
    PartitionMember,
    ball_geometry,
    build_partition,
    freq_axis,
    freq_radius,
    neighbor_set,
)
from alphamod.errors import DomainError, ParameterError, TruncationError
from alphamod.grids import (
    BLOCK_POINTS,
    GridFunction,
    box_apply,
    builtin_function,
    bump_train,
    coarse_norm,
    from_spectrum,
    load_grid_function,
    load_grid_function_csv,
    lp_quasinorm,
    random_band_limited,
    sample_lp,
    save_grid_function,
    save_grid_function_csv,
    sequence_norm,
    space_norm,
    spectrum,
    weighted_lq,
    window_lp_norms,
    witness_bump,
    witness_support_fraction,
)
from alphamod.indices import SpaceParams


@pytest.fixture(scope="module")
def parts():
    built = {}
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        built[alpha] = build_partition(CoveringSpec(alpha=alpha, n=1), N=2 ** 12, L=8.0)
    return built


def sp(rp, rq, s, alpha, n=1):
    return SpaceParams(rp=rp, rq=rq, s=s, alpha=alpha, n=n)


class TestFourierTransform:
    """The transform pair spectrum / from_spectrum."""

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        f = GridFunction(1, 256, 4.0, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        back = from_spectrum(spectrum(f), 1, 256, 4.0)
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)

    def test_gaussian_self_dual(self):
        f = builtin_function("gaussian", 1, 2 ** 10, 16.0)
        spec = spectrum(f)
        xi = np.fft.fftfreq(f.N, d=f.L / f.N)
        assert np.max(np.abs(spec - np.exp(-math.pi * xi ** 2))) <= 1e-8

    def test_tone_is_delta(self):
        f = builtin_function("tone", 1, 512, 8.0)
        spec = spectrum(f)
        xi = np.fft.fftfreq(512, d=8.0 / 512)
        hot = np.argmax(np.abs(spec))
        assert xi[hot] == pytest.approx(3.0 / 8.0)
        assert spec[hot] == pytest.approx(8.0)
        rest = np.abs(spec)
        rest[hot] = 0.0
        assert np.max(rest) <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        f = GridFunction(1, 512, 4.0, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        spec = spectrum(f)
        space_sq = np.sum(np.abs(f.values) ** 2) * f.cell
        freq_sq = np.sum(np.abs(spec) ** 2) / f.L
        assert space_sq == pytest.approx(freq_sq, rel=1e-12)

    def test_two_dim_round_trip(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f = GridFunction(2, 64, 4.0, v)
        back = from_spectrum(spectrum(f), 2, 64, 4.0)
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(v)


class TestLpQuasinorm:
    def test_constant_on_period(self):
        f = GridFunction(1, 256, 3.0, np.ones(256, dtype=complex))
        assert lp_quasinorm(f, 0.5) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_gaussian_closed_form(self, p):
        f = builtin_function("gaussian", 1, 2 ** 12, 32.0)
        assert lp_quasinorm(f, 1.0 / p) == pytest.approx(p ** (-1.0 / (2 * p)), rel=1e-6)

    def test_gaussian_closed_form_2d(self):
        f = builtin_function("gaussian", 2, 2 ** 7, 16.0)
        # product structure: value is the 1d closed form squared
        assert lp_quasinorm(f, 0.5) == pytest.approx(2.0 ** (-0.5), rel=1e-6)

    def test_dilation_covariance(self):
        # analytic dilates of the gaussian; quadrature is spectrally accurate
        N, L = 2 ** 12, 64.0
        x = np.arange(N) * (L / N)
        x = np.where(x > L / 2, x - L, x)
        base = GridFunction(1, N, L, np.exp(-math.pi * x ** 2).astype(complex))
        for lam in (2.0, 4.0):
            g = GridFunction(1, N, L, np.exp(-math.pi * (x / lam) ** 2).astype(complex))
            for rp in (0.25, 0.5, 1.0):
                lhs = lp_quasinorm(g, rp)
                rhs = lam ** rp * lp_quasinorm(base, rp)
                assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_sup_norm(self):
        f = builtin_function("gaussian", 1, 512, 16.0)
        assert lp_quasinorm(f, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_power_sum_underflow(self):
        # 0.25^1000 underflows to 0: the row is summed over its maximum
        assert sample_lp(np.full(16, 0.25), 1 / 1000, 0.5) == pytest.approx(
            0.25 * 8.0 ** (1 / 1000), rel=1e-14)
        f = GridFunction(1, 16, 8.0, np.full(16, 1e-3))
        assert lp_quasinorm(f, 1 / 1000) == pytest.approx(1e-3 * 8.0 ** (1 / 1000), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_power_sum_overflow(self):
        assert sample_lp(np.full(16, 10.0), 1 / 400, 0.5) == pytest.approx(
            10.0 * 8.0 ** (1 / 400), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_rows_rescale_alone(self):
        rng = np.random.default_rng(3)
        plain = rng.random(64)
        mag = np.stack([plain, np.full(64, 10.0), np.zeros(64), np.full(64, 1e-3)])
        got = sample_lp(mag, 1 / 400, 0.25)
        assert got[0] == sample_lp(plain, 1 / 400, 0.25)
        assert got[0] == (np.sum(plain ** 400.0) * 0.25) ** (1 / 400)
        assert got[1] == pytest.approx(10.0 * 16.0 ** (1 / 400), rel=1e-14)
        assert got[2] == 0.0
        assert got[3] == pytest.approx(1e-3 * 16.0 ** (1 / 400), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_large_p_pieces_stay_nonzero(self):
        f = builtin_function("bump", 1, 2048, 8.0)
        part = build_partition(CoveringSpec(alpha=0.0, n=1), N=2048, L=8.0)
        pieces = space_norm(f, sp(Fraction(1, 1000), Fraction(1, 2), 0, 0), part).pieces
        low = space_norm(f, sp(Fraction(1, 200), Fraction(1, 2), 0, 0), part).pieces
        for k in (-1, 1):
            assert pieces[k] == pytest.approx(0.24993, rel=1e-4)
            assert low[k] == pytest.approx(0.2488, rel=1e-3)


class TestBoxApply:
    def test_plateau_absorption(self, parts):
        part = parts[0.5]
        f = witness_bump(3, 0.5, part)
        g = box_apply(f, part.member(3))
        assert np.max(np.abs(g.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_partition_reconstruction(self, parts):
        rng = np.random.default_rng(7)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            part = parts[alpha]
            f = random_band_limited(1, part.N, part.L, 0.8 * part.safe_radius, rng)
            total = np.zeros_like(f.values)
            for m in part.members:
                total = total + box_apply(f, m).values
            assert np.max(np.abs(total - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_two_dim_reconstruction(self):
        rng = np.random.default_rng(29)
        part = build_partition(CoveringSpec(alpha=0.25, n=2), N=2 ** 6, L=4.0)
        f = random_band_limited(2, part.N, part.L, 0.8 * part.safe_radius, rng)
        total = np.zeros_like(f.values)
        for m in part.members:
            total = total + box_apply(f, m).values
        assert np.max(np.abs(total - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_disjoint_windows_annihilate(self, parts):
        part = parts[0.5]
        f = witness_bump(3, 0.5, part)
        lam = neighbor_set("Lambda", 3, 0.5)
        far = [m for m in part.indices() if m not in lam][0]
        g = box_apply(box_apply(f, part.member(3)), part.member(far))
        assert np.max(np.abs(g.values)) <= 1e-13 * np.max(np.abs(f.values))

    def test_grid_mismatch(self, parts):
        f = builtin_function("gaussian", 1, 2 ** 10, 8.0)
        with pytest.raises(ParameterError):
            box_apply(f, parts[0.0].member(0))


class TestSpaceNorm:
    def test_single_plateau_window(self, parts):
        part = parts[0.25]
        f = witness_bump(4, 0.25, part)
        params = sp(0.5, 1.0, 1.25, 0.25)
        res = space_norm(f, params, part)
        weight = (1.0 + 16.0) ** (1.25 / (2 * 0.75))
        assert res.value == pytest.approx(weight * lp_quasinorm(f, 0.5), rel=1e-12)
        live = {k: v for k, v in res.pieces.items() if v > 1e-13 * res.value}
        assert set(live) == {4}

    def test_lq_monotonicity(self, parts):
        rng = np.random.default_rng(11)
        part = parts[0.0]
        f = random_band_limited(1, part.N, part.L, 0.7 * part.safe_radius, rng)
        v_sum = space_norm(f, sp(0.5, 1.0, 0.0, 0.0), part).value
        v_sup = space_norm(f, sp(0.5, 0.0, 0.0, 0.0), part).value
        assert v_sup <= v_sum + 1e-12

    def test_near_plancherel_band(self, parts):
        rng = np.random.default_rng(13)
        part = parts[0.5]
        ratios = []
        for _ in range(50):
            f = random_band_limited(1, part.N, part.L, 0.8 * part.safe_radius, rng)
            value = space_norm(f, sp(0.5, 0.5, 0.0, 0.5), part).value
            l2 = lp_quasinorm(f, 0.5)
            ratios.append(value / l2)
        ratios = np.asarray(ratios)
        assert ratios.max() / ratios.min() <= 4.0

    def test_band_limit_enforced(self, parts):
        part = parts[0.0]
        rng = np.random.default_rng(17)
        radius = 0.5 * (part.safe_radius + part.N / (2 * part.L))
        f = random_band_limited(1, part.N, part.L, radius, rng)
        assert f.band_limit > part.safe_radius
        with pytest.raises(TruncationError):
            space_norm(f, sp(0.5, 0.5, 0.0, 0.0), part)

    # the forward FFT of an inf sample warns before the norm rejects it
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, parts, bad):
        part = parts[0.5]
        values = np.array(witness_bump(3, 0.5, part).values)
        values[17] = bad
        for band_limit in (None, 10.0):
            f = GridFunction(1, part.N, part.L, values, band_limit=band_limit)
            with pytest.raises(DomainError, match="non-finite"):
                space_norm(f, sp(0.5, 0.5, 0.0, 0.5), part)
            with pytest.raises(DomainError, match="non-finite"):
                coarse_norm(f, 0.5, 0.5, 0.0, 0.5, 0.5, part, part)

    def test_dyadic_weights(self, parts):
        part = parts[1.0]
        f = witness_dyadic_tone(part)
        res = space_norm(f, sp(0.5, 0.5, 1.0, 1.0), part)
        live = [k for k, v in res.pieces.items() if v > 1e-12]
        assert live == [3]
        assert res.value == pytest.approx(2.0 ** 3 * res.pieces[3], rel=1e-12)


def witness_dyadic_tone(part):
    """Spectrum concentrated where only the j = 3 annulus is active."""
    xi = np.fft.fftfreq(part.N, d=part.L / part.N)
    target = 0.5 * ((4.0 / 3.0) * 4.0 + 1.5 * 8.0) / 2 + 4.0  # inside (16/3, 12) plateau-ish
    spec = np.exp(-((xi - 9.0) / 0.4) ** 2) * (np.abs(xi - 9.0) < 1.6)
    del target
    return from_spectrum(spec.astype(complex), 1, part.N, part.L, band_limit=11.0)


class TestSequenceNorm:
    def test_unit_mass_origin(self):
        for s in (-2.0, 0.0, 3.5):
            for alpha in (0.0, 0.5):
                assert sequence_norm({0: 1.0}, s, 0.5, alpha) == 1.0

    def test_power_sum_overflow(self):
        # 1e200 ** 2 overflows, the norm sqrt(3) * 1e200 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sequence_norm({0: 1e200, 1: 1e200, 2: 1e200}, 0, Fraction(1, 2), 0)
            assert got == 1.7320508075688773e200
            assert weighted_lq([3.0, 4.0], 0.5) == 5.0

    def test_power_sum_underflow(self):
        # (1e-200) ** 2 underflows to 0, the norm sqrt(2) * 1e-200 does not
        got = sequence_norm({0: 1e-200, 1: 1e-200}, 0, Fraction(1, 2), 0)
        assert got == 1.4142135623730951e-200
        assert weighted_lq([0.0, 0.0], 0.5) == 0.0

    def test_dyadic_telescoping_sup(self):
        lam = {j: 2.0 ** (-j) for j in range(11)}
        assert sequence_norm(lam, 1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_tail_convergence(self):
        # s < -n(1-alpha)/q makes the full lattice sum finite; increments
        # must shrink and stay under the integral tail bound
        s, rq, alpha = -1.5, 1.0, 0.0
        totals = []
        for K in (50, 100, 200, 400):
            lam = {k: 1.0 for k in range(-K, K + 1)}
            totals.append(sequence_norm(lam, s, rq, alpha))
        increments = np.diff(totals)
        assert all(increments > 0)
        assert increments[-1] < increments[0]
        for K, inc in zip((50, 100, 200), increments):
            tail_bound = 2.0 * K ** (s + 1.0) / (-(s + 1.0))
            assert inc <= tail_bound


class TestCoarseNorm:
    def test_equal_alpha_band(self, parts):
        rng = np.random.default_rng(19)
        part = parts[0.5]
        for _ in range(5):
            f = random_band_limited(1, part.N, part.L, 0.7 * part.safe_radius, rng)
            c = coarse_norm(f, 0.5, 0.5, 0.0, 0.5, 0.5, part, part)
            s = space_norm(f, sp(0.5, 0.5, 0.0, 0.5), part).value
            assert 0.25 <= c / s <= 4.0

    def test_single_plateau_collapses(self, parts):
        f = witness_bump(5, 0.5, parts[0.5])
        c = coarse_norm(f, 0.0, 0.5, 0.0, 0.5, 1.0, parts[0.0], parts[0.5])
        s = space_norm(f, sp(0.5, 1.0, 0.0, 0.0), parts[0.0]).value
        assert c == pytest.approx(s, rel=1e-10)

    def test_alpha_order_enforced(self, parts):
        f = builtin_function("bump", 1, 2 ** 12, 8.0)
        with pytest.raises(ParameterError):
            coarse_norm(f, 0.5, 0.0, 0.0, 0.5, 0.5, parts[0.5], parts[0.0])

    def test_partitions_on_other_grids(self, parts):
        # parts live on (4096, 8); the other partition on (2048, 8) or (4096, 4)
        rng = np.random.default_rng(37)
        for N, L in ((2 ** 11, 8.0), (2 ** 12, 4.0)):
            other = build_partition(CoveringSpec(alpha=0.5, n=1), N=N, L=L)
            f = random_band_limited(1, 2 ** 12, 8.0, 10.0, rng)
            with pytest.raises(ParameterError, match="grid mismatch"):
                coarse_norm(f, 0.25, 0.5, 0.0, 0.5, 0.5, parts[0.25], other)
            g = random_band_limited(1, N, L, 10.0, rng)
            with pytest.raises(ParameterError, match="grid mismatch"):
                coarse_norm(g, 0.25, 0.5, 0.0, 0.5, 0.5, parts[0.25], other)


# -- the per-window loop that space_norm and coarse_norm ran before the
# vectorised kernel, kept as the reference the kernel must match bit for bit

def _reference_lp(f, rp):
    rp = float(rp)
    mag = np.abs(f.values)
    if rp == 0.0:
        return float(mag.max())
    p = 1.0 / rp
    return float((np.sum(mag ** p) * f.cell ** f.n) ** rp)


def _reference_weight(index, s, alpha):
    if alpha == 1.0:
        return 2.0 ** (index * s)
    ksq = float(np.sum(np.square(np.atleast_1d(np.asarray(index, dtype=float)))))
    return (1.0 + ksq) ** (s / (2.0 * (1.0 - alpha)))


def _reference_weighted_lq(pieces, s, rq, alpha):
    s, rq, alpha = float(s), float(rq), float(alpha)
    if not pieces:
        return 0.0
    vals = np.array([_reference_weight(k, s, alpha) * v for k, v in pieces.items()])
    if rq == 0.0:
        return float(vals.max())
    q = 1.0 / rq
    return float(np.sum(vals ** q) ** rq)


def _reference_pieces(spec, rp, partition):
    """Per-window L^p pieces of a flat spectrum on the partition's grid; an
    empty window (on which the old loop raised) counts as 0, as the kernel
    defines it."""
    n, N, L = partition.n, partition.N, partition.L
    peak = float(np.abs(spec).max()) if spec.size else 0.0
    pieces = {}
    for m in partition.members:
        local = spec[m.idx]
        if peak == 0.0 or m.idx.size == 0 or float(np.abs(local).max()) <= 1e-16 * peak:
            pieces[m.index] = 0.0
            continue
        out = np.zeros_like(spec)
        out[m.idx] = local * m.values
        piece = from_spectrum(out, n, N, L, band_limit=partition.safe_radius)
        pieces[m.index] = _reference_lp(piece, rp)
    return pieces


def _reference_coarse_norm(f, s, rp, rq, partition1, partition2, round_trip=False):
    """The two-layer norm, each coarse piece localized in the spectral
    domain; round_trip takes each piece back to samples (box_apply) and
    transforms it forward again, as coarse_norm did before it measured
    pieces from their spectra."""
    spec = spectrum(f)
    peak = float(np.abs(spec).max()) if spec.size else 0.0
    outer = {}
    for m in partition2.members:
        local = spec[m.idx]
        if peak == 0.0 or float(np.abs(local).max()) <= 1e-16 * peak:
            outer[m.index] = 0.0
            continue
        if round_trip:
            piece = spectrum(box_apply(f, m))
        else:
            piece = np.zeros_like(spec)
            piece[m.idx] = local * m.values
        outer[m.index] = _reference_weighted_lq(
            _reference_pieces(piece, rp, partition1), 0, rq, partition1.alpha)
    return _reference_weighted_lq(outer, s, rq, partition2.alpha)


# relative difference allowed between a norm measured from a spectrum and
# the same norm measured after an inverse/forward FFT round trip
ROUND_TRIP_RTOL = 1e-12


_RPS = (0, Fraction(1, 2), 1, Fraction(3, 2))
_RQS = (0, Fraction(1, 2), 1)
_SS = (0, Fraction(3, 4), Fraction(-1, 2))


@pytest.fixture(scope="module")
def small_parts():
    built = {(a, 1): build_partition(CoveringSpec(alpha=float(a), n=1), N=2 ** 10, L=4.0)
             for a in (0, Fraction(1, 4), Fraction(1, 2), 1)}
    built[(Fraction(1, 2), 2)] = build_partition(CoveringSpec(alpha=0.5, n=2), N=64, L=1.0)
    return built


def _with_empty_windows(part):
    """The partition plus two windows that hold no bin, one amid the
    members and one last."""
    def empty(index):
        return PartitionMember(index=index, center=0.0, scale=1.0,
                               support_radius=0.0,
                               idx=np.zeros(0, dtype=np.intp), values=np.zeros(0),
                               grid_N=part.N, grid_L=part.L)
    members = list(part.members)
    members.insert(len(members) // 2, empty(10 ** 6))
    members.append(empty(10 ** 6 + 1))
    return Partition(alpha=part.alpha, n=part.n, N=part.N, L=part.L,
                     safe_radius=part.safe_radius, members=members,
                     covering=part.covering, spec=part.spec)


def _reference_window_norms(spec_flat, bins, samples, offsets, grid, rp):
    """One inverse FFT per window, as the kernel ran before it transformed
    windows in blocks."""
    n, N, L = grid
    norms = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        buf = np.zeros(N ** n, dtype=complex)
        buf[bins[lo:hi]] = spec_flat[bins[lo:hi]] * samples[lo:hi]
        piece = GridFunction(n, N, L, np.fft.ifftn(buf.reshape((N,) * n)) * (N / L) ** n)
        norms.append(_reference_lp(piece, rp))
    return norms


def _random_windows(rng, size, count):
    """count packed windows of 1 to 64 distinct random bins each."""
    chosen = [np.sort(rng.choice(size, rng.integers(1, 65), replace=False))
              for _ in range(count)]
    offsets = np.cumsum([0] + [c.size for c in chosen])
    bins = np.concatenate(chosen)
    return bins, rng.random(bins.size) + 0.01, offsets


_COARSE_PAIRS = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), 1), (0, 0)]


def _coarse_cases(small_parts, pair):
    a1, a2 = pair
    p1, p2 = small_parts[(a1, 1)], small_parts[(a2, 1)]
    rng = np.random.default_rng(31)
    f = random_band_limited(1, p1.N, p1.L, 0.5 * min(p1.safe_radius, p2.safe_radius), rng)
    for rp, rq, s in ((Fraction(1, 2), Fraction(1, 2), 0), (1, 1, Fraction(3, 4)),
                      (Fraction(3, 2), 0, Fraction(-1, 2))):
        yield f, s, rp, rq, p1, p2


class TestKernelBitIdentity:
    """window_lp_norms, space_norm and coarse_norm equal the old per-window
    loop bit for bit."""

    def _check(self, f, alpha, part):
        for rp in _RPS:
            pieces = _reference_pieces(spectrum(f), rp, part)
            for rq in _RQS:
                for s in _SS:
                    res = space_norm(f, sp(rp, rq, s, alpha, part.n), part)
                    assert res.pieces == pieces
                    assert all(type(v) is float for v in res.pieces.values())
                    assert res.value == _reference_weighted_lq(pieces, s, rq, alpha)

    @pytest.mark.parametrize("key", [(0, 1), (Fraction(1, 4), 1), (Fraction(1, 2), 1),
                                     (1, 1), (Fraction(1, 2), 2)])
    def test_space_norm(self, small_parts, key):
        alpha, n = key
        part = small_parts[key]
        rng = np.random.default_rng(23)
        f = random_band_limited(n, part.N, part.L, 0.6 * part.safe_radius, rng)
        self._check(f, alpha, part)

    def test_zero_function(self, small_parts):
        part = small_parts[(Fraction(1, 4), 1)]
        f = GridFunction(1, part.N, part.L, np.zeros(part.N), band_limit=1.0)
        res = space_norm(f, sp(Fraction(1, 2), 1, 1, Fraction(1, 4)), part)
        assert res.value == 0.0
        assert set(res.pieces.values()) == {0.0}
        self._check(f, Fraction(1, 4), part)

    def test_windows_without_bins(self, small_parts):
        part = _with_empty_windows(small_parts[(Fraction(1, 2), 1)])
        rng = np.random.default_rng(29)
        f = random_band_limited(1, part.N, part.L, 0.6 * part.safe_radius, rng)
        res = space_norm(f, sp(1, Fraction(1, 2), 0, Fraction(1, 2)), part)
        assert res.pieces[10 ** 6] == res.pieces[10 ** 6 + 1] == 0.0
        self._check(f, Fraction(1, 2), part)

    def test_members_view_the_flat_arrays(self, small_parts):
        part = small_parts[(Fraction(1, 2), 2)]
        for i, m in enumerate(part.members):
            lo, hi = part.offsets[i], part.offsets[i + 1]
            assert m.idx.base is part.idx and m.values.base is part.values
            assert np.array_equal(m.idx, part.idx[lo:hi])
        assert part.offsets[-1] == part.idx.size == part.values.size

    @pytest.mark.parametrize("n, N", [(1, 2 ** 12), (2, 64), (1, 2 ** 15), (1, 2 ** 16)])
    def test_blocked_transforms(self, n, N):
        """The kernel transforms live windows in blocks of `rows`; numpy must
        give batched in-place inverse FFTs the bits of single-row ones, or
        this fails."""
        rows = max(1, BLOCK_POINTS // N ** n)
        # 1, rows - 1, rows, rows + 1 (a short last block reusing a
        # transformed row), three full blocks, two full blocks and a short one
        counts = sorted({1, max(1, rows - 1), rows, rows + 1, 3 * rows, 2 * rows + 3})
        rng = np.random.default_rng(N + n)
        grid = (n, N, 4.0)
        for count in counts:
            spec = rng.standard_normal(N ** n) + 1j * rng.standard_normal(N ** n)
            bins, samples, offsets = _random_windows(rng, N ** n, count)
            for rp in _RPS:
                got = window_lp_norms(spec, bins, samples, offsets, grid, rp)
                ref = _reference_window_norms(spec, bins, samples, offsets, grid, rp)
                assert got.tolist() == ref, (
                    f"numpy {np.__version__}: blocked inverse FFTs changed norms "
                    f"(n={n}, N={N}, windows={count}, rp={rp})")

    @pytest.mark.parametrize("pair", _COARSE_PAIRS)
    def test_coarse_norm(self, small_parts, pair):
        for f, s, rp, rq, p1, p2 in _coarse_cases(small_parts, pair):
            got = coarse_norm(f, pair[0], pair[1], s, rp, rq, p1, p2)
            assert got == _reference_coarse_norm(f, s, rp, rq, p1, p2)

    @pytest.mark.parametrize("pair", _COARSE_PAIRS)
    def test_coarse_norm_near_round_trip(self, small_parts, pair):
        for f, s, rp, rq, p1, p2 in _coarse_cases(small_parts, pair):
            got = coarse_norm(f, pair[0], pair[1], s, rp, rq, p1, p2)
            ref = _reference_coarse_norm(f, s, rp, rq, p1, p2, round_trip=True)
            assert got == pytest.approx(ref, rel=ROUND_TRIP_RTOL, abs=0)


def _band_mass_fraction_outside(f, radius):
    """Fraction of the spectral energy of f outside |xi| <= radius."""
    spec = spectrum(f)
    rho = freq_radius(f.n, f.N, f.L)
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(spec[rho > radius]) ** 2)) / total


class TestBandLimits:
    def test_declared_bands_hold(self, parts):
        rng = np.random.default_rng(31)
        part = parts[0.5]
        for f in (witness_bump(4, 0.5, part),
                  random_band_limited(1, part.N, part.L, 10.0, rng),
                  builtin_function("tone", 1, 512, 8.0),
                  builtin_function("bump", 1, 512, 8.0)):
            assert f.band_limit is not None
            assert _band_mass_fraction_outside(f, f.band_limit) <= 1e-10


class TestWitnessBump:
    def test_absorption(self, parts):
        part = parts[0.25]
        for l in (0, 2, 7):
            f = witness_bump(l, 0.25, part)
            g = box_apply(f, part.member(l))
            assert np.max(np.abs(g.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_dilation_law_per_scale_grids(self):
        # one covering, so one support fraction for every window
        alpha, C = 0.5, 64.0
        norms = {}
        for l in (0, 3, 7):
            _, scale = ball_geometry(l, alpha)
            L = C / scale
            N = 2 ** 12
            c, _ = ball_geometry(l, alpha)
            while N / (2 * L) <= abs(c) + 0.5 * scale:
                N *= 2
            part = build_partition(CoveringSpec(alpha=alpha, n=1), N=N, L=L)
            f = witness_bump(l, alpha, part)
            norms[l] = (scale, {rp: lp_quasinorm(f, rp) for rp in (0.0, 0.5, 1.0)})
        s0, base = norms[0]
        for l in (3, 7):
            s, vals = norms[l]
            for rp in (0.0, 0.5, 1.0):
                law = (s / s0) ** (1.0 - rp) * base[rp]
                assert vals[rp] == pytest.approx(law, rel=1e-8)

    def test_single_window_norm_identity(self, parts):
        part = parts[0.5]
        f = witness_bump(4, 0.5, part)
        res = space_norm(f, sp(1.0, 0.5, 0.0, 0.5), part)
        assert res.value == pytest.approx(lp_quasinorm(f, 1.0), rel=1e-12)

    def test_escaping_support_rejected(self, parts):
        part = parts[0.75]
        with pytest.raises(TruncationError):
            witness_bump(500, 0.75, part)


def spread_train(members, part):
    """The witness bumps of the given windows of part, translated 8 bump
    widths apart and summed."""
    frac = witness_support_fraction(part)
    bumps = [ball_geometry(l, part.alpha) for l in members]
    pitch = 8.0 * max(1.0 / (frac * scale) for _, scale in bumps)
    reach = max(abs(center) + frac * scale for center, scale in bumps)
    spec = bump_train(freq_axis(part.N, part.L), bumps, pitch, frac)
    return from_spectrum(spec, 1, part.N, part.L, band_limit=reach)


@pytest.fixture(scope="module")
def spread():
    N, L = 2 ** 14, 192.0
    part0 = build_partition(CoveringSpec(alpha=0.0, n=1), N=N, L=L)
    # the alpha = 0 windows that anchor 4 of the alpha = 1/2 covering absorbs
    members = sorted(neighbor_set("GammaTilde", 4, (0.0, 0.5)))
    return part0, spread_train(members, part0), members


class TestWitnessSpread:
    def test_singleton_equals_bump(self, parts):
        part = parts[0.25]
        F = spread_train([3], part)
        f = witness_bump(3, 0.25, part)
        assert np.max(np.abs(F.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_lp_almost_orthogonality(self, spread):
        part0, F, members = spread
        for rp in (0.5, 1.0):
            total = lp_quasinorm(F, rp) ** (1.0 / rp)
            per_term = sum(lp_quasinorm(witness_bump(l, 0.0, part0), rp) ** (1.0 / rp)
                           for l in members)
            assert abs(total - per_term) <= 0.01 * per_term

    def test_fine_norm_is_exact_lq(self, spread):
        part0, F, members = spread
        res = space_norm(F, sp(0.5, 1.0, 0.0, 0.0), part0)
        per_term = sum(lp_quasinorm(witness_bump(l, 0.0, part0), 0.5) for l in members)
        assert res.value == pytest.approx(per_term, rel=0.02)


class TestIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        f = GridFunction(1, 128, 2.5, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        path = tmp_path / "f.bin"
        save_grid_function(f, str(path))
        g = load_grid_function(str(path))
        assert g.N == f.N and g.L == f.L and g.n == f.n
        np.testing.assert_allclose(g.values, f.values, atol=0)

    def test_csv_round_trip(self, tmp_path):
        f = builtin_function("gaussian", 1, 64, 4.0)
        path = tmp_path / "f.csv"
        save_grid_function_csv(f, str(path))
        g = load_grid_function_csv(str(path))
        assert g.N == f.N
        assert g.L == pytest.approx(f.L)
        np.testing.assert_allclose(g.values, f.values, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_non_finite_sample_rejected(self, tmp_path, bad, fmt):
        values = np.array(builtin_function("bump", 1, 256, 8.0).values)
        values[100] = complex(bad, 0.0) if fmt == "bin" else complex(0.0, bad)
        f = GridFunction(1, 256, 8.0, values)
        path = str(tmp_path / f"f.{fmt}")
        save, load = ((save_grid_function, load_grid_function) if fmt == "bin"
                      else (save_grid_function_csv, load_grid_function_csv))
        save(f, path)
        with pytest.raises(ParameterError, match="every sample must be finite") as err:
            load(path)
        assert path in str(err.value)

    def test_two_dim_binary(self, tmp_path):
        rng = np.random.default_rng(27)
        f = GridFunction(2, 32, 2.0, rng.standard_normal((32, 32)) * 1j)
        path = tmp_path / "f2.bin"
        save_grid_function(f, str(path))
        g = load_grid_function(str(path))
        np.testing.assert_allclose(g.values, f.values, atol=0)


class TestBernsteinScaling:
    def test_support_radius_slope(self):
        # ratio of norms across a support sweep follows n(1/p1 - 1/p2)
        N, L = 2 ** 12, 64.0
        xi = np.fft.fftfreq(N, d=L / N)
        from alphamod.covering import bump_profile

        radii = [0.5, 1.0, 2.0, 4.0, 8.0]
        for rp1, rp2 in [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0), (0.5, 0.0)]:
            logs = []
            for R in radii:
                spec = bump_profile(np.abs(xi) / R, 0.4, 1.0).astype(complex)
                f = from_spectrum(spec, 1, N, L, band_limit=R)
                logs.append(math.log2(lp_quasinorm(f, rp2) / lp_quasinorm(f, rp1)))
            slope = np.polyfit(np.log2(radii), logs, 1)[0]
            assert abs(slope - (rp1 - rp2)) <= 0.1
