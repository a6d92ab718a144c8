"""Numerical estimation of localized operator norms and their growth rates.

Every quantity here is a measured lower bound: a test function is pushed
through an honestly applied frequency-localization window and the ratio of
covering norms is recorded.  Sweeping the window index over octaves and
fitting the log-log slope reproduces the closed-form growth exponents of
the index calculus; the three witness families (matched-scale bump,
anchor-scale bump, translated bump sum) each attain one affine term of the
index, and the maximum over witnesses attains the full piecewise-linear
rate.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .covering import (Covering, CoveringSpec, Partition, ball_geometry, bin_frequencies,
                       build_partition, covering_for, freq_axis, grid_span, warp,
                       window_base)
from .errors import DomainError, GeometryError, ParameterError, TruncationError
# box_apply and witness_bump are unused here; bench/spans.py traces them here too
from .grids import (box_apply, bump_train, check_band_limit, from_spectrum, lp_quasinorm,
                    random_band_limited, smoothness_weights, space_norm, weighted_lq,
                    window_lp_norms, witness_band, witness_bump, witness_fraction)
from .indices import (TERM_LABELS, SpaceParams, embedding_decide, growth_index,
                      seq_multiplier_norm_closed)

SLOPE_TOLERANCE = 0.15
# the most grid points any one measurement may sample; read at call time
DEFAULT_BUDGET = 2 ** 16


@dataclass(frozen=True)
class OpNormSample:
    j: int                      # octave index of the window scale
    k: int                      # window index on the positive axis
    witness: str
    lower_bound: float
    eff_logscale: float         # log2 of the realized window scale


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    r2: float
    samples: list               # (scale index, log2 value) pairs


def exponent_fit(samples) -> ExponentFit:
    """Least-squares slope of log2(value) against the scale index."""
    pts = [(float(j), float(v)) for j, v in samples]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 samples, got {len(pts)}")
    for _, v in pts:
        if not v > 0:
            raise DomainError(f"values must be positive, got {v}")
    xs = np.array([p[0] for p in pts])
    ys = np.log2([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(slope=float(slope), intercept=float(intercept), r2=r2,
                       samples=list(zip(xs.tolist(), ys.tolist())))


# -- grid planning -----------------------------------------------------------

def lab_covering(alpha: float) -> Covering:
    """The one-dimensional covering with default constants that the sweeps
    measure on; alpha is taken as its exact float, so every layer of one
    sweep agrees on the covering of alpha."""
    return covering_for(CoveringSpec(alpha=float(alpha), n=1))


@functools.lru_cache(maxsize=48)
def partition_for(alpha: float, N: int, L: float) -> Partition:
    """The shared lab partition of alpha on the (N, L) grid: built on the
    spec of lab_covering(alpha), or the dyadic one at alpha = 1."""
    return build_partition(CoveringSpec(alpha=float(alpha), n=1), N=N, L=L)


# bench/workloads.py clears lab partitions before each cold sweep through
# this name; coverings stay cached
_partition_cache = SimpleNamespace(clear=partition_for.cache_clear)


def _next_pow2(x: float) -> int:
    return 1 << max(4, int(math.ceil(math.log2(max(x, 16.0)))))


def anchor_for_octave(j: int, alpha_top: float) -> int:
    """Window index on the coarse covering whose scale is nearest 2^j."""
    target = 2.0 ** (2.0 * j * (1.0 - alpha_top))
    return max(1, int(round(math.sqrt(max(target - 1.0, 0.0)))))


def eff_logscale(k: int, alpha_top: float) -> float:
    return 0.5 * math.log2(1.0 + k * k) / (1.0 - alpha_top)


def matched_fine_index(k: int, a: float, b: float) -> int:
    """Fine-covering index whose scale matches window k of the coarse covering."""
    target = (1.0 + k * k) ** ((1.0 - a) / (1.0 - b))
    l0 = int(round(math.sqrt(max(target - 1.0, 0.0))))
    frac = witness_fraction(lab_covering(a))
    plateau = lab_covering(b).plateau_interval(k)
    best, best_err = l0, math.inf
    for l in range(max(0, l0 - 3), l0 + 4):
        center, scale = ball_geometry(l, a)
        err = abs(math.log2((1.0 + l * l) ** ((1.0 - b) / (2 * (1.0 - a)))
                            / math.sqrt(1.0 + k * k)) if l else math.inf)
        absorbed = (plateau[0] <= center - frac * scale
                    and center + frac * scale <= plateau[1])
        score = (0 if absorbed else 10) + err
        if score < best_err:
            best, best_err = l, score
    return best


def lab_safe_radius(alpha: float, grid: tuple) -> tuple:
    """Largest usable window index and safe radius of the lab partition of
    alpha on the grid (N, L), from geometry: the first window whose support
    reaches N/(2L) is not usable, and the safe radius stops at its inner edge."""
    N, L = grid
    cov, nyquist = lab_covering(alpha), N / (2.0 * L)
    k = cov.first_reaching(nyquist)
    return k - 1, min(cov.support_interval(k)[0], nyquist)


def plan_grid(source: SpaceParams, target: SpaceParams, k: int, *,
              l_fine: Optional[int] = None) -> Optional[tuple]:
    """Choose (N, L) so the single-bump witnesses anchored at window k fit:
    window k of the coarser lab covering is usable and its support lies inside
    the safe radii of both alphas; None if DEFAULT_BUDGET points cannot."""
    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    # more than c grid points are needed for a window centred at c, so none
    # fits beyond DEFAULT_BUDGET; further out its geometry leaves float range
    try:
        center_k, scale_k = ball_geometry(k, b)
    except DomainError:
        return None
    if center_k > DEFAULT_BUDGET:
        return None
    cov_b = lab_covering(b)
    # the next coarse window must also be usable, or the safe window stops
    # short of the anchor's own support
    reach = cov_b.support_outer_radius(k + 2) * 1.02 + 2.0
    widths = [1.0 / (witness_fraction(cov_b) * scale_k)]
    if l_fine is not None:
        widths.append(1.0 / (witness_fraction(lab_covering(a)) * ball_geometry(l_fine, a)[1]))
    L = max(16.0, 12.0 * max(widths))
    N = _next_pow2(2.0 * L * reach)
    while N > DEFAULT_BUDGET and L > 18.0:
        L *= 0.75
        N = _next_pow2(2.0 * L * reach)
    outer_k = cov_b.support_outer_radius(k)
    while N <= DEFAULT_BUDGET:
        k_usable, safe_b = lab_safe_radius(b, (N, L))
        if k <= k_usable and min(safe_b, lab_safe_radius(a, (N, L))[1]) >= outer_k:
            return N, L
        N *= 2
    return None


def _packed_windows(alpha: float, grid: tuple, span: tuple, shift: float = 0.0,
                    ks=None) -> tuple:
    """(ks, (bins, samples, offsets)): windows ks of lab_covering(alpha),
    ascending, by default those meeting the segment span of the grid (N, L)
    shifted by shift (see Covering.sample_windows), sampled on that segment."""
    cov = lab_covering(alpha)
    N, L = grid
    # the segment's least and greatest signed bins: its ends, unless it wraps past N/2
    first, size = (span[0] + N // 2) % N - N // 2, span[1] - span[0]
    ends = [first, first + size] if first + size < N // 2 else [-(N // 2), N // 2 - 1]
    y_lo, y_hi = (float(y) for y in warp(bin_frequencies(ends, N, L) + shift, cov.alpha)
                  + [-cov.r0, cov.r0])
    meeting = [l for l in range(math.floor(y_lo) - 1, math.ceil(y_hi) + 2)
               if y_lo < cov.lattice_image(l) < y_hi]
    ks = meeting if ks is None else list(ks)
    return ks, cov.sample_windows(ks, sorted(set(meeting).union(ks)), grid, span, shift)[0]


def _band_ratio(k: int, source: SpaceParams, target: SpaceParams, spec: np.ndarray,
                grid: tuple, target_windows: tuple, source_windows: tuple) -> float:
    """Norm ratio of spec * eta_k in the target space over spec in the source
    space, s = 0, for a flat fft-layout spectrum on the grid (N, L); each
    side is measured on _packed_windows holding every window that meets the
    support of spec, and eta_k is window k of the coarser side."""
    N, L = grid
    a1, a2 = float(source.alpha), float(target.alpha)
    ks, (bins, samples, offsets) = target_windows if a2 >= a1 else source_windows
    boxed = np.zeros_like(spec)
    if k in ks:
        at = slice(offsets[ks.index(k)], offsets[ks.index(k) + 1])
        boxed[bins[at]] = spec[bins[at]] * samples[at]
    num = weighted_lq(window_lp_norms(boxed, *target_windows[1], (1, N, L), target.rp), target.rq)
    den = weighted_lq(window_lp_norms(spec, *source_windows[1], (1, N, L), source.rp), source.rq)
    if den == 0.0:
        raise GeometryError("witness has vanishing source norm")
    return num / den


def _safe_radii(source: SpaceParams, target: SpaceParams, grid: tuple) -> dict:
    """lab_safe_radius(alpha, grid) of the source's and the target's alpha, by alpha."""
    return {x: lab_safe_radius(x, grid) for x in {float(source.alpha), float(target.alpha)}}


def _bump_ratio(l: int, alpha: float, k: int, source: SpaceParams, target: SpaceParams,
                grid: tuple, radii: dict) -> float:
    """_band_ratio of the bump witness of window l of lab_covering(alpha): one
    bump profile dilated and centred to the window, at the bins of its band;
    radii are the _safe_radii of the two spaces on the grid."""
    N, L = grid
    b = max(float(source.alpha), float(target.alpha))
    center, scale, frac, creach = witness_band(l, alpha, lab_covering(alpha), N, L)
    # the band of the piece on the target covering, the witness's on the source's
    piece = min(creach, lab_covering(b).support_outer_radius(k))
    for limit, side in ((piece, target), (creach, source)):
        check_band_limit(limit, radii[float(side.alpha)][1])
    span = grid_span(center - frac * scale, center + frac * scale, N, L)
    m = np.arange(span[0], span[1] + 1)
    spec = np.zeros(N, dtype=complex)
    spec[m % N] = bump_train(bin_frequencies(m, N, L), [(center, scale)], 0.0, frac)
    return _band_ratio(k, source, target, spec, grid, _packed_windows(target.alpha, grid, span),
                       _packed_windows(source.alpha, grid, span))


def _spread_ratio(k: int, source: SpaceParams, target: SpaceParams) -> Optional[float]:
    """Norm ratio of the translated-sum witness, measured in demodulated
    coordinates.

    The witness is a bandpass signal: its spectrum sits inside the plateau
    of the anchor window, so shifting frequencies by the anchor center
    leaves every L^p magnitude unchanged while shrinking the Nyquist band
    to the plateau width.  Covering windows are sampled on the shifted
    grid, and their pieces measured by window_lp_norms.
    """
    from .covering import neighbor_set

    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    if a == b:
        members = [k]
    else:
        members = sorted(neighbor_set("GammaTilde", k, (a, b)))
        # below 3 absorbed windows the count-scaling regime has not set in
        # and the sample only adds boundary noise to the fit
        if len(members) < 3:
            return None
    frac = witness_fraction(lab_covering(a))
    c_ref, _ = ball_geometry(k, b)
    geo = {l: ball_geometry(l, a) for l in members}
    wmax = max(1.0 / (frac * geo[l][1]) for l in members)
    count = len(members)
    coarse, fine = (k - 1, k, k + 1), range(members[0] - 2, members[-1] + 3)
    # the target's windows, then the source's
    windows = ((a2, coarse), (a1, fine)) if a1 <= a2 else ((a2, fine), (a1, coarse))

    def measure(sep: float) -> Optional[float]:
        pitch = sep * wmax
        span = (count - 1) * pitch + 8.0 * wmax
        L = max(24.0, span / 0.7)
        band = max(abs(geo[l][0] - c_ref) + frac * geo[l][1] for l in members)
        band = band * 1.05 + 8.0 / L + 0.5
        N = _next_pow2(2.0 * L * band)
        if N > DEFAULT_BUDGET:
            return None
        # the whole grid in fft layout, shifted by the anchor centre
        spec = bump_train(freq_axis(N, L) + c_ref, [geo[l] for l in members], pitch, frac)
        return _band_ratio(k, source, target, spec, (N, L),
                           *(_packed_windows(x, (N, L), (0, N - 1), c_ref, ks)
                             for x, ks in windows))

    value = measure(3.0)
    value = measure(2.0) if value is None else value
    if value is None:
        return None
    if count > 1:
        check = measure(6.0)
        if check is not None and abs(check - value) > 0.02 * max(check, value):
            value = check
    return value


# -- operator-norm lower bounds ---------------------------------------------

def _check_sweep(kind: str, source: SpaceParams, target: SpaceParams, *, shared_q: bool):
    """Raise ParameterError naming the kind of sweep unless n = 1, q is shared
    (when shared_q), 1/p2 <= 1/p1 and alpha < 1, checked in that order."""
    if source.n != 1 or target.n != 1:
        raise ParameterError(f"{kind} sweeps measure one-dimensional windows: they need n = 1")
    if shared_q and float(source.rq) != float(target.rq):
        raise ParameterError(f"{kind} sweeps are defined for a shared q")
    if float(target.rp) > float(source.rp):
        raise ParameterError(f"{kind} sweeps require 1/p2 <= 1/p1")
    if max(float(source.alpha), float(target.alpha)) >= 1.0:
        raise ParameterError(f"{kind} sweeps cover alpha < 1")


def box_opnorm_lower(k: int, source: SpaceParams, target: SpaceParams,
                     grid: tuple) -> list:
    """Witness-function lower bounds for the localized operator norm at k:
    one sample per witness family of TERM_LABELS, the bump witnesses on the
    lab grid (N, L) of plan_grid, the spread witness on its own demodulated
    grid (skipped when no window is absorbed or the budget is too small)."""
    _check_sweep("lower-bound", source, target, shared_q=False)
    radii = _safe_radii(source, target, grid)
    a, b = sorted((float(source.alpha), float(target.alpha)))
    eff = eff_logscale(k, b)
    ratios = (_bump_ratio(matched_fine_index(k, a, b), a, k, source, target, grid, radii),
              _bump_ratio(k, b, k, source, target, grid, radii),
              _spread_ratio(k, source, target))
    return [OpNormSample(j=int(round(eff)), k=k, witness=label, lower_bound=value,
                         eff_logscale=eff)
            for label, value in zip(TERM_LABELS, ratios) if value is not None]


def _check_count(name: str, value, least: int):
    if not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")


def box_opnorm_montecarlo(k: int, source: SpaceParams, target: SpaceParams,
                          grid: tuple, trials: int = 64, seed: int = 0) -> OpNormSample:
    """Random-input estimate of the same localized norm: the witnesses and
    random spectra on the usable windows of LambdaStar(k), inside the safe radii."""
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    a1, a2 = float(source.alpha), float(target.alpha)
    b = max(a1, a2)
    best = max(s.lower_bound for s in box_opnorm_lower(k, source, target, grid))
    from .covering import neighbor_set

    N, L = grid
    radii = _safe_radii(source, target, grid)
    cov_b = lab_covering(b)
    star = [l for l in sorted(neighbor_set("LambdaStar", k, b)) if abs(l) <= radii[b][0]]
    span = grid_span(cov_b.support_interval(star[0])[0],
                     cov_b.support_interval(star[-1])[1], N, L)
    windows = [_packed_windows(x, grid, span) for x in (a2, a1)]
    ks, (bins, _, offsets) = windows[0] if a2 >= a1 else windows[1]
    drawn = np.unique(np.concatenate([bins[offsets[i]:offsets[i + 1]]
                                      for i, l in enumerate(ks) if l in star]))
    reach = max(cov_b.support_outer_radius(l) for l in star)
    safe = min(radii[x][1] for x in (a1, a2))
    if reach > safe:
        drawn = drawn[np.abs(bin_frequencies((drawn + N // 2) % N - N // 2, N, L)) <= safe * 0.98]

    def one_trial(trial_seed: int) -> float:
        rng = np.random.default_rng(trial_seed)
        spec = np.zeros(N, dtype=complex)
        spec[drawn] = rng.standard_normal(drawn.size) + 1j * rng.standard_normal(drawn.size)
        try:
            return _band_ratio(k, source, target, spec, grid, *windows)
        except GeometryError:
            return 0.0

    best = max(best, max(one_trial(seed * 1000003 + t) for t in range(trials)))
    return OpNormSample(j=int(round(eff_logscale(k, b))), k=k,
                        witness="montecarlo", lower_bound=best,
                        eff_logscale=eff_logscale(k, b))


# -- growth-rate verification -------------------------------------------------

def growth_rate_check(source: SpaceParams, target: SpaceParams, j_range, *,
                      seed: int = 0) -> dict:
    """Sweep the localized-norm lower bounds over octaves and compare the
    fitted growth slopes with the closed-form index."""
    _check_sweep("rate", source, target, shared_q=True)
    js = sorted(j_range)
    if not js:
        raise ParameterError("octave range is empty")
    if js[-1] - js[0] < 3:
        raise ParameterError("octave range must span at least 4 octaves")
    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    predicted = growth_index(source.n, source.rp, target.rp, source.rq, a1, a2)
    samples = []
    skipped = []
    for j in js:
        # an octave whose windows leave float range has no grid either
        try:
            k = anchor_for_octave(j, b)
            l_fine = matched_fine_index(k, a, b)
        except (OverflowError, DomainError):
            grid = None
        else:
            grid = plan_grid(source, target, k, l_fine=l_fine)
        if grid is None:
            skipped.append({"j": j, "reason": "grid budget"})
            continue
        try:
            got = box_opnorm_lower(k, source, target, grid)
            samples.extend(got)
            if got[-1].witness != TERM_LABELS[-1]:
                skipped.append({"j": j, "reason": "spread witness unavailable"})
        except (GeometryError, TruncationError) as exc:
            skipped.append({"j": j, "reason": str(exc)})
    fits = {}
    for witness in TERM_LABELS:
        pts = [(s.eff_logscale, s.lower_bound) for s in samples
               if s.witness == witness and s.lower_bound > 0]
        if len(pts) >= 3:
            fits[witness] = exponent_fit(pts)
    slopes = {w: f.slope for w, f in fits.items()}
    if not slopes:
        raise GeometryError("no witness family produced a fittable sweep")
    max_slope = max(slopes.values())
    predicted_value = float(predicted.value)
    return {
        "source": _space_dict(source),
        "target": _space_dict(target),
        "seed": seed,
        "branch": predicted.branch,
        "predicted_terms": [float(t) for t in predicted.terms],
        "predicted_rate": predicted_value,
        "witness_slopes": {w: slopes.get(w) for w in TERM_LABELS},
        "witness_term_targets": {w: float(t) for w, t in zip(TERM_LABELS, predicted.terms)},
        "witness_fits": {w: asdict(f) for w, f in fits.items()},
        "max_slope": max_slope,
        "tolerance": SLOPE_TOLERANCE,
        "pass": abs(max_slope - predicted_value) <= SLOPE_TOLERANCE,
        "samples": [asdict(s) for s in samples],
        "skipped": skipped,
    }


def _space_dict(p: SpaceParams) -> dict:
    return {"rp": float(p.rp), "rq": float(p.rq), "s": float(p.s),
            "alpha": float(p.alpha), "n": p.n}


# -- sequence-multiplier brute force ------------------------------------------

def seq_multiplier_norm_bruteforce(a: dict, s1, s2, rq1, rq2, alpha,
                                   trials: int = 200, seed: int = 0) -> float:
    """Estimate the multiplier norm by direct optimization over inputs.

    Evaluates the defining ratio on the analytic extremal candidates
    (single-index mass for 1/q2 <= 1/q1, power-tilted weights otherwise)
    and on random restarts, returning the best ratio found.
    """
    if not isinstance(a, dict):
        raise ParameterError("brute force needs a finite sequence dict")
    if len(a) > 64:
        raise ParameterError("brute force is limited to 64 indices")
    if not a:
        return 0.0
    keys = sorted(a.keys(), key=str)
    avals = np.array([abs(a[k]) for k in keys], dtype=float)
    s1f, s2f, rq1f, rq2f, af = map(float, (s1, s2, rq1, rq2, alpha))
    bases = [window_base(k, af) for k in keys]
    w1 = smoothness_weights(bases, s1f, af)
    w2 = smoothness_weights(bases, s2f, af)

    def ratio(lam_vals) -> float:
        lam_vals = np.abs(np.asarray(lam_vals, dtype=float))
        if not lam_vals.any():
            return 0.0
        den = weighted_lq(lam_vals, rq1f, w1)
        if den == 0.0:
            return 0.0
        return weighted_lq(avals * lam_vals, rq2f, w2) / den

    b = np.where(w1 > 0, avals * w2 / w1, 0.0)

    best = 0.0
    for i in range(len(keys)):
        lam = np.zeros(len(keys))
        lam[i] = 1.0
        best = max(best, ratio(lam))
    rr = max(0.0, rq2f - rq1f)
    if rr > 0 and b.max() > 0:
        r = 1.0 / rr
        with np.errstate(divide="ignore"):
            lam = np.where((b > 0) & (w1 > 0), (b / b.max()) ** (r * rq1f) / w1, 0.0)
        best = max(best, ratio(lam))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        lam = np.exp(rng.standard_normal(len(keys)))
        if rng.random() < 0.5:
            lam *= rng.random(len(keys)) < 0.5
        best = max(best, ratio(lam))
    return best


# -- embedding consistency -----------------------------------------------------

GROWTH_SLOPE_THRESHOLD = 0.13
BOUNDARY_MARGIN = 0.2


def embedding_consistency_check(source: SpaceParams, target: SpaceParams,
                                truncation: int = 32, *, seed: int = 0) -> dict:
    """Compare truncated multiplier norms of measured localized-norm
    sequences against the closed-form embedding verdict.

    Growing truncations must accompany a non-embedding with clear margin;
    bounded truncations must accompany an embedding with clear margin.
    Verdicts within the boundary band are reported as skipped.
    """
    _check_sweep("consistency", source, target, shared_q=False)
    b = max(float(source.alpha), float(target.alpha))
    if truncation < 4:
        raise ParameterError(f"truncation must be at least 4, got {truncation}")
    verdict = embedding_decide(source, target)
    margin = float(verdict.margin)
    lower = {}
    for k in range(0, truncation + 1):
        grid = plan_grid(source, target, max(k, 1))
        if grid is None and k == 0:
            raise GeometryError("budget too small for the base grid")
        if grid is None:
            break
        lower[k] = (_bump_ratio(0, b, 0, source, target, grid,
                                _safe_radii(source, target, grid)) if k == 0 else
                    max(s.lower_bound for s in box_opnorm_lower(k, source, target, grid)))
    k_avail = max(lower)
    if k_avail < 4:
        raise GeometryError(
            f"the grid budget holds windows up to k = {k_avail}; the fit needs k = 4")
    truncations = sorted({max(2, k_avail // 8), max(3, k_avail // 4),
                          max(4, k_avail // 2), k_avail})
    norms = []
    for K in truncations:
        seq = {0: lower[0]}
        for k in range(1, K + 1):
            seq[k] = lower[k]
            seq[-k] = lower[k]
        norms.append(seq_multiplier_norm_closed(seq, source.s, target.s,
                                                source.rq, target.rq, b))
    slope = float(np.polyfit(np.log2(truncations), np.log2(norms), 1)[0])
    growing = slope >= GROWTH_SLOPE_THRESHOLD
    classification = "growing" if growing else "bounded"
    skipped = abs(margin) <= BOUNDARY_MARGIN
    # near the sharp boundary the truncated norms cannot distinguish the
    # two sides at this resolution, so no consistency claim is made
    consistent = True if skipped else growing == (not verdict.embeds)
    return {
        "source": _space_dict(source),
        "target": _space_dict(target),
        "seed": seed,
        "embeds": verdict.embeds,
        "margin": margin,
        "truncations": [int(t) for t in truncations],
        "multiplier_norms": [float(v) for v in norms],
        "growth_slope": slope,
        "classification": classification,
        "boundary_skip": skipped,
        "consistent": consistent,
        "k_max_measured": k_avail,
    }


# -- coarse-norm equivalence ---------------------------------------------------

def coarse_norm_ratio_check(params: SpaceParams, alpha2, trials: int = 20, *,
                            seed: int = 0) -> dict:
    """Ratio statistics between the two-layer norm and the direct norm."""
    from .grids import coarse_norm

    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    N, L = 2 ** 12, 8.0
    a1, a2 = float(params.alpha), float(alpha2)
    if a1 > a2:
        raise ParameterError("requires alpha1 <= alpha2")
    part1 = partition_for(a1, N, L)
    part2 = partition_for(a2, N, L)
    rng = np.random.default_rng(seed)
    radius = 0.75 * min(part1.safe_radius, part2.safe_radius)
    ratios = []
    for _ in range(trials):
        f = random_band_limited(1, N, L, radius, rng)
        two_layer = coarse_norm(f, a1, a2, params.s, params.rp, params.rq,
                                part1, part2)
        direct = space_norm(f, params, part1).value
        ratios.append(two_layer / direct)
    ratios = np.asarray(ratios)
    return {
        "alpha1": a1, "alpha2": a2, "seed": seed, "trials": trials,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "band": float(ratios.max() / ratios.min()),
    }


# -- dilation necessity --------------------------------------------------------

def dilation_necessity_check(rp1, rp2, n: int = 1) -> dict:
    """Slope of log norm-ratio under spectral shrinking.

    The ratio ||h_lam||_{p2} / ||h_lam||_{p1} scales like lam^{n(1/p1-1/p2)}
    as lam -> 0, so a positive 1/p2 - 1/p1 makes the ratio blow up,
    witnessing the necessity of the exponent ordering.
    """
    from .covering import bump_profile, freq_radius

    N, L, levels = 2 ** 9, 512.0, 5
    rp1f, rp2f = float(rp1), float(rp2)
    base_radius = 0.5
    lams = []
    truncated = False
    for m in range(levels):
        lam = 2.0 ** (-m)
        if 1.0 / (base_radius * lam) > L / 12.0:
            truncated = True
            break
        lams.append(lam)
    if len(lams) < 3:
        raise GeometryError("period too small for the dilation sweep")
    rho = freq_radius(n, N, L)
    logs = []
    for lam in lams:
        spec = bump_profile(rho / (base_radius * lam), 0.5, 1.0).astype(complex)
        h = from_spectrum(spec, n, N, L, band_limit=base_radius * lam)
        logs.append(math.log2(lp_quasinorm(h, rp2f) / lp_quasinorm(h, rp1f)))
    slope = float(np.polyfit(np.log2(lams), logs, 1)[0])
    return {
        "rp1": rp1f, "rp2": rp2f, "n": n,
        "levels": [float(l) for l in lams],
        "slope": slope,
        "expected_slope": n * (rp1f - rp2f),
        "sweep_truncated": truncated,
    }
