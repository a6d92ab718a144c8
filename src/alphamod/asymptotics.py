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

from .covering import (Covering, CoveringSpec, Partition, ball_geometry,
                       build_partition, covering_for, window_base)
from .errors import DomainError, GeometryError, ParameterError, TruncationError
from .grids import (
    WITNESS_SAFETY,
    # unused here; bench/spans.py traces box_apply at this name as well
    box_apply,
    bump_train,
    from_spectrum,
    localize,
    lp_quasinorm,
    random_band_limited,
    smoothness_weights,
    space_norm,
    spectrum,
    spectrum_norm,
    weighted_lq,
    window_lp_norms,
    witness_bump,
)
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


def lab_witness_fraction(alpha: float) -> float:
    """Support radius of the lab's witness bumps on the covering of alpha,
    as a fraction of the window scale."""
    return WITNESS_SAFETY * lab_covering(alpha).plateau_fraction(32)


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
    frac = lab_witness_fraction(a)
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


def plan_grid(source: SpaceParams, target: SpaceParams, k: int, *,
              l_fine: Optional[int] = None) -> Optional[dict]:
    """Choose (N, L) so the single-bump witnesses anchored at window k fit,
    and return the lab partitions of both alphas on it, keyed by float
    alpha; None if DEFAULT_BUDGET points cannot accommodate them."""
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
    frac_a = lab_witness_fraction(a)
    frac_b = lab_witness_fraction(b)
    widths = [1.0 / (frac_b * scale_k)]
    if l_fine is not None:
        _, scale_l = ball_geometry(l_fine, a)
        widths.append(1.0 / (frac_a * scale_l))
    L = max(16.0, 12.0 * max(widths))
    N = _next_pow2(2.0 * L * reach)
    while N > DEFAULT_BUDGET and L > 18.0:
        L *= 0.75
        N = _next_pow2(2.0 * L * reach)
    if N > DEFAULT_BUDGET:
        return None
    while True:
        partitions = {x: partition_for(x, N, L) for x in (a1, a2)}
        satisfied = (k in partitions[b]
                     and all(p.safe_radius >= cov_b.support_outer_radius(k)
                             for p in partitions.values()))
        if satisfied:
            return partitions
        N *= 2
        if N > DEFAULT_BUDGET:
            return None


def _packed_rows(rows):
    """Dense window rows as the bins, samples and offsets window_lp_norms takes."""
    bins, samples, offsets = [], [], [0]
    for row in rows:
        at = np.flatnonzero(row)
        bins.append(at)
        samples.append(row[at])
        offsets.append(offsets[-1] + at.size)
    return np.concatenate(bins), np.concatenate(samples), np.array(offsets)


def _spread_ratio(k: int, source: SpaceParams, target: SpaceParams) -> Optional[float]:
    """Norm ratio of the translated-sum witness, measured in demodulated
    coordinates.

    The witness is a bandpass signal: its spectrum sits inside the plateau
    of the anchor window, so shifting frequencies by the anchor center
    leaves every L^p magnitude unchanged while shrinking the Nyquist band
    to the plateau width.  Covering windows are sampled pointwise at the
    shifted frequencies, and their pieces measured by window_lp_norms.
    """
    from .covering import neighbor_set

    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    cov_b, cov_a = lab_covering(b), lab_covering(a)
    if a == b:
        members = [k]
    else:
        members = sorted(neighbor_set("GammaTilde", k, (a, b)))
        # below 3 absorbed windows the count-scaling regime has not set in
        # and the sample only adds boundary noise to the fit
        if len(members) < 3:
            return None
    frac = lab_witness_fraction(a)
    c_ref, _ = ball_geometry(k, b)
    geo = {l: ball_geometry(l, a) for l in members}
    wmax = max(1.0 / (frac * geo[l][1]) for l in members)
    count = len(members)

    def build(sep: float):
        pitch = sep * wmax
        span = (count - 1) * pitch + 8.0 * wmax
        L = max(24.0, span / 0.7)
        band = max(abs(geo[l][0] - c_ref) + frac * geo[l][1] for l in members)
        band = band * 1.05 + 8.0 / L + 0.5
        N = _next_pow2(2.0 * L * band)
        if N > DEFAULT_BUDGET:
            return None
        xi = np.fft.fftfreq(N, d=L / N) + c_ref
        return N, L, xi, bump_train(xi, [geo[l] for l in members], pitch, frac)

    def measure(built) -> float:
        N, L, xi, total = built
        eta_b = list(cov_b.normalized_windows((k - 1, k, k + 1), xi))
        boxed = total * eta_b[1]
        coarse = _packed_rows(eta_b)
        fine = _packed_rows(cov_a.normalized_windows(
            range(members[0] - 2, members[-1] + 3), xi))
        num_rows, den_rows = (coarse, fine) if a1 <= a2 else (fine, coarse)
        num = weighted_lq(window_lp_norms(boxed, *num_rows, (1, N, L), target.rp), target.rq)
        den = weighted_lq(window_lp_norms(total, *den_rows, (1, N, L), source.rp), source.rq)
        if den == 0.0:
            raise GeometryError("spread witness has vanishing source norm")
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


# -- operator-norm lower bounds ---------------------------------------------

def _norm_ratio(spec, band_limit, member, source: SpaceParams, target: SpaceParams,
                part1: Partition, part2: Partition) -> float:
    m1 = SpaceParams(rp=source.rp, rq=source.rq, s=0, alpha=source.alpha)
    m2 = SpaceParams(rp=target.rp, rq=target.rq, s=0, alpha=target.alpha)
    num = spectrum_norm(*localize(spec, member, band_limit), m2, part2).value
    den = spectrum_norm(spec, band_limit, m1, part1).value
    if den == 0.0:
        raise GeometryError("witness has vanishing source norm")
    return num / den


def box_opnorm_lower(k: int, source: SpaceParams, target: SpaceParams,
                     grid: dict) -> list:
    """Witness-function lower bounds for the localized operator norm at k.

    Produces one sample per witness family of TERM_LABELS, on the lab
    partitions of plan_grid; the spread witness runs on its own
    demodulated grid and is skipped when no window is absorbed or the
    budget is too small.
    """
    if float(target.rp) > float(source.rp):
        raise ParameterError("lower-bound sweeps require 1/p2 <= 1/p1")
    a1, a2 = float(source.alpha), float(target.alpha)
    a, b = min(a1, a2), max(a1, a2)
    member_k = grid[b].member(k)
    eff = eff_logscale(k, b)

    def bump_ratio(f):
        return _norm_ratio(spectrum(f), f.band_limit, member_k, source, target,
                           grid[a1], grid[a2])

    ratios = (bump_ratio(witness_bump(matched_fine_index(k, a, b), a, grid[a])),
              bump_ratio(witness_bump(k, b, grid[b])),
              _spread_ratio(k, source, target))
    return [OpNormSample(j=int(round(eff)), k=k, witness=label, lower_bound=value,
                         eff_logscale=eff)
            for label, value in zip(TERM_LABELS, ratios) if value is not None]


def _check_count(name: str, value, least: int):
    if not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")


def box_opnorm_montecarlo(k: int, source: SpaceParams, target: SpaceParams,
                          grid: dict, trials: int = 64, seed: int = 0) -> OpNormSample:
    """Random-input estimate of the same localized norm; maximizes over the
    witness functions plus random band-limited spectra near window k."""
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    a1, a2 = float(source.alpha), float(target.alpha)
    b = max(a1, a2)
    part_b, part_1, part_2 = grid[b], grid[a1], grid[a2]
    member_k = part_b.member(k)
    best = max(s.lower_bound for s in
               box_opnorm_lower(k, source, target, grid))

    from .covering import neighbor_set

    star = neighbor_set("LambdaStar", k, b)
    size = part_b.N ** part_b.n
    mask = np.zeros(size, dtype=bool)
    reach = 0.0
    for l in star:
        if l in part_b:
            m = part_b.member(l)
            mask[m.idx] = True
            reach = max(reach, float(np.abs(np.atleast_1d(m.center))[0]) + m.support_radius)
    safe = min(p.safe_radius for p in grid.values())
    if reach > safe:
        xi = np.abs(np.fft.fftfreq(part_b.N, d=part_b.L / part_b.N))
        mask &= xi <= safe * 0.98
        reach = safe * 0.98
    bins = np.nonzero(mask)[0]

    def one_trial(trial_seed: int) -> float:
        rng = np.random.default_rng(trial_seed)
        spec = np.zeros(size, dtype=complex)
        spec[bins] = rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)
        try:
            return _norm_ratio(spec, reach, member_k, source, target, part_1, part_2)
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
    if source.n != 1 or target.n != 1:
        raise ParameterError("rate sweeps measure one-dimensional windows: they need n = 1")
    if float(source.rq) != float(target.rq):
        raise ParameterError("rate sweeps are defined for a shared q")
    if float(target.rp) > float(source.rp):
        raise ParameterError("rate sweeps require 1/p2 <= 1/p1")
    if max(float(source.alpha), float(target.alpha)) >= 1.0:
        raise ParameterError("rate sweeps cover alpha < 1")
    js = sorted(j_range)
    if not js:
        raise ParameterError("octave range is empty")
    if js[-1] - js[0] < 3:
        raise ParameterError("octave range must span at least 4 octaves")
    a1, a2 = float(source.alpha), float(target.alpha)
    b = max(a1, a2)
    a = min(a1, a2)
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
    slopes = {}
    for witness in TERM_LABELS:
        pts = [(s.eff_logscale, s.lower_bound) for s in samples
               if s.witness == witness and s.lower_bound > 0]
        if len(pts) >= 3:
            fit = exponent_fit(pts)
            fits[witness] = fit
            slopes[witness] = fit.slope
    if not slopes:
        raise GeometryError("no witness family produced a fittable sweep")
    max_slope = max(slopes.values())
    predicted_value = float(predicted.value)
    report = {
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
    return report


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
    if source.n != 1 or target.n != 1:
        raise ParameterError("consistency sweeps measure one-dimensional windows: they need n = 1")
    if float(target.rp) > float(source.rp):
        raise ParameterError("consistency sweeps require 1/p2 <= 1/p1")
    a1, a2 = float(source.alpha), float(target.alpha)
    b = max(a1, a2)
    if b >= 1.0:
        raise ParameterError("consistency sweeps cover alpha < 1")
    if truncation < 4:
        raise ParameterError(f"truncation must be at least 4, got {truncation}")
    verdict = embedding_decide(source, target)
    margin = float(verdict.margin)
    lower = {}
    for k in range(0, truncation + 1):
        if k == 0:
            grid = plan_grid(source, target, 1)
            if grid is None:
                raise GeometryError("budget too small for the base grid")
            f = witness_bump(0, b, grid[b])
            lower[0] = _norm_ratio(spectrum(f), f.band_limit, grid[b].member(0),
                                   source, target, grid[a1], grid[a2])
            continue
        grid = plan_grid(source, target, k)
        if grid is None:
            break
        samples = box_opnorm_lower(k, source, target, grid)
        lower[k] = max(s.lower_bound for s in samples)
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
