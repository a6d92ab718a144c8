"""Frequency-covering geometry and smooth partitions of unity.

Windows of the covering with parameter alpha live on balls of radius
proportional to <k>^{alpha/(1-alpha)} around the distorted lattice points
<k>^{alpha/(1-alpha)} k.  All window profiles are built in "unwarped"
coordinates y = psi(xi) = xi <xi>^{-alpha}, where the covering becomes a
perturbed unit lattice; this makes the partition-of-unity, support and
plateau properties exact by construction and uniform in k, with constants
resolved per alpha from the measured minimal lattice gap and validated at
build time.  One sampler (Covering.sample_windows) serves partitions and
the sweeps' bands: it evaluates each profile only on the bins of a per-axis
box that holds its support and returns the windows packed.  One builder
serves n = 1 and n = 2 around it and checks the window sum and every
usable window's bins.

alpha = 1 uses the dyadic annuli of the classical Littlewood-Paley
decomposition instead (a radial bump equal to 1 on |xi| <= 4/3 and
supported in |xi| < 3/2, differenced across octaves).
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import CoveringError, DomainError, GeometryError, ParameterError, TruncationError

Index = Union[int, tuple]

# default warped-coordinate support radii per dimension; plateau radii are
# resolved per alpha from the measured minimal lattice gap
_DEFAULT_SUPPORT = {1: 0.75, 2: 0.84}
_PLATEAU_CAP = 0.23
_PLATEAU_FLOOR = 0.04
_SEPARATION_MARGIN = 0.02
_SUM_FLOOR = 1e-3
# (window, bin) pairs per pass of Covering.sample_windows, which bounds its memory
SAMPLE_PAIRS = 2 ** 12


def smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros(t.shape)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def bump_profile(r, plateau: float, support: float):
    """Radial bump: 1 on r <= plateau, 0 on r >= support, smooth between."""
    if not 0 < plateau < support:
        raise ParameterError("need 0 < plateau < support")
    return smooth_step((support - np.asarray(r, dtype=float)) / (support - plateau))


def warp(xi, alpha: float, n: int = 1):
    """y = xi <xi>^{-alpha}; for n >= 2 the last axis holds the components."""
    xi = np.asarray(xi, dtype=float)
    if n == 1:
        return xi * (1.0 + xi * xi) ** (-alpha / 2.0)
    r2 = np.sum(xi * xi, axis=-1, keepdims=True)
    return xi * (1.0 + r2) ** (-alpha / 2.0)


def warp_radius(rho, alpha: float):
    """|y| as a function of |xi| (monotone increasing for alpha < 1)."""
    return warp(rho, alpha)


def _norm(point) -> float:
    """Euclidean norm of one point; 1-D points are bare floats."""
    return abs(point) if isinstance(point, float) else float(np.linalg.norm(point))


def _distances(points: np.ndarray, center) -> np.ndarray:
    """Euclidean distances to center of points stored one per row (bare
    scalars for n = 1)."""
    d = points - center
    return np.abs(d) if d.ndim == 1 else np.linalg.norm(d, axis=-1)


def warp_radius_inv(y: float, alpha: float) -> float:
    """Invert warp_radius by bisection; y >= 0, alpha in [0, 1).

    Bisects on plain floats (scalar pow rounds as warp_radius does on a
    0-d array) and stops once a step leaves the bracket unchanged: every
    later step would repeat it, so the result equals that of all 200 steps.
    """
    if y < 0:
        raise DomainError("radius must be nonnegative")
    if y == 0.0:
        return 0.0
    if alpha == 0.0:
        return float(y)
    y = float(y)
    expo = -float(alpha) / 2.0
    try:
        lo, hi = 0.0, max(y, y ** (1.0 / (1.0 - alpha))) * 2.0 + 1.0
    except OverflowError:
        raise DomainError(
            f"the unwarped radius of {y} at alpha = {alpha} is beyond float range") from None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 + mid * mid) ** expo < y:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def ball_geometry(k: Index, alpha: float):
    """Center <k>^{alpha/(1-alpha)} k and scale <k>^{alpha/(1-alpha)}.

    Only defined for alpha < 1; dyadic members are addressed by octave j.
    A window whose centre squared leaves float range is a DomainError: the
    warp and the window profiles square it.
    """
    if not (0 <= alpha < 1):
        raise ParameterError(
            "ball geometry applies to alpha in [0, 1); use dyadic addressing at alpha = 1")
    expo = alpha / (2.0 * (1.0 - alpha))
    try:
        if isinstance(k, (int, np.integer)):
            kf = float(k)
            scale = float((1.0 + kf * kf) ** expo)
            center = scale * kf
            square = center * center
        else:
            with np.errstate(over="ignore"):
                kv = np.asarray(k, dtype=float)
                scale = float((1.0 + float(np.sum(kv * kv))) ** expo)
                center = scale * kv
                square = float(np.sum(center * center))
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise DomainError(f"window {k!r} at alpha = {alpha} is centred beyond float range")
    if np.ndim(k) == 0:
        return float(center), scale
    return center, scale


@dataclass(frozen=True)
class CoveringSpec:
    """Constants of one covering; None fields resolve to validated defaults.

    c_big is the window support radius, in warped coordinates (at alpha = 0
    these are plain frequency units); the plateau radius is resolved from it
    and the lattice gap.  c_small is the inner radius on which each window is
    required to stay positive.  k_max bounds |k|_inf (alpha < 1) or the
    octave j (alpha = 1).
    """

    alpha: float
    n: int = 1
    c_small: float = 0.4
    c_big: Optional[float] = None
    k_max: Optional[int] = None

    def __post_init__(self):
        if not (0 <= self.alpha <= 1):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.n not in (1, 2):
            raise ParameterError("coverings are implemented for n in {1, 2}")
        if self.c_small <= 0:
            raise ParameterError("c_small must be positive")


class Covering:
    """Resolved geometry of an alpha < 1 covering (no grid attached)."""

    def __init__(self, spec: CoveringSpec):
        if spec.alpha >= 1:
            raise ParameterError(
                "Covering handles alpha < 1; build_partition serves the dyadic case")
        self.spec = spec
        self.alpha = float(spec.alpha)
        self.n = spec.n
        self.r0 = float(spec.c_big) if spec.c_big is not None else _DEFAULT_SUPPORT[spec.n]
        gap = self._min_lattice_gap()
        self.delta = min(_PLATEAU_CAP, gap - self.r0 - _SEPARATION_MARGIN)
        if self.delta < _PLATEAU_FLOOR:
            raise CoveringError(
                f"covering constants infeasible at alpha={self.alpha}: support radius "
                f"{self.r0} leaves a plateau radius of {self.delta:.4f} (minimal lattice "
                f"gap {gap:.4f} - support - margin {_SEPARATION_MARGIN}), below the floor "
                f"{_PLATEAU_FLOOR}; a smaller support radius C (--alpha-constants c,C) "
                f"widens the plateau where the windows still cover")
        if not spec.c_small < self.r0:
            raise CoveringError("c_small must stay below the support radius c_big")
        # memos of plateau_fraction by probe and of window_radii by window
        self._plateau_fractions = {}
        self._radii = {}

    # -- lattice geometry -------------------------------------------------

    def lattice_image(self, k: Index):
        center, _ = ball_geometry(k, self.alpha)
        if self.n == 1:
            return center * (1.0 + center * center) ** (-self.alpha / 2.0)
        return warp(np.asarray(center, dtype=float), self.alpha, self.n)

    def _min_lattice_gap(self) -> float:
        # gaps between consecutive axis points k = 0, ..., 513, as far as
        # their centres squared stay in float range
        ks = np.arange(0, 514, dtype=float)
        with np.errstate(over="ignore"):
            centers = ks * (1.0 + ks * ks) ** (self.alpha / (2 * (1 - self.alpha)))
            centers = centers[np.isfinite(centers * centers)]
        if centers.size < 2:
            raise CoveringError(f"the lattice of alpha={self.alpha} leaves float range at k = 1")
        axis_gap = float(np.min(np.diff(warp_radius(centers, self.alpha))))
        if self.n == 1:
            return axis_gap
        # two dimensions: check near-diagonal pairs on a probe patch
        rng = range(-8, 9)
        pts = {}
        for kx in rng:
            for ky in rng:
                try:
                    c, _ = ball_geometry((kx, ky), self.alpha)
                except DomainError:
                    continue
                pts[(kx, ky)] = warp(np.asarray(c), self.alpha, 2)
        best = axis_gap
        offs = [(1, 0), (0, 1), (1, 1), (1, -1)]
        for (kx, ky), yk in pts.items():
            for dx, dy in offs:
                other = pts.get((kx + dx, ky + dy))
                if other is not None:
                    best = min(best, float(np.linalg.norm(yk - other)))
        return best

    # -- per-window intervals (exact for n = 1) ---------------------------

    def support_interval(self, k: int):
        if self.n != 1:
            raise ParameterError("interval geometry is one-dimensional")
        y = float(self.lattice_image(k))
        return (_signed_unwarp(y - self.r0, self.alpha),
                _signed_unwarp(y + self.r0, self.alpha))

    def plateau_interval(self, k: int):
        if self.n != 1:
            raise ParameterError("interval geometry is one-dimensional")
        y = float(self.lattice_image(k))
        return (_signed_unwarp(y - self.delta, self.alpha),
                _signed_unwarp(y + self.delta, self.alpha))

    def exact_one_interval(self, k: int):
        """Full interval on which the normalized window equals 1.

        This is the window's exclusive zone: between the neighbors'
        support edges the quotient construction leaves it as the only
        contributor, so it extends beyond the profile plateau (the
        separation validation guarantees it contains the plateau).
        """
        if self.n != 1:
            raise ParameterError("interval geometry is one-dimensional")
        lo = float(self.lattice_image(k - 1)) + self.r0
        hi = float(self.lattice_image(k + 1)) - self.r0
        return (_signed_unwarp(lo, self.alpha), _signed_unwarp(hi, self.alpha))

    def support_outer_radius(self, k: Index) -> float:
        """Radius about the origin containing the window support."""
        return self.window_radii(k)[3]

    def axis_window(self, k: int) -> Index:
        """Index of window k on the first axis: k, or (k, 0) for n = 2."""
        return k if self.n == 1 else (k,) + (0,) * (self.n - 1)

    def first_reaching(self, radius: float) -> int:
        """Least k >= 1 whose window on the first axis has a support
        reaching radius (support_outer_radius >= radius).  Window k sits
        near k in warped coordinates, so the scan starts there."""
        def reaches(k):
            return self.support_outer_radius(self.axis_window(k)) >= radius

        k = max(1, int(radius * math.hypot(1.0, radius) ** -self.alpha - self.r0) - 1)
        while k > 1 and reaches(k - 1):
            k -= 1
        while not reaches(k):
            k += 1
        return k

    def inscribed_plateau_radius(self, k: Index) -> float:
        """Largest ball about the window center on which the window is 1, from
        the plateau's radii about the origin, |y_k| -+ delta unwarped (in one
        dimension the ends of plateau_interval)."""
        yn = self.window_radii(k)[1]
        cn = _norm(ball_geometry(k, self.alpha)[0])
        inner = warp_radius_inv(max(yn - self.delta, 0.0), self.alpha)
        outer = warp_radius_inv(yn + self.delta, self.alpha)
        return max(min(outer - cn, cn - inner) if yn > self.delta else outer - cn, 0.0)

    def plateau_fraction(self, k_probe: int) -> float:
        """min_k inscribed plateau radius / scale, over |k| <= k_probe."""
        frac = self._plateau_fractions.get(k_probe)
        if frac is not None:
            return frac
        frac = math.inf
        for k in range(0, k_probe + 1):
            kk = self.axis_window(k)
            _, scale = ball_geometry(kk, self.alpha)
            frac = min(frac, self.inscribed_plateau_radius(kk) / scale)
        self._plateau_fractions[k_probe] = frac
        return frac

    def window_radii(self, k: Index) -> tuple:
        """Warped centre of window k, its norm, and the radii about the
        origin between which its support lies; memoised."""
        radii = self._radii.get(k)
        if radii is None:
            yk = self.lattice_image(k)
            yn = _norm(yk)
            radii = self._radii[k] = (yk, yn, warp_radius_inv(max(yn - self.r0, 0.0), self.alpha),
                                      warp_radius_inv(yn + self.r0, self.alpha))
        return radii

    def sample_windows(self, ks, summed, grid: tuple, span: tuple, shift: float = 0.0) -> tuple:
        """The windows eta_k = phi_k / sum_{l in summed} phi_l, k in ks (a
        subsequence of summed), on the bins m of span = (first, last), at
        most N with -N/2 <= first <= N/2, on every axis of the grid (N, L),
        bin m at frequency bin_frequencies(m, N, L) + shift.  Profiles are
        evaluated on per-axis boxes holding their supports, SAMPLE_PAIRS
        (window, bin) pairs at a time.  Returns ((bins, samples, offsets),
        total): window ks[i] holds the fft-layout positions bins[offsets[i]:
        offsets[i + 1]] in ascending m (flat order on two axes); total is the
        lattice sum on all N^n bins, added in summed order."""
        N, L = grid
        n, r0 = self.n, self.r0
        ks, summed = set(ks), list(summed)
        wanted = np.array([k in ks for k in summed], dtype=bool)
        centers, boxes = [], []
        for k in summed:
            yk, yn, inner, outer = self.window_radii(k)
            # xi = y t(|y|) with t increasing, so each axis of the support lies
            # between the ball's axis extremes times t at the extremes of |y|
            t_in = inner / (yn - r0) if yn > r0 else 1.0
            t_out = outer / (yn + r0)
            for c in np.atleast_1d(yk).tolist():
                lo = min((c - r0) * t_in, (c - r0) * t_out)
                hi = max((c + r0) * t_in, (c + r0) * t_out)
                first, last = grid_span(lo - shift, hi - shift, N, L)
                first = min(first, N)
                # the box's bins from span[0] on, then those below, listed as m + N
                start = max(first, span[0])
                ahead = max(min(last, span[1]) - start + 1, 0)
                behind = max(min(last, span[0] - 1, span[1] - N) - first + 1, 0)
                boxes.append((lo, hi, start, ahead + behind, ahead, first - start - ahead))
            centers.append(yk)
        centers, boxes = np.array(centers), np.array(boxes).reshape(-1, n, 6).T
        bounds, boxes = boxes[:2], boxes[2:].astype(np.intp)  # bins and counts: exact floats
        sizes = np.prod(boxes[1], axis=0)
        ends = np.cumsum(sizes)
        total = np.zeros(N ** n)
        rows, a = [(np.zeros(0, np.intp), np.zeros(0), np.zeros(0, np.intp))], 0
        while a < len(summed):
            b = max(int(np.searchsorted(ends, ends[a] - sizes[a] + SAMPLE_PAIRS, "right")), a + 1)
            win = np.repeat(np.arange(a, b), sizes[a:b])
            (lo, hi), (start, size, ahead, jump) = (np.repeat(x[..., a:b], sizes[a:b], axis=-1)
                                                    for x in (bounds, boxes))
            # the pair's bin on each axis of its window's box, the first axis slowest
            i = np.arange(ends[a] - sizes[a], ends[b - 1]) - (ends - sizes)[win]
            i = np.stack(np.divmod(i, size[1])) if n > 1 else i
            m = start + i + (i >= ahead) * jump
            xi = bin_frequencies(m, N, L) + shift
            # bins outside [lo, hi] hold no support, and a far one could overflow the warp
            keep = np.logical_and.reduce((xi >= lo) & (xi <= hi))
            win, xi = win[keep], xi.compress(keep, axis=1)
            bins = np.ravel_multi_index(m % N, (N,) * n)[keep]
            vals = bump_profile(_distances(warp(xi[0] if n == 1 else xi.T, self.alpha, n),
                                           centers[win]), self.delta, r0)
            keep = vals > 0.0
            np.add.at(total, bins[keep], vals[keep])
            keep &= wanted[win]
            rows.append((bins[keep], vals[keep],
                         np.bincount(win[keep] - a, minlength=b - a)[wanted[a:b]]))
            a = b
        bins, samples, counts = (np.concatenate(x) for x in zip(*rows))
        return (bins, samples / total[bins], np.concatenate(([0], np.cumsum(counts)))), total


def _signed_unwarp(y: float, alpha: float) -> float:
    return math.copysign(warp_radius_inv(abs(y), alpha), y)


@functools.lru_cache(maxsize=48)
def covering_for(spec: CoveringSpec) -> Covering:
    """The resolved covering of spec, shared by every caller passing an
    equal spec.  Coverings hold no state that changes their results."""
    return Covering(spec)


# -- index sets ------------------------------------------------------------

_RELATIONS = ("Lambda", "LambdaStar", "Gamma", "GammaTilde")


def _lattice_box(center: tuple, reach: int) -> list:
    """Lattice points within sup-distance reach of center, in lexicographic
    order; plain ints in one dimension."""
    points = itertools.product(*(range(c - reach, c + reach + 1) for c in center))
    return [p[0] for p in points] if len(center) == 1 else list(points)


def _lambda_members(cov: Covering, k: Index) -> set:
    """Windows whose warped support balls meet that of window k."""
    yk = cov.lattice_image(k)
    reach = int(math.ceil(2 * cov.r0 / 0.8)) + 1
    return {l for l in _lattice_box(k if cov.n > 1 else (k,), reach)
            if _norm(cov.lattice_image(l) - yk) < 2 * cov.r0}


def _scan_gamma_1d(cov_l: Covering, target, predicate) -> set:
    """Indices l of cov_l whose support satisfies predicate against target."""
    lo, hi = target
    mid = 0.5 * (lo + hi)
    l0 = int(round(float(warp(np.asarray(mid), cov_l.alpha))))
    members = set()
    if predicate(cov_l.support_interval(l0)):
        members.add(l0)
    for step in (1, -1):
        l = l0 + step
        misses = 0
        while misses < 3:
            if predicate(cov_l.support_interval(l)):
                members.add(l)
                misses = 0
            else:
                misses += 1
            l += step
    return members


def neighbor_set(relation: str, anchor: Index, alphas) -> frozenset:
    """Index sets of interacting windows, on the default coverings.

    Lambda / LambdaStar take a single alpha; Gamma / GammaTilde take
    (alpha1, alpha2) and collect the alpha1-windows whose supports meet
    (Gamma) or lie inside the exact-one region of (GammaTilde) the anchor
    window of the alpha2 covering.  Lambda sets compare warped centre
    distances in any dimension; Gamma sets use exact interval arithmetic
    and are one-dimensional.
    """
    if relation not in _RELATIONS:
        raise ParameterError(f"unknown relation {relation!r}; expected one of {_RELATIONS}")
    single = isinstance(alphas, (int, float)) or (
        hasattr(alphas, "__float__") and not isinstance(alphas, (tuple, list)))
    if relation in ("Lambda", "LambdaStar"):
        if not single:
            raise ParameterError(f"{relation} takes a single alpha")
        cov = covering_for(CoveringSpec(alpha=float(alphas), n=_dim_of(anchor)))
        lam = _lambda_members(cov, int(anchor) if cov.n == 1 else tuple(anchor))
        if relation == "LambdaStar":
            lam = set().union(*(_lambda_members(cov, m) for m in lam))
        return frozenset(lam)

    if single:
        raise ParameterError(f"{relation} takes a pair (alpha1, alpha2)")
    a1, a2 = (float(alphas[0]), float(alphas[1]))
    n = _dim_of(anchor)
    if n != 1:
        raise ParameterError("cross-covering index sets are implemented for n = 1")
    cov1 = covering_for(CoveringSpec(alpha=a1, n=1))
    cov2 = covering_for(CoveringSpec(alpha=a2, n=1))
    if relation == "Gamma":
        target = cov2.support_interval(int(anchor))
        members = _scan_gamma_1d(cov1, target, lambda s: s[0] < target[1] and target[0] < s[1])
    else:
        target = cov2.exact_one_interval(int(anchor))
        members = _scan_gamma_1d(cov1, target, lambda s: target[0] <= s[0] and s[1] <= target[1])
    return frozenset(members)


def _dim_of(anchor: Index) -> int:
    return 1 if np.ndim(anchor) == 0 else len(anchor)


def _sup_norm(k: Index) -> int:
    return max(map(abs, k)) if isinstance(k, tuple) else abs(k)


# -- sampled partitions ----------------------------------------------------

@dataclass
class PartitionMember:
    """One sampled window: eta_k^alpha on the grid, or a dyadic annulus."""

    index: Index                 # k (int or tuple) or octave j
    center: Union[float, np.ndarray]
    scale: float
    support_radius: float        # measured in frequency units, about center
    idx: np.ndarray              # flat indices into the fft-layout spectrum
    values: np.ndarray           # window samples at idx
    grid_N: int                  # grid the samples were taken on
    grid_L: float

    def __post_init__(self):
        # members are shared read-only after construction
        self.idx = np.asarray(self.idx, dtype=np.intp)
        self.values = np.asarray(self.values, dtype=float)
        self.idx.setflags(write=False)
        self.values.setflags(write=False)

    def dense(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        out[self.idx] = self.values
        return out


@dataclass
class Partition:
    """All usable windows of one covering sampled on a frequency grid."""

    alpha: float
    n: int
    N: int
    L: float
    safe_radius: float
    members: list
    covering: Optional[Covering] = None
    spec: Optional[CoveringSpec] = None
    _by_index: dict = field(default_factory=dict, repr=False)
    # the members' bins and samples back to back; window i owns
    # idx[offsets[i]:offsets[i + 1]], and its member holds views of them
    idx: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    # per window: the base of its smoothness weight (see window_base)
    bases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._by_index = {m.index: i for i, m in enumerate(self.members)}
        sizes = [m.idx.size for m in self.members]
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        self.idx = np.concatenate([m.idx for m in self.members] or [np.zeros(0, np.intp)])
        self.values = np.concatenate([m.values for m in self.members] or [np.zeros(0)])
        self.idx.setflags(write=False)
        self.values.setflags(write=False)
        for m, lo, hi in zip(self.members, self.offsets[:-1], self.offsets[1:]):
            m.idx = self.idx[lo:hi]
            m.values = self.values[lo:hi]
        self.bases = np.array([window_base(m.index, self.alpha) for m in self.members])

    def member(self, index: Index) -> PartitionMember:
        try:
            return self.members[self._by_index[index]]
        except KeyError:
            raise TruncationError(f"window {index!r} is not instantiated") from None

    def __contains__(self, index: Index) -> bool:
        return index in self._by_index

    def indices(self):
        return [m.index for m in self.members]


def window_base(index: Index, alpha: float) -> float:
    """Base b of the smoothness weight of a window or sequence index.

    The weight is b^{s/(2(1-alpha))} with b = 1 + |k|^2 = <k>^2 for alpha < 1,
    and 2^{js} with b = j for the dyadic octave j at alpha = 1.
    """
    if alpha == 1.0:
        if not isinstance(index, int) or index < 0:
            raise ParameterError(f"dyadic indices are octaves j >= 0, got {index!r}")
        return float(index)
    ks = index if isinstance(index, tuple) else (index,)
    if not all(isinstance(c, int) for c in ks):
        raise ParameterError(
            f"alpha < 1 indices are integers or integer tuples, got {index!r}")
    return 1.0 + sum(float(c) * float(c) for c in ks)


def freq_axis(N: int, L: float) -> np.ndarray:
    return np.fft.fftfreq(N, d=L / N)


def bin_frequencies(m, N: int, L: float) -> np.ndarray:
    """freq_axis(N, L)[m % N] of signed bins m, bit for bit, by fftfreq's formula."""
    return np.asarray(m) * (1.0 / (N * (L / N)))


def grid_span(lo: float, hi: float, N: int, L: float) -> tuple:
    """Signed bins (first, last) of the grid (N, L) holding [lo, hi], with one
    more on each side, inside the Nyquist band -N/2 <= m < N/2."""
    return max(math.floor(lo * L) - 1, -(N // 2)), min(math.ceil(hi * L) + 1, N // 2 - 1)


def freq_grid(n: int, N: int, L: float):
    """Frequency coordinates in fft layout; (N,) for n=1, (N,N,2) for n=2."""
    ax = freq_axis(N, L)
    return ax if n == 1 else np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)


def freq_radius(n: int, N: int, L: float) -> np.ndarray:
    """|xi| per flat fft-layout bin; inf where |xi| leaves float range."""
    xi = freq_grid(n, N, L)
    with np.errstate(over="ignore"):
        return (np.abs(xi) if n == 1 else np.linalg.norm(xi, axis=-1)).reshape(-1)


def build_partition(spec: CoveringSpec, N: int, L: float) -> Partition:
    """Sample the partition of unity on the (N, L) frequency grid.

    Only windows whose support lies inside the Nyquist band become usable
    members; every window touching the grid still enters the normalizing
    sum, so the members add to exactly 1 on the safe window |xi| <
    safe_radius.
    """
    if N & (N - 1):
        raise ParameterError("N must be a power of two")
    if L <= 0:
        raise ParameterError("period L must be positive")
    if spec.alpha == 1:
        return _build_dyadic(spec, N, L)
    return _build_alpha(covering_for(spec), spec, N, L)


def _build_alpha(cov: Covering, spec: CoveringSpec, N: int, L: float) -> Partition:
    n, r0, alpha = cov.n, cov.r0, cov.alpha
    f_nyq = N / (2.0 * L)

    def usable(k):
        # window k of the first axis lies inside the Nyquist band; one
        # centred beyond float range lies beyond it
        try:
            return cov.support_outer_radius(cov.axis_window(k)) < f_nyq
        except DomainError:
            return False

    # windows 1 to `crowd` of the first axis lie where the first coordinate
    # is positive: (N/2 - 1) N^(n-1) bins, each inside at most two of them
    crowd = max(N - 2, 0) * N ** (n - 1) + 1
    k_max = spec.k_max
    if (k_max is None or k_max >= crowd) and usable(crowd):
        raise GeometryError(
            f"a window of 1 to {crowd} on the first axis holds no grid bin: frequency "
            f"spacing {1.0 / L:g} is too coarse for alpha = {alpha:g}")
    if k_max is not None and (k_max < 1 or usable(k_max)):
        k_fit = k_max
    else:
        k_fit = cov.first_reaching(f_nyq) - 1
    if k_fit < 1:
        raise GeometryError("grid too small to hold any window beyond the origin")
    # the sums that normalize usable windows need every window meeting one
    # of them; the lattice gap exceeds the support radius, so two shells
    # beyond the usable windows hold them all
    summed = _lattice_box((0,) * n, k_fit + 2)
    kept, edge = [], math.inf
    for k in summed:
        _, yn, _, outer = cov.window_radii(k)
        if _sup_norm(k) <= k_fit and outer < f_nyq:
            kept.append(k)
        else:
            # safe radius: nearest non-usable window's inner support edge
            edge = min(edge, max(yn - r0, 0.0))
    # 1-D bins in ascending signed order, 2-D bins in ascending flat order,
    # as a scan of the whole grid lists them
    span = (-(N // 2), N // 2 - 1) if n == 1 else (0, N - 1)
    (idx, values, offsets), total = cov.sample_windows(kept, summed, (N, L), span)
    if float(total.min()) < _SUM_FLOOR:
        # only a problem where usable windows live; check inside their reach
        inside = freq_radius(n, N, L) <= max(cov.window_radii(k)[3] for k in kept)
        if float(total[inside].min()) < _SUM_FLOOR:
            raise CoveringError("window sum dipped below floor: constants too small")
    members = []
    for k, lo, hi in zip(kept, offsets[:-1], offsets[1:]):
        if lo == hi:
            raise GeometryError(
                f"window {k} holds no grid bin: frequency spacing {1.0 / L:g} "
                f"is too coarse for alpha = {alpha:g}")
        center, scale = ball_geometry(k, alpha)
        members.append(PartitionMember(
            index=k, center=center, scale=scale,
            support_radius=cov.window_radii(k)[3] - _norm(center),
            idx=idx[lo:hi], values=values[lo:hi], grid_N=N, grid_L=L))
    return Partition(alpha=alpha, n=n, N=N, L=L,
                     safe_radius=min(warp_radius_inv(edge, alpha), f_nyq), members=members,
                     covering=cov, spec=spec)


def dyadic_symbol(j: int, rho: np.ndarray) -> np.ndarray:
    """Littlewood-Paley annulus symbol at radius rho (j = 0 is the core bump)."""
    if j < 0:
        raise ParameterError("octave j must be nonnegative")
    phi_j = bump_profile(rho / 2.0 ** j, 4.0 / 3.0, 1.5)
    if j == 0:
        return phi_j
    return phi_j - bump_profile(rho / 2.0 ** (j - 1), 4.0 / 3.0, 1.5)


def _build_dyadic(spec: CoveringSpec, N: int, L: float) -> Partition:
    f_nyq = N / (2.0 * L)
    j_max = int(math.floor(math.log2(f_nyq / 1.5))) if f_nyq > 1.5 else -1
    if spec.k_max is not None:
        j_max = min(j_max, spec.k_max)
    if j_max < 1:
        raise GeometryError("grid too small for a dyadic decomposition")
    rho = freq_radius(spec.n, N, L)
    members = []
    for j in range(0, j_max + 1):
        vals = dyadic_symbol(j, rho)
        idx = np.nonzero(vals > 0.0)[0]
        members.append(PartitionMember(
            index=j, center=0.0 if spec.n == 1 else np.zeros(spec.n),
            scale=2.0 ** j, support_radius=1.5 * 2.0 ** j,
            idx=idx, values=vals[idx], grid_N=N, grid_L=L))
    return Partition(alpha=1.0, n=spec.n, N=N, L=L,
                     safe_radius=(4.0 / 3.0) * 2.0 ** j_max, members=members,
                     spec=spec)


# -- verification ----------------------------------------------------------

@dataclass
class PartitionReport:
    sum_deviation: float
    max_overlap: int
    support_leakage: float
    gradient_bound: float
    gradient_ratio: float
    safe_radius: float
    member_count: int


def verify_partition(partition: Partition) -> PartitionReport:
    """Numerical health report: sum-to-one, overlap, support, derivative scaling."""
    n, N = partition.n, partition.N
    xi = freq_grid(n, N, partition.L)
    xi = xi.reshape(N ** n, *xi.shape[n:])
    safe = freq_radius(n, N, partition.L) < partition.safe_radius
    total = np.zeros(N ** n)
    overlap = np.zeros(N ** n, dtype=int)
    leakage = 0.0
    grad_bounds = []
    dxi = 1.0 / partition.L
    for m in partition.members:
        total[m.idx] += m.values
        overlap[m.idx] += m.values > 1e-14
        out = _distances(xi[m.idx], m.center) > m.support_radius + 1.5 * dxi
        if out.any():
            leakage = max(leakage, float(np.max(np.abs(m.values[out]))))
        dense = np.fft.fftshift(m.dense(N ** n).reshape((N,) * n))
        grad = max(float(np.abs(np.diff(dense, axis=a)).max()) for a in range(n)) / dxi
        grad_bounds.append(grad * m.scale)
    grad_bounds = np.asarray(grad_bounds)
    positive = grad_bounds[grad_bounds > 1e-12]
    ratio = float(positive.max() / positive.min()) if positive.size else 1.0
    return PartitionReport(
        sum_deviation=float(np.max(np.abs(total[safe] - 1.0))) if safe.any() else math.inf,
        max_overlap=int(overlap.max()),
        support_leakage=leakage,
        gradient_bound=float(grad_bounds.max()),
        gradient_ratio=ratio,
        safe_radius=partition.safe_radius,
        member_count=len(partition.members),
    )


# -- export ----------------------------------------------------------------

_MAGIC = b"AMPT"
_VERSION = 1


def partition_rows(partition: Partition):
    """Rows (index, center, scale, support_radius) for tabular export."""
    rows = []
    for m in partition.members:
        if isinstance(m.index, tuple):
            index = " ".join(str(c) for c in m.index)
            center = " ".join(f"{c:.12g}" for c in np.atleast_1d(m.center))
        else:
            index = str(m.index)
            center = f"{float(np.atleast_1d(m.center)[0]):.12g}"
        rows.append({"index": index, "center": center,
                     "scale": f"{m.scale:.12g}",
                     "support_radius": f"{m.support_radius:.12g}"})
    return rows


def dump_partition_samples(partition: Partition, path: str):
    """Binary dump: 32-byte header then one record per member.

    Header: magic 'AMPT', u32 version, u32 n, u32 N, f64 L, f64 alpha
    (little-endian).  Record: u32 kind (0 alpha, 1 dyadic), i64 index[n],
    f64 center[n], f64 scale, f64 support_radius, u64 nbins, then nbins
    i64 flat bin indices and nbins f64 samples.
    """
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _MAGIC, _VERSION, partition.n, partition.N))
        fh.write(struct.pack("<dd", partition.L, partition.alpha))
        fh.write(struct.pack("<Q", len(partition.members)))
        kind = 1 if partition.alpha == 1.0 else 0
        for m in partition.members:
            idx_tuple = m.index if isinstance(m.index, tuple) else (m.index,) * 1
            idx_tuple = tuple(idx_tuple) + (0,) * (partition.n - len(idx_tuple))
            center = np.atleast_1d(np.asarray(m.center, dtype=float))
            fh.write(struct.pack("<I", kind))
            fh.write(struct.pack(f"<{partition.n}q", *[int(c) for c in idx_tuple]))
            fh.write(struct.pack(f"<{partition.n}d", *center))
            fh.write(struct.pack("<ddQ", m.scale, m.support_radius, m.idx.size))
            fh.write(m.idx.astype("<i8").tobytes())
            fh.write(m.values.astype("<f8").tobytes())


def load_partition_samples(path: str) -> dict:
    """Read back a binary partition dump as plain dicts."""
    with open(path, "rb") as fh:
        magic, version, n, N = struct.unpack("<4sIII", fh.read(16))
        if magic != _MAGIC:
            raise ParameterError(f"not a partition dump: bad magic {magic!r}")
        if version != _VERSION:
            raise ParameterError(f"unsupported dump version {version}")
        L, alpha = struct.unpack("<dd", fh.read(16))
        (count,) = struct.unpack("<Q", fh.read(8))
        members = []
        for _ in range(count):
            (kind,) = struct.unpack("<I", fh.read(4))
            index = struct.unpack(f"<{n}q", fh.read(8 * n))
            center = struct.unpack(f"<{n}d", fh.read(8 * n))
            scale, support, nbins = struct.unpack("<ddQ", fh.read(24))
            idx = np.frombuffer(fh.read(8 * nbins), dtype="<i8")
            vals = np.frombuffer(fh.read(8 * nbins), dtype="<f8")
            members.append({
                "kind": "alpha_window" if kind == 0 else "dyadic",
                "index": index[0] if n == 1 else index,
                "center": center[0] if n == 1 else center,
                "scale": scale, "support_radius": support,
                "idx": idx, "values": vals,
            })
    return {"n": n, "N": N, "L": L, "alpha": alpha, "members": members}
