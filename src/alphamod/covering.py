"""Frequency-covering geometry and smooth partitions of unity.

Windows of the covering with parameter alpha live on balls of radius
proportional to <k>^{alpha/(1-alpha)} around the distorted lattice points
<k>^{alpha/(1-alpha)} k.  All window profiles are built in "unwarped"
coordinates y = psi(xi) = xi <xi>^{-alpha}, where the covering becomes a
perturbed unit lattice; this makes the partition-of-unity, support and
plateau properties exact by construction and uniform in k, with constants
resolved per alpha from the measured minimal lattice gap and validated at
build time.

alpha = 1 uses the dyadic annuli of the classical Littlewood-Paley
decomposition instead (a radial bump equal to 1 on |xi| <= 4/3 and
supported in |xi| < 3/2, differenced across octaves).
"""

from __future__ import annotations

import functools
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


def smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
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
    rho = np.asarray(rho, dtype=float)
    return rho * (1.0 + rho * rho) ** (-alpha / 2.0)


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
    lo, hi = 0.0, max(y, y ** (1.0 / (1.0 - alpha))) * 2.0 + 1.0
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
    """
    if not (0 <= alpha < 1):
        raise ParameterError(
            "ball geometry applies to alpha in [0, 1); use dyadic addressing at alpha = 1")
    if isinstance(k, (int, np.integer)):
        kf = float(k)
        scale = float((1.0 + kf * kf) ** (alpha / (2.0 * (1.0 - alpha))))
        return scale * kf, scale
    kv = np.asarray(k, dtype=float)
    ksq = float(np.sum(kv * kv))
    scale = (1.0 + ksq) ** (alpha / (2.0 * (1.0 - alpha)))
    center = scale * kv
    if np.ndim(k) == 0:
        return float(center), float(scale)
    return center, float(scale)


@dataclass(frozen=True)
class CoveringSpec:
    """Constants of one covering; None fields resolve to validated defaults.

    c_big is the window support radius and delta the plateau radius, both
    in warped coordinates (at alpha = 0 these are plain frequency units).
    c_small is the inner radius on which each window is required to stay
    positive.  k_max bounds |k|_inf (alpha < 1) or the octave j (alpha = 1).
    """

    alpha: float
    n: int = 1
    c_small: float = 0.4
    c_big: Optional[float] = None
    delta: Optional[float] = None
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
        if spec.delta is not None:
            self.delta = float(spec.delta)
        else:
            self.delta = min(_PLATEAU_CAP, gap - self.r0 - _SEPARATION_MARGIN)
        if self.delta < _PLATEAU_FLOOR or self.r0 + self.delta > gap:
            raise CoveringError(
                f"covering constants infeasible: support {self.r0} + plateau "
                f"{self.delta} vs minimal lattice gap {gap:.4f} (alpha={self.alpha})")
        if not spec.c_small < self.r0:
            raise CoveringError("c_small must stay below the support radius c_big")
        # memo of plateau_fraction by probe; it only ever holds the value
        # the method computes, so threads sharing the covering may race on it
        self._plateau_fractions = {}

    # -- lattice geometry -------------------------------------------------

    def lattice_image(self, k: Index):
        center, _ = ball_geometry(k, self.alpha)
        if self.n == 1:
            return center * (1.0 + center * center) ** (-self.alpha / 2.0)
        return warp(np.asarray(center, dtype=float), self.alpha, self.n)

    def _min_lattice_gap(self, probe: int = 512) -> float:
        ks = np.arange(0, probe + 2, dtype=float)
        y = warp_radius(ks * (1.0 + ks * ks) ** (self.alpha / (2 * (1 - self.alpha))),
                        self.alpha)
        axis_gap = float(np.min(np.diff(y)))
        if self.n == 1:
            return axis_gap
        # two dimensions: check near-diagonal pairs on a probe patch
        rng = range(-8, 9)
        pts = {}
        for kx in rng:
            for ky in rng:
                c, _ = ball_geometry((kx, ky), self.alpha)
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
        y = np.asarray(self.lattice_image(k), dtype=float)
        return warp_radius_inv(float(np.linalg.norm(y)) + self.r0, self.alpha)

    def inscribed_plateau_radius(self, k: Index) -> float:
        """Largest ball about the window center on which the window is 1."""
        if self.n == 1:
            lo, hi = self.plateau_interval(int(k))
            c, _ = ball_geometry(int(k), self.alpha)
            return min(c - lo, hi - c)
        y = np.asarray(self.lattice_image(k), dtype=float)
        c, _ = ball_geometry(k, self.alpha)
        c = np.asarray(c, dtype=float)
        yn = float(np.linalg.norm(y))
        inner = warp_radius_inv(max(yn - self.delta, 0.0), self.alpha)
        outer = warp_radius_inv(yn + self.delta, self.alpha)
        cn = float(np.linalg.norm(c))
        return max(min(outer - cn, cn - inner) if yn > self.delta else outer - cn, 0.0)

    def plateau_fraction(self, k_probe: int = 128) -> float:
        """min_k inscribed plateau radius / scale, over |k| <= k_probe."""
        frac = self._plateau_fractions.get(k_probe)
        if frac is not None:
            return frac
        frac = math.inf
        for k in range(0, k_probe + 1):
            kk = k if self.n == 1 else (k,) + (0,) * (self.n - 1)
            _, scale = ball_geometry(kk, self.alpha)
            frac = min(frac, self.inscribed_plateau_radius(kk) / scale)
        self._plateau_fractions[k_probe] = frac
        return frac

    def window_values(self, k: Index, xi):
        """Unnormalized window profile at frequencies xi."""
        y = warp(np.asarray(xi, dtype=float), self.alpha, self.n)
        yk = self.lattice_image(k)
        if self.n == 1:
            r = np.abs(y - float(yk))
        else:
            r = np.linalg.norm(y - np.asarray(yk), axis=-1)
        return bump_profile(r, self.delta, self.r0)

    def normalized_window(self, k: int, xi: np.ndarray) -> np.ndarray:
        """eta_k^alpha at arbitrary frequencies (n = 1): the window profile
        divided by the full lattice sum of profiles reaching those points."""
        return next(self.normalized_windows((k,), xi))

    def normalized_windows(self, ks, xi: np.ndarray):
        """Yield eta_k^alpha at xi for each k in ks (n = 1).

        The lattice sum of profiles is formed once for all of ks; each
        window's profile is evaluated again when it is yielded, so memory
        stays at a few rows of len(xi) however many windows are asked for.
        """
        if self.n != 1:
            raise ParameterError("pointwise window evaluation is one-dimensional")
        xi = np.asarray(xi, dtype=float)
        y = warp(xi, self.alpha, 1)
        l_lo = int(math.floor(float(y.min()) - self.r0)) - 1
        l_hi = int(math.ceil(float(y.max()) + self.r0)) + 1
        total = np.zeros_like(y)
        for l in range(l_lo, l_hi + 1):
            total += self._profile_at(l, y)
        floor = np.maximum(total, 1e-300)
        for k in ks:
            with np.errstate(invalid="ignore", divide="ignore"):
                yield np.where(total > 0, self._profile_at(k, y) / floor, 0.0)

    def _profile_at(self, k: int, y: np.ndarray) -> np.ndarray:
        return bump_profile(np.abs(y - float(self.lattice_image(k))), self.delta, self.r0)


def _signed_unwarp(y: float, alpha: float) -> float:
    return math.copysign(warp_radius_inv(abs(y), alpha), y)


@functools.lru_cache(maxsize=48)
def covering_for(spec: CoveringSpec) -> Covering:
    """The resolved covering of spec, shared by every caller passing an
    equal spec.  Coverings hold no state that changes their results, so
    one instance serves all threads."""
    return Covering(spec)


# -- index sets ------------------------------------------------------------

_RELATIONS = ("Lambda", "LambdaStar", "Gamma", "GammaTilde")


@dataclass(frozen=True)
class IndexSet:
    relation: str
    anchor: Index
    members: frozenset
    alphas: tuple


def _interval_overlap(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _interval_inside(inner, outer) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _lambda_members_1d(cov: Covering, k: int) -> set:
    sup_k = cov.support_interval(k)
    members = {k}
    for step in (1, -1):
        l = k + step
        while _interval_overlap(cov.support_interval(l), sup_k):
            members.add(l)
            l += step
    return members


def _lambda_members_nd(cov: Covering, k: tuple) -> set:
    yk = np.asarray(cov.lattice_image(k), dtype=float)
    members = set()
    reach = int(math.ceil(2 * cov.r0 / 0.8)) + 1
    for off in np.ndindex(*(2 * reach + 1,) * cov.n):
        l = tuple(int(k[i] + off[i] - reach) for i in range(cov.n))
        yl = np.asarray(cov.lattice_image(l), dtype=float)
        if float(np.linalg.norm(yl - yk)) < 2 * cov.r0:
            members.add(l)
    return members


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


def neighbor_set(relation: str, anchor: Index, alphas, spec=None) -> IndexSet:
    """Index sets of interacting windows.

    Lambda / LambdaStar take a single alpha; Gamma / GammaTilde take
    (alpha1, alpha2) and collect the alpha1-windows whose supports meet
    (Gamma) or lie inside the exact-one region of (GammaTilde) the anchor
    window of the alpha2 covering.  Exact interval arithmetic for n = 1.
    """
    if relation not in _RELATIONS:
        raise ParameterError(f"unknown relation {relation!r}; expected one of {_RELATIONS}")
    single = isinstance(alphas, (int, float)) or (
        hasattr(alphas, "__float__") and not isinstance(alphas, (tuple, list)))
    if relation in ("Lambda", "LambdaStar"):
        if not single:
            raise ParameterError(f"{relation} takes a single alpha")
        alpha = float(alphas)
        base = spec if isinstance(spec, CoveringSpec) else CoveringSpec(alpha=alpha, n=_dim_of(anchor))
        cov = covering_for(base)
        lambda_of = _lambda_members_1d if cov.n == 1 else _lambda_members_nd
        lam = lambda_of(cov, int(anchor) if cov.n == 1 else tuple(anchor))
        if relation == "Lambda":
            members = lam
        else:
            members = set().union(*(lambda_of(cov, m) for m in lam))
        _check_truncation(members, base.k_max)
        return IndexSet(relation=relation, anchor=anchor, members=frozenset(members),
                        alphas=(alpha,))

    if single:
        raise ParameterError(f"{relation} takes a pair (alpha1, alpha2)")
    a1, a2 = (float(alphas[0]), float(alphas[1]))
    n = _dim_of(anchor)
    if n != 1:
        raise ParameterError("cross-covering index sets are implemented for n = 1")
    spec1 = CoveringSpec(alpha=a1, n=1)
    spec2 = spec if isinstance(spec, CoveringSpec) else CoveringSpec(alpha=a2, n=1)
    cov1, cov2 = covering_for(spec1), covering_for(spec2)
    if relation == "Gamma":
        target = cov2.support_interval(int(anchor))
        members = _scan_gamma_1d(cov1, target, lambda s: _interval_overlap(s, target))
    else:
        target = cov2.exact_one_interval(int(anchor))
        members = _scan_gamma_1d(cov1, target, lambda s: _interval_inside(s, target))
    _check_truncation(members, spec1.k_max)
    return IndexSet(relation=relation, anchor=anchor, members=frozenset(members),
                    alphas=(a1, a2))


def _dim_of(anchor: Index) -> int:
    return 1 if np.ndim(anchor) == 0 else len(anchor)


def gamma_members_sampled(anchor: Index, partition_fine: Partition,
                          partition_coarse: Partition,
                          absorbed: bool = False) -> IndexSet:
    """Gamma (or GammaTilde, with absorbed=True) from sampled windows.

    Works in any supported dimension: supports are compared bin by bin on
    the shared grid, and absorption means the anchor window equals 1 on
    every bin of the fine window's support.
    """
    if (partition_fine.N, partition_fine.L) != (partition_coarse.N, partition_coarse.L):
        raise ParameterError("partitions must share one grid")
    mk = partition_coarse.member(anchor)
    size = partition_coarse.N ** partition_coarse.n
    anchor_vals = np.zeros(size)
    anchor_vals[mk.idx] = mk.values
    members = set()
    for m in partition_fine.members:
        local = anchor_vals[m.idx]
        if absorbed:
            if m.idx.size and np.all(local >= 1.0 - 1e-12):
                members.add(m.index)
        elif np.any(local > 0.0):
            members.add(m.index)
    relation = "GammaTilde" if absorbed else "Gamma"
    return IndexSet(relation=relation, anchor=anchor, members=frozenset(members),
                    alphas=(partition_fine.alpha, partition_coarse.alpha))


def _check_truncation(members, k_max):
    if k_max is None:
        return
    for m in members:
        if np.max(np.abs(m)) > k_max:
            raise TruncationError(
                f"index set reaches |k| = {np.max(np.abs(m))} beyond k_max = {k_max}")


# -- sampled partitions ----------------------------------------------------

@dataclass
class PartitionMember:
    """One sampled window: eta_k^alpha on the grid, or a dyadic annulus."""

    kind: str                    # "alpha_window" | "dyadic"
    index: Index                 # k (int or tuple) or octave j
    center: Union[float, np.ndarray]
    scale: float
    support_radius: float        # measured in frequency units, about center
    plateau_radius: float        # inscribed radius of the exact-1 region
    idx: np.ndarray              # flat indices into the fft-layout spectrum
    values: np.ndarray           # window samples at idx
    grid_N: int = 0              # grid the samples were taken on
    grid_L: float = 0.0

    def __post_init__(self):
        # members are shared read-only between threads after construction
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

    kind: str                    # "alpha" | "dyadic"
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


def freq_grid(n: int, N: int, L: float):
    """Frequency coordinates in fft layout; (N,) for n=1, (N,N,2) for n=2."""
    ax = freq_axis(N, L)
    if n == 1:
        return ax
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx, gy], axis=-1)


def freq_radius(n: int, N: int, L: float) -> np.ndarray:
    """|xi| per flat fft-layout bin."""
    xi = freq_grid(n, N, L)
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
    cov = covering_for(spec)
    f_nyq = N / (2.0 * L)
    if cov.n == 1:
        return _build_alpha_1d(cov, spec, N, L, f_nyq)
    return _build_alpha_2d(cov, spec, N, L, f_nyq)


def _usable_range_1d(cov: Covering, f_nyq: float):
    k = 0
    while cov.support_outer_radius(k + 1) < f_nyq:
        k += 1
    return k


def _build_alpha_1d(cov: Covering, spec: CoveringSpec, N: int, L: float,
                    f_nyq: float) -> Partition:
    k_fit = _usable_range_1d(cov, f_nyq)
    if spec.k_max is not None:
        k_fit = min(k_fit, spec.k_max)
    if k_fit < 1:
        raise GeometryError("grid too small to hold any window beyond the origin")
    xi = freq_axis(N, L)
    total = np.zeros(N)
    # normalize with every window that touches the grid, usable or not
    k_touch = k_fit
    while cov.support_interval(k_touch + 1)[0] < f_nyq and k_touch < k_fit + 64:
        k_touch += 1
    cache = {}
    for k in range(-k_touch, k_touch + 1):
        lo, hi = cov.support_interval(k)
        i0 = int(math.ceil(lo * L))
        i1 = int(math.floor(hi * L))
        i0 = max(i0, -N // 2)
        i1 = min(i1, N // 2 - 1)
        if i1 < i0:
            continue
        idx = np.arange(i0, i1 + 1) % N
        vals = cov.window_values(k, xi[idx])
        keep = vals > 0.0
        cache[k] = (idx[keep], vals[keep])
        total[idx[keep]] += vals[keep]
    if float(total.min()) < _SUM_FLOOR:
        # only a problem where usable windows live; check inside their reach
        reach = cov.support_outer_radius(k_fit)
        inside = np.abs(xi) <= reach
        if float(total[inside].min()) < _SUM_FLOOR:
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
            kind="alpha_window", index=k, center=center, scale=scale,
            support_radius=max(hi - center, center - lo),
            plateau_radius=cov.inscribed_plateau_radius(k),
            idx=idx, values=vals / total[idx], grid_N=N, grid_L=L))
    safe_radius = cov.support_interval(k_fit + 1)[0]
    return Partition(kind="alpha", alpha=cov.alpha, n=1, N=N, L=L,
                     safe_radius=min(safe_radius, f_nyq), members=members,
                     covering=cov, spec=spec)


def _build_alpha_2d(cov: Covering, spec: CoveringSpec, N: int, L: float,
                    f_nyq: float) -> Partition:
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
    usable = []
    for kx in shells:
        for ky in shells:
            k = (kx, ky)
            yk = np.asarray(cov.lattice_image(k), dtype=float)
            r = np.linalg.norm(y - yk, axis=-1)
            mask = r < cov.r0
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            vals = bump_profile(r[idx], cov.delta, cov.r0)
            total[idx] += vals
            if max(abs(kx), abs(ky)) <= k_reach and cov.support_outer_radius(k) < f_nyq:
                cache[k] = (idx, vals)
                usable.append(k)
    members = []
    for k in usable:
        idx, vals = cache[k]
        center, scale = ball_geometry(k, cov.alpha)
        yk = np.asarray(cov.lattice_image(k), dtype=float)
        outer = cov.support_outer_radius(k)
        members.append(PartitionMember(
            kind="alpha_window", index=k, center=np.asarray(center), scale=scale,
            support_radius=outer - float(np.linalg.norm(center)) if np.linalg.norm(center) > 0
            else outer,
            plateau_radius=cov.inscribed_plateau_radius(k),
            idx=idx, values=vals / total[idx], grid_N=N, grid_L=L))
    # safe radius: nearest non-usable window's inner support edge
    edge = math.inf
    for kx in shells:
        for ky in shells:
            if (kx, ky) in cache:
                continue
            yn = float(np.linalg.norm(np.asarray(cov.lattice_image((kx, ky)), dtype=float)))
            edge = min(edge, max(yn - cov.r0, 0.0))
    safe_radius = warp_radius_inv(edge, cov.alpha) if edge < math.inf else f_nyq
    return Partition(kind="alpha", alpha=cov.alpha, n=2, N=N, L=L,
                     safe_radius=min(safe_radius, f_nyq), members=members,
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
        lo = (4.0 / 3.0) * 2.0 ** (j - 1) if j >= 1 else 0.0
        hi = 1.5 * 2.0 ** j
        members.append(PartitionMember(
            kind="dyadic", index=j, center=0.0 if spec.n == 1 else np.zeros(spec.n),
            scale=2.0 ** j, support_radius=hi,
            plateau_radius=0.5 * ((4.0 / 3.0) * 2.0 ** j - lo) if j >= 1 else (4.0 / 3.0),
            idx=idx, values=vals[idx], grid_N=N, grid_L=L))
    return Partition(kind="dyadic", alpha=1.0, n=spec.n, N=N, L=L,
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

    def to_dict(self) -> dict:
        return {
            "sum_deviation": self.sum_deviation,
            "max_overlap": self.max_overlap,
            "support_leakage": self.support_leakage,
            "gradient_bound": self.gradient_bound,
            "gradient_ratio": self.gradient_ratio,
            "safe_radius": self.safe_radius,
            "member_count": self.member_count,
        }


def verify_partition(partition: Partition) -> PartitionReport:
    """Numerical health report: sum-to-one, overlap, support, derivative scaling."""
    xi = freq_grid(partition.n, partition.N, partition.L)
    safe = freq_radius(partition.n, partition.N, partition.L) < partition.safe_radius
    size = partition.N ** partition.n
    total = np.zeros(size)
    overlap = np.zeros(size, dtype=int)
    leakage = 0.0
    grad_bounds = []
    dxi = 1.0 / partition.L
    for m in partition.members:
        total[m.idx] += m.values
        overlap[m.idx] += m.values > 1e-14
        if partition.n == 1:
            centered = xi.reshape(-1)[m.idx] - m.center
        else:
            centered = np.linalg.norm(xi.reshape(-1, 2)[m.idx] - np.asarray(m.center),
                                      axis=-1)
        out = np.abs(centered) > m.support_radius + 1.5 * dxi
        if out.any():
            leakage = max(leakage, float(np.max(np.abs(m.values[out]))))
        dense = m.dense(size)
        if partition.n == 1:
            grad = float(np.max(np.abs(np.diff(np.fft.fftshift(dense))))) / dxi
        else:
            d2 = np.fft.fftshift(dense.reshape(partition.N, partition.N))
            grad = max(float(np.abs(np.diff(d2, axis=0)).max()),
                       float(np.abs(np.diff(d2, axis=1)).max())) / dxi
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
        for m in partition.members:
            kind = 0 if m.kind == "alpha_window" else 1
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
