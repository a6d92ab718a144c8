"""Sampled functions on periodic grids: transforms, quasi-norms, witnesses.

Functions live on the uniform grid over [0, L)^n with N samples per axis;
their spectra live on the lattice (1/L) Z^n inside the Nyquist band
[-N/(2L), N/(2L))^n in fft layout.  The forward transform carries the
quadrature weight (L/N)^n so that a pure tone of frequency m/L transforms
to a spike of height L^n, matching the continuum normalization, and
Parseval holds with spectral quadrature weight (1/L)^n.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .covering import (
    Partition,
    PartitionMember,
    bump_profile,
    ball_geometry,
    freq_grid,
    freq_radius,
    neighbor_set,
    window_base,
)
from .errors import DomainError, GeometryError, ParameterError, TruncationError
from .indices import SpaceParams

Index = Union[int, tuple]


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a periodic grid; values are immutable."""

    n: int
    N: int
    L: float
    values: np.ndarray
    band_limit: Optional[float] = None
    domain: str = "space"  # "space" | "freq"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParameterError("grids support n in {1, 2}")
        if self.N & (self.N - 1) or self.N <= 0:
            raise ParameterError("N must be a power of two")
        if self.L <= 0:
            raise ParameterError("period L must be positive")
        vals = np.asarray(self.values, dtype=complex)
        expected = (self.N,) * self.n
        if vals.shape != expected:
            raise ParameterError(f"values shape {vals.shape} != {expected}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cell(self) -> float:
        return self.L / self.N

    def x_axis(self) -> np.ndarray:
        return np.arange(self.N) * self.cell

    def with_values(self, values, band_limit=None, domain=None) -> "GridFunction":
        return GridFunction(self.n, self.N, self.L, values,
                            band_limit=self.band_limit if band_limit is None else band_limit,
                            domain=self.domain if domain is None else domain)


def _check_same_grid(a: GridFunction, b_n: int, b_N: int, b_L: float):
    if (a.n, a.N) != (b_n, b_N) or abs(a.L - b_L) > 1e-12 * max(1.0, b_L):
        raise ParameterError(
            f"grid mismatch: ({a.n}, {a.N}, {a.L}) vs ({b_n}, {b_N}, {b_L})")


def fourier_transform(f: GridFunction, direction: str = "forward") -> GridFunction:
    """Discrete transform with continuum scaling; exact round trip."""
    if direction == "forward":
        if f.domain != "space":
            raise ParameterError("forward transform expects a space-domain function")
        spec = np.fft.fftn(f.values) * (f.L / f.N) ** f.n
        return f.with_values(spec, domain="freq")
    if direction == "inverse":
        if f.domain != "freq":
            raise ParameterError("inverse transform expects a frequency-domain function")
        vals = np.fft.ifftn(f.values) * (f.N / f.L) ** f.n
        return f.with_values(vals, domain="space")
    raise ParameterError(f"unknown direction {direction!r}")


def spectrum(f: GridFunction) -> np.ndarray:
    """Flat fft-layout spectrum of a space-domain function."""
    if f.domain != "space":
        raise ParameterError("spectrum expects a space-domain function")
    return (np.fft.fftn(f.values) * (f.L / f.N) ** f.n).reshape(-1)


def from_spectrum(spec_flat: np.ndarray, n: int, N: int, L: float,
                  band_limit=None) -> GridFunction:
    vals = np.fft.ifftn(spec_flat.reshape((N,) * n)) * (N / L) ** n
    return GridFunction(n, N, L, vals, band_limit=band_limit)


def box_apply(f: GridFunction, member: PartitionMember) -> GridFunction:
    """Frequency-localize f with one window: inverse FT of (window * FT f)."""
    if member.grid_N and (f.N != member.grid_N or abs(f.L - member.grid_L) > 1e-12):
        raise ParameterError(
            f"member sampled on (N={member.grid_N}, L={member.grid_L}), "
            f"function lives on (N={f.N}, L={f.L})")
    spec = spectrum(f)
    out = np.zeros_like(spec)
    out[member.idx] = spec[member.idx] * member.values
    radius = float(np.linalg.norm(np.atleast_1d(member.center))) + member.support_radius
    limit = radius if f.band_limit is None else min(f.band_limit, radius)
    return from_spectrum(out, f.n, f.N, f.L, band_limit=limit)


def band_mass_fraction_outside(f: GridFunction, radius: float) -> float:
    """Fraction of spectral energy outside |xi| <= radius."""
    spec = spectrum(f)
    rho = freq_radius(f.n, f.N, f.L)
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(spec[rho > radius]) ** 2)) / total


def sample_lp(mag: np.ndarray, rp: float, cell_volume: float) -> float:
    """(sum mag^p * cell_volume)^{1/p}, the Riemann-sum L^p norm of sampled
    magnitudes with 1/p = rp; rp = 0 is the sup norm.

    The same power-sum formula serves the quasi-norm range p < 1.
    """
    if rp == 0.0:
        return float(mag.max())
    return float((np.sum(mag ** (1.0 / rp)) * cell_volume) ** rp)


def lp_quasinorm(f: GridFunction, rp) -> float:
    """(integral |f|^p)^{1/p} by Riemann sum; rp = 0 is the sup norm."""
    rp = float(rp)
    if rp < 0:
        raise ParameterError("reciprocal exponent must be nonnegative")
    return sample_lp(np.abs(f.values), rp, f.cell ** f.n)


@dataclass
class NormResult:
    value: float
    pieces: dict
    s: float
    rq: float
    alpha: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "s": self.s,
            "rq": self.rq,
            "alpha": self.alpha,
            "pieces": {str(k): v for k, v in sorted(self.pieces.items(), key=lambda kv: str(kv[0]))},
        }


def smoothness_weights(bases, s, alpha) -> np.ndarray:
    """Per-window weights <k>^{s/(1-alpha)}, or 2^{js} dyadically, from the
    bases of covering.window_base.

    Each weight is one Python float power: a vectorised np.power differs
    from it in the last bit on some platforms, and norms are kept bit for
    bit across versions.
    """
    s, alpha = float(s), float(alpha)
    bases = np.asarray(bases, dtype=float).tolist()
    try:
        if alpha == 1.0:
            return np.array([2.0 ** (j * s) for j in bases])
        expo = s / (2.0 * (1.0 - alpha))
        return np.array([b ** expo for b in bases])
    except OverflowError:
        raise DomainError(
            f"smoothness weights overflow a float at s = {s:g}, alpha = {alpha:g}") from None


def weighted_lq(values, rq, weights=None) -> float:
    """l_q norm of weights * values (nonnegative), with 1/q = rq; rq = 0 is
    the supremum.  No weights means unit weights."""
    vals = np.asarray(values, dtype=float)
    if weights is not None:
        vals = np.asarray(weights) * vals
    if vals.size == 0:
        return 0.0
    rq = float(rq)
    if rq == 0.0:
        return float(vals.max())
    return float(np.sum(vals ** (1.0 / rq)) ** rq)


def sequence_norm(lam: dict, s, rq, alpha) -> float:
    """Weighted l_q norm of a finitely supported sequence.

    Keys are lattice indices (alpha < 1) or octaves j >= 0 (alpha = 1).
    """
    weights = smoothness_weights([window_base(k, float(alpha)) for k in lam], s, alpha)
    return weighted_lq([abs(v) for v in lam.values()], rq, weights)


def _check_band(f: GridFunction, partition: Partition, spec_flat: np.ndarray):
    if f.band_limit is not None:
        if f.band_limit <= partition.safe_radius:
            return
        raise TruncationError(
            f"declared band limit {f.band_limit} exceeds safe radius "
            f"{partition.safe_radius}")
    rho = freq_radius(f.n, f.N, f.L)
    total = float(np.sum(np.abs(spec_flat) ** 2))
    outside = float(np.sum(np.abs(spec_flat[rho >= partition.safe_radius]) ** 2))
    if total > 0 and outside > 1e-9 * total:
        raise TruncationError(
            f"spectral mass fraction {outside / total:.3e} outside the safe window")


def _live_windows(spec_flat: np.ndarray, partition: Partition) -> np.ndarray:
    """Positions of the windows whose spectrum piece is not negligible:
    its largest magnitude exceeds 1e-16 of the spectrum's peak."""
    peak = float(np.abs(spec_flat).max()) if spec_flat.size else 0.0
    filled = np.flatnonzero(np.diff(partition.offsets))
    if peak == 0.0 or filled.size == 0:
        return filled[:0]
    local_max = np.maximum.reduceat(np.abs(spec_flat[partition.idx]),
                                    partition.offsets[filled])
    return filled[local_max > 1e-16 * peak]


def window_lp_norms(spec_flat: np.ndarray, partition: Partition, rp) -> np.ndarray:
    """L^p norm of each window's piece of a flat fft-layout spectrum.

    Each live window's piece goes through one inverse FFT in a reused
    N^n buffer; negligible and empty windows are 0.
    """
    n, N, L = partition.n, partition.N, partition.L
    rp = float(rp)
    out = np.zeros(len(partition.members))
    pieces = spec_flat[partition.idx] * partition.values
    buf = np.zeros(N ** n, dtype=complex)
    grid = buf.reshape((N,) * n)
    scale, cell_volume = (N / L) ** n, (L / N) ** n
    for i in _live_windows(spec_flat, partition).tolist():
        lo, hi = partition.offsets[i], partition.offsets[i + 1]
        bins = partition.idx[lo:hi]
        buf[bins] = pieces[lo:hi]
        out[i] = sample_lp(np.abs(np.fft.ifftn(grid) * scale), rp, cell_volume)
        buf[bins] = 0.0
    return out


def space_norm(f: GridFunction, params: SpaceParams, partition: Partition) -> NormResult:
    """Covering-decomposition norm: weighted l_q of per-window L^p pieces."""
    if abs(float(params.alpha) - partition.alpha) > 1e-12:
        raise ParameterError(
            f"partition alpha {partition.alpha} != space alpha {params.alpha}")
    if params.n != partition.n:
        raise ParameterError("dimension mismatch between space and partition")
    _check_same_grid(f, partition.n, partition.N, partition.L)
    spec = spectrum(f)
    _check_band(f, partition, spec)
    norms = window_lp_norms(spec, partition, params.rp)
    weights = smoothness_weights(partition.bases, params.s, params.alpha)
    return NormResult(value=weighted_lq(norms, params.rq, weights),
                      pieces=dict(zip(partition.indices(), norms.tolist())),
                      s=float(params.s), rq=float(params.rq), alpha=float(params.alpha))


def coarse_norm(f: GridFunction, alpha1, alpha2, s, rp, rq,
                partition1: Partition, partition2: Partition) -> float:
    """Two-layer norm: inner fine-covering norms of coarse-window pieces.

    Measures each coarse window's localization in the alpha1 norm with
    zero smoothness, then aggregates over the coarse index with the full
    smoothness weight (dyadic outer layer when alpha2 = 1).
    """
    alpha1, alpha2 = float(alpha1), float(alpha2)
    if alpha1 > alpha2:
        raise ParameterError("coarse norm requires alpha1 <= alpha2")
    if abs(partition1.alpha - alpha1) > 1e-12 or abs(partition2.alpha - alpha2) > 1e-12:
        raise ParameterError("partitions do not match the requested alphas")
    spec = spectrum(f)
    _check_band(f, partition2, spec)
    inner_params = SpaceParams(rp=rp, rq=rq, s=0, alpha=alpha1, n=f.n)
    outer = np.zeros(len(partition2.members))
    for i in _live_windows(spec, partition2).tolist():
        piece = box_apply(f, partition2.members[i])
        outer[i] = space_norm(piece, inner_params, partition1).value
    return weighted_lq(outer, rq, smoothness_weights(partition2.bases, s, alpha2))


# -- witness functions -------------------------------------------------------

_WITNESS_PLATEAU_FRACTION = 0.25
_WITNESS_SAFETY = 0.85


def witness_support_fraction(partition: Partition, k_probe: int = 128) -> float:
    """Spectral support radius of witness bumps, as a fraction of the scale."""
    if partition.covering is None:
        raise ParameterError("witness bumps require an alpha < 1 covering")
    return _WITNESS_SAFETY * partition.covering.plateau_fraction(k_probe)


def witness_bump(l: Index, alpha, partition: Partition, *,
                 support_fraction: Optional[float] = None) -> GridFunction:
    """Single-window test function: one fixed bump profile, dilated to the
    window scale and modulated to the window center, so its spectrum sits
    inside the plateau of window l."""
    alpha = float(alpha)
    if abs(partition.alpha - alpha) > 1e-12:
        raise ParameterError("partition does not match alpha")
    frac = support_fraction if support_fraction is not None else witness_support_fraction(partition)
    center, scale = ball_geometry(l, alpha)
    n, N, L = partition.n, partition.N, partition.L
    radius = frac * scale
    creach = float(np.linalg.norm(np.atleast_1d(center))) + radius
    if creach >= N / (2.0 * L):
        raise TruncationError("witness spectrum escapes the grid window")
    xi = freq_grid(n, N, L)
    if n == 1:
        u = np.abs(xi - center) / scale
    else:
        u = np.linalg.norm(xi - np.asarray(center), axis=-1) / scale
    w_hat = bump_profile(u, _WITNESS_PLATEAU_FRACTION * frac, frac)
    return from_spectrum(w_hat.reshape(-1).astype(complex), n, N, L, band_limit=creach)


def spread_positions(count: int, pitch: float) -> np.ndarray:
    """Rank-centered translate positions i*pitch, i = 0 .. count-1."""
    ranks = np.arange(count, dtype=float) - (count - 1) / 2.0
    return ranks * pitch


def witness_spread(k: int, alpha1, alpha2, partition_fine: Partition, *,
                   pitch: Optional[float] = None,
                   support_fraction: Optional[float] = None,
                   separation: float = 8.0):
    """Sum of translated single-window bumps over the absorbed index set.

    The bumps live on the finer covering (smaller alpha) inside the plateau
    of the anchor window k of the coarser covering; translates are spaced
    by `pitch` so their essential spatial supports do not interact.
    Returns (GridFunction, members, positions).
    """
    a_lo, a_hi = sorted((float(alpha1), float(alpha2)))
    if a_lo == a_hi:
        # nothing is strictly absorbed across equal coverings; the sum
        # degenerates to the anchor's own bump
        members = [k]
    else:
        members = sorted(neighbor_set("GammaTilde", k, (a_lo, a_hi)).members)
    if not members:
        raise GeometryError(f"no windows are absorbed by anchor {k}")
    part = partition_fine
    if part.n != 1:
        raise ParameterError("spread witnesses are one-dimensional")
    frac = support_fraction if support_fraction is not None else witness_support_fraction(part)
    n, N, L = part.n, part.N, part.L
    bumps = [ball_geometry(l, part.alpha) for l in members]
    widths = [1.0 / (frac * scale) for _, scale in bumps]
    if pitch is None:
        pitch = separation * max(widths)
    if len(members) > 1:
        span = (len(members) - 1) * pitch + separation * max(widths)
        if span > 0.75 * L:
            raise GeometryError(
                f"period {L} too small for {len(members)} translates at pitch {pitch:.3g}")
    positions = spread_positions(len(members), pitch)
    reach = max(abs(center) + frac * scale for center, scale in bumps)
    if reach >= N / (2.0 * L):
        raise TruncationError("spread witness spectrum escapes the grid window")
    total = bump_train(freq_grid(n, N, L), bumps, positions, frac)
    return from_spectrum(total, n, N, L, band_limit=reach), members, positions


def bump_train(xi: np.ndarray, bumps, positions, frac: float) -> np.ndarray:
    """Spectrum at frequencies xi (n = 1) of witness bumps, one per window
    (center, scale) in bumps, translated to the given positions."""
    total = np.zeros(xi.shape, dtype=complex)
    for (center, scale), x0 in zip(bumps, positions):
        u = np.abs(xi - center) / scale
        w_hat = bump_profile(u, _WITNESS_PLATEAU_FRACTION * frac, frac).astype(complex)
        w_hat *= np.exp(-2j * np.pi * xi * x0)
        total += w_hat
    return total


# -- named test functions ----------------------------------------------------

def builtin_function(name: str, n: int, N: int, L: float) -> GridFunction:
    """Named sample inputs: 'gaussian', 'bump', 'tone'."""
    x = np.arange(N) * (L / N)
    x = np.where(x > L / 2, x - L, x)
    if n == 1:
        grids = (x,)
    else:
        gx, gy = np.meshgrid(x, x, indexing="ij")
        grids = (gx, gy)
    r2 = sum(g * g for g in grids)
    if name == "gaussian":
        return GridFunction(n, N, L, np.exp(-math.pi * r2).astype(complex))
    if name == "bump":
        spec = bump_profile(freq_radius(n, N, L), 0.5, 1.0).astype(complex)
        return from_spectrum(spec, n, N, L, band_limit=1.0)
    if name == "tone":
        phase = sum(2j * math.pi * 3.0 / L * g for g in grids)
        return GridFunction(n, N, L, np.exp(phase), band_limit=3.0 / L * math.sqrt(n) + 1e-9)
    raise ParameterError(f"unknown builtin {name!r}; try gaussian, bump, tone")


def random_band_limited(n: int, N: int, L: float, radius: float,
                        rng: np.random.Generator) -> GridFunction:
    """Random smooth function with spectrum inside |xi| <= radius."""
    rho = freq_radius(n, N, L)
    envelope = bump_profile(rho / radius, 0.6, 1.0)
    coef = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
    return from_spectrum(envelope * coef, n, N, L, band_limit=radius)


# -- binary / CSV interchange ------------------------------------------------

_MAGIC = b"AMGF"
_VERSION = 1


def save_grid_function(f: GridFunction, path: str):
    """Binary dump: 'AMGF', u32 version, u32 n, u32 N, f64 L (little-endian),
    then row-major interleaved re/im float64 samples."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _MAGIC, _VERSION, f.n, f.N))
        fh.write(struct.pack("<d", f.L))
        inter = np.empty(f.values.size * 2)
        inter[0::2] = f.values.real.reshape(-1)
        inter[1::2] = f.values.imag.reshape(-1)
        fh.write(inter.astype("<f8").tobytes())


def load_grid_function(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        magic, version, n, N = struct.unpack("<4sIII", fh.read(16))
        if magic != _MAGIC:
            raise ParameterError(f"not a grid dump: bad magic {magic!r}")
        if version != _VERSION:
            raise ParameterError(f"unsupported dump version {version}")
        (L,) = struct.unpack("<d", fh.read(8))
        inter = np.frombuffer(fh.read(), dtype="<f8")
    if inter.size != 2 * N ** n:
        raise ParameterError("payload size does not match header")
    vals = inter[0::2] + 1j * inter[1::2]
    return GridFunction(n, N, L, vals.reshape((N,) * n))


def save_grid_function_csv(f: GridFunction, path: str):
    if f.n != 1:
        raise ParameterError("CSV interchange is one-dimensional")
    data = np.column_stack([f.x_axis(), f.values.real, f.values.imag])
    np.savetxt(path, data, delimiter=",", header="x,re,im", comments="")


def load_grid_function_csv(path: str, L: Optional[float] = None) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x, re, im = data[:, 0], data[:, 1], data[:, 2]
    N = len(x)
    if L is None:
        L = float(x[-1] + (x[1] - x[0]))
    return GridFunction(1, N, L, re + 1j * im)
