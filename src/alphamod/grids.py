"""Sampled functions on periodic grids: transforms, quasi-norms, witnesses.

Functions live on the uniform grid over [0, L)^n with N samples per axis;
their spectra live on the lattice (1/L) Z^n inside the Nyquist band
[-N/(2L), N/(2L))^n in fft layout.  The transform pair `spectrum` /
`from_spectrum` carries the quadrature weight (L/N)^n so that a pure tone
of frequency m/L transforms to a spike of height L^n, matching the
continuum normalization, and Parseval holds with spectral quadrature
weight (1/L)^n.  Witnesses are single-window bumps and bump trains.
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
    _distances,
    bump_profile,
    ball_geometry,
    freq_grid,
    freq_radius,
    # unused here; bench/spans.py traces neighbor_set at this name as well
    neighbor_set,
    window_base,
)
from .errors import DomainError, ParameterError, TruncationError
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

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParameterError("grids support n in {1, 2}")
        if self.N & (self.N - 1) or self.N <= 0:
            raise ParameterError("N must be a power of two")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ParameterError("period L must be positive and finite")
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


def _check_same_grid(a: GridFunction, b_n: int, b_N: int, b_L: float):
    if (a.n, a.N) != (b_n, b_N) or abs(a.L - b_L) > 1e-12 * max(1.0, b_L):
        raise ParameterError(
            f"grid mismatch: ({a.n}, {a.N}, {a.L}) vs ({b_n}, {b_N}, {b_L})")


def spectrum(f: GridFunction) -> np.ndarray:
    """Flat fft-layout spectrum of f, with continuum scaling."""
    return (np.fft.fftn(f.values) * (f.L / f.N) ** f.n).reshape(-1)


def _finite_spectrum(f: GridFunction) -> np.ndarray:
    """spectrum(f) for a localization or a norm: non-finite samples raise
    DomainError before the FFT, which would warn about them."""
    if not np.isfinite(f.values).all():
        raise DomainError("the function holds non-finite samples")
    return spectrum(f)


def from_spectrum(spec_flat: np.ndarray, n: int, N: int, L: float,
                  band_limit=None) -> GridFunction:
    vals = np.fft.ifftn(spec_flat.reshape((N,) * n)) * (N / L) ** n
    return GridFunction(n, N, L, vals, band_limit=band_limit)


def box_apply(f: GridFunction, member: PartitionMember) -> GridFunction:
    """Frequency-localize f with one window: inverse FT of (window * FT f)."""
    _check_same_grid(f, f.n, member.grid_N, member.grid_L)
    piece, limit = localize(_finite_spectrum(f), member, f.band_limit)
    return from_spectrum(piece, f.n, f.N, f.L, band_limit=limit)


def localize(spec_flat: np.ndarray, member: PartitionMember, band_limit) -> tuple:
    """One window's piece of a flat spectrum band-limited to band_limit, and its band limit."""
    out = np.zeros_like(spec_flat)
    out[member.idx] = spec_flat[member.idx] * member.values
    radius = float(np.linalg.norm(np.atleast_1d(member.center))) + member.support_radius
    return out, radius if band_limit is None else min(band_limit, radius)


def sample_lp(mag: np.ndarray, rp: float, cell_volume: float) -> np.ndarray:
    """Riemann-sum L^p norms (sum mag^p * cell_volume)^{1/p} of sampled
    magnitudes over the last axis of mag, with 1/p = rp; rp = 0 is the sup
    norm.  A 1-D mag gives a 0-d array, a 2-D mag one norm per row.

    The same power-sum formula serves the quasi-norm range p < 1.  Each
    row's root is one scalar power, as for a single row.  Only a nonzero
    finite row whose power sum overflows, or underflows to 0, is summed
    over its maximum instead and scaled back, so every other result keeps
    its bits.
    """
    if rp == 0.0:
        return mag.max(axis=-1)
    p = 1.0 / rp
    rows = mag.reshape(-1, mag.shape[-1])
    with np.errstate(over="ignore"):
        totals = np.sum(rows ** p, axis=-1)
    norms = np.array([total ** rp for total in totals * cell_volume])
    for i in np.flatnonzero((totals == 0.0) | np.isinf(totals)).tolist():
        row = rows[i]
        top = row.max()
        if top > 0.0 and np.isfinite(row).all():
            # the power sum overflowed, or underflowed to 0 for a nonzero
            # row: sum the row over its maximum instead
            norms[i] = top * (np.sum((row / top) ** p) * cell_volume) ** rp
    return norms.reshape(mag.shape[:-1])


def lp_quasinorm(f: GridFunction, rp) -> float:
    """(integral |f|^p)^{1/p} by Riemann sum; rp = 0 is the sup norm."""
    rp = float(rp)
    if rp < 0:
        raise ParameterError("reciprocal exponent must be nonnegative")
    return float(sample_lp(np.abs(f.values).reshape(-1), rp, f.cell ** f.n))


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
    the supremum.  No weights means unit weights.  The power sum and its
    rescaling on overflow or underflow are sample_lp's, with unit cells."""
    vals = np.asarray(values, dtype=float)
    if weights is not None:
        vals = np.asarray(weights) * vals
    if vals.size == 0:
        return 0.0
    return float(sample_lp(vals, float(rq), 1.0))


def sequence_norm(lam: dict, s, rq, alpha) -> float:
    """Weighted l_q norm of a finitely supported sequence.

    Keys are lattice indices (alpha < 1) or octaves j >= 0 (alpha = 1).
    """
    weights = smoothness_weights([window_base(k, float(alpha)) for k in lam], s, alpha)
    return weighted_lq([abs(v) for v in lam.values()], rq, weights)


def check_band_limit(band_limit: float, safe_radius: float):
    """Raise TruncationError when a band limit a caller asserts exceeds the safe radius."""
    if not band_limit <= safe_radius:
        raise TruncationError(
            f"declared band limit {band_limit} exceeds safe radius {safe_radius}")


def _check_band(spec_flat: np.ndarray, band_limit, partition: Partition):
    if band_limit is not None:
        check_band_limit(band_limit, partition.safe_radius)
        return
    rho = freq_radius(partition.n, partition.N, partition.L)
    total = float(np.sum(np.abs(spec_flat) ** 2))
    outside = float(np.sum(np.abs(spec_flat[rho >= partition.safe_radius]) ** 2))
    if total > 0 and outside > 1e-9 * total:
        raise TruncationError(
            f"spectral mass fraction {outside / total:.3e} outside the safe window")


def _live_windows(spec_flat: np.ndarray, bins: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Positions of the windows whose spectrum piece is not negligible:
    its largest magnitude exceeds 1e-16 of the spectrum's peak, which must
    be finite."""
    peak = float(np.abs(spec_flat).max()) if spec_flat.size else 0.0
    if not math.isfinite(peak):
        raise DomainError(f"the spectrum holds non-finite values (peak {peak})")
    filled = np.flatnonzero(np.diff(offsets))
    if peak == 0.0 or filled.size == 0:
        return filled[:0]
    local_max = np.maximum.reduceat(np.abs(spec_flat[bins]), offsets[filled])
    return filled[local_max > 1e-16 * peak]


# points per block of window_lp_norms: complex samples of the inverse FFTs
# (512 KB), or float magnitudes at p = 2
BLOCK_POINTS = 2 ** 15


def window_lp_norms(spec_flat: np.ndarray, bins: np.ndarray, samples: np.ndarray,
                    offsets: np.ndarray, grid: tuple, rp) -> np.ndarray:
    """L^p norm of each window's piece of a flat fft-layout spectrum.

    Windows are packed rows: window i samples its window function at the
    spectrum positions bins[offsets[i]:offsets[i + 1]] with the values
    samples[offsets[i]:offsets[i + 1]], on the grid (n, N, L).  Live
    windows are filled into the rows of one block of at most BLOCK_POINTS
    points (one row at least), and sample_lp reduces each row.  Negligible
    and empty windows are 0.

    At p = 2 (rp = 1/2) Plancherel holds on the grid:
    sum_x |f(x)|^2 (L/N)^n = L^-n sum_k |piece_k|^2, so the rows hold the
    magnitudes of each window's piece on its own bins, zero-padded to the
    widest live window, with no transform; the values agree with the
    inverse-FFT samples to 1e-14 relative.  At every other p each row is
    the window's piece on the whole grid, and each block goes through one
    in-place inverse FFT; the values equal those of one transform per
    window bit for bit.  tests/test_grids.py::TestKernelBitIdentity guards
    both.
    """
    n, N, L = grid
    rp = float(rp)
    out = np.zeros(len(offsets) - 1)
    live = _live_windows(spec_flat, bins, offsets)
    if live.size == 0:
        return out
    pieces = spec_flat[bins] * samples
    if rp == 0.5:
        width = int(np.max(offsets[live + 1] - offsets[live]))
        rows = min(live.size, max(1, BLOCK_POINTS // width))
        mag = np.empty((rows, width))
        cell_volume = float(L) ** -n
        for start in range(0, live.size, rows):
            ids = live[start:start + rows]
            used = mag[:ids.size]
            used[...] = 0.0
            for r, i in enumerate(ids.tolist()):
                lo, hi = offsets[i], offsets[i + 1]
                np.abs(pieces[lo:hi], out=used[r, :hi - lo])
            out[ids] = sample_lp(used, rp, cell_volume)
        return out
    size = N ** n
    rows = min(live.size, max(1, BLOCK_POINTS // size))
    block = np.empty((rows,) + (N,) * n, dtype=complex)
    flat = block.reshape(rows, size)
    mag = np.empty((rows, size))
    axes = tuple(range(1, n + 1))
    scale, cell_volume = (N / L) ** n, (L / N) ** n
    for start in range(0, live.size, rows):
        ids = live[start:start + rows]
        used = block[:ids.size]
        used[...] = 0.0
        for r, i in enumerate(ids.tolist()):
            lo, hi = offsets[i], offsets[i + 1]
            flat[r, bins[lo:hi]] = pieces[lo:hi]
        np.fft.ifftn(used, axes=axes, out=used)
        used *= scale
        out[ids] = sample_lp(np.abs(flat[:ids.size], out=mag[:ids.size]), rp, cell_volume)
    return out


def space_norm(f: GridFunction, params: SpaceParams, partition: Partition) -> NormResult:
    """Covering-decomposition norm: weighted l_q of per-window L^p pieces."""
    _check_same_grid(f, partition.n, partition.N, partition.L)
    return spectrum_norm(_finite_spectrum(f), f.band_limit, params, partition)


def spectrum_norm(spec_flat: np.ndarray, band_limit, params: SpaceParams,
                  partition: Partition) -> NormResult:
    """space_norm of a flat spectrum on the partition's grid with band limit band_limit
    (None: not declared, so the spectrum's mass outside the safe window is checked)."""
    if abs(float(params.alpha) - partition.alpha) > 1e-12:
        raise ParameterError(
            f"partition alpha {partition.alpha} != space alpha {params.alpha}")
    if params.n != partition.n:
        raise ParameterError("dimension mismatch between space and partition")
    _check_band(spec_flat, band_limit, partition)
    norms = window_lp_norms(spec_flat, partition.idx, partition.values, partition.offsets,
                            (partition.n, partition.N, partition.L), params.rp)
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
    for partition in (partition1, partition2):
        _check_same_grid(f, partition.n, partition.N, partition.L)
    spec = _finite_spectrum(f)
    _check_band(spec, f.band_limit, partition2)
    inner_params = SpaceParams(rp=rp, rq=rq, s=0, alpha=alpha1, n=f.n)
    outer = np.zeros(len(partition2.members))
    for i in _live_windows(spec, partition2.idx, partition2.offsets).tolist():
        piece, limit = localize(spec, partition2.members[i], f.band_limit)
        outer[i] = spectrum_norm(piece, limit, inner_params, partition1).value
    return weighted_lq(outer, rq, smoothness_weights(partition2.bases, s, alpha2))


# -- witness functions -------------------------------------------------------

_WITNESS_PLATEAU_FRACTION = 0.25
WITNESS_SAFETY = 0.85


def witness_fraction(covering) -> float:
    """Support radius of the witness bumps of an alpha < 1 covering over the
    window scale: WITNESS_SAFETY times its plateau fraction over |k| <= 32."""
    return WITNESS_SAFETY * covering.plateau_fraction(32)


def witness_band(l: Index, alpha: float, covering, N: int, L: float) -> tuple:
    """Centre, scale, support fraction (witness_fraction of the covering)
    and band limit |centre| + fraction * scale of the witness bump of window
    l on an alpha < 1 covering; a band reaching N/(2L) raises TruncationError."""
    frac = witness_fraction(covering)
    center, scale = ball_geometry(l, alpha)
    creach = float(np.linalg.norm(np.atleast_1d(center))) + frac * scale
    if creach >= N / (2.0 * L):
        raise TruncationError("witness spectrum escapes the grid window")
    return center, scale, frac, creach


def witness_bump(l: Index, alpha, partition: Partition) -> GridFunction:
    """Single-window test function: one fixed bump profile, dilated to the
    window scale and modulated to the window center, so its spectrum sits
    inside the plateau of window l."""
    alpha = float(alpha)
    if abs(partition.alpha - alpha) > 1e-12:
        raise ParameterError("partition does not match alpha")
    if partition.covering is None:
        raise ParameterError("witness bumps require an alpha < 1 covering")
    n, N, L = partition.n, partition.N, partition.L
    center, scale, frac, creach = witness_band(l, alpha, partition.covering, N, L)
    u = _distances(freq_grid(n, N, L), center) / scale
    w_hat = bump_profile(u, _WITNESS_PLATEAU_FRACTION * frac, frac)
    return from_spectrum(w_hat.reshape(-1).astype(complex), n, N, L, band_limit=creach)


def bump_train(xi: np.ndarray, bumps, pitch: float, frac: float) -> np.ndarray:
    """Spectrum at frequencies xi (n = 1) of witness bumps, one per window
    (center, scale) in bumps, the i-th translated to (i - (count-1)/2) * pitch
    so the train is centred on 0."""
    ranks = np.arange(len(bumps), dtype=float) - (len(bumps) - 1) / 2.0
    total = np.zeros(xi.shape, dtype=complex)
    for (center, scale), x0 in zip(bumps, ranks * pitch):
        u = np.abs(xi - center) / scale
        at = np.flatnonzero(u < frac)  # elsewhere a signed zero, which adds nothing
        w_hat = bump_profile(u[at], _WITNESS_PLATEAU_FRACTION * frac, frac).astype(complex)
        w_hat *= np.exp(-2j * np.pi * xi[at] * x0)
        total[at] += w_hat
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
    if name == "gaussian":
        # on a huge period the squares overflow to inf, where exp gives 0
        with np.errstate(over="ignore"):
            r2 = sum(g * g for g in grids)
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
    """Read a binary dump; an unreadable or malformed file, or a sample that
    is not finite, is a ParameterError."""
    try:
        with open(path, "rb") as fh:
            magic, version, n, N = struct.unpack("<4sIII", fh.read(16))
            if magic != _MAGIC:
                raise ParameterError(f"not a grid dump: bad magic {magic!r}")
            if version != _VERSION:
                raise ParameterError(f"unsupported dump version {version}")
            (L,) = struct.unpack("<d", fh.read(8))
            payload = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    except struct.error:
        raise ParameterError(f"{path}: grid dump header is truncated") from None
    if n not in (1, 2):
        raise ParameterError(f"grid dump header gives n = {n}; grids support n in {{1, 2}}")
    if len(payload) != 16 * N ** n:
        raise ParameterError("payload size does not match header")
    inter = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(inter).all():
        raise ParameterError(f"{path}: every sample must be finite")
    vals = inter[0::2] + 1j * inter[1::2]
    return GridFunction(n, N, L, vals.reshape((N,) * n))


def save_grid_function_csv(f: GridFunction, path: str):
    if f.n != 1:
        raise ParameterError("CSV interchange is one-dimensional")
    data = np.column_stack([f.x_axis(), f.values.real, f.values.imag])
    np.savetxt(path, data, delimiter=",", header="x,re,im", comments="")


def load_grid_function_csv(path: str) -> GridFunction:
    """Read 'x,re,im' rows after one header line; x must start at 0 and be
    evenly spaced (to 1e-9 relative), and the period is x[-1] plus one
    spacing.  An unreadable or malformed file, or a sample that is not
    finite, is a ParameterError."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ParameterError(f"{path}: malformed CSV: {exc}") from None
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise ParameterError(f"{path}: expected at least two rows of x,re,im")
    x, re, im = data[:, 0], data[:, 1], data[:, 2]
    step = x[1] - x[0]
    tol = 1e-9 * step
    if not (step > 0 and abs(x[0]) <= tol and np.all(np.abs(np.diff(x) - step) <= tol)):
        raise ParameterError(f"{path}: the x column must start at 0 and be evenly spaced")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParameterError(f"{path}: every sample must be finite")
    return GridFunction(1, len(x), float(x[-1] + step), re + 1j * im)
