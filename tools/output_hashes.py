"""Hash the observable outputs of one alphamod checkout.

    python tools/output_hashes.py ROOT

Prints one line per named output of the checkout at ROOT: the exit code and
the sha256 of stdout and stderr of each README command-line example and of
a set of command lines that end in exit codes 2, 3 and 4 (plus the files the
examples write), then two library checks, the per-window ``space_norm`` pieces
at p = 2, 1 and inf on a 1-D and a 2-D partition, the packed samples of nine
partitions and of the windows one bump band and one spread grid hand to the
norm kernel, the witness bumps' support fraction on six coverings, the grids
``plan_grid`` sizes for the ``lab_sweep`` growth fixtures, the witness samples
and Monte Carlo estimates of those fixtures (floats in hex, so a rounding
change shows which window or witness moved), and one round of each benchmark
workload in ``ROOT/bench/workloads.py`` at seeds 41 and 3.  Two checkouts
whose outputs agree print the same lines, so a refactor is checked with

    diff <(python tools/output_hashes.py OLD) <(python tools/output_hashes.py NEW)

Results are serialised with sets sorted and floats in hex, so the lines do
not depend on ``PYTHONHASHSEED``.  A command line still running after
CLI_TIMEOUT seconds is stopped and prints ``exit=timeout``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

SEEDS = (41, 3)

# seconds a command line may run; one that runs longer prints exit=timeout
CLI_TIMEOUT = 60

_SWEEP = ("--source", "p=1,q=inf,s=0,alpha=0", "--target", "p=inf,q=inf,s=0,alpha=0.5")

# (name, argv); relative paths land in a fresh working directory that holds
# f.bin, a 2048-point bump, and nan.bin and nan.csv, the same bump with one
# nan sample
COMMANDS = [
    ("readme-decide", ["decide", "--source", "p=2,q=2,s=0.6,alpha=0",
                       "--target", "p=2,q=1,s=0,alpha=0"]),
    ("readme-index", ["index", "--source", "p=1,q=inf,s=0,alpha=0",
                      "--target", "p=inf,q=inf,s=0,alpha=0.5"]),
    ("readme-covering", ["covering", "--alpha", "0.5", "--grid", "4096,8", "--format", "csv",
                         "--out", "members.csv", "--dump-samples", "samples.bin"]),
    ("readme-normcalc-builtin", ["normcalc", "--source", "p=2,q=2,s=0,alpha=0.5",
                                 "--builtin", "bump", "--grid", "2048,8"]),
    ("readme-normcalc-input", ["normcalc", "--source", "p=2,q=1,s=0,alpha=0",
                               "--input", "f.bin"]),
    ("readme-verify-asymptotics", ["verify-asymptotics", *_SWEEP, "--j-range", "4:9",
                                   "--seed", "7"]),
    ("readme-verify-embedding", ["verify-embedding", "--source", "p=2,q=2,s=1,alpha=0",
                                 "--target", "p=2,q=1,s=0,alpha=0"]),
    ("text-index", ["index", *_SWEEP, "--format", "text"]),
    ("csv-verify-asymptotics", ["verify-asymptotics", *_SWEEP, "--j-range", "4:7",
                                "--format", "csv"]),
    ("covering-constants", ["covering", "--alpha", "1/3", "--grid", "1024,8",
                            "--alpha-constants", "0.3,0.7", "--k-max", "20"]),
    ("covering-2d", ["covering", "--alpha", "0.5", "--n", "2", "--grid", "64,1"]),
    ("normcalc-2d-sup", ["normcalc", "--n", "2", "--source", "p=inf,q=2,s=0,alpha=0.5",
                         "--builtin", "bump", "--grid", "64,1"]),
    ("normcalc-2d-quasi", ["normcalc", "--n", "2", "--source", "p=2/3,q=2,s=0,alpha=0.5",
                           "--builtin", "bump", "--grid", "64,1"]),
    ("normcalc-large-p", ["normcalc", "--source", "p=1000,q=2,s=0,alpha=0",
                          "--builtin", "bump", "--grid", "2048,8"]),
    # exit 2: configuration and output paths
    ("exit2-unread-option", ["decide", *_SWEEP, "--grid", "64,1"]),
    ("exit2-bad-grid", ["covering", "--alpha", "0", "--grid", "100,8"]),
    ("exit2-grid-points", ["covering", "--alpha", "0", "--n", "2"]),
    ("exit2-float-range", ["decide", "--source", "p=2,q=2,s=1e400,alpha=0",
                           "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit2-unknown-key", ["decide", "--source", "p=1,q=2,s=0,alhpa=1/2",
                           "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit2-repeated-key", ["decide", "--source", "p=1,q=2,s=0,alpha=0,p=4",
                            "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit2-zero-denominator", ["decide", "--source", "p=1/0,q=2,s=0,alpha=0",
                                "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit2-huge-exponent", ["decide", "--source", "p=2,q=2,s=1e999999999,alpha=0",
                             "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit2-constants", ["covering", "--alpha", "0", "--alpha-constants", "0.3"]),
    ("exit2-empty-octaves", ["verify-asymptotics", *_SWEEP, "--j-range", "9:4"]),
    ("exit2-unwritable-out", ["decide", *_SWEEP, "--out", "missing/out.json"]),
    # exit 3: preconditions
    ("exit3-dyadic-target", ["verify-asymptotics", "--source", "p=1,q=inf,s=0,alpha=0",
                             "--target", "p=inf,q=inf,s=0,alpha=1", "--j-range", "4:5"]),
    ("exit3-missing-input", ["normcalc", "--source", "p=2,q=2,s=0,alpha=0",
                             "--input", "missing.bin"]),
    ("exit3-truncation", ["verify-embedding", "--source", "p=1,q=inf,s=0,alpha=0",
                          "--target", "p=inf,q=inf,s=0,alpha=1/4", "--truncation", "2"]),
    ("exit3-dimension-mismatch", ["index", "--source", "p=2,q=2,s=0,alpha=0,n=2",
                                  "--target", "p=2,q=2,s=0,alpha=0"]),
    ("exit3-near-alpha-one", ["covering", "--alpha", "0.999", "--grid", "64,1"]),
    ("exit3-sweep-dimension", ["verify-asymptotics", "--n", "2", *_SWEEP]),
    ("exit3-nan-sample-bin", ["normcalc", "--source", "p=2,q=2,s=0,alpha=1/2",
                              "--input", "nan.bin"]),
    ("exit3-nan-sample-csv", ["normcalc", "--source", "p=2,q=2,s=0,alpha=1/2",
                              "--input", "nan.csv"]),
    # exit 4: numerical checks
    ("exit4-infeasible-2d", ["covering", "--n", "2", "--alpha", "0.8", "--grid", "64,1"]),
    ("exit4-infeasible-2d-high", ["covering", "--n", "2", "--alpha", "0.98",
                                  "--grid", "64,1"]),
    ("exit4-infeasible-1d", ["covering", "--alpha", "0.25", "--alpha-constants", "0.3,0.95"]),
    ("exit4-infeasible-constants", ["covering", "--alpha", "0.75", "--alpha-constants",
                                    "0.4,0.95", "--grid", "1024,4"]),
    ("exit4-no-grid-bin", ["covering", "--alpha", "0", "--grid", "64,0.5"]),
    ("exit4-grid-too-small", ["covering", "--alpha", "0", "--grid", "4,2"]),
    ("exit4-sum-below-floor", ["covering", "--alpha", "0", "--alpha-constants", "0.3,0.45",
                               "--grid", "1024,8"]),
]
WRITTEN = ("members.csv", "samples.bin")
_WRITE_INPUTS = """
from alphamod.grids import (GridFunction, builtin_function, save_grid_function,
                            save_grid_function_csv)
f = builtin_function("bump", 1, 2048, 8.0)
save_grid_function(f, "f.bin")
values = f.values.copy()
values[1000] = float("nan")
g = GridFunction(1, 2048, 8.0, values)
save_grid_function(g, "nan.bin")
save_grid_function_csv(g, "nan.csv")
"""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canon(x) -> str:
    """A text form of x that names every value and orders every set."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = (f"{f.name}={canon(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({','.join(fields)})"
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{canon(k)}:{canon(v)}" for k, v in x.items())) + "}"
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canon(e) for e in x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(e) for e in x) + "]"
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return f"array({x.dtype},{x.shape},{sha(np.ascontiguousarray(x).tobytes())})"
    return repr(x)


def cli_lines(root: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    lines = []
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-c", _WRITE_INPUTS], cwd=work, env=env, check=True)
        for name, argv in COMMANDS:
            try:
                proc = subprocess.run([sys.executable, "-m", "alphamod.cli", *argv],
                                      cwd=work, env=env, capture_output=True,
                                      timeout=CLI_TIMEOUT)
            except subprocess.TimeoutExpired:
                lines.append(f"cli {name} exit=timeout")
                continue
            lines.append(f"cli {name} exit={proc.returncode} stdout={sha(proc.stdout)} "
                         f"stderr={sha(proc.stderr)}")
        for name in WRITTEN:
            with open(os.path.join(work, name), "rb") as fh:
                lines.append(f"file {name} {sha(fh.read())}")
    return lines


def checkout_modules(root: str) -> dict:
    """The alphamod modules of the checkout at ROOT, by short name."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from alphamod import asymptotics, cli, covering, grids, indices

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"alphamod was imported from {cli.__file__}, not {root}/src")
    return {"asymptotics": asymptotics, "cli": cli, "covering": covering,
            "grids": grids, "indices": indices}


def library_lines(mods: dict) -> list:
    asymptotics = mods["asymptotics"]
    params = mods["indices"].SpaceParams(rp=0.5, rq=1.0, s=0.5, alpha=0.25)
    checks = [
        ("coarse-norm-ratio", lambda: asymptotics.coarse_norm_ratio_check(
            params, 0.5, trials=3, seed=5)),
        ("dilation-necessity", lambda: asymptotics.dilation_necessity_check(0.25, 0.75, 1)),
    ]
    return [f"library {name} results={sha(canon(run()).encode())}" for name, run in checks]


# partitions of the norm pieces lines, (alpha, n, N, L), 9 windows each; the
# function is random, band-limited to 0.9 of the safe radius
NORM_PARTITIONS = [(0.5, 1, 256, 4.0), (0.5, 2, 32, 2.0)]
NORM_EXPONENTS = (("2", 0.5), ("1", 1.0), ("inf", 0.0))


def norm_lines(mods: dict) -> list:
    covering, grids = mods["covering"], mods["grids"]
    lines = []
    for alpha, n, N, L in NORM_PARTITIONS:
        part = covering.build_partition(covering.CoveringSpec(alpha=alpha, n=n), N=N, L=L)
        f = grids.random_band_limited(n, N, L, 0.9 * part.safe_radius,
                                      np.random.default_rng(7))
        for name, rp in NORM_EXPONENTS:
            params = mods["indices"].SpaceParams(rp=rp, rq=1.0, s=0.0, alpha=alpha, n=n)
            pieces = grids.space_norm(f, params, part).pieces
            text = " ".join(f"{canon(k)}={canon(v)}" for k, v in pieces.items())
            lines.append(f"norm pieces n={n} alpha={alpha} p={name} {text}")
    return lines


# (name, spec keywords, N, L) of the partition samples lines: the README
# covering example, the 2-D one and the --k-max 20 one of COMMANDS, then the
# five partitions of the norm_batch workload (bench/workloads.py; its 2-D one
# is the "2d" one again) and a 2-D partition at alpha 0
SAMPLED_PARTITIONS = [
    ("readme", dict(alpha=0.5), 4096, 8.0),
    ("2d", dict(alpha=0.5, n=2), 64, 1.0),
    ("k-max-20", dict(alpha=1 / 3, c_small=0.3, c_big=0.7, k_max=20), 1024, 8.0),
    ("norm-batch-0", dict(alpha=0.0), 4096, 2.0),
    ("norm-batch-1/4", dict(alpha=0.25), 4096, 2.0),
    ("norm-batch-1/2", dict(alpha=0.5), 4096, 2.0),
    ("norm-batch-1", dict(alpha=1.0), 4096, 2.0),
    ("norm-batch-2d-1/2", dict(alpha=0.5, n=2), 64, 1.0),
    ("2d-alpha-0", dict(alpha=0.0, n=2), 64, 2.0),
]


def packed_sha(*arrays) -> str:
    """sha of integer arrays as little-endian int64 and float ones as float64."""
    return sha(b"".join(np.asarray(a, "<i8" if np.asarray(a).dtype.kind in "iu" else "<f8")
                        .tobytes() for a in arrays))


def partition_lines(mods: dict) -> list:
    covering = mods["covering"]
    lines = []
    for name, spec, N, L in SAMPLED_PARTITIONS:
        part = covering.build_partition(covering.CoveringSpec(**spec), N=N, L=L)
        lines.append(f"partition samples {name} windows={len(part.members)} "
                     f"{packed_sha(part.idx, part.values, part.offsets)}")
    return lines


# octave of the band windows lines, on the first lab_sweep growth pair
BAND_OCTAVE = 6


def band_lines(mods: dict) -> list:
    """One line per call of the norm kernel in box_opnorm_lower: the packed
    windows (bins, samples, offsets) of the two bump bands (two calls each,
    target side then source side) and of the spread grids."""
    import workloads

    asymptotics, parse = mods["asymptotics"], mods["cli"].parse_space
    src, tgt = (parse(text) for text in workloads.GROWTH_FIXTURES[0][:2])
    a, b = sorted((float(src.alpha), float(tgt.alpha)))
    k = asymptotics.anchor_for_octave(BAND_OCTAVE, b)
    grid = asymptotics.plan_grid(src, tgt, k, l_fine=asymptotics.matched_fine_index(k, a, b))
    kernel, lines = asymptotics.window_lp_norms, []

    def recording(spec, bins, samples, offsets, *rest):
        lines.append(f"band windows j={BAND_OCTAVE} k={k} call={len(lines)} "
                     f"windows={len(offsets) - 1} {packed_sha(bins, samples, offsets)}")
        return kernel(spec, bins, samples, offsets, *rest)

    asymptotics.window_lp_norms = recording
    try:
        asymptotics.box_opnorm_lower(k, src, tgt, grid)
    finally:
        asymptotics.window_lp_norms = kernel
    return lines


# octaves of the witness grid and box_opnorm_lower lines; Monte Carlo windows
# of the first growth pair (b = 1/2): the lab clip to the safe radius fires at k = 8
SWEEP_OCTAVES = range(4, 9)
MONTECARLO_WINDOWS = (8, 6)

# (name, alpha, n) of the witness fraction lines: the lab coverings of the
# sweeps and the 2-D covering of alpha 1/2
WITNESS_COVERINGS = [("0", 0.0, 1), ("1/4", 0.25, 1), ("1/3", 1 / 3, 1), ("1/2", 0.5, 1),
                     ("3/4", 0.75, 1), ("1/2", 0.5, 2)]


def witness_lines(mods: dict) -> list:
    """The support fraction witness_band gives the bumps of each of
    WITNESS_COVERINGS, and the (N, L) plan_grid gives each lab_sweep growth
    pair at SWEEP_OCTAVES, so a change to the witness geometry shows which
    quantity moved."""
    import workloads

    asymptotics, covering, grids = mods["asymptotics"], mods["covering"], mods["grids"]
    lines = []
    for name, alpha, n in WITNESS_COVERINGS:
        cov = covering.covering_for(covering.CoveringSpec(alpha=alpha, n=n))
        frac = grids.witness_band(cov.axis_window(0), alpha, cov, 2 ** 10, 1.0)[2]
        lines.append(f"witness fraction n={n} alpha={name} {canon(frac)}")
    parse = mods["cli"].parse_space
    for i, (s, t, _) in enumerate(workloads.GROWTH_FIXTURES):
        src, tgt = parse(s), parse(t)
        a, b = sorted((float(src.alpha), float(tgt.alpha)))
        for j in SWEEP_OCTAVES:
            k = asymptotics.anchor_for_octave(j, b)
            N, L = asymptotics.plan_grid(src, tgt, k,
                                         l_fine=asymptotics.matched_fine_index(k, a, b))
            lines.append(f"witness grid pair={i} j={j} k={k} N={N} L={canon(L)}")
    return lines


def sweep_lines(mods: dict) -> list:
    import workloads

    asymptotics, parse = mods["asymptotics"], mods["cli"].parse_space
    pairs = [(parse(s), parse(t)) for s, t, _ in workloads.GROWTH_FIXTURES]
    lines = []
    for i, (src, tgt) in enumerate(pairs):
        a, b = sorted((float(src.alpha), float(tgt.alpha)))
        for j in SWEEP_OCTAVES:
            k = asymptotics.anchor_for_octave(j, b)
            grid = asymptotics.plan_grid(src, tgt, k,
                                         l_fine=asymptotics.matched_fine_index(k, a, b))
            samples = asymptotics.box_opnorm_lower(k, src, tgt, grid)
            values = " ".join(f"{s.witness}={canon(s.lower_bound)}" for s in samples)
            lines.append(f"sweep lower pair={i} j={j} k={k} {values}")
    src, tgt = pairs[0]
    for k in MONTECARLO_WINDOWS:
        grid = asymptotics.plan_grid(src, tgt, k)
        for seed in SEEDS:
            mc = asymptotics.box_opnorm_montecarlo(k, src, tgt, grid,
                                                   trials=workloads.MONTECARLO_TRIALS,
                                                   seed=seed)
            lines.append(f"sweep montecarlo k={k} seed={seed} {canon(mc.lower_bound)}")
    return lines


def workload_lines(mods: dict) -> list:
    import workloads

    lines = []
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = cls(mods, seed)
            errors = []
            work.run_round(errors)
            lines.append(f"workload {name} seed={seed} ops={len(work.first)} "
                         f"errors={len(errors)} results={sha(canon(work.first).encode())}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: python tools/output_hashes.py ROOT\n")
        return 2
    root = os.path.abspath(args[0])
    mods = checkout_modules(root)
    lines = (cli_lines(root) + library_lines(mods) + norm_lines(mods) + partition_lines(mods)
             + band_lines(mods) + witness_lines(mods) + sweep_lines(mods)
             + workload_lines(mods))
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
