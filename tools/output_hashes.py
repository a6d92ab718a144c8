"""Hash the observable outputs of one alphamod checkout.

    python tools/output_hashes.py ROOT

Prints one line per named output of the checkout at ROOT: the exit code and
the sha256 of stdout and stderr of each README command-line example and of
a set of command lines that end in exit codes 2, 3 and 4 (plus the files the
examples write), then two library checks and one round of each benchmark
workload in ``ROOT/bench/workloads.py`` at seeds 41 and 3.  Two checkouts
whose outputs agree print the same lines, so a refactor is checked with

    diff <(python tools/output_hashes.py OLD) <(python tools/output_hashes.py NEW)

Results are serialised with sets sorted and floats in hex, so the lines do
not depend on ``PYTHONHASHSEED``.
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
            proc = subprocess.run([sys.executable, "-m", "alphamod.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
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
    for line in cli_lines(root) + library_lines(mods) + workload_lines(mods):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
