"""Command-line interface: reproducible runs with self-describing reports.

Every report embeds the resolved configuration, the seed, and a schema tag;
identical (config, seed) pairs produce byte-identical output.  Exit status
0 means the computation ran (even when the verdict is "does not embed");
2 flags a configuration parse error, 3 a violated precondition, 4 an
internal numerical check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .covering import (
    CoveringSpec,
    build_partition,
    dump_partition_samples,
    partition_rows,
    verify_partition,
)
from .errors import (
    CoveringError,
    DomainError,
    GeometryError,
    ParameterError,
    TruncationError,
)
from .grids import (
    builtin_function,
    load_grid_function,
    load_grid_function_csv,
    space_norm,
)
from .indices import (
    SpaceParams,
    _reciprocal,
    as_scalar,
    embedding_decide,
    embedding_index,
    region_classify,
)

SCHEMA = "alphamod/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def parse_space(text: str, n: int = 1) -> SpaceParams:
    """Parse 'p=2,q=inf,s=1/2,alpha=0.5' (or rp=/rq= forms) into parameters."""
    fields = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParameterError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        fields[key.strip().lower()] = value.strip()
    kwargs = {}
    if "p" in fields and "rp" in fields:
        raise ParameterError("give either p= or rp=, not both")
    if "q" in fields and "rq" in fields:
        raise ParameterError("give either q= or rq=, not both")
    sval = as_scalar(fields.get("s", 0))
    alpha = as_scalar(fields.get("alpha", 0))
    dim = int(fields.get("n", n))
    if "rp" in fields:
        kwargs["rp"] = as_scalar(fields["rp"])
    else:
        kwargs["rp"] = _reciprocal(fields.get("p", "2"))
    if "rq" in fields:
        kwargs["rq"] = as_scalar(fields["rq"])
    else:
        kwargs["rq"] = _reciprocal(fields.get("q", "2"))
    return SpaceParams(s=sval, alpha=alpha, n=dim, **kwargs)


def parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError("grid must be 'N,L'")
    N = int(parts[0])
    L = float(parts[1])
    if N <= 0 or N & (N - 1):
        raise ParameterError(f"grid size N must be a power of two, got {N}")
    if not (math.isfinite(L) and L > 0):
        raise ParameterError(f"grid period L must be positive and finite, got {parts[1]!r}")
    return N, L


@dataclass
class RunConfig:
    command: str
    source: Optional[SpaceParams] = None
    target: Optional[SpaceParams] = None
    n: int = 1
    N: int = 4096
    L: float = 8.0
    alpha: float = 0.0
    c_small: Optional[float] = None
    c_big: Optional[float] = None
    k_max: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "json"
    builtin: Optional[str] = None
    input_path: Optional[str] = None
    dump_samples: Optional[str] = None
    j_min: int = 4
    j_max: int = 9
    truncation: int = 32
    extras: dict = field(default_factory=dict)

    def describe(self) -> dict:
        cfg = {
            "command": self.command,
            "n": self.n,
            "N": self.N,
            "L": self.L,
            "seed": self.seed,
            "format": self.fmt,
        }
        if self.source is not None:
            cfg["source"] = _space_fields(self.source)
        if self.target is not None:
            cfg["target"] = _space_fields(self.target)
        if self.command == "covering":
            cfg["alpha"] = self.alpha
            cfg["c_small"] = self.c_small
            cfg["c_big"] = self.c_big
            cfg["k_max"] = self.k_max
        if self.command == "normcalc":
            cfg["builtin"] = self.builtin
            cfg["input"] = self.input_path
        if self.command == "verify-asymptotics":
            cfg["j_range"] = [self.j_min, self.j_max]
        if self.command == "verify-embedding":
            cfg["truncation"] = self.truncation
        return cfg


def _space_fields(p: SpaceParams) -> dict:
    return {"rp": str(p.rp), "rq": str(p.rq), "s": str(p.s),
            "alpha": str(p.alpha), "n": p.n}


def _breakdown_dict(bd) -> dict:
    return {
        "branch": bd.branch,
        "terms": [float(t) for t in bd.terms],
        "value": float(bd.value),
        "argmax": sorted(bd.argmax),
        "binding": list(bd.binding_labels()),
    }


def run(config: RunConfig):
    """Execute one command; returns (exit_status, report dict)."""
    handler = {
        "decide": _run_decide,
        "index": _run_index,
        "covering": _run_covering,
        "normcalc": _run_normcalc,
        "verify-asymptotics": _run_verify_asymptotics,
        "verify-embedding": _run_verify_embedding,
    }.get(config.command)
    if handler is None:
        raise ParameterError(f"unknown command {config.command!r}")
    result = handler(config)
    report = {"schema": SCHEMA, "command": config.command,
              "config": config.describe(), "result": result}
    return EXIT_OK, report


def _require_spaces(config: RunConfig):
    if config.source is None or config.target is None:
        raise ParameterError("this command needs --source and --target")


def _run_decide(config: RunConfig) -> dict:
    _require_spaces(config)
    verdict = embedding_decide(config.source, config.target)
    out = verdict.to_dict()
    out["breakdown"] = _breakdown_dict(verdict.breakdown)
    return out


def _run_index(config: RunConfig) -> dict:
    _require_spaces(config)
    src, tgt = config.source, config.target
    if src.n != tgt.n:
        raise ParameterError(f"dimension mismatch: {src.n} vs {tgt.n}")
    bd = embedding_index(src.n, src.rp, tgt.rp, src.rq, tgt.rq, src.alpha, tgt.alpha)
    out = _breakdown_dict(bd)
    rq = src.rq if src.alpha <= tgt.alpha else tgt.rq
    if tgt.rp <= src.rp:
        out["regions"] = sorted(region_classify(src.rp, tgt.rp, rq, bd.branch))
    else:
        out["regions"] = []
        out["note"] = "region classification needs 1/p2 <= 1/p1"
    return out


def _run_covering(config: RunConfig) -> dict:
    spec = CoveringSpec(alpha=config.alpha, n=config.n,
                        c_small=config.c_small if config.c_small is not None else 0.4,
                        c_big=config.c_big, k_max=config.k_max)
    part = build_partition(spec, N=config.N, L=config.L)
    report = verify_partition(part)
    if config.dump_samples:
        dump_partition_samples(part, config.dump_samples)
    out = report.to_dict()
    out["members"] = partition_rows(part)
    if part.covering is not None:
        out["constants"] = {"c_big": part.covering.r0, "delta": part.covering.delta,
                            "c_small": part.spec.c_small}
    return out


def _run_normcalc(config: RunConfig) -> dict:
    if config.source is None:
        raise ParameterError("normcalc needs --source for the space parameters")
    if config.input_path:
        if config.input_path.endswith(".csv"):
            f = load_grid_function_csv(config.input_path)
        else:
            f = load_grid_function(config.input_path)
    elif config.builtin:
        f = builtin_function(config.builtin, config.n, config.N, config.L)
    else:
        raise ParameterError("normcalc needs --input FILE or --builtin NAME")
    spec = CoveringSpec(alpha=float(config.source.alpha), n=f.n)
    part = build_partition(spec, N=f.N, L=f.L)
    res = space_norm(f, config.source, part)
    return res.to_dict()


def _run_verify_asymptotics(config: RunConfig) -> dict:
    _require_spaces(config)
    from .asymptotics import growth_rate_check

    return growth_rate_check(config.source, config.target,
                         range(config.j_min, config.j_max + 1), seed=config.seed)


def _run_verify_embedding(config: RunConfig) -> dict:
    _require_spaces(config)
    from .asymptotics import dilation_necessity_check, embedding_consistency_check

    src, tgt = config.source, config.target
    verdict = embedding_decide(src, tgt)
    out = {"verdict": verdict.to_dict()}
    if float(tgt.rp) > float(src.rp):
        out["dilation"] = dilation_necessity_check(src.rp, tgt.rp, src.n)
    else:
        out["consistency"] = embedding_consistency_check(
            src, tgt, truncation=config.truncation, seed=config.seed)
    return out


# -- emission ------------------------------------------------------------------

def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        lines = []
        _flatten(report, "", lines)
        return "\n".join(f"{k:<48} {v}" for k, v in lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        rows = _csv_rows(report)
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    raise ParameterError(f"unknown format {fmt!r}")


def _flatten(node, prefix, lines):
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}{key}." if prefix else f"{key}.", lines)
        return
    name = prefix[:-1]
    if isinstance(node, list):
        lines.append((name, json.dumps(node)))
    else:
        lines.append((name, json.dumps(node) if isinstance(node, str) else node))


def _csv_rows(report: dict):
    result = report.get("result", {})
    if "members" in result:
        header = ["index", "center", "scale", "support_radius"]
        rows = [header]
        rows += [[m[h] for h in header] for m in result["members"]]
        return rows
    if "samples" in result:
        rows = [["j", "k", "witness", "lower_bound", "eff_logscale"]]
        for s in result["samples"]:
            rows.append([s["j"], s["k"], s["witness"], s["lower_bound"],
                         s["eff_logscale"]])
        return rows
    if "pieces" in result:
        rows = [["index", "lp_value"]]
        for k in sorted(result["pieces"]):
            rows.append([k, result["pieces"][k]])
        return rows
    lines = []
    _flatten(report, "", lines)
    return [["key", "value"]] + [[k, v] for k, v in lines]


def emit(report: dict, fmt: str, out: Optional[str]):
    text = render(report, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphamod",
        description="Sharp embedding decisions and numerical verification "
                    "for covering-decomposition function spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    def common(p, spaces=True):
        if spaces:
            p.add_argument("--source", help="space parameters, e.g. p=2,q=inf,s=1/2,alpha=0")
            p.add_argument("--target", help="space parameters of the target")
        p.add_argument("--n", type=int, default=1, help="spatial dimension")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", default="json", choices=("json", "csv", "text"))

    def grid(p):
        p.add_argument("--grid", default=None, help="N,L for sampled computations")

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("decide", help="decide the embedding relation"))
    common(sub.add_parser("index", help="evaluate the growth index and regions"))

    cov = sub.add_parser("covering", help="build, verify and export a partition")
    common(cov, spaces=False)
    grid(cov)
    cov.add_argument("--alpha-constants", default=None,
                     help="c,C covering constants (warped units)")
    cov.add_argument("--alpha", required=True)
    cov.add_argument("--k-max", type=int, default=None)
    cov.add_argument("--dump-samples", default=None,
                     help="write the binary sample dump to this path")

    norm = sub.add_parser("normcalc", help="covering norm of a sampled function")
    common(norm)
    grid(norm)
    norm.add_argument("--builtin", choices=("gaussian", "bump", "tone"))
    norm.add_argument("--input", dest="input_path", default=None,
                      help="GridFunction file (.bin or .csv)")

    va = sub.add_parser("verify-asymptotics", help="growth-rate sweep report")
    common(va)
    seed(va)
    va.add_argument("--j-range", default="4:9", help="octave range lo:hi")

    ve = sub.add_parser("verify-embedding", help="consistency / necessity checks")
    common(ve)
    seed(ve)
    ve.add_argument("--truncation", type=int, default=32)
    return parser


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.n = getattr(args, "n", 1)
    cfg.seed = getattr(args, "seed", 0)
    cfg.out = getattr(args, "out", None)
    cfg.fmt = getattr(args, "format", "json")
    if getattr(args, "grid", None):
        cfg.N, cfg.L = parse_grid(args.grid)
    if getattr(args, "alpha_constants", None):
        parts = args.alpha_constants.split(",")
        if len(parts) != 2:
            raise ParameterError("--alpha-constants wants 'c,C'")
        cfg.c_small, cfg.c_big = float(parts[0]), float(parts[1])
        if not all(math.isfinite(c) and c > 0 for c in (cfg.c_small, cfg.c_big)):
            raise ParameterError("covering constants must be positive and finite")
    if getattr(args, "source", None):
        cfg.source = parse_space(args.source, cfg.n)
    if getattr(args, "target", None):
        cfg.target = parse_space(args.target, cfg.n)
    if args.command == "covering":
        cfg.alpha = float(as_scalar(args.alpha))
        cfg.k_max = args.k_max
        cfg.dump_samples = args.dump_samples
    if args.command == "normcalc":
        cfg.builtin = args.builtin
        cfg.input_path = args.input_path
    if args.command == "verify-asymptotics":
        lo, _, hi = args.j_range.partition(":")
        cfg.j_min, cfg.j_max = int(lo), int(hi or lo)
    if args.command == "verify-embedding":
        cfg.truncation = args.truncation
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ParameterError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        status, report = run(config)
    except (ParameterError, DomainError) as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_PRECONDITION
    except (CoveringError, TruncationError, GeometryError) as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL
    emit(report, config.fmt, config.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
