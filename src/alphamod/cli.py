"""Command-line interface: reproducible runs with self-describing reports.

Every report embeds the resolved configuration, the seed, and a schema tag;
identical (config, seed) pairs produce byte-identical output.  Exit status
0 means the computation ran (even when the verdict is "does not embed");
2 flags a configuration parse error or an output path that cannot be
written, 3 a violated precondition (an unreadable input file included), 4
an internal numerical check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
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

# sampled grids hold at most this many points (N^n); 2-D at 1024 per axis
MAX_GRID_POINTS = 2 ** 20


# the keys of a space's key=value list, each with the parser of its value
SPACE_KEYS = {"p": _reciprocal, "q": _reciprocal, "rp": as_scalar, "rq": as_scalar,
              "s": as_scalar, "alpha": as_scalar, "n": int}


def parse_space(text: str, n: int = 1) -> SpaceParams:
    """Parse 'p=2,q=inf,s=1/2,alpha=0.5' (or rp=/rq= forms) into parameters;
    an error in a value names its key."""
    fields = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParameterError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip().lower()
        if key not in SPACE_KEYS:
            raise ParameterError(f"unknown key {key!r}; expected one of {', '.join(SPACE_KEYS)}")
        if key in fields:
            raise ParameterError(f"key {key!r} given twice")
        try:
            fields[key] = SPACE_KEYS[key](value.strip())
        except (ParameterError, ValueError, ArithmeticError) as exc:
            raise ParameterError(f"{key}: {exc}") from None
    if "p" in fields and "rp" in fields:
        raise ParameterError("give either p= or rp=, not both")
    if "q" in fields and "rq" in fields:
        raise ParameterError("give either q= or rq=, not both")
    half = _reciprocal("2")
    return SpaceParams(rp=fields.get("rp", fields.get("p", half)),
                       rq=fields.get("rq", fields.get("q", half)),
                       s=fields.get("s", 0), alpha=fields.get("alpha", 0), n=fields.get("n", n))


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


# every report's config echoes these, then the keys its command sets as report_keys
_COMMON_KEYS = ("command", "n", "N", "L", "seed", "format")


def describe(args) -> dict:
    """The resolved configuration a report embeds."""
    cfg = {key: getattr(args, key) for key in _COMMON_KEYS + args.report_keys}
    for name in ("source", "target"):
        if getattr(args, name, None) is not None:
            cfg[name] = _space_fields(getattr(args, name))
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


def run(args) -> dict:
    """Execute the command of a resolved namespace; returns its report."""
    result = args.handler(args)
    return {"schema": SCHEMA, "command": args.command, "config": describe(args),
            "result": result}


def _require_spaces(args):
    if args.source is None or args.target is None:
        raise ParameterError("this command needs --source and --target")


def _run_decide(args) -> dict:
    _require_spaces(args)
    verdict = embedding_decide(args.source, args.target)
    out = verdict.to_dict()
    out["breakdown"] = _breakdown_dict(verdict.breakdown)
    return out


def _run_index(args) -> dict:
    _require_spaces(args)
    src, tgt = args.source, args.target
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


def _run_covering(args) -> dict:
    given = {} if args.c_small is None else {"c_small": args.c_small, "c_big": args.c_big}
    spec = CoveringSpec(alpha=args.alpha, n=args.n, k_max=args.k_max, **given)
    part = build_partition(spec, N=args.N, L=args.L)
    report = verify_partition(part)
    if args.dump_samples:
        dump_partition_samples(part, args.dump_samples)
    out = asdict(report)
    out["members"] = partition_rows(part)
    if part.covering is not None:
        out["constants"] = {"c_big": part.covering.r0, "delta": part.covering.delta,
                            "c_small": part.spec.c_small}
    return out


def _run_normcalc(args) -> dict:
    if args.source is None:
        raise ParameterError("normcalc needs --source for the space parameters")
    if args.input:
        if args.input.endswith(".csv"):
            f = load_grid_function_csv(args.input)
        else:
            f = load_grid_function(args.input)
        if f.N ** f.n > MAX_GRID_POINTS:
            raise ParameterError(f"{args.input} holds a grid of {f.N}^{f.n} points, "
                                 f"more than {MAX_GRID_POINTS}")
    elif args.builtin:
        f = builtin_function(args.builtin, args.n, args.N, args.L)
    else:
        raise ParameterError("normcalc needs --input FILE or --builtin NAME")
    spec = CoveringSpec(alpha=float(args.source.alpha), n=f.n)
    part = build_partition(spec, N=f.N, L=f.L)
    res = space_norm(f, args.source, part)
    return res.to_dict()


def _run_verify_asymptotics(args) -> dict:
    _require_spaces(args)
    from .asymptotics import growth_rate_check

    lo, hi = args.j_range
    return growth_rate_check(args.source, args.target, range(lo, hi + 1), seed=args.seed)


def _run_verify_embedding(args) -> dict:
    _require_spaces(args)
    from .asymptotics import dilation_necessity_check, embedding_consistency_check

    src, tgt = args.source, args.target
    verdict = embedding_decide(src, tgt)
    out = {"verdict": verdict.to_dict()}
    if float(tgt.rp) > float(src.rp):
        out["dilation"] = dilation_necessity_check(src.rp, tgt.rp, src.n)
    else:
        out["consistency"] = embedding_consistency_check(
            src, tgt, truncation=args.truncation, seed=args.seed)
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

    # each subcommand takes only the options it reads; every report shows a
    # grid and a seed, so commands without --grid or --seed report 4096,8 and 0
    space_help = {"source": "space parameters, e.g. p=2,q=inf,s=1/2,alpha=0",
                  "target": "space parameters of the target"}

    def command(name, handler, help, spaces=("source", "target"), report_keys=()):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, report_keys=report_keys, grid="4096,8", seed=0)
        for space in spaces:
            p.add_argument(f"--{space}", help=space_help[space])
        p.add_argument("--n", type=int, default=None,
                       help="spatial dimension (default 1); a space's n= must agree")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", default="json", choices=("json", "csv", "text"))
        return p

    def grid(p):
        p.add_argument("--grid", help="N,L for sampled computations")

    command("decide", _run_decide, "decide the embedding relation")
    command("index", _run_index, "evaluate the growth index and regions")

    cov = command("covering", _run_covering, "build, verify and export a partition",
                  spaces=(), report_keys=("alpha", "c_small", "c_big", "k_max"))
    cov.set_defaults(c_small=None, c_big=None)
    grid(cov)
    cov.add_argument("--alpha-constants", default=None,
                     help="c,C covering constants (warped units)")
    cov.add_argument("--alpha", required=True)
    cov.add_argument("--k-max", type=int, default=None)
    cov.add_argument("--dump-samples", default=None,
                     help="write the binary sample dump to this path")

    norm = command("normcalc", _run_normcalc, "covering norm of a sampled function",
                   spaces=("source",), report_keys=("builtin", "input"))
    grid(norm)
    norm.add_argument("--builtin", choices=("gaussian", "bump", "tone"))
    norm.add_argument("--input", default=None, help="GridFunction file (.bin or .csv)")

    va = command("verify-asymptotics", _run_verify_asymptotics, "growth-rate sweep report",
                 report_keys=("j_range",))
    va.add_argument("--seed", type=int)
    va.add_argument("--j-range", default="4:9", help="octave range lo:hi")

    ve = command("verify-embedding", _run_verify_embedding, "consistency / necessity checks",
                 report_keys=("truncation",))
    ve.add_argument("--seed", type=int)
    ve.add_argument("--truncation", type=int, default=32)
    return parser


def config_from_args(args):
    """Check and resolve a parsed namespace in place; returns it."""
    given_n, args.n = args.n, 1 if args.n is None else args.n
    args.N, args.L = parse_grid(args.grid)
    sampled = args.command == "covering" or (args.command == "normcalc" and not args.input)
    if sampled and args.n * math.log2(args.N) > math.log2(MAX_GRID_POINTS):
        raise ParameterError(
            f"grid {args.N},{args.L:g} in {args.n} dimensions has {args.N}^{args.n} points, "
            f"more than 2^20; give a smaller --grid N,L")
    if getattr(args, "alpha_constants", None):
        parts = args.alpha_constants.split(",")
        if len(parts) != 2:
            raise ParameterError("--alpha-constants wants 'c,C'")
        args.c_small, args.c_big = float(parts[0]), float(parts[1])
        if not all(math.isfinite(c) and c > 0 for c in (args.c_small, args.c_big)):
            raise ParameterError("covering constants must be positive and finite")
    # a space's n= must agree with an explicit --n; errors name the option
    for option in [name for name in ("source", "target") if hasattr(args, name)]:
        text, name = getattr(args, option), None
        try:
            space = parse_space(text, args.n) if text else None
            if space and given_n is not None and space.n != given_n:
                raise ParameterError(f"n={space.n} conflicts with --n {given_n}")
            # exact fields stay exact, but reports and sweeps convert them to floats
            for name in ("rp", "rq", "s", "alpha") if space else ():
                float(getattr(space, name))
        except OverflowError:
            raise ParameterError(f"--{option}: {name} must be finite as a float") from None
        except ParameterError as exc:
            raise ParameterError(f"--{option}: {exc}") from None
        setattr(args, option, space)
    if args.command == "covering":
        args.alpha = float(as_scalar(args.alpha))
    if args.command == "verify-asymptotics":
        lo, _, hi = args.j_range.partition(":")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ParameterError(f"--j-range {args.j_range!r} is empty: want lo:hi with lo <= hi")
        args.j_range = [lo, hi]
    return args


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_from_args(args)
    except (ParameterError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        emit(run(args), args.format, args.out)
    except (ParameterError, DomainError) as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_PRECONDITION
    except (CoveringError, TruncationError, GeometryError) as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        # input files are read through loaders that raise ParameterError,
        # so what is left is --out or --dump-samples
        target = exc.filename or "stdout"
        sys.stderr.write(f"config error: cannot write {target}: {exc.strerror}\n")
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
