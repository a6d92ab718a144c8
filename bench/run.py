"""alphamod benchmark: one workload per process, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload decide_stream --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  Set-up is
timed from the start of the process; the measured part runs whole rounds
of the workload's operations until ``--seconds`` have passed; the outputs
are checked afterwards.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps the library functions in spans and prints the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# per-layer self time per call: (span name, unit)
LAYER_TIMES = (
    ("cli.parse_space", "us"),
    ("indices.embedding_decide", "us"),
    ("indices.embedding_index", "us"),
    ("indices.region_classify", "us"),
    ("covering.build_partition", "s"),
    ("covering.plateau_fraction", "s"),
    ("covering.neighbor_set", "ms"),
    ("grids.space_norm", "ms"),
    ("grids.coarse_norm", "ms"),
    ("grids.witness_bump", "ms"),
    ("grids.box_apply", "ms"),
    ("asymptotics.plan_grid", "s"),
    ("asymptotics.box_opnorm_lower", "s"),
)
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_library() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from alphamod import asymptotics, cli, covering, grids, indices
    except ImportError as exc:
        raise SystemExit(f"cannot import alphamod from {ROOT}/src: {exc}")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"alphamod was imported from {cli.__file__}, not {ROOT}/src")
    return {"asymptotics": asymptotics, "cli": cli, "covering": covering,
            "grids": grids, "indices": indices}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s, totals) -> dict:
    """Mean throughput over every completed operation, and the median over
    operations of each one's mean latency across rounds."""
    done = [(s, c) for s, c in totals if c]
    if not done:
        raise SystemExit("every operation failed; nothing was measured")
    busy = sum(s for s, _ in done)
    completed = sum(c for _, c in done)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
        "ops_per_s": metric(completed / busy, "1/s"),
        "op_p50_ms": metric(statistics.median(s / c for s, c in done) * 1e3, "ms"),
    }


def accumulate(totals, latencies):
    """Per-operation [summed latency, completed count] across rounds."""
    if totals is None:
        totals = [[0.0, 0] for _ in latencies]
    for slot, lat in zip(totals, latencies):
        if lat is not None:
            slot[0] += lat
            slot[1] += 1
    return totals


def per_layer(tracer, workload, setup_calls, rounds, attempted) -> dict:
    """Self time per call; calls made in set-up plus calls per round."""
    out = {}
    for name, unit in LAYER_TIMES:
        before = setup_calls.get(name, 0)
        calls = before + (tracer.calls.get(name, 0) - before) / rounds
        out[f"{name}_{unit}"] = metric(tracer.per_call(name, SCALE[unit]), unit)
        out[f"{name}_calls"] = metric(calls, "count")
    norms = attempted if isinstance(workload, workloads.NormBatch) else 0
    out["grids.fft_points_per_norm"] = metric(
        tracer.fft_points / norms if norms else 0.0, "count")
    plans = tracer.calls.get("asymptotics.plan_grid", 0)
    built = tracer.child_calls.get(("asymptotics.plan_grid", "covering.build_partition"), 0)
    out["asymptotics.partitions_built_per_plan_grid"] = metric(
        built / plans if plans else 0.0, "ratio")
    mc = "asymptotics.box_opnorm_montecarlo"
    mc_calls = tracer.calls.get(mc, 0)
    trial_ms = 0.0
    if mc_calls:
        inclusive = tracer.self_s[mc] + sum(v for (p, _), v in tracer.child_s.items()
                                            if p == mc)
        setup = sum(tracer.child_s.get((mc, c), 0.0)
                    for c in ("asymptotics.box_opnorm_lower", "covering.neighbor_set"))
        trial_ms = (inclusive - setup) / (mc_calls * workloads.MONTECARLO_TRIALS) * 1e3
    out["asymptotics.montecarlo_trial_ms"] = metric(trial_ms, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the probe runs from here to the end of the measurement; a traced run
    # reports raw per-layer times and runs without it
    probe = None if args.trace else speed.SpeedProbe()
    tracer = None
    if probe is not None:
        probe.start()
    try:
        mods = import_library()
        if args.trace:
            tracer = spans.Tracer(mods)
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](mods, args.seed)
        setup_s = process_age()
        setup_calls = dict(tracer.calls) if tracer is not None else {}
        setup_probe_s = 0.0
        if probe is not None:
            # interpreter start and imports are taken at the set-up's mean speed
            setup_probe_s = probe.probe_s
            setup_s = (setup_s - setup_probe_s) * probe.factor_sum / probe.samples

        errors = []
        totals = None
        rounds = attempted = failed = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds:
            latencies = workload.run_round(errors, probe)
            rounds += 1
            attempted += len(latencies)
            failed += latencies.count(None)
            totals = accumulate(totals, latencies)
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - t0

    problems = workload.check()
    for line in (errors[:20] + problems[:50]):
        print(line, file=sys.stderr)

    if tracer is not None:
        metrics = per_layer(tracer, workload, setup_calls, rounds, attempted)
    else:
        metrics = end_to_end(setup_s, totals)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, elapsed_s=elapsed)
    if probe is not None:
        measured_probe_s = probe.probe_s - setup_probe_s
        record.update(probe_samples=probe.samples, probe_share=measured_probe_s / elapsed,
                      mean_speed_factor=probe.factor_sum / probe.samples,
                      uncorrected_ops_per_s=(attempted - failed) / (elapsed - measured_probe_s))
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
