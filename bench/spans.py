"""Span tracing around the public functions of each alphamod layer.

A traced run replaces each function at the name through which its caller
looks it up (``asymptotics`` imports ``build_partition`` by name, so both
``covering.build_partition`` and ``asymptotics.build_partition`` are
patched) with a wrapper that records a span.  Self time of a span is its
duration minus the time covered by its direct child spans.  Aggregates
cover every span; the first ``SPAN_CAP`` raw spans are kept in memory and
written to a JSON-lines file when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time

SPAN_CAP = 100_000

# span name -> lookup sites (module attribute name, attribute); a class path
# "covering.Covering" patches the method on the class
TARGETS = {
    "cli.parse_space": [("cli", "parse_space")],
    "indices.embedding_decide": [("indices", "embedding_decide"),
                                 ("asymptotics", "embedding_decide")],
    "indices.embedding_index": [("indices", "embedding_index")],
    "indices.region_classify": [("indices", "region_classify")],
    "covering.build_partition": [("covering", "build_partition"),
                                 ("asymptotics", "build_partition")],
    "covering.plateau_fraction": [("covering.Covering", "plateau_fraction")],
    "covering.neighbor_set": [("covering", "neighbor_set"), ("grids", "neighbor_set")],
    "grids.space_norm": [("grids", "space_norm"), ("asymptotics", "space_norm")],
    "grids.coarse_norm": [("grids", "coarse_norm")],
    "grids.witness_bump": [("grids", "witness_bump"), ("asymptotics", "witness_bump")],
    "grids.box_apply": [("grids", "box_apply"), ("asymptotics", "box_apply")],
    "asymptotics.plan_grid": [("asymptotics", "plan_grid")],
    "asymptotics.box_opnorm_lower": [("asymptotics", "box_opnorm_lower")],
    "asymptotics.box_opnorm_montecarlo": [("asymptotics", "box_opnorm_montecarlo")],
}


class Tracer:
    """Records spans for the patched functions while installed."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> imported module
        self.calls = {}                 # name -> call count
        self.self_s = {}                # name -> summed self time
        self.child_s = {}               # (parent, child) -> summed child duration
        self.child_calls = {}           # (parent, child) -> child call count
        self.spans = []                 # (id, name, parent id, start, end)
        self.fft_points = 0             # inverse-FFT points of norm evaluations
        self._next_id = 0
        self._local = threading.local()
        self._saved = []

    def _site(self, path: str):
        head, _, cls = path.partition(".")
        obj = self.modules[head]
        return getattr(obj, cls) if cls else obj

    def install(self):
        for name, sites in TARGETS.items():
            for path, attr in sites:
                owner = self._site(path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]   # span id, name, child time
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(frame, parent, t0, t1)
            tracer._count_work(name, args, result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, frame, parent, t0, t1):
        span_id, name, child = frame
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent_id = None
        if parent is not None:
            parent[2] += dur
            key = (parent[1], name)
            self.child_s[key] = self.child_s.get(key, 0.0) + dur
            self.child_calls[key] = self.child_calls.get(key, 0) + 1
            parent_id = parent[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, parent_id, t0, t1))

    def _count_work(self, name, args, result):
        # one inverse FFT of N^n points per touched window
        if name == "grids.space_norm":
            f = args[0]
            touched = sum(1 for v in result.pieces.values() if v > 0.0)
            self.fft_points += touched * f.N ** f.n
        elif name == "grids.box_apply":
            f = args[0]
            self.fft_points += f.N ** f.n

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) / calls * scale if calls else 0.0

    def write(self, path: str):
        with open(path, "w") as fh:
            for span_id, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")
