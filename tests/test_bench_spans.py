"""The benchmark's span tracer (bench/spans.py) against the library names
it patches: a refactor that renames or drops a traced name fails here."""

import importlib.util
from pathlib import Path

from alphamod import asymptotics, cli, covering, grids, indices

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {"asymptotics": asymptotics, "cli": cli, "covering": covering,
           "grids": grids, "indices": indices}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(path: str):
    head, _, cls = path.partition(".")
    return getattr(MODULES[head], cls) if cls else MODULES[head]


def test_tracer_patches_and_restores_every_target():
    spans = _load_spans()
    sites = [(_owner(path), attr) for targets in spans.TARGETS.values()
             for path, attr in targets]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        patched = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(sites, originals))
