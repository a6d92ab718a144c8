"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), runs whole rounds of one fixed list of operations, and checks the
outputs afterwards, outside the timed region.  Operations call the library
through module attributes (``cli.parse_space``, ``grids.space_norm``) so a
traced run sees every call at the name it patched.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import time
from fractions import Fraction

import numpy as np

import checks


def _reciprocal(text: str) -> Fraction:
    return Fraction(0) if text == "inf" else 1 / Fraction(text)


def _exponent_float(text: str) -> float:
    return math.inf if text == "inf" else float(Fraction(text))


class Rounds:
    """Runs whole rounds of ``self.ops`` through ``self._op``; keeps the
    first round's results for the checks and counts results that change
    in later rounds."""

    first = None
    drift = 0

    def _before(self):
        """Called before every operation, outside its timing."""

    @staticmethod
    def _key(result):
        return result

    def run_round(self, errors: list, probe=None) -> list:
        """Run every operation once and return the latencies, None for an
        operation that raised.  With a speed probe they are corrected to
        nominal speed."""
        out, latencies = [], []
        clock = time.perf_counter
        for k, op in enumerate(self.ops):
            self._before()
            mark = probe.mark() if probe is not None else None
            t0 = clock()
            try:
                result = self._op(*op)
            except Exception as exc:  # counted as a failed operation
                errors.append(f"operation {k}: {exc!r}")
                out.append(None)
                latencies.append(None)
                continue
            raw = clock() - t0
            latencies.append(probe.corrected(raw, mark) if probe is not None else raw)
            out.append(result)
        if self.first is None:
            self.first = out
        else:
            self.drift += sum(1 for a, b in zip(self.first, out)
                              if self._key(a) != self._key(b))
        return latencies


# -- decide_stream -----------------------------------------------------------

P_TEXT = ("1/2", "1", "4/3", "2", "4", "inf")
Q_TEXT = ("1/2", "1", "2", "4", "inf")
ALPHA_TEXT = ("0", "1/4", "1/3", "1/2", "3/4", "1")
S_STEPS = range(-30, 31)            # s = k/20, written as a decimal

# fixed shares, so the cost of a round does not depend on the seed
SHARED_QUERIES = 768                # p1 = p2, q1 = q2
CLASSICAL_QUERIES = 768             # alpha1 = alpha2, p1 = p2
GENERAL_QUERIES = 1536              # every field drawn independently
FLOAT_COPIES = 1024                 # float copies of the first exact queries
INDEX_EVERY = 4                     # every 4th operation also runs `index`
S_RAISE = Fraction(1, 10)


@dataclasses.dataclass(frozen=True)
class Side:
    p: str
    q: str
    s: Fraction
    alpha: str
    n: int

    @property
    def rp(self):
        return _reciprocal(self.p)

    @property
    def rq(self):
        return _reciprocal(self.q)

    @property
    def a(self):
        return Fraction(self.alpha)

    def text(self) -> str:
        return f"p={self.p},q={self.q},s={float(self.s):.2f},alpha={self.alpha},n={self.n}"

    def floats(self) -> tuple:
        return (_exponent_float(self.p), _exponent_float(self.q), float(self.s),
                float(Fraction(self.alpha)))


@dataclasses.dataclass(frozen=True)
class Query:
    kind: str                       # "shared" | "classical" | "general"
    src: Side
    tgt: Side


def make_queries(seed: int) -> list:
    rng = random.Random(seed)

    def side(n, p=None, q=None, alpha=None):
        return Side(p=p or rng.choice(P_TEXT), q=q or rng.choice(Q_TEXT),
                    s=Fraction(rng.choice(S_STEPS), 20),
                    alpha=alpha or rng.choice(ALPHA_TEXT), n=n)

    queries = []
    for _ in range(SHARED_QUERIES):
        n, p, q = rng.choice((1, 2, 3)), rng.choice(P_TEXT), rng.choice(Q_TEXT)
        queries.append(Query("shared", side(n, p=p, q=q), side(n, p=p, q=q)))
    for _ in range(CLASSICAL_QUERIES):
        n, p, a = rng.choice((1, 2, 3)), rng.choice(P_TEXT), rng.choice(ALPHA_TEXT)
        queries.append(Query("classical", side(n, p=p, alpha=a), side(n, p=p, alpha=a)))
    for _ in range(GENERAL_QUERIES):
        n = rng.choice((1, 2, 3))
        queries.append(Query("general", side(n), side(n)))
    rng.shuffle(queries)
    return queries


class DecideStream(Rounds):
    """Closed loop of one client sending embedding queries.

    Exact queries arrive as CLI text and go through ``cli.parse_space``;
    the CLI parses decimal text as exact fractions, so float queries enter
    through the library constructor ``SpaceParams.from_exponents``.
    """

    def __init__(self, mods: dict, seed: int):
        self.cli, self.indices = mods["cli"], mods["indices"]
        self.queries = make_queries(seed)
        ops = [(i, False) for i in range(len(self.queries))]
        ops += [(i, True) for i in range(FLOAT_COPIES)]
        random.Random(seed + 1).shuffle(ops)
        self.ops = [(i, is_float, pos % INDEX_EVERY == 0)
                    for pos, (i, is_float) in enumerate(ops)]
        self.texts = [(q.src.text(), q.tgt.text()) for q in self.queries]

    def _spaces(self, i: int, is_float: bool):
        if is_float:
            q = self.queries[i]
            make = self.indices.SpaceParams.from_exponents
            return (make(*q.src.floats(), n=q.src.n), make(*q.tgt.floats(), n=q.tgt.n))
        src_text, tgt_text = self.texts[i]
        return self.cli.parse_space(src_text), self.cli.parse_space(tgt_text)

    def _op(self, i: int, is_float: bool, with_index: bool):
        indices = self.indices
        src, tgt = self._spaces(i, is_float)
        verdict = indices.embedding_decide(src, tgt)
        binding = regions = None
        if with_index:
            bd = indices.embedding_index(src.n, src.rp, tgt.rp, src.rq, tgt.rq,
                                         src.alpha, tgt.alpha)
            binding = bd.binding_labels()
            rq = src.rq if src.alpha <= tgt.alpha else tgt.rq
            if tgt.rp <= src.rp:
                regions = indices.region_classify(src.rp, tgt.rp, rq, bd.branch)
        return verdict, binding, regions

    @staticmethod
    def _key(result):
        return result and result[0].embeds

    def check(self) -> list:
        problems = []
        if self.drift:
            problems.append(f"{self.drift} verdicts changed between rounds")
        indices = self.indices
        exact = {}
        for (i, is_float, _), res in zip(self.ops, self.first):
            if res is not None and not is_float:
                exact[i] = res[0]
        for (i, is_float, _), res in zip(self.ops, self.first):
            if res is None:
                continue
            verdict, binding, regions = res
            q = self.queries[i]
            s, t = q.src, q.tgt
            found = [checks.p_order(s.rp, t.rp, verdict.embeds)]
            if not is_float and q.kind == "shared":
                found.append(checks.shared_exponent(s.n, s.rp, s.rq, s.s, t.s, s.a, t.a,
                                                    verdict.embeds))
            if not is_float and q.kind == "classical":
                found.append(checks.classical(s.n, s.rq, t.rq, s.s, t.s, s.a,
                                              verdict.embeds))
            src, tgt = self._spaces(i, is_float)
            found.append(checks.self_embedding(indices.embedding_decide(src, src).embeds))
            raise_by = float(S_RAISE) if is_float else S_RAISE
            raised = dataclasses.replace(src, s=src.s + raise_by)
            found.append(checks.monotone_in_s1(
                verdict.embeds, indices.embedding_decide(raised, tgt).embeds))
            if is_float and i in exact:
                found.append(checks.float_copy(exact[i].margin, exact[i].embeds,
                                               verdict.embeds))
            if regions is not None and not is_float and s.a != t.a:
                found.append(checks.regions_match_binding(regions, binding))
            problems += [f"{self.texts[i]}: {p}" for p in found if p]
        return problems


# -- norm_batch --------------------------------------------------------------

GRID_1D = (4096, 2.0)
GRID_2D = (64, 1.0)
# (alpha, n, band radius of the test functions as a share of the safe radius)
PARTITIONS = (("0", 1, 0.2), ("1/4", 1, 0.5), ("1/2", 1, 0.9), ("1", 1, 0.9),
              ("1/2", 2, 0.9))
FUNCTIONS_PER_PARTITION = 2
NORM_PARAMS = ("p=2,q=2,s=0", "p=1,q=1,s=0", "p=4,q=1,s=0", "p=1,q=inf,s=1/2",
               "p=2/3,q=2,s=-1/4")
COARSE_PAIRS = (("1/4", "1/2"), ("1/2", "1"))
COARSE_PARAMS = ("p=2,q=2,s=0", "p=1,q=1,s=0")
COARSE_BAND = 0.5


class NormBatch(Rounds):
    """Decomposition norms of seeded random band-limited functions."""

    def __init__(self, mods: dict, seed: int):
        self.grids = mods["grids"]
        cli, covering = mods["cli"], mods["covering"]
        rng = np.random.default_rng(seed)
        self.partitions = {}
        for alpha, n, _ in PARTITIONS:
            N, L = GRID_1D if n == 1 else GRID_2D
            spec = covering.CoveringSpec(alpha=float(Fraction(alpha)), n=n)
            self.partitions[(alpha, n)] = covering.build_partition(spec, N=N, L=L)
        self.ops = []
        for alpha, n, band in PARTITIONS:
            part = self.partitions[(alpha, n)]
            for _ in range(FUNCTIONS_PER_PARTITION):
                f = self.grids.random_band_limited(n, part.N, part.L,
                                                   band * part.safe_radius, rng)
                for text in NORM_PARAMS:
                    params = cli.parse_space(f"{text},alpha={alpha}", n)
                    self.ops.append(("space", f, params, (part,)))
        for a1, a2 in COARSE_PAIRS:
            p1, p2 = self.partitions[(a1, 1)], self.partitions[(a2, 1)]
            radius = COARSE_BAND * min(p1.safe_radius, p2.safe_radius)
            f = self.grids.random_band_limited(1, p1.N, p1.L, radius, rng)
            for text in COARSE_PARAMS:
                params = cli.parse_space(f"{text},alpha={a1}")
                self.ops.append(("coarse", f, params, (p1, p2)))

    def _op(self, kind, f, params, parts):
        if kind == "space":
            return self.grids.space_norm(f, params, parts[0]).value
        p1, p2 = parts
        return self.grids.coarse_norm(f, p1.alpha, p2.alpha, params.s, params.rp,
                                      params.rq, p1, p2)

    def check(self) -> list:
        problems = []
        if self.drift:
            problems.append(f"{self.drift} norm values changed between rounds")
        overlap = {id(p): checks.max_overlap(p) for p in self.partitions.values()}
        for key, part in self.partitions.items():
            found = checks.partition_sum(part, _freq_radius(part))
            if found:
                problems.append(f"partition {key}: {found}")
        for (kind, f, params, parts), value in zip(self.ops, self.first):
            if value is None or params.s != 0:
                continue
            cell = (f.L / f.N) ** f.n
            if params.rp == params.rq == Fraction(1, 2):
                m = math.prod(overlap[id(part)] for part in parts)
                found = checks.l2_sandwich(value, checks.lp_norm(f.values, cell, 0.5), m)
            elif params.rq == 1 and params.rp <= 1:
                found = checks.q1_lower(value, checks.lp_norm(f.values, cell, params.rp))
            else:
                continue
            if found:
                problems.append(f"{kind} norm alpha={params.alpha} n={f.n}: {found}")
        return problems


def _freq_radius(part) -> np.ndarray:
    ax = np.fft.fftfreq(part.N, d=part.L / part.N)
    if part.n == 1:
        return np.abs(ax)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.hypot(gx, gy).reshape(-1)


# -- lab_sweep ---------------------------------------------------------------

J_RANGE = range(4, 9)
# (source, target, hand-derived rate); with rp1 = rp2 = 1, q = 2, alphas 0 and
# 1/2 the spread term n (a2 - a1)(1/p2 - 1/q) = 1/4 binds (LE branch); with
# alphas 1/2 and 0, 1/p = 1 and 1/2, q = 1 the concentrated term
# n a2 (1 - 1/p2) - n a1 (1 - 1/p1) - n (a2 - a1)/q = 1/2 binds (GT branch)
GROWTH_FIXTURES = (
    ("p=1,q=2,s=0,alpha=0", "p=1,q=2,s=0,alpha=1/2", Fraction(1, 4)),
    ("p=1,q=1,s=0,alpha=1/2", "p=2,q=1,s=0,alpha=0", Fraction(1, 2)),
)
# index 1/4 (concentrated term) against s1 - s2 = 0: margin -1/4 does not
# embed, so the truncated multiplier norms grow
CONSISTENCY_FIXTURE = ("p=1,q=inf,s=0,alpha=0", "p=inf,q=inf,s=0,alpha=1/4", "growing")
CONSISTENCY_TRUNCATION = 8
MONTECARLO_OCTAVE = 6
MONTECARLO_TRIALS = 16


class LabSweep(Rounds):
    """Verification sweeps, each started without any cached partition, as
    a fresh CLI process starts."""

    def __init__(self, mods: dict, seed: int):
        self.asym = mods["asymptotics"]
        parse = mods["cli"].parse_space
        self.seed = seed
        self.growth = [(parse(s), parse(t), rate) for s, t, rate in GROWTH_FIXTURES]
        s, t, label = CONSISTENCY_FIXTURE
        self.consistency = (parse(s), parse(t), label)
        self.mc_pair = self.growth[0][:2]
        self.mc_k = self.asym.anchor_for_octave(MONTECARLO_OCTAVE,
                                                float(self.mc_pair[1].alpha))
        self.ops = [("growth", i) for i in range(len(self.growth))]
        self.ops += [("consistency", 0), ("montecarlo", 0)]

    def montecarlo(self) -> float:
        src, tgt = self.mc_pair
        grid = self.asym.plan_grid(src, tgt, self.mc_k)
        return self.asym.box_opnorm_montecarlo(self.mc_k, src, tgt, grid,
                                               trials=MONTECARLO_TRIALS,
                                               seed=self.seed).lower_bound

    def _op(self, kind: str, i: int):
        asym = self.asym
        if kind == "growth":
            src, tgt, _ = self.growth[i]
            return asym.growth_rate_check(src, tgt, J_RANGE, seed=self.seed)["max_slope"]
        if kind == "consistency":
            src, tgt, _ = self.consistency
            return asym.embedding_consistency_check(
                src, tgt, truncation=CONSISTENCY_TRUNCATION, seed=self.seed)["classification"]
        return self.montecarlo()

    def _before(self):
        # every sweep starts cold, as a fresh CLI process does
        self.asym._partition_cache.clear()

    def montecarlo_at_two_threads(self) -> float:
        saved = os.environ.get("ALPHAMOD_THREADS")
        os.environ["ALPHAMOD_THREADS"] = "2"
        try:
            return self.montecarlo()
        finally:
            if saved is None:
                del os.environ["ALPHAMOD_THREADS"]
            else:
                os.environ["ALPHAMOD_THREADS"] = saved

    def check(self) -> list:
        problems = []
        if self.drift:
            problems.append(f"{self.drift} sweep results changed between rounds")
        for (kind, i), value in zip(self.ops, self.first):
            if value is None:
                continue
            if kind == "growth":
                found = checks.growth_slope(value, self.growth[i][2])
            elif kind == "consistency":
                found = checks.consistency_label(value, self.consistency[2])
            else:
                found = checks.montecarlo_threads(value, self.montecarlo_at_two_threads())
            if found:
                problems.append(f"{kind} sweep: {found}")
        return problems


WORKLOADS = {"decide_stream": DecideStream, "norm_batch": NormBatch,
             "lab_sweep": LabSweep}
