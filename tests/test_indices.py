"""Index calculus: hand-evaluated cases, invariants, and the shared-exponent oracle."""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from alphamod.errors import DomainError, ParameterError
from alphamod.indices import (
    BRANCH_GT,
    BRANCH_LE,
    Q_DOWN,
    Q_UP,
    PowerWeight,
    SpaceParams,
    _reciprocal,
    _text_reciprocal,
    _text_scalar,
    as_scalar,
    embedding_decide,
    growth_index,
    embedding_index,
    is_exact,
    region_classify,
    seq_multiplier_norm_closed,
    shared_exponent_decide,
)

HALF = F(1, 2)


def space(rp, rq, s, alpha, n=1):
    return SpaceParams(rp=rp, rq=rq, s=s, alpha=alpha, n=n)


class TestIndexA:
    def test_alpha_zero_annihilates(self):
        for rp1, rp2, rq in [(0, 0, 0), (1, HALF, 2), (F(3, 4), F(1, 4), 1)]:
            bd = growth_index(1, rp1, rp2, rq, 0, 0)
            assert bd.terms == (0, 0, 0)
            assert bd.value == 0
            assert bd.argmax == frozenset({1, 2, 3})

    def test_hand_case_le_negative_terms(self):
        bd = growth_index(1, HALF, HALF, 1, 0, 1)
        assert bd.branch == BRANCH_LE
        assert bd.terms == (0, F(-1, 2), F(-1, 2))
        assert bd.value == 0
        assert bd.argmax == frozenset({1})

    def test_hand_case_le_term2_binds(self):
        bd = growth_index(1, 1, 0, 0, 0, HALF)
        assert bd.terms == (0, HALF, 0)
        assert bd.value == HALF
        assert bd.argmax == frozenset({2})

    def test_equal_alpha_terms_collapse(self):
        rng = random.Random(7)
        for _ in range(200):
            rp1 = F(rng.randrange(0, 9), 4)
            rp2 = F(rng.randrange(0, 9), 4)
            rq = F(rng.randrange(0, 9), 4)
            a = F(rng.randrange(0, 5), 4)
            n = rng.randrange(1, 4)
            bd = growth_index(n, rp1, rp2, rq, a, a)
            expected = n * a * (rp1 - rp2)
            assert bd.terms == (expected, expected, expected)
            assert bd.value == expected

    def test_domain_validation(self):
        with pytest.raises(ParameterError):
            growth_index(1, -1, 0, 0, 0, HALF)
        with pytest.raises(ParameterError):
            growth_index(1, 1, 0, 0, 0, 2)
        with pytest.raises(ParameterError):
            growth_index(0, 1, 0, 0, 0, HALF)


class TestIndexR:
    def test_gt_branch_uses_q2(self):
        bd = embedding_index(1, HALF, HALF, 0, 1, HALF, 0)
        assert bd.branch == BRANCH_GT
        assert bd.terms == (0, F(1, 4), F(1, 4))
        assert bd.value == F(1, 4)

    def test_le_branch_uses_q1(self):
        bd = embedding_index(1, HALF, HALF, HALF, 0, 0, HALF)
        assert bd.branch == BRANCH_LE
        assert bd.terms == (0, 0, 0)
        assert bd.value == 0

    def test_equal_alpha_closed_form(self):
        rng = random.Random(11)
        for _ in range(500):
            rp1 = F(rng.randrange(0, 13), 6)
            rp2 = F(rng.randrange(0, 13), 6)
            rq1 = F(rng.randrange(0, 13), 6)
            rq2 = F(rng.randrange(0, 13), 6)
            a = F(rng.randrange(0, 7), 6)
            n = rng.randrange(1, 4)
            bd = embedding_index(n, rp1, rp2, rq1, rq2, a, a)
            assert bd.value == n * a * (rp1 - rp2)

    def test_branch_continuity_at_equal_alpha(self):
        # LE and GT limits agree as alpha1 -> alpha2
        rng = random.Random(13)
        for _ in range(100):
            rp1 = F(rng.randrange(0, 9), 4)
            rp2 = F(rng.randrange(0, 9), 4)
            rq1 = F(rng.randrange(0, 9), 4)
            rq2 = F(rng.randrange(0, 9), 4)
            a = F(rng.randrange(1, 4), 4)
            eps = F(1, 10 ** 6)
            below = embedding_index(1, rp1, rp2, rq1, rq2, a - eps, a)
            above = embedding_index(1, rp1, rp2, rq1, rq2, a + eps, a)
            at = embedding_index(1, rp1, rp2, rq1, rq2, a, a)
            assert abs(float(below.value) - float(at.value)) < 1e-4
            assert abs(float(above.value) - float(at.value)) < 1e-4


class TestEmbeddingDecide:
    def test_reflexivity_examples(self):
        for params in [space(HALF, HALF, F(3, 2), HALF),
                       space(0, 1, -2, 1),
                       space(2, 0, 0, F(1, 4), n=2)]:
            v = embedding_decide(params, params)
            assert v.embeds
            assert v.margin == 0
            assert v.q_case == Q_DOWN

    def test_q_up_strict_threshold(self):
        # identical p = 2, source q = 2, target q = 1, alpha = 0
        for s1, expect in [(F(6, 10), True), (HALF, False)]:
            v = embedding_decide(space(HALF, HALF, s1, 0), space(HALF, 1, 0, 0))
            assert v.q_case == Q_UP
            assert v.index_value == 0
            assert v.strict_required
            assert v.embeds is expect

    def test_p_order_violated(self):
        v = embedding_decide(space(0, HALF, 100, 0), space(HALF, HALF, 0, 0))
        assert not v.embeds
        assert v.reason == "p-order violated"

    def test_alpha_one_correction_vanishes(self):
        # q-up at the dyadic endpoint: strict inequality, no correction term
        src = space(HALF, HALF, 0, 1)
        tgt = space(HALF, 1, 0, 1)
        assert not embedding_decide(src, tgt).embeds
        src_eps = space(HALF, HALF, F(1, 1000), 1)
        assert embedding_decide(src_eps, tgt).embeds

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            embedding_decide(space(1, 1, 0, 0, n=1), space(1, 1, 0, 0, n=2))

    def test_monotonicity_in_s(self):
        rng = random.Random(19)
        for _ in range(300):
            src = space(F(rng.randrange(0, 9), 4), F(rng.randrange(0, 9), 4),
                        F(rng.randrange(-8, 9), 4), F(rng.randrange(0, 5), 4))
            tgt = space(F(rng.randrange(0, 9), 4), F(rng.randrange(0, 9), 4),
                        F(rng.randrange(-8, 9), 4), F(rng.randrange(0, 5), 4))
            if embedding_decide(src, tgt).embeds:
                bigger = space(src.rp, src.rq, src.s + 1, src.alpha)
                smaller = space(tgt.rp, tgt.rq, tgt.s - 1, tgt.alpha)
                assert embedding_decide(bigger, tgt).embeds
                assert embedding_decide(src, smaller).embeds

    def test_transitivity_on_samples(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(10000):
            spaces = [space(F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2),
                            F(rng.randrange(-4, 5), 2), F(rng.randrange(0, 5), 4))
                      for _ in range(3)]
            x, y, z = spaces
            if embedding_decide(x, y).embeds and embedding_decide(y, z).embeds:
                hits += 1
                assert embedding_decide(x, z).embeds
        assert hits > 100  # the sample actually exercises the chain


class TestSharedExponentOracle:
    def test_equal_alpha_reduces_to_s_comparison(self):
        assert shared_exponent_decide(space(1, 1, 0, HALF), space(1, 1, 0, HALF)).embeds
        assert not shared_exponent_decide(space(1, 1, 0, HALF), space(1, 1, F(1, 100), HALF)).embeds

    def test_hand_threshold(self):
        # alpha jump 0 -> 1 with p = 1, q = 2
        for s1, expect in [(HALF, True), (F(49, 100), False)]:
            v = shared_exponent_decide(space(1, HALF, s1, 0), space(1, HALF, 0, 1))
            assert v.index_value == HALF
            assert v.embeds is expect

    def test_downward_alpha_two_dim(self):
        v = shared_exponent_decide(space(HALF, HALF, 0, 1, n=2), space(HALF, HALF, 0, 0, n=2))
        assert v.index_value == 0
        assert v.embeds

    def test_exponent_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            shared_exponent_decide(space(1, 1, 0, 0), space(HALF, 1, 0, 0))

    def test_agreement_with_general_decision(self):
        grid = [0, F(1, 4), HALF, 1, 2]
        alphas = [0, F(1, 3), F(2, 3), 1]
        svals = [F(k, 8) for k in range(-20, 21)]
        for rp in grid:
            for rq in grid:
                for a1 in alphas:
                    for a2 in alphas:
                        for s1 in svals:
                            src = space(rp, rq, s1, a1)
                            tgt = space(rp, rq, 0, a2)
                            assert (embedding_decide(src, tgt).embeds
                                    == shared_exponent_decide(src, tgt).embeds)


class TestRegionClassify:
    def test_triple_point(self):
        assert region_classify(HALF, HALF, HALF, BRANCH_LE) == {
            "uniform", "concentrated", "spread"}

    def test_le_corner(self):
        assert region_classify(1, 0, 0, BRANCH_LE) == {"concentrated"}

    def test_requires_p_order(self):
        with pytest.raises(DomainError):
            region_classify(0, 1, 0, BRANCH_LE)

    def test_labels_match_argmax(self):
        rng = random.Random(31)
        for _ in range(1000):
            rp1 = F(rng.randrange(0, 17), 8)
            rp2 = F(rng.randrange(0, 17), 8)
            if rp2 > rp1:
                rp1, rp2 = rp2, rp1
            rq = F(rng.randrange(0, 17), 8)
            for branch, alphas in [
                (BRANCH_LE, (F(1, 4), F(3, 4))),
                (BRANCH_GT, (F(3, 4), F(1, 4))),
            ]:
                bd = growth_index(1, rp1, rp2, rq, *alphas)
                labels = region_classify(rp1, rp2, rq, branch)
                assert set(bd.binding_labels()) == labels


def _reference_closed_dict(a, s1, s2, rq1, rq2, alpha):
    """The dict branch of seq_multiplier_norm_closed before it went through
    grids.sequence_norm: its own weight loop and l_r norm."""
    import numpy as np

    dyadic = alpha == 1
    rr = max(0.0, float(rq2) - float(rq1))
    weighted = []
    for key, val in a.items():
        if dyadic:
            w = 2.0 ** (key * float(s2 - s1))
        else:
            ksq = sum(int(c) ** 2 for c in key) if isinstance(key, tuple) else key * key
            w = (1.0 + ksq) ** (float(s2 - s1) / (2.0 * (1.0 - float(alpha))))
        weighted.append(w * abs(val))
    arr = np.asarray(weighted, dtype=float)
    if rr == 0:
        return float(np.max(arr))
    r = 1.0 / rr
    return float(np.sum(arr ** r) ** (1.0 / r))


class TestSeqMultiplierClosed:
    def test_unit_sequence_sup(self):
        a = {k: 1.0 for k in range(-3, 4)}
        assert seq_multiplier_norm_closed(a, 0, 0, 1, HALF, 0) == 1.0

    def test_power_weight_convergent_value(self):
        # sum over Z of <k>^{-2} = pi * coth(pi); norm is its square root
        val = seq_multiplier_norm_closed(PowerWeight(-1, n=1), 0, 0, HALF, 1, 0)
        expected = math.sqrt(math.pi / math.tanh(math.pi))
        assert val == pytest.approx(expected, rel=1e-6)

    def test_power_weight_divergent(self):
        assert seq_multiplier_norm_closed(PowerWeight(-1, n=1), 0, 0, 1, 2, 0) == math.inf

    def test_dyadic_indexing_enforced(self):
        with pytest.raises(ParameterError):
            seq_multiplier_norm_closed({-1: 1.0}, 0, 0, 1, 1, 1)

    @pytest.mark.parametrize("key", [1.5, "3", (1, 2.0), None])
    def test_lattice_indexing_enforced(self, key):
        with pytest.raises(ParameterError, match="integer"):
            seq_multiplier_norm_closed({0: 1.0, key: 1.0}, 0, 0, 1, 1, HALF)

    def test_weight_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="s = 1000"):
            seq_multiplier_norm_closed({10 ** 6: 1.0}, 0, 1000, 1, 1, HALF)

    @pytest.mark.parametrize("rq1,rq2", [(1, HALF), (0, HALF), (0, 1), (0, F(3, 2)),
                                         (HALF, 2)])
    def test_dict_norm_bit_identical_to_reference(self, rq1, rq2):
        rng = random.Random(7)
        for _ in range(150):
            alpha = rng.choice([0, F(1, 4), HALF, F(3, 4), 1, 0.25, 0.5])
            s1 = rng.choice([0, F(1, 2), F(-3, 4), 1.25])
            s2 = rng.choice([0, F(1, 3), F(5, 4), -0.5])
            if alpha == 1:
                keys = rng.sample(range(0, 40), 6)
            elif rng.random() < 0.5:
                keys = rng.sample(range(-40, 41), 6)
            else:
                keys = list({(rng.randrange(-20, 21), rng.randrange(-20, 21))
                             for _ in range(6)})
            a = {k: rng.choice([rng.uniform(-3, 3), F(rng.randrange(1, 9), 7)])
                 for k in keys}
            for r1, r2 in ((rq1, rq2), (float(rq1), float(rq2))):
                got = seq_multiplier_norm_closed(a, s1, s2, r1, r2, alpha)
                assert got == _reference_closed_dict(a, s1, s2, r1, r2, alpha)

    def test_dyadic_geometric_norm(self):
        val = seq_multiplier_norm_closed(PowerWeight(-1, n=1), 0, 0, HALF, 1, 1)
        expected = (sum(2.0 ** (-2 * j) for j in range(200))) ** 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_power_weight_matches_embedding_verdict(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(400):
            rp1 = F(rng.randrange(0, 9), 4)
            rp2 = F(rng.randrange(0, 9), 4)
            if rp2 > rp1:
                rp1, rp2 = rp2, rp1
            rq1 = F(rng.randrange(0, 9), 4)
            rq2 = F(rng.randrange(0, 9), 4)
            a1 = F(rng.randrange(0, 4), 4)
            a2 = F(rng.randrange(0, 4), 4)
            s1 = F(rng.randrange(-6, 7), 4)
            s2 = F(rng.randrange(-6, 7), 4)
            src = space(rp1, rq1, s1, a1)
            tgt = space(rp2, rq2, s2, a2)
            verdict = embedding_decide(src, tgt)
            amax = max(a1, a2)
            R = verdict.index_value
            norm = seq_multiplier_norm_closed(
                PowerWeight(R / (1 - amax), n=1), s1, s2, rq1, rq2, amax)
            checked += 1
            assert (norm < math.inf) is verdict.embeds, (src, tgt, norm, verdict)
        assert checked == 400


def _parse_reference(text):
    """as_scalar of text as it read before field texts were memoised."""
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return F(text)
    except ValueError:
        return float(text)


def _reciprocal_reference(text):
    v = _parse_reference(text)
    if v == math.inf:
        return 0
    if v <= 0:
        raise ParameterError(f"Lebesgue exponent must be positive, got {text!r}")
    if isinstance(v, (int, F)):
        return F(1, 1) / v
    return 1.0 / v


def _outcome(fn, text):
    try:
        return fn(text)
    except (ParameterError, ValueError) as exc:
        return type(exc)


def _same(got, want):
    if isinstance(want, type):
        return got is want
    if type(got) is not type(want):
        return False
    return got == want or (math.isnan(got) and math.isnan(want))


PARITY_TEXTS = ["1/2", "0.5", " INF ", "Infinity", "oo", "+3/4", "-0.00", "1e-1",
                "2.50", "1_000", "nan"]


class TestTextScalars:
    """Field texts go through a memo; values and types match an uncached
    Fraction(text) with the float(text) fallback."""

    @pytest.mark.parametrize("text", PARITY_TEXTS)
    def test_as_scalar_parity(self, text):
        want = _parse_reference(text)
        for _ in range(2):  # the second call is answered from the memo
            assert _same(as_scalar(text), want)

    @pytest.mark.parametrize("text", PARITY_TEXTS)
    def test_reciprocal_parity(self, text):
        want = _outcome(_reciprocal_reference, text)
        for _ in range(2):
            assert _same(_outcome(_reciprocal, text), want)

    @pytest.mark.parametrize("text, error", [("1/0", ParameterError),
                                             ("abc", ValueError),
                                             ("1e999999999", ParameterError)])
    def test_bad_text_raises_every_call(self, text, error):
        before = _text_scalar.cache_info().currsize, _text_reciprocal.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                as_scalar(text)
            with pytest.raises(error):
                _reciprocal(text)
        after = _text_scalar.cache_info().currsize, _text_reciprocal.cache_info().currsize
        assert after == before

    def test_reciprocal_errors_not_cached(self):
        for _ in range(3):
            with pytest.raises(ParameterError, match="positive"):
                _reciprocal("-1/2")

    def test_caches_bounded(self):
        for cached in (_text_scalar, _text_reciprocal):
            assert cached.cache_info().maxsize is not None
            assert cached.cache_info().maxsize <= 4096

    def test_zero_denominator(self):
        for text in ("1/0", "0/0", " -3/0 "):
            with pytest.raises(ParameterError, match="zero denominator"):
                as_scalar(text)
        with pytest.raises(ParameterError, match="zero denominator"):
            SpaceParams.from_exponents("1/0", 2, 0, 0)

    @pytest.mark.parametrize("text", ["1e999999999", "-1e999999999", "1e-999999999",
                                      "2.5e-999999999", "1e400", "1e-400", "2e-324"])
    def test_beyond_float_range_rejected_before_parse(self, text):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="float range"):
            as_scalar(text)
        with pytest.raises(ParameterError, match="float range"):
            _reciprocal(text)
        assert time.perf_counter() - start < 1.0

    def test_zero_and_subnormal_exponents_stay_exact(self):
        start = time.perf_counter()
        for text in ("0e999999999", "-0.00e-999999999", "0_0e5"):
            assert _same(as_scalar(text), _parse_reference(text.partition("e")[0]))
        assert time.perf_counter() - start < 1.0
        assert as_scalar("1e-320") == F(1, 10 ** 320)
        assert as_scalar("1.5e308") == F(15 * 10 ** 307)


class _FractionSubclass(F):
    pass


class TestIsExact:
    VALUES = [0, 3, True, False, F(1, 2), _FractionSubclass(1, 3), 0.5, math.inf,
              np.float64(0.5), np.int64(3), np.bool_(True)]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_matches_isinstance_rule(self, value):
        assert is_exact(value) is isinstance(value, (int, F))

    def test_all_values(self):
        rng = random.Random(3)
        for _ in range(200):
            values = rng.sample(self.VALUES, rng.randrange(0, 4))
            assert is_exact(*values) is all(isinstance(v, (int, F)) for v in values)
