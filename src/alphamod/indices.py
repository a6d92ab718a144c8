"""Piecewise-linear index functions and the sharp embedding decision.

All exponents are handled as reciprocals: ``rp`` stands for 1/p, ``rq``
for 1/q, so p = infinity is rp = 0 and the quasi-Banach range p < 1 is
rp > 1.  Every formula below is affine in these reciprocals, which makes
exact rational evaluation possible whenever the inputs are ints or
Fractions; float inputs fall back to comparisons with an absolute
tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import DomainError, ParameterError

Scalar = Union[int, Fraction, float]

ABS_TOL = 1e-12

BRANCH_LE = "LE"  # alpha1 <= alpha2
BRANCH_GT = "GT"  # alpha1 >  alpha2

Q_DOWN = "QDown"  # 1/q2 <= 1/q1
Q_UP = "QUp"      # 1/q2 >  1/q1


def is_exact(*values: Scalar) -> bool:
    """True when every value supports exact rational arithmetic."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _ge(x: Scalar, y: Scalar, exact: bool) -> bool:
    return x >= y if exact else x >= y - ABS_TOL


def _gt(x: Scalar, y: Scalar, exact: bool) -> bool:
    return x > y if exact else x > y + ABS_TOL


def _le(x: Scalar, y: Scalar, exact: bool) -> bool:
    return x <= y if exact else x <= y + ABS_TOL


def _eq(x: Scalar, y: Scalar, exact: bool) -> bool:
    return x == y if exact else abs(x - y) <= ABS_TOL


def as_scalar(value) -> Scalar:
    """Parse a number or a string like '1/3', 'inf', '0.25' into a Scalar.

    Rational strings and ints stay exact; everything else becomes float.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return math.inf
        try:
            return Fraction(text)
        except ValueError:
            return float(text)
    raise ParameterError(f"cannot interpret {value!r} as a scalar")


@dataclass(frozen=True)
class SpaceParams:
    """Parameters of one alpha-modulation space M^{s,alpha}_{p,q}.

    rp = 1/p, rq = 1/q (0 encodes the respective exponent = infinity),
    s is the smoothness weight, alpha in [0, 1] selects the covering,
    n is the spatial dimension.
    """

    rp: Scalar
    rq: Scalar
    s: Scalar
    alpha: Scalar
    n: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"dimension n must be a positive integer, got {self.n!r}")
        for name in ("rp", "rq", "s", "alpha"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.rp < 0 or self.rq < 0:
            raise ParameterError("reciprocal exponents must be nonnegative")
        if not (0 <= self.alpha <= 1):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    @classmethod
    def from_exponents(cls, p, q, s, alpha, n: int = 1) -> "SpaceParams":
        """Build from p, q themselves ('inf', 2, '1/3', ...)."""
        return cls(rp=_reciprocal(p), rq=_reciprocal(q), s=as_scalar(s),
                   alpha=as_scalar(alpha), n=n)

    def exact(self) -> bool:
        return is_exact(self.rp, self.rq, self.s, self.alpha)


def _reciprocal(value) -> Scalar:
    v = as_scalar(value)
    if v == math.inf:
        return 0
    if v <= 0:
        raise ParameterError(f"Lebesgue exponent must be positive, got {value!r}")
    if isinstance(v, (int, Fraction)):
        return Fraction(1, 1) / v
    return 1.0 / v


# the three affine terms correspond to the three extremal witness families
TERM_LABELS = ("uniform", "concentrated", "spread")


class IndexBreakdown(NamedTuple):
    """The three affine terms of the growth index and their maximum."""

    branch: str                  # BRANCH_LE or BRANCH_GT
    terms: tuple                 # (term1, term2, term3)
    value: Scalar                # max of terms
    argmax: frozenset            # indices in {1,2,3} attaining the max (ties kept)

    def binding_labels(self) -> tuple:
        return tuple(TERM_LABELS[i - 1] for i in sorted(self.argmax))


def _validate_index_args(n, rps, rqs, alphas):
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"dimension n must be a positive integer, got {n!r}")
    for rp in rps:
        if rp < 0:
            raise ParameterError("reciprocal Lebesgue exponents must be nonnegative")
    for rq in rqs:
        if rq < 0:
            raise ParameterError("reciprocal summation exponents must be nonnegative")
    for a in alphas:
        if not (0 <= a <= 1):
            raise ParameterError(f"alpha must lie in [0, 1], got {a!r}")


def _common_scale(*values):
    """Common denominator D of exact values and the integers D * value.

    Affine and quadratic formulas evaluated on these integers with the
    constant 1 written as D give D resp. D**2 times the rational result,
    at a fraction of the cost of Fraction arithmetic.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = math.lcm(*[d for _, d in ratios])
    return denom, [num * (denom // d) for num, d in ratios]


def _unscale(value, denom: int) -> Scalar:
    return value if denom == 1 else Fraction(value, denom)


def _branch_index(n, rp1, rp2, rq1, rq2, alpha1, alpha2) -> IndexBreakdown:
    """Common-q index with q = q1 when alpha1 <= alpha2 and q = q2 otherwise."""
    given = (rp1, rp2, rq1, rq2, alpha1, alpha2)
    exact = is_exact(*given)
    if not exact:
        _validate_index_args(n, (rp1, rp2), (rq1, rq2), (alpha1, alpha2))
        one = 1
    else:
        one, (rp1, rp2, rq1, rq2, alpha1, alpha2) = _common_scale(*given)
        if not (isinstance(n, int) and n >= 1 and min(rp1, rp2, rq1, rq2) >= 0
                and 0 <= alpha1 <= one and 0 <= alpha2 <= one):
            # out of range: raise with the caller's values in the message
            _validate_index_args(n, given[:2], given[2:4], given[4:])
    # with one = D every term below is D**2 times its rational value
    p_gap = rp1 - rp2
    n_da = n * (alpha2 - alpha1)
    if alpha1 <= alpha2:
        branch, rq = BRANCH_LE, rq1
        term1 = n * alpha1 * p_gap
        term3 = n_da * (rp2 - rq) + term1
    else:
        branch, rq = BRANCH_GT, rq2
        term1 = n * alpha2 * p_gap
        term3 = -n_da * (rq - rp1) + term1
    term2 = n * alpha2 * (one - rp2) - n * alpha1 * (one - rp1) - n_da * rq
    terms = (term1, term2, term3)
    value = max(terms)
    argmax = frozenset(i + 1 for i, t in enumerate(terms) if _eq(t, value, exact))
    denom = one * one
    if denom != 1:
        terms = tuple(Fraction(t, denom) for t in terms)
        value = terms[min(argmax) - 1]
    return IndexBreakdown(branch=branch, terms=terms, value=value, argmax=argmax)


def growth_index(n: int, rp1: Scalar, rp2: Scalar, rq: Scalar,
            alpha1: Scalar, alpha2: Scalar) -> IndexBreakdown:
    """Growth index of the localized operator norms, common-q form."""
    return _branch_index(n, rp1, rp2, rq, rq, alpha1, alpha2)


def embedding_index(n: int, rp1: Scalar, rp2: Scalar, rq1: Scalar, rq2: Scalar,
            alpha1: Scalar, alpha2: Scalar) -> IndexBreakdown:
    """Smoothness-gap index: common-q index with q = q1 or q2 by branch.

    The q of the coarser covering's sequence space is the one that
    matters: q1 when alpha1 <= alpha2, q2 when alpha1 > alpha2.  At
    alpha1 = alpha2 the two choices agree term by term.
    """
    return _branch_index(n, rp1, rp2, rq1, rq2, alpha1, alpha2)


@dataclass(frozen=True)
class EmbeddingVerdict:
    """Outcome of the sharp embedding decision."""

    embeds: bool
    q_case: str                  # Q_DOWN or Q_UP
    index_value: Scalar
    margin: Scalar               # s1 - s2 - R - correction
    strict_required: bool
    reason: str
    breakdown: IndexBreakdown = None

    def to_dict(self) -> dict:
        return {
            "embeds": self.embeds,
            "q_case": self.q_case,
            "index_value": float(self.index_value),
            "margin": float(self.margin),
            "strict_required": self.strict_required,
            "reason": self.reason,
        }


def embedding_decide(source: SpaceParams, target: SpaceParams) -> EmbeddingVerdict:
    """Decide whether the source space embeds continuously into the target."""
    if source.n != target.n:
        raise ParameterError(f"dimension mismatch: {source.n} vs {target.n}")
    n = source.n
    exact = source.exact() and target.exact()
    bd = embedding_index(n, source.rp, target.rp, source.rq, target.rq,
                 source.alpha, target.alpha)
    values = (source.rp, target.rp, source.rq, target.rq, source.s, target.s,
              source.alpha, target.alpha, bd.value)
    one, values = _common_scale(*values) if exact else (1, values)
    rp1, rp2, rq1, rq2, s1, s2, a1, a2, R = values

    q_up = _gt(rq2, rq1, exact)
    q_case = Q_UP if q_up else Q_DOWN
    amax = max(a1, a2)
    if q_up:
        # the correction vanishes identically at amax = 1
        correction = 0 if _eq(amax, one, exact) else n * (one - amax) * (rq2 - rq1)
    else:
        correction = 0
    # scaled by one**2, like the correction
    margin = (s1 - s2 - R) * one - correction
    verdict = dict(q_case=q_case, index_value=bd.value,
                   margin=_unscale(margin, one * one), strict_required=q_up,
                   breakdown=bd)

    if _gt(rp2, rp1, exact):
        return EmbeddingVerdict(embeds=False, reason="p-order violated", **verdict)

    if q_up:
        embeds = _gt(margin, 0, exact)
    else:
        embeds = _ge(margin, 0, exact)
    reason = "binding " + ",".join(bd.binding_labels()) + f" (branch {bd.branch})"
    return EmbeddingVerdict(embeds=embeds, reason=reason, **verdict)


def shared_exponent_decide(source: SpaceParams, target: SpaceParams) -> EmbeddingVerdict:
    """Independent oracle for the shared-exponent case p1 = p2, q1 = q2."""
    if source.n != target.n:
        raise ParameterError(f"dimension mismatch: {source.n} vs {target.n}")
    exact = source.exact() and target.exact()
    values = (source.rp, target.rp, source.rq, target.rq, source.s, target.s,
              source.alpha, target.alpha)
    one, values = _common_scale(*values) if exact else (1, values)
    rp, rp2, rq, rq2, s1, s2, a1, a2 = values
    if not (_eq(rp, rp2, exact) and _eq(rq, rq2, exact)):
        raise ParameterError("oracle requires matching p and q on both sides")
    n = source.n
    da = a2 - a1
    # threshold and margin are scaled by one**2
    threshold = max(0 * da, n * da * (rp - rq), n * da * (one - rp - rq))
    margin = (s1 - s2) * one - threshold
    return EmbeddingVerdict(embeds=_ge(margin, 0, exact), q_case=Q_DOWN,
                            index_value=_unscale(threshold, one * one),
                            margin=_unscale(margin, one * one),
                            strict_required=False,
                            reason="shared-exponent threshold")


def region_classify(rp1: Scalar, rp2: Scalar, rq: Scalar, branch: str) -> frozenset:
    """Classify (1/p1, 1/p2, 1/q) into the closed regions of the given branch.

    Regions are labeled by the witness family whose term binds on them
    ("uniform", "concentrated", "spread"); membership is non-exclusive on
    shared boundaries, matching the tie-keeping argmax of
    :func:`growth_index`.
    """
    _validate_index_args(1, (rp1, rp2), (rq,), ())
    exact = is_exact(rp1, rp2, rq)
    if _gt(rp2, rp1, exact):
        raise DomainError("region classification requires 1/p2 <= 1/p1")
    half = Fraction(1, 2) if exact else 0.5
    labels = set()
    if branch == BRANCH_LE:
        if _ge(rq, 1 - rp2, exact) and _ge(rq, rp2, exact):
            labels.add(TERM_LABELS[0])
        if _le(rq, 1 - rp2, exact) and _le(rp2, half, exact):
            labels.add(TERM_LABELS[1])
        if _le(rq, rp2, exact) and _ge(rp2, half, exact):
            labels.add(TERM_LABELS[2])
    elif branch == BRANCH_GT:
        if _le(rq, 1 - rp1, exact) and _le(rq, rp1, exact):
            labels.add(TERM_LABELS[0])
        if _ge(rq, 1 - rp1, exact) and _ge(rp1, half, exact):
            labels.add(TERM_LABELS[1])
        if _ge(rq, rp1, exact) and _le(rp1, half, exact):
            labels.add(TERM_LABELS[2])
    else:
        raise ParameterError(f"unknown branch {branch!r}")
    return frozenset(labels)


class PowerWeight:
    """Symbolic sequence a_k = <k>^exponent on Z^n (or 2^{j*exponent} dyadic).

    Used to feed infinite-support power sequences to the multiplier-norm
    closed form without materializing them.
    """

    def __init__(self, exponent: Scalar, n: int = 1):
        if not isinstance(n, int) or n < 1:
            raise ParameterError("dimension must be a positive integer")
        self.exponent = exponent
        self.n = n

    def __repr__(self):
        return f"PowerWeight(exponent={self.exponent}, n={self.n})"


def _power_sum_zn(exponent: float, n: int, tail_rel: float = 1e-9):
    """Sum of <k>^exponent over Z^n with an integral tail bound.

    Requires exponent < -n; returns (value, tail_bound).
    """
    import numpy as np

    if n == 1:
        K = 200000
        k = np.arange(1, K + 1, dtype=float)
        partial = 1.0 + 2.0 * float(np.sum((1.0 + k * k) ** (exponent / 2.0)))
        # tail: 2 * sum_{k>K} k^exponent <= 2 * K^{e+1} / (-e-1)
        tail = 2.0 * K ** (exponent + 1.0) / (-(exponent + 1.0))
    elif n == 2:
        K = 2000
        g = np.arange(-K, K + 1, dtype=float)
        kx, ky = np.meshgrid(g, g, sparse=True)
        partial = float(np.sum((1.0 + kx * kx + ky * ky) ** (exponent / 2.0)))
        # tail over |k|_inf > K compared with the radial integral
        tail = 2.0 * math.pi * K ** (exponent + 2.0) / (-(exponent + 2.0))
    else:
        raise ParameterError("symbolic power-weight sums support n in {1, 2}")
    return partial, tail


def seq_multiplier_norm_closed(a, s1: Scalar, s2: Scalar, rq1: Scalar,
                               rq2: Scalar, alpha: Scalar) -> float:
    """Norm of a pointwise multiplier between weighted sequence spaces.

    The multiplier space from l_{q1}^{s1,alpha} to l_{q2}^{s2,alpha} is the
    weighted l_r space with weight <k>^{(s2-s1)/(1-alpha)} (2^{j(s2-s1)}
    dyadically) and 1/r = max(0, 1/q2 - 1/q1); r = infinity is a weighted
    supremum.

    ``a`` is either a dict mapping indices to values (int or int-tuple keys
    for alpha < 1; nonnegative int keys for the dyadic alpha = 1 indexing)
    or a :class:`PowerWeight` for infinite power-like sequences, in which
    case the result is +inf when the defining sum diverges.
    """
    if rq1 < 0 or rq2 < 0:
        raise ParameterError("reciprocal summation exponents must be nonnegative")
    if not (0 <= alpha <= 1):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha!r}")
    exact = is_exact(s1, s2, rq1, rq2, alpha)
    rr = max(0, rq2 - rq1) if exact else max(0.0, float(rq2) - float(rq1))
    dyadic = _eq(alpha, 1, exact)

    if isinstance(a, PowerWeight):
        return _power_weight_norm(a, s1, s2, rr, alpha, dyadic, exact)

    if not isinstance(a, dict):
        raise ParameterError("sequence must be a dict or a PowerWeight")
    from .grids import sequence_norm

    return sequence_norm(a, s2 - s1, rr, 1 if dyadic else alpha)


def _power_weight_norm(a: PowerWeight, s1, s2, rr, alpha, dyadic, exact) -> float:
    exact = exact and is_exact(a.exponent)
    if dyadic:
        e = s2 - s1 + a.exponent
        if rr == 0:
            return 1.0 if _le(e, 0, exact) else math.inf
        if not _gt(0, e, exact):
            return math.inf
        q = 1.0 / float(rr)
        return float((1.0 / (1.0 - 2.0 ** (float(e) * q))) ** float(rr))
    one_minus = 1 - alpha
    e = (s2 - s1) / one_minus + a.exponent
    if rr == 0:
        return 1.0 if _le(e, 0, exact) else math.inf
    # sum_k <k>^{e/rr} converges iff e/rr < -n, strictly
    if exact:
        converges = e / rr < -a.n
    else:
        converges = float(e) / float(rr) < -a.n - ABS_TOL
    if not converges:
        return math.inf
    q = 1.0 / float(rr)
    partial, tail = _power_sum_zn(float(e) * q, a.n)
    return float((partial + tail / 2.0) ** (1.0 / q))
