"""Output checks, computed apart from the program.

Every check returns ``None`` when the output is acceptable and a message
otherwise.  Decision checks take exact ``Fraction`` parameters as the
benchmark generated them, not as the program parsed them; norm checks take
reference quantities from the benchmark's own numpy sums.
"""

from __future__ import annotations

import numpy as np

NORM_RTOL = 1e-9
SUM_TOL = 1e-9
SLOPE_TOL = 0.15
FLOAT_CLEAR = 1e-9


# -- decisions ---------------------------------------------------------------

def shared_exponent(n, rp, rq, s1, s2, a1, a2, embeds):
    """p1 = p2, q1 = q2: embeds iff s1 - s2 >= max(0, n da (1/p - 1/q),
    n da (1 - 1/p - 1/q)), da = alpha2 - alpha1."""
    da = a2 - a1
    threshold = max(0, n * da * (rp - rq), n * da * (1 - rp - rq))
    expected = s1 - s2 >= threshold
    if embeds != expected:
        return f"shared-exponent verdict {embeds}, threshold rule gives {expected}"
    return None


def classical(n, rq1, rq2, s1, s2, alpha, embeds):
    """alpha1 = alpha2, p1 = p2: s1 >= s2 when q1 <= q2, else
    s1 - s2 > n (1 - alpha) (1/q2 - 1/q1)."""
    if rq1 >= rq2:
        expected = s1 >= s2
    else:
        expected = s1 - s2 > n * (1 - alpha) * (rq2 - rq1)
    if embeds != expected:
        return f"equal-alpha verdict {embeds}, classical rule gives {expected}"
    return None


def p_order(rp1, rp2, embeds):
    if rp2 > rp1 and embeds:
        return "embeds although 1/p2 > 1/p1"
    return None


def self_embedding(embeds_self):
    if not embeds_self:
        return "a space does not embed in itself"
    return None


def monotone_in_s1(embeds, embeds_raised):
    if embeds and not embeds_raised:
        return "raising s1 turned 'embeds' into 'does not'"
    return None


def float_copy(exact_margin, exact_embeds, float_embeds):
    if abs(exact_margin) > FLOAT_CLEAR and exact_embeds != float_embeds:
        return (f"float copy says {float_embeds}, exact query says {exact_embeds} "
                f"at margin {float(exact_margin):.3g}")
    return None


def regions_match_binding(regions, binding):
    """Off the diagonal alpha1 = alpha2 the region labels are exactly the
    binding terms of the index (both keep ties)."""
    if set(regions) != set(binding):
        return f"regions {sorted(regions)} but binding terms {sorted(binding)}"
    return None


# -- norms -------------------------------------------------------------------

def lp_norm(values, cell_volume, rp):
    """Riemann-sum L^p norm with 1/p = rp (rp = 0 is the supremum)."""
    mag = np.abs(np.asarray(values)).reshape(-1)
    if rp == 0:
        return float(mag.max())
    p = 1.0 / float(rp)
    return float((np.sum(mag ** p) * cell_volume) ** float(rp))


def max_overlap(partition):
    """Largest number of windows that are nonzero at one frequency bin."""
    count = np.zeros(partition.N ** partition.n, dtype=int)
    for m in partition.members:
        count[m.idx[m.values > 0.0]] += 1
    return int(count.max())


def l2_sandwich(norm, l2, overlap):
    """p = q = 2, s = 0: sum of squared windows lies in [1/overlap, 1]."""
    lo = l2 / np.sqrt(overlap) * (1 - NORM_RTOL)
    hi = l2 * (1 + NORM_RTOL)
    if not lo <= norm <= hi:
        return f"L2 norm {norm:.6g} outside [{lo:.6g}, {hi:.6g}]"
    return None


def q1_lower(norm, lp):
    """q = 1, s = 0, p >= 1: triangle inequality over the windows."""
    if norm < lp * (1 - NORM_RTOL):
        return f"q=1 norm {norm:.6g} below ||f||_p = {lp:.6g}"
    return None


def partition_sum(partition, freq_radius):
    """Windows must add to 1 on |xi| < safe radius; freq_radius holds |xi|
    per flat fft bin."""
    total = np.zeros(partition.N ** partition.n)
    for m in partition.members:
        np.add.at(total, m.idx, m.values)
    safe = freq_radius < partition.safe_radius
    dev = float(np.max(np.abs(total[safe] - 1.0))) if safe.any() else np.inf
    if not dev <= SUM_TOL:
        return f"windows add to 1 only within {dev:.3g} on the safe radius"
    return None


# -- verification sweeps -----------------------------------------------------

def growth_slope(max_slope, expected_rate):
    if not abs(max_slope - float(expected_rate)) <= SLOPE_TOL:
        return f"max slope {max_slope:.4f} vs hand-derived rate {float(expected_rate)}"
    return None


def consistency_label(classification, expected):
    if classification != expected:
        return f"classification {classification!r}, hand-derived {expected!r}"
    return None


def montecarlo_threads(value_one, value_two):
    if value_one != value_two:
        return f"Monte Carlo value {value_one!r} at 1 thread, {value_two!r} at 2"
    return None
