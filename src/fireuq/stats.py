"""Paired one-sided Wilcoxon signed-rank test and rank-biserial effect
size, for comparing two models over the same set of fires.

The test takes the per-fire differences (first model minus second),
which the caller forms from report.pair_records' pairs; its result does
not depend on their order.  The alternative is one-sided: the first
model scores higher.  Zero differences are discarded before ranking;
tied absolute differences share their average rank.  Exact p-values (a
partial-sum count over all sign assignments, conditional on the observed
tie pattern) are used up to n = 25 nonzero differences, a tie-corrected
normal approximation with continuity correction beyond.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateDataError, ValidationError

EXACT_N_MAX = 25


class WilcoxonResult(NamedTuple):
    w_plus: float
    w_minus: float
    p_value: float
    n_effective: int
    mode: str


def _doubled_ranks(abs_diffs: list[float]) -> list[int]:
    """Tie-averaged ranks of |diff|, doubled so they are exact integers."""
    n = len(abs_diffs)
    order = sorted(range(n), key=lambda i: abs_diffs[i])
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_diffs[order[j + 1]] == abs_diffs[order[i]]:
            j += 1
        dr = (i + j) + 2  # 2 * (average 1-based rank)
        for k in range(i, j + 1):
            doubled[order[k]] = dr
        i = j + 1
    return doubled


def _exact_p(doubled_ranks: list[int], observed_doubled: int) -> float:
    """P(W+ >= observed) by counting sign assignments with a partial-sum
    table over doubled rank sums.  The counts are exact integers, below
    2**25 for n <= EXACT_N_MAX, so they convert to float exactly."""
    total = sum(doubled_ranks)
    ways = [1] + [0] * total
    for dr in doubled_ranks:
        # descending, so each rank joins a sum at most once
        for s in range(total, dr - 1, -1):
            ways[s] += ways[s - dr]
    count_ge = sum(ways[observed_doubled:])
    return count_ge / float(2 ** len(doubled_ranks))


def _normal_p(
    doubled_ranks: list[int], w_plus: float, n: int
) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: subtract sum(t^3 - t)/48 over tie groups
    counts: dict[int, int] = {}
    for dr in doubled_ranks:
        counts[dr] = counts.get(dr, 0) + 1
    var -= sum(t**3 - t for t in counts.values()) / 48.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_one_sided(diffs) -> WilcoxonResult:
    """One-sided signed-rank test of H1: the differences lie above 0.

    Returns W+, W-, p = P(W+ >= observed under H0), the number of
    nonzero differences, and which computation mode ran.  Raises
    DegenerateDataError when every difference is zero.
    """
    diffs = [float(d) for d in diffs]
    if any(not math.isfinite(d) for d in diffs):
        raise ValidationError("wilcoxon: non-finite difference")
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        raise DegenerateDataError("wilcoxon: all differences are zero")

    doubled = _doubled_ranks([abs(d) for d in nonzero])
    w_plus_doubled = sum(dr for dr, d in zip(doubled, nonzero) if d > 0)
    w_plus = w_plus_doubled / 2.0
    w_minus = sum(doubled) / 2.0 - w_plus

    if n <= EXACT_N_MAX:
        p = _exact_p(doubled, w_plus_doubled)
        mode = "exact"
    else:
        p = _normal_p(doubled, w_plus, n)
        mode = "normal"
    return WilcoxonResult(w_plus, w_minus, p, n, mode)


def rank_biserial(w_plus: float, w_minus: float) -> float:
    """Effect size (W+ - W-)/(W+ + W-); +1 iff every difference is
    positive, sign follows the dominant direction."""
    if w_plus < 0 or w_minus < 0:
        raise ValidationError("rank_biserial: rank sums must be >= 0")
    total = w_plus + w_minus
    if total == 0:
        raise ValidationError("rank_biserial: W+ + W- must be > 0")
    return (w_plus - w_minus) / total


def stats_block(metric: str, diffs: list[float]) -> dict:
    """The report JSON block for one metric comparison.

    n_pairs counts the differences entering the test, n_discarded the
    zero differences dropped during it.  Fires left out before the test
    (no partner, or an undefined value) are counted by the caller.
    """
    res = wilcoxon_one_sided(diffs)
    n_zero = len(diffs) - res.n_effective
    return {
        "metric": metric,
        "n_pairs": len(diffs),
        "n_discarded": n_zero,
        "w_plus": res.w_plus,
        "w_minus": res.w_minus,
        "p_value": res.p_value,
        "rank_biserial": rank_biserial(res.w_plus, res.w_minus),
        "mode": res.mode,
    }
