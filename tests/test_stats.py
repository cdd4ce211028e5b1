"""Wilcoxon signed-rank exact/approximate p-values and effect size."""

import numpy as np
import pytest

from fireuq.errors import DegenerateDataError, ValidationError
from fireuq.oracles import oracle_wilcoxon_one_sided
from fireuq.stats import (
    EXACT_N_MAX,
    rank_biserial,
    stats_block,
    wilcoxon_one_sided,
)


def test_all_positive_differences():
    # five positive diffs: W+ = 15, P(W+ >= 15) = 1/32
    res = wilcoxon_one_sided([0.3, 0.1, 0.25, 0.07, 0.4])
    assert res.w_plus == 15.0
    assert res.w_minus == 0.0
    assert res.p_value == pytest.approx(1.0 / 32.0, abs=0.0)
    assert res.n_effective == 5
    assert res.mode == "exact"


def test_tied_pair_example():
    # |+1| and |-1| tie: both get rank 1.5, W+ = 1.5,
    # P(W+ >= 1.5) = 3/4 over the four sign assignments
    res = wilcoxon_one_sided([1.0, -1.0])
    assert res.w_plus == 1.5
    assert res.w_minus == 1.5
    assert res.p_value == pytest.approx(0.75, abs=0.0)


def test_mirrored_quadruple_example():
    # (+1, -1, +2, -2): ranks 1.5, 1.5, 3.5, 3.5 -> W+ = 5
    res = wilcoxon_one_sided([1.0, -1.0, 2.0, -2.0])
    assert res.w_plus == 5.0
    assert res.w_minus == 5.0
    assert res.p_value == pytest.approx(0.625, abs=0.0)


def test_zero_differences_are_discarded():
    res = wilcoxon_one_sided([0.0, 0.5, 0.0, -0.3])
    assert res.n_effective == 2
    base = wilcoxon_one_sided([0.5, -0.3])
    assert res.p_value == base.p_value
    assert res.w_plus == base.w_plus


def test_all_zero_raises_degenerate():
    with pytest.raises(DegenerateDataError):
        wilcoxon_one_sided([0.0, 0.0, 0.0])


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        wilcoxon_one_sided([0.1, np.nan])


def test_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        diffs = rng.normal(size=n)
        if rng.random() < 0.5:
            # force ties in |diff|
            diffs = rng.integers(-3, 4, size=n).astype(float)
        diffs = [float(d) for d in diffs if d != 0.0]
        if not diffs:
            continue
        res = wilcoxon_one_sided(diffs)
        w_oracle, p_oracle = oracle_wilcoxon_one_sided(diffs)
        assert res.w_plus == pytest.approx(w_oracle, abs=1e-12)
        assert res.p_value == pytest.approx(p_oracle, abs=1e-12)


def test_p_value_range_and_shift_consistency():
    rng = np.random.default_rng(77)
    for _ in range(30):
        diffs = [float(d) for d in rng.normal(size=10) if d != 0.0]
        res = wilcoxon_one_sided(diffs)
        assert 0.0 < res.p_value <= 1.0
        # scaling all diffs by a positive constant changes nothing
        scaled = wilcoxon_one_sided([3.0 * d for d in diffs])
        assert scaled.p_value == res.p_value
        assert scaled.w_plus == res.w_plus


@pytest.mark.parametrize("n", [12, EXACT_N_MAX, 40])
def test_result_does_not_depend_on_difference_order(n):
    """The stats command orders its differences as model A's records
    lie; any order of the same differences, ties and zeros included,
    gives the same result bit for bit, on the exact and normal paths."""
    rng = np.random.default_rng(n)
    diffs = (rng.integers(-4, 5, size=n) / 8.0).tolist()
    base = wilcoxon_one_sided(diffs)
    for _ in range(5):
        assert wilcoxon_one_sided(rng.permutation(diffs).tolist()) == base


def test_exact_p_counts_every_sign_assignment_at_the_exact_limit():
    # one assignment of 2**25 puts every rank on the positive side
    res = wilcoxon_one_sided([float(k) for k in range(1, EXACT_N_MAX + 1)])
    assert res.mode == "exact"
    assert res.p_value == 2.0**-EXACT_N_MAX
    assert wilcoxon_one_sided([-1.0] * EXACT_N_MAX).p_value == 1.0


def test_normal_mode_tracks_exact_near_cutover():
    rng = np.random.default_rng(83)
    from fireuq.stats import _doubled_ranks, _exact_p, _normal_p

    for _ in range(25):
        n = int(rng.integers(20, EXACT_N_MAX + 1))
        diffs = [float(d) for d in rng.normal(size=n)]
        diffs = [d for d in diffs if d != 0.0]
        doubled = _doubled_ranks([abs(d) for d in diffs])
        wpd = sum(dr for dr, d in zip(doubled, diffs) if d > 0)
        exact = _exact_p(doubled, wpd)
        approx = _normal_p(doubled, wpd / 2.0, len(diffs))
        assert abs(exact - approx) <= 0.01


def test_mode_switches_beyond_exact_limit():
    rng = np.random.default_rng(89)
    diffs = [float(d) for d in rng.normal(size=EXACT_N_MAX)]
    assert wilcoxon_one_sided(diffs).mode == "exact"
    diffs = [float(d) for d in rng.normal(size=EXACT_N_MAX + 1)]
    res = wilcoxon_one_sided(diffs)
    assert res.mode == "normal"
    assert 0.0 < res.p_value < 1.0


def test_rank_biserial_identity_and_examples():
    assert rank_biserial(12.0, 3.0) == pytest.approx(0.6)
    assert rank_biserial(15.0, 0.0) == 1.0
    assert rank_biserial(0.0, 15.0) == -1.0
    assert rank_biserial(5.0, 5.0) == 0.0
    with pytest.raises(ValidationError):
        rank_biserial(0.0, 0.0)
    with pytest.raises(ValidationError):
        rank_biserial(-1.0, 2.0)
    rng = np.random.default_rng(97)
    for _ in range(20):
        diffs = [float(d) for d in rng.normal(size=8) if d != 0.0]
        res = wilcoxon_one_sided(diffs)
        r = rank_biserial(res.w_plus, res.w_minus)
        n = res.n_effective
        assert r == pytest.approx(
            (res.w_plus - res.w_minus) / (n * (n + 1) / 2.0), abs=1e-12
        )


def test_stats_block_fields():
    block = stats_block("auroc", [0.9 - 0.4, 0.8 - 0.8, 0.7 - 0.5])
    assert block["metric"] == "auroc"
    assert block["n_pairs"] == 3
    assert block["n_discarded"] == 1
    assert block["w_plus"] == 3.0
    assert block["w_minus"] == 0.0
    assert block["mode"] == "exact"
    assert block["p_value"] == pytest.approx(0.25)
    assert block["rank_biserial"] == 1.0
