"""Ensemble fusion, RMSLE head math and the SGD training loop."""

import math
import warnings

import numpy as np
import pytest

from fireuq.errors import ShapeError, ValidationError
from fireuq.distill import (
    TrainConfig,
    UncertaintyHead,
    apply_head,
    fuse_ensemble,
    load_head,
    rmsle,
    rmsle_gradient,
    save_head,
    select_middle_member,
    sigma_max,
    train_head,
)
from fireuq.oracles import oracle_rmsle


def test_sigma_max_by_grid_search():
    # exhaustive 0.05-grid over n values in [0, 1] never beats sigma_max
    grid = np.linspace(0.0, 1.0, 21)
    for n in (2, 3, 4):
        best = 0.0
        for combo in np.stack(np.meshgrid(*[grid] * n), axis=-1).reshape(-1, n):
            best = max(best, float(np.std(combo, ddof=1)))
        assert best <= sigma_max(n) + 1e-12
        assert best == pytest.approx(sigma_max(n), abs=1e-9)


def test_sigma_max_known_values():
    assert sigma_max(2) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert sigma_max(3) == pytest.approx(math.sqrt(2.0 / 6.0), rel=1e-15)
    with pytest.raises(ValidationError):
        sigma_max(1)


def test_fuse_extreme_disagreement_hits_one_exactly():
    members = [
        np.zeros((2, 2)),
        np.zeros((2, 2)),
        np.ones((2, 2)),
    ]
    out = fuse_ensemble(members)
    assert out.n_members == 3
    assert out.mean_prob[0, 0] == pytest.approx(1.0 / 3.0)
    assert float(out.uncertainty.max()) == 1.0
    assert float(out.uncertainty.min()) == 1.0


def test_fuse_identical_members_no_uncertainty():
    m = np.full((3, 3), 0.42)
    out = fuse_ensemble([m, m.copy(), m.copy()])
    assert (out.uncertainty == 0.0).all()
    assert np.allclose(out.mean_prob, 0.42)


def test_fuse_uncertainty_bounded_and_permutation_invariant():
    rng = np.random.default_rng(55)
    for n in (2, 3, 5):
        members = [rng.random((4, 4)) for _ in range(n)]
        out = fuse_ensemble(members)
        assert float(out.uncertainty.min()) >= 0.0
        assert float(out.uncertainty.max()) <= 1.0
        perm = fuse_ensemble(members[::-1])
        assert perm.mean_prob == pytest.approx(out.mean_prob, abs=1e-15)
        assert perm.uncertainty == pytest.approx(out.uncertainty, abs=1e-15)


def test_fuse_validation():
    with pytest.raises(ValidationError):
        fuse_ensemble([np.zeros((2, 2))])
    with pytest.raises(ShapeError):
        fuse_ensemble([np.zeros((2, 2)), np.zeros((2, 3))])


def test_select_middle_member():
    assert select_middle_member([0.2, 0.9, 0.5]) == 2
    assert select_middle_member([0.7]) == 0
    assert select_middle_member([0.4, 0.4, 0.4]) == 0  # tie -> lowest index
    assert select_middle_member([0.1, 0.3, 0.5, 0.7, 0.2]) == 1
    with pytest.raises(ValidationError):
        select_middle_member([0.2, 0.8])
    with pytest.raises(ValidationError):
        select_middle_member([])


def test_rmsle_worked_examples():
    # log1p identities: t = e-1 vs s = 0 gives |log(e)| = 1
    assert rmsle(np.array([[0.0]]), np.array([[math.e - 1.0]])) == pytest.approx(1.0)
    assert rmsle(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])) == 0.0
    # half the pixels off by one log unit
    v = rmsle(np.array([[0.0, 0.3]]), np.array([[math.e - 1.0, 0.3]]))
    assert v == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_rmsle_symmetry_and_oracle():
    rng = np.random.default_rng(60)
    for _ in range(20):
        a = rng.random((3, 5))
        b = rng.random((3, 5))
        assert rmsle(a, b) == pytest.approx(rmsle(b, a), abs=1e-15)
        assert rmsle(a, b) == pytest.approx(oracle_rmsle(a, b), abs=1e-12)
    with pytest.raises(ValidationError):
        rmsle(np.array([[-0.1]]), np.array([[0.1]]))


def test_apply_head_zero_head_gives_half():
    head = UncertaintyHead(weights=np.zeros(3), bias=0.0)
    f = np.random.default_rng(0).normal(size=(3, 4, 4))
    out = apply_head(head, f)
    assert (out == 0.5).all()


def test_apply_head_linear_logit():
    head = UncertaintyHead(weights=np.array([2.0, -1.0]), bias=0.5)
    f = np.zeros((2, 1, 1))
    f[0, 0, 0] = 1.0
    f[1, 0, 0] = 3.0
    z = 2.0 * 1.0 - 1.0 * 3.0 + 0.5
    assert apply_head(head, f)[0, 0] == pytest.approx(1 / (1 + math.exp(-z)))


def test_apply_head_output_strictly_inside_unit_interval():
    head = UncertaintyHead(weights=np.array([50.0]), bias=0.0)
    f = np.array([[[-10.0, 10.0]]])
    out = apply_head(head, f)
    assert 0.0 < out[0, 0] < 1e-6
    assert 1.0 - 1e-6 < out[0, 1] <= 1.0


def test_apply_head_saturates_without_overflow_warning():
    """Logits of -1e306 overflow exp(-z) to inf; the map saturates to 0
    exactly, and under the pyproject filter a RuntimeWarning would fail."""
    head = UncertaintyHead(weights=np.array([1e306, -1e306]), bias=0.0)
    f = np.zeros((2, 1, 3))
    f[:, 0, 0] = (1.0, 2.0)  # z = -1e306
    f[:, 0, 1] = (2.0, 1.0)  # z = +1e306
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = apply_head(head, f)
    assert out.tolist() == [[0.0, 1.0, 0.5]]


def test_apply_head_shape_validation():
    head = UncertaintyHead(weights=np.ones(2), bias=0.0)
    with pytest.raises(ShapeError):
        apply_head(head, np.zeros((3, 2, 2)))
    with pytest.raises(ShapeError):
        apply_head(head, np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        UncertaintyHead(weights=np.ones((2, 2)), bias=0.0)


def test_rmsle_gradient_matches_finite_differences():
    rng = np.random.default_rng(66)
    step = 1e-5
    for _ in range(20):
        c = int(rng.integers(1, 5))
        head = UncertaintyHead(weights=rng.normal(size=c), bias=float(rng.normal()))
        f = rng.normal(size=(c, 3, 4))
        t = rng.random((3, 4))
        loss, gw, gb = rmsle_gradient(head, f, t)
        assert loss == pytest.approx(rmsle(apply_head(head, f), t), abs=1e-12)
        for k in range(c):
            wp = head.weights.copy()
            wp[k] += step
            wm = head.weights.copy()
            wm[k] -= step
            fd = (
                rmsle(apply_head(UncertaintyHead(wp, head.bias), f), t)
                - rmsle(apply_head(UncertaintyHead(wm, head.bias), f), t)
            ) / (2 * step)
            assert gw[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        fd_b = (
            rmsle(apply_head(UncertaintyHead(head.weights, head.bias + step), f), t)
            - rmsle(apply_head(UncertaintyHead(head.weights, head.bias - step), f), t)
        ) / (2 * step)
        assert gb == pytest.approx(fd_b, rel=1e-4, abs=1e-8)


def test_rmsle_gradient_zero_at_perfect_fit():
    head = UncertaintyHead(weights=np.array([1.0]), bias=0.0)
    f = np.array([[[0.3, -0.2]]])
    t = apply_head(head, f)
    loss, gw, gb = rmsle_gradient(head, f, t)
    assert loss == 0.0
    assert (gw == 0.0).all() and gb == 0.0


def _tiny_dataset(rng, n_images=6, c=3, hw=6):
    data = []
    w_true = rng.normal(size=c)
    for _ in range(n_images):
        f = rng.normal(size=(c, hw, hw))
        z = np.tensordot(w_true, f, axes=1) - 0.3
        t = 1.0 / (1.0 + np.exp(-z))
        data.append((f, t))
    return data


def _plain_selection(n, hw=6):
    gt = np.zeros((hw, hw), dtype=np.uint8)
    gt[hw // 2, hw // 2] = 1
    ref = np.full((hw, hw), 0.9, dtype=np.float64)
    return [(gt, ref)] * n


def test_train_head_zero_lr_is_identity():
    rng = np.random.default_rng(70)
    data = _tiny_dataset(rng)
    cfg = TrainConfig(lr0=0.0, max_epochs=3, patience=5)
    res = train_head(data[:4], data[4:], cfg, _plain_selection(2))
    mean_t = np.mean([t.mean() for _f, t in data[:4]])
    expect_bias = math.log(mean_t / (1.0 - mean_t))
    assert (res.head.weights == 0.0).all()
    assert res.head.bias == pytest.approx(expect_bias, rel=1e-12)
    assert len(res.log) == 3


def test_train_head_zero_lr_stops_after_patience():
    rng = np.random.default_rng(71)
    data = _tiny_dataset(rng)
    cfg = TrainConfig(lr0=0.0, max_epochs=100, patience=4)
    res = train_head(data[:4], data[4:], cfg, _plain_selection(2))
    # epoch 0 sets the best key; 4 identical epochs then stop
    assert len(res.log) == 5
    assert res.selected_epoch == 0


def test_train_head_full_batch_loss_nonincreasing_without_momentum():
    rng = np.random.default_rng(72)
    data = _tiny_dataset(rng, n_images=5)
    cfg = TrainConfig(
        lr0=0.05, momentum=0.0, weight_decay=0.0, batch_size=5,
        max_epochs=40, patience=40,
    )
    res = train_head(data, data, cfg, _plain_selection(5))
    losses = [e.train_rmsle for e in res.log]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12


def test_train_head_reduces_loss_and_selection_is_argmax():
    rng = np.random.default_rng(73)
    data = _tiny_dataset(rng, n_images=8)
    cfg = TrainConfig(
        lr0=0.5, momentum=0.9, weight_decay=0.0, batch_size=4,
        max_epochs=30, patience=30, rng_seed=1,
    )
    res = train_head(data[:6], data[6:], cfg, _plain_selection(2))
    assert res.log[-1].train_rmsle < res.log[0].train_rmsle
    keys = [
        (e.val_auroc_at_anchor if e.val_auroc_at_anchor is not None else -math.inf,
         -e.val_rmsle)
        for e in res.log
    ]
    assert keys[res.selected_epoch] == max(keys)


def test_train_head_weight_decay_contracts_constant_solution():
    # constant features make the weight gradient vanish, so the decay
    # term alone drives w: w_{k+1} = (1 - lr_k wd) w_k, a known product
    hw = 4
    f = np.zeros((2, hw, hw))
    b0 = 0.3
    t = np.full((hw, hw), 1.0 / (1.0 + math.exp(-b0)))
    data = [(f, t)] * 3
    init = UncertaintyHead(weights=np.array([1.5, -2.0]), bias=b0)
    cfg = TrainConfig(
        lr0=0.2, momentum=0.0, weight_decay=0.1, batch_size=3,
        max_epochs=10, patience=10,
    )
    res = train_head(data, data, cfg, _plain_selection(3, hw=hw), init_head=init)
    # the loss gradient is identically zero here, so every key ties and
    # selection keeps epoch 0: exactly one decay step at lr = lr0
    factor = 1.0 - cfg.lr0 * cfg.weight_decay
    assert res.selected_epoch == 0
    assert res.head.weights[0] == pytest.approx(1.5 * factor, rel=1e-13)
    assert res.head.weights[1] == pytest.approx(-2.0 * factor, rel=1e-13)
    # bias carries no decay term
    assert res.head.bias == pytest.approx(b0, abs=1e-12)
    assert res.log[-1].train_rmsle == pytest.approx(0.0, abs=1e-12)


def test_train_head_validation_errors():
    rng = np.random.default_rng(74)
    data = _tiny_dataset(rng, n_images=2)
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValidationError):
        train_head([], data, cfg, _plain_selection(2))
    with pytest.raises(ValidationError):
        train_head(data, data, cfg, _plain_selection(1))
    bad = [(np.zeros((2, 3, 3)), np.zeros((4, 4)))]
    with pytest.raises(ShapeError):
        train_head(bad, [], cfg, [])


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(lr0=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(patience=0)
    TrainConfig(lr0=0.0)  # explicit no-op config is fine


def test_head_json_round_trip(tmp_path):
    head = UncertaintyHead(weights=np.array([0.25, -1.75, 3.5]), bias=-0.125)
    cfg = TrainConfig(lr0=0.01, rng_seed=9)
    p = tmp_path / "head.json"
    save_head(p, head, cfg, selection_metric=0.75, epoch=12)
    back, payload = load_head(p)
    assert (back.weights == head.weights).all()
    assert back.bias == head.bias
    assert payload["epoch"] == 12
    assert payload["selection_metric"] == 0.75
    assert payload["train_config"]["rng_seed"] == 9


def test_load_head_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_head(p)
    p.write_text('{"weights": [0.1], "bias": 0.0}')
    with pytest.raises(ValidationError):
        load_head(p)  # missing channels
    p.write_text('{"channels": 3, "weights": [0.1], "bias": 0.0}')
    with pytest.raises(ValidationError):
        load_head(p)  # channel count disagrees
    for text in ("[]", '{"channels": 1, "weights": "abc", "bias": 0.0}',
                 '{"channels": 1, "weights": [0.1], "bias": "x"}',
                 '{"channels": 1, "weights": [0.1], "bias": NaN}',
                 '{"channels": 1, "weights": [[0.1]], "bias": 0.0}'):
        p.write_text(text)
        with pytest.raises(ValidationError, match="bad.json"):
            load_head(p)
    with pytest.raises(ValidationError, match="missing.json"):
        load_head(tmp_path / "missing.json")
