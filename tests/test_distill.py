"""Ensemble fusion, RMSLE head math and the SGD training loop."""

import math
import warnings

import numpy as np
import pytest

from fireuq.errors import DegenerateClassError, ShapeError, ValidationError
from fireuq.distill import (
    EpochLog,
    TrainConfig,
    TrainResult,
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
from fireuq.metrics import error_map, uq_auroc
from fireuq.oracles import oracle_rmsle
from fireuq.protocol import build_fcer


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


@pytest.mark.parametrize("n", [3, 15])
def test_fuse_bitwise_equals_widen_then_stack(n):
    """One float64 array of the members holds the same values as the
    float64 copies stacked, so mean and std keep their bits, also for
    cropped float32 views."""
    rng = np.random.default_rng(n)
    members = [rng.random((40, 36)).astype(np.float32)[3:35, 2:33] for _ in range(n)]
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in members])
    out = fuse_ensemble(members)
    assert out.mean_prob.tobytes() == stack.mean(axis=0).tobytes()
    unc = np.minimum(stack.std(axis=0, ddof=1) / sigma_max(n), 1.0)
    assert out.uncertainty.tobytes() == unc.tobytes()


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
    negative = [(data[0][0], data[0][1] - 1.0)]
    with pytest.raises(ValidationError, match="teacher"):
        train_head(negative, [], cfg, [])
    with pytest.raises(ShapeError, match="selection"):
        train_head(data, data[:1], cfg, _plain_selection(1, hw=5))
    [(gt, reference)] = _plain_selection(1)
    with pytest.raises(ShapeError, match="selection"):
        train_head(data, data[:1], cfg, [(gt, reference[:, :-1])])
    for threshold in (2.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="error_threshold"):
            train_head(data, data, cfg, _plain_selection(2), error_threshold=threshold)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(lr0=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(patience=0)
    for name in ("lr0", "momentum", "weight_decay", "poly_power"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                TrainConfig(**{name: bad})
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


def _cropped_stack(rng, c, h, w, scale=1.0):
    """A float32 (c, h, w) view cropped out of a larger stack, as the CLI
    passes cropped features: not contiguous."""
    big = (rng.normal(size=(c, h + 5, w + 3)) * scale).astype(np.float32)
    view = big[:, 2 : 2 + h, 1 : 1 + w]
    assert not view.flags.c_contiguous
    return view


def test_head_wrappers_match_reference_formulas_bitwise():
    """apply_head, rmsle and rmsle_gradient give the bits of their
    one-line formulas, on cropped float32 views and logits past +-709."""
    rng = np.random.default_rng(80)
    for c, h, w, scale in ((1, 7, 9, 1.0), (5, 24, 20, 1.0), (16, 16, 16, 1.0),
                           (3, 12, 11, 400.0)):
        f = _cropped_stack(rng, c, h, w)
        head = UncertaintyHead(weights=rng.normal(size=c) * scale, bias=float(rng.normal()))
        t = rng.random((h, w))
        with np.errstate(over="ignore"):
            f64 = np.asarray(f, dtype=np.float64)
            ref_s = 1.0 / (1.0 + np.exp(-(np.tensordot(head.weights, f64, axes=1) + head.bias)))
            s = apply_head(head, f)
            flat = f64.reshape(c, h * w)
            zs = 1.0 / (1.0 + np.exp(-(head.weights @ flat + head.bias)))
            d = np.log1p(t.ravel()) - np.log1p(zs)
            ref_loss = math.sqrt(float(np.mean(d * d)))
            gz = -(d * zs * (1.0 - zs) / (1.0 + zs)) / (ref_loss * t.size)
            loss, gw, gb = rmsle_gradient(head, f, t)
        if scale > 1.0:
            z = np.tensordot(head.weights, f64, axes=1) + head.bias
            assert z.min() < -709 and z.max() > 709
            assert (s == 0.0).any() and (s == 1.0).any()
        assert s.tobytes() == ref_s.tobytes()
        assert rmsle(s, t) == float(np.sqrt(np.mean(
            (np.log1p(t) - np.log1p(ref_s)) * (np.log1p(t) - np.log1p(ref_s))
        )))
        assert loss == ref_loss
        assert gw.tobytes() == (flat @ gz).tobytes()
        assert gb == float(gz.sum())


def _reference_train_head(train_set, val_set, cfg, val_selection, error_threshold=0.5):
    """The training loop as it was written before the shared workspace,
    from the public head functions and uq_auroc; kept as the reference
    train_head must match bit for bit."""
    c = train_set[0][0].shape[0]
    val_errors, val_regions = [], []
    for gt, reference in val_selection:
        if not np.asarray(gt).any():
            val_errors.append(None)
            val_regions.append(None)
            continue
        val_errors.append(error_map(reference, gt, threshold=error_threshold))
        val_regions.append(build_fcer(gt, cfg.selection_anchor_px))

    mean_t = float(np.mean([t.mean() for _f, t in train_set]))
    mean_t = min(max(mean_t, 1e-6), 1.0 - 1e-6)
    head = UncertaintyHead(weights=np.zeros(c), bias=math.log(mean_t / (1.0 - mean_t)))

    def validate():
        losses, scores = [], []
        for (f, t), errors, region in zip(val_set, val_errors, val_regions):
            unc = apply_head(head, f)
            losses.append(rmsle(unc, t))
            if errors is None:
                continue
            try:
                scores.append(uq_auroc(unc, errors, region))
            except DegenerateClassError:
                continue
        return float(np.mean(losses)), (float(np.mean(scores)) if scores else None)

    rng = np.random.default_rng(cfg.rng_seed)
    vw, vb = np.zeros(c), 0.0
    log = []
    best_key = None
    best_state = (head.weights.copy(), head.bias, 0, None)
    stall = 0
    for epoch in range(cfg.max_epochs):
        lr = cfg.lr0 * (1.0 - epoch / cfg.max_epochs) ** cfg.poly_power
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            gw, gb = np.zeros(c), 0.0
            for i in batch:
                f, t = train_set[i]
                _loss, gwi, gbi = rmsle_gradient(head, f, t)
                gw += gwi
                gb += gbi
            gw /= len(batch)
            gb /= len(batch)
            gw += cfg.weight_decay * head.weights
            vw = cfg.momentum * vw + gw
            vb = cfg.momentum * vb + gb
            head.weights = head.weights - lr * vw
            head.bias = head.bias - lr * vb
        train_loss = float(np.mean([rmsle(apply_head(head, f), t) for f, t in train_set]))
        val_loss, val_auroc = validate() if val_set else (train_loss, None)
        log.append(EpochLog(epoch, lr, train_loss, val_loss, val_auroc))
        key = (val_auroc if val_auroc is not None else -math.inf, -val_loss)
        if best_key is None or key > best_key:
            best_key = key
            best_state = (head.weights.copy(), head.bias, epoch, val_auroc)
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break
    weights, bias, sel_epoch, sel_metric = best_state
    return TrainResult(UncertaintyHead(weights, bias), log, sel_epoch, sel_metric)


def _blob_fire(rng, c, h, w):
    """(features, teacher) and (gt, reference) of one fire whose features
    carry a weak signal of the teacher uncertainty."""
    yy, xx = np.mgrid[:h, :w]
    cy, cx = rng.integers(3, h - 3), rng.integers(3, w - 3)
    gt = ((yy - cy) ** 2 + (xx - cx) ** 2 <= rng.integers(2, 5) ** 2).astype(np.uint8)
    reference = np.clip(gt * 0.7 + rng.normal(0.15, 0.2, size=(h, w)), 0.0, 1.0)
    teacher = np.clip(np.abs(reference - gt) + rng.normal(0.0, 0.05, size=(h, w)), 0.0, 1.0)
    features = _cropped_stack(rng, c, h, w)
    features[0] += (2.0 * teacher - 1.0).astype(np.float32)
    return (features, teacher), (gt, reference)


@pytest.mark.parametrize("c", [1, 16])
def test_train_head_matches_reference_loop_bitwise(c):
    rng = np.random.default_rng(90 + c)
    shapes = [(24, 20), (16, 16), (24, 20), (16, 16), (24, 20)]
    train = [_blob_fire(rng, c, h, w) for h, w in shapes]
    val = [_blob_fire(rng, c, h, w) for h, w in [(16, 16), (24, 20), (16, 16), (24, 20)]]
    train_set = [pair for pair, _sel in train]
    val_set = [pair for pair, _sel in val]
    selection = [sel for _pair, sel in val]
    # empty ground truth: scored for RMSLE only
    selection[2] = (np.zeros_like(selection[2][0]), selection[2][1])
    # a reference equal to the ground truth makes no errors anywhere, so
    # the anchor FCER is single-class and the image is skipped
    gt3 = selection[3][0]
    selection[3] = (gt3, gt3.astype(np.float64))
    with pytest.raises(DegenerateClassError):
        uq_auroc(apply_head(UncertaintyHead(np.zeros(c), 0.0), val_set[3][0]),
                 error_map(selection[3][1], gt3), build_fcer(gt3, 4))
    cfgs = [
        TrainConfig(lr0=0.5, batch_size=2, max_epochs=12, patience=4, rng_seed=3),
        TrainConfig(lr0=0.2, momentum=0.5, batch_size=3, max_epochs=8, patience=8,
                    selection_anchor_px=2, rng_seed=5),
    ]
    for cfg in cfgs:
        got = train_head(train_set, val_set, cfg, selection)
        want = _reference_train_head(train_set, val_set, cfg, selection)
        assert got.head.weights.tobytes() == want.head.weights.tobytes()
        assert got.head.bias == want.head.bias
        assert (got.selected_epoch, got.selection_metric) == (
            want.selected_epoch, want.selection_metric)
        assert got.log == want.log
        assert any(e.val_auroc_at_anchor is not None for e in got.log)
