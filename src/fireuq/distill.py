"""Ensemble teacher construction and the distilled uncertainty head.

The teacher fuses member probability maps into a mean probability and a
normalized-disagreement uncertainty (per-pixel sample std divided by
the analytic maximum sample std of n values in [0, 1]).  The student
head is a per-pixel linear + sigmoid map over cached feature stacks,
trained to regress the teacher uncertainty under RMSLE with plain SGD:
momentum, coupled L2 weight decay on the weights, polynomial LR decay,
early stopping, and checkpoint selection by validation AUROC inside the
anchor-radius evaluation region.

Training and load_models read a pack through raster.read_years, the one
pack reader: one cropped year at a time, and each year's feature stacks
one fire at a time.  Both compute student maps with head_maps.
load_models builds the models the protocol scores from model specs
(``ensemble:<dir>``, ``student:<dir>:<head.json>``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateClassError, DegenerateDataError, ShapeError, ValidationError
from .metrics import average_precisions, error_map, uq_auroc
from .protocol import MAX_RADIUS_PX, Fire, Model, fcer_pixels
from .raster import FireEvent, FireFiles, GeoConfig, read_years, scan_dataset
from .report import read_json, write_json


@dataclass
class TeacherOutput:
    mean_prob: np.ndarray
    uncertainty: np.ndarray


@dataclass
class UncertaintyHead:
    """Per-pixel linear + sigmoid uncertainty predictor."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ShapeError("head weights must be a 1-D channel vector")
        self.bias = float(self.bias)

    @property
    def channels(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 4
    poly_power: float = 0.9
    max_epochs: int = 100
    patience: int = 20
    selection_anchor_px: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("lr0", "momentum", "weight_decay", "poly_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        # lr0 = 0 is allowed so a no-op run stays expressible
        if self.lr0 < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValidationError("lr0, momentum, weight_decay must be >= 0")
        if self.momentum >= 1:
            raise ValidationError("momentum must be < 1")
        if self.poly_power <= 0:
            raise ValidationError("poly_power must be > 0")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if not 0 <= self.selection_anchor_px <= MAX_RADIUS_PX:
            raise ValidationError(f"selection_anchor_px must lie in [0, {MAX_RADIUS_PX}]")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def sigma_max(n: int) -> float:
    """Largest sample standard deviation (divisor n-1) attainable by n
    values in [0, 1]: reached by splitting them between the endpoints as
    evenly as possible."""
    if n < 2:
        raise ValidationError("sigma_max requires n >= 2")
    return math.sqrt((n // 2) * ((n + 1) // 2) / (n * (n - 1)))


def fuse_ensemble(members: list[np.ndarray]) -> TeacherOutput:
    """Average member probabilities; uncertainty = normalized sample std.

    Uncertainty is the per-pixel sample standard deviation (divisor
    n-1) divided by sigma_max(n), clipped to 1 against float roundoff,
    so it lies in [0, 1] with 1 meaning maximal disagreement.  Both
    equal np.array(members, float64).mean/std(axis=0, ddof=1) bit for
    bit, but the n x H x W stack is built only for a one-pixel grid,
    whose n values numpy sums pairwise as one vector.  Otherwise numpy
    sums the stack's axis 0 in member order from +0.0, and so do the
    float64 sums here: of the members, then of their squared deviations
    from the mean.
    """
    n = len(members)
    if n < 2:
        raise ValidationError("fuse_ensemble: need at least 2 members")
    shape = members[0].shape
    for k, m in enumerate(members):
        if m.shape != shape:
            raise ShapeError(f"fuse_ensemble: member {k} shape {m.shape} != {shape}")
    if math.prod(shape) == 1:
        stack = np.array(members, dtype=np.float64)
        mean_prob, std = stack.mean(axis=0), stack.std(axis=0, ddof=1)
    else:
        mean_prob = np.zeros(shape)
        for m in members:
            np.add(mean_prob, m, out=mean_prob)
        np.divide(mean_prob, n, out=mean_prob)
        std = np.zeros(shape)
        dev = np.empty(shape)
        for m in members:
            np.subtract(m, mean_prob, out=dev)
            np.multiply(dev, dev, out=dev)
            np.add(std, dev, out=std)
        np.divide(std, n - 1, out=std)
        np.sqrt(std, out=std)
    unc = np.minimum(std / sigma_max(n), 1.0)
    return TeacherOutput(mean_prob=mean_prob, uncertainty=unc)


def select_middle_member(per_member_ap: list[float]) -> int:
    """Index of the member with median AP; ties go to the lowest index.

    Only odd member counts are supported (a median member exists).
    """
    n = len(per_member_ap)
    if n == 0 or n % 2 == 0:
        raise ValidationError("select_middle_member: member count must be odd")
    values = [float(v) for v in per_member_ap]
    median = sorted(values)[n // 2]
    return values.index(median)


class _Workspace:
    """Float64 buffers for the head math on images of up to n pixels with
    c channels: the widened (c, n) feature stack and three n-vectors.

    Each step writes into them with out=, so a loop over images widens
    every feature stack into the same memory and allocates nothing per
    pixel.  The steps are the formulas of apply_head, rmsle and
    rmsle_gradient in their operand order; two sign folds, (-w).f - b
    for -(w.f + b) and x / -(L N) for -(x / (L N)), are exact because
    rounding to nearest is symmetric in sign.
    """

    def __init__(self, c: int, n: int):
        self.f = np.empty(c * n)
        self.s = np.empty(n)
        self.d = np.empty(n)
        self.tmp = np.empty(n)

    def load(self, features: np.ndarray) -> np.ndarray:
        """features (c, ...) copied into the buffer, as a (c, n) view."""
        c = features.shape[0]
        n = math.prod(features.shape[1:])
        flat = self.f[: c * n].reshape(c, n)
        np.copyto(flat.reshape(features.shape), features)
        return flat

    def student(self, head: UncertaintyHead, flat: np.ndarray) -> np.ndarray:
        """s = sigmoid(w . f + b) per pixel of a loaded stack."""
        s = self.s[: flat.shape[1]]
        np.dot(-head.weights, flat, out=s)
        np.subtract(s, head.bias, out=s)
        np.exp(s, out=s)
        np.add(1.0, s, out=s)
        np.divide(1.0, s, out=s)
        return s

    def head_map(self, head: UncertaintyHead, features: np.ndarray) -> np.ndarray:
        """apply_head of one checked (C, H, W) stack, copied out."""
        # exp(-z) overflows to inf for z < -709, and 1 / (1 + inf) = 0 is
        # the correct saturation
        with np.errstate(over="ignore"):
            s = self.student(head, self.load(features))
        return s.reshape(features.shape[1:]).copy()

    def rmsle(self, s: np.ndarray, log1p_t: np.ndarray) -> float:
        """sqrt(mean(d^2)) of d = log1p(t) - log1p(s), left in self.d."""
        d = self.d[: s.size]
        np.log1p(s, out=d)
        np.subtract(log1p_t, d, out=d)
        sq = self.tmp[: s.size]
        np.multiply(d, d, out=sq)
        # np.mean's own sum and division, without its per-call overhead
        return math.sqrt(float(np.add.reduce(sq)) / s.size)

    def gradient(
        self, head: UncertaintyHead, flat: np.ndarray, log1p_t: np.ndarray
    ) -> tuple[float, np.ndarray, float]:
        """rmsle_gradient of a loaded stack against log1p(t), raveled."""
        s = self.student(head, flat)
        loss = self.rmsle(s, log1p_t)
        if loss == 0.0:
            return 0.0, np.zeros(flat.shape[0]), 0.0
        n = s.size
        d = self.d[:n]
        tmp = self.tmp[:n]
        np.multiply(d, s, out=d)
        np.subtract(1.0, s, out=tmp)
        np.multiply(d, tmp, out=d)
        np.add(1.0, s, out=tmp)
        np.divide(d, tmp, out=d)
        np.divide(d, -(loss * n), out=d)
        return loss, np.dot(flat, d), float(d.sum())


def rmsle(student: np.ndarray, teacher: np.ndarray) -> float:
    """Root mean squared error between log(1+x)-transformed maps, taken
    over the pixels in C order."""
    s = np.asarray(student, dtype=np.float64)
    t = np.asarray(teacher, dtype=np.float64)
    if s.shape != t.shape:
        raise ShapeError(f"rmsle: shape mismatch {s.shape} vs {t.shape}")
    if s.min() < 0 or t.min() < 0:
        raise ValidationError("rmsle: values must be >= 0")
    return _Workspace(0, s.size).rmsle(s.ravel(), np.log1p(t.ravel()))


def apply_head(head: UncertaintyHead, features: np.ndarray) -> np.ndarray:
    """sigmoid(w . f + b) per pixel over a (C, H, W) feature stack."""
    f = np.asarray(features)
    return next(head_maps(head, [f], math.prod(f.shape[1:])))


def head_maps(head: UncertaintyHead, stacks, n_px: int):
    """Yield apply_head of each (C, H, W) stack of an iterable, computed
    in one workspace of n_px >= each stack's pixels.  Each map is copied
    out, and each stack dropped before the next is requested, so a lazy
    iterable holds one stack at a time."""
    ws = _Workspace(head.channels, n_px)
    for f in stacks:
        s = ws.head_map(head, _head_input(head, f))
        del f  # before the next stack is requested
        yield s


def _head_input(head: UncertaintyHead, features) -> np.ndarray:
    """features as an array, refused unless it is (C, H, W) with the
    head's channel count."""
    f = np.asarray(features)
    if f.ndim != 3:
        raise ShapeError("apply_head: features must be (C, H, W)")
    if f.shape[0] != head.channels:
        raise ShapeError(
            f"apply_head: {f.shape[0]} feature channels vs head with {head.channels}"
        )
    return f


def rmsle_gradient(
    head: UncertaintyHead, features: np.ndarray, teacher_unc: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Per-image RMSLE loss and its analytic gradient w.r.t. (w, b).

    With s = sigmoid(w.f + b), d = log1p(t) - log1p(s), L = sqrt(mean d^2):
    dL/dz_i = -d_i s_i (1 - s_i) / ((1 + s_i) L N); at L = 0 the loss is
    at its minimum and the (sub)gradient is taken as zero.
    """
    f = np.asarray(features)
    t = np.asarray(teacher_unc, dtype=np.float64)
    if f.shape[1:] != t.shape:
        raise ShapeError("rmsle_gradient: feature and target shapes differ")
    ws = _Workspace(f.shape[0], t.size)
    return ws.gradient(head, ws.load(f), np.log1p(t.ravel()))


@dataclass(frozen=True)
class HeadTarget:
    """What training reads of one teacher uncertainty map: its log1p, a
    float64 array of the map's shape, and the map's own mean."""

    log1p: np.ndarray
    mean: float


def head_target(features: np.ndarray, teacher_unc: np.ndarray) -> HeadTarget:
    """The regression target of one image with its (C, H, W) feature
    stack.  The teacher map must have the stack's (H, W) and no negative
    value; the target keeps nothing of it but its log1p and mean, so a
    caller that drops the map holds one float64 map per image."""
    t = np.asarray(teacher_unc)
    if np.shape(features)[1:] != t.shape:
        raise ShapeError("train_head: feature/target shape mismatch")
    if np.min(t) < 0:
        raise ValidationError("train_head: teacher uncertainty must be >= 0")
    # C order, so that training ravels it without a copy
    log1p = np.log1p(np.asarray(t, dtype=np.float64, order="C"))
    return HeadTarget(log1p=log1p, mean=t.mean())


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_rmsle: float
    val_rmsle: float
    val_auroc_at_anchor: float | None


@dataclass
class TrainResult:
    head: UncertaintyHead
    log: list[EpochLog]
    selected_epoch: int
    selection_metric: float | None  # val AUROC at the anchor, if defined


def _validate(
    ws: _Workspace, head: UncertaintyHead, val_set: list, val_ranked: list
) -> tuple[float, float | None]:
    """Mean validation RMSLE, and mean AUROC inside the anchor FCERs
    (None when no image has both classes there), from one student map
    per validation image."""
    losses, scores = [], []
    for (f, target), ranked in zip(val_set, val_ranked):
        s = ws.student(head, ws.load(f))
        losses.append(ws.rmsle(s, target.log1p.ravel()))
        if ranked is None:
            continue
        idx, errors = ranked
        try:
            scores.append(uq_auroc(s[idx], errors))
        except DegenerateClassError:
            continue
    return float(np.mean(losses)), (float(np.mean(scores)) if scores else None)


def _check_finite(epoch: int, head: UncertaintyHead, *losses: float):
    if not (np.isfinite(head.weights).all() and np.isfinite([head.bias, *losses]).all()):
        raise DegenerateDataError(f"training diverged at epoch {epoch}")


def train_head(
    train_set: list[tuple[np.ndarray, HeadTarget]],
    val_set: list[tuple[np.ndarray, HeadTarget]],
    cfg: TrainConfig,
    val_selection: list[tuple[np.ndarray, np.ndarray]],
    error_threshold: float = 0.5,
) -> TrainResult:
    """SGD on the head over cached (features, head_target) pairs.

    Training reads each target's log1p map and, for the initial bias,
    the training targets' means; it makes no copy of them.
    val_selection pairs (gt mask, reference probability) per validation
    image define the error maps and anchor regions used for checkpoint
    selection: the retained head maximizes mean validation AUROC inside
    the FCER at cfg.selection_anchor_px, with lower validation RMSLE as
    the tie-break.  Early stopping fires after cfg.patience epochs with
    no improvement of that selection key.  The head starts from zero
    weights with the bias at the logit of the mean teacher uncertainty.
    Training stops with DegenerateDataError at the first non-finite
    parameter or loss.

    An epoch's training-loss pass evaluates the head that the next
    epoch's first batch starts from, on the same images.  So the next
    epoch's permutation is drawn just before that pass (the generator
    makes the same draws in the same order; after an early stop one draw
    goes unused), and the pass keeps the gradients of that first batch's
    images, whose losses are the bits the pass logs.  The first batch
    then sums the kept gradients in batch order: min(batch_size,
    len(train_set)) fewer loads and forwards per epoch after the first,
    with every result bit unchanged.
    """
    if not train_set:
        raise ValidationError("train_head: empty training set")
    if len(val_selection) != len(val_set):
        raise ValidationError("train_head: val_selection must align with val_set")
    if not 0.0 <= error_threshold <= 1.0:
        raise ValidationError("train_head: error_threshold must lie in [0, 1]")
    c = train_set[0][0].shape[0]
    images = list(train_set) + list(val_set)
    for f, target in images:
        if f.ndim != 3 or f.shape[0] != c:
            raise ShapeError(f"train_head: inconsistent channel count ({f.shape})")
        if f.shape[1:] != target.log1p.shape:
            raise ShapeError("train_head: feature/target shape mismatch")

    # fixed across epochs: per validation image the anchor-FCER pixels
    # with their error labels (None when the ground truth is empty)
    ws = _Workspace(c, max(target.log1p.size for _f, target in images))
    val_ranked = []
    for (f, _target), (gt, reference) in zip(val_set, val_selection):
        if not np.shape(gt) == np.shape(reference) == f.shape[1:]:
            raise ShapeError("train_head: selection map/feature shape mismatch")
        if not np.asarray(gt).any():
            val_ranked.append(None)
            continue
        idx, _d2 = fcer_pixels(gt, cfg.selection_anchor_px)
        errors = error_map(np.ravel(reference)[idx], np.ravel(gt)[idx], error_threshold)
        val_ranked.append((idx, errors))

    mean_t = float(np.mean([target.mean for _f, target in train_set]))
    mean_t = min(max(mean_t, 1e-6), 1.0 - 1e-6)
    head = UncertaintyHead(weights=np.zeros(c), bias=math.log(mean_t / (1.0 - mean_t)))

    rng = np.random.default_rng(cfg.rng_seed)
    vw = np.zeros(c)
    vb = 0.0
    log: list[EpochLog] = []
    best_key = None
    best_state = (head.weights.copy(), head.bias, 0, None)
    stall = 0
    order = rng.permutation(len(train_set))
    # image -> (gw_i, gb_i) of this epoch's first batch, computed by the
    # previous epoch's training-loss pass with the same head
    ahead = {}

    for epoch in range(cfg.max_epochs):
        lr = cfg.lr0 * (1.0 - epoch / cfg.max_epochs) ** cfg.poly_power
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            gw = np.zeros(c)
            gb = 0.0
            # a diverging head overflows its logits, then its parameters:
            # _check_finite reports the first non-finite value instead
            with np.errstate(over="ignore", invalid="ignore"):
                for i in batch:
                    if i in ahead:
                        gwi, gbi = ahead[i]
                    else:
                        f, target = train_set[i]
                        _loss, gwi, gbi = ws.gradient(head, ws.load(f), target.log1p.ravel())
                    gw += gwi
                    gb += gbi
                gw /= len(batch)
                gb /= len(batch)
                gw += cfg.weight_decay * head.weights  # decay on weights only
                vw = cfg.momentum * vw + gw
                vb = cfg.momentum * vb + gb
                head.weights = head.weights - lr * vw
                head.bias = head.bias - lr * vb
            _check_finite(epoch, head)

        # the next epoch's permutation, drawn now so that this pass can
        # take the gradients of its first batch: they use this head
        ahead = {}
        if epoch + 1 < cfg.max_epochs:
            order = rng.permutation(len(train_set))
            ahead = dict.fromkeys(order[: cfg.batch_size].tolist())
        losses = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (f, target) in enumerate(train_set):
                flat, log1p_t = ws.load(f), target.log1p.ravel()
                if i in ahead:
                    # its loss has the bits of the rmsle below
                    loss, gwi, gbi = ws.gradient(head, flat, log1p_t)
                    ahead[i] = (gwi, gbi)
                else:
                    loss = ws.rmsle(ws.student(head, flat), log1p_t)
                losses.append(loss)
            train_loss = float(np.mean(losses))
            val_loss, val_auroc = (
                _validate(ws, head, val_set, val_ranked)
                if val_set else (train_loss, None)
            )
        _check_finite(epoch, head, train_loss, val_loss)
        log.append(EpochLog(epoch, lr, train_loss, val_loss, val_auroc))

        key = (
            val_auroc if val_auroc is not None else -math.inf,
            -val_loss,
        )
        if best_key is None or key > best_key:
            best_key = key
            best_state = (head.weights.copy(), head.bias, epoch, val_auroc)
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    weights, bias, sel_epoch, sel_metric = best_state
    return TrainResult(
        head=UncertaintyHead(weights=weights, bias=bias),
        log=log,
        selected_epoch=sel_epoch,
        selection_metric=sel_metric,
    )


def save_head(
    path: str | Path,
    result_head: UncertaintyHead,
    cfg: TrainConfig,
    selection_metric: float | None,
    epoch: int,
):
    payload = {
        "channels": result_head.channels,
        "weights": [float(w) for w in result_head.weights],
        "bias": result_head.bias,
        "train_config": asdict(cfg),
        "selection_metric": selection_metric,
        "epoch": epoch,
    }
    write_json(path, payload)


def load_head(path: str | Path) -> tuple[UncertaintyHead, dict]:
    try:
        payload = read_json(path, ValidationError, "malformed head checkpoint")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read head checkpoint ({exc.strerror})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: head checkpoint must be a JSON object")
    try:
        channels, weights, bias = payload["channels"], payload["weights"], payload["bias"]
    except KeyError as exc:
        raise ValidationError(f"{path}: missing checkpoint field {exc}") from exc
    # the JSON types save_head writes; a bool is not a number here
    if type(channels) is not int:
        raise ValidationError(f"{path}: channels must be a JSON integer, got {channels!r}")
    if channels < 1:
        raise ValidationError(f"{path}: channels must be >= 1, got {channels}")
    if not (type(weights) is list and all(type(w) in (int, float) for w in weights)):
        raise ValidationError(f"{path}: weights must be a list of JSON numbers")
    if type(bias) not in (int, float):
        raise ValidationError(f"{path}: bias must be a JSON number, got {bias!r}")
    try:
        head = UncertaintyHead(weights=np.asarray(weights, dtype=np.float64), bias=float(bias))
    # a JSON integer beyond float range overflows float()
    except OverflowError as exc:
        raise ValidationError(f"{path}: malformed checkpoint field ({exc})") from exc
    if head.channels != channels:
        raise ValidationError(f"{path}: channel count disagrees with weights")
    if not (np.isfinite(head.weights).all() and np.isfinite(head.bias)):
        raise ValidationError(f"{path}: head parameters must be finite")
    return head, payload


def parse_model_spec(text: str) -> tuple[str, Path, Path | None]:
    parts = text.split(":")
    if parts[0] == "ensemble" and len(parts) == 2 and parts[1]:
        return "ensemble", Path(parts[1]), None
    if parts[0] == "student" and len(parts) == 3 and parts[1] and parts[2]:
        return "student", Path(parts[1]), Path(parts[2])
    raise ValidationError(
        f"bad model spec {text!r}; want ensemble:<dir> or student:<dir>:<head.json>"
    )


def require_features(layout: dict[int, list[FireFiles]], reader: str):
    """Refuse a scanned layout in which a fire has no features.npy,
    naming that fire's directory."""
    for fires in layout.values():
        for f in fires:
            if f.features is None:
                raise ValidationError(f"{f.gt.parent}: {reader} needs features.npy")


def middle_member_by_year(
    events: list[FireEvent], member_aps: list | None = None
) -> dict[int, int]:
    """Per year, the member whose mean per-fire AP is the median.  Fires
    whose ground truth is single-class have no AP and are left out; a
    year in which no fire has an AP gets member 0.  A given member_aps
    list receives each event's member APs, in event order, as
    average_precisions gives them (None for a single-class ground
    truth)."""
    aps = [average_precisions(ev.members, ev.gt) for ev in events]
    if member_aps is not None:
        member_aps[:] = aps
    out: dict[int, int] = {}
    for year in sorted({ev.year for ev in events}):
        per_fire = [a for ev, a in zip(events, aps) if ev.year == year and a is not None]
        if not per_fire:
            out[year] = 0
            continue
        out[year] = select_middle_member([float(np.mean(v)) for v in zip(*per_fire)])
    return out


def load_models(specs: list[str], geo: GeoConfig) -> tuple[list[Model], list[Path]]:
    """One Model per spec, plus the files it parsed.  Each distinct
    dataset root is scanned, then read by raster.read_years.  A year's
    fires are shared by the root's models: each has its year's middle-AP
    member as the error-map reference (Fire.reference, kept when
    read_years drops the members), with that member's AP.  An ensemble
    scores the fused members; a student scores the reference with
    head_maps' uncertainty over its own pass of the year's stacks, which
    parses each fire's features.npy just before its map and refuses one
    of another channel count than the head's, naming both files.  So at
    most one year's member maps and one fire's feature stack are held at
    a time."""
    parsed = [parse_model_spec(text) for text in specs]
    heads = [load_head(h)[0] if h is not None else None for _kind, _root, h in parsed]
    by_root: dict[Path, list[int]] = {}
    for i, (_kind, root, _head) in enumerate(parsed):
        by_root.setdefault(root.resolve(), []).append(i)
    models = [Model([], []) for _ in parsed]
    inputs: list[Path] = []
    for readers in by_root.values():
        root = parsed[readers[0]][1]
        student = any(parsed[i][0] == "student" for i in readers)
        layout = scan_dataset(root, features=student)
        if student:
            require_features(layout, "student model")
        for events, stacks in read_years(layout, geo.crop_size):
            aps: list = []
            mids = middle_member_by_year(events, aps)
            fires = [
                Fire(ev, ev.members[mids[ev.year]], None if a is None else a[mids[ev.year]])
                for ev, a in zip(events, aps)
            ]
            n_px = max(ev.gt.size for ev in events)
            for i in readers:
                models[i].fires += fires
                if parsed[i][0] == "ensemble":
                    teachers = (fuse_ensemble(ev.members) for ev in events)
                    models[i].outputs += [(t.mean_prob, t.uncertainty) for t in teachers]
                else:
                    # every stack has the head's channel count; exhausted
                    # here, so its workspace goes before the next year
                    own = stacks(heads[i].channels, parsed[i][2])
                    maps = list(head_maps(heads[i], own, n_px))
                    models[i].outputs += [(f.reference, u) for f, u in zip(fires, maps)]
        inputs += [p for fires in layout.values() for f in fires for p in f.paths]
    inputs += [h for _kind, _root, h in parsed if h is not None]
    return models, inputs
