"""Boundary-aware uncertainty-quantification evaluation for
probabilistic fire-spread forecasts.

The toolkit evaluates per-pixel fire probability maps and their
uncertainty against ground-truth burn masks inside a Fire-Centered
Evaluation Region (the ground truth dilated by a disk radius), sweeps
that radius, anchors it at the mean surface distance of the predictions,
fuses ensembles into a teacher uncertainty, distills that into a
single-pass uncertainty head, and compares models with a paired
Wilcoxon signed-rank test.
"""

# defined before the submodule imports, as report reads it at import time
__version__ = "0.1.0"

from .distill import (
    TeacherOutput,
    TrainConfig,
    UncertaintyHead,
    apply_head,
    fuse_ensemble,
    rmsle,
    select_middle_member,
    sigma_max,
    train_head,
)
from .errors import (
    DegenerateClassError,
    DegenerateDataError,
    EmptyMaskError,
    FireUQError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .metrics import (
    average_precision,
    average_surface_distance,
    brier,
    error_map,
    nll,
    precision_recall,
    uq_auroc,
)
from .morphology import dilate, edt, extract_boundary, squared_edt
from .protocol import (
    Fire,
    Model,
    SweepConfig,
    SweepResult,
    aggregate_mean_std,
    build_fcer,
    relative_to_baseline,
    resolve_anchor,
    run_sweep,
)
from .raster import FireEvent, GeoConfig, center_crop, load_dataset
from .report import MetricRecord
from .stats import rank_biserial, wilcoxon_one_sided
from .synth import ScenarioSpec, generate_scenario, write_scenario
