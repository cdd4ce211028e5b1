"""Boundary-aware uncertainty-quantification evaluation for
probabilistic fire-spread forecasts.

The toolkit evaluates per-pixel fire probability maps and their
uncertainty against ground-truth burn masks inside a Fire-Centered
Evaluation Region (the ground truth dilated by a disk radius), sweeps
that radius, anchors it at the mean surface distance of the predictions,
fuses ensembles into a teacher uncertainty, distills that into a
single-pass uncertainty head, and compares models with a paired
Wilcoxon signed-rank test.

The names below are imported from their submodules on first use (PEP
562), so importing a numpy-free submodule, such as the stats command's,
imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "distill": (
        "TeacherOutput",
        "TrainConfig",
        "UncertaintyHead",
        "apply_head",
        "fuse_ensemble",
        "rmsle",
        "select_middle_member",
        "sigma_max",
        "train_head",
    ),
    "errors": (
        "DegenerateClassError",
        "DegenerateDataError",
        "EmptyMaskError",
        "FireUQError",
        "ParseError",
        "ShapeError",
        "ValidationError",
    ),
    "metrics": (
        "average_precision",
        "average_surface_distance",
        "brier",
        "error_map",
        "nll",
        "precision_recall",
        "uq_auroc",
    ),
    "morphology": ("dilate", "edt", "extract_boundary", "squared_edt"),
    "protocol": (
        "Fire",
        "Model",
        "SweepConfig",
        "SweepResult",
        "aggregate_mean_std",
        "build_fcer",
        "relative_to_baseline",
        "resolve_anchor",
        "run_sweep",
    ),
    "raster": ("FireEvent", "GeoConfig", "center_crop", "load_dataset"),
    "report": ("MetricRecord",),
    "stats": ("rank_biserial", "wilcoxon_one_sided"),
    "synth": ("ScenarioSpec", "generate_scenario", "write_scenario"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
