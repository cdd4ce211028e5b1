"""Boundary-aware uncertainty-quantification evaluation for
probabilistic fire-spread forecasts.

The toolkit evaluates per-pixel fire probability maps and their
uncertainty against ground-truth burn masks inside a Fire-Centered
Evaluation Region (the ground truth dilated by a disk radius), sweeps
that radius, anchors it at the mean surface distance of the predictions,
fuses ensembles into a teacher uncertainty, distills that into a
single-pass uncertainty head, and compares models with a paired
Wilcoxon signed-rank test.

Each name is imported from its own submodule, such as
``fireuq.protocol.run_sweep``.  The package itself imports nothing, so
importing a numpy-free submodule, such as the stats command's, imports
no numpy.
"""

__version__ = "0.1.0"
