"""Run one fireuq CLI command in a fresh interpreter, optionally traced.

    python3 perfbench/launch.py -- <fireuq arguments>
    python3 perfbench/launch.py --trace SPANS.json --command NAME -- <fireuq arguments>

Untraced, this is what the ``fireuq`` console script does: import
``fireuq.cli`` and call ``main``.  Traced, it first wraps the public
functions listed in ``TARGETS`` at every ``fireuq`` module that binds them
by name, so calls made through any import path are seen, then runs the
command and writes the recorded spans to SPANS.json when it ends.  The
spans stay in memory until then, and SPANS.json lives outside every
``--out-dir`` so output trees remain byte-comparable.

A span is ``[id, parent, name, start, end, ok, extra]``: ``ok`` is false
when the call raised, and ``extra`` is the work measure of the call
(pixels, bytes, epochs or the Wilcoxon mode), or null.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path


def _region_px(args, kwargs):
    """Pixels a ranking call scores: the region's, else the whole map's."""
    region = kwargs.get("region", args[2] if len(args) > 2 else None)
    if region is not None:
        import numpy as np

        return int(np.count_nonzero(region))
    return int(args[0].size)


def _file_bytes(paths) -> int:
    total = 0
    for p in map(Path, paths):
        if p.is_dir():
            total += sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
        elif p.is_file():
            total += p.stat().st_size
    return total


def _dataset_bytes(root) -> int:
    return sum(f.stat().st_size for f in Path(root).glob("*/*/*.npy"))


# layer (module) -> public function -> work measure (args, kwargs, result) or None
TARGETS = {
    "cli": {"main": None, "middle_member_by_year": None},
    "protocol": {"run_sweep": None, "build_fcer": None, "resolve_anchor": None},
    "morphology": {
        "squared_edt": lambda a, k, r: int(a[0].size),
        "extract_boundary": None,
    },
    "metrics": {
        "average_precision": lambda a, k, r: _region_px(a, k),
        "average_surface_distance": None,
        "uq_auroc": lambda a, k, r: _region_px(a, k),
        "uq_auprc": None,
        "brier": None,
        "nll": None,
        "error_map": None,
    },
    "distill": {
        "fuse_ensemble": None,
        "apply_head": None,
        "rmsle_gradient": None,
        "train_head": lambda a, k, r: None if r is None else len(r.log),
    },
    "raster": {
        "load_dataset": lambda a, k, r: _dataset_bytes(a[0]),
        "save_array": lambda a, k, r: _file_bytes([a[1]]),
    },
    "report": {
        "digest_inputs": lambda a, k, r: _file_bytes(a[0]),
        "write_manifest": None,
        "write_sweep_csv": None,
    },
    "stats": {"wilcoxon_one_sided": lambda a, k, r: None if r is None else r.mode},
    "synth": {"write_scenario": None},
}


class Tracer:
    """Span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result) if measure else None
                self.spans.append([sid, parent, name, start, end, ok, extra])

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every fireuq module that binds it."""
        for layer in TARGETS:
            importlib.import_module(f"fireuq.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fireuq" or n.startswith("fireuq.")]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"fireuq.{layer}"]
            for fname, measure in functions.items():
                original = getattr(home, fname, None)
                if original is None:
                    continue
                traced = self.wrap(f"{layer}.{fname}", original, measure)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    trace_path = command = None
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            trace_path = value
        elif flag == "--command":
            command = value
        else:
            raise SystemExit(f"launch.py: unknown flag {flag}")
    argv = argv[1:]

    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install()
    import fireuq.cli

    try:
        return fireuq.cli.main(argv)
    finally:
        if tracer is not None:
            Path(trace_path).write_text(json.dumps(
                {"command": command, "spans": tracer.spans}
            ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
