"""Seeded end-to-end and per-layer benchmark of the fireuq CLI pipeline.

    python3 perfbench/run.py --workload pack128 --seed 11 --seconds 30 --trace 0

Run from the root of a checkout.  The pack is generated from ``--seed``
by ``fireuq synth``; every command then runs in a fresh interpreter
through ``perfbench/launch.py`` (what the ``fireuq`` console script does),
with ``--jobs 1``, ``SOURCE_DATE_EPOCH`` pinned and one BLAS thread.
One pass is the user's flow ``distill -> eval (ensemble) -> eval
(student) -> sweep -> stats``; passes repeat until ``--seconds`` is used
and every timing is the median over passes.  Every pass must write
the same bytes as the first, and the last pass's outputs are checked by
``perfbench/check.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (a traced pass also regenerates the pack
with a traced ``synth``) and prints the per-layer metrics from the
traced ones.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy with the
environment, output digests and every pass lands in
``.perfbench/results/``.  Nothing is written outside ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from launch import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# the driver must exit within 180 s whatever the children do
RUN_DEADLINE_S = 170.0
PIPELINE = ("distill", "eval_ensemble", "eval_student", "sweep", "stats")
RANKING = ("metrics.uq_auroc", "metrics.uq_auprc", "metrics.average_precision")
# outputs whose bytes the determinism contract fixes, by the command that writes them
DIGESTED = (
    ("distill", "out/distill/head.json"),
    ("distill", "pack/*/*/student_unc.npy"),
    ("eval_ensemble", "out/eval_ensemble/summary.json"),
    ("eval_student", "out/eval_student/summary.json"),
    ("sweep", "out/sweep/sweep_a.csv"),
    ("sweep", "out/sweep/sweep_b.csv"),
    ("sweep", "out/sweep/diff.csv"),
    ("sweep", "out/sweep/summary*.json"),
    ("stats", "out/stats/stats.json"),
)


@dataclass(frozen=True)
class Workload:
    grid: int
    n_fires: int
    n_members: int
    channels: int
    radii: str
    crop: int = 128


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "pack128": Workload(grid=128, n_fires=32, n_members=3, channels=5, radii="0..16"),
    "grid256": Workload(grid=256, n_fires=8, n_members=3, channels=5, radii="0..16",
                        crop=256),
    "members15": Workload(grid=128, n_fires=16, n_members=15, channels=16,
                          radii="0,2,4,8"),
}


def command_args(w: Workload, seed: int) -> dict[str, list[str]]:
    """fireuq arguments per command, relative to the work directory."""
    geo = ["--crop", str(w.crop), "--jobs", "1"]
    student = "student:pack:out/distill/head.json"
    return {
        "synth": ["synth", "--out-dir", "pack", "--seed", str(seed),
                  "--grid-size", str(w.grid), "--n-fires", str(w.n_fires),
                  "--n-members", str(w.n_members),
                  "--feature-channels", str(w.channels), "--jobs", "1"],
        # patience = max epochs: early stopping would make the epoch count, and
        # so distill's work, depend on the seed (31 to 60 epochs on grid256)
        "distill": ["distill", "pack", "--out-dir", "out/distill", "--max-epochs", "60",
                    "--patience", "60", "--lr0", "0.05"] + geo,
        "eval_ensemble": ["eval", "--model", "ensemble:pack",
                          "--out-dir", "out/eval_ensemble"] + geo,
        "eval_student": ["eval", "--model", student,
                         "--out-dir", "out/eval_student"] + geo,
        "sweep": ["sweep", "--model-a", "ensemble:pack", "--model-b", student,
                  "--radii", w.radii, "--out-dir", "out/sweep"] + geo,
        "stats": ["stats", "out/sweep", "--out-dir", "out/stats", "--jobs", "1"],
    }


class Runner:
    """Starts children in the work directory and reaps each with wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])),
            "SOURCE_DATE_EPOCH": "1700000000",
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })

    def run(self, argv: list[str], log_name: str) -> tuple[float, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return 0.0, -1, 0.0
        with open(self.work / "logs" / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def fireuq(self, name: str, args: list[str], tag: str,
               trace: Path | None = None) -> tuple[float, int, float]:
        launch = [sys.executable, str(HERE / "launch.py")]
        if trace is not None:
            launch += ["--trace", str(trace), "--command", name]
        return self.run(launch + ["--"] + args, f"{tag}_{name}.log")


def digest_files(root: Path, files) -> tuple[str | None, int]:
    """sha256 over each file's path relative to root and its bytes, and
    the total bytes; None when there is no file."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(files):
        data = f.read_bytes()
        size += len(data)
        h.update(str(f.relative_to(root)).encode() + b"\0" + data)
    return (h.hexdigest() if size else None), size


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its children's intervals cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _n, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _p, _n, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans_by_cmd: dict[str, list[list]], walls: dict[str, float]) -> dict:
    """Per-layer metrics of one traced pass (synth plus the pipeline)."""
    names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
    agg = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "extra": []} for n in names}
    per_cmd: dict[str, dict[str, dict]] = {}
    for cmd, spans in spans_by_cmd.items():
        own = self_times(spans)
        per_cmd[cmd] = {}
        for sid, _p, name, start, end, ok, extra in spans:
            for table in (agg, per_cmd[cmd]):
                a = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "ok": 0, "extra": []})
                a["calls"] += 1
                a["s"] += end - start
                a["self_s"] += own[sid]
                a["ok"] += bool(ok)
                if extra is not None:
                    a["extra"].append(extra)

    m: dict[str, tuple[float, str]] = {}
    for n in names:
        m[f"{n}.calls"] = (agg[n]["calls"], "count")
        m[f"{n}.s"] = (agg[n]["s"], "s")
        m[f"{n}.self_s"] = (agg[n]["self_s"], "s")
    for n in ("morphology.squared_edt", "metrics.average_precision", "metrics.uq_auroc"):
        m[f"{n}.mpx"] = (sum(agg[n]["extra"]) / 1e6, "Mpx")
    for n in ("raster.load_dataset", "raster.save_array", "report.digest_inputs"):
        m[f"{n}.mb"] = (sum(agg[n]["extra"]) / 1e6, "MB-computed")
    metric_fns = [n for n in names if n.startswith("metrics.")]
    calls = sum(agg[n]["calls"] for n in metric_fns)
    m["metrics.defined_ratio"] = (
        sum(agg[n]["ok"] for n in metric_fns) / calls if calls else 0.0, "ratio")
    m["distill.train_head.epochs"] = (sum(agg["distill.train_head"]["extra"]), "count")
    modes = agg["stats.wilcoxon_one_sided"]["extra"]
    m["stats.exact_ratio"] = (modes.count("exact") / len(modes) if modes else 0.0, "ratio")

    def in_cmds(cmds, n, key):
        return sum(per_cmd.get(c, {}).get(n, {}).get(key, 0.0) for c in cmds)

    evals = ("eval_ensemble", "eval_student")
    eval_wall = sum(walls[c] for c in evals)
    m["sweep.morphology.squared_edt.calls"] = (
        in_cmds(["sweep"], "morphology.squared_edt", "calls"), "count")
    m["sweep.morphology.squared_edt.share"] = (
        in_cmds(["sweep"], "morphology.squared_edt", "s") / walls["sweep"], "ratio")
    m["sweep.cli.middle_member_by_year.share"] = (
        in_cmds(["sweep"], "cli.middle_member_by_year", "s") / walls["sweep"], "ratio")
    m["sweep.ranking.share"] = (
        sum(in_cmds(["sweep"], n, "self_s") for n in RANKING) / walls["sweep"], "ratio")
    m["eval.ranking.share"] = (
        sum(in_cmds(evals, n, "self_s") for n in RANKING) / eval_wall, "ratio")
    return m


def environment(pack_bytes: int, numpy_version: str | None) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "pack_mb": pack_bytes / 1e6,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3") and kind != "Instruction":
                env["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return env


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, start: float):
        self.seed = seed
        self.seconds = seconds
        self.workload = WORKLOADS[name]
        self.args = command_args(self.workload, seed)
        self.work = ROOT / ".perfbench" / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        (self.work / "trace").mkdir()
        self.runner = Runner(self.work, start + RUN_DEADLINE_S)
        self.attempted = 0
        self.failed: list[str] = []
        self.pack_digest = None
        self.pack_bytes = 0
        self.digests = None
        self.numpy = None
        self.oracle_records = 0
        self.passes: list[dict] = []

    def fail(self, what: str, why: str):
        self.failed.append(what)
        print(f"FAIL {what}: {why}", file=sys.stderr)

    def synth(self, tag: str, trace: Path | None = None) -> float:
        shutil.rmtree(self.work / "pack", ignore_errors=True)
        wall, code, _rss = self.runner.fireuq("synth", self.args["synth"], tag, trace)
        self.attempted += 1
        if code != 0:
            self.fail(f"{tag}/synth", f"exit {code}")
            return wall
        pack = self.work / "pack"
        digest, self.pack_bytes = digest_files(
            pack, (f for f in pack.rglob("*") if f.is_file()))
        if self.pack_digest is None:
            self.pack_digest = digest
        elif digest != self.pack_digest:
            self.fail(f"{tag}/synth", "pack bytes differ from the first synth")
        return wall

    def pipeline(self, tag: str, traced: bool) -> dict:
        """One pass; returns wall seconds per command and the peak RSS."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        for stale in (self.work / "pack").glob("*/*/student_unc.npy"):
            stale.unlink()
        walls, rss, codes = {}, [], {}
        for cmd in PIPELINE:
            trace = self.work / "trace" / f"{tag}_{cmd}.json" if traced else None
            walls[cmd], codes[cmd], peak = self.runner.fireuq(cmd, self.args[cmd], tag, trace)
            rss.append(peak)
        self.attempted += len(PIPELINE)
        self.compare(tag, codes)
        return {"tag": tag, "traced": traced, "walls": walls, "peak_rss_mb": max(rss),
                "pipeline_s": sum(walls.values())}

    def compare(self, tag: str, codes: dict[str, int]):
        """Exit codes and output digests of a pass: every pass must write
        the bytes of the first."""
        for cmd, code in codes.items():
            if code != 0:
                self.fail(f"{tag}/{cmd}", f"exit {code}")
        digests = {}
        for cmd, pattern in DIGESTED:
            digests[pattern], _size = digest_files(self.work, self.work.glob(pattern))
            if digests[pattern] is None:
                self.fail(f"{tag}/{cmd}", f"{pattern} missing")
            elif self.digests and digests[pattern] != self.digests[pattern]:
                self.fail(f"{tag}/{cmd}", f"{pattern} differs from the first pass")
        if self.digests is None:
            self.digests = digests

    def check_outputs(self, tag: str):
        """check.py on the outputs of pass tag, which are still on disk;
        being byte-identical, the other passes are checked with it."""
        w = self.workload
        argv = [sys.executable, str(HERE / "check.py"), "--work", str(self.work),
                "--n-fires", str(w.n_fires), "--n-members", str(w.n_members),
                "--channels", str(w.channels), "--crop", str(w.crop),
                "--radii", w.radii, "--oracle-seed", str(self.seed)]
        _wall, code, _rss = self.runner.run(argv, f"{tag}_check.log")
        if code != 0:
            for cmd in PIPELINE:
                self.fail(f"{tag}/{cmd}", f"output check exited {code}")
            return
        log = (self.work / "logs" / f"{tag}_check.log").read_text().splitlines()
        report = json.loads(log[-1])
        self.numpy = report["numpy"]
        self.oracle_records = report["oracle_records"]
        for cmd, msgs in report["failures"].items():
            if msgs:
                self.fail(f"{tag}/{cmd}", "; ".join(msgs))

    def measure_loop(self, traced_too: bool):
        """Passes until --seconds is used: a new pass starts while half of
        one more of the mean length still fits.  The last pass's outputs
        then go through check.py."""
        start = time.monotonic()
        while True:
            i = len(self.passes)
            traced = traced_too and i % 2 == 1
            t0 = time.monotonic()
            if traced:
                synth_wall = self.synth(f"p{i}", self.work / "trace" / f"p{i}_synth.json")
            self.passes.append(self.pipeline(f"p{i}", traced))
            if traced:
                self.passes[-1]["walls"]["synth"] = synth_wall
            elapsed = time.monotonic() - start
            mean = elapsed / len(self.passes)
            enough = not traced_too or any(p["traced"] for p in self.passes)
            if (enough and elapsed + mean / 2 > self.seconds) \
                    or time.monotonic() + 2 * (time.monotonic() - t0) > self.runner.deadline:
                break
        self.check_outputs(self.passes[-1]["tag"])

    def end_to_end(self, setup: list[float]) -> dict:
        med = lambda key: statistics.median(key(p) for p in self.passes)  # noqa: E731
        return {
            "setup_s": (statistics.median(setup), "s"),
            "distill_s": (med(lambda p: p["walls"]["distill"]), "s"),
            "eval_s": (med(lambda p: p["walls"]["eval_ensemble"]
                           + p["walls"]["eval_student"]), "s"),
            "sweep_s": (med(lambda p: p["walls"]["sweep"]), "s"),
            "pipeline_s": (med(lambda p: p["pipeline_s"]), "s"),
            "peak_rss_mb": (med(lambda p: p["peak_rss_mb"]), "MB"),
        }

    def per_layer(self, import_s: list[float]) -> dict:
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        per_pass = []
        for p in traced:
            spans = {}
            for cmd in ("synth",) + PIPELINE:
                path = self.work / "trace" / f"{p['tag']}_{cmd}.json"
                spans[cmd] = json.loads(path.read_text())["spans"] if path.is_file() else []
            per_pass.append(layer_metrics(spans, p["walls"]))
        m = {k: (statistics.median(pp[k][0] for pp in per_pass), unit)
             for k, (_v, unit) in per_pass[0].items()}
        m["cli.import_s"] = (statistics.median(import_s), "s")
        m["trace.overhead_s"] = (
            statistics.median(p["pipeline_s"] for p in traced)
            - statistics.median(p["pipeline_s"] for p in plain), "s")
        return m


def main(argv=None) -> int:
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fireuq" / "cli.py").is_file():
        print(f"run.py: no fireuq source at {ROOT / 'src' / 'fireuq'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, start)
    import_s = []
    for i in range(IMPORT_REPEATS if args.trace else 0):
        wall, code, _rss = bench.runner.run(
            [sys.executable, "-c", "import fireuq.cli"], f"import{i}.log")
        if code != 0:
            print(f"run.py: fireuq.cli does not import (exit {code})", file=sys.stderr)
            return 2
        import_s.append(wall)
    setup = [bench.synth(f"setup{i}") for i in range(1 if args.trace else SETUP_REPEATS)]
    if not (bench.work / "pack").is_dir():
        print("run.py: fireuq synth wrote no pack", file=sys.stderr)
        return 2
    bench.measure_loop(traced_too=bool(args.trace))
    metrics = bench.per_layer(import_s) if args.trace else bench.end_to_end(setup)

    failed = len(set(bench.failed))
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": bench.attempted, "failed": failed,
        "environment": environment(bench.pack_bytes, bench.numpy),
        "digests": bench.digests, "oracle_records": bench.oracle_records,
        "passes": bench.passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(bench.passes)} "
          f"env={json.dumps(result['environment'], sort_keys=True)}")
    for rel, digest in sorted((bench.digests or {}).items()):
        print(f"# sha256 {rel} {digest}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(f"ops_failed {failed} of ops_attempted {bench.attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
