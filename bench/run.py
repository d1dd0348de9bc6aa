"""Benchmark for d2dreuse: one workload per process, closed loop.

    python3 bench/run.py --workload exhaustive-u8 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

A single caller hands the program one seeded scenario after another, with
no overlap, for --seconds seconds, and checks every output.  With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 each scenario is solved twice, untraced and traced in alternating
order, and the metrics are per-layer spans and counters (per scenario) plus
the tracing overhead.  The line before it describes the run: toolchain,
report digest and the figures that are reported but not gated.  The exit
code is 0 only when every output passed its checks (and, traced, every
layer the workload must reach recorded calls).  Run it from any directory;
it builds nothing and imports the package from ../src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("select-u12", "exhaustive-u8", "experiment-u6")
SETUP_TRIALS = 9  # fresh interpreters timed for setup_s
SETUP_INPUTS = 16  # inputs generated during set-up; later ones on demand
DIGEST_SCENARIOS = 4  # leading scenarios whose reports form the digest
MAX_ERRORS_SHOWN = 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].inputs({seed!r}, {count!r})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "d2dreuse").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def setup_times(name: str, seed: int) -> list[float]:
    """Import numpy and d2dreuse and generate the first inputs, each time in
    a fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, count=SETUP_INPUTS)
    times = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Run:
    """Closed-loop driver for one workload and the tallies of its calls."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.wl = workload
        self.seed = seed
        self.out_dir = out_dir
        self.inputs = workload.inputs(seed, SETUP_INPUTS)
        self.attempted = 0
        self.failed = 0
        self.wall: dict[bool, list[float]] = {False: [], True: []}  # traced? -> call times
        self.cpu_s = 0.0
        self.gm: list[float] = []
        self.cert_gaps: list[float] = []
        self.gaps_vs_brute: list[float] = []
        self.docs: list = []
        self.errors: list[str] = []

    def input(self, j: int):
        while len(self.inputs) <= j:
            self.inputs.append(self.wl.input(self.seed, len(self.inputs)))
        return self.inputs[j]

    def attempt(self, j: int, tracer=None) -> None:
        """Time one top-level call (traced when a tracer is given) and check it."""
        inp = self.input(j)
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.call(inp, self.out_dir)
            else:
                with tracer:
                    result = self.wl.call(inp, self.out_dir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            outcome = self.wl.check(inp, result, self.out_dir)
        except Exception:  # a failing call must not stop the run
            self.fail(j, traceback.format_exc(limit=3).strip())
            return
        self.wall[tracer is not None].append(wall)
        self.cpu_s += cpu
        if outcome.errors:
            self.fail(j, "; ".join(outcome.errors))
            return
        self.gm.append(outcome.gm_mbps)
        self.cert_gaps += outcome.cert_gaps
        if outcome.gap_vs_brute is not None:
            self.gaps_vs_brute.append(outcome.gap_vs_brute)
        if len(self.docs) < DIGEST_SCENARIOS and j == len(self.docs):
            self.docs.append(outcome.doc)

    def fail(self, j: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"scenario {j}: {message}")
            print(f"check failed on scenario {j}: {message}", file=sys.stderr)

    def digest(self) -> dict:
        blob = json.dumps(self.docs, sort_keys=True, separators=(",", ":")).encode()
        return {"scenarios": len(self.docs), "sha256": hashlib.sha256(blob).hexdigest()}


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1], "samples": n}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(run: Run) -> None:
    """One untimed call, so that first-call costs stay out of the times."""
    try:
        run.wl.call(run.input(0), run.out_dir)
    except Exception:  # the timed call on the same scenario records it
        pass


def run_untraced(run: Run, seconds: float) -> dict:
    """The gated time is CPU time per call, averaged over the whole run: on
    a shared host it moves less from run to run than wall time or a median
    of the calls does (see NOTES.md)."""
    warm_up(run)
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < seconds:
        run.attempt(j)
        j += 1
    walls = run.wall[False]
    return {
        "cpu_s_per_scenario": metric(run.cpu_s / len(walls) if walls else 0.0, "s"),
        "gm_mbps_mean": metric(statistics.fmean(run.gm) if run.gm else 0.0, "Mbps"),
    }


def run_traced(run: Run, seconds: float, tracer) -> dict:
    """Each scenario untraced and traced, alternating which goes first."""
    import workloads

    warm_up(run)
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            run.attempt(j, tracer if traced else None)
        j += 1
    n = max(len(run.wall[True]), 1)
    out = {}
    for name, (counters, _) in workloads.LAYERS.items():
        layer = tracer.layers[name]
        out[f"{name}.calls"] = metric(layer.calls / n, "count/scenario")
        out[f"{name}.self_s"] = metric(layer.self_s / n, "s/scenario")
        for counter in counters:
            out[f"{name}.{counter}"] = metric(layer.counts.get(counter, 0) / n, "count/scenario")
    scored = tracer.layers["selection.score_pattern"].calls
    winners = tracer.layers["selection.propose_candidates"].counts.get("winners", 0)
    out["selection.winners_per_score"] = metric(winners / scored if scored else 0.0, "ratio")
    # both passes solve the same scenarios, so their call-time sums compare
    # scenarios_per_s traced against untraced
    untraced, traced = sum(run.wall[False]), sum(run.wall[True])
    out["trace.overhead_pct"] = metric(100.0 * (1.0 - untraced / traced) if traced else 0.0, "%")
    return out


def run_one(args) -> int:
    import workloads
    from spans import SpanCoverageError, Tracer

    import d2dreuse

    if Path(d2dreuse.__file__).resolve().parent != SRC / "d2dreuse":
        print(f"error: imported d2dreuse from {d2dreuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment()}
    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_root) as tmp:
        out_dir = Path(tmp)
        if args.trace:
            try:
                tracer = Tracer({name: hook for name, (_, hook) in workloads.LAYERS.items()})
            except SpanCoverageError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            run = Run(wl, args.seed, out_dir)
            metrics = run_traced(run, args.seconds, tracer)
            unreached = tracer.unreached(list(wl.required_layers))
            info["unreached_layers"] = unreached
            info["aliases"] = {name: layer.aliases for name, layer in tracer.layers.items()}
            info["scenarios_per_s"] = {("traced" if k else "untraced"): len(w) / sum(w)
                                       for k, w in run.wall.items() if w}
            for name in unreached:
                print(f"span coverage: layer {name} recorded no call on {wl.name}", file=sys.stderr)
        else:
            setup = setup_times(wl.name, args.seed)
            run = Run(wl, args.seed, out_dir)
            metrics = run_untraced(run, args.seconds)
            metrics["setup_s"] = metric(statistics.median(setup), "s")
            metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            info["setup_trials_s"] = setup
            walls = run.wall[False]
            info["scenarios_per_s"] = (run.attempted - run.failed) / sum(walls) if walls else None
            info["solve_s_p50"] = statistics.median(walls) if walls else None
            info["solve_s_tail"] = tail(walls)
            unreached = []
    info.update({
        "digest": run.digest(),
        "failed_frac": run.failed / run.attempted,
        "cert_gap_rel_max": max(run.cert_gaps, default=None),
        "gap_vs_brute_max": max(run.gaps_vs_brute, default=None),
        "errors": run.errors,
    })
    correct = run.failed == 0 and not unreached
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"# {name}")
        print("\n".join(lines))
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is imported, here or in a child
        os.environ[var] = "1"
    if not (SRC / "d2dreuse" / "__init__.py").is_file():
        print(f"error: no d2dreuse sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
