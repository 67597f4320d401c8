"""Benchmark of nexica: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``.
With ``--trace 0`` the workload's body runs repeatedly for about
``--seconds`` seconds (at least once) and the end-to-end metrics are
medians over those runs, with times scaled to a reference host speed (see
``HostSpeed``).  With ``--trace 1`` the body runs once untraced
and once traced, and the per-layer metrics come from the traced run.
Metric names and units are those of ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the exit code is 0 only when every
stage call and output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# Seconds one HostSpeed block takes on the reference host: its median over
# 142 timed calls on the 2-vCPU Xeon of the baseline in README.md.
REFERENCE_BLOCK_S = 0.046


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import nexica from it."""
    src = ROOT / "src"
    if not (src / "nexica" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nexica sources under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("NEXICA_THREADS", None)
    # One caller, one thread: keep numpy's BLAS pool from competing for the cores.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    import nexica

    if Path(nexica.__file__).resolve().parent != (src / "nexica").resolve():
        sys.exit(f"perfbench: nexica was imported from {nexica.__file__}, not {src}")


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60
        )
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nexica").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": sha, "src_sha256": src.hexdigest(),
    }


class HostSpeed:
    """Scales wall times measured on a shared host to a reference speed.

    On a host shared with other tenants the speed of the same code drifts
    by up to 2x over minutes, and the drift reaches interpreted and numpy
    code alike; it is not steal time, as process CPU time tracks wall time.
    A fixed block of both kinds of work, timed just before and just after a
    measured call, tells how slow the host is at that moment, and ``timed``
    rescales the call's wall time to a host on which the block takes
    ``REFERENCE_BLOCK_S``.  The block is the benchmark's own code, so a
    change to the program cannot move it.

    A call as long as the run's measuring window (``window`` seconds) is
    left unscaled: the host changes state several times during it, its own
    wall time averages those states, and blocks at its two ends only add
    their noise.  Over ten seeds, scaling cut the spread of run-pipeline's
    4-s iterations from 12-20% to 8-10%, but raised that of sweep-paper's
    45-s single call from 10-12% to 15-17%.
    """

    BLOCKS = 3  # blocks timed on each side of a call

    def __init__(self, window: float):
        import numpy as np

        self.window = window
        self.np = np
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 20)
        self.picks = rng.integers(0, 1 << 20, 1 << 18)

    def block(self) -> float:
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(150_000):
            total += i * i % 7
            table[i & 1023] = total
        for _ in range(2):
            self.np.sort(self.values[self.picks]).cumsum()
            self.np.argsort(self.values[:100_000])
        return time.perf_counter() - t0

    def sample(self) -> list[float]:
        return [self.block() for _ in range(self.BLOCKS)]

    def timed(self, call):
        """Run ``call()``; return what it returned, its wall time, the
        median block time around it, and the wall time at the reference
        speed."""
        before = self.sample()
        t0 = time.perf_counter()
        value = call()
        wall = time.perf_counter() - t0
        block = statistics.median(before + self.sample())
        if wall >= self.window:
            return value, wall, block, wall
        return value, wall, block, wall * REFERENCE_BLOCK_S / block


def set_up(workload, seed: int, work: Path, speed: HostSpeed):
    """Set the corpus up several times; keep the last, time each (scaled)."""
    seconds, scaled = [], []
    while len(seconds) < SETUP_MIN_REPEATS or (
        sum(seconds) < SETUP_MIN_SECONDS and len(seconds) < SETUP_MAX_REPEATS
    ):
        if seconds:
            shutil.rmtree(target, ignore_errors=True)
        target = work / f"corpus-{len(seconds)}"
        corpus, wall, _, at_reference = speed.timed(lambda: workload.setup(seed, target))
        seconds.append(wall)
        scaled.append(at_reference)
    print(f"set-up: {', '.join(f'{s:.3f}' for s in seconds)} s wall, "
          f"{', '.join(f'{s:.3f}' for s in scaled)} s scaled")
    return corpus, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, workload, seed: int, seconds: float, work: Path, ledger) -> dict:
    speed = HostSpeed(seconds)
    corpus, setup_seconds = set_up(workload, seed, work, speed)
    trace = wl.Trace(ledger)
    first = work / "run-0"
    walls, scaled = [], []
    t_loop = time.perf_counter()
    while True:
        out = work / f"run-{len(walls)}"
        out.mkdir()
        gc.collect()
        _, wall, block, at_reference = speed.timed(lambda: workload.run(corpus, out, trace))
        walls.append(wall)
        scaled.append(at_reference)
        print(f"iteration {len(walls)}: {wall:.3f} s wall, block {block * 1e3:.1f} ms, "
              f"{at_reference:.3f} s scaled")
        if out != first:
            wl.same_bytes(ledger, first, out, workload.outputs)
            shutil.rmtree(out)
        spent = time.perf_counter() - t_loop
        if len(walls) >= workload.min_iterations and spent + statistics.median(walls) > seconds:
            break
    rss = peak_rss_mb()
    quality = workload.check(corpus, first, ledger)
    print(f"median wall {statistics.median(walls):.3f} s unscaled")
    wall = statistics.median(scaled)
    return {
        "wall_s": wall,
        "tuples_per_s": workload.tuples() / wall,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_seconds),
        "forest_auc": quality["forest_auc"],
        "planted_recall": quality["planted_recall"],
    }


def per_layer(wl, workload, seed: int, work: Path, ledger) -> dict:
    corpus, _ = set_up(workload, seed, work, HostSpeed(math.inf))
    untraced, traced = work / "untraced", work / "traced"
    untraced.mkdir()
    traced.mkdir()
    gc.collect()
    t0 = time.perf_counter()
    workload.run(corpus, untraced, wl.Trace(ledger))
    wall_untraced = time.perf_counter() - t0
    trace = wl.Trace(ledger)
    gc.collect()
    t0 = time.perf_counter()
    workload.run_traced(corpus, traced, trace)
    wall_traced = time.perf_counter() - t0
    print(f"untraced {wall_untraced:.3f} s, traced {wall_traced:.3f} s")
    wl.same_bytes(ledger, untraced, traced, workload.outputs)
    quality = workload.check(corpus, untraced, ledger)
    timings = untraced / "timings.json"
    if timings.exists():
        print("run_pipeline timings.json: " + timings.read_text().replace("\n", " "))

    s, c = trace.seconds, trace.counts

    def per(seconds: float, n: int) -> float:
        return seconds / n * 1e6 if n else 0.0

    metrics = {
        "ingest.s": s["ingest"],
        "ingest.rows": c["ingest.rows"],
        "ingest.us_per_row": per(s["ingest"], c["ingest.rows"]),
        "events.s": s["events"],
        "events.n_events": c["events.n_events"],
        "sweep.s": s["sweep"],
        "sweep.tuples": c["sweep.tuples"],
        "sweep.us_per_tuple": per(s["sweep"], c["sweep.tuples"]),
        "correspond.s": s["correspond"],
        "correspond.us_per_tuple": per(s["correspond"], c["correspond.calls"]),
        "mle.s": s["mle"],
        **quality["cases"],
        "groundtruth.s": s["groundtruth"],
        "groundtruth.positives": c["groundtruth.positives"],
        "groundtruth.pool": c["groundtruth.pool"],
        "classify.cv.s": s["classify.cv"],
        "classify.train.s": s["classify.train"],
        "classify.predict.s": s["classify.predict"],
        "classify.trees": c["classify.trees"],
        "classify.nodes": c["classify.nodes"],
        "classify.us_per_node": per(s["classify.train"], c["classify.nodes"]),
        "pipeline.write.s": s["pipeline.write"],
        "pipeline.write.bytes": sum((traced / name).stat().st_size for name in workload.written),
        "pipeline.read.s": s["pipeline.read"],
        "pipeline.read.rows": c["pipeline.read.rows"],
        "trace.other_s": wall_traced - trace.top_level,
        "trace.overhead_s": wall_traced - wall_untraced,
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep-paper", "run-pipeline", "stagewise-tau1"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs for the harness's own test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    import_program()
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](wl.SIZES[args.size][args.workload])
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    ledger = wl.Ledger()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=ROOT / ".bench_work"))
    measured = {}
    try:
        if args.trace:
            measured = per_layer(wl, workload, args.seed, work, ledger)
        else:
            measured = end_to_end(wl, workload, args.seed, args.seconds, work, ledger)
        if set(measured) != set(declared):
            raise RuntimeError(f"measured {sorted(measured)} but BENCHMARK.json declares {sorted(declared)}")
    except Exception:
        traceback.print_exc()
        if not ledger.aborted:
            ledger.attempted += 1
            ledger.failed += 1
            ledger.problems.append("benchmark harness raised")
        measured = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in ledger.problems:
        print("FAILED: " + problem)
    print(f"failed_frac: {ledger.failed / max(ledger.attempted, 1)} ({ledger.failed} of {ledger.attempted})")
    metrics = {name: {"value": measured[name], "unit": declared[name]} for name in declared if name in measured}
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
