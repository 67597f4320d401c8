"""Fast test of the benchmark harness at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Covers every workload with tracing off and on, each workload's output
check failing on a deliberately broken program, a stage call raising,
host-speed scaling, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run

WORKLOADS = ("sweep-paper", "run-pipeline", "stagewise-tau1")
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int = 0) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main([
            "--workload", workload, "--seed", "5", "--seconds", "0.5",
            "--trace", str(trace), "--size", "smoke",
        ])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_and_reports_declared_metrics(workload, trace):
    code, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def _swap_single_sided(count_from_indices):
    from nexica.correspond import CorrespondenceCounts

    def broken(cause_idx, effect_idx, m, lag, tau=0):
        c = count_from_indices(cause_idx, effect_idx, m, lag, tau)
        return CorrespondenceCounts(c.a00, c.a10, c.a01, c.a11, c.lag, c.tau, c.window)

    return broken


def _drop_first_events(read_events_csv):
    def broken(path, n_slots):
        series = read_events_csv(path, n_slots)
        for s in series:
            s.events[s.event_indices()[:1]] = False
            s._indices = None
        return series

    return broken


def _reseed_every_call(train_forest):
    calls = []

    def broken(features, labels, n_trees=1000, seed=0, feature_mask=None):
        calls.append(seed)
        return train_forest(features, labels, n_trees=n_trees, seed=seed + len(calls),
                            feature_mask=feature_mask)

    return broken


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload, module, name, breaker",
    [
        ("sweep-paper", "nexica.pipeline", "count_from_indices", _swap_single_sided),
        ("stagewise-tau1", "nexica.pipeline", "read_events_csv", _drop_first_events),
        ("run-pipeline", "nexica.classify", "train_forest", _reseed_every_call),
    ],
)
def test_output_check_fails_on_broken_program(monkeypatch, workload, module, name, breaker, trace):
    target = sys.modules[module]
    monkeypatch.setattr(target, name, breaker(getattr(target, name)))
    code, result = bench(workload, trace)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_raising_stage_fails_the_run(monkeypatch):
    from nexica.errors import NexicaError
    import nexica.pipeline

    def broken(*args, **kwargs):
        raise NexicaError("injected")

    monkeypatch.setattr(nexica.pipeline, "sweep", broken)
    code, result = bench("sweep-paper")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}


def test_host_speed_scales_only_calls_shorter_than_the_window():
    value, wall, block, scaled = run.HostSpeed(window=10.0).timed(lambda: time.sleep(0.05) or 7)
    assert value == 7 and wall >= 0.05 and block > 0
    assert scaled == pytest.approx(wall * run.REFERENCE_BLOCK_S / block)
    _, wall, _, scaled = run.HostSpeed(window=0.01).timed(lambda: time.sleep(0.05))
    assert scaled == wall


def test_refuses_to_run_without_program_sources():
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.ROOT / ".bench_work"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
