"""Tests of the benchmark itself: `python3 -m pytest perfbench -q` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_UNITS = {"count", "bytes"}


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _sample(cases):
    """The first case of each kind: every code path of the workload, quickly."""
    first = {}
    for case in cases:
        first.setdefault(case.kind, case)
    return list(first.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_work_counts_repeat(workload, tmp_path):
    runner = workloads.CliRunner(ROOT, tmp_path) if workload == "cli-scenarios" else None
    cases = _sample(workloads.build(workload, workloads.DEFAULT_SEED, tmp_path, runner))
    if runner is not None:
        cases = [c for c in cases if c.kind in workloads.THREADED]
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for k in range(2):
            tracer.reset()
            if runner is not None:
                runner.trace_dir = tmp_path / f"trace-{k}"
                runner.trace_dir.mkdir()
            tracer.enabled = True
            result = run.run_pass(cases, tracer)
            tracer.enabled = False
            assert result.failed == 0, result.failures
            if runner is not None:
                for path in runner.trace_dir.glob("cli-*.json"):
                    tracer.merge(json.loads(path.read_text()))
            passes.append(run.layer_metrics(tracer.snapshot(), result.outputs))
    finally:
        tracer.uninstall()
    counts = [{k: v for k, v in p.items() if run.PER_LAYER[k] in COUNT_UNITS} for p in passes]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_uninstall_restores_the_package():
    import backflow
    import backflow.probe
    import numpy as np

    before = (backflow.trace_norm, backflow.probe.trace_norm, np.linalg.eigh,
              backflow.channels.ExtendedChannel.apply)
    tracer = Tracer()
    tracer.install()
    assert backflow.probe.trace_norm is not before[1]
    tracer.uninstall()
    after = (backflow.trace_norm, backflow.probe.trace_norm, np.linalg.eigh,
             backflow.channels.ExtendedChannel.apply)
    assert after == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mutinfo-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
