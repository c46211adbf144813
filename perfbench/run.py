#!/usr/bin/env python3
"""Benchmark of the backflow package: four workloads, checked outputs, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: backflow-scan, correlation-suite, mutinfo-scan, cli-scenarios
(see NOTES.md for why each exists). One process, one closed-loop caller:
items run one after another, each after the previous one returned. The
seed generates every input. After set-up the workload runs in full passes
until the next pass would end past S seconds; every output is checked, and
an item that raises or fails its check counts as failed.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports one untraced pass, then two traced passes whose work
counts must agree exactly, and the per-layer metrics. Run records go to
.perfbench_out/ in the repository root, and the spans of each traced pass
to a trace-* directory there (main.json, plus cli-N.json per CLI child).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("backflow-scan", "correlation-suite", "mutinfo-scan", "cli-scenarios")
SETUP_SAMPLES = 5          # set-ups per run: this process plus four fresh children
IMPORTTIME_SAMPLES = 3
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.trace_norm.calls": "count",
    "linalg.trace_norm.busy_s": "s",
    "linalg.eig.calls": "count",
    "linalg.eig.matrices": "count",
    "linalg.eig.busy_s": "s",
    "channels.decay_factors.calls": "count",
    "channels.decay_factors.self_s": "s",
    "channels.pauli_apply.calls": "count",
    "channels.pauli_apply.self_s": "s",
    "channels.classify_interval.self_s": "s",
    "ensembles.correlation_CA2.calls": "count",
    "ensembles.correlation_CA2.self_s": "s",
    "ensembles.correlation_CB2.calls": "count",
    "ensembles.correlation_CB2.self_s": "s",
    "ensembles.correlation_C_general.calls": "count",
    "ensembles.correlation_C_general.self_s": "s",
    "ensembles.guessing_probability_bruteforce.calls": "count",
    "ensembles.guessing_probability_bruteforce.self_s": "s",
    "ensembles.guessing_probability_bruteforce.iterations": "count",
    "ensembles.guessing_probability_bruteforce.unconverged": "count",
    "ensembles.construct_me_povm.self_s": "s",
    "ensembles.objective_evals": "count",
    "probe.detect_backflow.calls": "count",
    "probe.detect_backflow.self_s": "s",
    "probe.expansion.anc2.attempts": "count",
    "probe.expansion.anc2.failures": "count",
    "probe.expansion.anc3.attempts": "count",
    "probe.expansion.anc3.failures": "count",
    "probe.expansion.self_s": "s",
    "probe.pull_back_pair.calls": "count",
    "probe.pull_back_pair.self_s": "s",
    "probe.pull_back_pair.shrink_steps": "count",
    "mutinfo.neighborhood_scan.self_s": "s",
    "mutinfo.didt_batch.calls": "count",
    "mutinfo.didt_batch.states": "count",
    "mutinfo.didt_batch.self_s": "s",
    "mutinfo.hessian_at_stationary.self_s": "s",
    "mutinfo.spectral_derivatives.calls": "count",
    "entwit.scenario_entanglement_blind.self_s": "s",
    "entwit.negativity.calls": "count",
    "cli.load_config.self_s": "s",
    "cli.run.self_s": "s",
    "cli.csv_bytes": "bytes",
    "setup.import_backflow_s": "s",
    "setup.import_scipy_integrate_s": "s",
    "setup.import_scipy_stats_s": "s",
    "trace.overhead_s": "s",
}
_STAT_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}
_IMPORTTIME_MODULES = {
    "backflow": "setup.import_backflow_s",
    "scipy.integrate": "setup.import_scipy_integrate_s",
    "scipy.stats": "setup.import_scipy_stats_s",
}


@dataclass
class Pass:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def run_pass(cases, tracer=None) -> Pass:
    """Run every case once, timing each item; checks run untimed and untraced."""
    result = Pass()
    checking = 0.0
    start = perf_counter()
    for case in cases:
        outputs, error = [], None
        for item in case.items:
            began = perf_counter()
            try:
                outputs.append(item())
            except Exception as exc:  # a raising item is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            result.latencies.append(perf_counter() - began)
            if error is not None:
                break
        began = perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = case.check(outputs)
            except Exception as exc:  # a check that cannot read the output fails it
                error = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.enabled = True
        checking += perf_counter() - began
        result.attempted += len(case.items)
        if error is not None:
            result.failed += len(case.items)
            result.failures.append(f"{case.label}: {error}")
        result.outputs.append(outputs)
    result.wall_s = perf_counter() - start - checking
    return result


def setup_samples(workload: str, seed: int, workdir: Path, count: int) -> list[float]:
    """Set-up times of fresh interpreters: import backflow, then build the inputs."""
    from workloads import run_child

    samples = []
    for k in range(count):
        out = workdir / f"setup-{k}.json"
        sub = workdir / f"setup-{k}"
        sub.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(sub),
               str(out)]
        code, _ = run_child(cmd, ROOT, subprocess.DEVNULL, CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}")
        times = json.loads(out.read_text())
        samples.append(times["import_s"] + times["build_s"])
    return samples


def import_times(workdir: Path) -> dict[str, float]:
    """Median cumulative import times from `python -X importtime -c 'import backflow'`.

    A module that `import backflow` no longer loads reads 0.
    """
    from workloads import run_child

    samples = {name: [] for name in _IMPORTTIME_MODULES.values()}
    for k in range(IMPORTTIME_SAMPLES):
        log = workdir / f"importtime-{k}.txt"
        with open(log, "wb") as err:
            code, _ = run_child([sys.executable, "-X", "importtime", "-c", "import backflow"],
                                ROOT, err, CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"import child exited with {code}")
        seen = {}
        for line in log.read_text().splitlines():
            match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and match.group(3) in _IMPORTTIME_MODULES:
                seen[_IMPORTTIME_MODULES[match.group(3)]] = int(match.group(2)) * 1e-6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metrics(snapshot: dict, outputs: list) -> dict[str, float]:
    values = {}
    for name in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if name in snapshot["counters"]:
            values[name] = snapshot["counters"][name]
        elif tail in _STAT_FIELDS and head in snapshot["stats"]:
            values[name] = snapshot["stats"][head][_STAT_FIELDS[tail]]
        else:
            values[name] = 0
    values["cli.csv_bytes"] = sum(len(r.csv) for case in outputs for r in case
                                  if hasattr(r, "csv"))
    return values


def openblas_threads():
    """Thread count of the OpenBLAS build numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(args, workdir: Path) -> dict:
    started = perf_counter()
    import backflow  # noqa: F401  (timed: fresh-interpreter import)
    import workloads

    runner = workloads.CliRunner(ROOT, workdir) if args.workload == "cli-scenarios" else None
    cases = workloads.build(args.workload, args.seed, workdir, runner)
    own_setup = perf_counter() - started
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "items_per_pass": sum(len(c.items) for c in cases)}

    if runner is None:
        # first-call costs inside this process (lazy imports, LAPACK set-up)
        warm = {}
        for case in cases:
            warm.setdefault(case.kind, case)
        run_pass(list(warm.values()))

    if args.trace:
        from tracer import Tracer

        passes = [run_pass(cases)]
        tracer = Tracer()
        tracer.install()
        layer_runs = []
        try:
            for k in range(TRACED_PASSES):
                tracer.reset()
                trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}-pass{k}"
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
                if runner is not None:
                    runner.trace_dir = trace_dir
                tracer.enabled = True
                traced = run_pass(cases, tracer)
                tracer.enabled = False
                children = [json.loads(p.read_text()) for p in trace_dir.glob("cli-*.json")]
                tracer.dump(trace_dir / "main.json")
                for snapshot in children:
                    tracer.merge(snapshot)
                passes.append(traced)
                layer_runs.append(layer_metrics(tracer.snapshot(), traced.outputs))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        # counts must agree between the traced passes; times are medians
        mismatched = [name for name, unit in PER_LAYER.items()
                      if unit != "s" and len({run[name] for run in layer_runs}) > 1]
        metrics = {name: layer_runs[0][name] if unit != "s"
                   else statistics.median(run[name] for run in layer_runs)
                   for name, unit in PER_LAYER.items()}
        metrics.update(import_times(workdir))
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in passes[1:])
                                       - passes[0].wall_s)
        units = PER_LAYER
        record["count_mismatches"] = mismatched
    else:
        deadline = perf_counter() + args.seconds
        passes = []
        while not passes or perf_counter() + passes[-1].wall_s <= deadline:
            passes.append(run_pass(cases))
        setups = [own_setup] + setup_samples(args.workload, args.seed, workdir,
                                             SETUP_SAMPLES - 1)
        latencies = [t for p in passes for t in p.latencies]
        if runner is not None:
            peak_kb = runner.maxrss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "item_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END
        record["setup_samples_s"] = setups
        # printed but not gated: on a machine whose speed swings, the pooled
        # median jumps with the share of the run spent in the fast stretches
        record["item_p50_ms"] = 1e3 * statistics.median(latencies)
        mismatched = []

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p.failures][:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })
    record["correct"] = failed == 0 and not mismatched
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "backflow" / "__init__.py").is_file():
        print(f"perfbench: backflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} items/pass={record['items_per_pass']}")
    print("env " + json.dumps(record["env"]))
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for metric, entry in record["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    if "item_p50_ms" in record:
        print(f"item_p50_ms = {record['item_p50_ms']:.6g} ms (not gated)")
    print(f"fail_frac = {record['fail_frac']:.6g} ratio ({record['failed']}/{record['attempted']})")
    if record.get("count_mismatches"):
        print("work counts differ between traced passes: " + ", ".join(record["count_mismatches"]))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
