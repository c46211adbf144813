"""Seeded inputs, timed items and output checks for the four workloads.

A workload is built once per run from its seed into a list of cases. A case
is a short sequence of items, each one call into the program that the
benchmark times on its own, plus a check over the items' results. A check
returns None when every output is right and a message otherwise; a case
that raises or fails its check counts all of its items as failed.

Items call the program through the `backflow` namespace at call time, so
the tracer's wrappers (tracer.py) see them.

Every tolerance below is one the repository already uses (the acceptance
criteria in tests/test_acceptance.py and the CLI's default tolerances);
none is looser. The [0, 1/2] range of a C2 half is the measure's definition.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import backflow as bf
from backflow.errors import ExpansionNotFoundError

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

BAND = 1e-8                  # Choi band excluded from the backflow verdict (criterion 3)
MONOTONE_TOL = 2e-3          # C2 increase under a local channel (criterion 6)
CLOSED_FORM_TOL = 1e-6       # CA2 against 1/4 ||rho1 - rho2||_1 (criterion 4)
MULTI_OUTPUT_TOL = 1e-3      # C_general(4) above C2 (criterion 5)
MULTI_OUTPUT_FLOOR = 1e-9    # C_general(4) below C2: it starts from C2
REFERENCE_TOL = 1e-6         # general ascent below its committed reference

SHRINK_EPSILON = math.exp(-4.0)
SHRINK_T_ACTIVATE = 0.5
SCAN_RADIUS = math.sqrt(12.0) * 0.25 * SHRINK_EPSILON   # criterion 2
SCAN_SAMPLES = 2000
SCAN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Case:
    kind: str
    label: str
    items: tuple[Callable[[], object], ...]
    check: Callable[[list], str | None]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _jittered_grid(lo: float, hi: float, count: int, rng: np.random.Generator) -> list[float]:
    """count cells over [lo, hi], one point per cell at the same seeded offset.

    The offset stays in the middle half of a cell, so a region boundary that
    lies near a cell edge holds the same number of points for every seed.
    """
    step = (hi - lo) / count
    offset = 0.25 + 0.5 * rng.uniform()
    return [lo + (i + offset) * step for i in range(count)]


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# backflow-scan


BACKFLOW_GRID = 6


def _backflow_check(results: list) -> str | None:
    report = results[0]
    if abs(report.choi_min_eig) < BAND:
        return None
    if report.inconclusive:
        return "C2 cross-check inconclusive outside the Choi band"
    if not report.consistent:
        return "backflow verdict disagrees with the Choi spectrum"
    return None


def build_backflow_scan(seed: int, workdir: Path, runner: CliRunner | None) -> list[Case]:
    rng = _rng(seed, 1)
    taus = _jittered_grid(0.15, 2.0, BACKFLOW_GRID, rng)
    dts = _jittered_grid(0.2, 2.0, BACKFLOW_GRID, rng)
    presets = {
        "eternal": bf.eternal_rates(),
        "constant(1,1,-3)": bf.constant_rates(1.0, 1.0, -3.0),
        "constant(1,1,1)": bf.constant_rates(1.0, 1.0, 1.0),
    }
    cases = []
    for name, rates in presets.items():
        for tau in taus:
            for dt in dts:
                cases.append(Case(
                    kind=name,
                    label=f"{name} tau={tau:.4f} dt={dt:.4f}",
                    items=(lambda r=rates, a=tau, b=dt: bf.detect_backflow(r, a, b),),
                    check=_backflow_check,
                ))
    return cases


# ---------------------------------------------------------------------------
# correlation-suite


MONOTONE_TRIPLES = 24
QUTRIT_STATES = 8
QUTRIT_ANCHORS = 4
PROBE_PAIRS = 4
PROBE_TIMES = 4


def _monotone_check(results: list) -> str | None:
    before, after = results
    if after - before > MONOTONE_TOL:
        return f"C2 grew by {after - before:.3e} under a local channel"
    return None


def _bounded(*values: float) -> bool:
    return all(math.isfinite(v) and -1e-12 <= v <= 0.5 + 1e-12 for v in values)


def _qutrit_check(reference: float | None):
    def check(results: list) -> str | None:
        ca, cb = results
        if not _bounded(ca, cb):
            return f"C2 halves outside [0, 1/2]: {ca!r}, {cb!r}"
        if reference is not None and cb < reference - REFERENCE_TOL:
            return f"general ascent {cb:.12f} below reference {reference:.12f}"
        return None

    return check


def _probe_check(state: bf.DensityMatrix):
    half = state.matrix.shape[0] // 2
    diff = state.matrix[:half, :half] - state.matrix[half:, half:]
    closed = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())

    def check(results: list) -> str | None:
        ca, cb, cg = results
        if abs(ca - closed) > CLOSED_FORM_TOL:
            return f"CA2 {ca:.12f} misses the closed form {closed:.12f}"
        c2 = max(ca, cb)
        if not c2 - MULTI_OUTPUT_FLOOR <= cg <= c2 + MULTI_OUTPUT_TOL:
            return f"C_general(4) {cg:.12f} outside [C2 - 1e-9, C2 + 1e-3], C2 {c2:.12f}"
        return None

    return check


def qutrit_states(rng: np.random.Generator, count: int) -> list[bf.DensityMatrix]:
    return [
        bf.DensityMatrix(matrix=bf.random_density_matrix(rng, 6).matrix, dims=(2, 3))
        for _ in range(count)
    ]


def qutrit_anchors() -> list[bf.DensityMatrix]:
    """Fixed qubit-qutrit states whose general-ascent values are committed."""
    return qutrit_states(_rng(DEFAULT_SEED, 4), QUTRIT_ANCHORS)


def _probe_states(rng: np.random.Generator) -> list[bf.DensityMatrix]:
    """Evolved flag probe states, built as in the closed-form acceptance corpus."""
    states = []
    for k in range(PROBE_PAIRS):
        if k % 2 == 0:
            rates, tau, dt = bf.eternal_rates(), rng.uniform(0.3, 1.8), rng.uniform(0.3, 0.7)
        else:
            rates, tau, dt = bf.constant_rates(1.0, 1.0, -3.0), rng.uniform(0.1, 0.6), 0.25
        ch = bf.intermediate_map(rates, tau, tau + dt)
        try:
            direction = bf.trace_norm_expansion_direction(ch, ancilla_dim=2)
        except ExpansionNotFoundError:
            direction = bf.trace_norm_expansion_direction(ch, ancilla_dim=3)
        probe = bf.build_probe_state(bf.pull_back_pair(direction, rates, tau, epsilon=0.05))
        for t in np.linspace(0.5 * tau, tau + dt, PROBE_TIMES):
            states.append(bf.evolve_probe(probe, rates, float(t)).matrix)
    return states


def build_correlation_suite(seed: int, workdir: Path, runner: CliRunner | None) -> list[Case]:
    cases = []
    rng = _rng(seed, 2)
    for k in range(MONOTONE_TRIPLES):
        state = bf.DensityMatrix(matrix=bf.random_density_matrix(rng, 4).matrix, dims=(2, 2))
        side = int(rng.integers(0, 2))
        channel = bf.random_local_cptp(2, seed=int(rng.integers(1 << 30)))
        after = bf.apply_local_channel(state, channel, side)
        cases.append(Case(
            kind="monotone",
            label=f"monotone #{k} side={side}",
            items=(lambda s=state: bf.correlation_C2(s), lambda s=after: bf.correlation_C2(s)),
            check=_monotone_check,
        ))

    references = _reference()["qutrit_anchor_cb2"]
    qutrits = [(s, None) for s in qutrit_states(_rng(seed, 3), QUTRIT_STATES)]
    qutrits += list(zip(qutrit_anchors(), references))
    for k, (state, ref) in enumerate(qutrits):
        cases.append(Case(
            kind="qutrit",
            label=f"qutrit #{k}" + (" (anchor)" if ref is not None else ""),
            items=(lambda s=state: bf.correlation_CA2(s), lambda s=state: bf.correlation_CB2(s)),
            check=_qutrit_check(ref),
        ))

    for k, state in enumerate(_probe_states(_rng(seed, 5))):
        cases.append(Case(
            kind="probe",
            label=f"probe #{k} dims={state.dims}",
            items=(
                lambda s=state: bf.correlation_CA2(s),
                lambda s=state: bf.correlation_CB2(s),
                lambda s=state: bf.correlation_C_general(s, max_outputs=4),
            ),
            check=_probe_check(state),
        ))
    return cases


# ---------------------------------------------------------------------------
# mutinfo-scan


# one pass fills most of a run: on a machine that alternates between fast
# and slow stretches, a median over several short passes would jump with
# the majority stretch instead of averaging them
MUTINFO_TIMES = 20
MUTINFO_COUPLINGS = 20


def _mutinfo_check(results: list) -> str | None:
    scan, hess = results[0]
    if scan.n_valid != SCAN_SAMPLES:
        return f"only {scan.n_valid} of {SCAN_SAMPLES} samples inside the state set"
    if scan.violation_fraction != 0.0:
        return f"dI/dt above tolerance on a {scan.violation_fraction:.3e} fraction"
    if not hess.matched:
        return f"Hessian departs from the closed forms by {hess.max_mismatch:.3e}"
    return None


def build_mutinfo_scan(seed: int, workdir: Path, runner: CliRunner | None) -> list[Case]:
    rng = _rng(seed, 6)
    tuned = bf.tune_rates_shrink_image(bf.eternal_rates(), SHRINK_EPSILON, SHRINK_T_ACTIVATE)
    times = _jittered_grid(0.6, 2.0, MUTINFO_TIMES, rng)
    couplings = _jittered_grid(-0.1, 0.1, MUTINFO_COUPLINGS, rng)
    cases = []
    for t in times:
        for a12 in couplings:
            scan_seed = int(rng.integers(1 << 31))

            def item(t=t, a12=a12, scan_seed=scan_seed):
                scan = bf.neighborhood_scan(tuned, t, a12, radius=SCAN_RADIUS,
                                            samples=SCAN_SAMPLES, tolerance=SCAN_TOLERANCE,
                                            seed=scan_seed)
                return scan, bf.hessian_at_stationary(tuned, t, a12)

            cases.append(Case(
                kind="point",
                label=f"t={t:.4f} a12={a12:.4f}",
                items=(item,),
                check=_mutinfo_check,
            ))
    return cases


# ---------------------------------------------------------------------------
# cli-scenarios


SCENARIOS = (
    "divisibility-scan",
    "backflow",
    "hessian-verify",
    "mutinfo-map",
    "entanglement-blind",
    "me-povm-demo",
)
THREADED = ("backflow", "mutinfo-map")
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    csv: bytes
    stderr: str


class CliRunner:
    """Runs one scenario config as a fresh interpreter, the way a user does.

    With trace_dir set, the process runs under the tracer (child.py) and
    leaves its aggregates in trace_dir for the benchmark to merge.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.trace_dir: Path | None = None
        self.maxrss_kb = 0
        self._runs = 0

    def run(self, config: Path, output: str, threads: int | None) -> CliResult:
        self._runs += 1
        out_dir = self.workdir / f"out-{self._runs}"
        args = ["run", str(config), "--output", str(out_dir)]
        if threads:
            args += ["--threads", str(threads)]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "backflow.cli", *args]
        else:
            stats = self.trace_dir / f"cli-{self._runs}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(stats), *args]
        err_path = self.workdir / f"stderr-{self._runs}.txt"
        with open(err_path, "wb") as err:
            code, rusage = run_child(cmd, self.root, err, CLI_TIMEOUT_S)
        self.maxrss_kb = max(self.maxrss_kb, rusage.ru_maxrss)
        csv_path = out_dir / output
        data = csv_path.read_bytes() if csv_path.is_file() else b""
        return CliResult(code, data, err_path.read_text(errors="replace")[-400:])


def run_child(cmd: Sequence[str], root: Path, stderr, timeout: float):
    """Run a child in root with root/src on its path; return (exit code, rusage).

    The child is killed if it outlives timeout. It has been reaped when this
    returns or raises, and its rusage holds its own peak RSS.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _cli_check(golden: str | None, threaded: bool):
    def check(results: list) -> str | None:
        for r in results:
            if r.exit_code != 0:
                return f"exit code {r.exit_code}: {r.stderr.strip()}"
            if not r.csv:
                return "no CSV written"
        if golden is not None and hashlib.sha256(results[0].csv).hexdigest() != golden:
            return "CSV differs from the golden hash at the default seed"
        if threaded and results[1].csv != results[0].csv:
            return "threaded CSV differs from the serial CSV"
        return None

    return check


def write_cli_configs(seed: int, workdir: Path) -> dict[str, tuple[Path, str]]:
    """The committed configs with the workload seed as their seed field."""
    configs = {}
    for scenario in SCENARIOS:
        cfg = json.loads((HERE / "configs" / f"{scenario}.json").read_text(encoding="ascii"))
        cfg["seed"] = seed
        path = workdir / f"{scenario}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="ascii")
        configs[scenario] = (path, cfg["output"])
    return configs


def build_cli_scenarios(seed: int, workdir: Path, runner: CliRunner | None) -> list[Case]:
    threads = min(2, os.cpu_count() or 1)
    configs = write_cli_configs(seed, workdir)
    golden = _reference()["cli_sha256"] if seed == DEFAULT_SEED else {}
    cases = []
    for scenario in SCENARIOS:
        path, output = configs[scenario]
        items = [lambda p=path, o=output: runner.run(p, o, None)]
        if scenario in THREADED:
            items.append(lambda p=path, o=output: runner.run(p, o, threads))
        cases.append(Case(
            kind=scenario,
            label=scenario,
            items=tuple(items),
            check=_cli_check(golden.get(scenario), scenario in THREADED),
        ))
    return cases


BUILDERS = {
    "backflow-scan": build_backflow_scan,
    "correlation-suite": build_correlation_suite,
    "mutinfo-scan": build_mutinfo_scan,
    "cli-scenarios": build_cli_scenarios,
}


def build(workload: str, seed: int, workdir: Path, runner: CliRunner | None) -> list[Case]:
    """The workload's cases in a seeded order.

    Interleaving the kinds spreads each kind over the whole pass, so a slow
    stretch of a shared machine does not fall on one kind only and skew the
    latency percentiles.
    """
    cases = BUILDERS[workload](seed, workdir, runner)
    order = _rng(seed, 0).permutation(len(cases))
    return [cases[i] for i in order]
