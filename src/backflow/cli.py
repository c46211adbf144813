"""Scenario runner: the library exposed as reproducible command-line experiments.

Configs are JSON with a schema_version field; results land in CSV files
whose headers and float formatting are frozen so that identical config
and seed reproduce identical bytes.  Exit codes: 0 success, 1 config or
validation error, 2 numerical failure, 3 consistency violation (the
scientifically interesting one).  Each runner imports the pipeline its
scenario runs, so a run loads no `probe`, `mutinfo` or `entwit` it does
not use.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .channels import (
    RateProfile,
    classify_interval,
    constant_rates,
    eternal_rates,
    load_rate_table_csv,
    tune_rates_shrink_image,
)
from .ensembles import construct_me_povm, is_me_povm
from .errors import (
    BackflowError,
    ConfigError,
    DegenerateSpectrumError,
    EpsilonRangeError,
    NonBijectiveError,
    PreconditionError,
    ScaleUnderflowError,
)
from .linalg import random_density_matrix

SCHEMA_VERSION = 1
# mirrors the coupling values exercised by the closed-form eigenvalue check
HESSIAN_A12_VALUES = (-0.2, -0.1, 0.0, 0.1, 0.2)
ME_POVM_OUTPUTS = 4

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INCONSISTENT = 3

_DEFAULT_TOLERANCES = {
    "didt": 1e-10,
    "eig_rel": 1e-4,
    "eig_abs": 1e-8,
    "uniformity": 1e-9,
}

_CONFIG_KEYS = {
    "schema_version",
    "scenario",
    "profile",
    "grid",
    "tolerances",
    "budget",
    "epsilon",
    "output",
    "seed",
    "prelude",
    "switch_time",
}

_NUMERICAL_ERRORS = (
    ScaleUnderflowError,
    NonBijectiveError,
    EpsilonRangeError,
    DegenerateSpectrumError,
    np.linalg.LinAlgError,
    OverflowError,  # a decay factor exp(-integral) beyond the float range
)

# what reading a rate table or building a preset can raise on bad input
_PROFILE_ERRORS = (
    BackflowError,
    csv.Error,
    IndexError,
    OSError,
    OverflowError,
    TypeError,
    ValueError,
)

__all__ = [
    "SCENARIOS",
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "load_config",
    "main",
    "run",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; profiles already resolved."""

    scenario: str
    profile: RateProfile
    t_start: float
    t_end: float
    steps: int
    tolerances: Mapping[str, float]
    samples: int  # mutinfo-map neighborhood samples per grid time (budget.seeds)
    epsilon: float
    output: str
    seed: int
    prelude: RateProfile
    switch_time: float


def _profile_from_spec(spec) -> RateProfile:
    if not isinstance(spec, dict):
        raise ConfigError("profile spec must be a JSON object")
    if "csv" in spec:
        return load_rate_table_csv(str(spec["csv"]))
    preset = spec.get("preset")
    domain_end = _number(spec.get("domain_end", math.inf), "domain_end")
    if preset == "eternal":
        return eternal_rates(domain_end=domain_end)
    if preset == "constant":
        rates = spec.get("rates")
        if not isinstance(rates, (list, tuple)) or len(rates) != 3:
            raise ConfigError("constant preset needs rates = [gx, gy, gz]")
        gx, gy, gz = (_number(v, "rate") for v in rates)
        return constant_rates(gx, gy, gz, domain_end)
    if preset == "shrink-burst":
        if "base" not in spec or "epsilon" not in spec or "t_activate" not in spec:
            raise ConfigError("shrink-burst preset needs base, epsilon, t_activate")
        return tune_rates_shrink_image(
            _profile_from_spec(spec["base"]),
            _number(spec["epsilon"], "epsilon"),
            _number(spec["t_activate"], "t_activate"),
        )
    raise ConfigError(f"unknown rate profile preset {preset!r}")


def _build_profile(spec) -> RateProfile:
    """_profile_from_spec with every failure reported as a ConfigError."""
    try:
        return _profile_from_spec(spec)
    except ConfigError:
        raise
    except _PROFILE_ERRORS as exc:
        raise ConfigError(f"profile {spec!r}: {exc}") from exc


def _integer(value, what: str) -> int:
    """An integral JSON number as int; 2.0 passes, 2.7, NaN and true do not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """value as float; true, false and what float() refuses (null, "abc") are ConfigErrors."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config; ConfigError on any defect."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")

    grid = raw.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object with t_start, t_end, steps")
    try:
        t_start = _number(grid["t_start"], "grid t_start")
        t_end = _number(grid["t_end"], "grid t_end")
        steps = _integer(grid["steps"], "grid steps")
    except KeyError as exc:
        raise ConfigError(f"bad grid: missing {exc}") from exc
    if steps < 2:
        raise ConfigError("grid steps must be at least 2")
    if not (0.0 <= t_start < t_end < math.inf):
        raise ConfigError("grid needs 0 <= t_start < t_end < inf")

    profile = _build_profile(raw.get("profile"))
    switch_time = _number(raw.get("switch_time", 1.0), "switch_time")
    if not 0.0 < switch_time < math.inf:
        raise ConfigError("switch_time must be positive and finite")
    horizon = profile.domain_end
    if scenario == "entanglement-blind":
        horizon = switch_time + profile.domain_end
    if t_end > horizon:
        raise ConfigError(f"t_end {t_end:g} exceeds the profile domain {horizon:g}")

    tolerances = dict(_DEFAULT_TOLERANCES)
    tolerances_raw = raw.get("tolerances", {})
    if not isinstance(tolerances_raw, dict):
        raise ConfigError("tolerances must be an object")
    for key, value in tolerances_raw.items():
        if key not in _DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {key!r}")
        value = _number(value, f"tolerance {key!r}")
        if not 0.0 < value < math.inf:
            raise ConfigError(f"tolerance {key!r} must be positive and finite")
        tolerances[key] = value

    seed = _integer(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be non-negative")

    budget_raw = raw.get("budget", {})
    if not isinstance(budget_raw, dict):
        raise ConfigError("budget must be an object")
    unknown = set(budget_raw) - {"seeds"}
    if unknown:
        raise ConfigError(f"unknown budget keys: {sorted(unknown)}")
    samples = _integer(budget_raw.get("seeds", 8), "budget seeds")
    if samples < 1:
        raise ConfigError("budget seeds must be positive")

    epsilon = _number(raw.get("epsilon", 0.05), "epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")

    output = raw.get("output", f"{scenario}.csv")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a non-empty file name")

    if "prelude" in raw:
        prelude = _build_profile(raw["prelude"])
    else:
        prelude = constant_rates(2.0, 2.0, 2.0)

    return ScenarioConfig(
        scenario=scenario,
        profile=profile,
        t_start=t_start,
        t_end=t_end,
        steps=steps,
        tolerances=tolerances,
        samples=samples,
        epsilon=epsilon,
        output=output,
        seed=seed,
        prelude=prelude,
        switch_time=switch_time,
    )


def _fmt(value) -> str:
    # bool is an int subclass; test it first
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _grid(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(config.t_start, config.t_end, config.steps)


def _run_divisibility(config: ScenarioConfig, threads: int | None):
    grid = _grid(config)
    pairs = [(float(a), float(b)) for a, b in zip(grid[:-1], grid[1:])]
    verdicts = classify_interval(config.profile, pairs)
    rows = [
        (
            v.t,
            v.s,
            v.gammas[0],
            v.gammas[1],
            v.gammas[2],
            v.decay.d_x,
            v.decay.d_y,
            v.decay.d_z,
            v.choi_min_eig,
            v.cp_divisible,
            v.p_divisible,
        )
        for v in verdicts
    ]
    return rows, EXIT_OK, ""


def _run_backflow(config: ScenarioConfig, threads: int | None):
    from .probe import scan_backflow_grid

    grid = _grid(config)
    reports = scan_backflow_grid(
        config.profile, ((a, b - a) for a, b in zip(grid[:-1], grid[1:])),
        epsilon=config.epsilon,
    )
    rows = [
        (r.tau, r.delta_t, r.c2_before, r.c2_after, r.choi_min_eig,
         r.backflow_detected, r.consistent)
        for r in reports
    ]
    if any(r.inconclusive for r in reports):
        return rows, EXIT_NUMERICAL, "backflow verdict inconclusive"
    if any(not r.consistent for r in reports):
        return rows, EXIT_INCONSISTENT, "backflow/Choi mismatch"
    return rows, EXIT_OK, ""


def _run_hessian(config: ScenarioConfig, threads: int | None):
    from .mutinfo import hessian_at_stationary

    rows = []
    matched = True
    for a12 in HESSIAN_A12_VALUES:
        report = hessian_at_stationary(
            config.profile, config.t_end, a12,
            rel_tol=config.tolerances["eig_rel"], abs_tol=config.tolerances["eig_abs"],
        )
        matched = matched and report.matched
        for idx, (num, want) in enumerate(zip(report.eigenvalues, report.expected)):
            rows.append((a12, idx, float(num), float(want), abs(float(num) - float(want))))
    if matched:
        return rows, EXIT_OK, ""
    return rows, EXIT_INCONSISTENT, "Hessian eigenvalues depart from the closed forms"


def _run_mutinfo(config: ScenarioConfig, threads: int | None):
    from .mutinfo import neighborhood_didt

    tol = config.tolerances["didt"]
    rows = []
    violated = False
    for k, t in enumerate(_grid(config)):
        values = neighborhood_didt(
            config.profile, float(t), 0.0, config.epsilon, config.samples,
            threads=threads, seed=config.seed + k,
        )
        for v in values:
            hit = bool(not np.isnan(v) and v > tol)
            violated = violated or hit
            rows.append((len(rows), float(v), hit))
    if violated:
        return rows, EXIT_INCONSISTENT, "positive dI/dt found inside the scanned neighborhood"
    return rows, EXIT_OK, ""


def _run_entanglement_blind(config: ScenarioConfig, threads: int | None):
    from .entwit import scenario_entanglement_blind

    grid = _grid(config)
    report = scenario_entanglement_blind(
        config.prelude,
        config.profile,
        config.switch_time,
        grid,
        epsilon=config.epsilon,
    )
    rows = list(
        zip(report.times, report.negativities, report.choi_min_intermediate, report.c2_values)
    )
    if not report.certified:
        return rows, EXIT_INCONSISTENT, "entanglement-blind clauses not certified"
    return rows, EXIT_OK, ""


def _run_me_povm(config: ScenarioConfig, threads: int | None):
    state = random_density_matrix(np.random.default_rng(config.seed), 4)
    povm = construct_me_povm(state, ME_POVM_OUTPUTS)
    cert = is_me_povm(povm, state, tol=config.tolerances["uniformity"])
    target = 1.0 / ME_POVM_OUTPUTS
    rows = [(k, p, abs(p - target)) for k, p in enumerate(cert.probabilities)]
    if not cert.equiprobable:
        return rows, EXIT_INCONSISTENT, "ME-POVM outcome distribution is not uniform"
    return rows, EXIT_OK, ""


# scenario name -> (frozen CSV header, runner that owns the verdict)
_SCENARIOS = {
    "divisibility-scan": (
        "t,s,gamma_x,gamma_y,gamma_z,d_x,d_y,d_z,choi_min_eig,cp,p",
        _run_divisibility,
    ),
    "backflow": (
        "tau,delta_t,c2_before,c2_after,choi_min_eig,backflow,consistent",
        _run_backflow,
    ),
    "hessian-verify": ("a12,idx,eig_numeric,eig_closed_form,abs_err", _run_hessian),
    "mutinfo-map": ("sample_id,didt,violation", _run_mutinfo),
    "entanglement-blind": ("t,negativity,choi_min_eig_intermediate,c2", _run_entanglement_blind),
    "me-povm-demo": ("outcome,probability,deviation_from_uniform", _run_me_povm),
}
SCENARIOS = tuple(_SCENARIOS)


def run(
    config: ScenarioConfig,
    threads: int | None = None,
    output_dir: str | None = None,
    verbose: bool = False,
) -> int:
    """Execute one scenario; write its CSV; return the exit code."""
    if verbose:
        print(
            f"scenario={config.scenario} profile={config.profile.label} "
            f"grid=[{config.t_start:g}, {config.t_end:g}] x {config.steps} seed={config.seed}",
            file=sys.stderr,
        )
    try:
        header, runner = _SCENARIOS[config.scenario]
        rows, code, message = runner(config, threads)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_path = Path(output_dir) / config.output if output_dir else Path(config.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    if verbose:
        print(f"wrote {out_path} ({len(rows)} rows)", file=sys.stderr)
    if code != EXIT_OK:
        print(f"{config.scenario}: {message} (exit {code})", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Run divisibility, backflow and correlation scenarios from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario config")
    run_parser.add_argument("config", help="path to scenario config (JSON)")
    run_parser.add_argument(
        "--output", metavar="DIR", default=None, help="directory for output files"
    )
    run_parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for the mutinfo-map sample batches, at most one per "
        "core (other scenarios run serially); 0 picks the machine default",
    )
    run_parser.add_argument("--verbose", action="store_true", help="progress to stderr")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    threads = args.threads
    if threads is not None and threads < 0:
        print("config error: --threads must be >= 0", file=sys.stderr)
        return EXIT_CONFIG
    if threads == 0:
        threads = os.cpu_count() or 1
    return run(config, threads=threads, output_dir=args.output, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
