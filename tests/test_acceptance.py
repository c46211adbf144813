"""Acceptance gate: the nine package-level criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test prints ACCEPTANCE CRITERION k: PASS/FAIL regardless of outcome.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

import backflow.mutinfo as mi
from backflow.channels import (
    classify_interval,
    constant_rates,
    eternal_rates,
    intermediate_map,
    tune_rates_shrink_image,
)
from backflow.cli import main as cli_main
from backflow.ensembles import (
    apply_local_channel,
    correlation_C2,
    correlation_C_general,
    correlation_CA2,
    correlation_CB2,
    random_local_cptp,
)
from backflow.entwit import NEGATIVITY_TOL, scenario_entanglement_blind
from backflow.errors import ExpansionNotFoundError
from backflow.linalg import DensityMatrix, random_density_matrix, trace_norm
from backflow.probe import (
    build_probe_state,
    evolve_probe,
    pull_back_pair,
    scan_backflow_grid,
    trace_norm_expansion_direction,
)
from oracles import (
    EnsembleMember,
    OptimizerBudget,
    StateEnsemble,
    didt,
    didt_finite_difference,
    guessing_probability_bruteforce,
    guessing_probability_two,
    random_hermitian,
    spectral_fd,
)

BAND = 1e-8


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")


def probe_direction(rates, tau, delta_t):
    ch = intermediate_map(rates, tau, tau + delta_t)
    try:
        return trace_norm_expansion_direction(ch, ancilla_dim=2)
    except ExpansionNotFoundError:
        return trace_norm_expansion_direction(ch, ancilla_dim=3)


@pytest.fixture(scope="module")
def probe_corpus():
    """Evolved probe states across presets, intervals and evolution times."""
    specs = [(eternal_rates(), tau, dt) for tau in (0.3, 0.6, 1.0, 1.4, 1.8) for dt in (0.3, 0.7)]
    specs += [(constant_rates(1.0, 1.0, -3.0), tau, 0.25) for tau in (0.1, 0.35, 0.6)]
    states = []
    for rates, tau, dt in specs:
        direction = probe_direction(rates, tau, dt)
        pair = pull_back_pair(direction, rates, tau, epsilon=0.05)
        ps = build_probe_state(pair)
        for t in np.linspace(0.5 * tau, tau + dt, 8):
            states.append(evolve_probe(ps, rates, float(t)).matrix)
    assert len(states) >= 100
    return states


def closed_form_c2(state: DensityMatrix) -> float:
    # flag blocks carry weight 1/2 each: C2 = (1/4)||rho' - rho''||_1
    half = state.matrix.shape[0] // 2
    diff = state.matrix[:half, :half] - state.matrix[half:, half:]
    return 0.5 * trace_norm(diff)


def test_criterion_1_hessian_eigenvalues():
    ok = False
    detail = ""
    start = time.perf_counter()
    try:
        worst_rel = 0.0
        worst_zero = 0.0
        for a12 in (0.0, 0.1, -0.1, 0.2, -0.2):
            report = mi.hessian_at_stationary(eternal_rates(), 1.0, a12)
            nums = np.sort(report.eigenvalues)
            wants = np.sort(report.expected)
            assert nums.size == 15 and wants.size == 15
            for num, want in zip(nums, wants):
                if abs(want) < 1e-12:
                    worst_zero = max(worst_zero, abs(num))
                    assert abs(num) <= 1e-8
                else:
                    rel = abs(num - want) / abs(want)
                    worst_rel = max(worst_rel, rel)
                    assert rel <= 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        ok = True
        detail = f"worst rel {worst_rel:.2e}, worst zero {worst_zero:.2e}, {elapsed:.1f}s"
    finally:
        _verdict(1, ok, detail or f"{time.perf_counter() - start:.1f}s")


def test_criterion_2_mutual_information_no_go():
    ok = False
    detail = ""
    start = time.perf_counter()
    try:
        eps = math.exp(-4.0)
        tuned = tune_rates_shrink_image(eternal_rates(), eps, 0.5)
        radius = math.sqrt(12.0) * 0.25 * eps
        times = (0.6, 0.9, 1.2, 1.6, 2.0)
        worst = -np.inf
        for t in times:
            report = mi.neighborhood_scan(
                tuned, t, 0.0, radius=radius, samples=10_000, tolerance=1e-10, seed=31
            )
            assert report.n_valid == 10_000
            assert report.violation_fraction == 0.0
            worst = max(worst, report.max_didt)
        assert worst <= 1e-10
        pairs = [(times[i], times[i + 1]) for i in range(len(times) - 1)]
        verdicts = classify_interval(tuned, pairs)
        assert all(not v.cp_divisible for v in verdicts)
        assert all(v.choi_min_eig < -1e-3 for v in verdicts)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
        ok = True
        detail = f"5x10^4 samples, max didt {worst:.2e}, all intervals non-CP, {elapsed:.1f}s"
    finally:
        _verdict(2, ok, detail or f"{time.perf_counter() - start:.1f}s")


def test_criterion_3_backflow_iff_noncp():
    ok = False
    detail = ""
    start = time.perf_counter()
    try:
        taus = np.linspace(0.0, 2.0, 10)
        dts = np.linspace(0.2, 2.0, 10)
        presets = {
            "eternal": eternal_rates(),
            "constant(1,1,1)": constant_rates(1.0, 1.0, 1.0),
            "constant(1,1,-3)": constant_rates(1.0, 1.0, -3.0),
        }
        outside = 0
        in_band = 0
        for name, rates in presets.items():
            reports = scan_backflow_grid(rates, itertools.product(taus, dts))
            assert len(reports) == 100
            for r in reports:
                if abs(r.choi_min_eig) < BAND:
                    in_band += 1
                    continue
                outside += 1
                assert not r.inconclusive, f"{name} tau={r.tau} dt={r.delta_t}"
                assert r.consistent, f"{name} tau={r.tau} dt={r.delta_t}"
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        ok = True
        detail = f"{outside} points consistent, {in_band} inside band, {elapsed:.1f}s"
    finally:
        _verdict(3, ok, detail or f"{time.perf_counter() - start:.1f}s")


def test_criterion_4_closed_form_correlation(probe_corpus):
    ok = False
    detail = ""
    try:
        worst = 0.0
        for state in probe_corpus:
            got = correlation_CA2(state)
            want = closed_form_c2(state)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-6
        ok = True
        detail = f"{len(probe_corpus)} states, worst gap {worst:.2e}"
    finally:
        _verdict(4, ok, detail)


def test_criterion_5_output_count_orderings(probe_corpus):
    ok = False
    detail = ""
    try:
        worst_ab = -np.inf
        worst_multi = -np.inf
        for state in probe_corpus:
            ca = correlation_CA2(state)
            cb = correlation_CB2(state)
            worst_ab = max(worst_ab, cb - ca)
            assert ca >= cb - 1e-6
            c2 = max(ca, cb)
            for n in (3, 4):
                cn = correlation_C_general(state, max_outputs=n)
                worst_multi = max(worst_multi, cn - c2)
                assert cn <= c2 + 1e-3
        ok = True
        detail = (
            f"{len(probe_corpus)} states, max C_B-C_A {worst_ab:.2e}, "
            f"max multi-output gain {worst_multi:.2e}"
        )
    finally:
        _verdict(5, ok, detail)


def test_criterion_6_monotonicity_suite():
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(20240917)
        hard = 0
        worst = -np.inf
        for k in range(500):
            raw = random_density_matrix(rng, 4)
            state = DensityMatrix(matrix=raw.matrix, dims=(2, 2), _skip_checks=True)
            side = int(rng.integers(0, 2))
            channel = random_local_cptp(2, seed=int(rng.integers(1 << 30)))
            before = correlation_C2(state)
            after = correlation_C2(apply_local_channel(state, channel, side))
            inc = after - before
            worst = max(worst, inc)
            if inc > 2e-3:
                hard += 1
        assert hard == 0
        ok = True
        detail = f"500 triples, zero hard violations, max increase {worst:.2e}"
    finally:
        _verdict(6, ok, detail)


def test_criterion_7_entanglement_blindness():
    ok = False
    detail = ""
    try:
        grid = (0.1, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)
        report = scenario_entanglement_blind(
            constant_rates(2.0, 2.0, 2.0), eternal_rates(), 1.0, grid
        )
        assert report.prelude_breaking          # clause (a)
        assert report.blind_after_switch        # clause (b)
        assert report.noncp_after_switch        # clause (c)
        assert report.backflow is not None      # clause (d)
        assert report.backflow.backflow_detected
        assert report.backflow.consistent
        assert report.certified
        for t, neg in zip(report.times, report.negativities):
            if t >= report.switch_time:
                assert neg <= NEGATIVITY_TOL
        margin = report.backflow.c2_after - report.backflow.c2_before
        assert margin > 1e-9
        ok = True
        detail = (
            f"clauses (a)-(d) certified, backflow margin {margin:.2e} "
            f"on [{report.backflow.tau:g}, {report.backflow.tau + report.backflow.delta_t:g}]"
        )
    finally:
        _verdict(7, ok, detail)


def test_criterion_8_oracle_agreements():
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(8)
        budget = OptimizerBudget(seeds=4, max_iterations=250, rng_seed=5)
        worst_pg = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            ens = StateEnsemble(
                members=(
                    EnsembleMember(probability=0.5, state=random_density_matrix(rng, dim)),
                    EnsembleMember(probability=0.5, state=random_density_matrix(rng, dim)),
                )
            )
            got = guessing_probability_bruteforce(ens, budget).value
            want = guessing_probability_two(ens.states[0], ens.states[1])
            worst_pg = max(worst_pg, abs(got - want))
            assert abs(got - want) <= 1e-3

        for seed in range(50):
            gen = np.random.default_rng(100 + seed)
            dim = int(gen.integers(2, 5))
            n_par = int(gen.integers(1, 4))
            fam = (
                np.eye(dim) + 0.05 * random_hermitian(gen, dim),
                [0.1 * random_hermitian(gen, dim) for _ in range(n_par)],
            )
            a = gen.uniform(-0.3, 0.3, size=n_par)
            res = mi.spectral_derivatives(*fam, mi.entropy_function(), a)
            grad_fd, _ = spectral_fd(*fam, mi.entropy_function(), a, 1e-4)
            _, hess_fd = spectral_fd(*fam, mi.entropy_function(), a, 1e-3)
            assert np.allclose(res.gradient, grad_fd, rtol=1e-4, atol=1e-7)
            assert np.allclose(res.hessian, hess_fd, rtol=1e-4, atol=1e-5)

        profiles = (eternal_rates(), constant_rates(1.0, 1.0, 1.0), constant_rates(1.0, 1.0, -3.0))
        worst_didt = 0.0
        for k in range(200):
            raw = random_density_matrix(rng, 4)
            state = DensityMatrix(
                matrix=0.8 * raw.matrix + 0.2 * np.eye(4) / 4.0, dims=(2, 2)
            )
            rates = profiles[k % 3]
            t = float(rng.uniform(0.2, 1.5))
            got = didt(state, rates, t)
            want = didt_finite_difference(state, rates, t)
            worst_didt = max(worst_didt, abs(got - want))
            assert abs(got - want) <= 1e-6
        ok = True
        detail = (
            f"P_g worst {worst_pg:.2e} on 200, spectral FD ok on 50, "
            f"didt worst {worst_didt:.2e} on 200"
        )
    finally:
        _verdict(8, ok, detail)


def test_criterion_9_byte_identical_csv(tmp_path):
    ok = False
    detail = ""
    try:
        configs = {
            "backflow": {
                "schema_version": 1,
                "scenario": "backflow",
                "profile": {"preset": "eternal"},
                "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 6},
                "output": "backflow.csv",
                "seed": 13,
            },
            "mutinfo-map": {
                "schema_version": 1,
                "scenario": "mutinfo-map",
                "profile": {
                    "preset": "shrink-burst",
                    "epsilon": 0.018315638888734179,
                    "t_activate": 0.5,
                    "base": {"preset": "eternal"},
                },
                "grid": {"t_start": 0.6, "t_end": 2.0, "steps": 3},
                "budget": {"seeds": 256},
                "epsilon": 0.015,
                "output": "mutinfo.csv",
                "seed": 13,
            },
        }
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            first = tmp_path / f"{name}-run1"
            second = tmp_path / f"{name}-run2"
            assert cli_main(["run", str(path), "--output", str(first)]) == 0
            assert cli_main(["run", str(path), "--output", str(second)]) == 0
            one = (first / cfg["output"]).read_bytes()
            two = (second / cfg["output"]).read_bytes()
            assert one == two and len(one) > 0
        ok = True
        detail = "backflow and mutinfo-map CSVs byte-identical across reruns"
    finally:
        _verdict(9, ok, detail)
