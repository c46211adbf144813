"""Probe pair construction, evolution, and backflow detection."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import backflow.probe as probe
from backflow.channels import (
    ExtendedChannel,
    PauliChannelMap,
    RateProfile,
    choi_eigenvalues,
    choi_matrix,
    choi_min_eigenvalue,
    constant_rates,
    decay_factors,
    eternal_rates,
    intermediate_map,
    is_cp,
    table_rates,
)
from backflow.ensembles import correlation_C_general, correlation_CA2, correlation_CB2
from backflow.errors import (
    DimensionMismatchError,
    EpsilonRangeError,
    ExpansionNotFoundError,
    InvalidStateError,
    NonBijectiveError,
    TimeOrderViolationError,
)
from backflow.linalg import (
    PHI_PLUS,
    DensityMatrix,
    SIGMA_X,
    SIGMA_Z,
    max_entangled_state,
    maximally_mixed,
    partial_transpose,
    pure_state,
    trace_norm,
)
from backflow.probe import (
    ProbePair,
    _block_seed,
    _seeds,
    build_probe_state,
    detect_backflow,
    evolve_probe,
    pull_back_pair,
    scan_backflow_grid,
    trace_norm_expansion_direction,
)
from oracles import partial_trace

ETERNAL = eternal_rates()
# eternal grid point where no qubit-ancilla witness exists despite a
# clearly non-CP intermediate map (Choi minimum about -0.018)
GAP_TAU = 2.0 / 9.0
GAP_DT = 0.2
# the CP edge of constant(1, 1, g) over any step of 0.1
G_STAR = -0.0499168882164654


def verdict_corpus() -> list[tuple[RateProfile, float, float]]:
    """700 (rates, tau, delta_t) points, about half of them non-CP.

    Five random intervals on each of 60 random table profiles whose map from
    0 is CP at every grid time, then four presets on a 10x10 grid.
    """
    rng = np.random.default_rng(7)
    knots = np.linspace(0.0, 3.0, 5)
    times = np.linspace(0.0, 3.0, 121)[1:]
    points = []
    while len(points) < 300:
        profile = table_rates(knots, rng.uniform(-1.5, 2.0, (5, 3)))
        if all(is_cp(decay_factors(profile, 0.0, float(t))) for t in times):
            intervals = zip(rng.uniform(0.0, 2.0, 5), rng.uniform(0.02, 0.9, 5))
            points += [(profile, float(tau), float(dt)) for tau, dt in intervals]
    presets = (ETERNAL, *(constant_rates(1.0, 1.0, g) for g in (-3.0, 1.0, -0.3)))
    grid = list(itertools.product(np.linspace(0.0, 2.0, 10), np.linspace(0.2, 2.0, 10)))
    for rates in presets:
        points += [(rates, float(tau), float(dt)) for tau, dt in grid]
    return points


def expansion_ratio(ch: PauliChannelMap, direction: np.ndarray) -> float:
    ext = ExtendedChannel(ch, (direction.shape[0] // 2,))
    return trace_norm(ext.apply(direction))


def serial_expansion_search(ch: PauliChannelMap, ancilla_dim: int):
    """Oracle: the expansion ascent run one seed after another.

    Returns (best value, best direction). The stacked search in
    trace_norm_expansion_direction must reproduce both bit for bit: the same
    seven seeds in the same order, the same 1e-14 stop and 300-step cap per
    seed, and the first seed wins a tie.
    """
    ext = ExtendedChannel(ch, (ancilla_dim,))
    dim = 2 * ancilla_dim
    eye = np.eye(dim, dtype=complex)

    def traceless(mat):
        return mat - (np.trace(mat) / dim) * eye

    phi = max_entangled_state().matrix
    chi = np.linalg.eigh(choi_matrix(ch))[1][:, 0]
    chi_proj = np.outer(chi, chi.conj())
    tau_local = chi_proj.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    if ancilla_dim == 2:
        seeds = [
            phi - eye / 4.0,
            phi - 0.5 * np.kron(np.eye(2, dtype=complex), tau_local),
            chi_proj - eye / 4.0,
        ]
    else:
        seeds = []
        for top in (phi, chi_proj):
            block = np.zeros((6, 6), dtype=complex)
            block[:4, :4] = 0.5 * top
            block[4:, 4:] = -0.25 * np.eye(2, dtype=complex)
            seeds.append(block)
        embed = np.zeros((6, 6), dtype=complex)
        embed[:4, :4] = phi
        seeds.append(embed - eye / 6.0)
    rng = np.random.default_rng(20240917)
    for _ in range(4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seeds.append(traceless(0.5 * (g + g.conj().T)))

    best_value, best_direction = -np.inf, None
    for seed in seeds:
        delta = traceless(seed)
        nrm = trace_norm(delta)
        if nrm == 0.0:
            continue
        delta = delta / nrm
        value = trace_norm(ext.apply(delta))
        for _ in range(300):
            w, u = np.linalg.eigh(ext.apply(delta))
            witness = traceless(ext.apply((u * np.sign(w)) @ u.conj().T))
            wu = np.linalg.eigh(witness)[1]
            delta_next = 0.5 * (
                np.outer(wu[:, -1], wu[:, -1].conj()) - np.outer(wu[:, 0], wu[:, 0].conj())
            )
            next_value = trace_norm(ext.apply(delta_next))
            if next_value <= value + 1e-14:
                break
            delta, value = delta_next, next_value
        if value > best_value:
            best_value, best_direction = value, delta
    return best_value, best_direction


def per_call_seeds(ch: PauliChannelMap, ancilla_dim: int) -> np.ndarray:
    """Oracle: the seven seeds built from scratch on every call, Phi+ and rng included."""
    dim = 2 * ancilla_dim
    phi = max_entangled_state().matrix
    chi = np.linalg.eigh(choi_matrix(ch))[1][:, 0]
    chi_proj = np.outer(chi, chi.conj())
    tau_local = chi_proj.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)

    def block_seed(top):
        seed = np.zeros((6, 6), dtype=complex)
        seed[:4, :4] = 0.5 * top
        seed[4:, 4:] = -0.25 * np.eye(2, dtype=complex)
        return seed

    eye = np.eye(dim, dtype=complex)
    if ancilla_dim == 2:
        seeds = [
            phi - eye / 4.0,
            phi - 0.5 * np.kron(np.eye(2, dtype=complex), tau_local),
            chi_proj - eye / 4.0,
        ]
    else:
        embed = np.zeros((6, 6), dtype=complex)
        embed[:4, :4] = phi
        seeds = [block_seed(phi), block_seed(chi_proj), embed - eye / 6.0]
    rng = np.random.default_rng(20240917)
    for _ in range(4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hermitian = 0.5 * (g + g.conj().T)
        seeds.append(hermitian - (np.trace(hermitian) / dim) * eye)
    return np.stack(seeds)


def choi_negative_mass(ch: PauliChannelMap) -> float:
    w = np.linalg.eigvalsh(choi_matrix(ch))
    return float(-w[w < 0.0].sum())


def eternal_pair(tau=0.5, delta_t=0.5, epsilon=0.05):
    ch = intermediate_map(ETERNAL, tau, tau + delta_t)
    direction = trace_norm_expansion_direction(ch)
    return pull_back_pair(direction, ETERNAL, tau, epsilon=epsilon)


def handmade_pair(epsilon=0.05):
    unit = 0.25 * np.kron(SIGMA_X, SIGMA_Z)  # unit trace norm, traceless
    base = np.eye(4, dtype=complex) / 4.0
    rho1 = DensityMatrix(matrix=base + epsilon * unit, dims=(2, 2))
    rho2 = DensityMatrix(matrix=base - epsilon * unit, dims=(2, 2))
    return ProbePair(rho1_0=rho1, rho2_0=rho2, tau=0.0, perturbation_scale=epsilon)


def pair_distance_at(pair: ProbePair, rates, t: float) -> float:
    ext = ExtendedChannel(decay_factors(rates, 0.0, t), (pair.rho1_0.dims[0],))
    return 0.25 * trace_norm(ext.apply(pair.rho1_0.matrix - pair.rho2_0.matrix))


class TestExpansionDirection:
    @pytest.mark.parametrize("ancilla_dim", [2, 3])
    def test_identity_channel_has_no_expansion(self, ancilla_dim):
        ch = decay_factors(constant_rates(0.0, 0.0, 0.0), 0.0, 1.0)
        with pytest.raises(ExpansionNotFoundError) as exc_info:
            trace_norm_expansion_direction(ch, ancilla_dim=ancilla_dim)
        assert exc_info.value.best_ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ancilla_dim", [2, 3])
    def test_cp_depolarizing_contracts(self, ancilla_dim):
        ch = PauliChannelMap(d_x=0.5, d_y=0.5, d_z=0.5)
        with pytest.raises(ExpansionNotFoundError) as exc_info:
            trace_norm_expansion_direction(ch, ancilla_dim=ancilla_dim)
        assert exc_info.value.best_ratio <= 1.0 + 1e-10

    def test_eternal_midtime_qubit_witness(self):
        ch = intermediate_map(ETERNAL, 0.5, 1.0)
        direction = trace_norm_expansion_direction(ch)
        assert direction.shape == (4, 4)
        assert np.allclose(direction, direction.conj().T, atol=1e-12)
        assert abs(np.trace(direction)) < 1e-12
        assert trace_norm(direction) == pytest.approx(1.0, abs=1e-10)
        assert expansion_ratio(ch, direction) > 1.0 + 1e-6

    def test_qubit_gap_interval_raises(self):
        ch = intermediate_map(ETERNAL, GAP_TAU, GAP_TAU + GAP_DT)
        assert choi_min_eigenvalue(ch) < -0.01
        with pytest.raises(ExpansionNotFoundError) as exc_info:
            trace_norm_expansion_direction(ch, ancilla_dim=2)
        assert exc_info.value.best_ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "t0,t1",
        [(GAP_TAU, GAP_TAU + GAP_DT), (0.5, 0.6), (0.5, 1.0), (1.0, 1.5)],
    )
    def test_qutrit_witness_reaches_choi_negativity(self, t0, t1):
        ch = intermediate_map(ETERNAL, t0, t1)
        direction = trace_norm_expansion_direction(ch, ancilla_dim=3)
        assert direction.shape == (6, 6)
        assert abs(np.trace(direction)) < 1e-12
        assert trace_norm(direction) == pytest.approx(1.0, abs=1e-10)
        floor = 1.0 + choi_negative_mass(ch)
        assert expansion_ratio(ch, direction) >= floor - 1e-9

    def test_strongly_noncp_qubit_witness(self):
        ch = intermediate_map(constant_rates(1.0, 1.0, -3.0), 0.1, 0.3)
        direction = trace_norm_expansion_direction(ch, ancilla_dim=2)
        assert expansion_ratio(ch, direction) > 1.4

    def test_bad_ancilla_dim_rejected(self):
        ch = intermediate_map(ETERNAL, 0.5, 1.0)
        with pytest.raises(DimensionMismatchError):
            trace_norm_expansion_direction(ch, ancilla_dim=4)

    @pytest.mark.parametrize("ancilla_dim", [2, 3])
    def test_cached_seeds_match_per_call_construction(self, ancilla_dim):
        rng = np.random.default_rng(11)
        channels = [PauliChannelMap(*rng.uniform(-1.0, 1.0, size=3)) for _ in range(8)]
        channels += [intermediate_map(ETERNAL, GAP_TAU, GAP_TAU + GAP_DT)]
        for ch in channels:
            got = _seeds(ch, ancilla_dim)
            assert got.tobytes() == per_call_seeds(ch, ancilla_dim).tobytes()
        # each call hands out its own writable stack; the cached part stays intact
        got[:] = 0.0
        assert _seeds(ch, ancilla_dim).tobytes() == per_call_seeds(ch, ancilla_dim).tobytes()

    @pytest.mark.parametrize("ancilla_dim", [2, 3])
    @pytest.mark.parametrize("maps", ["eternal", "constant(1,1,-3)", "cp"])
    def test_stacked_search_matches_serial_bit_for_bit(self, maps, ancilla_dim):
        if maps == "eternal":
            channels = [
                intermediate_map(ETERNAL, tau, tau + dt)
                for tau in (GAP_TAU, 0.35, 0.7, 1.3)
                for dt in (GAP_DT, 0.6)
            ]
        elif maps == "constant(1,1,-3)":
            # time-homogeneous rates: the map depends on dt alone
            rates = constant_rates(1.0, 1.0, -3.0)
            channels = [intermediate_map(rates, 0.5, 0.5 + dt) for dt in (0.05, 0.25, 0.6, 1.5)]
        else:
            channels = [
                intermediate_map(constant_rates(1.0, 1.0, 1.0), 0.3, 0.8),
                PauliChannelMap(d_x=0.5, d_y=0.5, d_z=0.5),
                PauliChannelMap(d_x=1.0, d_y=1.0, d_z=1.0),
            ]
        for ch in channels:
            want_value, want_direction = serial_expansion_search(ch, ancilla_dim)
            if want_value > 1.0 + 1e-10:
                got = trace_norm_expansion_direction(ch, ancilla_dim=ancilla_dim)
                assert np.array_equal(got, want_direction)
            else:
                with pytest.raises(ExpansionNotFoundError) as exc_info:
                    trace_norm_expansion_direction(ch, ancilla_dim=ancilla_dim)
                assert exc_info.value.best_ratio == want_value
                assert np.array_equal(exc_info.value.best_direction, want_direction)


def choi_negativity(ch: PauliChannelMap) -> float:
    """N: the summed |negative eigenvalues| of the trace-one Choi matrix."""
    eigs = choi_eigenvalues(ch)
    return float(-eigs[eigs < 0.0].sum())


def non_cp_pauli_maps(seed: int, count: int) -> list[PauliChannelMap]:
    """Pauli maps with factors uniform in [-0.3, 1.3] and N >= 1e-6."""
    rng = np.random.default_rng(seed)
    maps = []
    while len(maps) < count:
        ch = PauliChannelMap(*rng.uniform(-0.3, 1.3, size=3))
        if choi_negativity(ch) >= 1e-6:
            maps.append(ch)
    return maps


factor = st.floats(min_value=-0.3, max_value=1.3)


class TestExpansionInterval:
    """The qutrit block seed expands by 1 + N; no direction beats the diamond norm 1 + 2N."""

    def test_block_seed_ratio_is_one_plus_negativity(self):
        # top block Phi+/2 maps to J/2 with trace norm (1 + 2N)/2; the bottom
        # block -1/4 is fixed by the unital map
        seed = _block_seed(PHI_PLUS)
        norm = trace_norm(seed)  # 1 up to rounding
        for ch in non_cp_pauli_maps(20, 144):
            assert abs(expansion_ratio(ch, seed) / norm - (1.0 + choi_negativity(ch))) <= 1e-14

    @given(factor, factor, factor)
    @settings(max_examples=60, deadline=None)
    def test_ascent_ratio_interval(self, d_x, d_y, d_z):
        ch = PauliChannelMap(d_x, d_y, d_z)
        n = choi_negativity(ch)
        assume(n >= 1e-6)
        qutrit = expansion_ratio(ch, trace_norm_expansion_direction(ch, ancilla_dim=3))
        assert 1.0 + n - 1e-12 <= qutrit <= 1.0 + 2.0 * n + 1e-12
        try:
            direction = trace_norm_expansion_direction(ch, ancilla_dim=2)
        except ExpansionNotFoundError:
            return
        assert expansion_ratio(ch, direction) <= 1.0 + 2.0 * n + 1e-12


class TestPullBackPair:
    def test_zero_direction_returns_base(self):
        pair = pull_back_pair(np.zeros((4, 4)), ETERNAL, 0.5)
        assert np.allclose(pair.rho1_0.matrix, np.eye(4) / 4.0, atol=1e-14)
        assert np.allclose(pair.rho2_0.matrix, pair.rho1_0.matrix, atol=1e-14)

    def test_identity_dynamics_preserves_direction(self):
        unit = 0.25 * np.kron(SIGMA_Z, SIGMA_X)
        pair = pull_back_pair(unit, constant_rates(0.0, 0.0, 0.0), 0.7, epsilon=0.04)
        diff = pair.rho1_0.matrix - pair.rho2_0.matrix
        assert np.allclose(diff / trace_norm(diff), unit, atol=1e-12)
        assert 0.5 * trace_norm(diff) == pytest.approx(0.04, abs=1e-12)

    def test_round_trip_realigns_with_direction(self):
        tau = 0.5
        ch = intermediate_map(ETERNAL, tau, 1.0)
        direction = trace_norm_expansion_direction(ch)
        pair = pull_back_pair(direction, ETERNAL, tau)
        fwd = ExtendedChannel(decay_factors(ETERNAL, 0.0, tau), (2,))
        evolved_diff = fwd.apply(pair.rho1_0.matrix - pair.rho2_0.matrix)
        assert np.allclose(evolved_diff / trace_norm(evolved_diff), direction, atol=1e-10)

    def test_initial_distance_is_epsilon(self):
        pair = eternal_pair(epsilon=0.05)
        dist = 0.5 * trace_norm(pair.rho1_0.matrix - pair.rho2_0.matrix)
        assert dist == pytest.approx(0.05, abs=1e-12)
        assert pair.perturbation_scale == 0.05

    def test_qutrit_direction_gives_qutrit_pair(self):
        ch = intermediate_map(ETERNAL, GAP_TAU, GAP_TAU + GAP_DT)
        direction = trace_norm_expansion_direction(ch, ancilla_dim=3)
        pair = pull_back_pair(direction, ETERNAL, GAP_TAU)
        assert tuple(pair.rho1_0.dims) == (3, 2)
        avg = 0.5 * (pair.rho1_0.matrix + pair.rho2_0.matrix)
        assert np.allclose(avg, np.eye(6) / 6.0, atol=1e-14)

    def test_nonbijective_dynamics_rejected(self):
        unit = 0.25 * np.kron(SIGMA_Z, SIGMA_X)
        with pytest.raises(NonBijectiveError):
            pull_back_pair(unit, constant_rates(200.0, 200.0, 200.0), 1.0)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            pull_back_pair(np.zeros((3, 3)), ETERNAL, 0.5)

    @pytest.mark.parametrize("epsilon", [0.0, -0.05, float("nan"), 1.5])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        unit = 0.25 * np.kron(SIGMA_Z, SIGMA_X)
        with pytest.raises(EpsilonRangeError):
            pull_back_pair(unit, ETERNAL, 0.5, epsilon=epsilon)
        # (0.5, 0.3) is a non-CP eternal point: epsilon = 0 must not pass as "no backflow" there
        with pytest.raises(EpsilonRangeError):
            detect_backflow(ETERNAL, 0.5, 0.3, epsilon=epsilon)

    def test_pair_separation_invariant_enforced(self):
        rho1 = pure_state(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
        rho2 = pure_state(np.array([0, 1, 0, 0], dtype=complex), (2, 2))
        with pytest.raises(InvalidStateError):
            ProbePair(rho1_0=rho1, rho2_0=rho2, tau=0.0, perturbation_scale=0.05)

    def test_pair_needs_qubit_system_factor(self):
        odd = maximally_mixed((2, 3))
        with pytest.raises(DimensionMismatchError):
            ProbePair(rho1_0=odd, rho2_0=odd, tau=0.0, perturbation_scale=0.1)


class TestProbeState:
    def test_equal_pair_gives_product_with_zero_correlation(self):
        sigma = maximally_mixed((2, 2))
        pair = ProbePair(rho1_0=sigma, rho2_0=sigma, tau=0.0, perturbation_scale=0.05)
        ps = build_probe_state(pair)
        assert np.allclose(
            ps.matrix.matrix, np.kron(np.eye(2) / 2.0, sigma.matrix), atol=1e-14
        )
        assert correlation_CA2(ps.matrix) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_matches_optimizer(self):
        pair = eternal_pair()
        ps = build_probe_state(pair)
        want = 0.25 * trace_norm(pair.rho1_0.matrix - pair.rho2_0.matrix)
        assert correlation_CA2(ps.matrix) == pytest.approx(want, abs=1e-6)

    def test_partial_transpose_over_flag_is_psd(self):
        ps = build_probe_state(eternal_pair())
        pt = partial_transpose(ps.matrix.matrix, ps.matrix.dims, 0)
        assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_flag_marginal_is_maximally_mixed(self):
        ps = build_probe_state(eternal_pair())
        flag = partial_trace(ps.matrix, keep=(0,))
        assert np.allclose(flag.matrix, np.eye(2) / 2.0, atol=1e-12)


class TestEvolveProbe:
    def test_time_zero_is_identity(self):
        ps = build_probe_state(eternal_pair())
        evolved = evolve_probe(ps, ETERNAL, 0.0)
        assert np.allclose(evolved.matrix.matrix, ps.matrix.matrix, atol=1e-14)

    def test_zero_rates_are_static(self):
        ps = build_probe_state(handmade_pair())
        evolved = evolve_probe(ps, constant_rates(0.0, 0.0, 0.0), 2.0)
        assert np.allclose(evolved.matrix.matrix, ps.matrix.matrix, atol=1e-14)

    def test_cp_rates_never_increase_distance(self):
        rates = constant_rates(1.0, 1.0, 1.0)
        pair = handmade_pair()
        ts = np.linspace(0.0, 1.5, 7)
        dists = [pair_distance_at(pair, rates, t) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_block_structure_preserved(self):
        ps = build_probe_state(eternal_pair())
        evolved = evolve_probe(ps, ETERNAL, 1.3)
        mat = evolved.matrix.matrix
        assert np.allclose(mat[:4, 4:], 0.0, atol=1e-14)
        assert np.allclose(mat[4:, :4], 0.0, atol=1e-14)


class TestDetectBackflow:
    def test_cp_constant_rates_consistent(self):
        report = detect_backflow(constant_rates(1.0, 1.0, 1.0), 0.3, 0.5)
        assert not report.backflow_detected
        assert report.consistent
        assert not report.inconclusive
        assert report.choi_min_eig > 1e-8
        assert report.c2_after <= report.c2_before + 1e-9

    def test_eternal_backflow_detected(self):
        report = detect_backflow(ETERNAL, 0.5, 0.5)
        assert report.backflow_detected
        assert report.consistent
        assert not report.inconclusive
        assert report.choi_min_eig == pytest.approx(-0.07302843892286548, rel=1e-9)
        assert report.c2_after - report.c2_before > 1e-8

    def test_qubit_gap_point_upgrades_and_stays_consistent(self):
        report = detect_backflow(ETERNAL, GAP_TAU, GAP_DT)
        assert report.backflow_detected
        assert report.consistent
        assert not report.inconclusive
        assert report.c2_after - report.c2_before > 1e-6

    def test_epsilon_linearity(self):
        full = detect_backflow(ETERNAL, 0.5, 0.5, epsilon=0.05)
        half = detect_backflow(ETERNAL, 0.5, 0.5, epsilon=0.025)
        assert half.backflow_detected == full.backflow_detected
        assert half.consistent == full.consistent
        assert half.c2_before == pytest.approx(0.5 * full.c2_before, rel=1e-9)
        assert half.c2_after == pytest.approx(0.5 * full.c2_after, rel=1e-9)

    @pytest.mark.parametrize("epsilon", [1e-7, 1e-12])
    def test_verdict_does_not_depend_on_epsilon_scale(self, epsilon):
        # both c2 values are linear in epsilon, so the backflow test is relative
        for tau, dt in ((0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (1.5, 0.5), (GAP_TAU, GAP_DT)):
            want = detect_backflow(ETERNAL, tau, dt, epsilon=0.05)
            got = detect_backflow(ETERNAL, tau, dt, epsilon=epsilon)
            assert got.backflow_detected == want.backflow_detected
            assert got.consistent == want.consistent
            assert got.inconclusive == want.inconclusive

    def test_crosscheck_gate_scales_with_epsilon(self, monkeypatch):
        # at epsilon 1e-7 both c2 values are about 2.5e-8, inside an absolute 1e-6
        monkeypatch.setattr(probe, "correlation_CA2", lambda *args, **kwargs: 0.0)
        assert detect_backflow(ETERNAL, 0.5, 0.5, epsilon=1e-7).inconclusive

    def test_boundary_band_point_reports_cleanly(self):
        # the accumulated eternal map touches the CP boundary exactly
        report = detect_backflow(ETERNAL, 0.0, 0.5)
        assert abs(report.choi_min_eig) < 1e-8
        assert not report.backflow_detected
        assert report.consistent
        assert not report.inconclusive

    @pytest.mark.parametrize(
        "rates, tau, dt",
        [
            *((ETERNAL, 0.5, dt) for dt in (5.6e-10, 1.0e-9, 1.8e-9, 3.2e-9)),
            (ETERNAL, 1e-6, 1e-3),
            (ETERNAL, 3.2e-7, 1e-3),
            (constant_rates(1.0, 1.0, G_STAR - 1e-8), 0.3, 0.1),
        ],
        ids=["dt5.6e-10", "dt1e-9", "dt1.8e-9", "dt3.2e-9", "tau1e-6", "tau3.2e-7", "g-edge"],
    )
    def test_near_cp_edge_backflow_is_detected(self, rates, tau, dt):
        # Choi negativities from 1.3e-10 to 7.4e-10, and each gain equals it
        # to five digits: the verdict resolves both without a band
        report = detect_backflow(rates, tau, dt)
        assert report.backflow_detected
        assert report.consistent
        assert not report.inconclusive

    def test_gain_beyond_the_diamond_bound_is_inconclusive(self, monkeypatch):
        # no direction gains more than 2N, so a larger gain is a search fault
        report = detect_backflow(ETERNAL, 1.0, 0.5)
        gain = report.c2_after / report.c2_before - 1.0
        assert report.backflow_detected and not report.inconclusive
        eigs = np.array([-gain / 4.0, 0.25, 0.25, 0.5 + gain / 4.0])
        monkeypatch.setattr(probe, "choi_eigenvalues", lambda ch: eigs)
        faulty = detect_backflow(ETERNAL, 1.0, 0.5)
        assert faulty.c2_after == report.c2_after
        assert faulty.inconclusive

    def test_verdict_corpus_slice(self):
        # at epsilon 0.05 the Choi negativity above 1e-10 decides; at 1e-14
        # the floor is 6.9e-4, the pair rounding turns the gain negative at
        # points 68 and 247 of this slice, and a mismatch must read inconclusive
        corpus = verdict_corpus()
        for k in np.random.default_rng(8).choice(len(corpus), 80, replace=False):
            rates, tau, dt = corpus[k]
            eigs = choi_eigenvalues(intermediate_map(rates, tau, tau + dt))
            fine = detect_backflow(rates, tau, dt, epsilon=0.05)
            assert not fine.inconclusive, k
            assert fine.backflow_detected == (-eigs[eigs < 0.0].sum() > 1e-10), k
            coarse = detect_backflow(rates, tau, dt, epsilon=1e-14)
            assert coarse.inconclusive or coarse.consistent, k

    def test_report_carries_its_probe_pair(self):
        report = detect_backflow(ETERNAL, 0.5, 0.5)
        assert report.pair.distance_at(ETERNAL, 0.5) == report.c2_before
        assert report.pair.distance_at(ETERNAL, 1.0) == report.c2_after
        # the pair holds arrays, so it stays out of equality and repr
        assert dataclasses.replace(report, pair=None) == report
        assert "pair" not in repr(report)

    def test_no_expanding_direction_leaves_no_pair(self):
        assert detect_backflow(constant_rates(1.0, 1.0, 1.0), 0.3, 0.5).pair is None

    def test_time_order_violations(self):
        with pytest.raises(TimeOrderViolationError):
            detect_backflow(ETERNAL, -0.1, 0.5)
        with pytest.raises(TimeOrderViolationError):
            detect_backflow(ETERNAL, 0.5, 0.0)


class TestScanGrid:
    def test_row_major_order_matches_single_calls(self):
        taus = [0.5, 1.0]
        dts = [0.3, 0.6]
        reports = scan_backflow_grid(ETERNAL, itertools.product(taus, dts))
        assert [(r.tau, r.delta_t) for r in reports] == [
            (0.5, 0.3), (0.5, 0.6), (1.0, 0.3), (1.0, 0.6)
        ]
        for report in reports:
            single = detect_backflow(ETERNAL, report.tau, report.delta_t)
            assert report.c2_before == single.c2_before
            assert report.c2_after == single.c2_after
            assert report.consistent == single.consistent


class TestRandomDynamics:
    """The paper's theorem beyond the presets: backflow iff non-CP on random dynamics."""

    def test_seeded_table_corpus(self):
        # piecewise-linear rates, 5 knots on [0, 3] with values in [-1.5, 2],
        # kept when the map from 0 is CP on a 121-point grid (about 1 in 17
        # draws); five intervals each, tau in [0, 2] and delta_t in [0.02, 0.9]
        rng = np.random.default_rng(7)
        knots = np.linspace(0.0, 3.0, 5)
        grid = np.linspace(0.0, 3.0, 121)
        profiles = []
        while len(profiles) < 40:
            rates = table_rates(knots, rng.uniform(-1.5, 2.0, size=(5, 3)))
            if all(is_cp(decay_factors(rates, 0.0, float(t))) for t in grid):
                profiles.append(rates)
        detected = []
        for k, rates in enumerate(profiles):
            intervals = list(zip(rng.uniform(0.0, 2.0, 5), rng.uniform(0.02, 0.9, 5)))
            for report in scan_backflow_grid(rates, intervals):
                point = (k, report.tau, report.delta_t)
                assert report.consistent, point
                assert not report.inconclusive, point
                detected.append(report.backflow_detected)
        assert any(detected) and not all(detected)


@pytest.fixture(scope="module")
def probe_states():
    states = []
    for tau, delta_t in [(0.5, 0.5), (GAP_TAU, GAP_DT)]:
        ch = intermediate_map(ETERNAL, tau, tau + delta_t)
        try:
            direction = trace_norm_expansion_direction(ch, ancilla_dim=2)
        except ExpansionNotFoundError:
            direction = trace_norm_expansion_direction(ch, ancilla_dim=3)
        pair = pull_back_pair(direction, ETERNAL, tau)
        ps = build_probe_state(pair)
        for t in (tau, tau + 0.5 * delta_t, tau + delta_t):
            states.append((pair, t, evolve_probe(ps, ETERNAL, t)))
    return states


class TestCorrelationOrderings:
    """Measured-side orderings on generated probe states."""

    def test_a_side_attains_the_optimum(self, probe_states):
        for _, _, ps in probe_states:
            ca = correlation_CA2(ps.matrix)
            cb = correlation_CB2(ps.matrix)
            assert ca >= cb - 1e-6

    def test_more_outputs_do_not_help(self, probe_states):
        for _, _, ps in probe_states:
            ca = correlation_CA2(ps.matrix)
            cb = correlation_CB2(ps.matrix)
            cg = correlation_C_general(ps.matrix, max_outputs=4)
            assert cg <= max(ca, cb) + 1e-3

    def test_closed_form_tracks_evolution(self, probe_states):
        for pair, t, ps in probe_states:
            want = pair_distance_at(pair, ETERNAL, t)
            assert correlation_CA2(ps.matrix) == pytest.approx(want, abs=1e-6)
