"""Probe pair construction, evolution, and backflow detection."""

from __future__ import annotations

import dataclasses
import hashlib
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
    NonFiniteError,
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

    @pytest.mark.parametrize("ancilla_dim", [2.0, 3.0, 2.5])
    def test_non_integral_ancilla_dim_rejected(self, ancilla_dim):
        ch = intermediate_map(ETERNAL, 0.5, 1.0)
        with pytest.raises(DimensionMismatchError):
            trace_norm_expansion_direction(ch, ancilla_dim)

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


def jittered_cells(lo: float, hi: float, rng: np.random.Generator) -> list[float]:
    """One point in each of six cells over [lo, hi], all at one seeded offset, as
    backflow-scan draws its grid."""
    step = (hi - lo) / 6
    offset = 0.25 + 0.5 * rng.uniform()
    return [lo + (i + offset) * step for i in range(6)]


def ascent_cases() -> list[tuple[str, PauliChannelMap]]:
    """(label, map) for every map of the ascent bit-identity table.

    The intermediate maps of backflow-scan's three presets on its seed-0
    6x6 grid (label: preset, tau index, delta_t index), then 40 Pauli maps
    with factors uniform in [-0.3, 1.3] from default_rng(5).
    """
    rng = np.random.default_rng([0, 1])  # backflow-scan's grid stream at seed 0
    taus, dts = jittered_cells(0.15, 2.0, rng), jittered_cells(0.2, 2.0, rng)
    presets = {
        "eternal": ETERNAL,
        "c(1,1,-3)": constant_rates(1.0, 1.0, -3.0),
        "c(1,1,1)": constant_rates(1.0, 1.0, 1.0),
    }
    cases = [
        (f"{name} {i}{j}", intermediate_map(rates, tau, tau + dt))
        for name, rates in presets.items()
        for i, tau in enumerate(taus)
        for j, dt in enumerate(dts)
    ]
    rng = np.random.default_rng(5)
    for k in range(40):
        cases.append((f"random {k:02d}", PauliChannelMap(*rng.uniform(-0.3, 1.3, size=3))))
    return cases


class TestAscentBitIdentity:
    """Every direction the ascent returns or reports keeps its recorded bytes."""

    def test_directions_keep_recorded_bits(self):
        digests, failure_ratios = [], {}
        for label, ch in ascent_cases():
            for ancilla_dim in (2, 3):
                key = f"{label} {ancilla_dim}"
                try:
                    direction = trace_norm_expansion_direction(ch, ancilla_dim)
                except ExpansionNotFoundError as exc:
                    direction = exc.best_direction
                    failure_ratios[key] = exc.best_ratio.hex()
                digests.append((key, hashlib.sha256(direction.tobytes()).hexdigest()))
        assert digests == _ASCENT_DIGESTS
        assert failure_ratios == _ASCENT_FAILURE_RATIOS


class TestPullBackPair:
    def test_direction_with_trace_rejected(self):
        # shrinking the pair would only hide its trace under the state check's tolerance
        with pytest.raises(InvalidStateError):
            pull_back_pair(np.eye(4), ETERNAL, 0.5)
        unit = 0.25 * np.kron(SIGMA_Z, SIGMA_X)
        with pytest.raises(InvalidStateError):
            pull_back_pair(unit + 1e-11 * np.eye(4), ETERNAL, 0.5)
        # a rounding-level trace is no fault
        pair = pull_back_pair(unit + 1e-14 * np.eye(4), ETERNAL, 0.5)
        assert pair.perturbation_scale == 0.05

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_direction_rejected(self, bad):
        direction = 0.25 * np.kron(SIGMA_Z, SIGMA_X)
        direction[0, 3] = bad
        with pytest.raises(NonFiniteError):
            pull_back_pair(direction, ETERNAL, 0.5)

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

    def test_choi_band_rows_are_conclusive_and_consistent(self):
        # criterion 3 and the benchmark skip |choi_min_eig| < 1e-8; on
        # criterion 3's grid those are exactly the ten eternal rows at tau = 0
        taus, dts = np.linspace(0.0, 2.0, 10), np.linspace(0.2, 2.0, 10)
        presets = (ETERNAL, constant_rates(1.0, 1.0, 1.0), constant_rates(1.0, 1.0, -3.0))
        band = [
            (rates, tau, dt)
            for rates in presets
            for tau, dt in itertools.product(taus, dts)
            if abs(choi_min_eigenvalue(intermediate_map(rates, tau, tau + dt))) < 1e-8
        ]
        assert [(rates, tau) for rates, tau, _ in band] == [(ETERNAL, 0.0)] * 10
        for rates, tau, dt in band:
            report = detect_backflow(rates, tau, dt)
            assert abs(report.choi_min_eig) < 1e-8
            assert not report.backflow_detected, dt
            assert report.consistent, dt
            assert not report.inconclusive, dt

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
        # every detected point also carries the paper's separable, near-product probe
        epsilon = 0.05
        detected = []
        ancillas = set()
        for k, rates in enumerate(profiles):
            intervals = list(zip(rng.uniform(0.0, 2.0, 5), rng.uniform(0.02, 0.9, 5)))
            for report in scan_backflow_grid(rates, intervals, epsilon):
                point = (k, report.tau, report.delta_t)
                assert report.consistent, point
                assert not report.inconclusive, point
                detected.append(report.backflow_detected)
                if report.backflow_detected:
                    ancillas.add(assert_separable_near_product(report.pair, epsilon))
        assert any(detected) and not all(detected)
        assert ancillas == {2, 3}


def assert_separable_near_product(pair, epsilon):
    """Both pulled-back states are PPT and the probe lies within epsilon/2 of
    (1/2) 1 (x) 1/d; returns the ancilla dimension."""
    for rho in (pair.rho1_0, pair.rho2_0):  # 2x2 or 3x2: PPT decides separability
        transposed = partial_transpose(rho.matrix, rho.dims, 1)
        assert np.linalg.eigvalsh(transposed)[0] >= -1e-12
    probe_mat = build_probe_state(pair).matrix.matrix
    product = np.eye(len(probe_mat)) / len(probe_mat)  # (1/2) 1_flag (x) 1/d
    assert 0.5 * trace_norm(probe_mat - product) <= 0.5 * epsilon + 1e-12
    return pair.rho1_0.dims[0]


class TestSeparableNearProductProbes:
    """The paper's claim about its probes: separable, and as close to a product as asked.

    Conclusiveness is not asserted: at epsilon = 1e-14 some points are
    inconclusive, because the gain is read from a pair formed in floating
    point around 1/d.
    """

    @pytest.mark.parametrize("epsilon", [1.0, 0.05, 1e-14])
    def test_detected_points(self, epsilon):
        presets = [ETERNAL, constant_rates(1.0, 1.0, -3.0), constant_rates(1.0, 1.0, -0.3)]
        intervals = [(0.2, 0.3), (0.5, 0.5), (1.0, 0.2), (1.5, 0.6), (0.05, 0.8),
                     (GAP_TAU, GAP_DT)]
        ancillas = {
            assert_separable_near_product(report.pair, epsilon)
            for rates in presets
            for report in scan_backflow_grid(rates, intervals, epsilon)
            if report.backflow_detected
        }
        assert ancillas == {2, 3}


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


# recorded before the ascent's step was trimmed to its arithmetic: the sha256
# of each direction's bytes (the best direction seen, for a failed search)
_ASCENT_DIGESTS = [
    ("eternal 00 2", "e225f15b9fee24e2168d2a0c513fe7fc0e4675f008468953ef5daaeb7c5c8790"),
    ("eternal 00 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("eternal 01 2", "2aa6e630222bf562b8735e7c86b2e980ebb819dcc81eecb8e9d2f58f6fb4a397"),
    ("eternal 01 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("eternal 02 2", "8b1166a51a770f88731ba8033dcd8b52d32f7aa4617d0c83ffd2d0e9fa4258ad"),
    ("eternal 02 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("eternal 03 2", "68143fc593e897a21c96b04cc42ae76224b3e20079b6772137a38ba3eca8347a"),
    ("eternal 03 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("eternal 04 2", "7ec856edd83bc4b1ecf5e644a652192ec7e35e74e15fb60b91198dd96fba097a"),
    ("eternal 04 3", "a4090c6e2c22cb14472689d008f2dc4125dd78eade1764742f622dd193db33ca"),
    ("eternal 05 2", "62520348cd26b0d6f4b73658063045152b1815c9a1debb495217af6953dcbaad"),
    ("eternal 05 3", "7b1019d165025c8ee2c4353012eee667c8734292547882867169249b9b7c441f"),
    ("eternal 10 2", "484a9455e11ff805dda062ecfa32e4eb836c4a7aa0358ca0d3201bb8858cde46"),
    ("eternal 10 3", "5f9fa32befe859448e0492dfba4d852c84a1d2ea1881da5e872ca57641768f8e"),
    ("eternal 11 2", "9c6bf96ad914606424bd3ff32f05c0f517fa8dbaaf3b8e8d083dbd78fdec233d"),
    ("eternal 11 3", "e0dfd7eadd7f293ac73ef81af8f44708a43db5265219257220f5389d6a7d50b1"),
    ("eternal 12 2", "b6059762677d3cf8ce5efca6a66cf90ae4982fd2e6c26ab394e768065a199c7a"),
    ("eternal 12 3", "8f3024890b4badea36e359c5db2d8c1364b52af3d7053e1688044cb0e17efed5"),
    ("eternal 13 2", "a6f14cf4d5a8b76521d1a9c27e4a2036a045e4d0215b921ed3ee9f866ab55022"),
    ("eternal 13 3", "4e2cf4b600658df147871c147429bc92aaac2366011876701ecf0bdaa970f4cf"),
    ("eternal 14 2", "ba2a062977a45031774d8ec1e4795005c1aee7e843657721845884bb4e297a66"),
    ("eternal 14 3", "ae69bc66daa3f8ffcd5e44f39b9124b9391beb613111479a4faa7f401ada5049"),
    ("eternal 15 2", "b0b15835f1e45d8ebd77327b02921ad64fb19cb4ceabe5886c49d21aaea7aa27"),
    ("eternal 15 3", "4c22a872fc1fefa0ad115ceedae474ebe3a19fa4e0a824eab99ad568d4da4671"),
    ("eternal 20 2", "b5a661d2cf5ec42859f7fbc267f874a21bc51289e441c7870d76d95adf81fa3c"),
    ("eternal 20 3", "d76af816605a2c239a065e036d81d3e54fab96637f8010a2cd128e39d849d492"),
    ("eternal 21 2", "917792f162508e3aa3f138e8557e4f343de4066e7373dfa6fa87f211498a8654"),
    ("eternal 21 3", "780915d1064a651762f421702c7a227fe5fb5c827513ecc3b361e50cdfe2c7f5"),
    ("eternal 22 2", "aff43801d566e12457cf49018787ec1e38c36de255621182598cc24b56799193"),
    ("eternal 22 3", "3ef283860d25b64ebcbef3196fc200ae877af1e0d605bd94410df124e7b9e718"),
    ("eternal 23 2", "1220ac1aec0f91bfe6358ff48a06341701cd1c22429e2a69336fd3ada55e254d"),
    ("eternal 23 3", "5c234a625eb4c567496b0a49c03cb5691960fc60421873d7be030af4d9483c56"),
    ("eternal 24 2", "72735e789ceb8bdd2cac6a89490b2195b5f6b67b9ac460159e64f285647ac1b4"),
    ("eternal 24 3", "d4afecad940389f4ca63dacb414de7c07326509336dc7afe1083a1511b49d7be"),
    ("eternal 25 2", "655cad88b51bdf0b6dac68059db36a44fbb47001d192a674124db949cbb74499"),
    ("eternal 25 3", "540c088a042b124251b92417cb80076eb9c9163f96a0c20ee4296f807404599f"),
    ("eternal 30 2", "4be53398b08a9957d2d89151978d7e6301282330a5cbd09486592a372a2eed97"),
    ("eternal 30 3", "d799d05a687a56309b60084b5ca42093d241b5059296e7581a46135836e26cb6"),
    ("eternal 31 2", "f8db6abac752616e5edcf559dea3b71c5f32a58dfabf69c9c01e238524859d44"),
    ("eternal 31 3", "7af40e1eb4c221f1b34ecd7a28e167cca5140dbfbdcf9feccb9f1e41650515fc"),
    ("eternal 32 2", "8efed3aa04735337bdfb47063f520ff47a70ee9330881525d051d092c4894bd4"),
    ("eternal 32 3", "0d17cd7ac2876c71573dd764289ab3bbbfcabe5b07bf7bf9b2e40e8a7aa38e54"),
    ("eternal 33 2", "cfc6a07a25e93628259f3f185cc4f3d60151f7c96e4abf77e848137ead656070"),
    ("eternal 33 3", "1ece615bf68ecdfae4971f2b3871e432aa57673a550fb39b544583346d5e7813"),
    ("eternal 34 2", "338b0b23817c3afa51be8fde575416eebd532a844f4f6d7fb9d6aabc95845c6f"),
    ("eternal 34 3", "2b72f8bbaee2853096c59f995be51a6a6f5465ef461f69e2f5b5a4b48c312e2a"),
    ("eternal 35 2", "f4598c36864fe67159542133692ee4f8b74a800e4f32770f33da518b595eaed4"),
    ("eternal 35 3", "cf08ffd6734ebe75485edeaa083391d6f8093e7feb0b3d894f4e01b0e12614b0"),
    ("eternal 40 2", "0afe8122e7cf12f5808f198ed5cb856560b680772c90486fc050f9276621dd72"),
    ("eternal 40 3", "feb93ae6408261b386348caea10f8c5e641582fe64801e94b3024f44e7717c16"),
    ("eternal 41 2", "c71082a61c2ee5bd446925c7555369fc10427494f0b3f5c58a932155bfe38b3e"),
    ("eternal 41 3", "e2883403f5d5966043065c980604583cbf9df5d012a7deb9a55ac266b9704b53"),
    ("eternal 42 2", "06b1e7656846f89d6be70210d157b18d5a59ec4998a75b677a374589c68c4d47"),
    ("eternal 42 3", "e44d5abb8c91e5e2effc6651447be4a3ca4a7c481f9daa3bb19a71262923bfff"),
    ("eternal 43 2", "242c896ee385d91aa284b93defff39f70b5c226a40cdd5fcc75ebbab5ebfafca"),
    ("eternal 43 3", "12c6ba6f9628837af178e0422fe3c1aba59c815e13c74cc45c8ff7f6e9a734ec"),
    ("eternal 44 2", "94192bac8918d442ca2d12eefb0be548d6f8eaac2438f56c191e073259055c43"),
    ("eternal 44 3", "0f93d73ee697d3c90814c3eaa432ee0934b9c44007e2cec8b21140c3d682923f"),
    ("eternal 45 2", "2d71a1a78d237160a4e45985ef7ef35fc3e684d250f0e63e73f4afa510e8a7e6"),
    ("eternal 45 3", "ff132115a04f5507acd537aa59063bc0c8c2d808488b0df6344bfd282fa5dac3"),
    ("eternal 50 2", "502a52916008361c24b7e11cce440806d18461c2c7c68488e716937c7ceec769"),
    ("eternal 50 3", "beaf2f764dba0774891c73941735c98efa876c2799a5aae639e30b0beb2e3078"),
    ("eternal 51 2", "da665b469d6919375d14c2067346a9216ac0973a7c0a4e35bd9bcc45ae677fa1"),
    ("eternal 51 3", "5dd15488459521bba83a06ac48ee24337f58ad667760c009fa27d25fa1b62bca"),
    ("eternal 52 2", "c6db0ed42951104ca007a6adceb7bb1b0283ea062aba6a716787fa891cfed945"),
    ("eternal 52 3", "f1627967b1499bf4f81fc3970d7318d72ff19dd8cc26361313b5d84e52a54f60"),
    ("eternal 53 2", "027e8c339f7474b450adcc475b65f7bf8ad1616b3519db63e65812c11e6630ff"),
    ("eternal 53 3", "78058dc214810eb23742f8c53ef8ef93729db348011863d99bb9d08f8bd7c628"),
    ("eternal 54 2", "cc98133469dddcf82a9ecea61d9aea04f025912f678d18eecf19397cd0ef0e70"),
    ("eternal 54 3", "0192778a354d90e3df9c2a6b93d52275edde2044cbf451945297d17d5ce970ad"),
    ("eternal 55 2", "4958d6a946e709ff5c710880b3abfd146ee4c23551346aa75801a8631a2b839a"),
    ("eternal 55 3", "46b23848cc6ccac4675e09b528a3884bcb113f552fade0b31f9e8da2bcbac422"),
    ("c(1,1,-3) 00 2", "08dd19c0e08f34662a22594ccc22e241e5cec284ee32aaedfc54b772b1ae8845"),
    ("c(1,1,-3) 00 3", "abf616f495729bcf5ac0a2959c01fddf0502721a2719cf936068fbce4b040710"),
    ("c(1,1,-3) 01 2", "a936420919fd9f985bcf7eec900333a3874eb339cc57cc8f9503d8d5cd03e07b"),
    ("c(1,1,-3) 01 3", "416cefc00f046f3712c357a9ad9da198e217eb411c15457cdfb19e6f6b784d7d"),
    ("c(1,1,-3) 02 2", "65c6d5996208d30c3749a09832e580c384aba82a6c6b5aaa1019a8ffd8aa56b5"),
    ("c(1,1,-3) 02 3", "d737da48f1de7234f76fe421809f0ec56cdfbdcbc00a5979f007920ced523893"),
    ("c(1,1,-3) 03 2", "a5c328a24669fb48db49d8be1d2828c9bb4dceb45b3c4963fb5236adc14f8c88"),
    ("c(1,1,-3) 03 3", "6dddb2802ba3562cdad8347eef553c0a47dc4f72dd3a7871a6ccc7e57abd6cc4"),
    ("c(1,1,-3) 04 2", "b33dfac3ec6bd1bcff4fb6a0d35c9f8ec482ec58c1a1915dcedfa3d50a9e7d23"),
    ("c(1,1,-3) 04 3", "863676711eb8e4169b044d87609ee0954a68924caf0630beb71f0cf85da21a4c"),
    ("c(1,1,-3) 05 2", "48609d5a69119c3ded740dfa4f75ae47a309e7d6ffe955e7a5c7e0283d0fd649"),
    ("c(1,1,-3) 05 3", "5f408b7e35416e3fa2d94429f73453b921b0f1c68fcad5ea1e0d9514a576acb9"),
    ("c(1,1,-3) 10 2", "08dd19c0e08f34662a22594ccc22e241e5cec284ee32aaedfc54b772b1ae8845"),
    ("c(1,1,-3) 10 3", "abf616f495729bcf5ac0a2959c01fddf0502721a2719cf936068fbce4b040710"),
    ("c(1,1,-3) 11 2", "93c05c4cfe0e0a1a0a31f19084492924edea7fd57a9262fe6476a21ccedb5b67"),
    ("c(1,1,-3) 11 3", "f0c70b66d420420bf3d6645e71ddb2f29f445ee48d684e1d520cd715eab7e6a6"),
    ("c(1,1,-3) 12 2", "eadc267632f5368af0b972928023352e6277a75a76c7810f46ee9e39cac3899b"),
    ("c(1,1,-3) 12 3", "3c38b767936ef0a083dd1dbee8316bbae104b50a52c7de71df8172c1b5a41dc7"),
    ("c(1,1,-3) 13 2", "a5c328a24669fb48db49d8be1d2828c9bb4dceb45b3c4963fb5236adc14f8c88"),
    ("c(1,1,-3) 13 3", "6dddb2802ba3562cdad8347eef553c0a47dc4f72dd3a7871a6ccc7e57abd6cc4"),
    ("c(1,1,-3) 14 2", "b33dfac3ec6bd1bcff4fb6a0d35c9f8ec482ec58c1a1915dcedfa3d50a9e7d23"),
    ("c(1,1,-3) 14 3", "863676711eb8e4169b044d87609ee0954a68924caf0630beb71f0cf85da21a4c"),
    ("c(1,1,-3) 15 2", "ec39d250ee9ad03ea430088dfd2abef1e2418843b86a6afe69207df93eeb4d3d"),
    ("c(1,1,-3) 15 3", "c95e47c6aaaa6ad557e94f610899932676225d3430a5d153488a8f50fdf00c66"),
    ("c(1,1,-3) 20 2", "08dd19c0e08f34662a22594ccc22e241e5cec284ee32aaedfc54b772b1ae8845"),
    ("c(1,1,-3) 20 3", "abf616f495729bcf5ac0a2959c01fddf0502721a2719cf936068fbce4b040710"),
    ("c(1,1,-3) 21 2", "a936420919fd9f985bcf7eec900333a3874eb339cc57cc8f9503d8d5cd03e07b"),
    ("c(1,1,-3) 21 3", "416cefc00f046f3712c357a9ad9da198e217eb411c15457cdfb19e6f6b784d7d"),
    ("c(1,1,-3) 22 2", "65c6d5996208d30c3749a09832e580c384aba82a6c6b5aaa1019a8ffd8aa56b5"),
    ("c(1,1,-3) 22 3", "d737da48f1de7234f76fe421809f0ec56cdfbdcbc00a5979f007920ced523893"),
    ("c(1,1,-3) 23 2", "a5c328a24669fb48db49d8be1d2828c9bb4dceb45b3c4963fb5236adc14f8c88"),
    ("c(1,1,-3) 23 3", "6dddb2802ba3562cdad8347eef553c0a47dc4f72dd3a7871a6ccc7e57abd6cc4"),
    ("c(1,1,-3) 24 2", "b33dfac3ec6bd1bcff4fb6a0d35c9f8ec482ec58c1a1915dcedfa3d50a9e7d23"),
    ("c(1,1,-3) 24 3", "863676711eb8e4169b044d87609ee0954a68924caf0630beb71f0cf85da21a4c"),
    ("c(1,1,-3) 25 2", "48609d5a69119c3ded740dfa4f75ae47a309e7d6ffe955e7a5c7e0283d0fd649"),
    ("c(1,1,-3) 25 3", "5f408b7e35416e3fa2d94429f73453b921b0f1c68fcad5ea1e0d9514a576acb9"),
    ("c(1,1,-3) 30 2", "c0584572ec41265da76735fbcef02fc5504963a6eadc662ebed4fc435a6cadcc"),
    ("c(1,1,-3) 30 3", "6bcd96e281d07f3ca86e92022152c277778660bdfddcbf56b8e82670e445f106"),
    ("c(1,1,-3) 31 2", "da7b91a2dd1d06f7ab8c5a729056458a750ae187f5afe616833cff36dd36a867"),
    ("c(1,1,-3) 31 3", "7739351b5fbdc8e634924b1684df55029e03812309760c47a8251aa8d2076523"),
    ("c(1,1,-3) 32 2", "67825a1324307f680080dcb27420241e1b925fd7fad4cf8d6137d4f06b1c1e84"),
    ("c(1,1,-3) 32 3", "a711fd866beb8042fb11de3251398363110ec3f2e045fc685fa7191a88bf5862"),
    ("c(1,1,-3) 33 2", "a5c328a24669fb48db49d8be1d2828c9bb4dceb45b3c4963fb5236adc14f8c88"),
    ("c(1,1,-3) 33 3", "6dddb2802ba3562cdad8347eef553c0a47dc4f72dd3a7871a6ccc7e57abd6cc4"),
    ("c(1,1,-3) 34 2", "b33dfac3ec6bd1bcff4fb6a0d35c9f8ec482ec58c1a1915dcedfa3d50a9e7d23"),
    ("c(1,1,-3) 34 3", "863676711eb8e4169b044d87609ee0954a68924caf0630beb71f0cf85da21a4c"),
    ("c(1,1,-3) 35 2", "48609d5a69119c3ded740dfa4f75ae47a309e7d6ffe955e7a5c7e0283d0fd649"),
    ("c(1,1,-3) 35 3", "5f408b7e35416e3fa2d94429f73453b921b0f1c68fcad5ea1e0d9514a576acb9"),
    ("c(1,1,-3) 40 2", "cd1e33d11ebaf3f4daf255fb13d57e2734a3b86482be53d1af3051900828e2e9"),
    ("c(1,1,-3) 40 3", "4035b8bb7b35cee20f84cca11e580e5cd9844f5a2d55a4339ff105082d6c4d01"),
    ("c(1,1,-3) 41 2", "f63755980869e3d845cb0206cd4f039b7435693c1461824ba32d9091b7aca30f"),
    ("c(1,1,-3) 41 3", "3371754fe6134bf4e53160a8f0e0dcc9d0c49e537caa612631e839f9f2ec38a2"),
    ("c(1,1,-3) 42 2", "eae5f9854aa5f6b139c9806188376720a266a9a0e4bc5186750c895e0106e737"),
    ("c(1,1,-3) 42 3", "505490118a91c169f3f1868583102fa2da14b5e3a410330b19312e9492e2af74"),
    ("c(1,1,-3) 43 2", "48575f0ff37dda59017f55e71596744c5e82c7ec0075ae7fcd67f5db84dc7547"),
    ("c(1,1,-3) 43 3", "97ecc94750ee3f22a4e58d512f1671fd96b51532b023c94716178f64832f2d48"),
    ("c(1,1,-3) 44 2", "0b1c1daf8dc497e8055498c112ba410da1e6aad2d1f6c420b06e26cac79fd270"),
    ("c(1,1,-3) 44 3", "0c987444560bcccfa1f2373d715a00d250749652eb294af5084c562777e8226a"),
    ("c(1,1,-3) 45 2", "938e3c0eb8d7b8d5a5eaa937e833bb15baefdf0ddeee8815d757412770bfda98"),
    ("c(1,1,-3) 45 3", "ba2c6ce4790d898b2e0abc1c67bd54097f3bcef5b8c7b59c127a9ac6a87d808b"),
    ("c(1,1,-3) 50 2", "c0584572ec41265da76735fbcef02fc5504963a6eadc662ebed4fc435a6cadcc"),
    ("c(1,1,-3) 50 3", "6bcd96e281d07f3ca86e92022152c277778660bdfddcbf56b8e82670e445f106"),
    ("c(1,1,-3) 51 2", "da7b91a2dd1d06f7ab8c5a729056458a750ae187f5afe616833cff36dd36a867"),
    ("c(1,1,-3) 51 3", "7739351b5fbdc8e634924b1684df55029e03812309760c47a8251aa8d2076523"),
    ("c(1,1,-3) 52 2", "2bf8ecb28c7cc407a26e0d24c98b19a45c21684ef423f7c4e6f4c488e8db7ef8"),
    ("c(1,1,-3) 52 3", "84c157dd25d7c3eae69235e1dd5671b44eda18ede30f76bf351a5a81ad7b969e"),
    ("c(1,1,-3) 53 2", "a5c328a24669fb48db49d8be1d2828c9bb4dceb45b3c4963fb5236adc14f8c88"),
    ("c(1,1,-3) 53 3", "6dddb2802ba3562cdad8347eef553c0a47dc4f72dd3a7871a6ccc7e57abd6cc4"),
    ("c(1,1,-3) 54 2", "b33dfac3ec6bd1bcff4fb6a0d35c9f8ec482ec58c1a1915dcedfa3d50a9e7d23"),
    ("c(1,1,-3) 54 3", "863676711eb8e4169b044d87609ee0954a68924caf0630beb71f0cf85da21a4c"),
    ("c(1,1,-3) 55 2", "ec39d250ee9ad03ea430088dfd2abef1e2418843b86a6afe69207df93eeb4d3d"),
    ("c(1,1,-3) 55 3", "c95e47c6aaaa6ad557e94f610899932676225d3430a5d153488a8f50fdf00c66"),
    ("c(1,1,1) 00 2", "a574ef648fdc33a66325cf0c49581fd997f47bd047ff75b66844cc2f2e2c55a3"),
    ("c(1,1,1) 00 3", "2f12e96803515f08febf883e2119b8e6f8091799cf30af5b51fd557dc7859464"),
    ("c(1,1,1) 01 2", "c7c5843b704645156fe4799fe516a01654e948fc5c8891a8cd61472a3fb904f4"),
    ("c(1,1,1) 01 3", "ef5725f6d617ad0f7d6d89723af0f9663dcc74ceff607b7c112216de81390972"),
    ("c(1,1,1) 02 2", "dcc23e8392348298a5d40255636ebaab4b74b402acb47f03b5331fe3fb0c08cc"),
    ("c(1,1,1) 02 3", "63d4cf940c776de2645fe3acb644fbc8b35649282090fefc6dce9cbb65ada55d"),
    ("c(1,1,1) 03 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 03 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 04 2", "72b45c32e60562a9defecdcfd387726fa7dc98672cc3843fc20fcd72840fe0a2"),
    ("c(1,1,1) 04 3", "35c1c96561ec3401538ba6d7e9adbf4a6630598a792db7cda271aa7c64b270d6"),
    ("c(1,1,1) 05 2", "75607f65df1cc3ab3a4c4d803ef17a21a4b77331119dff7a28a545026b31938e"),
    ("c(1,1,1) 05 3", "10fd315c20a4013586144eeeea244b899451c2dfbc60e88c54625805a39b2a25"),
    ("c(1,1,1) 10 2", "a574ef648fdc33a66325cf0c49581fd997f47bd047ff75b66844cc2f2e2c55a3"),
    ("c(1,1,1) 10 3", "2f12e96803515f08febf883e2119b8e6f8091799cf30af5b51fd557dc7859464"),
    ("c(1,1,1) 11 2", "9cc96bec731981887fd1031a3bb42cb2c300caa954c9c3fa803a1e2cdd8d06c5"),
    ("c(1,1,1) 11 3", "2771aa7dadea4eddd80fc78805d9549d25991119c84dd6bd2d563d0318d86d73"),
    ("c(1,1,1) 12 2", "e4b5564df7805b60dd7d618b6fce57f69810e5c4a69c6c819531028759f70bc1"),
    ("c(1,1,1) 12 3", "65e95e5d5745f8275f87ebfdc7fa11baf49b1856e80e90e52f14e4f9d73fde53"),
    ("c(1,1,1) 13 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 13 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 14 2", "72b45c32e60562a9defecdcfd387726fa7dc98672cc3843fc20fcd72840fe0a2"),
    ("c(1,1,1) 14 3", "35c1c96561ec3401538ba6d7e9adbf4a6630598a792db7cda271aa7c64b270d6"),
    ("c(1,1,1) 15 2", "93f01d5e26fee577397f3c7f59507e36a74fcdf7d033db7e665ad370db81437a"),
    ("c(1,1,1) 15 3", "586b8cc83b35b18f30c2ebd5a1a7b0c340cec244579fab5505e365175c3d7314"),
    ("c(1,1,1) 20 2", "a574ef648fdc33a66325cf0c49581fd997f47bd047ff75b66844cc2f2e2c55a3"),
    ("c(1,1,1) 20 3", "2f12e96803515f08febf883e2119b8e6f8091799cf30af5b51fd557dc7859464"),
    ("c(1,1,1) 21 2", "c7c5843b704645156fe4799fe516a01654e948fc5c8891a8cd61472a3fb904f4"),
    ("c(1,1,1) 21 3", "ef5725f6d617ad0f7d6d89723af0f9663dcc74ceff607b7c112216de81390972"),
    ("c(1,1,1) 22 2", "dcc23e8392348298a5d40255636ebaab4b74b402acb47f03b5331fe3fb0c08cc"),
    ("c(1,1,1) 22 3", "63d4cf940c776de2645fe3acb644fbc8b35649282090fefc6dce9cbb65ada55d"),
    ("c(1,1,1) 23 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 23 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 24 2", "72b45c32e60562a9defecdcfd387726fa7dc98672cc3843fc20fcd72840fe0a2"),
    ("c(1,1,1) 24 3", "35c1c96561ec3401538ba6d7e9adbf4a6630598a792db7cda271aa7c64b270d6"),
    ("c(1,1,1) 25 2", "75607f65df1cc3ab3a4c4d803ef17a21a4b77331119dff7a28a545026b31938e"),
    ("c(1,1,1) 25 3", "10fd315c20a4013586144eeeea244b899451c2dfbc60e88c54625805a39b2a25"),
    ("c(1,1,1) 30 2", "0d040d4536c87c1e81f4cd48a21bf8e2a368a4789025e5804ab8f9a16b81dfdc"),
    ("c(1,1,1) 30 3", "9abccebdeb1ab64f0df9982d21403306a34e22a4da724e95ab5f21ce83916f93"),
    ("c(1,1,1) 31 2", "9cc96bec731981887fd1031a3bb42cb2c300caa954c9c3fa803a1e2cdd8d06c5"),
    ("c(1,1,1) 31 3", "2771aa7dadea4eddd80fc78805d9549d25991119c84dd6bd2d563d0318d86d73"),
    ("c(1,1,1) 32 2", "e4b5564df7805b60dd7d618b6fce57f69810e5c4a69c6c819531028759f70bc1"),
    ("c(1,1,1) 32 3", "65e95e5d5745f8275f87ebfdc7fa11baf49b1856e80e90e52f14e4f9d73fde53"),
    ("c(1,1,1) 33 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 33 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 34 2", "72b45c32e60562a9defecdcfd387726fa7dc98672cc3843fc20fcd72840fe0a2"),
    ("c(1,1,1) 34 3", "35c1c96561ec3401538ba6d7e9adbf4a6630598a792db7cda271aa7c64b270d6"),
    ("c(1,1,1) 35 2", "75607f65df1cc3ab3a4c4d803ef17a21a4b77331119dff7a28a545026b31938e"),
    ("c(1,1,1) 35 3", "10fd315c20a4013586144eeeea244b899451c2dfbc60e88c54625805a39b2a25"),
    ("c(1,1,1) 40 2", "ee8d5e77f7ad4429c1057419725754e892f787fb91863039887b69afff2e4939"),
    ("c(1,1,1) 40 3", "5245241171af8d5b3039ed9ae7b54bc6eec9db7aad0917bc5a3fb293ac399cfc"),
    ("c(1,1,1) 41 2", "9cc96bec731981887fd1031a3bb42cb2c300caa954c9c3fa803a1e2cdd8d06c5"),
    ("c(1,1,1) 41 3", "2771aa7dadea4eddd80fc78805d9549d25991119c84dd6bd2d563d0318d86d73"),
    ("c(1,1,1) 42 2", "ccc26a5b1e93a859126758d4b7d2742217eb28aad53cedd0278fbd6adf9288b3"),
    ("c(1,1,1) 42 3", "da1f07eb255fac4e2d8638e9bd8b719b016badfbe68dc44d3b9c6a00699be6ab"),
    ("c(1,1,1) 43 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 43 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 44 2", "bea390b057c04a6ce7fd64c2c1d41c98c910e703a33bb13cda17867b1ae6dfe2"),
    ("c(1,1,1) 44 3", "49163c7b31834a7fb99129dc1caa1ac0fd4023d160ecf10f174534e3655a8fb3"),
    ("c(1,1,1) 45 2", "93f01d5e26fee577397f3c7f59507e36a74fcdf7d033db7e665ad370db81437a"),
    ("c(1,1,1) 45 3", "586b8cc83b35b18f30c2ebd5a1a7b0c340cec244579fab5505e365175c3d7314"),
    ("c(1,1,1) 50 2", "0d040d4536c87c1e81f4cd48a21bf8e2a368a4789025e5804ab8f9a16b81dfdc"),
    ("c(1,1,1) 50 3", "9abccebdeb1ab64f0df9982d21403306a34e22a4da724e95ab5f21ce83916f93"),
    ("c(1,1,1) 51 2", "9cc96bec731981887fd1031a3bb42cb2c300caa954c9c3fa803a1e2cdd8d06c5"),
    ("c(1,1,1) 51 3", "2771aa7dadea4eddd80fc78805d9549d25991119c84dd6bd2d563d0318d86d73"),
    ("c(1,1,1) 52 2", "dcc23e8392348298a5d40255636ebaab4b74b402acb47f03b5331fe3fb0c08cc"),
    ("c(1,1,1) 52 3", "63d4cf940c776de2645fe3acb644fbc8b35649282090fefc6dce9cbb65ada55d"),
    ("c(1,1,1) 53 2", "5b487d6c5fc9bdfede10ef6752a9124fbc6eeaee8bb1330ab0f581d6201c9c4b"),
    ("c(1,1,1) 53 3", "273b69754fe0c2774705c8b0d5f0263fbbbf08920b0b305f4ef9e9ffdd9eac16"),
    ("c(1,1,1) 54 2", "72b45c32e60562a9defecdcfd387726fa7dc98672cc3843fc20fcd72840fe0a2"),
    ("c(1,1,1) 54 3", "35c1c96561ec3401538ba6d7e9adbf4a6630598a792db7cda271aa7c64b270d6"),
    ("c(1,1,1) 55 2", "93f01d5e26fee577397f3c7f59507e36a74fcdf7d033db7e665ad370db81437a"),
    ("c(1,1,1) 55 3", "586b8cc83b35b18f30c2ebd5a1a7b0c340cec244579fab5505e365175c3d7314"),
    ("random 00 2", "d63a59c771093ac9e189fbf1aadc57f3717381032a97f91a75f988375a267e8b"),
    ("random 00 3", "a1815a5d6cb84e7ef218a40f6ed3b164a8443c60ab21882413bd6e96309c8666"),
    ("random 01 2", "0be9aaa4bc53b8cb562a2a396b7a5c50520161854061a902cfc7f033b71e03a8"),
    ("random 01 3", "463119cb926cabb9b042bb8e3d77b6f7304fed84e590faa9b3f6937583b9f000"),
    ("random 02 2", "017300198f4a3bdc7e7d6229795c04a1417fd3fde59d5791229d6883bc8eb65c"),
    ("random 02 3", "463119cb926cabb9b042bb8e3d77b6f7304fed84e590faa9b3f6937583b9f000"),
    ("random 03 2", "34dbc906ba5d7ebaa40ed113906da93c37a1993d9a3436bfb54c7b9ad601c5e1"),
    ("random 03 3", "b0e0e1924490c4f7ab9aa6d2ab73c0971c34ecf1a01bd9f27a130ffa55859bed"),
    ("random 04 2", "e903f3944abc6c30024d837c7e45411b6a1192dd493ca7f96d84652b49cef85a"),
    ("random 04 3", "1a1fd2ea21e564ed1e6df5c25fc393527aba40c85c08640b6115792723ed9d26"),
    ("random 05 2", "84c9f29899571236f06ea734bd7509f99f586867d88a7285b7ca5b5e98cef26f"),
    ("random 05 3", "835e1e3d5235bbdc0979ef3db7dc207e512cc51f207ab28ea08038d061e42bb3"),
    ("random 06 2", "0eec8fbd29d5ccfbec85f8ed0b715174f3e5bc16aa52d9a48f965163b2f36b18"),
    ("random 06 3", "f5f08263af2671b2a51981280e382919d2f6eb21a98d61fb6987a23ff8190200"),
    ("random 07 2", "34dbc906ba5d7ebaa40ed113906da93c37a1993d9a3436bfb54c7b9ad601c5e1"),
    ("random 07 3", "aa835abe80928ef64ad2120049fc8b8ec1552dce16c29b98ec8eb47ae01a2d76"),
    ("random 08 2", "6002e5b72c922c101aca510cd2d6694deb1a6adb9388304a00bf9a9fb264d350"),
    ("random 08 3", "a4118d41c920de64490b43e23c5cd74175852399279436e1721afcaa808ac34d"),
    ("random 09 2", "564be13d900163a605dcf7cd535fee8f975cd6e43770a1e5e9d2652598046ba9"),
    ("random 09 3", "368b5e71b21a0970fe0fd341ed75e661b3ed2f3ab87f6d7d57371e0dfdcc3b7b"),
    ("random 10 2", "96865d9c6f2bf6d25653f217ce48e279c9d89f593dc85cda66cf47d97c18d660"),
    ("random 10 3", "6bd7093b58d30d3e84f9a8219dac9462f85c00912b53a679ce913e8b6d0fb23e"),
    ("random 11 2", "9567c5e9c2b149596e63524e92691e2985c305d54c14c4482f45cd69c830beb8"),
    ("random 11 3", "463119cb926cabb9b042bb8e3d77b6f7304fed84e590faa9b3f6937583b9f000"),
    ("random 12 2", "8aa0ddf0304a2751ef4713adbffc03b0863eba01e621b80882a072f573846a84"),
    ("random 12 3", "7c8bcc407e5bb6ae79ef6030c81858acc661388ec77259a95263b88953c2b73f"),
    ("random 13 2", "db38f87d69d0c4e44e68df62c67815dfcc2d84f5b29b398efedca72f331dd892"),
    ("random 13 3", "e103fca8f46cf33ddf3322c79bdfebe0b893c0bc9e9c930303d6f1264cf83bcf"),
    ("random 14 2", "2aacb9b1a681e3775ff56d45b05e088298e0220a5267a1ec5e3d1ab74d11d8d9"),
    ("random 14 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 15 2", "671a83f5a4f9f6bf090b11fe7ffe56f9d8623ee47b715145a974cdc847d0eb6c"),
    ("random 15 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 16 2", "3bd2c24480e7d2762d78a9bbf077791815f9d7175f0202263cc295417bebff1a"),
    ("random 16 3", "abf9ef984adb2c766347454f02a4057f90c55c8e8e9bd372c7034fd3bf36efa5"),
    ("random 17 2", "7c89242085272178faec265a261dbaff2bf6e08e9b1e719d40fae7dbe376136d"),
    ("random 17 3", "da566695cf8f543db8d4a3a93847794b9ce8b358a98e71d8e0fcb3f48f4a3571"),
    ("random 18 2", "f9426c15fee794c3471ddb77d84b2e812431b63f98ec9d8a317bc898d7c91a1d"),
    ("random 18 3", "93eeb550efd18a93f1da4f013e758c25492c941c125678534bc3b8e7e96f9590"),
    ("random 19 2", "71f87bbe1cee18afb0edb2a47522c545558ab270538bb8f7c70ef09b9ff3b173"),
    ("random 19 3", "b3568eb2eac0fa51cae302c9220fb3739be68539b72fb87facf3d72aa4d283fb"),
    ("random 20 2", "9d06eff28ba415b242fd6c9eed4b2cdf245d5ed523328fc5c13b024656ad7ac3"),
    ("random 20 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 21 2", "1327097ea767c8d88606b8a6a90b2cfb32c435a88411bd59b18fa5697b20daaf"),
    ("random 21 3", "443683ea25c1d0a4a10429b23a625e3d011b4a874b87fff4e95e8dc8f0250641"),
    ("random 22 2", "d7d429def6b424f3a94a1f6c6bd14ab1490059bcbf6da25caad152b0cf602a2f"),
    ("random 22 3", "a2a3cdf557c2d1a10331811470dc7cc18d9c5b595a43ce81569e168cd4326c35"),
    ("random 23 2", "2d33e3113dc3f5dba5ca4d11fdafcf7806a3c94c7b83a6643412ddbadcf7335b"),
    ("random 23 3", "b3b35a52d959090528c5eb08b30f9cad4ac31374756bd871905c2fa44906e283"),
    ("random 24 2", "c6b0ba2c6279a79225746ebc6969189a6fd376138a35466ef985b1b5e1e029ab"),
    ("random 24 3", "75ee2076a5af1a4f634ff2362ff63170b0e4b1ec3e10213de2f9230109e73f05"),
    ("random 25 2", "a95ffed1fc2eeeb6182f9ebd25ad6cd52aaaf063618ab296a6774b7fce9ca319"),
    ("random 25 3", "ea604996c0e5d8e20a42b2497787cd4559de0518dc2f849a8173c2dc090bc887"),
    ("random 26 2", "fba3a615fbdd72c0baceb71bcf88af24271884eaf4e90833b8233f4fdefa5002"),
    ("random 26 3", "70205213a551550b078bf46c2d3f0df18d60cf20a3ff8d676f1512c6b7ea9647"),
    ("random 27 2", "d759b5efbb05fe6a6fa73ad8594e0a5c17ee3a05e79888e35938c514d9e88a54"),
    ("random 27 3", "877894a10bec5d5eae009ef7e2adf4a5bd3099c5aa2abe0777d3c922a7ec8359"),
    ("random 28 2", "64992ca99d9d32b47b6e41dbf3d188f718bb46d03f5ffd5344d4391e6c4d2dd3"),
    ("random 28 3", "7ae647a1e6a58e3aa3dba4863ed155ace94bc12a501ca774ee667a051948635d"),
    ("random 29 2", "434c78f18729ec6b735c4fc0f97134255cb85cde87851a86146fa883e0006964"),
    ("random 29 3", "463119cb926cabb9b042bb8e3d77b6f7304fed84e590faa9b3f6937583b9f000"),
    ("random 30 2", "02a889c46a431fe014cd18ffb62aba47582f8eed0783e70cbf6e0ae1b5130695"),
    ("random 30 3", "923c3b608566bccd3a0e4e0e2f0654433fa06d804a90f6decc2c3715b3978960"),
    ("random 31 2", "15d8e61c6dfa0c6edfc1b8912614cf50d90f6be8d25f5a20809d24e2284cfb28"),
    ("random 31 3", "e7eb764dd703755a293789dbc03285623a23ed26aab9b3f90ee8261381c25c31"),
    ("random 32 2", "115297dd3117b98c16477927041b3f28bece8aea35a146e8c15446de15abd7e9"),
    ("random 32 3", "542370bf8d21e3c722b0b610396d26181c464fbf9fc570418713800a1b882053"),
    ("random 33 2", "1973a9c8e7977dbfb6a4e7d1e6ed2f17fc9ea5aa483cf8d181ea8d346e09575c"),
    ("random 33 3", "20aa99cd9d07d26b72e0b237fcc33323e091fbced4af47938638d8c201ad0bad"),
    ("random 34 2", "d957af0c9535410ba9e0aece2248d2b304b12db4f9288a0f074b3b62adfbb8f3"),
    ("random 34 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 35 2", "13b869f0a46efe0c81a88d55e18ffc5683276e3f2f7c29692868354ddbfaee59"),
    ("random 35 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 36 2", "34dbc906ba5d7ebaa40ed113906da93c37a1993d9a3436bfb54c7b9ad601c5e1"),
    ("random 36 3", "b5d008d54c43bc2ef355eefc48177a510692d50cac64419a7b4656bdd932925c"),
    ("random 37 2", "7077315c3f8d5cfbcfae23cf59d9eb6db3bce0279691d02e54ab3986e329a467"),
    ("random 37 3", "c385c38e7835ef8b5153aef2b7687c00d8125131b651a3ee5baf25a0010d4c5c"),
    ("random 38 2", "bffa3c83193b3374c715d81ed9caa60a06ed82a4779b3acc74be42f4979ae0be"),
    ("random 38 3", "852f2911031d2cc99719f24bc6ebdb2d54a6430680885376d0fdf4719085d918"),
    ("random 39 2", "00ff7f1c44e8478cf4b5fa6eae15f07aa54907dcb11f06075e7776432f5be7e5"),
    ("random 39 3", "8dc070dd8125480efa77a5be4f4fc61a250c0169f6cdd802b63eec986601c6f2"),
]

_ASCENT_FAILURE_RATIOS = {
    "eternal 00 2": "0x1.ffffffffffe2ep-1",
    "eternal 01 2": "0x1.ffffffffffe5ap-1",
    "eternal 02 2": "0x1.ffffffffffe5cp-1",
    "eternal 03 2": "0x1.ffffffffffe60p-1",
    "eternal 04 2": "0x1.ffffffffffe67p-1",
    "eternal 05 2": "0x1.ffffffffffe50p-1",
    "c(1,1,1) 00 2": "0x1.0000000000001p+0",
    "c(1,1,1) 00 3": "0x1.0000000000002p+0",
    "c(1,1,1) 01 2": "0x1.0000000000002p+0",
    "c(1,1,1) 01 3": "0x1.0000000000001p+0",
    "c(1,1,1) 02 2": "0x1.0000000000002p+0",
    "c(1,1,1) 02 3": "0x1.0000000000002p+0",
    "c(1,1,1) 03 2": "0x1.0000000000001p+0",
    "c(1,1,1) 03 3": "0x1.0000000000000p+0",
    "c(1,1,1) 04 2": "0x1.0000000000002p+0",
    "c(1,1,1) 04 3": "0x1.0000000000004p+0",
    "c(1,1,1) 05 2": "0x1.0000000000001p+0",
    "c(1,1,1) 05 3": "0x1.0000000000004p+0",
    "c(1,1,1) 10 2": "0x1.0000000000001p+0",
    "c(1,1,1) 10 3": "0x1.0000000000002p+0",
    "c(1,1,1) 11 2": "0x1.0000000000004p+0",
    "c(1,1,1) 11 3": "0x1.0000000000001p+0",
    "c(1,1,1) 12 2": "0x1.0000000000001p+0",
    "c(1,1,1) 12 3": "0x1.0000000000002p+0",
    "c(1,1,1) 13 2": "0x1.0000000000001p+0",
    "c(1,1,1) 13 3": "0x1.0000000000000p+0",
    "c(1,1,1) 14 2": "0x1.0000000000002p+0",
    "c(1,1,1) 14 3": "0x1.0000000000004p+0",
    "c(1,1,1) 15 2": "0x1.0000000000002p+0",
    "c(1,1,1) 15 3": "0x1.0000000000001p+0",
    "c(1,1,1) 20 2": "0x1.0000000000001p+0",
    "c(1,1,1) 20 3": "0x1.0000000000002p+0",
    "c(1,1,1) 21 2": "0x1.0000000000002p+0",
    "c(1,1,1) 21 3": "0x1.0000000000001p+0",
    "c(1,1,1) 22 2": "0x1.0000000000002p+0",
    "c(1,1,1) 22 3": "0x1.0000000000002p+0",
    "c(1,1,1) 23 2": "0x1.0000000000001p+0",
    "c(1,1,1) 23 3": "0x1.0000000000000p+0",
    "c(1,1,1) 24 2": "0x1.0000000000002p+0",
    "c(1,1,1) 24 3": "0x1.0000000000004p+0",
    "c(1,1,1) 25 2": "0x1.0000000000001p+0",
    "c(1,1,1) 25 3": "0x1.0000000000004p+0",
    "c(1,1,1) 30 2": "0x1.0000000000003p+0",
    "c(1,1,1) 30 3": "0x1.0000000000004p+0",
    "c(1,1,1) 31 2": "0x1.0000000000004p+0",
    "c(1,1,1) 31 3": "0x1.0000000000001p+0",
    "c(1,1,1) 32 2": "0x1.0000000000001p+0",
    "c(1,1,1) 32 3": "0x1.0000000000002p+0",
    "c(1,1,1) 33 2": "0x1.0000000000001p+0",
    "c(1,1,1) 33 3": "0x1.0000000000000p+0",
    "c(1,1,1) 34 2": "0x1.0000000000002p+0",
    "c(1,1,1) 34 3": "0x1.0000000000004p+0",
    "c(1,1,1) 35 2": "0x1.0000000000001p+0",
    "c(1,1,1) 35 3": "0x1.0000000000004p+0",
    "c(1,1,1) 40 2": "0x1.0000000000004p+0",
    "c(1,1,1) 40 3": "0x1.0000000000001p+0",
    "c(1,1,1) 41 2": "0x1.0000000000004p+0",
    "c(1,1,1) 41 3": "0x1.0000000000001p+0",
    "c(1,1,1) 42 2": "0x1.0000000000002p+0",
    "c(1,1,1) 42 3": "0x1.0000000000001p+0",
    "c(1,1,1) 43 2": "0x1.0000000000001p+0",
    "c(1,1,1) 43 3": "0x1.0000000000000p+0",
    "c(1,1,1) 44 2": "0x1.0000000000003p+0",
    "c(1,1,1) 44 3": "0x1.0000000000002p+0",
    "c(1,1,1) 45 2": "0x1.0000000000002p+0",
    "c(1,1,1) 45 3": "0x1.0000000000001p+0",
    "c(1,1,1) 50 2": "0x1.0000000000003p+0",
    "c(1,1,1) 50 3": "0x1.0000000000004p+0",
    "c(1,1,1) 51 2": "0x1.0000000000004p+0",
    "c(1,1,1) 51 3": "0x1.0000000000001p+0",
    "c(1,1,1) 52 2": "0x1.0000000000002p+0",
    "c(1,1,1) 52 3": "0x1.0000000000002p+0",
    "c(1,1,1) 53 2": "0x1.0000000000001p+0",
    "c(1,1,1) 53 3": "0x1.0000000000000p+0",
    "c(1,1,1) 54 2": "0x1.0000000000002p+0",
    "c(1,1,1) 54 3": "0x1.0000000000004p+0",
    "c(1,1,1) 55 2": "0x1.0000000000002p+0",
    "c(1,1,1) 55 3": "0x1.0000000000001p+0",
    "random 01 2": "0x1.0000000000001p+0",
    "random 01 3": "0x1.0000000000000p+0",
    "random 02 2": "0x1.0000000000001p+0",
    "random 02 3": "0x1.0000000000000p+0",
    "random 11 2": "0x1.ffffffffffffap-1",
    "random 11 3": "0x1.0000000000000p+0",
    "random 14 2": "0x1.0000000000000p+0",
    "random 15 2": "0x1.fffffffffffdcp-1",
    "random 15 3": "0x1.0000000000000p+0",
    "random 20 2": "0x1.fffffffffff84p-1",
    "random 24 2": "0x1.ffffffffffe80p-1",
    "random 29 2": "0x1.ffffffffffff6p-1",
    "random 34 2": "0x1.ffffffffffff6p-1",
    "random 34 3": "0x1.0000000000000p+0",
    "random 35 2": "0x1.fffffffffffadp-1",
    "random 37 2": "0x1.0000000000000p+0",
    "random 37 3": "0x1.0000000000000p+0",
    "random 39 2": "0x1.fffffffffffe8p-1",
    "random 39 3": "0x1.fffffffffffffp-1",
}
