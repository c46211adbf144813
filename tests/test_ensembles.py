"""Tests for POVMs, subsystem measurements, and the correlation optimizers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from backflow import ensembles
from backflow.ensembles import (
    Povm,
    apply_local_channel,
    construct_me_povm,
    correlation_C2,
    correlation_C_general,
    correlation_CA2,
    correlation_CB2,
    is_me_povm,
    random_local_cptp,
)
from backflow.errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    InvalidStateError,
    SubsystemIndexError,
)
from backflow.linalg import (
    PAULIS,
    DensityMatrix,
    as_matrix,
    max_entangled_state,
    maximally_mixed,
    pure_state,
    random_density_matrix,
    tensor_product,
    trace_norm,
)
from oracles import (
    EnsembleMember,
    OptimizerBudget,
    StateEnsemble,
    construct_me_povm_loop,
    guessing_probability_bruteforce,
    guessing_probability_two,
    measure_on_subsystem,
    partial_trace,
)

SMALL_BUDGET = OptimizerBudget(seeds=4, max_iterations=200)


def diag_state(*vals: float) -> DensityMatrix:
    return DensityMatrix(np.diag(vals).astype(complex), (len(vals),))


def flag_state(rho_a: np.ndarray, rho_b: np.ndarray, dims: tuple[int, ...],
               p: float = 0.5) -> DensityMatrix:
    """p |0><0| (x) rho_a + (1-p) |1><1| (x) rho_b on (2,) + dims."""
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mat = p * np.kron(zero, rho_a) + (1.0 - p) * np.kron(one, rho_b)
    return DensityMatrix(mat, (2,) + dims)


def trine_ensemble() -> StateEnsemble:
    members = []
    for k in range(3):
        angle = 2.0 * math.pi * k / 3.0
        vec = np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)])
        members.append(EnsembleMember(probability=1.0 / 3.0, state=pure_state(vec, (2,))))
    return StateEnsemble(members=tuple(members))


class TestConstructMePovm:
    """The interval construction and its certificate."""

    def test_worked_example(self):
        state = diag_state(0.7, 0.3)
        povm = construct_me_povm(state, n_outputs=2)
        want_first = np.diag([5.0 / 7.0, 0.0])
        want_second = np.diag([2.0 / 7.0, 1.0])
        assert np.allclose(povm.effects[0], want_first, atol=1e-12)
        assert np.allclose(povm.effects[1], want_second, atol=1e-12)

    def test_worked_example_certificate(self):
        state = diag_state(0.7, 0.3)
        cert = is_me_povm(construct_me_povm(state, 2), state)
        assert cert.equiprobable
        assert cert.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_maximally_mixed(self):
        state = maximally_mixed((2,))
        cert = is_me_povm(construct_me_povm(state, 2), state)
        assert cert.equiprobable

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pure_state_split(self, n):
        # All mass on one level: each effect carries weight 1/n of it.
        state = pure_state(np.array([1.0, 1.0j]), (2,))
        povm = construct_me_povm(state, n)
        cert = is_me_povm(povm, state)
        assert cert.equiprobable
        assert cert.max_deviation < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_states_equiprobable(self, n, seed):
        state = random_density_matrix(np.random.default_rng(seed), 4)
        povm = construct_me_povm(state, n)
        cert = is_me_povm(povm, state)
        assert povm.n_outputs == n
        assert cert.equiprobable
        assert cert.max_deviation < 1e-10

    def test_three_outputs_exact_thirds(self):
        state = random_density_matrix(np.random.default_rng(5), 3)
        cert = is_me_povm(construct_me_povm(state, 3), state)
        assert cert.probabilities == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_rank_deficient_state(self):
        state = diag_state(0.6, 0.4, 0.0)
        povm = construct_me_povm(state, 2)
        cert = is_me_povm(povm, state)
        assert cert.equiprobable
        # the POVM must still be complete on the full space
        assert np.allclose(sum(povm.effects), np.eye(3), atol=1e-12)

    def test_too_few_outputs(self):
        with pytest.raises(DegenerateSplitError):
            construct_me_povm(maximally_mixed((2,)), n_outputs=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True], ids=repr)
    def test_non_integral_count_rejected(self, n):
        # 2.5 once built three effects with probabilities 0.4, 0.4, 0.2
        state = random_density_matrix(np.random.default_rng(0), 4)
        with pytest.raises(DegenerateSplitError):
            construct_me_povm(state, n)

    def test_numpy_integer_count_accepted(self):
        state = random_density_matrix(np.random.default_rng(0), 4)
        povm = construct_me_povm(state, np.int64(3))
        assert povm.n_outputs == 3
        assert is_me_povm(povm, state).equiprobable

    def test_matches_loop_form_bit_for_bit(self):
        # a third of the states are rank-deficient, so zero-mass levels occur
        rng = np.random.default_rng(20)
        for k in range(600):
            d, n = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            rank = int(rng.integers(1, d)) if k % 3 == 0 else d
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            mat = g @ g.conj().T
            state = DensityMatrix(mat / np.trace(mat).real, (d,), _skip_checks=True)
            got = construct_me_povm(state, n).effects
            want = construct_me_povm_loop(state, n).effects
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, d, rank, n)


class TestPovmValidation:
    def test_incomplete_sum_rejected(self):
        half = 0.4 * np.eye(2, dtype=complex)
        with pytest.raises(DimensionMismatchError):
            Povm(effects=(half, half))

    def test_negative_effect_rejected(self):
        a = np.diag([1.2, 0.5]).astype(complex)
        b = np.eye(2, dtype=complex) - a
        with pytest.raises(DimensionMismatchError):
            Povm(effects=(a, b))

    def test_non_hermitian_rejected(self):
        a = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        b = np.eye(2, dtype=complex) - a
        with pytest.raises(DimensionMismatchError):
            Povm(effects=(a, b))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Povm(effects=(np.eye(2, dtype=complex), np.zeros((3, 3), dtype=complex)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DimensionMismatchError):
            Povm(effects=(np.full((2, 2), bad), np.eye(2)))

    @pytest.mark.parametrize("effects", [
        (),
        (np.float64(1.0),),
        (np.ones(2),),
        (np.zeros((2, 3)),),
        (np.zeros((1, 2, 2)),),
    ], ids=["empty", "scalar", "vector", "rectangular", "three-d"])
    def test_non_square_or_empty_rejected(self, effects):
        with pytest.raises(DimensionMismatchError):
            Povm(effects=effects)

    def test_valid_povm_properties(self):
        povm = Povm(effects=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
        assert povm.n_outputs == 2
        assert povm.dim == 2


class TestIsMePovm:
    def test_biased_detected(self):
        povm = Povm(effects=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
        cert = is_me_povm(povm, diag_state(0.7, 0.3))
        assert not cert.equiprobable
        assert cert.max_deviation == pytest.approx(0.2, abs=1e-12)
        assert cert.probabilities == pytest.approx((0.7, 0.3))

    def test_dimension_mismatch_rejected(self):
        povm = construct_me_povm(maximally_mixed((2,)), 2)
        with pytest.raises(DimensionMismatchError):
            is_me_povm(povm, maximally_mixed((3,)))


class TestStateEnsemble:
    def test_probabilities_must_normalize(self):
        member = EnsembleMember(probability=0.4, state=maximally_mixed((2,)))
        with pytest.raises(InvalidStateError):
            StateEnsemble(members=(member, member))

    def test_negative_probability_rejected(self):
        good = EnsembleMember(probability=1.5, state=maximally_mixed((2,)))
        bad = EnsembleMember(probability=-0.5, state=maximally_mixed((2,)))
        with pytest.raises(InvalidStateError):
            StateEnsemble(members=(good, bad))

    def test_empty_rejected(self):
        with pytest.raises(InvalidStateError):
            StateEnsemble(members=())

    def test_dimension_mismatch_rejected(self):
        a = EnsembleMember(probability=0.5, state=maximally_mixed((2,)))
        b = EnsembleMember(probability=0.5, state=maximally_mixed((3,)))
        with pytest.raises(DimensionMismatchError):
            StateEnsemble(members=(a, b))

    def test_accessors(self):
        ens = trine_ensemble()
        assert ens.probabilities == pytest.approx((1 / 3,) * 3)
        assert len(ens.states) == 3


class TestMeasureOnSubsystem:
    def test_product_state_conditionals(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 3)
        joint = DensityMatrix(np.kron(as_matrix(rho), as_matrix(sig)), (2, 3))
        povm = construct_me_povm(rho, 2)
        ens = measure_on_subsystem(joint, povm, side=0)
        for member in ens.members:
            assert member.probability == pytest.approx(0.5, abs=1e-10)
            assert np.allclose(as_matrix(member.state), as_matrix(sig), atol=1e-10)
            assert member.state.dims == (3,)

    def test_bell_computational_readout(self):
        bell = max_entangled_state()
        povm = Povm(effects=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
        ens = measure_on_subsystem(bell, povm, side="A")
        assert ens.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert np.allclose(as_matrix(ens.states[0]), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(as_matrix(ens.states[1]), np.diag([0.0, 1.0]), atol=1e-12)

    def test_flag_state_side_a(self):
        rng = np.random.default_rng(2)
        rho_a = as_matrix(random_density_matrix(rng, 6))
        rho_b = as_matrix(random_density_matrix(rng, 6))
        probe = flag_state(rho_a, rho_b, (3, 2))
        povm = Povm(effects=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
        ens = measure_on_subsystem(probe, povm, side="A")
        assert ens.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert np.allclose(as_matrix(ens.states[0]), rho_a, atol=1e-12)
        assert np.allclose(as_matrix(ens.states[1]), rho_b, atol=1e-12)
        assert ens.states[0].dims == (3, 2)

    def test_side_b_measures_rest(self):
        probe = flag_state(np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex), (2,))
        povm = construct_me_povm(partial_trace(probe, keep=(1,)), 2)
        ens = measure_on_subsystem(probe, povm, side="B")
        assert ens.states[0].dims == (2,)
        assert sum(ens.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_tuple_side(self):
        rng = np.random.default_rng(3)
        parts = [as_matrix(random_density_matrix(rng, d)) for d in (2, 3, 2)]
        joint = DensityMatrix(tensor_product(*parts), (2, 3, 2))
        meas_marginal = DensityMatrix(np.kron(parts[0], parts[2]), (4,))
        povm = construct_me_povm(meas_marginal, 2)
        ens = measure_on_subsystem(joint, povm, side=(0, 2))
        for member in ens.members:
            assert member.state.dims == (3,)
            assert np.allclose(as_matrix(member.state), parts[1], atol=1e-10)

    def test_degenerate_outcome_flagged(self):
        # measuring |0> against the |1| projector yields probability zero
        state = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex), (2, 2))
        povm = Povm(effects=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
        ens = measure_on_subsystem(state, povm, side=0)
        assert not ens.members[0].degenerate
        assert ens.members[1].degenerate
        assert ens.members[1].probability == 0.0
        assert np.allclose(as_matrix(ens.members[1].state), np.eye(2) / 2)

    def test_povm_dimension_mismatch(self):
        bell = max_entangled_state()
        povm = construct_me_povm(maximally_mixed((3,)), 2)
        with pytest.raises(DimensionMismatchError):
            measure_on_subsystem(bell, povm, side=0)

    def test_cannot_measure_everything(self):
        state = maximally_mixed((2,))
        povm = construct_me_povm(state, 2)
        with pytest.raises(SubsystemIndexError):
            measure_on_subsystem(state, povm, side=0)

    def test_unknown_side_string(self):
        bell = max_entangled_state()
        povm = construct_me_povm(maximally_mixed((2,)), 2)
        with pytest.raises(SubsystemIndexError):
            measure_on_subsystem(bell, povm, side="C")


class TestGuessingProbabilityTwo:
    def test_orthogonal_states(self):
        zero = pure_state(np.array([1.0, 0.0]), (2,))
        one = pure_state(np.array([0.0, 1.0]), (2,))
        assert guessing_probability_two(zero, one) == pytest.approx(1.0)

    def test_identical_states(self):
        state = random_density_matrix(np.random.default_rng(0), 3)
        assert guessing_probability_two(state, state) == pytest.approx(0.5, abs=1e-12)

    def test_pure_vs_mixed(self):
        zero = pure_state(np.array([1.0, 0.0]), (2,))
        assert guessing_probability_two(zero, maximally_mixed((2,))) == pytest.approx(0.75)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            guessing_probability_two(maximally_mixed((2,)), maximally_mixed((3,)))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(rng, 3)
        b = random_density_matrix(rng, 3)
        val = guessing_probability_two(a, b)
        assert 0.5 - 1e-12 <= val <= 1.0 + 1e-12


class TestBruteforceDiscrimination:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_two_state_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        ens = StateEnsemble(members=(
            EnsembleMember(probability=0.5, state=a),
            EnsembleMember(probability=0.5, state=b),
        ))
        res = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        assert res.value == pytest.approx(guessing_probability_two(a, b), abs=1e-8)

    def test_trine(self):
        res = guessing_probability_bruteforce(trine_ensemble(), SMALL_BUDGET)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert res.converged

    def test_zero_plus_ensemble(self):
        ens = StateEnsemble(members=(
            EnsembleMember(probability=0.5, state=pure_state(np.array([1.0, 0.0]), (2,))),
            EnsembleMember(probability=0.5, state=pure_state(np.array([1.0, 1.0]), (2,))),
        ))
        res = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        assert res.value == pytest.approx(0.25 * (2.0 + math.sqrt(2.0)), abs=1e-8)

    def test_identical_states_floor(self):
        state = maximally_mixed((2,))
        members = tuple(EnsembleMember(probability=0.25, state=state) for _ in range(4))
        res = guessing_probability_bruteforce(StateEnsemble(members=members), SMALL_BUDGET)
        assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_skewed_prior_baseline(self):
        # guessing the likeliest label never does worse than its prior
        state = maximally_mixed((2,))
        ens = StateEnsemble(members=(
            EnsembleMember(probability=0.9, state=state),
            EnsembleMember(probability=0.1, state=state),
        ))
        res = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        assert res.value >= 0.9 - 1e-9

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_value_is_attained_by_reported_povm(self, seed):
        rng = np.random.default_rng(seed)
        members = []
        probs = rng.dirichlet(np.ones(3))
        for p in probs:
            members.append(EnsembleMember(probability=float(p),
                                          state=random_density_matrix(rng, 2)))
        ens = StateEnsemble(members=tuple(members))
        res = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        payoff = sum(
            p * float(np.trace(as_matrix(s) @ e).real)
            for p, s, e in zip(ens.probabilities, ens.states, res.povm.effects)
        )
        assert payoff == pytest.approx(res.value, abs=1e-7)
        assert res.povm.n_outputs == 3

    def test_deterministic_given_budget(self):
        ens = trine_ensemble()
        a = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        b = guessing_probability_bruteforce(ens, SMALL_BUDGET)
        assert a.value == b.value


def two_qubit_corpus(seed: int, count: int) -> list[DensityMatrix]:
    """Full-rank, rank-two and near-product two-qubit states, in turn."""
    rng = np.random.default_rng(seed)
    states = []
    for k in range(count):
        if k % 3 == 1:
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            mat = g @ g.conj().T
            mat /= np.trace(mat).real
        elif k % 3 == 2:
            a, b = (as_matrix(random_density_matrix(rng, 2)) for _ in range(2))
            mat = (1.0 - 1e-3) * np.kron(a, b) + 1e-3 * as_matrix(random_density_matrix(rng, 4))
        else:
            mat = as_matrix(random_density_matrix(rng, 4))
        states.append(DensityMatrix(mat, (2, 2)))
    return states


def diagonal_correlations(r_z: float, corr) -> np.ndarray:
    """(1 + r_z sigma_z (x) 1 + sum_k corr_k sigma_k (x) sigma_k) / 4."""
    mat = np.eye(4, dtype=complex) + r_z * np.kron(PAULIS[3], PAULIS[0])
    for c, sigma in zip(corr, PAULIS[1:]):
        mat += c * np.kron(sigma, sigma)
    return mat / 4.0


def pure_two_qubit(theta: float) -> np.ndarray:
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    return np.outer(psi, psi).astype(complex)


def halves(state: DensityMatrix) -> tuple[float, float]:
    return correlation_CA2(state), correlation_CB2(state)


def locally_rotated(mat: np.ndarray, rng: np.random.Generator) -> DensityMatrix:
    """mat conjugated by a random product unitary ua (x) ub."""
    ua, ub = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
              for _ in range(2))
    u = np.kron(ua, ub)
    return DensityMatrix(u @ mat @ u.conj().T, (2, 2))


class TestCorrelationTwoOutputs:
    def test_flag_state_closed_form(self):
        # measuring the flag: the best split recovers half the trace distance
        rng = np.random.default_rng(21)
        rho_a = as_matrix(random_density_matrix(rng, 3))
        rho_b = as_matrix(random_density_matrix(rng, 3))
        probe = flag_state(rho_a, rho_b, (3,))
        want = 0.25 * trace_norm(rho_a - rho_b)
        assert correlation_CA2(probe) == pytest.approx(want, abs=1e-6)

    def test_bell_state_value(self):
        assert correlation_CA2(max_entangled_state()) == pytest.approx(0.5, abs=1e-7)

    def test_product_state_vanishes(self):
        rng = np.random.default_rng(5)
        rho = as_matrix(random_density_matrix(rng, 2))
        sig = as_matrix(random_density_matrix(rng, 3))
        prod = DensityMatrix(np.kron(rho, sig), (2, 3))
        assert correlation_CA2(prod) <= 1e-7
        assert correlation_CB2(prod) <= 1e-7

    def test_unitary_invariance(self):
        # both sides qubits: the exact solver, so invariance holds to rounding
        rng = np.random.default_rng(33)
        for state in two_qubit_corpus(8, 12):
            rotated = locally_rotated(as_matrix(state), rng)
            for before, after in zip(halves(state), halves(rotated)):
                assert after == pytest.approx(before, abs=1e-12)

    def test_cb2_flag_dual_matches_ascent(self):
        from backflow.ensembles import _two_output_me_general

        rng = np.random.default_rng(7)
        rho_a = as_matrix(random_density_matrix(rng, 3))
        rho_b = as_matrix(random_density_matrix(rng, 3))
        probe = flag_state(rho_a, rho_b, (3,))
        exact = correlation_CB2(probe)
        ascent = _two_output_me_general(probe, (1,))
        assert ascent == pytest.approx(exact, abs=1e-6)

    def test_cb2_nonuniform_flag(self):
        rng = np.random.default_rng(9)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        probe = flag_state(rho_a, rho_b, (2,), p=0.7)
        from backflow.ensembles import _two_output_me_general

        exact = correlation_CB2(probe)
        ascent = _two_output_me_general(probe, (1,))
        assert ascent == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ca2_dominates_cb2_on_flag_states(self, seed):
        rng = np.random.default_rng(seed)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        probe = flag_state(rho_a, rho_b, (2,))
        ca2 = correlation_CA2(probe)
        cb2 = correlation_CB2(probe)
        assert ca2 >= cb2 - 1e-6
        assert correlation_C2(probe) == pytest.approx(max(ca2, cb2), abs=1e-12)


def _fibonacci_directions(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    rad = np.sqrt(1.0 - z * z)
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)


def _grid_value(state: DensityMatrix, side: tuple[int, ...], count: int) -> float:
    """Best two-output equiprobable value over count fixed Bloch directions.

    For a unit direction v the equiprobable effect with the longest Bloch
    vector is P = a 1 + b v.sigma with b = 1 / (2 (1 + |v.r|)) and
    a = 1/2 - b v.r (r the measured qubit's Bloch vector); its value is
    1/2 ||Tr_meas[rho ((2P - 1) (x) 1)]||_1.
    """
    d_a, d_b = state.dims
    tensor = as_matrix(state).reshape(d_a, d_b, d_a, d_b)
    if side == (1,):
        tensor = tensor.transpose(1, 0, 3, 2)
    sigma = np.stack(PAULIS[1:])
    r_bloch = np.einsum("arbr,kba->k", tensor, sigma).real
    v = _fibonacci_directions(count)
    vr = v @ r_bloch
    b = 1.0 / (2.0 * (1.0 + np.abs(vr)))
    a = 0.5 - b * vr
    effects = a[:, None, None] * np.eye(2) + b[:, None, None] * np.tensordot(v, sigma, axes=1)
    # kernel_rs = sum_ab tensor[a, r, b, s] X[b, a] as one matrix product
    ops = (2.0 * effects - np.eye(2)).reshape(count, 4)
    kernels = (ops @ tensor.transpose(2, 0, 1, 3).reshape(4, d_b * d_b)).reshape(count, d_b, d_b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(kernels)).sum(axis=1).max())


class TestQubitSphereSearch:
    def test_beats_dense_grid(self):
        rng = np.random.default_rng(7)
        misses = []
        for k in range(200):
            d = (4, 6, 8)[k % 3]
            state = DensityMatrix(as_matrix(random_density_matrix(rng, d)), (2, d // 2))
            for side in ((0,), (1,)) if d == 4 else ((0,),):
                got = correlation_CA2(state) if side == (0,) else correlation_CB2(state)
                floor = _grid_value(state, side, 20_000)
                if not floor - 1e-9 <= got <= 0.5:
                    misses.append((k, side, floor - got))
        assert not misses

    def test_one_step_keeps_best_grid_point(self, monkeypatch):
        monkeypatch.setattr(ensembles, "_SPHERE_STEPS", 1)
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = DensityMatrix(as_matrix(random_density_matrix(rng, 6)), (2, 3))
            got = correlation_CA2(state)
            assert got >= _grid_value(state, (0,), 64) - 1e-12

    def test_deterministic_given_budget(self):
        rng = np.random.default_rng(12)
        state = DensityMatrix(as_matrix(random_density_matrix(rng, 8)), (2, 4))
        assert correlation_CA2(state) == correlation_CA2(state)

    @pytest.mark.parametrize("rho_a", [np.eye(2) / 2, np.diag([0.75, 0.25])])
    def test_product_state_keeps_unit_directions(self, monkeypatch, rho_a):
        # binary-exact product entries make every A_k, hence every g, exactly zero
        import backflow.ensembles as ens

        steps = []
        argmax = ens._sphere_argmax

        def checked(g, r_bloch, v):
            out = argmax(g, r_bloch, v)
            steps.append(out)
            return out

        monkeypatch.setattr(ens, "_sphere_argmax", checked)
        prod = DensityMatrix(np.kron(rho_a, np.diag([0.5, 0.25, 0.25])).astype(complex), (2, 3))
        got = correlation_CA2(prod)
        assert 0.0 <= got <= 1e-7
        assert steps
        for out in steps:
            assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def search_and_grid(state: DensityMatrix, side: tuple[int, ...]) -> float:
    return max(ensembles._two_output_me_qubit(state, side), _grid_value(state, side, 20_000))


class TestTwoQubitExact:
    """Both sides qubits: the closed-form maximiser of f(v) = ||C^T v|| / (2 (1 + |r.v|))."""

    def test_matches_sphere_search(self):
        # the sphere search stays an independent oracle for this case
        for state in two_qubit_corpus(5, 90):
            for side, exact in zip(((0,), (1,)), halves(state)):
                search = ensembles._two_output_me_qubit(state, side)
                assert 0.0 <= exact <= 0.5
                assert exact >= search - 1e-12
                assert abs(exact - search) <= 1e-9

    def test_bell_state_is_one_half(self):
        for value in halves(max_entangled_state()):
            assert value == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("rho_a", [np.diag([1.0, 0.0]), np.eye(2) / 2, np.diag([0.75, 0.25])])
    @pytest.mark.parametrize("rho_b", [np.diag([0.0, 1.0]), np.eye(2) / 2, np.diag([0.25, 0.75])])
    def test_binary_exact_products_are_zero(self, rho_a, rho_b):
        # a pure marginal (|r| = 1) included: nothing divides by 1 - |r|^2
        prod = DensityMatrix(np.kron(rho_a, rho_b).astype(complex), (2, 2))
        assert halves(prod) == (0.0, 0.0)

    @pytest.mark.parametrize("name,mat,want", [
        # r = 0: f = ||C^T v|| / 2, largest at the top singular value
        ("bell-diagonal", diagonal_correlations(0.0, (0.5, -0.3, 0.2)), (0.25, 0.25)),
        ("bell-diagonal, degenerate", diagonal_correlations(0.0, (0.4, -0.4, 0.1)), (0.2, 0.2)),
        ("werner", diagonal_correlations(0.0, (0.6, -0.6, 0.6)), (0.3, 0.3)),
        # r along M's eigenvector e_z: side A peaks at e_z (0.5 / (2 * 1.2)),
        # side B (r = 0) at 0.5 / 2
        ("r along an eigenvector", diagonal_correlations(0.2, (0.3, -0.2, 0.5)),
         (5.0 / 24.0, 0.25)),
        # ... and side A on the rim r.v = 0, at e_x
        ("r along an eigenvector, rim", diagonal_correlations(0.1, (0.5, -0.45, 0.05)),
         (0.25, 0.25)),
        # diagonal: only C_zz = T_zz - r_z s_z survives; f peaks at e_z,
        # |C_zz| / (2 (1 + |r_z|))
        ("classical", np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), (0.2, 0.4 / 2.4)),
        # cos t |00> + sin t |11>: C = diag(s, -s, s^2), s = sin 2t, so the top
        # is s / 2 at e_x
        ("near-pure marginal", pure_two_qubit(1e-4), (0.5 * math.sin(2e-4),) * 2),
        ("pure", pure_two_qubit(0.3), (0.5 * math.sin(0.6),) * 2),
    ])
    def test_edge_states(self, name, mat, want):
        state = DensityMatrix(mat, (2, 2))
        for side, got, value in zip(((0,), (1,)), halves(state), want):
            assert got == pytest.approx(value, rel=1e-12, abs=1e-15), name
            assert got >= search_and_grid(state, side) - 1e-12, name

    def test_rotated_bell_diagonal(self):
        # r = 0 up to rounding, which leaves a pole too weak to resolve at each
        # eigenvalue of M; the hard-case points stand in for its two roots
        rng = np.random.default_rng(34)
        mat = diagonal_correlations(0.0, (0.5, -0.3, 0.2))
        for _ in range(10):
            for value in halves(locally_rotated(mat, rng)):
                assert value == pytest.approx(0.25, abs=1e-12)

    def test_near_pure_mixed_marginal(self):
        psi = np.array([1.0, 1e-7, 2e-7, 1e-8])
        psi /= np.linalg.norm(psi)
        mixed = np.kron(np.diag([1.0, 0.0]), np.diag([0.25, 0.75]))
        state = DensityMatrix(0.999 * np.outer(psi, psi) + 0.001 * mixed, (2, 2))
        for side, got in zip(((0,), (1,)), halves(state)):
            assert 0.0 < got < 1e-7
            assert got >= search_and_grid(state, side) - 1e-12

    @pytest.mark.parametrize("dims,searches", [((2, 2), 0), ((2, 3), 1), ((2, 2, 2), 1)])
    def test_sphere_search_runs_only_for_larger_far_sides(self, dims, searches, monkeypatch):
        calls = []
        search = ensembles._two_output_me_qubit
        monkeypatch.setattr(ensembles, "_two_output_me_qubit",
                            lambda *args: calls.append(args) or search(*args))
        rng = np.random.default_rng(2)
        dim = int(np.prod(dims))
        correlation_CA2(DensityMatrix(as_matrix(random_density_matrix(rng, dim)), dims))
        assert len(calls) == searches

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=200, deadline=None)
    def test_c2_monotone_under_local_channel(self, state_seed, channel_seed, side):
        # exact in theory: a channel on the measured side turns an equiprobable
        # effect P into its adjoint image, still equiprobable on the original
        # state; a channel on the far side is data processing
        rng = np.random.default_rng(state_seed)
        state = DensityMatrix(as_matrix(random_density_matrix(rng, 4)), (2, 2))
        after = apply_local_channel(state, random_local_cptp(2, seed=channel_seed), side)
        assert correlation_C2(after) <= correlation_C2(state) + 1e-12


def secular_roots_by_grid(m: list[float], a: list[float]) -> list[float]:
    """Oracle: sign changes of psi - 1 on a fine grid of each interval, bisected."""
    def excess(x):
        return sum(ai * ai * x * x / (mi - x) ** 2 for ai, mi in zip(a, m) if ai) - 1.0

    ends = sorted({0.0, max(m)} | {mi for ai, mi in zip(a, m) if ai and 0.0 < mi})
    roots = []
    for lo, hi in zip(ends, ends[1:]):
        grid = lo + (hi - lo) * (np.arange(1, 20_000) / 20_000.0)
        vals = excess(grid)
        for k in np.flatnonzero((vals[:-1] > 0.0) != (vals[1:] > 0.0)):
            left, right = float(grid[k]), float(grid[k + 1])
            for _ in range(80):
                mid = 0.5 * (left + right)
                if (excess(mid) > 0.0) == (vals[k] > 0.0):
                    left = mid
                else:
                    right = mid
            roots.append(0.5 * (left + right))
    return roots


class TestSecularRoots:
    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        found_pairs = 0
        for _ in range(40):
            m = sorted(rng.uniform(0.0, 1.0, 3).tolist())
            a = (rng.normal(size=3) * rng.uniform(0.05, 0.4)).tolist()
            got = ensembles._secular_roots(m, a)
            want = secular_roots_by_grid(m, a)
            assert len(got) == len(want)
            for x, y in zip(sorted(got), want):
                assert x == pytest.approx(y, rel=1e-10)
            found_pairs += len(want) > 3
        assert found_pairs  # some intervals between two poles hold two roots

    def test_no_pole_no_root(self):
        assert ensembles._secular_roots([0.0, 0.2, 0.5], [0.3, 0.0, 0.0]) == []
        assert ensembles._secular_roots([0.1, 0.2, 0.5], [0.0, 0.0, 0.0]) == []


class TestCorrelationGeneral:
    def test_output_bounds(self):
        bell = max_entangled_state()
        with pytest.raises(DimensionMismatchError):
            correlation_C_general(bell, max_outputs=1)
        with pytest.raises(DimensionMismatchError):
            correlation_C_general(bell, max_outputs=5)

    @pytest.mark.parametrize("count", [3.5, 3.0, "3"])
    def test_non_integral_count_rejected(self, count):
        with pytest.raises(DimensionMismatchError):
            correlation_C_general(max_entangled_state(), count)

    def test_two_outputs_equals_c2(self):
        rng = np.random.default_rng(14)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        probe = flag_state(rho_a, rho_b, (2,))
        assert correlation_C_general(probe, max_outputs=2) == pytest.approx(
            correlation_C2(probe), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [4, 5])
    def test_more_outputs_never_materially_better(self, seed):
        # extra outcomes cannot buy a real advantage on flag states
        rng = np.random.default_rng(seed)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        probe = flag_state(rho_a, rho_b, (2,))
        c2 = correlation_C2(probe)
        c4 = correlation_C_general(probe, max_outputs=4)
        assert c4 >= c2 - 1e-9
        assert c4 <= c2 + 1e-3

    def test_monotone_in_max_outputs(self):
        rng = np.random.default_rng(6)
        state = random_density_matrix(rng, 4)
        state = DensityMatrix(as_matrix(state), (2, 2))
        c2 = correlation_C_general(state, max_outputs=2)
        c3 = correlation_C_general(state, max_outputs=3)
        assert c3 >= c2 - 1e-9
        # C_general starts at C2, so that holds by construction; the generic
        # search must also end no lower than its own start on either side
        for side in (0, 1):
            start = construct_me_povm(partial_trace(state, keep=(side,)), 3)
            start_pg = guessing_probability_bruteforce(
                measure_on_subsystem(state, start, side)
            ).value
            assert ensembles._n_output_me_pg(state, (side,), 3) >= start_pg - 1e-9

    def test_nonuniform_flag_runs_generic_search(self, monkeypatch):
        # only a uniform flag marginal lets C_general skip the flag side
        rng = np.random.default_rng(9)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        measured = []
        search = ensembles._n_output_me_pg

        def recorder(state, sides, n):
            measured.append(tuple(sides))
            return search(state, sides, n)

        monkeypatch.setattr(ensembles, "_n_output_me_pg", recorder)
        for p, sides in ((0.7, [(0,)]), (0.5, [])):
            measured.clear()
            probe = flag_state(rho_a, rho_b, (2,), p=p)
            c2 = correlation_C2(probe)
            c3 = correlation_C_general(probe, max_outputs=3)
            assert measured == sides
            assert c3 >= c2 - 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_flag_measured_term_below_ca2(self, dim, n):
        """The bound that lets C_general skip measuring a uniform flag.

        The vertex measurement diag(lam_i, 2/n - lam_i), lam = (2/n, ..., 2/n,
        remainder, 0, ...), prepares an ensemble whose guessing probability is
        (1 + T)/n with T = ||B0 - B1||_1, and no equiprobable flag measurement
        does better; that stays at least 1/6 below CA2 + 1/2.
        """
        k = n // 2
        lam = [2.0 / n] * k + [1.0 - 2.0 * k / n] + [0.0] * (n - k - 1)
        vertex = Povm(effects=tuple(np.diag([li, 2.0 / n - li]) for li in lam))
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            rho_a = as_matrix(random_density_matrix(rng, dim))
            rho_b = as_matrix(random_density_matrix(rng, dim))
            probe = flag_state(rho_a, rho_b, (dim,))
            bound = (1.0 + trace_norm(0.5 * (rho_a - rho_b))) / n
            pg = guessing_probability_bruteforce(measure_on_subsystem(probe, vertex, 0)).value
            assert bound - 1e-6 <= pg <= bound + 1e-12
            assert bound - 0.5 <= correlation_CA2(probe) - 1.0 / 6.0 + 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p0", [0.5, 0.7])
    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2)], ids=["qubit", "qutrit", "two-qubit"])
    def test_flag_opposite_term_below_cb2(self, dims, p0, n):
        """The bound that lets C_general skip measuring opposite a classical flag.

        The two winning effects P, Q of an n-output measurement fold into the
        two-output equiprobable effect (1 + P - Q)/2, which scores their payoff
        plus 1/2 - 1/n, so the n-output search stays at or below CB2 + 1/n.
        """
        d = int(np.prod(dims))
        b_factors = tuple(range(1, len(dims) + 1))
        for seed in range(2):
            rng = np.random.default_rng(50 + 10 * d + seed)
            rho_a = as_matrix(random_density_matrix(rng, d))
            rho_b = as_matrix(random_density_matrix(rng, d))
            probe = flag_state(rho_a, rho_b, dims, p=p0)
            pg = ensembles._n_output_me_pg(probe, b_factors, n)
            assert pg <= correlation_CB2(probe) + 1.0 / n + 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p0", [0.5, 0.7])
    def test_two_winners_fold_into_two_output_effect(self, p0, n):
        """P' = (1 + P - Q)/2 is a two-output equiprobable effect worth V + 1/2 - 1/n.

        For any 0 <= P, Q with P + Q <= 1 and Tr(T P) = Tr(T Q) = 1/n, where
        T = B0 + B1, the pair pays V = Tr(B0 P) + Tr(B1 Q). The pairs here are
        midpoints of two one-multiplier optima for P, and a boxed optimum for Q
        under 1 - P.
        """
        rng = np.random.default_rng(60 + n)
        d = 3
        eye = np.eye(d)
        rho_a = as_matrix(random_density_matrix(rng, d))
        rho_b = as_matrix(random_density_matrix(rng, d))
        b0, b1 = p0 * rho_a, (1.0 - p0) * rho_b
        tot = b0 + b1
        cb2 = correlation_CB2(flag_state(rho_a, rho_b, (d,), p=p0))

        def hermitian() -> np.ndarray:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return g + g.conj().T

        def tr(a: np.ndarray, b: np.ndarray) -> float:
            return float(np.trace(a @ b).real)

        for _ in range(5):
            p = 0.5 * sum(ensembles._capped_linear_opt(hermitian(), tot, 1.0 / n) for _ in range(2))
            q = ensembles._boxed_linear_opt(hermitian(), tot, eye - p, 1.0 / n)
            for eff in (p, q, eye - p - q):
                assert np.linalg.eigvalsh(eff)[0] >= -1e-10
            assert tr(tot, p) == pytest.approx(1.0 / n, abs=1e-12)
            assert tr(tot, q) == pytest.approx(1.0 / n, abs=1e-12)
            folded = 0.5 * (eye + p - q)
            w = np.linalg.eigvalsh(folded)
            assert -1e-12 <= w[0] and w[-1] <= 1.0 + 1e-12
            assert tr(tot, folded) == pytest.approx(0.5, abs=1e-12)
            payoff = tr(b0, p) + tr(b1, q)
            score = tr(b0, folded) + tr(b1, eye - folded)
            assert score == pytest.approx(payoff + 0.5 - 1.0 / n, abs=1e-12)
            assert score - 0.5 <= cb2 + 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_flag_runs_no_n_output_search(self, dim, monkeypatch):
        # a uniform flag skips both sides, so C_general(4) is C2 bit for bit
        def refuse(*args, **kwargs):
            raise AssertionError("C_general ran an n-output search")

        rng = np.random.default_rng(70 + dim)
        rho_a = as_matrix(random_density_matrix(rng, dim))
        rho_b = as_matrix(random_density_matrix(rng, dim))
        probe = flag_state(rho_a, rho_b, (dim,))
        monkeypatch.setattr(ensembles, "_n_output_me_pg", refuse)
        c4 = correlation_C_general(probe, max_outputs=4)
        assert c4 == correlation_C2(probe)

    @pytest.mark.parametrize("dims, searched, skipped", [
        ((2, 2), [(0,), (1,)], [(0,), (1,)]),
        ((2, 3), [(0,), (1,), (0,)], [(1,)]),
        ((2, 2, 2), [(0,), (1, 2), (0,)], [(1, 2)]),
    ], ids=["2x2", "2x3", "2x2x2"])
    def test_qubit_far_side_skips_four_outputs(self, dims, searched, skipped, monkeypatch):
        """A far side of dimension d_far guesses at most d_far/n.

        With 2 d_far <= n the term is at most 0 <= C2, so C_general skips it:
        n = 4 opposite a qubit. Adding the skipped term back changes nothing.
        """
        rng = np.random.default_rng(80 + len(dims))
        state = DensityMatrix(as_matrix(random_density_matrix(rng, int(np.prod(dims)))), dims)
        measured = []
        search = ensembles._n_output_me_pg

        def recorder(state, sides, n):
            measured.append(tuple(sides))
            return search(state, sides, n)

        monkeypatch.setattr(ensembles, "_n_output_me_pg", recorder)
        c4 = correlation_C_general(state, max_outputs=4)
        assert measured == searched
        for side in skipped:
            pg = search(state, side, 4)
            assert pg <= 0.5 + 1e-12
            assert max(c4, pg - 0.5) == c4


def _correlated_classical_state() -> DensityMatrix:
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    return DensityMatrix(mat, (2, 2))


class TestNOutputSeesaw:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("side", [(0,), (1,)])
    @pytest.mark.parametrize("make", [lambda: max_entangled_state(), _correlated_classical_state],
                             ids=["bell", "classical"])
    def test_perfectly_correlated_qubits_reach_two_over_n(self, make, side, n):
        """Both states give exactly 2/n.

        The measured marginal is 1/2, so Tr(rho_meas M_i) = 1/n forces
        Tr M_i = 2/n and hence ||M_i||_inf <= 2/n for every PSD effect. Since
        M_i (x) E_i <= ||M_i||_inf (1 (x) E_i), the payoff is
        sum_i Tr[(M_i (x) E_i) rho] <= sum_i ||M_i||_inf Tr(rho_far E_i) <= 2/n.
        Measuring 2/n |k><k| on one side and guessing with the far-side
        projector onto |k> attains it.
        """
        assert ensembles._n_output_me_pg(make(), side, n) == pytest.approx(2.0 / n, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_product_states_give_one_over_n(self, dims, n):
        # every outcome prepares the same far-side state: nothing to discriminate
        rng = np.random.default_rng(sum(dims) + n)
        rho_a, rho_b = (as_matrix(random_density_matrix(rng, d)) for d in dims)
        prod = DensityMatrix(np.kron(rho_a, rho_b), dims)
        for side in ((0,), (1,)):
            assert ensembles._n_output_me_pg(prod, side, n) == pytest.approx(1.0 / n, abs=1e-12)

    def test_rounds_bounded_by_polish_maxfev(self, monkeypatch):
        calls = []
        fixed_point = ensembles._fixed_point

        def recorder(*args):
            calls.append(args)
            return fixed_point(*args)

        monkeypatch.setattr(ensembles, "_fixed_point", recorder)
        state = DensityMatrix(as_matrix(random_density_matrix(np.random.default_rng(6), 4)), (2, 2))
        rounds = ensembles._SEESAW_ROUNDS
        monkeypatch.setattr(ensembles, "_SEESAW_ROUNDS", 2)
        capped = ensembles._n_output_me_pg(state, (0,), 3)
        assert len(calls) == 2
        calls.clear()
        monkeypatch.setattr(ensembles, "_SEESAW_ROUNDS", rounds)
        full = ensembles._n_output_me_pg(state, (0,), 3)
        assert 2 < len(calls) <= rounds
        assert full >= capped


class TestCappedLinearOpt:
    """The one-multiplier program: maximize Tr(QP) over 0 <= P <= 1 with Tr(RP) = beta."""

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_case_matches_linprog(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        q, r = rng.normal(size=dim), rng.uniform(0.2, 1.0, size=dim)
        beta = float(rng.uniform(0.1, 0.9) * r.sum())
        p_eff = ensembles._capped_linear_opt(np.diag(q), np.diag(r), beta)
        lp = optimize.linprog(-q, A_eq=r[None, :], b_eq=[beta], bounds=[(0.0, 1.0)] * dim)
        assert lp.status == 0
        assert float(np.trace(np.diag(q) @ p_eff).real) == pytest.approx(-lp.fun, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_feasible_and_below_every_dual_value(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 6))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = 0.5 * (g + g.conj().T)
        r = as_matrix(random_density_matrix(rng, dim))
        beta = float(rng.uniform(0.05, 0.95))
        p_eff = ensembles._capped_linear_opt(q, r, beta)
        w = np.linalg.eigvalsh(p_eff)
        assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
        assert abs(np.trace(r @ p_eff).real - beta) <= 1e-12
        # weak duality: Tr(QP) <= f(mu) = sum of positive eig(Q - mu R) + beta mu
        primal = float(np.trace(q @ p_eff).real)
        for mu in np.linspace(-20.0, 20.0, 161):
            ev = np.linalg.eigvalsh(q - mu * r)
            assert primal <= ev[ev > 0].sum() + beta * mu + 1e-12

    @staticmethod
    def _dual_min(q, r, beta, lo=-1e5, hi=1e5):
        """min of f(mu) = sum of positive eig(Q - mu R) + beta mu by golden section."""

        def f(mu):
            ev = np.linalg.eigvalsh(q - mu * r)
            return ev[ev > 0].sum() + beta * mu

        g = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        fa, fb = f(a), f(b)
        for _ in range(300):
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = hi - g * (hi - lo)
                fa = f(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + g * (hi - lo)
                fb = f(b)
        return min(fa, fb)

    def _check_optimal(self, q, r, beta):
        """P feasible to 1e-12, and Tr(QP) at the dual minimum to 1e-9 ||Q||."""
        p_eff = ensembles._capped_linear_opt(q, r, beta)
        assert np.max(np.abs(p_eff - p_eff.conj().T)) <= 1e-12
        w = np.linalg.eigvalsh(p_eff)
        assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
        assert abs(np.trace(r @ p_eff).real - beta) <= 1e-12
        primal = float(np.trace(q @ p_eff).real)
        dual = self._dual_min(q, r, beta)
        # weak duality, then strong duality
        assert primal <= dual + 1e-12 * max(1.0, abs(dual))
        assert primal >= dual - 1e-9 * np.linalg.norm(q, 2)
        return p_eff

    @pytest.mark.parametrize("seed", range(40))
    def test_multiplier_far_outside_unit_scale(self, seed):
        # |mu*| reaches about 423 here (seed 8), beyond any fixed search bracket
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = 50.0 * (g + g.conj().T)
        r = as_matrix(random_density_matrix(rng, 3))
        self._check_optimal(q, r, 0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_zero_costs_match_linprog(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(3, 6))
        q, r = rng.normal(size=dim), rng.uniform(0.2, 1.0, size=dim)
        r[rng.permutation(dim)[: 1 + seed % 2]] = 0.0
        beta = float(rng.uniform(0.1, 0.9) * r.sum())
        p_eff = ensembles._capped_linear_opt(np.diag(q), np.diag(r), beta)
        assert abs(np.trace(np.diag(r) @ p_eff).real - beta) <= 1e-12
        lp = optimize.linprog(-q, A_eq=r[None, :], b_eq=[beta], bounds=[(0.0, 1.0)] * dim)
        assert lp.status == 0
        assert float(np.trace(np.diag(q) @ p_eff).real) == pytest.approx(-lp.fun, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 2), (3, 1), (4, 3), (4, 2), (5, 4), (5, 3)])
    def test_rank_deficient_cost(self, dim, rank, seed):
        rng = np.random.default_rng(10 * dim + rank + 100 * seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = 0.5 * (g + g.conj().T)
        h = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        r = h @ h.conj().T
        r /= np.trace(r).real
        self._check_optimal(q, r, float(rng.uniform(0.05, 0.95)))

    @pytest.mark.parametrize("coupling", [0.0, 1.0])
    def test_singular_kernel_block(self, coupling):
        """R = diag(1/2, 0, 1/2) with Q vanishing on R's kernel |1>.

        Uncoupled, |1> is worth nothing and the kinks are 2 q_00 and 2 q_22.
        Coupled to |0>, the pair (|0>, |1>) keeps one positive and one
        negative eigenvalue for every mu, so f has a kink only from |2>.
        """
        q = np.array([[0.3, coupling, 0.0], [coupling, 0.0, 0.0], [0.0, 0.0, 0.7]], dtype=complex)
        r = np.diag([0.5, 0.0, 0.5]).astype(complex)
        for beta in (0.1, 0.3, 0.6, 0.9):
            self._check_optimal(q, r, beta)


# (dims, measured side) of the general-ascent states in the bit-identity table
_GENERAL_CASES = [((2, 3), (1,)), ((3, 2), (0,)), ((3, 3), (1,)), ((3, 3), (0,)),
                  ((2, 2, 2), (1, 2)), ((2, 4), (1,))]


def _lp_caller_runs() -> list[tuple[str, object]]:
    """(label, thunk) for every seeded call of the bit-identity table."""
    import backflow as bf

    runs = []
    for c, (dims, side) in enumerate(_GENERAL_CASES):
        rng = np.random.default_rng(2600 + c)
        for k in range(5):
            state = DensityMatrix(as_matrix(random_density_matrix(rng, int(np.prod(dims)))), dims)
            runs.append((f"general {dims} {side} #{k}",
                         lambda s=state, m=side: ensembles._two_output_me_general(s, m)))
    # the measured qutrit has a rank-2 marginal: R has a kernel
    rng = np.random.default_rng(2610)
    support = [0, 1, 3, 4]  # qubit (x) span{|0>, |1>}
    for k in range(2):
        mat = np.zeros((6, 6), dtype=complex)
        mat[np.ix_(support, support)] = as_matrix(random_density_matrix(rng, 4))
        state = DensityMatrix(mat, (2, 3))
        runs.append((f"general rank-2 marginal #{k}",
                     lambda s=state: ensembles._two_output_me_general(s, (1,))))
    probes = [(bf.eternal_rates(), 0.8, 0.5, 2, 1.1), (bf.eternal_rates(), 1.2, 0.4, 3, 0.9),
              (bf.constant_rates(1.0, 1.0, -3.0), 0.3, 0.25, 2, 0.45),
              (bf.constant_rates(1.0, 1.0, -3.0), 0.2, 0.3, 3, 0.5)]
    for k, (rates, tau, dt, anc, t) in enumerate(probes):
        ch = bf.intermediate_map(rates, tau, tau + dt)
        direction = bf.trace_norm_expansion_direction(ch, ancilla_dim=anc)
        probe = bf.build_probe_state(bf.pull_back_pair(direction, rates, tau, epsilon=0.05))
        state = bf.evolve_probe(probe, rates, t).matrix
        runs.append((f"flag exact probe #{k}",
                     lambda s=state: ensembles._two_output_me_flag_exact(s)))
    state = DensityMatrix(as_matrix(random_density_matrix(np.random.default_rng(6), 4)), (2, 2))
    for side in (0, 1):
        runs.append((f"seesaw side {side}",
                     lambda m=side: ensembles._n_output_me_pg(state, (m,), 3)))
    return runs



# float.hex of every _lp_caller_runs value, recorded with the one-matrix-at-a-time
# capped program that the stacked one replaced; the stack must keep every bit
_LP_CALLER_HEX = [
    ('general (2, 3) (1,) #0', '0x1.b831c8430ccbcp-3'),
    ('general (2, 3) (1,) #1', '0x1.0d2a522d8bb52p-2'),
    ('general (2, 3) (1,) #2', '0x1.15aad792a3282p-2'),
    ('general (2, 3) (1,) #3', '0x1.0a65caa148efdp-2'),
    ('general (2, 3) (1,) #4', '0x1.dc00468c63929p-3'),
    ('general (3, 2) (0,) #0', '0x1.5a4cf64d51bfcp-3'),
    ('general (3, 2) (0,) #1', '0x1.002d72f578c0ap-2'),
    ('general (3, 2) (0,) #2', '0x1.d89c3d95e7a36p-3'),
    ('general (3, 2) (0,) #3', '0x1.587592d499ca6p-2'),
    ('general (3, 2) (0,) #4', '0x1.fdfd0314f64acp-3'),
    ('general (3, 3) (1,) #0', '0x1.dbf6376be16ddp-3'),
    ('general (3, 3) (1,) #1', '0x1.8d930d986a8abp-3'),
    ('general (3, 3) (1,) #2', '0x1.d4bb2a70d09bap-3'),
    ('general (3, 3) (1,) #3', '0x1.d60525d33ac0ep-3'),
    ('general (3, 3) (1,) #4', '0x1.a3cdddf8cd842p-3'),
    ('general (3, 3) (0,) #0', '0x1.a7f1733fcf53dp-3'),
    ('general (3, 3) (0,) #1', '0x1.7bcc4fb09996fp-3'),
    ('general (3, 3) (0,) #2', '0x1.8796b98c1f862p-3'),
    ('general (3, 3) (0,) #3', '0x1.82aa04b5bb0f5p-3'),
    ('general (3, 3) (0,) #4', '0x1.75294dd7ea2fbp-3'),
    ('general (2, 2, 2) (1, 2) #0', '0x1.bdf1aef7da248p-3'),
    ('general (2, 2, 2) (1, 2) #1', '0x1.c74f77e2b5c77p-3'),
    ('general (2, 2, 2) (1, 2) #2', '0x1.1912662a9210cp-2'),
    ('general (2, 2, 2) (1, 2) #3', '0x1.ac61e79062fefp-3'),
    ('general (2, 2, 2) (1, 2) #4', '0x1.a5f250b469e0ap-3'),
    ('general (2, 4) (1,) #0', '0x1.b0cb515aa64c8p-3'),
    ('general (2, 4) (1,) #1', '0x1.10398ff610b08p-2'),
    ('general (2, 4) (1,) #2', '0x1.9c63c5041eff8p-3'),
    ('general (2, 4) (1,) #3', '0x1.06a83add93282p-2'),
    ('general (2, 4) (1,) #4', '0x1.0d90130d55eb3p-2'),
    ('general rank-2 marginal #0', '0x1.d206d42065538p-3'),
    ('general rank-2 marginal #1', '0x1.15ccdf8e124e8p-2'),
    ('flag exact probe #0', '0x1.444cb70be6d40p-7'),
    ('flag exact probe #1', '0x1.0ed360f973b80p-8'),
    ('flag exact probe #2', '0x1.adb8ec899bb08p-5'),
    ('flag exact probe #3', '0x1.0b2221636a190p-5'),
    ('seesaw side 0', '0x1.0bf49acf8ca12p-1'),
    ('seesaw side 1', '0x1.0bbace2f52126p-1'),
]


class TestLpCallersBitIdentity:
    def test_values_keep_recorded_bits(self):
        got = [(label, float(run()).hex()) for label, run in _lp_caller_runs()]
        assert got == _LP_CALLER_HEX


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


class TestCappedStack:
    """A (n, d, d) stack of Q against one R: each member as if solved alone."""

    @staticmethod
    def _check(qs, r, beta):
        stacked = ensembles._capped_linear_opt(np.stack(qs), r, beta)
        assert stacked.shape == (len(qs),) + r.shape
        for q, p_eff in zip(qs, stacked):
            assert np.array_equal(p_eff, ensembles._capped_linear_opt(q, r, beta))
            w = np.linalg.eigvalsh(0.5 * (p_eff + p_eff.conj().T))
            assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
            assert abs(np.trace(r @ p_eff).real - beta) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_random_full_rank_cost(self, dim):
        rng = np.random.default_rng(40 + dim)
        r = as_matrix(random_density_matrix(rng, dim))
        qs = [10.0 ** rng.uniform(-2.0, 2.0) * _hermitian(rng, dim) for _ in range(8)]
        self._check(qs, r, float(rng.uniform(0.1, 0.9)))

    def test_members_in_different_kink_pieces(self):
        """R = diag(0.6, 0.3, 0.1), beta = 1/2: mu* at each of the three kinks, and inside a piece.

        The fill takes directions by q_i / r_i: diag(1, 0, 0) spends the
        budget on |0> alone (the largest kink), diag(0.1, 0.2, 1) ends on
        |0> after |2> and |1> (the smallest kink), diag(0.5, 0.2, 1) ends
        on |0> after |2> (the middle kink); random Q sit inside a piece.
        """
        rng = np.random.default_rng(9)
        r = np.diag([0.6, 0.3, 0.1]).astype(complex)
        diagonals = ([1.0, 0.0, 0.0], [0.1, 0.2, 1.0], [0.5, 0.2, 1.0])
        qs = [np.diag(q).astype(complex) for q in diagonals]
        qs += [_hermitian(rng, 3) for _ in range(3)]
        self._check(qs, r, 0.5)

    def test_cost_with_kernel_and_coupling(self):
        """R = diag(1/2, 0, 1/2): uncoupled, coupled and random members in one stack.

        The members reach different kink counts: the coupled one keeps a
        kink only from |2> (see TestCappedLinearOpt.test_singular_kernel_block).
        """
        rng = np.random.default_rng(10)
        r = np.diag([0.5, 0.0, 0.5]).astype(complex)
        qs = [np.array([[0.3, c, 0.0], [c, 0.0, 0.0], [0.0, 0.0, 0.7]], dtype=complex)
              for c in (0.0, 1.0)]
        qs += [_hermitian(rng, 3) for _ in range(4)]
        for beta in (0.1, 0.3, 0.6, 0.9):
            self._check(qs, r, beta)

    def test_rank_deficient_cost(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        r = h @ h.conj().T
        r /= np.trace(r).real
        self._check([_hermitian(rng, 4) for _ in range(6)], r, 0.4)

    def test_free_directions(self):
        """R = diag(1, 0, 0): |1> and |2> cost nothing and are taken iff they add profit."""
        rng = np.random.default_rng(12)
        r = np.diag([1.0, 0.0, 0.0]).astype(complex)
        qs = [np.diag(q).astype(complex) for q in ([1.0, 0.5, -0.5], [-1.0, -0.5, 0.2])]
        qs += [_hermitian(rng, 3) for _ in range(3)]
        self._check(qs, r, 0.5)

    def test_zero_cost(self):
        rng = np.random.default_rng(13)
        self._check([_hermitian(rng, 3) for _ in range(4)], np.zeros((3, 3), dtype=complex), 0.0)


class TestScipyForwarders:
    """`ensembles.minimize` / `minimize_scalar` import scipy on first use.

    perfbench/tracer.py patches both names on the module to count objective
    evaluations, so they must forward scipy's result unchanged. No search
    calls either of them: the one-multiplier dual is solved with numpy.
    """

    def test_forward_scipy_results_unchanged(self):
        def bowl(x):
            return float((x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.1) ** 2)

        kw = dict(x0=np.array([1.0, 1.0]), method="Nelder-Mead", options={"maxfev": 80})
        ours, theirs = ensembles.minimize(bowl, **kw), optimize.minimize(bowl, **kw)
        assert np.array_equal(ours.x, theirs.x)
        assert (ours.fun, ours.nfev) == (theirs.fun, theirs.nfev)

        kw = dict(bounds=(-2.0, 3.0), method="bounded", options={"xatol": 1e-12})
        ours = ensembles.minimize_scalar(math.cosh, **kw)
        theirs = optimize.minimize_scalar(math.cosh, **kw)
        assert (ours.x, ours.fun, ours.nfev) == (theirs.x, theirs.fun, theirs.nfev)

    def test_no_search_calls_minimize_scalar(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a search called a scipy optimizer")

        monkeypatch.setattr(ensembles, "minimize_scalar", refuse)
        monkeypatch.setattr(ensembles, "minimize", refuse)
        rng = np.random.default_rng(4)
        general = DensityMatrix(as_matrix(random_density_matrix(rng, 6)), (2, 3))
        assert correlation_CB2(general) > 0.0
        rho_a = as_matrix(random_density_matrix(rng, 3))
        rho_b = as_matrix(random_density_matrix(rng, 3))
        assert correlation_CB2(flag_state(rho_a, rho_b, (3,))) > 0.0
        probe = flag_state(rho_a, rho_b, (3,), p=0.6)
        assert correlation_C_general(probe, max_outputs=4) > 0.0


class TestLocalChannels:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_trace_preserving(self, dim):
        ch = random_local_cptp(dim, seed=3)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.allclose(total, np.eye(dim), atol=1e-12)

    def test_deterministic_in_seed(self):
        a = random_local_cptp(2, seed=7)
        b = random_local_cptp(2, seed=7)
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)

    def test_apply_preserves_state(self):
        rng = np.random.default_rng(10)
        state = DensityMatrix(as_matrix(random_density_matrix(rng, 6)), (2, 3))
        ch = random_local_cptp(3, seed=1)
        out = apply_local_channel(state, ch, factor=1)
        mat = as_matrix(out)
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(mat)) > -1e-12
        assert out.dims == (2, 3)

    def test_factor_out_of_range(self):
        state = maximally_mixed((2, 2))
        ch = random_local_cptp(2, seed=0)
        with pytest.raises(SubsystemIndexError):
            apply_local_channel(state, ch, factor=2)

    def test_dimension_mismatch(self):
        state = maximally_mixed((2, 3))
        ch = random_local_cptp(2, seed=0)
        with pytest.raises(DimensionMismatchError):
            apply_local_channel(state, ch, factor=1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_c2_monotone_under_local_noise(self, seed):
        # data processing: a local channel on the unmeasured side cannot
        # increase the correlation beyond optimizer slack
        rng = np.random.default_rng(seed)
        rho_a = as_matrix(random_density_matrix(rng, 2))
        rho_b = as_matrix(random_density_matrix(rng, 2))
        probe = flag_state(rho_a, rho_b, (2,))
        before = correlation_C2(probe)
        ch = random_local_cptp(2, seed=seed + 100)
        after = correlation_C2(apply_local_channel(probe, ch, factor=1))
        assert after <= before + 2e-3
