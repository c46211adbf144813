"""Tests for rate profiles, Pauli channel maps, and divisibility checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.channels import (
    DivisibilityVerdict,
    ExtendedChannel,
    PauliChannelMap,
    choi_eigenvalues,
    choi_matrix,
    choi_min_eigenvalue,
    classify_interval,
    constant_rates,
    decay_factors,
    eternal_rates,
    intermediate_map,
    invert_channel,
    is_cp,
    is_cp_divisible_at,
    is_p_divisible_at,
    load_rate_table_csv,
    table_rates,
    tune_rates_shrink_image,
)
from backflow.errors import (
    DimensionMismatchError,
    EpsilonRangeError,
    NonBijectiveError,
    NonFiniteError,
    TimeOrderViolationError,
)
from backflow.linalg import (
    DensityMatrix,
    as_matrix,
    max_entangled_state,
    random_density_matrix,
)
from backflow.probe import detect_backflow
from oracles import compose, gksl_apply, random_unitary_generator

# Decay factors of the eternal profile accumulated over [0, 1].
ETERNAL_D_XY = math.cosh(1.0) / math.e
ETERNAL_D_Z = math.exp(-2.0)

rate_values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
rate_profiles = st.one_of(
    st.just(eternal_rates()), st.builds(constant_rates, rate_values, rate_values, rate_values)
)
interval_times = st.floats(min_value=0.0, max_value=3.0)
non_finite_times = st.sampled_from([math.nan, math.inf, -math.inf])


class TestDecayFactors:
    def test_eternal_full_map_closed_form(self):
        ch = decay_factors(eternal_rates(), 0.0, 1.0)
        assert ch.d_x == pytest.approx(ETERNAL_D_XY, abs=1e-14)
        assert ch.d_y == pytest.approx(ETERNAL_D_XY, abs=1e-14)
        assert ch.d_z == pytest.approx(ETERNAL_D_Z, abs=1e-14)

    def test_constant_rates_exponentials(self):
        ch = decay_factors(constant_rates(0.3, 0.5, 0.7), 0.0, 2.0)
        assert ch.d_x == pytest.approx(math.exp(-2.0 * 1.2), rel=1e-14)
        assert ch.d_y == pytest.approx(math.exp(-2.0 * 1.0), rel=1e-14)
        assert ch.d_z == pytest.approx(math.exp(-2.0 * 0.8), rel=1e-14)

    def test_zero_interval_is_identity(self):
        ch = decay_factors(eternal_rates(), 0.7, 0.7)
        assert np.allclose(ch.factors, 1.0)

    def test_time_order_violation(self):
        with pytest.raises(TimeOrderViolationError):
            decay_factors(eternal_rates(), 1.0, 0.5)

    def test_negative_start_rejected(self):
        with pytest.raises(TimeOrderViolationError):
            decay_factors(eternal_rates(), -0.5, 1.0)

    def test_domain_end_enforced(self):
        profile = constant_rates(1.0, 1.0, 1.0, domain_end=2.0)
        with pytest.raises(TimeOrderViolationError):
            decay_factors(profile, 0.0, 2.5)

    def test_composition_multiplicative(self):
        profile = eternal_rates()
        first = decay_factors(profile, 0.0, 0.6)
        second = intermediate_map(profile, 0.6, 1.4)
        direct = decay_factors(profile, 0.0, 1.4)
        assert np.allclose(compose(second, first).factors, direct.factors, atol=1e-14)

    def test_table_integrals_match_quadrature(self):
        # The exact antiderivative of the interpolant against adaptive quadrature.
        from scipy.integrate import quad

        times = [0.0, 0.5, 1.0, 2.0]
        gammas = [[1.0, 0.8, 0.2], [0.9, 0.7, -0.1], [1.1, 0.6, -0.4], [1.0, 1.0, 0.3]]
        profile = table_rates(times, gammas)
        want = [
            quad(lambda t, k=k: profile.pair_sums(t)[k], 0.1, 1.7, points=times[1:3])[0]
            for k in range(3)
        ]
        assert np.allclose(profile.integrate_pair_sums(0.1, 1.7), want, atol=1e-10)


class TestRateTables:
    def test_rejects_short_table(self):
        with pytest.raises(TimeOrderViolationError):
            table_rates([0.0], [[1.0, 1.0, 1.0]])

    def test_rejects_unsorted_times(self):
        with pytest.raises(TimeOrderViolationError):
            table_rates([0.0, 1.0, 0.5], [[1, 1, 1]] * 3)

    def test_rejects_late_start(self):
        with pytest.raises(TimeOrderViolationError):
            table_rates([0.5, 1.0], [[1, 1, 1]] * 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            table_rates([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])

    def test_interpolation_midpoint(self):
        profile = table_rates([0.0, 1.0], [[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
        assert np.allclose(profile.rates(0.5), [1.0, 2.0, 3.0])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(
            "t,gamma_x,gamma_y,gamma_z\n0.0,1.0,1.0,0.0\n1.0,1.0,1.0,-0.5\n2.0,1.0,1.0,-0.9\n"
        )
        loaded = load_rate_table_csv(str(path))
        direct = table_rates(
            [0.0, 1.0, 2.0], [[1.0, 1.0, 0.0], [1.0, 1.0, -0.5], [1.0, 1.0, -0.9]]
        )
        got = decay_factors(loaded, 0.0, 1.8)
        want = decay_factors(direct, 0.0, 1.8)
        assert np.allclose(got.factors, want.factors, atol=1e-15)

    def test_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,gx,gy,gz\n0.0,1.0,1.0,1.0\n1.0,1.0,1.0,1.0\n")
        with pytest.raises(DimensionMismatchError):
            load_rate_table_csv(str(path))


class TestChannelAction:
    def test_mixing_weights_sum_to_one(self):
        ch = PauliChannelMap(0.3, -0.4, 0.9)
        assert ch.mixing_weights().sum() == pytest.approx(1.0)

    def test_bloch_contraction(self):
        # sigma_k -> d_k sigma_k on each Bloch axis.
        ch = PauliChannelMap(0.5, 0.2, -0.1)
        from backflow.linalg import PAULIS

        for d, sigma in zip(ch.factors, PAULIS[1:]):
            out = ExtendedChannel(ch, ()).apply(sigma)
            assert np.allclose(out, d * sigma, atol=1e-14)

    def test_identity_fixed(self):
        ch = PauliChannelMap(0.5, 0.2, -0.1)
        assert np.allclose(ExtendedChannel(ch, ()).apply(np.eye(2, dtype=complex)), np.eye(2))

    def test_density_matrix_round_trip(self):
        state = random_density_matrix(np.random.default_rng(0), 2)
        out = ExtendedChannel(PauliChannelMap(0.9, 0.9, 0.9), ()).apply_state(state)
        assert isinstance(out, DensityMatrix)
        assert np.trace(as_matrix(out)).real == pytest.approx(1.0)

    def test_rejects_larger_operator(self):
        with pytest.raises(DimensionMismatchError):
            ExtendedChannel(PauliChannelMap(1.0, 1.0, 1.0), ()).apply(np.eye(4, dtype=complex) / 4)

    def test_invert_channel_round_trip(self):
        ch = PauliChannelMap(0.7, 0.5, 0.3)
        identity = compose(invert_channel(ch), ch)
        assert np.allclose(identity.factors, 1.0, atol=1e-14)

    def test_invert_singular_raises(self):
        with pytest.raises(NonBijectiveError):
            invert_channel(PauliChannelMap(0.5, 1e-14, 0.5))

    def test_extend_with_identity_on_product(self):
        rng = np.random.default_rng(4)
        anc = as_matrix(random_density_matrix(rng, 3))
        qubit = as_matrix(random_density_matrix(rng, 2))
        ch = PauliChannelMap(0.4, 0.6, 0.8)
        ext = ExtendedChannel(ch, (3,))
        got = ext.apply(np.kron(anc, qubit))
        want = np.kron(anc, ExtendedChannel(ch, ()).apply(qubit))
        assert np.allclose(got, want, atol=1e-13)

    def test_extended_shape_check(self):
        ext = ExtendedChannel(PauliChannelMap(1.0, 1.0, 1.0), (3,))
        with pytest.raises(DimensionMismatchError):
            ext.apply(np.eye(4, dtype=complex) / 4)

    @pytest.mark.parametrize("ancilla_dims", [(), (2,), (3,), (2, 3)])
    def test_block_kernel_rounds_like_kronecker_sum(self, ancilla_dims):
        # The golden CSV bytes rest on this: the block kernel must round exactly
        # like sum_mu q_mu (1 (x) s_mu) M (1 (x) s_mu)^dagger accumulated in mu
        # order, which a Bloch-coefficient rewrite does not.
        from backflow.linalg import PAULIS

        rng = np.random.default_rng(17)
        anc = math.prod(ancilla_dims)
        for _ in range(25):
            ch = PauliChannelMap(*rng.uniform(-1.5, 1.5, size=3))
            m = rng.normal(size=(2 * anc, 2 * anc)) + 1j * rng.normal(size=(2 * anc, 2 * anc))
            want = np.zeros_like(m)
            for q, sigma in zip(ch.mixing_weights(), PAULIS):
                lift = np.kron(np.eye(anc), sigma)
                want += q * lift @ m @ lift.conj().T
            assert np.array_equal(ExtendedChannel(ch, ancilla_dims).apply(m), want)

    @pytest.mark.parametrize("ancilla_dims", [(), (2,), (3,)])
    def test_stack_maps_each_matrix_exactly(self, ancilla_dims):
        rng = np.random.default_rng(23)
        dim = 2 * math.prod(ancilla_dims)
        ext = ExtendedChannel(PauliChannelMap(*rng.uniform(-1.5, 1.5, size=3)), ancilla_dims)
        stack = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        got = ext.apply(stack)
        assert got.shape == stack.shape
        for i in range(5):
            assert np.array_equal(got[i], ext.apply(stack[i]))
        with pytest.raises(DimensionMismatchError):
            ext.apply(np.zeros((5, dim + 2, dim + 2), dtype=complex))


class TestChoi:
    def test_closed_form_matches_numeric(self):
        ch = PauliChannelMap(0.3, -0.2, 0.7)
        numeric = np.sort(np.linalg.eigvalsh(choi_matrix(ch)))
        assert np.allclose(numeric, choi_eigenvalues(ch), atol=1e-12)

    def test_eternal_full_map_has_zero_eigenvalue(self):
        # d_x = d_y forces 1 + d_z - d_x - d_y = 1 + e^-2 - 2 cosh(1)/e = 0.
        ch = decay_factors(eternal_rates(), 0.0, 1.0)
        assert abs(choi_min_eigenvalue(ch)) < 1e-14
        assert is_cp(ch)

    def test_eternal_intermediate_map_not_cp(self):
        ch = intermediate_map(eternal_rates(), 0.5, 1.0)
        assert choi_min_eigenvalue(ch) == pytest.approx(-0.07302843892286548, abs=1e-15)
        assert not is_cp(ch)

    def test_identity_choi_is_pure(self):
        ch = PauliChannelMap(1.0, 1.0, 1.0)
        assert np.allclose(choi_matrix(ch), as_matrix(max_entangled_state()), atol=1e-14)

    @given(rate_values, rate_values, rate_values)
    @settings(max_examples=50, deadline=None)
    def test_eigenvalues_sum_to_one(self, dx, dy, dz):
        vals = choi_eigenvalues(PauliChannelMap(dx, dy, dz))
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)


class TestDivisibility:
    def test_eternal_pointwise(self):
        profile = eternal_rates()
        assert is_cp_divisible_at(profile, 0.0)
        for t in (0.25, 1.0, 3.0):
            assert not is_cp_divisible_at(profile, t)
            assert is_p_divisible_at(profile, t)

    def test_constant_all_positive(self):
        profile = constant_rates(1.0, 1.0, 1.0)
        assert is_cp_divisible_at(profile, 0.5)
        assert is_p_divisible_at(profile, 0.5)

    def test_constant_p_breaking(self):
        profile = constant_rates(1.0, 1.0, -3.0)
        assert not is_cp_divisible_at(profile, 0.5)
        assert not is_p_divisible_at(profile, 0.5)

    def test_cp_implies_p(self):
        # Pointwise: nonnegative rates force nonnegative pair sums.
        for profile in (eternal_rates(), constant_rates(0.2, 0.0, 0.1)):
            for t in np.linspace(0.0, 2.0, 9):
                if is_cp_divisible_at(profile, t):
                    assert is_p_divisible_at(profile, t)

    def test_classify_interval_fields(self):
        profile = eternal_rates()
        pairs = [(0.5, 1.0), (1.0, 1.5)]
        verdicts = classify_interval(profile, pairs)
        assert len(verdicts) == 2
        first = verdicts[0]
        assert isinstance(first, DivisibilityVerdict)
        assert first.t == 0.5 and first.s == 1.0
        assert first.gammas == pytest.approx((1.0, 1.0, -math.tanh(0.5)))
        assert first.choi_min_eig == pytest.approx(-0.07302843892286548, abs=1e-15)
        assert not first.cp_divisible
        assert first.p_divisible

    def test_classify_interval_consistency_with_choi(self):
        # Negative intermediate Choi eigenvalue can only appear past a
        # CP-divisibility breakdown.
        profile = eternal_rates()
        pairs = [(t, t + 0.3) for t in np.linspace(0.0, 1.5, 6)]
        for verdict in classify_interval(profile, pairs):
            if verdict.choi_min_eig < -1e-10:
                assert not verdict.cp_divisible


class TestGenerator:
    @pytest.mark.parametrize(
        "profile", [eternal_rates(), constant_rates(0.8, 0.3, 0.5)], ids=["eternal", "constant"]
    )
    def test_generator_matches_finite_difference(self, profile):
        # d/ds Lambda_s rho at s = t against the time-local generator.
        gen = random_unitary_generator(profile)
        rng = np.random.default_rng(17)
        state = random_density_matrix(rng, 2)
        t, h = 0.8, 1e-6
        rho_t = ExtendedChannel(decay_factors(profile, 0.0, t), ()).apply(state)
        plus = ExtendedChannel(decay_factors(profile, 0.0, t + h), ()).apply(state)
        minus = ExtendedChannel(decay_factors(profile, 0.0, t - h), ()).apply(state)
        fd = (plus - minus) / (2.0 * h)
        gksl = gksl_apply(gen, rho_t, t)
        assert np.max(np.abs(fd - gksl)) < 1e-6

    def test_generator_traceless_output(self):
        gen = random_unitary_generator(eternal_rates())
        state = random_density_matrix(np.random.default_rng(3), 2)
        out = gksl_apply(gen, state, 0.5)
        assert abs(np.trace(out)) < 1e-14

    def test_hamiltonian_term(self):
        from dataclasses import replace

        h_mat = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        silent = random_unitary_generator(constant_rates(0.0, 0.0, 0.0))
        gen = replace(silent, hamiltonian=lambda t: h_mat)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = gksl_apply(gen, rho, 0.0)
        want = 1j * (h_mat @ rho - rho @ h_mat)
        assert np.allclose(out, want)


class TestTuneRates:
    @pytest.mark.parametrize("epsilon", [math.exp(-4.0), 0.1, 0.5])
    def test_decay_factors_hit_epsilon(self, epsilon):
        tuned = tune_rates_shrink_image(eternal_rates(), epsilon, t_activate=1.0)
        ch = decay_factors(tuned, 0.0, 1.0)
        assert np.allclose(ch.factors, epsilon, atol=1e-12)

    def test_tail_continues_original(self):
        base = eternal_rates()
        tuned = tune_rates_shrink_image(base, 0.1, t_activate=1.0)
        tail_tuned = decay_factors(tuned, 1.0, 1.7)
        tail_base = decay_factors(base, 1.0, 1.7)
        assert np.allclose(tail_tuned.factors, tail_base.factors, atol=1e-14)

    def test_burst_is_cp_divisible(self):
        tuned = tune_rates_shrink_image(eternal_rates(), 0.01, t_activate=0.5)
        assert is_cp_divisible_at(tuned, 0.25)
        assert tuned.rates(0.25)[0] == pytest.approx(-math.log(0.01) / 1.0)

    def test_epsilon_one_is_identity(self):
        base = eternal_rates()
        assert tune_rates_shrink_image(base, 1.0, t_activate=1.0) is base

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5])
    def test_epsilon_out_of_range(self, epsilon):
        with pytest.raises(EpsilonRangeError):
            tune_rates_shrink_image(eternal_rates(), epsilon, t_activate=1.0)

    def test_bad_activation_time(self):
        with pytest.raises(TimeOrderViolationError):
            tune_rates_shrink_image(eternal_rates(), 0.1, t_activate=0.0)

    def test_straddling_interval_integral(self):
        tuned = tune_rates_shrink_image(constant_rates(0.5, 0.5, 0.5), 0.2, t_activate=1.0)
        # burst on [0.4, 1.0] plus tail on [1.0, 1.6]
        c = -math.log(0.2) / 2.0
        want_burst = 2.0 * c * 0.6
        want_tail = 1.0 * 0.6
        got = tuned.integrate_pair_sums(0.4, 1.6)
        assert np.allclose(got, want_burst + want_tail, atol=1e-13)


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: constant_rates(1.0, 1.0, math.nan),
            lambda: constant_rates(1.0, math.inf, 1.0),
            lambda: constant_rates(1.0, 1.0, 1.0, domain_end=math.nan),
            lambda: eternal_rates(domain_end=math.nan),
            lambda: table_rates([0.0, math.nan], [[1.0, 1.0, 1.0]] * 2),
            lambda: table_rates([0.0, 1.0], [[1.0, 1.0, 1.0], [1.0, 1.0, math.nan]]),
            lambda: tune_rates_shrink_image(eternal_rates(), 0.1, t_activate=math.nan),
            lambda: tune_rates_shrink_image(eternal_rates(), 0.1, t_activate=math.inf),
            lambda: decay_factors(eternal_rates(), 0.0, math.nan),
            lambda: decay_factors(eternal_rates(), 0.0, math.inf),
            lambda: intermediate_map(eternal_rates(), math.nan, 1.0),
            lambda: detect_backflow(eternal_rates(), math.nan, 0.1),
            lambda: detect_backflow(eternal_rates(), 0.5, math.inf),
            lambda: PauliChannelMap(math.nan, 1.0, 1.0),
            lambda: PauliChannelMap(1.0, 1.0, -math.inf),
        ],
        ids=[
            "constant-nan-rate",
            "constant-inf-rate",
            "constant-nan-domain",
            "eternal-nan-domain",
            "table-nan-time",
            "table-nan-rate",
            "burst-nan-activate",
            "burst-inf-activate",
            "decay-nan-end",
            "decay-inf-end",
            "intermediate-nan-start",
            "backflow-nan-tau",
            "backflow-inf-delta",
            "map-nan-factor",
            "map-inf-factor",
        ],
    )
    def test_raises(self, build):
        with pytest.raises(NonFiniteError):
            build()

    def test_infinite_domain_end_allowed(self):
        assert constant_rates(1.0, 1.0, 1.0).domain_end == math.inf
        assert eternal_rates().domain_end == math.inf


class TestIntervalProperties:
    @given(rate_profiles, non_finite_times, interval_times, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_non_finite_end_rejected(self, rates, bad, good, bad_is_start):
        ends = (bad, good) if bad_is_start else (good, bad)
        with pytest.raises(NonFiniteError):
            decay_factors(rates, *ends)
        with pytest.raises(NonFiniteError):
            intermediate_map(rates, *ends)

    @given(rate_profiles, interval_times, interval_times)
    @settings(max_examples=60, deadline=None)
    def test_finite_ends_give_finite_factors(self, rates, t0, dt):
        for build in (decay_factors, intermediate_map):
            assert np.all(np.isfinite(build(rates, t0, t0 + dt).factors))

    @given(rate_profiles, interval_times, interval_times)
    @settings(max_examples=60, deadline=None)
    def test_decay_factors_compose(self, rates, t1, dt):
        t2 = t1 + dt
        got = decay_factors(rates, 0.0, t1).factors * decay_factors(rates, t1, t2).factors
        want = decay_factors(rates, 0.0, t2).factors
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
