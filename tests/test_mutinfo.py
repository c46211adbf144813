"""Mutual information, its decay rate, and the stationary-state Hessian."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import mutinfo as mi
from backflow.channels import (
    ExtendedChannel,
    constant_rates,
    decay_factors,
    eternal_rates,
    intermediate_map,
    is_cp_divisible_at,
    is_p_divisible_at,
    tune_rates_shrink_image,
)
from backflow.errors import (
    BoundaryParameterError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidStateError,
    NonFiniteError,
    PreconditionError,
)
from backflow.linalg import (
    PAULIS,
    DensityMatrix,
    max_entangled_state,
    maximally_mixed,
    random_density_matrix,
)
from oracles import (
    BoundaryStateError,
    DegenerateDirectionError,
    PauliBasisCoordinates,
    coords_from_state,
    didt,
    didt_finite_difference,
    mutual_information,
    radius_shrink_rate,
    random_hermitian,
    spectral_fd,
    state_from_coords,
    stationary_state,
    trace_function,
    zero_eigenspace_didt,
    zero_eigenspace_state,
)

LN2 = math.log(2.0)

PRESETS = [
    pytest.param(eternal_rates(), 1.0, id="eternal-t1"),
    pytest.param(eternal_rates(), 0.35, id="eternal-early"),
    pytest.param(constant_rates(1.0, 1.0, 1.0), 0.4, id="isotropic"),
    pytest.param(constant_rates(1.0, 1.0, -3.0), 0.6, id="negative-z"),
    pytest.param(constant_rates(0.3, 0.7, 0.1), 0.8, id="skew"),
]


def interior_state(seed: int, mix: float = 0.2) -> DensityMatrix:
    rho = random_density_matrix(np.random.default_rng(seed), 4)
    mat = (1.0 - mix) * rho.matrix + mix * np.eye(4) / 4.0
    return DensityMatrix(matrix=mat, dims=(2, 2))


class TestCoordinates:
    def test_basis_is_orthogonal_with_norm_four(self):
        for i, ei in enumerate(mi.PAULI_PRODUCT_BASIS):
            for j, ej in enumerate(mi.PAULI_PRODUCT_BASIS):
                want = 4.0 if i == j else 0.0
                assert abs(np.trace(ei @ ej).real - want) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_round_trip(self, seed):
        state = random_density_matrix(np.random.default_rng(seed), 4)
        state = DensityMatrix(matrix=state.matrix, dims=(2, 2))
        back = state_from_coords(coords_from_state(state))
        assert np.max(np.abs(back.matrix - state.matrix)) < 1e-12

    def test_trace_coordinate_pinned(self):
        coords = coords_from_state(maximally_mixed((2, 2)))
        assert coords.a[0] == pytest.approx(0.25, abs=1e-14)
        assert np.max(np.abs(coords.a[1:])) < 1e-14

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            PauliBasisCoordinates(a=np.zeros(15))

    def test_wrong_trace_entry_rejected(self):
        a = np.zeros(16)
        a[0] = 0.3
        with pytest.raises(InvalidStateError):
            PauliBasisCoordinates(a=a)

    def test_coords_outside_state_set_rejected(self):
        a = np.zeros(16)
        a[0] = 0.25
        a[15] = 0.6  # far outside the Bloch body
        with pytest.raises(InvalidStateError):
            state_from_coords(PauliBasisCoordinates(a=a))

    def test_qutrit_pair_rejected(self):
        state = maximally_mixed((3, 2))
        with pytest.raises(DimensionMismatchError):
            coords_from_state(state)


class TestMutualInformation:
    def test_product_state_zero(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
        assert mutual_information(DensityMatrix(matrix=rho, dims=(2, 2))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bell_state_two_ln_two(self):
        assert mutual_information(max_entangled_state()) == pytest.approx(
            2.0 * LN2, abs=1e-12
        )

    def test_classical_correlated_ln_two(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert mutual_information(DensityMatrix(matrix=rho, dims=(2, 2))) == pytest.approx(
            LN2, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_never_meaningfully_negative(self, seed):
        state = random_density_matrix(np.random.default_rng(seed), 4)
        state = DensityMatrix(matrix=state.matrix, dims=(2, 2))
        assert mutual_information(state) >= -1e-10

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            mutual_information(maximally_mixed((2, 3)))


class TestDidt:
    def test_stationary_state_exactly_zero(self):
        assert didt(stationary_state(0.15), eternal_rates(), 1.0) == 0.0

    def test_product_state_zero(self):
        rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.55, 0.45])).astype(complex)
        state = DensityMatrix(matrix=rho, dims=(2, 2))
        assert abs(didt(state, constant_rates(1.0, 1.0, 1.0), 0.5)) < 1e-9

    def test_near_bell_decreases_under_cp_rates(self):
        # the pure Bell state itself sits on the boundary where the
        # derivative diverges; just inside, CP dynamics must lose information
        mat = 0.95 * max_entangled_state().matrix + 0.05 * np.eye(4) / 4.0
        state = DensityMatrix(matrix=mat, dims=(2, 2))
        assert didt(state, constant_rates(1.0, 1.0, 1.0), 0.5) < 0.0

    def test_boundary_state_rejected(self):
        with pytest.raises(BoundaryStateError):
            didt(max_entangled_state(), constant_rates(1.0, 1.0, 1.0), 0.5)
        with pytest.raises(BoundaryStateError):
            didt_finite_difference(max_entangled_state(), eternal_rates(), 0.5)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            didt(maximally_mixed((2, 3)), eternal_rates(), 0.5)

    @pytest.mark.parametrize("rates,t", PRESETS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_chain_rule_matches_finite_difference(self, rates, t, seed):
        state = interior_state(seed)
        chain = didt(state, rates, t)
        fd = didt_finite_difference(state, rates, t)
        assert chain == pytest.approx(fd, abs=1e-6)

    def test_batch_matches_singles_and_flags_boundary(self):
        rates, t = eternal_rates(), 0.9
        states = [interior_state(s) for s in (1, 2)]
        mats = np.stack([st.matrix for st in states] + [max_entangled_state().matrix])
        vals = mi.didt_batch(mats, rates, t)
        for got, st in zip(vals[:2], states):
            assert got == pytest.approx(didt(st, rates, t), abs=1e-12)
        assert np.isnan(vals[2])

    def test_batch_shape_guard(self):
        with pytest.raises(DimensionMismatchError):
            mi.didt_batch(np.eye(3)[None], eternal_rates(), 0.5)


class TestSpectralDerivatives:
    def test_trace_function_gradient_and_flat_hessian(self):
        rng = np.random.default_rng(3)
        dirs = [random_hermitian(rng, 3) for _ in range(2)]
        fam = (3.0 * np.eye(3) + 0.1 * random_hermitian(rng, 3), dirs)
        res = mi.spectral_derivatives(*fam, trace_function(), np.array([0.2, -0.1]))
        for got, b in zip(res.gradient, dirs):
            assert got == pytest.approx(np.trace(b).real, abs=1e-12)
        assert np.max(np.abs(res.hessian)) < 1e-12

    @pytest.mark.parametrize("a1", [0.3, -0.2, 0.0])
    def test_sum_of_squares_on_sigma_z_line(self, a1):
        f = mi.SpectralFunction(
            value=lambda lam: float((lam**2).sum()),
            gradient=lambda lam: 2.0 * lam,
            hessian=lambda lam: 2.0 * np.eye(lam.size),
        )
        fam = (
            np.zeros((2, 2), dtype=complex), [np.diag([1.0, -1.0]).astype(complex)]
        )
        res = mi.spectral_derivatives(*fam, f, np.array([a1]))
        assert res.gradient[0] == pytest.approx(4.0 * a1, abs=1e-12)
        assert res.hessian[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_entropy_along_e12_analytic(self):
        # eigenvalues are 1/4 +- a twice, so dS/da = -2 ln((1/4+a)/(1/4-a))
        fam = (0.25 * np.eye(4, dtype=complex), [mi.PAULI_PRODUCT_BASIS[12]])
        for a in (0.05, -0.12, 0.2):
            res = mi.spectral_derivatives(*fam, mi.entropy_function(), np.array([a]))
            want_g = -2.0 * math.log((0.25 + a) / (0.25 - a))
            want_h = -2.0 / (0.25 + a) - 2.0 / (0.25 - a)
            assert res.gradient[0] == pytest.approx(want_g, rel=1e-12)
            assert res.hessian[0, 0] == pytest.approx(want_h, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_entropy_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        n_par = int(rng.integers(1, 4))
        fam = (
            np.eye(dim) + 0.05 * random_hermitian(rng, dim),
            [0.1 * random_hermitian(rng, dim) for _ in range(n_par)],
        )
        a = rng.uniform(-0.3, 0.3, size=n_par)
        res = mi.spectral_derivatives(*fam, mi.entropy_function(), a)
        grad_fd, _ = spectral_fd(*fam, mi.entropy_function(), a, 1e-4)
        _, hess_fd = spectral_fd(*fam, mi.entropy_function(), a, 1e-3)
        assert np.allclose(res.gradient, grad_fd, rtol=1e-4, atol=1e-7)
        assert np.allclose(res.hessian, hess_fd, rtol=1e-4, atol=1e-5)

    def test_workspace_invariants_nondegenerate(self):
        rng = np.random.default_rng(9)
        fam = (
            np.diag([1.0, 2.0, 3.5]).astype(complex),
            [random_hermitian(rng, 3) for _ in range(2)],
        )
        res = mi.spectral_derivatives(*fam, mi.entropy_function(), np.array([0.05, -0.02]))
        assert np.max(np.abs(res.workspace.eta)) == 0.0
        alpha = res.workspace.alpha
        assert np.max(np.abs(alpha - alpha.transpose(1, 0, 2, 3))) < 1e-12

    def test_degenerate_cluster_still_matches_fd(self):
        # fully degenerate base spectrum; entropy curvature is finite there
        rng = np.random.default_rng(21)
        fam = (
            0.25 * np.eye(4, dtype=complex), [0.1 * random_hermitian(rng, 4) for _ in range(3)]
        )
        a = np.zeros(3)
        res = mi.spectral_derivatives(*fam, mi.entropy_function(), a)
        assert np.max(np.abs(res.workspace.eta)) > 0.0
        grad_fd, _ = spectral_fd(*fam, mi.entropy_function(), a, 1e-4)
        _, hess_fd = spectral_fd(*fam, mi.entropy_function(), a, 1e-3)
        assert np.allclose(res.gradient, grad_fd, rtol=1e-4, atol=1e-7)
        assert np.allclose(res.hessian, hess_fd, rtol=1e-4, atol=1e-5)

    def test_tie_break_choice_does_not_matter(self):
        rng = np.random.default_rng(33)
        base = 0.25 * np.eye(4, dtype=complex)
        dirs = [0.1 * random_hermitian(rng, 4) for _ in range(3)]
        first = mi.spectral_derivatives(base, dirs, mi.entropy_function(), np.zeros(3))
        # the degenerate cluster now takes its basis from dirs[1], not dirs[0]
        second = mi.spectral_derivatives(
            base, dirs[1:] + dirs[:1], mi.entropy_function(), np.zeros(3)
        )
        back = [2, 0, 1]  # position of each original direction in the rotated list
        assert np.allclose(first.gradient, second.gradient[back], atol=1e-10)
        assert np.allclose(first.hessian, second.hessian[np.ix_(back, back)], atol=1e-10)

    def test_divergent_curvature_on_degenerate_pair_rejected(self):
        sqrt_f = mi.SpectralFunction(
            value=lambda lam: float(np.sum(np.sqrt(np.abs(lam)))),
            gradient=lambda lam: 0.5 / np.sqrt(np.abs(lam)),
            hessian=lambda lam: np.diag(-0.25 * np.abs(lam) ** -1.5),
        )
        rng = np.random.default_rng(4)
        fam = (
            np.diag([0.0, 0.0, 1.0]).astype(complex), [random_hermitian(rng, 3)]
        )
        with pytest.raises(DegenerateSpectrumError):
            mi.spectral_derivatives(*fam, sqrt_f, np.zeros(1))


class TestHessianAtStationary:
    @pytest.mark.parametrize("rates,t", PRESETS)
    @pytest.mark.parametrize("a12", [0.0, 0.1, -0.1, 0.2, -0.2])
    def test_matches_closed_forms_with_six_zeros(self, rates, t, a12):
        report = mi.hessian_at_stationary(rates, t, a12)
        assert report.matched
        assert report.zero_space_dim == 6
        assert np.max(np.abs(report.hessian - report.hessian.T)) < 1e-8

    def test_degenerate_limit_value(self):
        # all pairwise sums 0.2384: both families collapse onto -32 * 0.2384
        g = 0.2384 / 2.0
        report = mi.hessian_at_stationary(constant_rates(g, g, g), 0.3, 0.0)
        nonzero = report.eigenvalues[np.abs(report.eigenvalues) > 1e-8]
        assert nonzero.shape == (9,)
        assert np.allclose(nonzero, -32.0 * 0.2384, rtol=1e-10)
        assert np.allclose(report.closed_form, -7.6288, rtol=1e-4)

    def test_eternal_is_nonpositive_at_late_times(self):
        report = mi.hessian_at_stationary(eternal_rates(), 1.0, 0.1)
        assert np.all(report.eigenvalues <= 1e-10)
        assert np.all(report.closed_form <= 0.0)

    def test_negative_pair_sum_creates_unstable_direction(self):
        report = mi.hessian_at_stationary(constant_rates(1.0, 1.0, -3.0), 0.5, 0.1)
        assert np.any(report.closed_form > 0.0)
        assert np.any(report.eigenvalues > 1e-6)

    @pytest.mark.parametrize("a12", [0.249, 0.25, -0.2495, 0.4])
    def test_boundary_parameter_rejected(self, a12):
        with pytest.raises(BoundaryParameterError):
            mi.hessian_at_stationary(eternal_rates(), 1.0, a12)

    def test_series_joins_direct_evaluation(self):
        # the atanh(4a)/a series takes over below 1e-4; the two branches meet
        rates, t = constant_rates(0.4, 0.2, 0.9), 0.3
        lo = mi.closed_form_hessian_eigenvalues(rates, t, 0.99e-4)
        hi = mi.closed_form_hessian_eigenvalues(rates, t, 1.01e-4)
        assert np.allclose(lo, hi, rtol=1e-7)

    @pytest.mark.parametrize("rates,t", PRESETS)
    def test_zero_space_dimension_across_parameter_range(self, rates, t):
        for a12 in np.linspace(-0.23, 0.23, 7):
            report = mi.hessian_at_stationary(rates, t, float(a12))
            assert report.zero_space_dim == 6


class TestZeroEigenspace:
    CASES = [
        (0.05, (0.03, -0.02, 0.04, 0.02, -0.05, 0.08)),
        (0.0, (0.05, 0.0, 0.0, 0.0, 0.0, 0.1)),
        (-0.1, (0.01, 0.02, -0.03, 0.04, 0.0, -0.06)),
        (0.15, (0.02, 0.01, 0.03, -0.03, 0.02, 0.05)),
    ]

    @pytest.mark.parametrize("rates,t", PRESETS)
    @pytest.mark.parametrize("a0,coords", CASES)
    def test_closed_form_matches_didt(self, rates, t, a0, coords):
        closed = zero_eigenspace_didt(a0, coords, rates, t)
        chain = didt(zero_eigenspace_state(a0, coords), rates, t)
        assert closed == pytest.approx(chain, abs=1e-6)

    def test_eternal_never_positive_on_sampled_coordinates(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            a0 = float(rng.uniform(-0.2, 0.2))
            coords = tuple(rng.uniform(-0.08, 0.08, size=6))
            try:
                value = zero_eigenspace_didt(a0, coords, eternal_rates(), 1.0)
            except InvalidStateError:
                continue
            assert value <= 1e-10
            checked += 1

    def test_classical_diagonal_case_matches_didt(self):
        # a_0 = a_4 = a_8 = 0 keeps the state diagonal: a two-bit distribution
        rates, t = constant_rates(1.0, 1.0, 1.0), 0.3
        closed = zero_eigenspace_didt(0.0, (0.0, 0.0, 0.08, 0.0, 0.0, 0.1), rates, t)
        chain = didt(zero_eigenspace_state(0.0, (0.0, 0.0, 0.08, 0.0, 0.0, 0.1)), rates, t)
        assert closed == pytest.approx(chain, abs=1e-9)
        assert closed < 0.0

    def test_pure_a3_direction_is_product_and_flat(self):
        rates, t = constant_rates(1.0, 1.0, 1.0), 0.3
        closed = zero_eigenspace_didt(0.0, (0.0, 0.0, 0.08, 0.0, 0.0, 0.0), rates, t)
        state = zero_eigenspace_state(0.0, (0.0, 0.0, 0.08, 0.0, 0.0, 0.0))
        assert mutual_information(state) == pytest.approx(0.0, abs=1e-12)
        assert closed == pytest.approx(0.0, abs=1e-12)
        assert didt(state, rates, t) == pytest.approx(0.0, abs=1e-9)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            zero_eigenspace_didt(0.1, (0.0, 0.0, 0.0, 0.01, 0.0, 0.05), eternal_rates(), 1.0)

    def test_exterior_coordinates_rejected(self):
        with pytest.raises(InvalidStateError):
            zero_eigenspace_didt(0.2, (0.3, 0.3, 0.3, 0.2, 0.2, 0.2), eternal_rates(), 1.0)

    @given(
        a1=st.floats(-0.1, 0.1),
        a2=st.floats(-0.1, 0.1),
        a3=st.floats(-0.1, 0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_shrink_rate_nonnegative_under_p_divisibility(self, a1, a2, a3):
        if a1 * a1 + a2 * a2 + a3 * a3 < 1e-12:
            return
        assert radius_shrink_rate((a1, a2, a3), eternal_rates(), 1.0) >= 0.0
        assert radius_shrink_rate((a1, a2, a3), constant_rates(1, 1, 1), 0.5) >= 0.0

    def test_shrink_rate_zero_direction_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            radius_shrink_rate((0.0, 0.0, 0.0), eternal_rates(), 1.0)


class TestBoundaryFlatness:
    """States with a_12 = +-1/4 are products; I stays 0 under the dynamics."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_boundary_states_are_product_and_stay_flat(self, seed):
        rng = np.random.default_rng(seed)
        rho_s = random_density_matrix(rng, 2)
        mat = np.kron(np.diag([1.0, 0.0]), rho_s.matrix).astype(complex)
        state = DensityMatrix(matrix=mat, dims=(2, 2))
        coords = coords_from_state(state)
        assert coords.a[12] == pytest.approx(0.25, abs=1e-12)
        assert mutual_information(state) <= 1e-10
        ch = ExtendedChannel(intermediate_map(eternal_rates(), 0.3, 0.9), (2,))
        assert mutual_information(ch.apply_state(state)) <= 1e-10


class TestNeighborhoodScan:
    def test_eternal_neighbourhood_is_clean(self):
        report = mi.neighborhood_scan(eternal_rates(), 1.0, 0.1, radius=1e-2, samples=2048)
        assert report.violation_fraction == 0.0
        assert report.max_didt <= 1e-10
        assert report.n_valid > 1500

    def test_unstable_rates_show_violations(self):
        report = mi.neighborhood_scan(
            constant_rates(1.0, 1.0, -3.0), 0.5, 0.1, radius=1e-2, samples=2048
        )
        assert report.violation_fraction > 0.0
        assert report.max_didt > 1e-6

    def test_zero_radius(self):
        report = mi.neighborhood_scan(eternal_rates(), 1.0, 0.05, radius=0.0, samples=128)
        assert report.violation_fraction == 0.0
        assert abs(report.max_didt) < 1e-12

    def test_deterministic(self):
        kw = dict(radius=1e-2, samples=1024)
        base = mi.neighborhood_scan(constant_rates(1, 1, -3), 0.5, 0.1, **kw)
        again = mi.neighborhood_scan(constant_rates(1, 1, -3), 0.5, 0.1, **kw)
        assert base == again

    def test_seed_is_keyword_only(self):
        # the sixth positional slot once held a thread count; it must not become a seed
        with pytest.raises(TypeError):
            mi.neighborhood_didt(eternal_rates(), 1.0, 0.0, 0.01, 16, 2)

    def test_boundary_center_rejected(self):
        with pytest.raises(BoundaryParameterError):
            mi.neighborhood_scan(eternal_rates(), 1.0, 0.25, radius=1e-2, samples=64)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(NonFiniteError):
            mi.neighborhood_didt(eternal_rates(), 1.0, 0.0, radius=radius, samples=16)
        with pytest.raises(NonFiniteError):
            mi.neighborhood_scan(eternal_rates(), 1.0, 0.0, radius=radius, samples=16)

    @pytest.mark.parametrize(
        "radius,samples",
        [(-0.01, 16), (0.01, 0), (0.01, -3)],
        ids=["negative-radius", "no-samples", "negative-samples"],
    )
    def test_out_of_domain_arguments_rejected(self, radius, samples):
        with pytest.raises(PreconditionError):
            mi.neighborhood_didt(eternal_rates(), 1.0, 0.0, radius=radius, samples=samples)
        with pytest.raises(PreconditionError):
            mi.neighborhood_scan(eternal_rates(), 1.0, 0.0, radius=radius, samples=samples)

    @pytest.mark.parametrize("samples", [100.5, 64.0, np.float64(64.0), True], ids=repr)
    def test_non_integral_sample_count_rejected(self, samples):
        with pytest.raises(PreconditionError, match="integer"):
            mi.neighborhood_didt(eternal_rates(), 1.0, 0.0, radius=0.01, samples=samples)
        with pytest.raises(PreconditionError, match="integer"):
            mi.neighborhood_scan(eternal_rates(), 1.0, 0.0, radius=0.01, samples=samples)

    def test_numpy_integer_sample_count_accepted(self):
        report = mi.neighborhood_scan(
            eternal_rates(), 1.0, 0.05, radius=0.01, samples=np.int64(64)
        )
        assert report.n_valid == 64

    def test_radius_without_interior_state_rejected(self):
        # every sample of a radius-5 ball leaves the state set: nothing is checked
        with pytest.raises(PreconditionError, match="no interior state"):
            mi.neighborhood_didt(eternal_rates(), 1.0, 0.0, 5.0, 50)
        with pytest.raises(PreconditionError, match="no interior state"):
            mi.neighborhood_scan(eternal_rates(), 1.0, 0.0, radius=5.0, samples=50)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(NonFiniteError):
            mi.neighborhood_scan(
                eternal_rates(), 1.0, 0.0, radius=0.01, samples=16, tolerance=tolerance
            )


class TestNonFiniteInputs:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_pair_sums_reject_non_finite_time(self, t):
        with pytest.raises(NonFiniteError):
            eternal_rates().pair_sums(t)
        with pytest.raises(NonFiniteError):
            is_p_divisible_at(eternal_rates(), t)

    def test_mutinfo_api_rejects_nan_time(self):
        with pytest.raises(NonFiniteError):
            didt(interior_state(0), eternal_rates(), math.nan)
        with pytest.raises(NonFiniteError):
            radius_shrink_rate((0.1, 0.0, 0.0), eternal_rates(), math.nan)
        with pytest.raises(NonFiniteError):
            mi.hessian_at_stationary(eternal_rates(), math.nan, 0.0)
        with pytest.raises(NonFiniteError):
            mi.neighborhood_scan(eternal_rates(), math.nan, 0.0, radius=0.01, samples=50)

    @pytest.mark.parametrize("a12", [math.nan, 0.25, -0.25, math.inf])
    def test_bad_a12_rejected_everywhere(self, a12):
        with pytest.raises(BoundaryParameterError):
            mi.hessian_at_stationary(eternal_rates(), 1.0, a12)
        with pytest.raises(BoundaryParameterError):
            mi.closed_form_hessian_eigenvalues(eternal_rates(), 1.0, a12)
        with pytest.raises(BoundaryParameterError):
            mi.neighborhood_didt(eternal_rates(), 1.0, a12, radius=0.01, samples=16)
        with pytest.raises(BoundaryParameterError):
            mi.neighborhood_scan(eternal_rates(), 1.0, a12, radius=0.01, samples=16)


# The einsum forms of the scan path, kept here as oracles: the kernel in
# mutinfo must reproduce their bits exactly, NaN rows included.


def einsum_didt_batch(matrices, rates, t):
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    basis = mi._BASIS_STACK
    coords = 0.25 * np.einsum("nab,iba->ni", mats, basis).real
    lam, u = np.linalg.eigh(mats)
    bad = lam[:, 0] <= mi.INTERIOR_TOL
    fp = -(1.0 + np.log(np.where(lam > 0, lam, 1.0)))
    h_joint = np.einsum("nak,iab,nbk->nik", u.conj(), basis[mi._MOVING], u).real
    grad_joint = np.einsum("nik,nk->ni", h_joint, fp)
    rho_s = np.einsum("nasat->nst", mats.reshape(mats.shape[0], 2, 2, 2, 2))
    lam_s, u_s = np.linalg.eigh(rho_s)
    fp_s = -(1.0 + np.log(np.where(lam_s > 0, lam_s, 1.0)))
    dirs_s = np.stack([2.0 * p for p in PAULIS[1:]])
    h_s = np.einsum("nak,iab,nbk->nik", u_s.conj(), dirs_s, u_s).real
    grad_s = np.einsum("nik,nk->ni", h_s, fp_s)
    grad_i = -grad_joint
    grad_i[:, 0:3] += grad_s
    damp = mi._damping_per_coordinate(rates, t)[mi._MOVING]
    values = -np.einsum("ni,i,ni->n", coords[:, mi._MOVING], damp, grad_i)
    return np.where(bad, np.nan, values)


def per_entry_eigvec_diagonals(u, entries):
    """Every entry's product formed afresh, summed in row-major order."""
    ur = np.ascontiguousarray(u.real.transpose(1, 0, 2))
    ui = np.ascontiguousarray(u.imag.transpose(1, 0, 2))
    out = np.empty((u.shape[0], len(entries), u.shape[-1]))
    for j, (rows, cols, scales, imag) in enumerate(entries):
        acc = None
        for a, b, scale in zip(rows, cols, scales):
            term = ui[a] * ur[b] - ur[a] * ui[b] if imag else ur[a] * ur[b] + ui[a] * ui[b]
            term *= scale
            acc = term if acc is None else acc + term
        out[:, j] = acc
    return out


def uncached_mutual_information_hessian(a_12):
    """All three entropy Hessians recomputed, the system marginal's included."""
    entropy = mi.entropy_function()
    base_joint = 0.25 * np.eye(4, dtype=complex) + a_12 * mi._BASIS_STACK[12]
    res_joint = mi.spectral_derivatives(base_joint, list(mi._BASIS_STACK[1:]), entropy,
                                        np.zeros(15))
    zero2 = np.zeros((2, 2), dtype=complex)
    dirs_a = [2.0 * PAULIS[i // 4] if i % 4 == 0 else zero2 for i in range(1, 16)]
    dirs_s = [2.0 * PAULIS[i] if i < 4 else zero2 for i in range(1, 16)]
    base_a = 0.5 * np.eye(2, dtype=complex) + 2.0 * a_12 * PAULIS[3]
    base_s = 0.5 * np.eye(2, dtype=complex)
    res_a = mi.spectral_derivatives(base_a, dirs_a, entropy, np.zeros(15))
    res_s = mi.spectral_derivatives(base_s, dirs_s, entropy, np.zeros(15))
    return res_a.hessian + res_s.hessian - res_joint.hessian


def einsum_states(pts):
    return 0.25 * np.eye(4, dtype=complex)[None] + np.einsum(
        "ni,iab->nab", pts, mi._BASIS_STACK[1:]
    )


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


SHRINK_BURST = tune_rates_shrink_image(eternal_rates(), math.exp(-4.0), 0.5)
KERNEL_PROFILES = [
    pytest.param(eternal_rates(), 1.0, id="eternal"),
    pytest.param(SHRINK_BURST, 0.9, id="shrink-burst"),
    pytest.param(constant_rates(1.0, 1.0, -3.0), 0.5, id="negative-z"),
]


def scan_points(n, radius, seed, a12=0.05):
    center = np.zeros(15)
    center[11] = a12
    return mi._ball_points(center, radius, n, seed)


class TestBitExactKernel:
    @pytest.mark.parametrize("rates,t", KERNEL_PROFILES)
    @pytest.mark.parametrize("n", [1, 7, 2000])
    @pytest.mark.parametrize("radius", [1e-2, 0.2], ids=["inside", "past-edge"])
    def test_didt_batch_matches_einsum(self, rates, t, n, radius):
        mats = einsum_states(scan_points(n, radius, seed=n))
        want = einsum_didt_batch(mats, rates, t)
        if radius > 0.1 and n > 1:  # some rows leave the state set, some stay
            assert np.isnan(want).any() and not np.isnan(want).all()
        assert_same_bits(mi.didt_batch(mats, rates, t), want)

    @pytest.mark.parametrize("rates,t", KERNEL_PROFILES)
    def test_strided_stacks_match_einsum(self, rates, t):
        mats = einsum_states(scan_points(500, 0.2, seed=4))
        want = einsum_didt_batch(mats, rates, t)
        assert_same_bits(mi.didt_batch(mats[::2], rates, t), want[::2])
        # same values, with the stack axis last in memory
        transposed = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert_same_bits(mi.didt_batch(transposed, rates, t), want)

    def test_rows_do_not_depend_on_batch(self):
        mats = einsum_states(scan_points(64, 0.2, seed=9))
        whole = mi.didt_batch(mats, SHRINK_BURST, 1.3)
        singles = np.concatenate([mi.didt_batch(m, SHRINK_BURST, 1.3) for m in mats])
        assert_same_bits(singles, whole)

    @pytest.mark.parametrize("radius", [0.0, 1e-2, 0.2])
    def test_state_build_matches_einsum(self, radius):
        for seed in range(3):
            pts = scan_points(4096, radius, seed, a12=0.1 * seed - 0.1)
            assert_same_bits(mi._states_from_points(pts), einsum_states(pts))

    def test_neighborhood_didt_matches_einsum_path(self):
        args = (SHRINK_BURST, 1.2, 0.05, 0.05, 3001)
        pts = scan_points(3001, 0.05, seed=6)
        want = einsum_didt_batch(einsum_states(pts), SHRINK_BURST, 1.2)
        assert_same_bits(mi.neighborhood_didt(*args, seed=6), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_shared_products_match_per_entry_form(self, seed):
        mats = einsum_states(scan_points(2000, 0.2, seed))
        _, u = np.linalg.eigh(mats)
        _, u_s = np.linalg.eigh(np.einsum("nasat->nst", mats.reshape(-1, 2, 2, 2, 2)))
        for vecs, entries in ((u, mi._MOVING_ENTRIES), (u_s, mi._MARGINAL_ENTRIES)):
            assert_same_bits(mi._eigvec_diagonals(vecs, entries),
                             per_entry_eigvec_diagonals(vecs, entries))

    def test_cached_marginal_hessian_matches_uncached_form(self):
        for a12 in [0.0, 1e-5, -0.1, 0.2, 0.245]:
            assert_same_bits(mi._mutual_information_hessian(a12),
                             uncached_mutual_information_hessian(a12))
        assert not mi._SYSTEM_MARGINAL_HESSIAN.flags.writeable

    def test_split_stack_matches_whole(self):
        rates = constant_rates(1.0, 1.0, -3.0)
        mats = einsum_states(scan_points(4097, 0.2, seed=3, a12=0.1))
        whole = mi.didt_batch(mats, rates, 0.5)
        assert np.isnan(whole).any() and not np.isnan(whole).all()
        pieces = [mi.didt_batch(piece, rates, 0.5) for piece in (mats[:1], mats[1:513], mats[513:])]
        assert_same_bits(np.concatenate(pieces), whole)

    def test_shorter_scan_is_a_prefix(self):
        args = (constant_rates(1.0, 1.0, -3.0), 0.5, 0.1, 0.2)
        longer = mi.neighborhood_didt(*args, 4097, seed=3)
        assert np.isnan(longer[:1024]).any()
        assert_same_bits(mi.neighborhood_didt(*args, 1024, seed=3), longer[:1024])


def scipy_ball_points(center, radius, n, seed):
    """The neighbourhood draw through scipy.stats, as mutinfo once made it."""
    from scipy.stats import norm, qmc

    raw = qmc.Sobol(d=16, scramble=True, seed=seed).random(n)
    gauss = norm.ppf(np.clip(raw[:, :15], 1e-12, 1.0 - 1e-12))
    lengths = np.linalg.norm(gauss, axis=1)
    lengths = np.where(lengths > 0, lengths, 1.0)
    radial = radius * raw[:, 15] ** (1.0 / 15.0)
    return center[None, :] + (gauss / lengths[:, None]) * radial[:, None]


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol:UserWarning")
class TestSobolDraw:
    """The numpy Sobol draw and inverse normal CDF against scipy, which only tests import."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2000, 3001, 4096])
    def test_matches_scipy_sobol(self, n):
        from scipy.stats import qmc

        for seed in [*range(40), 2**31 - 1]:
            want = qmc.Sobol(d=16, scramble=True, seed=seed).random(n)
            assert_same_bits(mi._sobol_points(n, seed), want)

    def test_ndtri_matches_norm_ppf(self):
        from scipy.special import ndtri
        from scipy.stats import norm

        ends = np.array([0.0, 2.0**-30, 1e-12, 0.5, 1.0 - 1e-12, 1.0])
        for raw in [ends, *(mi._sobol_points(4096, seed)[:, :15] for seed in range(4))]:
            clipped = np.clip(raw, 1e-12, 1.0 - 1e-12)
            assert_same_bits(ndtri(clipped), norm.ppf(clipped))

    def test_ndtri_matches_scipy_on_the_sobol_grid(self):
        from scipy.special import ndtri

        # the draw feeds only j * 2**-30 clipped to [1e-12, 1 - 1e-12]
        edges = [int(e * 2**30) for e in (mi._EXP_M2, 1.0 - mi._EXP_M2)]
        j = np.concatenate([
            np.random.default_rng(15).integers(0, 2**30, 2**20),
            np.arange(2**16),
            np.arange(2**30 - 2**16, 2**30),
            *(np.arange(e - 2**16, e + 2**16) for e in edges),
        ])
        grid = np.clip(j * 2.0**-30, 1e-12, 1.0 - 1e-12)
        for p in (grid, np.array([1e-12, 1.0 - 1e-12])):
            assert_same_bits(mi._ndtri(p), ndtri(p))

    @pytest.mark.parametrize("radius", [0.0, 1e-2, 0.2])
    def test_ball_points_match_scipy_path(self, radius):
        for seed, n in [(0, 1), (5, 7), (11, 2000), (3, 3001)]:
            center = np.zeros(15)
            center[11] = 0.01 * seed
            want = scipy_ball_points(center, radius, n, seed)
            assert_same_bits(mi._ball_points(center, radius, n, seed), want)

    def test_more_than_2_30_samples_rejected_before_drawing(self, monkeypatch):
        class Drawn(Exception):
            pass

        def draw(samples, seed):
            raise Drawn  # nothing of size 2**30 is ever allocated here

        monkeypatch.setattr(mi, "_sobol_points", draw)
        for scan in (mi.neighborhood_didt, mi.neighborhood_scan):
            with pytest.raises(PreconditionError, match="samples"):
                scan(eternal_rates(), 1.0, 0.0, radius=0.01, samples=2**30 + 1)
            with pytest.raises(Drawn):  # the largest count scipy allows goes through
                scan(eternal_rates(), 1.0, 0.0, radius=0.01, samples=2**30)


class TestBurstComposition:
    """After an epsilon-burst the image of the dynamics cannot gain I."""

    def test_image_states_show_no_increase(self):
        eps = math.exp(-4.0)
        tuned = tune_rates_shrink_image(eternal_rates(), eps, 0.5)
        rng = np.random.default_rng(77)
        for t in (0.8, 1.5):
            # the tail keeps the original profile: P-divisible but not CP-div
            assert is_p_divisible_at(tuned, t)
            assert not is_cp_divisible_at(tuned, t)
            ch = ExtendedChannel(decay_factors(tuned, 0.0, t), (2,))
            mats = []
            while len(mats) < 60:
                raw = random_density_matrix(rng, 4)
                coords = coords_from_state(
                    DensityMatrix(matrix=raw.matrix, dims=(2, 2))
                ).a.copy()
                coords[[4, 8, 12]] = 0.0  # maximally mixed ancilla side
                try:
                    state = state_from_coords(PauliBasisCoordinates(a=coords))
                except InvalidStateError:
                    continue
                mats.append(ch.apply_state(state).matrix)
            values = mi.didt_batch(np.stack(mats), tuned, t)
            assert not np.any(np.isnan(values))
            assert np.max(values) <= 1e-10
