"""Tests for the dense Hermitian linear-algebra layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    SubsystemIndexError,
)
from backflow.linalg import (
    PAULIS,
    DensityMatrix,
    as_matrix,
    hermitian_eig,
    max_entangled_state,
    maximally_mixed,
    partial_transpose,
    pure_state,
    random_density_matrix,
    tensor_product,
    trace_norm,
)
from oracles import partial_trace, random_hermitian, trace_distance, von_neumann_entropy


class TestHermitianEig:
    """Checked eigendecomposition: (w, u) as np.linalg.eigh returns them."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 12])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        mat = random_hermitian(rng, dim)
        w, u = hermitian_eig(mat)
        rebuilt = (u * w) @ u.conj().T
        assert np.allclose(rebuilt, mat, atol=1e-12)

    def test_values_ascending(self):
        rng = np.random.default_rng(7)
        w, _ = hermitian_eig(random_hermitian(rng, 9))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eig(mat)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.zeros(shape, dtype=complex))

    def test_values_are_real_array(self):
        w, _ = hermitian_eig(np.diag([3.0, -1.0, 0.5]).astype(complex))
        assert w.dtype.kind == "f"
        assert np.allclose(np.sort(w), [-1.0, 0.5, 3.0])


class TestTensorProduct:
    def test_matches_kron_chain(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
        assert np.allclose(tensor_product(a, b, c), np.kron(np.kron(a, b), c))

    def test_single_factor_identity(self):
        mat = np.eye(3, dtype=complex)
        assert np.allclose(tensor_product(mat), mat)


class TestDensityMatrix:
    """Constructor validation for the state container."""

    def test_accepts_valid_state(self):
        state = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
        assert state.dim == 2
        assert state.dims == (2,)

    def test_rejects_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2, dtype=complex), (2,))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(mat, (2,))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(mat, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 3))

    @pytest.mark.parametrize(
        "mat",
        [
            np.full((2, 2), np.nan, dtype=complex),
            np.diag([np.inf, 0.5]).astype(complex),
        ],
        ids=["all-nan", "inf-entry"],
    )
    def test_rejects_non_finite(self, mat):
        with pytest.raises(InvalidStateError):
            DensityMatrix(mat, (2,))

    def test_tiny_negative_eigenvalue_tolerated(self):
        # The PSD check uses a -1e-10 floor so optimizer round-off survives.
        mat = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        state = DensityMatrix(mat, (2,))
        assert state.matrix[1, 1].real == pytest.approx(-5e-11)


class TestConstructors:
    def test_maximally_mixed(self):
        state = maximally_mixed((2, 3))
        assert state.dims == (2, 3)
        assert np.allclose(as_matrix(state), np.eye(6) / 6)

    def test_pure_state_normalizes(self):
        vec = np.array([3.0, 4.0], dtype=complex)
        state = pure_state(vec, (2,))
        assert np.isclose(np.trace(as_matrix(state)).real, 1.0)
        assert np.isclose(as_matrix(state)[0, 0].real, 9.0 / 25.0)

    def test_max_entangled_qubits(self):
        state = max_entangled_state()
        mat = as_matrix(state)
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
        assert np.allclose(mat, np.outer(vec, vec))
        assert state.dims == (2, 2)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_random_density_matrix_valid(self, dim):
        rng = np.random.default_rng(42)
        state = random_density_matrix(rng, dim)
        mat = as_matrix(state)
        assert np.isclose(np.trace(mat).real, 1.0)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10

    def test_random_density_matrix_deterministic(self):
        a = as_matrix(random_density_matrix(np.random.default_rng(5), 3))
        b = as_matrix(random_density_matrix(np.random.default_rng(5), 3))
        assert np.array_equal(a, b)


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(1)
        rho = as_matrix(random_density_matrix(rng, 2))
        sig = as_matrix(random_density_matrix(rng, 3))
        joint = DensityMatrix(np.kron(rho, sig), (2, 3))
        left = partial_trace(joint, keep=(0,))
        right = partial_trace(joint, keep=(1,))
        assert np.allclose(as_matrix(left), rho, atol=1e-12)
        assert np.allclose(as_matrix(right), sig, atol=1e-12)
        assert left.dims == (2,)
        assert right.dims == (3,)

    def test_bell_marginal_is_mixed(self):
        bell = max_entangled_state()
        marg = partial_trace(bell, keep=(1,))
        assert np.allclose(as_matrix(marg), np.eye(2) / 2)

    def test_retained_factors_keep_original_order(self):
        # keep=(2, 0) and keep=(0, 2) agree: factor order is positional
        rng = np.random.default_rng(3)
        parts = [as_matrix(random_density_matrix(rng, d)) for d in (2, 3, 2)]
        joint = DensityMatrix(tensor_product(*parts), (2, 3, 2))
        kept = partial_trace(joint, keep=(2, 0))
        assert kept.dims == (2, 2)
        assert np.allclose(as_matrix(kept), np.kron(parts[0], parts[2]), atol=1e-12)

    def test_keep_all_is_identity_op(self):
        rng = np.random.default_rng(9)
        state = random_density_matrix(rng, 4)
        joint = DensityMatrix(as_matrix(state), (2, 2))
        out = partial_trace(joint, keep=(0, 1))
        assert np.allclose(as_matrix(out), as_matrix(joint))

    def test_bad_index_raises(self):
        bell = max_entangled_state()
        with pytest.raises(SubsystemIndexError):
            partial_trace(bell, keep=(2,))


class TestPartialTranspose:
    def test_bell_state_eigenvalues(self):
        bell = as_matrix(max_entangled_state())
        pt = partial_transpose(bell, (2, 2), 1)
        vals = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(11)
        mat = as_matrix(random_density_matrix(rng, 6))
        pt = partial_transpose(mat, (2, 3), 1)
        back = partial_transpose(pt, (2, 3), 1)
        assert np.allclose(back, mat)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(12)
        rho = as_matrix(random_density_matrix(rng, 2))
        sig = as_matrix(random_density_matrix(rng, 2))
        pt = partial_transpose(np.kron(rho, sig), (2, 2), 0)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(pt)),
            np.sort(np.linalg.eigvalsh(np.kron(rho, sig))),
            atol=1e-12,
        )

    def test_subsystem_out_of_range(self):
        with pytest.raises(SubsystemIndexError):
            partial_transpose(np.eye(4, dtype=complex) / 4, (2, 2), 2)


class TestTraceNormAndDistance:
    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0, 0.5]).astype(complex)) == pytest.approx(3.5)

    def test_trace_distance_orthogonal_pure(self):
        zero = pure_state(np.array([1.0, 0.0]), (2,))
        one = pure_state(np.array([0.0, 1.0]), (2,))
        assert trace_distance(zero, one) == pytest.approx(1.0)

    def test_trace_distance_self_is_zero(self):
        state = random_density_matrix(np.random.default_rng(2), 4)
        assert trace_distance(state, state) == pytest.approx(0.0, abs=1e-14)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density_matrix(rng, 3) for _ in range(3))
        lhs = trace_distance(a, c)
        rhs = trace_distance(a, b) + trace_distance(b, c)
        assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_stack_matches_per_matrix(self, dim):
        rng = np.random.default_rng(dim)
        stack = np.stack([random_hermitian(rng, dim) for _ in range(9)])
        got = trace_norm(stack)
        assert got.shape == (9,)
        assert all(got[i] == trace_norm(stack[i]) for i in range(9))
        assert isinstance(trace_norm(stack[0]), float)

    def test_stack_with_one_non_hermitian_member_rejected(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            trace_norm(stack)

    def test_qubit_bloch_formula(self):
        # For qubits 2 T(rho, sigma) equals the Bloch-vector distance.
        r = np.array([0.3, -0.2, 0.5])
        s = np.array([-0.1, 0.4, 0.2])
        rho = 0.5 * (PAULIS[0] + sum(r[k] * PAULIS[k + 1] for k in range(3)))
        sig = 0.5 * (PAULIS[0] + sum(s[k] * PAULIS[k + 1] for k in range(3)))
        expected = 0.5 * np.linalg.norm(r - s)
        got = trace_distance(DensityMatrix(rho, (2,)), DensityMatrix(sig, (2,)))
        assert got == pytest.approx(expected, abs=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        state = pure_state(np.array([1.0, 1.0]), (2,))
        assert von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_log_dim(self):
        state = maximally_mixed((3,))
        assert von_neumann_entropy(state) == pytest.approx(np.log(3.0))

    def test_near_boundary_clamped(self):
        # Eigenvalues below the clamp must not produce NaN from log(0).
        mat = np.diag([1.0 - 1e-16, 1e-16]).astype(complex)
        state = DensityMatrix(mat, (2,))
        val = von_neumann_entropy(state)
        assert np.isfinite(val)
        assert val >= 0.0
