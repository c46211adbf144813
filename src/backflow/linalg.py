"""Dense linear algebra for small multi-qubit systems.

Everything here works on explicit numpy arrays; matrices are tiny (dimension
at most ~16), so no attempt is made at sparsity. trace_norm also takes a
stack of matrices, which numpy's eigensolvers handle in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    SubsystemIndexError,
)

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-10
STATE_HERMITICITY_TOL = 1e-12
STATE_TRACE_TOL = 1e-12
STATE_PSD_TOL = -1e-10


def hermitian_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and eigenvector columns u, as np.linalg.eigh.

    Raises DimensionMismatchError unless the matrix is square, and
    NotHermitianError if max |M - M^dagger| exceeds HERMITICITY_TOL; a
    solver failure propagates as numpy's LinAlgError.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.conj().T)) > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from Hermitian by more than {HERMITICITY_TOL}")
    return np.linalg.eigh(matrix)


def tensor_product(*operators: np.ndarray) -> np.ndarray:
    if not operators:
        raise DimensionMismatchError("tensor_product needs at least one operator")
    out = np.asarray(operators[0], dtype=complex)
    for op in operators[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix together with its tensor factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    # validation tolerances are fixed; see module constants
    _skip_checks: bool = field(default=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        total = int(np.prod(self.dims))
        if mat.shape != (total, total):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match dims {self.dims}"
            )
        if self._skip_checks:
            return
        if not np.all(np.isfinite(mat)):
            raise InvalidStateError("density matrix has non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > STATE_HERMITICITY_TOL:
            raise InvalidStateError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > STATE_TRACE_TOL or abs(np.trace(mat).imag) > STATE_TRACE_TOL:
            raise InvalidStateError("density matrix trace differs from 1 by more than 1e-12")
        w = np.linalg.eigvalsh(mat)
        if w[0] < STATE_PSD_TOL:
            raise InvalidStateError(f"density matrix has eigenvalue {w[0]:.3e} below -1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_matrix(state) -> np.ndarray:
    """Accept DensityMatrix or ndarray and return the underlying array."""
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


def maximally_mixed(dims) -> DensityMatrix:
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    return DensityMatrix(matrix=np.eye(n, dtype=complex) / n, dims=dims)


def pure_state(vector: np.ndarray, dims) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(matrix=np.outer(v, v.conj()), dims=tuple(dims))


def max_entangled_state() -> DensityMatrix:
    """|Phi+> = (|00> + |11>)/sqrt(2) on two qubits."""
    return pure_state(np.array([1.0, 0.0, 0.0, 1.0]), (2, 2))


PHI_PLUS = max_entangled_state().matrix  # |Phi+><Phi+| on two qubits
PHI_PLUS.setflags(write=False)


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Ginibre-induced random state of full rank."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(matrix=mat, dims=(dim,))


def partial_transpose(matrix: np.ndarray, dims, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite (or multipartite) operator."""
    dims = tuple(int(d) for d in dims)
    mat = np.asarray(matrix, dtype=complex)
    n = len(dims)
    if subsystem < 0 or subsystem >= n:
        raise SubsystemIndexError(f"subsystem {subsystem} out of range for {n} factors")
    tensor = mat.reshape(tuple(dims) * 2)
    tensor = np.swapaxes(tensor, subsystem, subsystem + n)
    return tensor.reshape(mat.shape)


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues; Hermitian input only.

    A (d, d) matrix gives a float. A (k, d, d) stack gives one value per
    matrix from one stacked eigvalsh, each equal bit for bit to the float of
    that matrix alone; one non-Hermitian member rejects the whole stack.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(matrix - np.swapaxes(matrix, -1, -2).conj())) > HERMITICITY_TOL:
        raise NotHermitianError("trace_norm is implemented for Hermitian matrices only")
    norms = _abs_eig_sum(matrix)
    return float(norms) if matrix.ndim == 2 else norms


def _abs_eig_sum(matrix: np.ndarray) -> np.ndarray:
    """trace_norm's arithmetic without its check, for a complex Hermitian stack
    the caller built Hermitian; eigvalsh reads only the lower triangle."""
    return np.abs(np.linalg.eigvalsh(matrix)).sum(axis=-1)
