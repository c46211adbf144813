"""Mutual information under random-unitary qubit dynamics.

States of the ancilla-system qubit pair are written against the sixteen Pauli
products e_{4a+s} = sigma_a (x) sigma_s (a indexing the ancilla factor, s the
system factor, sigma_0 = identity) with coordinates a_i = Tr(rho e_i) / 4, so
that rho = (1/4) 1(x)1 + sum_{i>=1} a_i e_i. The dynamics damps each system
Pauli independently, so every coordinate with s > 0 decays at the pairwise
rate sum c_s while the s = 0 coordinates stand still. The time derivative of
the mutual information is then a weighted sum of coordinate gradients, and
its Hessian at a stationary state is a Hadamard-weighted entropy Hessian.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (
    ExtendedChannel,
    PauliChannelMap,
    RateProfile,
    intermediate_map,
    invert_channel,
)
from .errors import (
    BoundaryParameterError,
    BoundaryStateError,
    DegenerateDirectionError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    InvalidStateError,
    NonFiniteError,
    PreconditionError,
)
from .linalg import (
    PAULIS,
    DensityMatrix,
    hermitian_eig,
    partial_trace,
    von_neumann_entropy,
)

INTERIOR_TOL = 1e-8
DEGENERACY_TOL = 1e-9
BOUNDARY_MARGIN = 1e-3

# e_{4a+s} = sigma_a (x) sigma_s in row-major order over (a, s)
PAULI_PRODUCT_BASIS: tuple[np.ndarray, ...] = tuple(
    np.kron(sa, ss) for sa in PAULIS for ss in PAULIS
)
# index of the system-side Pauli for each basis element; 0 means it is frozen
_SYSTEM_INDEX = np.array([i % 4 for i in range(16)])
_MOVING = np.array([i for i in range(16) if i % 4 != 0])
_BASIS_STACK = np.stack(PAULI_PRODUCT_BASIS)


def _nonzero_entries(ops: np.ndarray) -> tuple:
    """Per operator: (rows, cols, scales, imag) of its non-zero entries in
    row-major order; each entry is scale, or scale times i when imag."""
    table = []
    for op in ops:
        rows, cols = np.nonzero(op)
        vals = op[rows, cols]
        imag = bool(np.any(vals.imag))
        table.append((rows, cols, vals.imag if imag else vals.real, imag))
    return tuple(table)


# each Pauli product has four non-zero entries of 16, all in {+-1} or all in {+-i}
_BASIS_ENTRIES = _nonzero_entries(_BASIS_STACK)
_MOVING_ENTRIES = tuple(_BASIS_ENTRIES[i] for i in _MOVING)
# the system-marginal directions 2 sigma_1..3
_MARGINAL_ENTRIES = _nonzero_entries(np.stack([2.0 * p for p in PAULIS[1:]]))


@dataclass(frozen=True)
class PauliBasisCoordinates:
    """Sixteen real coordinates with the unit-trace entry pinned to 1/4."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.shape != (16,):
            raise DimensionMismatchError("coordinates must be a length-16 vector")
        if abs(arr[0] - 0.25) > 1e-12:
            raise InvalidStateError("a_0 must equal 1/4 for a unit-trace state")
        object.__setattr__(self, "a", arr)


def coords_from_state(state: DensityMatrix) -> PauliBasisCoordinates:
    _require_two_qubits(state)
    a = 0.25 * np.einsum("ab,iba->i", state.matrix, _BASIS_STACK).real
    return PauliBasisCoordinates(a=a)


def state_from_coords(coords: PauliBasisCoordinates) -> DensityMatrix:
    mat = np.einsum("i,iab->ab", coords.a, _BASIS_STACK)
    return DensityMatrix(matrix=mat, dims=(2, 2))


def stationary_state(a_12: float) -> DensityMatrix:
    """Diagonal stationary state (1/4) 1(x)1 + a_12 sigma_z (x) 1."""
    a = np.zeros(16)
    a[0] = 0.25
    a[12] = float(a_12)
    return state_from_coords(PauliBasisCoordinates(a=a))


def _require_two_qubits(state: DensityMatrix) -> None:
    if tuple(state.dims) != (2, 2):
        raise DimensionMismatchError("expected an ancilla-system qubit pair (2, 2)")


def mutual_information(state: DensityMatrix) -> float:
    """I = S(rho_A) + S(rho_S) - S(rho_AS) in natural log units."""
    _require_two_qubits(state)
    s_a = von_neumann_entropy(partial_trace(state, keep=(0,)))
    s_s = von_neumann_entropy(partial_trace(state, keep=(1,)))
    return s_a + s_s - von_neumann_entropy(state)


# ---------------------------------------------------------------------------
# spectral-function derivatives


@dataclass(frozen=True)
class SpectralFunction:
    """f(lambda) with its gradient vector and Hessian matrix in lambda."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def entropy_function() -> SpectralFunction:
    def val(lam: np.ndarray) -> float:
        pos = lam[lam > 0.0]
        return float(-(pos * np.log(pos)).sum())

    return SpectralFunction(
        value=val,
        gradient=lambda lam: -(1.0 + np.log(lam)),
        hessian=lambda lam: np.diag(-1.0 / lam),
    )


def trace_function() -> SpectralFunction:
    return SpectralFunction(
        value=lambda lam: float(lam.sum()),
        gradient=lambda lam: np.ones_like(lam),
        hessian=lambda lam: np.zeros((lam.size, lam.size)),
    )


@dataclass(frozen=True)
class SpectralDerivativeWorkspace:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    h1: np.ndarray      # (m, n): u_k+ (dA/da_i) u_k
    h2: np.ndarray      # (m, m, n): curvature scalars per eigenvalue
    alpha: np.ndarray   # (m, m, n, n) symmetric cross terms
    eta: np.ndarray     # (m, m) degenerate-pair correction


@dataclass(frozen=True)
class SpectralDerivativeResult:
    workspace: SpectralDerivativeWorkspace
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def _cluster_indices(lam: np.ndarray, tol: float) -> list[list[int]]:
    clusters: list[list[int]] = [[0]]
    for k in range(1, lam.size):
        if lam[k] - lam[clusters[-1][-1]] <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def spectral_derivatives(
    base: np.ndarray,
    directions: Sequence[np.ndarray],
    f: SpectralFunction,
    a: np.ndarray,
    tie_break_direction: int = 0,
) -> SpectralDerivativeResult:
    """Gradient and Hessian of f(spectrum(A(a))) at a, for A(a) = base + sum_i a_i d_i.

    Eigenvectors inside a degenerate cluster are fixed by diagonalizing the
    first parameter direction with a non-scalar projection onto the cluster,
    starting the search at tie_break_direction; the derivatives themselves do
    not depend on this choice and re-running with another start index is a
    cheap consistency check.
    """
    a = np.asarray(a, dtype=float)
    firsts = [np.asarray(d, dtype=complex) for d in directions]
    mat = np.array(base, dtype=complex)
    for ai, d in zip(a, firsts):
        mat += ai * d
    m = len(firsts)
    dec = hermitian_eig(mat)
    lam = dec.eigenvalues.copy()
    u = dec.eigenvectors.copy()
    n = lam.size

    clusters = _cluster_indices(lam, DEGENERACY_TOL)
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        cols = np.array(cluster)
        for shift in range(m):
            idx = (tie_break_direction + shift) % m
            block = u[:, cols].conj().T @ firsts[idx] @ u[:, cols]
            block = 0.5 * (block + block.conj().T)
            scalar = (np.trace(block) / len(cluster)) * np.eye(len(cluster))
            if np.max(np.abs(block - scalar)) > 1e-12:
                _, rot = np.linalg.eigh(block)
                u[:, cols] = u[:, cols] @ rot
                break

    with np.errstate(divide="ignore", invalid="ignore"):
        grad_f = np.asarray(f.gradient(lam), dtype=float)
        hess_f = np.asarray(f.hessian(lam), dtype=float)

    same_cluster = np.zeros((n, n), dtype=bool)
    for cluster in clusters:
        for k in cluster:
            same_cluster[k, cluster] = True
    if any(len(c) > 1 for c in clusters):
        diag2 = np.diag(hess_f)
        for cluster in clusters:
            if len(cluster) > 1 and not np.all(np.isfinite(diag2[cluster])):
                raise DegenerateSpectrumError(
                    "second derivative of f diverges on a degenerate pair"
                )

    v = np.stack([u.conj().T @ b @ u for b in firsts])          # (m, n, n)
    h1 = np.einsum("ikk->ik", v).real                           # (m, n)
    alpha = 2.0 * np.einsum("ikl,jkl->ijkl", v, v.conj()).real  # symmetric in (i, j)

    gaps = lam[:, None] - lam[None, :]
    inv_gaps = np.where(same_cluster, 0.0, 1.0 / np.where(same_cluster, 1.0, gaps))
    h2 = np.einsum("ijkl,kl->ijk", alpha, inv_gaps)

    pair_mask = same_cluster & ~np.eye(n, dtype=bool)
    eta = 0.5 * np.einsum("ijkl,kl->ij", alpha, pair_mask * np.diag(hess_f)[:, None])

    gradient = h1 @ grad_f
    hessian = (
        np.einsum("kl,ik,jl->ij", hess_f, h1, h1)
        + np.einsum("ijk,k->ij", h2, grad_f)
        + eta
    )
    hessian = 0.5 * (hessian + hessian.T)
    workspace = SpectralDerivativeWorkspace(
        eigenvalues=lam, eigenvectors=u, h1=h1, h2=h2, alpha=alpha, eta=eta
    )
    return SpectralDerivativeResult(
        workspace=workspace,
        value=float(f.value(lam)),
        gradient=gradient,
        hessian=hessian,
    )


# ---------------------------------------------------------------------------
# time derivative of the mutual information


def _damping_per_coordinate(rates: RateProfile, t: float) -> np.ndarray:
    """c_i for all 16 coordinates: the pairwise rate sum of the system Pauli."""
    c = rates.pair_sums(t)
    out = np.zeros(16)
    mov = _SYSTEM_INDEX > 0
    out[mov] = c[_SYSTEM_INDEX[mov] - 1]
    return out


def _eigvec_diagonals(u: np.ndarray, entries) -> np.ndarray:
    """Re diag(u^dag e u) for each operator e of an entry table: (n, ops, k).

    Sums only the non-zero entries (a, b) of e, left to right in row-major
    order; each term is Re(conj(u_ak) e_ab u_bk), i.e. the scale times
    ur_a ur_b + ui_a ui_b for a real entry or ui_a ur_b - ur_a ui_b for an
    imaginary one. Temporaries stay at (n, k).
    """
    # (d, n, k): component a of every eigenvector is one contiguous block
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


def _eigen_weighted(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k h[n, i, k] w[n, k], added left to right over k: (n, i)."""
    acc = h[:, :, 0] * w[:, None, 0]
    for k in range(1, h.shape[-1]):
        acc = acc + h[:, :, k] * w[:, None, k]
    return acc


def _states_from_points(pts: np.ndarray) -> np.ndarray:
    """(1/4) 1 + sum_i pts[:, i - 1] e_i over i = 1..15: (n, 4, 4) matrices.

    Each matrix entry adds its non-zero contributions in increasing i.
    """
    n = pts.shape[0]
    re, im = np.zeros((2, 16, n))      # flat entry 4a + b first, sample last
    for p, (rows, cols, scales, imag) in zip(np.ascontiguousarray(pts.T), _BASIS_ENTRIES[1:]):
        (im if imag else re)[4 * rows + cols] += scales[:, None] * p
    total = np.empty((n, 4, 4), dtype=complex)
    total.real = re.T.reshape(n, 4, 4)
    total.imag = im.T.reshape(n, 4, 4)
    return 0.25 * np.eye(4, dtype=complex)[None] + total


def didt_batch(matrices: np.ndarray, rates: RateProfile, t: float) -> np.ndarray:
    """Chain-rule d/dt of the mutual information for a stack of (4, 4) states.

    Entries whose state has an eigenvalue at or below INTERIOR_TOL come back
    as NaN; the derivative is not defined there.

    Rounding is fixed per row: the eigenvector diagonals add only the
    non-zero Pauli entries, left to right in row-major order, and the
    gradients add over eigenvalues left to right. A row's value therefore
    does not depend on the batch it sits in or on how a batch is split
    across threads, which keeps threaded CSV output byte-identical.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.shape[-2:] != (4, 4):
        raise DimensionMismatchError("didt_batch expects (n, 4, 4) matrices")
    damp = _damping_per_coordinate(rates, t)[_MOVING]
    n_states = mats.shape[0]
    coords = 0.25 * np.einsum("nab,iba->ni", mats, _BASIS_STACK).real

    lam, u = np.linalg.eigh(mats)
    bad = lam[:, 0] <= INTERIOR_TOL
    lam_safe = np.where(lam > 0, lam, 1.0)
    fp = -(1.0 + np.log(lam_safe))                                  # (n, 4)
    grad_joint = _eigen_weighted(_eigvec_diagonals(u, _MOVING_ENTRIES), fp)  # (n, 12)

    # system marginal: only the s-side coordinates i in {1, 2, 3} move it
    tens = mats.reshape(n_states, 2, 2, 2, 2)
    rho_s = np.einsum("nasat->nst", tens)
    lam_s, u_s = np.linalg.eigh(rho_s)
    lam_s_safe = np.where(lam_s > 0, lam_s, 1.0)
    fp_s = -(1.0 + np.log(lam_s_safe))
    grad_s = _eigen_weighted(_eigvec_diagonals(u_s, _MARGINAL_ENTRIES), fp_s)  # (n, 3)

    grad_i = -grad_joint
    grad_i[:, 0:3] += grad_s                                        # moving 1, 2, 3 lead
    values = -np.einsum("ni,i,ni->n", coords[:, _MOVING], damp, grad_i)
    values = np.where(bad, np.nan, values)
    return values


def didt(state: DensityMatrix, rates: RateProfile, t: float) -> float:
    """Chain-rule time derivative of I at an interior two-qubit state."""
    _require_two_qubits(state)
    if float(np.linalg.eigvalsh(state.matrix)[0]) <= INTERIOR_TOL:
        raise BoundaryStateError("state eigenvalue at or below 1e-8; didt undefined")
    return float(didt_batch(state.matrix[None], rates, t)[0])


def didt_finite_difference(state: DensityMatrix, rates: RateProfile, t: float) -> float:
    """Central difference of I under the intermediate map, as an oracle."""
    step = 1e-5
    _require_two_qubits(state)
    if float(np.linalg.eigvalsh(state.matrix)[0]) <= INTERIOR_TOL:
        raise BoundaryStateError("state eigenvalue at or below 1e-8; didt undefined")

    def shifted(ch: PauliChannelMap) -> float:
        return mutual_information(ExtendedChannel(ch, (2,)).apply_state(state))

    if t >= step:
        plus = shifted(intermediate_map(rates, t, t + step))
        minus = shifted(invert_channel(intermediate_map(rates, t - step, t)))
        return (plus - minus) / (2.0 * step)
    plus = shifted(intermediate_map(rates, t, t + step))
    return (plus - mutual_information(state)) / step


# ---------------------------------------------------------------------------
# Hessian at the diagonal stationary states


@dataclass(frozen=True)
class HessianReport:
    a_12: float
    hessian: np.ndarray
    eigenvalues: np.ndarray        # sorted, 15 values
    closed_form: np.ndarray        # sorted, 9 values
    expected: np.ndarray           # sorted, six zeros plus the closed forms
    zero_space_dim: int
    matched: bool
    max_mismatch: float


def _atanh_ratio(a_12: float) -> float:
    # atanh(4a)/a, by series near zero to dodge the 0/0
    if abs(a_12) < 1e-4:
        return 4.0 + (64.0 / 3.0) * a_12 * a_12
    return math.atanh(4.0 * a_12) / a_12


def _check_a12(a_12: float) -> None:
    # written so that a NaN a_12 fails too
    if not abs(a_12) < 0.25 - BOUNDARY_MARGIN:
        raise BoundaryParameterError(
            f"a_12 must sit strictly inside (-1/4, 1/4) by {BOUNDARY_MARGIN}, got {a_12}"
        )


def closed_form_hessian_eigenvalues(
    rates: RateProfile, t: float, a_12: float
) -> np.ndarray:
    """The nine non-trivial Hessian eigenvalues at the stationary state.

    Three carry the factor (16 a^2 + 1)/(16 a^2 - 1), one per pairwise rate
    sum; the other six carry -8 atanh(4a)/a, two per pairwise rate sum. All
    nine are non-positive exactly when the pairwise sums are non-negative.
    """
    _check_a12(a_12)
    c = rates.pair_sums(t)
    ratio = (16.0 * a_12 * a_12 + 1.0) / (16.0 * a_12 * a_12 - 1.0)
    tanh_part = _atanh_ratio(a_12)
    vals = [32.0 * ck * ratio for ck in c]
    for ck in c:
        vals.extend([-8.0 * ck * tanh_part] * 2)
    return np.sort(np.asarray(vals))


def _mutual_information_hessian(a_12: float) -> np.ndarray:
    """Hessian of I over coordinates a_1..a_15 at the stationary state."""
    coords = np.zeros(16)
    coords[0] = 0.25
    coords[12] = a_12
    entropy = entropy_function()
    dirs = list(_BASIS_STACK[1:])

    base_joint = 0.25 * np.eye(4, dtype=complex) + a_12 * _BASIS_STACK[12]
    res_joint = spectral_derivatives(base_joint, dirs, entropy, np.zeros(15))

    # marginal families: Tr_S e_i = 2 sigma_a when s = 0, else zero (same for A)
    zero2 = np.zeros((2, 2), dtype=complex)
    dirs_a = [2.0 * PAULIS[i // 4] if i % 4 == 0 else zero2 for i in range(1, 16)]
    dirs_s = [2.0 * PAULIS[i] if i < 4 else zero2 for i in range(1, 16)]
    base_a = 0.5 * np.eye(2, dtype=complex) + 2.0 * a_12 * PAULIS[3]
    base_s = 0.5 * np.eye(2, dtype=complex)
    res_a = spectral_derivatives(base_a, dirs_a, entropy, np.zeros(15))
    res_s = spectral_derivatives(base_s, dirs_s, entropy, np.zeros(15))

    return res_a.hessian + res_s.hessian - res_joint.hessian


def hessian_at_stationary(rates: RateProfile, t: float, a_12: float) -> HessianReport:
    """Hessian of d/dt I at the stationary state, checked against closed forms.

    The derivative factorizes: with v_i = -c_i a_i the linear coordinate
    velocities, every third-order term vanishes at the stationary state and
    H_pq = -(c_p + c_q) (d^2 I / da_p da_q), a Hadamard weighting of the
    entropy Hessian.
    """
    _check_a12(a_12)
    hess_i = _mutual_information_hessian(a_12)
    damp = _damping_per_coordinate(rates, t)[1:]
    weight = damp[:, None] + damp[None, :]
    hessian = -weight * hess_i
    hessian = 0.5 * (hessian + hessian.T)

    eigs = np.sort(np.linalg.eigvalsh(hessian))
    closed = closed_form_hessian_eigenvalues(rates, t, a_12)
    expected = np.sort(np.concatenate([np.zeros(6), closed]))

    mismatch = 0.0
    matched = True
    for got, want in zip(eigs, expected):
        if abs(want) <= 1e-8:
            err = abs(got)
            ok = err <= 1e-8
        else:
            err = abs(got - want) / abs(want)
            ok = err <= 1e-4
        mismatch = max(mismatch, err)
        matched = matched and ok
    zero_dim = int(np.sum(np.abs(eigs) <= 1e-8))
    return HessianReport(
        a_12=float(a_12),
        hessian=hessian,
        eigenvalues=eigs,
        closed_form=closed,
        expected=expected,
        zero_space_dim=zero_dim,
        matched=matched,
        max_mismatch=float(mismatch),
    )


# ---------------------------------------------------------------------------
# the zero eigenspace of the Hessian


def radius_shrink_rate(coords3: Sequence[float], rates: RateProfile, t: float) -> float:
    """(a_1^2 c_1 + a_2^2 c_2 + a_3^2 c_3) / |a|: the decay speed of the
    system Bloch radius. Non-negative exactly under the pairwise conditions;
    the radius derivative itself is the negative of this value."""
    a1, a2, a3 = (float(x) for x in coords3)
    norm_sq = a1 * a1 + a2 * a2 + a3 * a3
    if norm_sq <= 0.0:
        raise DegenerateDirectionError("system direction (a_1, a_2, a_3) must be non-zero")
    c = rates.pair_sums(t)
    return float((a1 * a1 * c[0] + a2 * a2 * c[1] + a3 * a3 * c[2]) / math.sqrt(norm_sq))


def zero_eigenspace_state(a_0: float, coords: Sequence[float]) -> DensityMatrix:
    """State (1/4) 1(x)1 + (1 + 4 a_0 sigma_z)(x)(a.sigma) + (b.sigma)(x) 1
    for coords = (a_1, a_2, a_3, a_4, a_8, a_12)."""
    a1, a2, a3, a4, a8, a12 = (float(x) for x in coords)
    a = np.zeros(16)
    a[0] = 0.25
    a[1], a[2], a[3] = a1, a2, a3
    a[13], a[14], a[15] = 4.0 * a_0 * a1, 4.0 * a_0 * a2, 4.0 * a_0 * a3
    a[4], a[8], a[12] = a4, a8, a12
    return state_from_coords(PauliBasisCoordinates(a=a))


def zero_eigenspace_didt(
    a_0: float, coords: Sequence[float], rates: RateProfile, t: float
) -> float:
    """Closed-form d/dt of I on the flat directions of the stationary Hessian.

    Every coordinate of the state enters I only through the system Bloch
    radius lam, so dI/dt = (dI/dlam)(dlam/ds). The four joint eigenvalues are
    x = 1/4 +- lam +- omega with omega_pm themselves functions of lam, which
    adds the omega' ln-ratio terms to the plain ln(x3 x4 / (x1 x2)) part.
    """
    a1, a2, a3, a4, a8, a12 = (float(x) for x in coords)
    lam_sq = a1 * a1 + a2 * a2 + a3 * a3
    if lam_sq <= 0.0:
        raise DegenerateDirectionError("system direction (a_1, a_2, a_3) must be non-zero")
    lam = math.sqrt(lam_sq)

    state = zero_eigenspace_state(a_0, coords)  # raises InvalidState when outside
    if float(np.linalg.eigvalsh(state.matrix)[0]) <= INTERIOR_TOL:
        raise InvalidStateError("zero-eigenspace state must be interior")

    trans = a4 * a4 + a8 * a8
    z_plus = a12 + 4.0 * a_0 * lam
    z_minus = a12 - 4.0 * a_0 * lam
    w_plus = math.sqrt(trans + z_plus * z_plus)
    w_minus = math.sqrt(trans + z_minus * z_minus)
    x1 = 0.25 - lam - w_minus
    x2 = 0.25 - lam + w_minus
    x3 = 0.25 + lam + w_plus
    x4 = 0.25 + lam - w_plus
    di_dlam = math.log((x3 * x4) / (x1 * x2)) - 2.0 * math.log(
        (0.5 + 2.0 * lam) / (0.5 - 2.0 * lam)
    )
    # omega' terms; when omega vanishes so does its z numerator, limit zero
    if w_plus > 1e-300:
        di_dlam += (4.0 * a_0 * z_plus / w_plus) * math.log(x3 / x4)
    if w_minus > 1e-300:
        di_dlam += (-4.0 * a_0 * z_minus / w_minus) * math.log(x2 / x1)
    dlam_ds = -radius_shrink_rate((a1, a2, a3), rates, t)
    return di_dlam * dlam_ds


# ---------------------------------------------------------------------------
# scanning a neighbourhood of a stationary state


@dataclass(frozen=True)
class NeighborhoodScanReport:
    violation_fraction: float
    max_didt: float
    n_samples: int
    n_valid: int
    tolerance: float


# Joe-Kuo direction numbers of the first sixteen Sobol dimensions: the
# primitive polynomial of each (its bits, leading and constant terms included)
# and its initial direction numbers, one per degree; dimension 0 is all ones.
_SOBOL_POLYNOMIALS = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97)
_SOBOL_INITIAL = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
    (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49),
)
_SOBOL_BITS = 30  # at most 2**_SOBOL_BITS distinct points
_MSB_FIRST = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


@functools.cache  # built on the first scan, so importing the module stays cheap
def _sobol_directions() -> np.ndarray:
    """Direction numbers m_{d,j} / 2**(j+1) as 30-bit fractions: (16, _SOBOL_BITS) uint32."""
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(_SOBOL_POLYNOMIALS[1:], _SOBOL_INITIAL[1:]):
        deg = len(init)
        v = list(init)
        for j in range(deg, _SOBOL_BITS):
            new = v[j - deg]
            for k in range(deg):
                if poly >> (deg - 1 - k) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    directions = np.array(rows, dtype=np.uint32) << _MSB_FIRST
    directions.flags.writeable = False  # one cached copy serves every scan
    return directions


def _sobol_points(samples: int, seed: int) -> np.ndarray:
    """The first samples points of the LMS-scrambled, shifted 16-dim Sobol sequence.

    Bit for bit `scipy.stats.qmc.Sobol(d=16, scramble=True, seed=seed).random(samples)`:
    the same draws from `default_rng(seed)` in the same order, the digital
    shift first and then the lower-triangular scramble matrices, and the
    same Gray-code order of points. All but the final scaling is exact
    integer arithmetic. The caller keeps 1 <= samples <= 2**_SOBOL_BITS.
    """
    rng = np.random.default_rng(seed)
    shift_bits = rng.integers(0, 2, (16, _SOBOL_BITS), dtype=np.uint32)
    lower = np.tril(rng.integers(0, 2, (16, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    lower |= np.eye(_SOBOL_BITS, dtype=np.uint32)
    shift = (shift_bits << np.arange(_SOBOL_BITS, dtype=np.uint32)).sum(axis=1, dtype=np.uint32)
    # scrambled bit p of each direction number is the parity of row p of the
    # scramble matrix against its bits, both read most significant first
    rows = (lower << _MSB_FIRST).sum(axis=2, dtype=np.uint32)
    parity = rows[:, :, None] & _sobol_directions()[:, None, :]
    for s in (16, 8, 4, 2, 1):
        parity ^= parity >> s
    scrambled = ((parity & 1) << _MSB_FIRST[None, :, None]).sum(axis=1, dtype=np.uint32)
    # point k >= 1 flips the direction number of the lowest set bit of k
    k = np.arange(1, samples, dtype=np.int64)
    flips = np.frexp((k & -k).astype(np.float64))[1] - 1
    points = np.empty((samples, 16), dtype=np.uint32)
    points[0] = shift
    np.take(scrambled.T, flips, axis=0, out=points[1:])
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    return points * 2.0**-_SOBOL_BITS


def _ball_points(center: np.ndarray, radius: float, samples: int, seed: int) -> np.ndarray:
    """Deterministic quasi-random points in the 15-ball around center."""
    from scipy.special import ndtri  # the scans alone need it; import on first use

    raw = _sobol_points(samples, seed)
    # first 15 dims give a direction through the Gaussian trick, the last the
    # radial fraction with the d-ball volume correction
    gauss = ndtri(np.clip(raw[:, :15], 1e-12, 1.0 - 1e-12))
    lengths = np.linalg.norm(gauss, axis=1)
    lengths = np.where(lengths > 0, lengths, 1.0)
    radial = radius * raw[:, 15] ** (1.0 / 15.0)
    return center[None, :] + (gauss / lengths[:, None]) * radial[:, None]


def neighborhood_didt(
    rates: RateProfile,
    t: float,
    a_12: float,
    radius: float,
    samples: int,
    threads: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """dI/dt at each sampled neighbourhood state of the stationary state.

    Samples live on the coordinate 15-ball of the given radius around the
    stationary state; entries whose state leaves the interior of the state
    set are NaN. With threads > 1 the samples are split into
    min(threads, cores) batches evaluated in parallel; the values do not
    depend on it. A non-finite t or radius raises NonFiniteError, a negative
    radius or a sample count outside [1, 2**30] PreconditionError.
    """
    _check_a12(a_12)
    if not math.isfinite(radius):
        raise NonFiniteError(f"radius must be finite, got {radius}")
    if radius < 0.0 or not 1 <= samples <= 2**_SOBOL_BITS:
        raise PreconditionError(
            f"need radius >= 0 and 1 <= samples <= 2**{_SOBOL_BITS}, "
            f"got radius={radius}, samples={samples}"
        )
    center = np.zeros(15)
    center[11] = a_12  # coordinate a_12 of the 15 free entries a_1..a_15
    pts = _ball_points(center, radius, samples, seed)
    mats = _states_from_points(pts)
    batches = min(threads or 1, os.cpu_count() or 1)
    if batches > 1:
        chunks = np.array_split(mats, batches)
        with ThreadPoolExecutor(max_workers=batches) as pool:
            return np.concatenate(list(pool.map(lambda c: didt_batch(c, rates, t), chunks)))
    return didt_batch(mats, rates, t)


def neighborhood_scan(
    rates: RateProfile,
    t: float,
    a_12: float,
    radius: float,
    samples: int,
    tolerance: float = 1e-10,
    seed: int = 0,
) -> NeighborhoodScanReport:
    """Fraction of sampled neighbourhood states with didt above tolerance.

    Summarizes neighborhood_didt: points that leave the state set are
    dropped from the denominator. A NaN or infinite tolerance raises
    NonFiniteError; a radius at which every sample leaves the state set
    raises PreconditionError, since no state would have been checked.
    """
    if not math.isfinite(tolerance):
        raise NonFiniteError(f"tolerance must be finite, got {tolerance}")
    values = neighborhood_didt(rates, t, a_12, radius, samples, seed=seed)
    valid = ~np.isnan(values)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise PreconditionError(
            f"no sampled state lies inside the state set: radius={radius} admits "
            f"no interior state around a_12={a_12}"
        )
    good = values[valid]
    violations = int((good > tolerance).sum())
    return NeighborhoodScanReport(
        violation_fraction=violations / n_valid,
        max_didt=float(good.max()),
        n_samples=samples,
        n_valid=n_valid,
        tolerance=tolerance,
    )
