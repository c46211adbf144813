"""Test oracles: closed forms and independent checks of the library.

`src/backflow` keeps only what a CLI scenario, a scan or a benchmark
workload reaches (`tests/test_imports.py` enforces it). The definitions
here are reached by the tests alone. By the library module they check:

- `linalg`: partial trace, trace distance and von Neumann entropy;
- `channels`: composition of Pauli maps and the random-unitary GKSL
  generator, whose integrated dynamics `decay_factors` must reproduce;
- `ensembles`: state ensembles and measurement on a subsystem, the
  fixed-point discrimination bound `guessing_probability_bruteforce` with
  its `OptimizerBudget`, the Helstrom value for two equiprobable states,
  and the level-by-level loop form of `construct_me_povm`;
- `mutinfo`: Pauli-product coordinates, the mutual information, the
  single-state `didt`, its finite-difference oracle, and the MI no-go's
  closed form for dI/dt on the Hessian's zero eigenspace;
- two numerical helpers the test modules share: `random_hermitian` and
  the central-difference `spectral_fd`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from backflow.channels import (
    ExtendedChannel,
    PauliChannelMap,
    RateProfile,
    intermediate_map,
    invert_channel,
)
from backflow.ensembles import (
    Povm,
    _bipartition,
    _certify_effects,
    _conditional_kernel,
    _fixed_point,
    _pinv_sqrt,
    _pretty_good_measurement,
)
from backflow.errors import (
    BackflowError,
    DegenerateSplitError,
    DimensionMismatchError,
    InvalidStateError,
    SubsystemIndexError,
)
from backflow.linalg import (
    PAULIS,
    STATE_PSD_TOL,
    DensityMatrix,
    as_matrix,
    hermitian_eig,
    maximally_mixed,
    trace_norm,
)
from backflow.mutinfo import (
    _BASIS_STACK,
    INTERIOR_TOL,
    SpectralFunction,
    didt_batch,
)


# ---------------------------------------------------------------------------
# errors raised only by the oracles below


class BoundaryStateError(BackflowError):
    """A state sits too close to the boundary of the state set."""


class DegenerateDirectionError(BackflowError):
    """A direction parameter has zero length where a unit vector is needed."""


# ---------------------------------------------------------------------------
# linalg oracles


ENTROPY_CLAMP = 1e-14


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all subsystems not listed in keep.

    keep preserves the original ordering of the retained factors.
    """
    mat, sys_dims = state.matrix, state.dims
    keep = sorted(set(int(k) for k in keep))
    n = len(sys_dims)
    if any(k < 0 or k >= n for k in keep):
        raise SubsystemIndexError(f"keep={keep} out of range for {n} subsystems")
    if not keep:
        raise SubsystemIndexError("must keep at least one subsystem")
    tensor = mat.reshape(tuple(sys_dims) * 2)
    # contract each traced subsystem's ket index with its bra index
    traced = [i for i in range(n) if i not in keep]
    for count, idx in enumerate(traced):
        ax = idx - sum(1 for j in traced[:count] if j < idx)
        half = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=ax, axis2=ax + half)
    kept_dims = tuple(sys_dims[k] for k in keep)
    total = int(np.prod(kept_dims))
    out = tensor.reshape(total, total)
    out = 0.5 * (out + out.conj().T)  # scrub rounding asymmetry
    return DensityMatrix(matrix=out, dims=kept_dims, _skip_checks=True)


def trace_distance(state_a, state_b) -> float:
    a, b = as_matrix(state_a), as_matrix(state_b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


def von_neumann_entropy(state) -> float:
    """-Tr(rho ln rho), in natural log units.

    Eigenvalues in [-1e-10, 0) are clamped to zero and anything below 1e-14
    contributes nothing; an eigenvalue under -1e-10 is rejected.
    """
    mat = as_matrix(state)
    w = np.linalg.eigvalsh(mat)
    if w[0] < STATE_PSD_TOL:
        raise InvalidStateError(f"eigenvalue {w[0]:.3e} below -1e-10")
    w = np.where(w < ENTROPY_CLAMP, 0.0, w)
    nz = w[w > 0]
    return float(-(nz * np.log(nz)).sum())


# ---------------------------------------------------------------------------
# channels oracles


def compose(later: PauliChannelMap, earlier: PauliChannelMap) -> PauliChannelMap:
    f = later.factors * earlier.factors
    return PauliChannelMap(*f)


@dataclass(frozen=True)
class GkslGenerator:
    """Time-local generator: i[H, rho] + sum_k w_k (G rho G+ - {G+G, rho}/2)."""

    hamiltonian: Callable[[float], np.ndarray] | None
    jump_operators: tuple[np.ndarray, ...]
    weights: Callable[[float], np.ndarray]


def gksl_apply(gen: GkslGenerator, state, t: float) -> np.ndarray:
    rho = as_matrix(state)
    out = np.zeros_like(rho)
    if gen.hamiltonian is not None:
        h = gen.hamiltonian(t)
        out += 1j * (h @ rho - rho @ h)
    w = np.asarray(gen.weights(t), dtype=float)
    for wk, g in zip(w, gen.jump_operators):
        gdg = g.conj().T @ g
        out += wk * (g @ rho @ g.conj().T - 0.5 * (gdg @ rho + rho @ gdg))
    return out


def random_unitary_generator(rates: RateProfile) -> GkslGenerator:
    """Generator whose integrated dynamics reproduces decay_factors.

    The jump operators are the Pauli matrices with weights gamma_k/2; the
    factor 1/2 makes d/ds of the accumulated map at s = t agree with the
    decay-factor exponents (each Bloch axis damps at the pairwise rate sum,
    not twice it).
    """
    return GkslGenerator(
        hamiltonian=None,
        jump_operators=(PAULIS[1], PAULIS[2], PAULIS[3]),
        weights=lambda t: 0.5 * rates.rates(t),
    )


# ---------------------------------------------------------------------------
# ensembles oracles


DEGENERATE_OUTCOME_TOL = 1e-14


@dataclass(frozen=True)
class EnsembleMember:
    probability: float
    state: DensityMatrix
    degenerate: bool = False


@dataclass(frozen=True)
class StateEnsemble:
    members: tuple[EnsembleMember, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidStateError("ensemble needs at least one member")
        total = sum(m.probability for m in self.members)
        if any(m.probability < -1e-12 for m in self.members) or abs(total - 1.0) > 1e-10:
            raise InvalidStateError("ensemble probabilities must be a distribution")
        dim = self.members[0].state.matrix.shape[0]
        if any(m.state.matrix.shape[0] != dim for m in self.members):
            raise DimensionMismatchError("ensemble states must share one dimension")

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(m.probability for m in self.members)

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(m.state for m in self.members)


@dataclass(frozen=True)
class OptimizerBudget:
    """Effort of guessing_probability_bruteforce.

    seeds: fixed-point starts (three fixed ones, then seeded random starts
    up to this count). max_iterations: fixed-point steps per start.
    rng_seed: the random starts' generator seed.
    """

    seeds: int = 8
    max_iterations: int = 300
    rng_seed: int = 0


@dataclass(frozen=True)
class DiscriminationResult:
    value: float
    iterations: int
    converged: bool
    povm: Povm | None = None


def guessing_probability_bruteforce(
    ensemble: StateEnsemble, budget: OptimizerBudget | None = None
) -> DiscriminationResult:
    """Lower bound on the guessing probability by fixed-point ascent.

    Iterates the discrimination map P_i <- L^{-1/2} W_i P_i W_i L^{-1/2} with
    L = sum_j W_j P_j W_j and W_i = p_i rho_i, from a pretty-good-measurement
    seed, a uniform and a guess-the-prior start, and budget.seeds - 2 seeded
    random starts; keeps the best payoff seen. For two states this lands on
    the Helstrom value to ~1e-10.
    """
    budget = budget or OptimizerBudget()
    ws = [m.probability * m.state.matrix for m in ensemble.members]
    n = len(ws)
    dim = ws[0].shape[0]
    rng = np.random.default_rng(budget.rng_seed)

    seeds = [_pretty_good_measurement(ws)]
    seeds.append([np.eye(dim) / n for _ in range(n)])
    # guess-the-prior baseline: assign everything to the most likely member
    imax = int(np.argmax([m.probability for m in ensemble.members]))
    seeds.append([np.eye(dim) if i == imax else np.zeros((dim, dim)) for i in range(n)])
    for _ in range(max(0, budget.seeds - 2)):
        gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n)]
        sq = [g @ g.conj().T + 1e-6 * np.eye(dim) for g in gs]
        ti = _pinv_sqrt(sum(sq))
        seeds.append([ti @ s @ ti for s in sq])

    best_val, best_effs, best_it, best_conv = -1.0, None, 0, False
    for s in seeds:
        val, effs, it, conv = _fixed_point(ws, s, budget.max_iterations)
        if val > best_val:
            best_val, best_effs, best_it, best_conv = val, effs, it, conv
    povm = None
    if best_effs is not None:
        try:
            povm = Povm(effects=tuple(_certify_effects(best_effs)))
        except DimensionMismatchError:
            povm = None
    return DiscriminationResult(
        value=best_val,
        iterations=best_it,
        converged=best_conv,
        povm=povm,
    )


def _resolve_side(dims: Sequence[int], side) -> tuple[int, ...]:
    """Map a side designator (\"A\", \"B\", factor index, or index tuple) to factors."""
    if isinstance(side, str):
        if side.upper() == "A":
            return (0,)
        if side.upper() == "B":
            return tuple(range(1, len(dims)))
        raise SubsystemIndexError(f"unknown side {side!r}")
    if isinstance(side, (int, np.integer)):
        return (int(side),)
    return tuple(int(k) for k in side)


def measure_on_subsystem(state: DensityMatrix, povm: Povm, side=0) -> StateEnsemble:
    """Measure one side of a composite state; return outcomes and conditionals.

    side is "A" (the first factor), "B" (everything else), a factor index, or
    a tuple of factor indices. Outcomes with probability below 1e-14 are
    flagged degenerate and carry the maximally mixed conditional as a
    placeholder.
    """
    dims = state.dims
    measured = _resolve_side(dims, side)
    rest = tuple(k for k in range(len(dims)) if k not in measured)
    if not rest:
        raise SubsystemIndexError("measurement must leave an unmeasured side")
    mat, d_meas, d_rest = _bipartition(state, measured)
    if povm.dim != d_meas:
        raise DimensionMismatchError("POVM dimension does not match the measured side")
    rest_dims = tuple(dims[k] for k in rest)
    members = []
    for effect in povm.effects:
        kernel = _conditional_kernel(mat, d_meas, d_rest, effect)
        p = float(np.trace(kernel).real)
        if p <= DEGENERATE_OUTCOME_TOL:
            members.append(
                EnsembleMember(
                    probability=max(p, 0.0),
                    state=maximally_mixed(rest_dims),
                    degenerate=True,
                )
            )
            continue
        cond = 0.5 * (kernel + kernel.conj().T) / p
        members.append(
            EnsembleMember(
                probability=p,
                state=DensityMatrix(matrix=cond, dims=rest_dims, _skip_checks=True),
            )
        )
    return StateEnsemble(members=tuple(members))


def guessing_probability_two(state_a: DensityMatrix, state_b: DensityMatrix) -> float:
    """Optimal guessing probability for two equiprobable states."""
    return 0.25 * (2.0 + 2.0 * trace_distance(state_a, state_b))


def construct_me_povm_loop(state: DensityMatrix, n_outputs: int = 2) -> Povm:
    """construct_me_povm with its weights filled one (effect, level) pair at a time.

    Same interval construction, same operations in the same order, so its
    effects must equal the library's bit for bit.
    """
    if n_outputs < 2:
        raise DegenerateSplitError("need at least two outputs")
    w, u = hermitian_eig(state.matrix)
    order = np.argsort(w)[::-1]
    lam = np.clip(w[order], 0.0, None)
    vecs = u[:, order]
    d = lam.size
    edges = np.concatenate([[0.0], np.cumsum(lam)])
    if edges[-1] <= 0:
        raise DegenerateSplitError("state has no probability mass")
    edges = edges / edges[-1]
    lam_norm = np.diff(edges)

    weights = np.zeros((n_outputs, d))
    for i in range(n_outputs):
        lo, hi = i / n_outputs, (i + 1) / n_outputs
        for j in range(d):
            a, b = edges[j], edges[j + 1]
            overlap = max(0.0, min(hi, b) - max(lo, a))
            if overlap > 0.0:
                if lam_norm[j] <= 0.0:
                    raise DegenerateSplitError("fractional split hit a zero eigenvalue")
                weights[i, j] = overlap / lam_norm[j]
    for j in range(d):  # zero-mass levels: park them in the last effect
        if lam_norm[j] <= 0.0:
            weights[-1, j] = 1.0
    weights[-1] += 1.0 - weights.sum(axis=0)

    effects = tuple((vecs * wt) @ vecs.conj().T for wt in weights)
    return Povm(effects=effects)


# ---------------------------------------------------------------------------
# mutinfo oracles


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


def trace_function() -> SpectralFunction:
    return SpectralFunction(
        value=lambda lam: float(lam.sum()),
        gradient=lambda lam: np.ones_like(lam),
        hessian=lambda lam: np.zeros((lam.size, lam.size)),
    )


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
# numerical helpers shared by the test modules


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def spectral_fd(base, dirs, f, a, step):
    """Central-difference gradient and Hessian of f(spectrum(A(a)))."""

    def val(x):
        mat = np.array(base, dtype=complex)
        for xi, d in zip(x, dirs):
            mat += xi * d
        return f.value(np.linalg.eigvalsh(mat))

    m = a.size
    grad = np.zeros(m)
    hess = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        grad[i] = (val(a + e) - val(a - e)) / (2.0 * step)
        hess[i, i] = (val(a + e) - 2.0 * val(a) + val(a - e)) / step**2
    for i in range(m):
        for j in range(i + 1, m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = step
            ej[j] = step
            hess[i, j] = hess[j, i] = (
                val(a + ei + ej) - val(a + ei - ej) - val(a - ei + ej) + val(a - ei - ej)
            ) / (4.0 * step**2)
    return grad, hess
