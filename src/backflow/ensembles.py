"""Measurements, state ensembles, and measurement-based correlation measures.

The central objects are POVMs that are equiprobable on a reference state
(every outcome has probability exactly 1/n), the guessing probability of the
ensembles such measurements prepare on the far side of a bipartite state, and
the correlation quantifier built from them: the best guessing probability over
equiprobable measurements minus the blind-guess baseline 1/2.

Two-output measurements on a qubit side reduce to a search over the Bloch
sphere. A batched minorize-maximize search refines a stack of starting
directions together, one stacked eigensolve per step, and no step lowers any
start; that is what makes it reliable enough to compare against closed forms
at 1e-6. Two-output measurements on larger sides use a monotone alternating
ascent. More outputs use a seesaw that alternates the far side's
discrimination with pairwise updates of the measured side's effects, for at
most budget.polish_maxfev rounds; every strategy it holds is exactly
equiprobable, and it reports the best one's payoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    InvalidStateError,
    SubsystemIndexError,
)
from .linalg import (
    PAULIS,
    DensityMatrix,
    hermitian_eig,
    maximally_mixed,
    tensor_product,
    trace_distance,
    trace_norm,
)

ME_PROB_TOL = 1e-10
DEGENERATE_OUTCOME_TOL = 1e-14


# ---------------------------------------------------------------------------
# POVMs


@dataclass(frozen=True)
class Povm:
    """A tuple of effects: Hermitian, PSD, summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effs = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        object.__setattr__(self, "effects", effs)
        if not effs or effs[0].ndim != 2 or effs[0].shape[0] != effs[0].shape[1]:
            raise DimensionMismatchError("POVM needs at least one square 2-D effect")
        dim = effs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in effs:
            if e.shape != (dim, dim):
                raise DimensionMismatchError("POVM effects must share one dimension")
            if not np.all(np.isfinite(e)):
                raise DimensionMismatchError("POVM effect has non-finite entries")
            if np.max(np.abs(e - e.conj().T)) > 1e-12:
                raise DimensionMismatchError("POVM effect is not Hermitian")
            if np.linalg.eigvalsh(e)[0] < -1e-10:
                raise DimensionMismatchError("POVM effect has a negative eigenvalue")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise DimensionMismatchError("POVM effects do not sum to the identity")

    @property
    def n_outputs(self) -> int:
        return len(self.effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True)
class MePovmCertificate:
    equiprobable: bool
    probabilities: tuple[float, ...]
    max_deviation: float


def is_me_povm(povm: Povm, state: DensityMatrix) -> MePovmCertificate:
    """Check whether every outcome is equiprobable on the given state."""
    if povm.dim != state.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} does not match state dimension {state.dim}"
        )
    n = povm.n_outputs
    probs = tuple(float(np.trace(state.matrix @ e).real) for e in povm.effects)
    dev = max(abs(p - 1.0 / n) for p in probs)
    return MePovmCertificate(
        equiprobable=dev <= ME_PROB_TOL, probabilities=probs, max_deviation=dev
    )


def construct_me_povm(state: DensityMatrix, n_outputs: int = 2) -> Povm:
    """Build an n-output POVM equiprobable on the given state.

    Work in the eigenbasis, eigenvalues descending. Lay the eigenvalue masses
    end to end on [0, 1] and cut into n equal pieces; the overlap of piece i
    with level j, divided by the level's mass, is the weight of level j in
    effect i. Levels with zero mass are assigned to the last effect whole.
    For two outputs this is exactly the prefix-sum construction with a single
    fractional level at the crossing.
    """
    if n_outputs < 2:
        raise DegenerateSplitError("need at least two outputs")
    dec = hermitian_eig(state.matrix)
    order = np.argsort(dec.eigenvalues)[::-1]
    lam = np.clip(dec.eigenvalues[order], 0.0, None)
    vecs = dec.eigenvectors[:, order]
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
    # guard against rounding drift in the partition of unity
    weights[-1] += 1.0 - weights.sum(axis=0)

    effects = tuple((vecs * w) @ vecs.conj().T for w in weights)
    return Povm(effects=effects)


# ---------------------------------------------------------------------------
# measurement on one side of a composite state


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


# ---------------------------------------------------------------------------
# guessing probability


def guessing_probability_two(state_a: DensityMatrix, state_b: DensityMatrix) -> float:
    """Optimal guessing probability for two equiprobable states."""
    return 0.25 * (2.0 + 2.0 * trace_distance(state_a, state_b))


@dataclass(frozen=True)
class OptimizerBudget:
    """Search effort, by the code that reads each field.

    seeds: fixed-point starts (guessing_probability_bruteforce), general
    two-output ascent starts (max(3, seeds // 2)) and the CLI mutinfo-map
    sample count. max_iterations: fixed-point steps per start, library calls
    of guessing_probability_bruteforce only (the n-output searches pass their
    own; no scenario config sets it). polish_maxfev: qubit sphere-search steps
    per start and n-output seesaw rounds. rng_seed: every random start.
    """

    seeds: int = 8
    max_iterations: int = 300
    polish_maxfev: int = 600
    rng_seed: int = 0


@dataclass(frozen=True)
class DiscriminationResult:
    value: float
    iterations: int
    converged: bool
    povm: Povm | None = None

    def __float__(self) -> float:  # convenience for comparisons in callers
        return self.value


def _pinv_sqrt(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    inv = np.where(w > 1e-12, 1.0 / np.sqrt(np.clip(w, 1e-12, None)), 0.0)
    return (u * inv) @ u.conj().T


def _povm_payoff(weighted: Sequence[np.ndarray], effects: Sequence[np.ndarray]) -> float:
    return float(sum(np.trace(w @ p).real for w, p in zip(weighted, effects)))


def _certify_effects(effects: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Clip each effect to the PSD cone, then restore completeness by the PGM sandwich."""
    clipped = []
    for e in effects:
        w, u = np.linalg.eigh(0.5 * (e + e.conj().T))
        clipped.append((u * np.clip(w, 0.0, None)) @ u.conj().T)
    return _pretty_good_measurement(clipped)


def _pretty_good_measurement(ws: Sequence[np.ndarray]) -> list[np.ndarray]:
    """P_i = L^{-1/2} W_i L^{-1/2} with L = sum_j W_j, any null space of L split evenly."""
    ri = _pinv_sqrt(sum(ws))
    pgm = [ri @ w @ ri for w in ws]
    rem = np.eye(ri.shape[0]) - sum(pgm)
    return [p + rem / len(ws) for p in pgm]


def _fixed_point(ws: Sequence[np.ndarray], start: Sequence[np.ndarray],
                 max_iterations: int) -> tuple[float, list[np.ndarray], int, bool]:
    """Fixed-point discrimination ascent on weighted states ws from one start.

    Iterates P_i <- L^{-1/2} W_i P_i W_i L^{-1/2} with L = sum_j W_j P_j W_j and
    returns the best payoff seen (the start's included), its effects, the
    steps taken and whether eight steps in a row brought no gain.
    """
    effs = [p.copy() for p in start]
    best_val, best_effs = _povm_payoff(ws, effs), effs
    stall = 0
    it = 0
    for it in range(1, max_iterations + 1):
        lam = sum(w @ p @ w for w, p in zip(ws, effs))
        li = _pinv_sqrt(lam)
        # a nearly singular lam amplifies rounding into real asymmetry and
        # negative parts, so certify the iterate before scoring it
        effs = _certify_effects([li @ w @ p @ w @ li for w, p in zip(ws, effs)])
        val = _povm_payoff(ws, effs)
        if val > best_val + 1e-15:
            best_val, best_effs, stall = val, effs, 0
        else:
            stall += 1
            if stall >= 8:
                return best_val, best_effs, it, True
    return best_val, best_effs, it, False


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


# ---------------------------------------------------------------------------
# correlation measures


def _bipartition(state: DensityMatrix, measured: Sequence[int]) -> tuple[np.ndarray, int, int]:
    """Permute so the measured factors come first; return (matrix, d_meas, d_rest)."""
    measured = tuple(measured)
    rest = tuple(k for k in range(len(state.dims)) if k not in measured)
    if (not measured or len(set(measured)) != len(measured)
            or any(m < 0 or m >= len(state.dims) for m in measured)):
        raise SubsystemIndexError(f"bad measured factors {measured}")
    order = measured + rest
    perm = order + tuple(o + len(state.dims) for o in order)
    tensor = np.transpose(state.matrix.reshape(state.dims * 2), perm)
    d_meas = int(np.prod([state.dims[m] for m in measured]))
    d_rest = int(np.prod([state.dims[r] for r in rest])) if rest else 1
    return tensor.reshape(d_meas * d_rest, d_meas * d_rest), d_meas, d_rest


def _conditional_kernel(mat: np.ndarray, d_meas: int, d_rest: int, op: np.ndarray) -> np.ndarray:
    """Tr_meas[rho (op (x) 1_rest)] for a measured-side operator op."""
    tensor = mat.reshape(d_meas, d_rest, d_meas, d_rest)
    return np.einsum("arbs,ba->rs", tensor, op)


def _fibonacci_sphere(count: int) -> np.ndarray:
    pts = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        pts.append((r * math.cos(th), r * math.sin(th), z))
    return np.asarray(pts)


def _unit_rows(x: np.ndarray, fallback) -> np.ndarray:
    """Each row of x scaled to unit length; zero rows become the fallback."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norm > 0.0, x / np.where(norm > 0.0, norm, 1.0), fallback)


def _sphere_argmax(g: np.ndarray, r_bloch: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise unit maximiser of g.u / (1 + |r.u|), starting from directions v.

    Dropping the part of u outside span{g, r} and rescaling to unit length
    raises the ratio wherever g.u > 0, so the maximiser lies in that plane.
    Write r = (r.g^) g^ + e u2 with u2 a unit vector orthogonal to g^. On each
    side of the kink r.u = 0 the stationary point with g.u > 0 is
    sqrt(1 - e^2) g^ -/+ e u2; on the kink circle the best point is g projected
    onto r-perp, and the other kink point has g.u <= 0. The current direction
    competes too, so a tie (g = 0 makes every candidate worth 0) keeps it.
    """
    g_hat = _unit_rows(g, v)
    r_perp = r_bloch - (g_hat @ r_bloch)[:, None] * g_hat
    e = np.minimum(np.linalg.norm(r_perp, axis=1, keepdims=True), 1.0)
    u2 = _unit_rows(r_perp, 0.0)
    c = np.sqrt(1.0 - e * e)
    r_hat = _unit_rows(r_bloch, 0.0)
    kink = _unit_rows(g - np.outer(g @ r_hat, r_hat), g_hat)
    cands = np.stack([v, c * g_hat - e * u2, c * g_hat + e * u2, kink], axis=1)
    cands = _unit_rows(cands, v[:, None])
    surrogate = np.einsum("nk,nck->nc", g, cands) / (1.0 + np.abs(cands @ r_bloch))
    return cands[np.arange(len(cands)), np.argmax(surrogate, axis=1)]


def _two_output_me_qubit(state: DensityMatrix, measured: Sequence[int],
                         budget: OptimizerBudget | None = None) -> float:
    """Best equiprobable-measurement value when the measured side is a qubit.

    An equiprobable effect is a*1 + b v.sigma with a pinned by the constraint,
    and the prepared-ensemble objective is linear in b, so the optimum sits at
    the largest feasible b for each unit direction v:
    f(v) = ||H(v)||_1 / (2 (1 + |r.v|)) with H(v) = sum_k v_k A_k,
    A_k = K_k - r_k rho_rest, K_k the conditional kernel of sigma_k and r the
    measured side's Bloch vector.

    A 64-point Fibonacci grid is scored with one stacked eigensolve and its six
    best points are refined together by minorize-maximize steps. With
    W = sign(H(v)) and g_k = Tr(W A_k), g.u / (2 (1 + |r.u|)) lies below f(u)
    (Tr(W H) <= ||H||_1) and touches it at v, so jumping to its exact maximiser
    (_sphere_argmax) never lowers f. Each step costs one stacked eigensolve
    over the starts; the search stops once no start gains more than 1e-15, or
    after budget.polish_maxfev steps. Every value reported is f at a unit
    direction, so a valid equiprobable measurement attains it.
    """
    budget = budget or OptimizerBudget()
    mat, d_meas, d_rest = _bipartition(state, measured)
    if d_meas != 2:
        raise DimensionMismatchError("qubit path requires a 2-dimensional measured side")
    kernels = [_conditional_kernel(mat, 2, d_rest, p) for p in PAULIS]
    rho_rest = kernels[0]
    r_bloch = np.array([float(np.trace(k).real) for k in kernels[1:]])
    ops = np.stack([k - r * rho_rest for k, r in zip(kernels[1:], r_bloch)])
    ops = 0.5 * (ops + ops.conj().swapaxes(1, 2))

    def spectra(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w, u = np.linalg.eigh(np.tensordot(v, ops, axes=1))
        return np.abs(w).sum(axis=1) / (2.0 * (1.0 + np.abs(v @ r_bloch))), w, u

    v = _fibonacci_sphere(64)
    vals, w, u = spectra(v)
    top = np.argsort(vals)[::-1][:6]
    v, vals, w, u = v[top], vals[top], w[top], u[top]
    best = float(vals[0])
    for _ in range(budget.polish_maxfev):
        signs = (u * np.sign(w)[:, None, :]) @ u.conj().swapaxes(1, 2)
        g = np.einsum("nij,kji->nk", signs, ops).real
        v = _sphere_argmax(g, r_bloch, v)
        new, w, u = spectra(v)
        gain = float(np.max(new - vals))
        vals = new
        best = max(best, float(new.max()))
        if gain <= 1e-15:
            break
    return best


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    No search in the package calls it or minimize_scalar. Both stay because
    perfbench/tracer.py looks `ensembles.minimize` and
    `ensembles.minimize_scalar` up by name, and fails without them.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar, imported on the first call.

    Uncalled in the package, like minimize: it stays only for the tracer.
    """
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(*args, **kwargs)


def _dual_kinks(q_mat: np.ndarray, r_val: np.ndarray,
                r_vec: np.ndarray) -> tuple[np.ndarray, int]:
    """Kinks of mu -> Tr(Q - mu R)_+, ascending, and the count right of the last.

    r_val, r_vec is the eigendecomposition of R; eigenvalues up to 1e-12 of
    the largest count as its kernel K and the rest as its support S. With K
    empty the kinks are the generalized eigenvalues of (Q, R), where one
    eigenvalue of Q - mu R crosses zero. Otherwise eliminate K by Haynsworth
    inertia: the invertible part of Q_KK contributes its positive eigenvalues
    and a Schur complement on S; the part of K that Q_KK annihilates but Q_SK
    couples to S (rank b) contributes b positive and b negative eigenvalues
    for every mu and confines the kinks to the S directions orthogonal to
    that coupling. So Q - mu R has exactly fixed + #{k : kink_k > mu}
    positive eigenvalues.
    """
    k = int(np.sum(r_val <= 1e-12 * r_val[-1]))
    qv = r_vec.conj().T @ q_mat @ r_vec
    q_ss = qv[k:, k:]
    basis = np.diag(r_val[k:] ** -0.5)  # R-orthonormal on S
    fixed = 0
    if k:
        a, a_vec = np.linalg.eigh(qv[:k, :k])
        q_tol = 1e-12 * np.linalg.norm(q_mat)
        live = np.abs(a) > q_tol
        fixed = int(np.sum(a > q_tol))
        q_sk = qv[k:, :k] @ a_vec
        q_ss = q_ss - (q_sk[:, live] / a[live]) @ q_sk[:, live].conj().T
        z, s, _ = np.linalg.svd(q_sk[:, ~live])
        rank = int(np.sum(s > q_tol))
        if rank:
            fixed += rank
            z = z[:, rank:]
            zw, zv = np.linalg.eigh(z.conj().T @ (r_val[k:, None] * z))
            basis = z @ (zv / np.sqrt(zw))
    return np.linalg.eigvalsh(basis.conj().T @ q_ss @ basis), fixed


def _eig_shifted(q_mat: np.ndarray, r_mat: np.ndarray, mu: float):
    """Eigenpairs of Q - mu R with eigenvalues descending, and R in that eigenbasis."""
    w, u = np.linalg.eigh(q_mat - mu * r_mat)
    w, u = w[::-1], u[:, ::-1]
    return w, u, u.conj().T @ r_mat @ u


def _dual_minimizer(q_mat: np.ndarray, r_mat: np.ndarray, beta: float,
                    r_val: np.ndarray, r_vec: np.ndarray):
    """_eig_shifted at the minimizer mu* of f(mu) = Tr(Q - mu R)_+ + beta mu.

    f is convex and smooth between its kinks (_dual_kinks), which also give
    the count p of positive eigenvalues w_1 >= ... >= w_p of Q - mu R on each
    piece. With u_k the eigenvectors, the slope there is
    f' = beta - sum_{k <= p} u_k^+ R u_k; at a kink the right slope uses the
    count to its right and the left slope subtracts the cost of u_{p+1}. A
    bisection over the kinks finds the first whose right slope is >= 0. If
    its left slope is <= 0, 0 lies in the subdifferential and the kink is
    mu*. Otherwise mu* lies inside the piece to its left, where Newton's
    method with f'' = 2 sum_{k <= p < l} |u_k^+ R u_l|^2 / (w_k - w_l), kept
    inside the piece by bisection, runs until |f'| <= 1e-15, its step falls
    below rounding, or the bracket collapses. With R positive definite mu*
    lies between the first and last kink. Otherwise an end piece is closed
    by f(mu) >= beta mu (take P = 0) and f(mu) >= Tr Q - mu (Tr R - beta)
    (P = 1): with f(mu*) <= f(0) = Tr Q_+ and Tr Q_+, Tr Q_- <= sqrt(d)
    ||Q||_F they bound mu*.
    """
    kinks, fixed = _dual_kinks(q_mat, r_val, r_vec)
    m = kinks.size
    seen = {}

    def at_kink(j: int):
        if j not in seen:
            seen[j] = _eig_shifted(q_mat, r_mat, float(kinks[j]))
        return seen[j]

    def slope(spec, p: int) -> float:
        return beta - float(np.diagonal(spec[2])[:p].real.sum())

    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2
        if slope(at_kink(mid), fixed + m - 1 - mid) >= 0.0:
            hi = mid
        else:
            lo = mid + 1
    p = fixed + m - lo  # positive eigenvalues on the piece left of kink lo
    span = math.sqrt(q_mat.shape[0]) * float(np.linalg.norm(q_mat))
    floor = 1e-12 * r_val[-1]
    left = float(kinks[lo - 1]) if lo else -span / max(r_val.sum() - beta, floor)
    right = float(kinks[lo]) if lo < m else span / max(beta, floor)
    if lo < m:
        mu, spec = right, at_kink(lo)
        if slope(spec, p) <= 0.0:
            return spec
    elif m:
        mu, spec = left, at_kink(m - 1)
    else:
        mu, spec = 0.0, _eig_shifted(q_mat, r_mat, 0.0)
    for _ in range(100):
        grad = slope(spec, p)
        if abs(grad) <= 1e-15:
            break
        if grad < 0.0:
            left = mu
        else:
            right = mu
        w, ru = spec[0], spec[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = 2.0 * np.sum(np.abs(ru[:p, p:]) ** 2 / (w[:p, None] - w[None, p:]))
            step = mu - grad / curv
        if abs(step - mu) <= 1e-15 * abs(mu):
            break
        if not left < step < right:
            step = 0.5 * (left + right)
            if not left < step < right:
                break
        mu, spec = step, _eig_shifted(q_mat, r_mat, step)
    return spec


def _capped_linear_opt(q_mat: np.ndarray, r_mat: np.ndarray, beta: float) -> np.ndarray:
    """Maximize Tr(Q P) over 0 <= P <= 1 with Tr(R P) = beta, R PSD.

    The Lagrange dual over the single multiplier mu is solved exactly with a
    few eigensolves (_dual_minimizer); the primal optimum is recovered by a
    fractional fill in the eigenbasis of Q - mu* R, spending the R-budget on
    the best profit-to-cost directions first (the exchange argument holds
    with negative profits too). Directions that cost no more than R's kernel
    threshold (_dual_kinks) are free and taken iff they add profit. With R
    = 0 every direction is free and mu* = 0. The returned effect is exactly
    feasible.
    """
    dim = q_mat.shape[0]
    r_val, r_vec = np.linalg.eigh(r_mat)
    r_max = float(r_val[-1]) if dim else 0.0
    if r_max > 0.0:
        w, u, ru = _dual_minimizer(q_mat, r_mat, beta, r_val, r_vec)
    else:
        w, u, ru = _eig_shifted(q_mat, r_mat, 0.0)
    costs = np.real(np.diagonal(ru))
    p_out = np.zeros((dim, dim), dtype=complex)
    budget_left = beta
    free = costs <= 1e-12 * r_max
    for k in range(dim):  # zero-cost directions: include iff they add profit
        if free[k] and w[k] > 1e-14:
            p_out += np.outer(u[:, k], u[:, k].conj())
            budget_left -= costs[k]
    paying = [k for k in range(dim) if not free[k]]
    paying.sort(key=lambda k: w[k] / costs[k], reverse=True)
    for k in paying:
        c = min(1.0, budget_left / costs[k])
        if c <= 0.0:
            break
        p_out += c * np.outer(u[:, k], u[:, k].conj())
        budget_left -= c * costs[k]
    return p_out


def _boxed_linear_opt(q_mat: np.ndarray, r_mat: np.ndarray, upper: np.ndarray,
                      beta: float) -> np.ndarray:
    """Maximize Tr(Q P) over 0 <= P <= U with Tr(R P) = beta.

    Substituting P = U^{1/2} X U^{1/2} maps the box onto 0 <= X <= 1 on the
    support of U (P must vanish off it anyway), which is the capped problem.
    """
    w, u = np.linalg.eigh(0.5 * (upper + upper.conj().T))
    keep = w > 1e-13
    s = u[:, keep] * np.sqrt(w[keep])
    qt = s.conj().T @ q_mat @ s
    rt = s.conj().T @ r_mat @ s
    x = _capped_linear_opt(0.5 * (qt + qt.conj().T), 0.5 * (rt + rt.conj().T), beta)
    return s @ x @ s.conj().T


def _two_output_me_general(state: DensityMatrix, measured: Sequence[int],
                           budget: OptimizerBudget | None = None) -> float:
    """Alternating ascent for a measured side of any dimension.

    The objective (1/2)||Tr_meas[rho (2P-1 (x) 1)]||_1 is a trace norm, hence
    a maximum of linear functionals Tr(W .) over Hermitian contractions W.
    Alternate exactly solvable steps: W is the spectral sign of the current
    kernel, and the best P for fixed W is a one-multiplier linear program.
    Every step is monotone, so the best value seen is attained by a valid
    equiprobable measurement.
    """
    budget = budget or OptimizerBudget()
    mat, d_meas, d_rest = _bipartition(state, measured)
    tensor = mat.reshape(d_meas, d_rest, d_meas, d_rest)
    rho_meas = np.einsum("arbr->ab", tensor)
    rho_meas = 0.5 * (rho_meas + rho_meas.conj().T)
    eye = np.eye(d_meas)

    def kernel(x: np.ndarray) -> np.ndarray:
        out = _conditional_kernel(mat, d_meas, d_rest, x)
        return 0.5 * (out + out.conj().T)

    def adjoint(w_op: np.ndarray) -> np.ndarray:
        out = np.einsum("arbs,rs->ab", tensor, w_op.conj())
        return 0.5 * (out + out.conj().T)

    def objective(p_eff: np.ndarray) -> float:
        return 0.5 * trace_norm(kernel(2.0 * p_eff - eye))

    def ascend(p_eff: np.ndarray) -> float:
        best = objective(p_eff)
        stall = 0
        for _ in range(60):
            m_ker = kernel(2.0 * p_eff - eye)
            w, u = np.linalg.eigh(m_ker)
            w_op = (u * np.sign(w)) @ u.conj().T
            p_eff = _capped_linear_opt(adjoint(w_op), rho_meas, 0.5)
            val = objective(p_eff)
            if val > best + 1e-14:
                best, stall = val, 0
            else:
                stall += 1
                if stall >= 3:
                    break
        return best

    rng = np.random.default_rng(budget.rng_seed)
    starts = []
    try:
        seed_povm = construct_me_povm(
            DensityMatrix(matrix=rho_meas, dims=(d_meas,), _skip_checks=True), 2
        )
        starts.append(np.asarray(seed_povm.effects[0]))
    except DegenerateSplitError:
        pass
    for _ in range(max(3, budget.seeds // 2)):
        g = rng.normal(size=(d_meas, d_meas)) + 1j * rng.normal(size=(d_meas, d_meas))
        starts.append(_capped_linear_opt(0.5 * (g + g.conj().T), rho_meas, 0.5))

    return max(ascend(p0) for p0 in starts)


def _is_flag_diagonal(state: DensityMatrix) -> bool:
    """True when the state has no coherence across the flag qubit (factor 0)."""
    if state.dims[0] != 2:
        return False
    mat, _, half = _bipartition(state, (0,))
    return bool(np.max(np.abs(mat[:half, half:])) < 1e-12)


def _flag_blocks(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Diagonal blocks (unnormalized conditional states) of a flag-diagonal state."""
    mat, _, half = _bipartition(state, (0,))
    b0, b1 = mat[:half, :half], mat[half:, half:]
    return b0, b1, float(np.trace(b0).real), float(np.trace(b1).real)


def _two_output_me_flag_exact(state: DensityMatrix) -> float:
    """Best value when measuring the side opposite a classical flag.

    For a flag-diagonal state the value is max_P |Tr[(B0 - B1) P] + 1/2 - p0|
    over effects with Tr[(B0 + B1) P] = 1/2 and 0 <= P <= 1 (B blocks
    unnormalized, p0 = Tr B0). Each sign branch is the one-multiplier linear
    program of _capped_linear_opt; the value reported is the primal value
    Tr[(B0 - B1) P] of the effect it returns, so a valid equiprobable
    measurement attains it.
    """
    b0, b1, p0, _ = _flag_blocks(state)
    diff = 0.5 * ((b0 - b1) + (b0 - b1).conj().T)
    tot = 0.5 * ((b0 + b1) + (b0 + b1).conj().T)

    def branch(sign: float) -> float:
        p_eff = _capped_linear_opt(sign * diff, tot, 0.5)
        return sign * (float(np.trace(diff @ p_eff).real) + 0.5 - p0)

    return max(branch(1.0), branch(-1.0), 0.0)


def correlation_CA2(state: DensityMatrix, a_factors: Sequence[int] = (0,),
                    budget: OptimizerBudget | None = None) -> float:
    """Two-output equiprobable-measurement correlation, measuring the A side."""
    _, d_meas, _ = _bipartition(state, a_factors)
    if d_meas == 2:
        return _two_output_me_qubit(state, a_factors, budget)
    return _two_output_me_general(state, a_factors, budget)


def correlation_CB2(state: DensityMatrix, a_factors: Sequence[int] = (0,),
                    budget: OptimizerBudget | None = None) -> float:
    """Same measure, measuring everything except the A side."""
    b_factors = tuple(k for k in range(len(state.dims)) if k not in tuple(a_factors))
    _, d_meas, _ = _bipartition(state, b_factors)
    if d_meas == 2:
        return _two_output_me_qubit(state, b_factors, budget)
    if tuple(a_factors) == (0,) and _is_flag_diagonal(state):
        return _two_output_me_flag_exact(state)
    return _two_output_me_general(state, b_factors, budget)


def correlation_C2(state: DensityMatrix, a_factors: Sequence[int] = (0,),
                   budget: OptimizerBudget | None = None) -> float:
    return max(correlation_CA2(state, a_factors, budget),
               correlation_CB2(state, a_factors, budget))


# --- searches with more than two outputs -----------------------------------


def _flag_opposite_n_output_pg(state: DensityMatrix, n: int,
                               budget: OptimizerBudget | None = None) -> float:
    """Best n-output guessing probability measuring opposite a classical flag.

    The prepared flag ensemble is classical, so for a given POVM the payoff is
    max_i Tr[B0 P_i] + max_j Tr[B1 P_j] (unnormalized blocks). Only the two
    winning effects matter: any remainder R = 1 - P - Q splits into n - 2
    equal equiprobable effects R/(n-2), so the search reduces to a pair
    0 <= P, Q with P + Q <= 1 and Tr[(B0+B1) P] = Tr[(B0+B1) Q] = 1/n.
    Coordinate ascent alternates two exactly solvable linear steps.
    """
    budget = budget or OptimizerBudget()
    b0, b1, _, _ = _flag_blocks(state)
    d = b0.shape[0]
    b0 = 0.5 * (b0 + b0.conj().T)
    b1 = 0.5 * (b1 + b1.conj().T)
    tot = b0 + b1
    eye = np.eye(d)
    beta = 1.0 / n
    rng = np.random.default_rng(budget.rng_seed)

    def ascend(p_eff: np.ndarray) -> float:
        best = -np.inf
        for _ in range(40):
            q_eff = _boxed_linear_opt(b1, tot, eye - p_eff, beta)
            p_eff = _boxed_linear_opt(b0, tot, eye - q_eff, beta)
            val = float(np.trace(b0 @ p_eff).real + np.trace(b1 @ q_eff).real)
            if val <= best + 1e-14:
                return max(best, val)
            best = val
        return best

    starts = [_capped_linear_opt(b0, tot, beta)]
    for _ in range(2):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        starts.append(_capped_linear_opt(0.5 * (g + g.conj().T), tot, beta))

    # the same-winner degenerate assignment is worth exactly 1/n
    return max(max(ascend(p0) for p0 in starts), 1.0 / n)


def _n_output_me_pg(state: DensityMatrix, measured: Sequence[int], n: int,
                    budget: OptimizerBudget | None = None) -> float:
    """Best n-output guessing probability by a seesaw between the two sides.

    The payoff sum_i Tr[(M_i (x) E_i) rho] is linear in the measured-side
    effects M for a fixed far-side POVM E and linear in E for fixed M. Starting
    from construct_me_povm on the measured marginal, each round takes two
    steps that do not lower it:
    - E step: ten fixed-point discrimination steps on the kernels
      X_i = Tr_meas[(M_i (x) 1) rho], warm-started from the E the search holds
      (the first from the pretty-good measurement); longer E steps took up
      to twice as long for about the same values;
    - M step: for each pair (i, j), with Y_i = Tr_far[(1 (x) E_i) rho], the
      best M_i at fixed S = M_i + M_j maximizes Tr[(Y_i - Y_j) M_i] over
      0 <= M_i <= S with Tr(rho_meas M_i) = 1/n, and M_j = S - M_i. Every
      round keeps sum M = 1 and every outcome probability at exactly 1/n.
    The search stops after a round that gains no more than 1e-15, or after
    budget.polish_maxfev rounds, and returns the payoff of the best strategy
    it held (at least 1/n, which guessing one fixed outcome attains).
    """
    budget = budget or OptimizerBudget()
    mat, d_meas, d_rest = _bipartition(state, measured)
    tensor = mat.reshape(d_meas, d_rest, d_meas, d_rest)
    rho_meas = np.einsum("arbr->ab", tensor)
    rho_meas = 0.5 * (rho_meas + rho_meas.conj().T)
    m_effs = list(construct_me_povm(
        DensityMatrix(matrix=rho_meas, dims=(d_meas,), _skip_checks=True), n).effects)

    def far_kernels() -> list[np.ndarray]:
        out = [_conditional_kernel(mat, d_meas, d_rest, m) for m in m_effs]
        return [0.5 * (x + x.conj().T) for x in out]

    xs = far_kernels()
    e_effs = _pretty_good_measurement(xs)
    best = 1.0 / n
    for _ in range(budget.polish_maxfev):
        val, e_effs, _, _ = _fixed_point(xs, e_effs, 10)
        ys = [np.einsum("arbs,sr->ab", tensor, e) for e in e_effs]
        for i in range(n):
            for j in range(i + 1, n):
                pair = m_effs[i] + m_effs[j]
                m_effs[i] = _boxed_linear_opt(ys[i] - ys[j], rho_meas, pair, 1.0 / n)
                m_effs[j] = pair - m_effs[i]
        xs = far_kernels()
        val = max(val, _povm_payoff(xs, e_effs))
        if val <= best + 1e-15:
            break
        best = val
    return best


def correlation_C_general(state: DensityMatrix, max_outputs: int = 2,
                          budget: OptimizerBudget | None = None) -> float:
    """Best equiprobable-measurement advantage over 2..max_outputs outcomes.

    The reported value is the maximal guessing probability minus the baseline
    1/2 for every output count, so adding outcomes can only help via genuinely
    better discrimination, not via a changed yardstick.
    """
    if max_outputs < 2 or max_outputs > 4:
        raise DimensionMismatchError("max_outputs must be between 2 and 4")
    a_factors = (0,)
    best = correlation_C2(state, a_factors, budget)
    b_factors = tuple(range(1, len(state.dims)))
    flaggy = _is_flag_diagonal(state)
    # Measuring a uniform classical flag (p0 = 1/2) with n >= 3 outputs never
    # beats CA2, so that term is skipped. With D = B0 - B1 (Tr D = 0 and
    # T = ||D||_1 <= 1), an equiprobable flag measurement has diagonal effects
    # (lam_i, 2/n - lam_i) and conditional blocks (B0 + B1)/n + (lam_i - 1/n) D
    # with |lam_i - 1/n| <= 1/n, so for any far-side POVM E its payoff is at
    # most 1/n + (1/n) sum_i Tr(|D| E_i) = (1 + T)/n. There K_x = K_y = 0 and
    # r = 0, so the qubit sphere search maximizes f(v) = |v_z| T/2, and its
    # first Fibonacci point alone has v_z = 63/64: CA2 >= 63 T/128 > T/3. Hence
    # (1 + T)/n - 1/2 <= T/2 - (1 + T)/6 = T/3 - 1/6 lies at least 1/6 below CA2.
    uniform_flag = flaggy and max(abs(p - 0.5) for p in _flag_blocks(state)[2:]) < 1e-9
    for n in range(3, max_outputs + 1):
        if not uniform_flag:
            best = max(best, _n_output_me_pg(state, a_factors, n, budget) - 0.5)
        if flaggy:
            opposite = _flag_opposite_n_output_pg(state, n, budget)
        else:
            opposite = _n_output_me_pg(state, b_factors, n, budget)
        best = max(best, opposite - 0.5)
    return best


# ---------------------------------------------------------------------------
# random local channels


@dataclass(frozen=True)
class LocalChannel:
    """A CPTP map given by Kraus operators on a single tensor factor."""

    kraus: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[1]


def random_local_cptp(dim: int, seed: int) -> LocalChannel:
    """Haar-style random channel with dim^2 Kraus operators, via isometry completion."""
    k = dim * dim
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim * k, dim)) + 1j * rng.normal(size=(dim * k, dim))
    q, r = np.linalg.qr(g)
    # fix the gauge so the isometry is a deterministic function of the seed
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    q = q * phase[None, :]
    kraus = tuple(q[i * dim:(i + 1) * dim, :] for i in range(k))
    return LocalChannel(kraus=kraus)


def apply_local_channel(state: DensityMatrix, channel: LocalChannel, factor: int) -> DensityMatrix:
    dims = state.dims
    if factor < 0 or factor >= len(dims):
        raise SubsystemIndexError(f"factor {factor} out of range")
    if channel.dim != dims[factor]:
        raise DimensionMismatchError("channel dimension does not match the factor")
    out = np.zeros_like(state.matrix)
    for e in channel.kraus:
        lifted = tensor_product(
            *(e if k == factor else np.eye(d, dtype=complex) for k, d in enumerate(dims))
        )
        out += lifted @ state.matrix @ lifted.conj().T
    return DensityMatrix(matrix=out, dims=dims, _skip_checks=True)
