"""Measurements, state ensembles, and measurement-based correlation measures.

The central objects are POVMs that are equiprobable on a reference state
(every outcome has probability exactly 1/n), the guessing probability of the
ensembles such measurements prepare on the far side of a bipartite state, and
the correlation quantifier built from them: the best guessing probability over
equiprobable measurements minus the blind-guess baseline 1/2.

Two-output measurements on a qubit side reduce to a problem over the Bloch
sphere. When the far side is a qubit too, its objective has a closed form
and the maximum is found exactly: one 3x3 eigendecomposition, a secular
equation and a few candidate directions. For larger far sides a batched
minorize-maximize search refines a stack of starting directions together,
one stacked eigensolve per step, and no step lowers any start; that is what
makes it reliable enough to compare against closed forms at 1e-6.
Two-output measurements on larger sides use a monotone alternating ascent.
More outputs use a seesaw that alternates the far side's discrimination with
pairwise updates of the measured side's effects, for at most
_SEESAW_ROUNDS rounds; every strategy it holds is exactly equiprobable, and
it reports the best one's payoff. The effort of each search is a module
constant, not an argument: no run path varies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    SubsystemIndexError,
)
from .linalg import (
    PAULIS,
    DensityMatrix,
    hermitian_eig,
    tensor_product,
    trace_norm,
)

ME_PROB_TOL = 1e-10
_SPHERE_STEPS = 600  # cap on the minorize-maximize steps of _two_output_me_qubit
_ASCENT_STARTS = 4  # random starts of _two_output_me_general, from default_rng(0)
_SEESAW_ROUNDS = 600  # cap on the rounds of _n_output_me_pg


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


def is_me_povm(povm: Povm, state: DensityMatrix, tol: float = ME_PROB_TOL) -> MePovmCertificate:
    """Check whether every outcome probability Tr(E rho) is within tol of 1/n."""
    if povm.dim != state.dim:
        raise DimensionMismatchError(
            f"POVM dimension {povm.dim} does not match state dimension {state.dim}"
        )
    n = povm.n_outputs
    probs = tuple(float(np.trace(e @ state.matrix).real) for e in povm.effects)
    dev = max(abs(p - 1.0 / n) for p in probs)
    return MePovmCertificate(equiprobable=dev <= tol, probabilities=probs, max_deviation=dev)


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
    w, u = hermitian_eig(state.matrix)
    order = np.argsort(w)[::-1]
    lam = np.clip(w[order], 0.0, None)
    vecs = u[:, order]
    edges = np.concatenate([[0.0], np.cumsum(lam)])
    if edges[-1] <= 0:
        raise DegenerateSplitError("state has no probability mass")
    edges = edges / edges[-1]
    lam_norm = np.diff(edges)

    # overlap[i, j] of piece [i/n, (i+1)/n] with level [edges[j], edges[j+1]];
    # it is positive only where edges[j+1] > edges[j], so lam_norm[j] > 0 there
    cuts = np.arange(n_outputs + 1)[:, None] / n_outputs
    overlap = np.minimum(cuts[1:], edges[1:]) - np.maximum(cuts[:-1], edges[:-1])
    weights = np.divide(overlap, lam_norm, out=np.zeros_like(overlap), where=overlap > 0.0)
    weights[-1, lam_norm <= 0.0] = 1.0  # zero-mass levels: park them in the last effect
    # guard against rounding drift in the partition of unity
    weights[-1] += 1.0 - weights.sum(axis=0)

    effects = tuple((vecs * w) @ vecs.conj().T for w in weights)
    return Povm(effects=effects)


# ---------------------------------------------------------------------------
# guessing probability


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


def _two_output_me_qubit(state: DensityMatrix, measured: Sequence[int]) -> float:
    """Best equiprobable-measurement value when the measured side is a qubit.

    _two_output_me runs it for far sides of dimension 3 or more; a qubit far
    side goes to the exact _two_output_me_two_qubit, and the tests keep this
    search as its independent oracle. An equiprobable effect is
    a*1 + b v.sigma with a pinned by the constraint, and the
    prepared-ensemble objective is linear in b, so the optimum sits at the
    largest feasible b for each unit direction v:
    f(v) = ||H(v)||_1 / (2 (1 + |r.v|)) with H(v) = sum_k v_k A_k,
    A_k = K_k - r_k rho_rest, K_k the conditional kernel of sigma_k and r the
    measured side's Bloch vector.

    A 64-point Fibonacci grid is scored with one stacked eigensolve and its six
    best points are refined together by minorize-maximize steps. With
    W = sign(H(v)) and g_k = Tr(W A_k), g.u / (2 (1 + |r.u|)) lies below f(u)
    (Tr(W H) <= ||H||_1) and touches it at v, so jumping to its exact maximiser
    (_sphere_argmax) never lowers f. Each step costs one stacked eigensolve
    over the starts; the search stops once no start gains more than 1e-15, or
    after _SPHERE_STEPS steps. Every value reported is f at a unit
    direction, so a valid equiprobable measurement attains it.
    """
    mat, _, d_rest = _bipartition(state, measured)
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
    for _ in range(_SPHERE_STEPS):
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


_PAULI_T = np.stack(PAULIS).transpose(0, 2, 1)  # sigma_k^T, for Tr(rho sigma_k (x) sigma_l)


def _secular_roots(m: list[float], a: list[float]) -> list[float]:
    """Roots beta in (0, max m) of psi(beta) = sum_i a_i^2 beta^2 / (m_i - beta)^2 = 1.

    The poles are the m_i > 0 with a_i != 0. On beta > 0 every term has second
    derivative 2 a_i^2 m_i (m_i + 2 beta) / (m_i - beta)^4 >= 0, so psi is
    convex between poles: it rises from psi(0) <= |a|^2 < 1 to the first pole,
    falls towards |a|^2 after the last, and is U-shaped between two. A pole p
    of weight A^2 (the sum of a_i^2 there) alone keeps psi >= 1 from
    p / (1 -/+ A) to p. Newton's method started there moves away from the pole
    and, psi being convex, never steps past a root: it stops at the root, or
    shows that side has none by turning uphill or leaving the interval.
    """
    terms = [(ai * ai, mi) for ai, mi in zip(a, m) if ai != 0.0]
    weight: dict[float, float] = {}
    for a2, mi in terms:
        if mi > 0.0:
            weight[mi] = weight.get(mi, 0.0) + a2
    poles = sorted(weight)
    roots = []
    for j, p in enumerate(poles):
        amp = math.sqrt(weight[p])
        sides = [(p / (1.0 + amp), poles[j - 1] if j else 0.0)]
        if amp < 1.0:
            sides.append((p / (1.0 - amp), poles[j + 1] if j + 1 < len(poles) else max(m)))
        for x, bound in sides:
            lo, hi = min(p, bound), max(p, bound)
            for _ in range(100):
                if not lo < x < hi:
                    break
                psi = slope = 0.0
                for a2, mi in terms:
                    t = x / (mi - x)
                    psi += a2 * t * t
                    slope += 2.0 * a2 * mi * t / ((mi - x) * (mi - x))
                if psi <= 1.0:
                    roots.append(x)
                    break
                if (slope > 0.0) != (x < p):
                    break
                step = (psi - 1.0) / slope
                x -= step
                if abs(step) <= 4e-16 * x:
                    roots.append(x)
                    break
    return roots


def _rim_direction(m: list[float], a: list[float]) -> list[float]:
    """Unit y orthogonal to a (a != 0) that maximizes sum_i m_i y_i^2.

    e1, e2 span a-perp; the answer is the top eigenvector of the 2x2
    compression of diag(m) to that plane, at angle atan2(2 b12, b11 - b22) / 2.
    """
    norm = math.hypot(*a)
    h = [x / norm for x in a]
    k = min(range(3), key=lambda i: abs(h[i]))
    e1 = [float(i == k) - h[k] * x for i, x in enumerate(h)]  # axis k minus its part along h
    norm = math.hypot(*e1)
    e1 = [x / norm for x in e1]
    e2 = [h[1] * e1[2] - h[2] * e1[1], h[2] * e1[0] - h[0] * e1[2], h[0] * e1[1] - h[1] * e1[0]]
    b11, b22, b12 = (sum(mi * x * z for mi, x, z in zip(m, p, q))
                     for p, q in ((e1, e1), (e2, e2), (e1, e2)))
    theta = 0.5 * math.atan2(2.0 * b12, b11 - b22)
    return [math.cos(theta) * x + math.sin(theta) * z for x, z in zip(e1, e2)]


def _two_output_me_two_qubit(mat: np.ndarray) -> float:
    """Exact best equiprobable-measurement value when both sides are qubits.

    mat is the 4x4 state with the measured qubit first. With r and s the two
    Bloch vectors, T_kl = Tr rho (sigma_k (x) sigma_l) and C = T - r s^T, every
    A_k of _two_output_me_qubit is (1/2) sum_l C_kl sigma_l, so
    f(v) = ||C^T v|| / (2 (1 + |r.v|)). As f(-v) = f(v), the maximum lies in
    the closed hemisphere r.v >= 0: inside it or on its rim r.v = 0.

    Inside, a stationary point solves (M - beta) v = beta r with M = C C^T,
    and there f = (1/2) sqrt(beta / (1 + r.v)) with beta <= m_max (as
    4 f^2 <= m_max / (1 + r.v)^2). (With w = v / (1 + r.v) on the ellipsoid
    ||w|| + r.w = 1 this is M w = beta (G w + r), G = 1 - r r^T.) In M's
    eigenbasis (eigenvalues m_i, a = r in that basis) v has coordinates
    y_j = beta a_j / (m_j - beta), and |y| = 1 is the secular equation of
    _secular_roots. In the hard case beta = m_i, a_i = 0 and y_i is free:
    y_i = +-sqrt(1 - sum_{j != i} y_j^2) where that is real. These points are
    also the limits of the two roots beside a pole too weak to resolve in
    floating point, such as the rounding left in an r that is 0; with r = 0
    they are M's eigenvectors. On the rim, f = ||C^T v|| / 2 is largest at
    _rim_direction. The value is the largest f over these candidates, each
    taken at the unit v = u y / |y|, so a valid equiprobable measurement
    attains it. Nothing divides by 1 - |r|^2: a pure marginal (|r| = 1) makes
    the state a product, C = 0 and every candidate worth 0.
    """
    tensor = mat.reshape(2, 2, 2, 2)
    expect = np.einsum("arbs,kab,lrs->kl", tensor, _PAULI_T, _PAULI_T).real
    r_bloch = expect[1:, 0]
    corr = expect[1:, 1:] - np.outer(r_bloch, expect[0, 1:])
    m, u = np.linalg.eigh(corr @ corr.T)
    m = np.maximum(m, 0.0).tolist()
    a = (r_bloch @ u).tolist()

    def resolvent(beta: float) -> list[float]:  # beta (M - beta)^+ r in the eigenbasis
        return [beta * aj / (mj - beta) if mj != beta else 0.0 for aj, mj in zip(a, m)]

    ys = [resolvent(beta) for beta in _secular_roots(m, a)]
    for i, mi in enumerate(m):
        y = resolvent(mi)
        rest = 1.0 - sum(x * x for x in y)
        if rest >= 0.0:
            y[i] = math.sqrt(rest)
            ys += [y, [-x if j == i else x for j, x in enumerate(y)]]
    if any(a):
        ys.append(_rim_direction(m, a))

    def value(y: list[float]) -> float:  # ||C^T v|| / (2 (1 + |r.v|)) at v = u y / |y|
        norm_ct = math.sqrt(sum(mi * x * x for mi, x in zip(m, y)))
        return norm_ct / (2.0 * (math.hypot(*y) + abs(sum(ai * x for ai, x in zip(a, y)))))

    return max(map(value, ys))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    No search in the package calls it or minimize_scalar. Both stay because
    perfbench/tracer.py looks `ensembles.minimize` and
    `ensembles.minimize_scalar` up by name, and fails without them. They are
    the only scipy imports left in the package, and scipy is no runtime
    dependency: it comes with the test extra.
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


def _two_output_me_general(state: DensityMatrix, measured: Sequence[int]) -> float:
    """Alternating ascent for a measured side of any dimension.

    The objective (1/2)||Tr_meas[rho (2P-1 (x) 1)]||_1 is a trace norm, hence
    a maximum of linear functionals Tr(W .) over Hermitian contractions W.
    Alternate exactly solvable steps: W is the spectral sign of the current
    kernel, and the best P for fixed W is a one-multiplier linear program.
    Every step is monotone, so the best value seen is attained by a valid
    equiprobable measurement. The starts are the ME split of the measured
    marginal and _ASCENT_STARTS seeded random effects.
    """
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

    rng = np.random.default_rng(0)
    starts = []
    try:
        seed_povm = construct_me_povm(
            DensityMatrix(matrix=rho_meas, dims=(d_meas,), _skip_checks=True), 2
        )
        starts.append(np.asarray(seed_povm.effects[0]))
    except DegenerateSplitError:
        pass
    for _ in range(_ASCENT_STARTS):
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


def _two_output_me(state: DensityMatrix, measured: tuple[int, ...]) -> float:
    """Best two-output equiprobable value measuring the given factors.

    The exact two-qubit solver when both sides have dimension 2, the qubit
    sphere search when only the measured side has dimension 2, the exact
    dual when it excludes a flag (factor 0) that is classical, and the
    general alternating ascent otherwise.
    """
    mat, d_meas, d_rest = _bipartition(state, measured)
    if d_meas == 2 and d_rest == 2:
        return _two_output_me_two_qubit(mat)
    if d_meas == 2:
        return _two_output_me_qubit(state, measured)
    if 0 not in measured and _is_flag_diagonal(state):
        return _two_output_me_flag_exact(state)
    return _two_output_me_general(state, measured)


def correlation_CA2(state: DensityMatrix) -> float:
    """Two-output equiprobable-measurement correlation, measuring side A (factor 0)."""
    return _two_output_me(state, (0,))


def correlation_CB2(state: DensityMatrix) -> float:
    """Same measure, measuring side B (every factor but the first)."""
    return _two_output_me(state, tuple(range(1, len(state.dims))))


def correlation_C2(state: DensityMatrix) -> float:
    return max(correlation_CA2(state), correlation_CB2(state))


# --- searches with more than two outputs -----------------------------------


def _n_output_me_pg(state: DensityMatrix, measured: Sequence[int], n: int) -> float:
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
    _SEESAW_ROUNDS rounds, and returns the payoff of the best strategy
    it held (at least 1/n, which guessing one fixed outcome attains).
    """
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
    for _ in range(_SEESAW_ROUNDS):
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


def correlation_C_general(state: DensityMatrix, max_outputs: int = 2) -> float:
    """Best equiprobable-measurement advantage over 2..max_outputs outcomes.

    The reported value is the maximal guessing probability minus the baseline
    1/2 for every output count, so adding outcomes can only help via genuinely
    better discrimination, not via a changed yardstick.

    Side A is the first factor and side B the rest. Each n >= 3 term is the
    seesaw _n_output_me_pg, skipped where a bound shows it cannot set the
    maximum (the proofs are at each rule):
    - measuring a uniform classical flag (flag-diagonal state, p0 = 1/2):
      the term is at most CA2 - 1/6;
    - measuring opposite a classical flag (flag-diagonal state, any p0): at
      most CB2 - (1/2 - 1/n) <= CB2 - 1/6;
    - measuring opposite a far side of dimension d_far with 2 d_far <= n: at
      most d_far/n - 1/2 <= 0 <= C2.
    """
    if max_outputs < 2 or max_outputs > 4:
        raise DimensionMismatchError("max_outputs must be between 2 and 4")
    best = correlation_C2(state)
    flaggy = _is_flag_diagonal(state)
    # Measuring a uniform classical flag (p0 = 1/2) with n >= 3 outputs never
    # beats CA2, so that term is skipped. With D = B0 - B1 (Tr D = 0 and
    # T = ||D||_1 <= 1), an equiprobable flag measurement has diagonal effects
    # (lam_i, 2/n - lam_i) and conditional blocks (B0 + B1)/n + (lam_i - 1/n) D
    # with |lam_i - 1/n| <= 1/n, so for any far-side POVM E its payoff is at
    # most 1/n + (1/n) sum_i Tr(|D| E_i) = (1 + T)/n. There K_x = K_y = 0 and
    # r = 0, so CA2 maximizes f(v) = |v_z| T/2: the exact two-qubit solver
    # returns T/2 (its candidates include e_z), and for a larger far side the
    # sphere search's first Fibonacci point alone has v_z = 63/64, so in both
    # cases CA2 >= 63 T/128 > T/3. Hence
    # (1 + T)/n - 1/2 <= T/2 - (1 + T)/6 = T/3 - 1/6 lies at least 1/6 below CA2.
    uniform_flag = flaggy and max(abs(p - 0.5) for p in _flag_blocks(state)[2:]) < 1e-9
    searched = [] if uniform_flag else [((0,), state.dim // state.dims[0])]
    # Measuring side B opposite a classical flag with n >= 3 outputs never
    # beats CB2, whatever the flag marginal, so that term is skipped. The flag
    # is classical, so a POVM on B guesses max_i Tr(B0 P_i) + max_j Tr(B1 P_j)
    # (unnormalized blocks, T = B0 + B1, Tr(T P_i) = 1/n). One effect winning
    # both flag values is worth Tr(T P_i) = 1/n < 1/2. Two winners P, Q have
    # P + Q <= 1 and pay V = Tr(B0 P) + Tr(B1 Q). Then P' = (1 + P - Q)/2 has
    # 0 <= P' <= 1 and Tr(T P') = 1/2, so it is a two-output equiprobable
    # effect, and by Tr(T P) = Tr(T Q) = 1/n it scores
    # Tr(B0 P') + Tr(B1 (1 - P')) = V + 1/2 - 1/n. Hence
    # V - 1/2 <= CB2 - (1/2 - 1/n), at least 1/6 below CB2.
    if not flaggy:
        searched.append((tuple(range(1, len(state.dims))), state.dims[0]))
    for n in range(3, max_outputs + 1):
        for measured, d_far in searched:
            # Each outcome has probability 1/n, so the far side guesses at most
            # sum_i (1/n) Tr(rho_far|i E_i) <= (1/n) sum_i Tr E_i = d_far/n. With
            # 2 d_far <= n the term is at most 0 <= C2 and is skipped; for
            # n <= 4 that is n = 4 against a qubit far side.
            if 2 * d_far > n:
                best = max(best, _n_output_me_pg(state, measured, n) - 0.5)
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
