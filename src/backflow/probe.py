"""Probe pairs and correlation backflow detection.

A non-CP intermediate map expands the trace norm of some traceless Hermitian
direction under an identity extension. Pulling that direction back through
the (bijective) dynamics gives two initial states, arbitrarily close to each
other, whose distinguishability revives over the suspect interval. Dressing
the pair with a flag qubit turns the revival into a correlation backflow.

The ancilla A' is a qubit by default. A two-level ancilla witnesses most
non-CP Pauli maps but not all of them: for some the expansion supremum over
traceless 4x4 directions equals one exactly. Enlarging A' to three levels
restores a guaranteed witness, the block direction (Phi+ (+) -sigma)/2 whose
expansion ratio is one plus the negative part of the Choi spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channels import (
    ExtendedChannel,
    PauliChannelMap,
    RateProfile,
    choi_eigenvalues,
    choi_matrix,
    decay_factors,
    intermediate_map,
    invert_channel,
)
from .ensembles import correlation_CA2
from .errors import (
    DimensionMismatchError,
    EpsilonRangeError,
    ExpansionNotFoundError,
    InvalidStateError,
    ScaleUnderflowError,
    TimeOrderViolationError,
)
from .linalg import PHI_PLUS, DensityMatrix, maximally_mixed, trace_norm

CROSSCHECK_TOL = 1e-6
_RESOLUTION = 1e-10  # the smallest gain the ascent reports and the verdict resolves
# below this expansion the qubit probe's gain would sit too close to the
# verdict's resolution, so detect_backflow upgrades to the three-level
# ancilla construction, whose gain is at least the Choi negativity
_WEAK_RATIO_GAIN = 1e-5
_SHRINK_LIMIT = 60
_ASCENT_STEPS = 300
_ANCILLA_DIMS = (2, 3)


@dataclass(frozen=True)
class ProbePair:
    """Two nearby initial states on B = A'(x)S, prepared for revival at tau."""

    rho1_0: DensityMatrix
    rho2_0: DensityMatrix
    tau: float
    perturbation_scale: float

    def __post_init__(self):
        d1, d2 = tuple(self.rho1_0.dims), tuple(self.rho2_0.dims)
        if d1 != d2 or len(d1) != 2 or d1[1] != 2 or d1[0] not in _ANCILLA_DIMS:
            raise DimensionMismatchError(
                "probe pair lives on B = A'(x)S with a qubit system"
            )
        dist = 0.5 * trace_norm(self.rho1_0.matrix - self.rho2_0.matrix)
        if dist > self.perturbation_scale + 1e-12:
            raise InvalidStateError(
                "pair separation exceeds the declared perturbation scale"
            )

    def distance_at(self, rates: RateProfile, t: float) -> float:
        """Closed form: C2 of the evolved probe equals 1/4 ||rho1(t) - rho2(t)||_1."""
        ch = ExtendedChannel(decay_factors(rates, 0.0, t), (self.rho1_0.dims[0],))
        return 0.25 * trace_norm(ch.apply(self.rho1_0.matrix - self.rho2_0.matrix))


@dataclass(frozen=True)
class ProbeState:
    """Flagged mixture (1/2)|0><0|(x)rho1 + (1/2)|1><1|(x)rho2 on A(x)A'(x)S."""

    matrix: DensityMatrix
    pair: ProbePair


@dataclass(frozen=True)
class BackflowReport:
    tau: float
    delta_t: float
    c2_before: float
    c2_after: float
    choi_min_eig: float
    backflow_detected: bool
    consistent: bool
    inconclusive: bool = False
    # the probe pair behind c2_before/c2_after; None when no direction expands
    pair: ProbePair | None = field(default=None, compare=False, repr=False)


def _traceless(mat: np.ndarray) -> np.ndarray:
    """Remove the trace of each matrix in a (..., n, n) stack."""
    n = mat.shape[-1]
    shift = np.trace(mat, axis1=-2, axis2=-1) / n
    return mat - shift[..., None, None] * np.eye(n, dtype=complex)


def _block_seed(top: np.ndarray) -> np.ndarray:
    """(top (+) -I/2)/2 on (A' = qutrit)(x)S; top = Phi+ expands by the Choi negativity."""
    seed = np.zeros((6, 6), dtype=complex)
    seed[:4, :4] = 0.5 * top
    seed[4:, 4:] = -0.25 * np.eye(2, dtype=complex)
    return seed


@functools.cache  # the seeds that do not depend on the channel, built once per ancilla
def _fixed_seeds(ancilla_dim: int) -> np.ndarray:
    """_seeds with its channel-dependent slots (1 and 2 for a qubit A', 1 for a qutrit) zero."""
    dim = 2 * ancilla_dim
    seeds = np.zeros((7, dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    if ancilla_dim == 2:
        seeds[0] = PHI_PLUS - eye / 4.0
    else:
        embed = np.zeros((6, 6), dtype=complex)
        embed[:4, :4] = PHI_PLUS
        seeds[0] = _block_seed(PHI_PLUS)
        seeds[2] = embed - eye / 6.0
    rng = np.random.default_rng(20240917)
    for k in range(3, 7):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seeds[k] = _traceless(0.5 * (g + g.conj().T))
    seeds.flags.writeable = False
    return seeds


def _seeds(ch: PauliChannelMap, ancilla_dim: int) -> np.ndarray:
    """The seven starting directions, as a (7, d, d) stack in a fixed order."""
    chi = np.linalg.eigh(choi_matrix(ch))[1][:, 0]
    chi_proj = np.outer(chi, chi.conj())
    seeds = _fixed_seeds(ancilla_dim).copy()
    if ancilla_dim == 2:
        tau_local = chi_proj.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)  # Tr_A' |chi><chi|
        seeds[1] = PHI_PLUS - 0.5 * np.kron(np.eye(2, dtype=complex), tau_local)
        seeds[2] = chi_proj - np.eye(4, dtype=complex) / 4.0
    else:
        seeds[1] = _block_seed(chi_proj)
    return seeds


def trace_norm_expansion_direction(ch: PauliChannelMap, ancilla_dim: int = 2) -> np.ndarray:
    """Traceless Hermitian direction of maximal trace-norm growth under I(x)V.

    Alternating ascent on ||(I(x)V)(D)||_1 over unit-trace-norm traceless
    Hermitian D: score the sign operator of the image, pull it back through
    the (self-dual) map, and move to the best rank-two difference. The seven
    seeds ascend together as one (k, d, d) stack: each step takes one
    stacked eigh for the sign operators, one for the witnesses and one
    stacked trace norm for the candidates, whose images carry over to the
    next step. A seed leaves the stack once its step gains no more than
    1e-14, and after 300 steps at the latest. The value is monotone along
    the iteration, so the search never loses its seed; ties go to the
    earliest seed. Raises ExpansionNotFoundError, with the best ratio and
    direction seen, when no seed grows the trace norm by more than 1e-10.
    """
    if ancilla_dim not in _ANCILLA_DIMS:
        raise DimensionMismatchError("the ancilla A' has two or three levels")
    ext = ExtendedChannel(ch, (ancilla_dim,))
    seeds = _traceless(_seeds(ch, ancilla_dim))
    norms = trace_norm(seeds)
    kept = norms != 0.0  # a zero seed has no direction to scale
    deltas = seeds[kept] / norms[kept, None, None]
    images = ext.apply(deltas)
    values = trace_norm(images)

    active = np.arange(len(deltas))
    for _ in range(_ASCENT_STEPS):
        w, u = np.linalg.eigh(images[active])
        sign_ops = (u * np.sign(w)[:, None, :]) @ np.swapaxes(u, -1, -2).conj()
        witnesses = _traceless(ext.apply(sign_ops))  # self-dual map
        _, wu = np.linalg.eigh(witnesses)
        top, bottom = wu[:, :, -1], wu[:, :, 0]
        candidates = 0.5 * (
            top[:, :, None] * top[:, None, :].conj()
            - bottom[:, :, None] * bottom[:, None, :].conj()
        )
        candidate_images = ext.apply(candidates)
        candidate_values = trace_norm(candidate_images)
        gain = candidate_values > values[active] + 1e-14
        active = active[gain]
        if active.size == 0:
            break
        deltas[active] = candidates[gain]
        images[active] = candidate_images[gain]
        values[active] = candidate_values[gain]

    best = int(np.argmax(values))
    if values[best] <= 1.0 + _RESOLUTION:
        raise ExpansionNotFoundError(
            "no trace-norm expanding direction found; the map looks CP",
            best_ratio=float(values[best]),
            best_direction=deltas[best],
        )
    return deltas[best]


def _expansion_ratio(ch: PauliChannelMap, direction: np.ndarray) -> float:
    ancilla_dim = direction.shape[0] // 2
    ext = ExtendedChannel(ch, (ancilla_dim,))
    return float(trace_norm(ext.apply(direction)))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise EpsilonRangeError(f"epsilon must be in (0, 1], got {epsilon}")


def pull_back_pair(
    delta_tau: np.ndarray, rates: RateProfile, tau: float, epsilon: float = 0.05
) -> ProbePair:
    """Initial pair straddling 1/d whose difference evolves into delta_tau.

    The direction is pulled back through the inverse of the accumulated
    dynamics, scaled to trace distance epsilon in (0, 1] around the maximally
    mixed state 1/d, and shrunk geometrically (factor 1/2, at most 60 steps)
    until both ends are states.
    """
    _check_epsilon(epsilon)
    delta_tau = np.asarray(delta_tau, dtype=complex)
    if delta_tau.shape not in [(2 * a, 2 * a) for a in _ANCILLA_DIMS]:
        raise DimensionMismatchError("expansion direction must live on A'(x)S")
    dims = (delta_tau.shape[0] // 2, 2)
    sigma = maximally_mixed(dims)

    inv = invert_channel(decay_factors(rates, 0.0, tau))  # NonBijective if singular
    delta_0 = ExtendedChannel(inv, (dims[0],)).apply(delta_tau)

    nrm = trace_norm(delta_0)
    if nrm <= 1e-15:
        return ProbePair(
            rho1_0=sigma, rho2_0=sigma, tau=tau, perturbation_scale=float(epsilon)
        )
    step = delta_0 / nrm
    scale = float(epsilon)
    for _ in range(_SHRINK_LIMIT + 1):
        try:
            rho1 = DensityMatrix(matrix=sigma.matrix + scale * step, dims=dims)
            rho2 = DensityMatrix(matrix=sigma.matrix - scale * step, dims=dims)
        except InvalidStateError:
            scale *= 0.5
            continue
        return ProbePair(
            rho1_0=rho1, rho2_0=rho2, tau=tau, perturbation_scale=float(epsilon)
        )
    raise ScaleUnderflowError("could not fit the perturbed pair inside the state set")


def build_probe_state(pair: ProbePair) -> ProbeState:
    """(1/2)|0><0|(x)rho1_0 + (1/2)|1><1|(x)rho2_0 on A(x)A'(x)S."""
    d_b = pair.rho1_0.matrix.shape[0]
    mat = np.zeros((2 * d_b, 2 * d_b), dtype=complex)
    mat[:d_b, :d_b] = 0.5 * pair.rho1_0.matrix
    mat[d_b:, d_b:] = 0.5 * pair.rho2_0.matrix
    state = DensityMatrix(matrix=mat, dims=(2,) + tuple(pair.rho1_0.dims))
    return ProbeState(matrix=state, pair=pair)


def evolve_probe(ps: ProbeState, rates: RateProfile, t: float) -> ProbeState:
    """Evolve the S factor to time t; the flag block structure is preserved."""
    ch = decay_factors(rates, 0.0, t)
    evolved = ExtendedChannel(ch, tuple(ps.matrix.dims[:-1])).apply_state(ps.matrix)
    return ProbeState(matrix=evolved, pair=ps.pair)


def _best_direction(ch: PauliChannelMap) -> np.ndarray | None:
    """Qubit-ancilla search first, three-level construction when it is weak."""
    direction = None
    try:
        direction = trace_norm_expansion_direction(ch, ancilla_dim=2)
    except ExpansionNotFoundError:
        pass
    if direction is not None and _expansion_ratio(ch, direction) > 1.0 + _WEAK_RATIO_GAIN:
        return direction
    try:
        return trace_norm_expansion_direction(ch, ancilla_dim=3)
    except ExpansionNotFoundError:
        return direction


def detect_backflow(
    rates: RateProfile,
    tau: float,
    delta_t: float,
    epsilon: float = 0.05,
) -> BackflowReport:
    """Hunt for a correlation backflow across [tau, tau + delta_t].

    Builds the probe from the best trace-norm-expanding direction of the
    intermediate map and evaluates the two-output correlation at both ends
    with the closed form and the generic optimizer (cross-checked to 1e-6
    times epsilon). Both values scale with epsilon, so the verdict reads
    relative gains at one resolution, floor = max(1e-10, 2**-57 / epsilon),
    the second term being the pull-back pair's rounding. Non-CP means a Choi
    negativity N above floor and backflow a gain above floor. A gain lies in
    [0, 2N] (the diamond norm) and the three-level probe reaches N, so the
    report is inconclusive on a failed cross-check, on a non-CP map without
    a resolved gain, on a CP map gaining at most 2 floor, or above 2N + floor.
    epsilon, the probe pair's trace distance, must lie in (0, 1].
    """
    _check_epsilon(epsilon)
    if tau < 0.0 or delta_t <= 0.0:
        raise TimeOrderViolationError("need 0 <= tau < tau + delta_t")
    ch = intermediate_map(rates, tau, tau + delta_t)
    choi_eigs = choi_eigenvalues(ch)
    negativity = float(-choi_eigs[choi_eigs < 0.0].sum())
    floor = max(_RESOLUTION, 2.0**-57 / epsilon)

    # with no expanding pair both c2 read 0.0: the expected outcome for a CP
    # map, against a non-CP Choi verdict an optimizer shortfall
    pair = None
    c2_before = c2_after = 0.0
    crosscheck_ok = True
    direction = _best_direction(ch)
    if direction is not None:
        pair = pull_back_pair(direction, rates, tau, epsilon)
        probe = build_probe_state(pair)
        c2_before = pair.distance_at(rates, tau)
        c2_after = pair.distance_at(rates, tau + delta_t)
        for t_eval, want in ((tau, c2_before), (tau + delta_t, c2_after)):
            evolved = evolve_probe(probe, rates, t_eval)
            got = correlation_CA2(evolved.matrix)
            # both values scale with epsilon; the probe's entries do not, so the
            # optimizer's rounding leaves an absolute floor
            if abs(got - want) > CROSSCHECK_TOL * epsilon + 1e-12:
                crosscheck_ok = False

    noncp = negativity > floor
    backflow = c2_after > c2_before * (1.0 + floor)
    unresolved = backflow != noncp and (noncp or c2_after <= c2_before * (1.0 + 2.0 * floor))
    beyond_diamond = c2_after > c2_before * (1.0 + 2.0 * negativity + floor)
    return BackflowReport(
        tau=float(tau),
        delta_t=float(delta_t),
        c2_before=c2_before,
        c2_after=c2_after,
        choi_min_eig=float(choi_eigs[0]),
        backflow_detected=backflow,
        consistent=backflow == noncp,
        inconclusive=not crosscheck_ok or unresolved or beyond_diamond,
        pair=pair,
    )


def scan_backflow_grid(
    rates: RateProfile,
    intervals: Iterable[tuple[float, float]],
    epsilon: float = 0.05,
) -> list[BackflowReport]:
    """detect_backflow at each (tau, delta_t) pair, in the given order."""
    return [
        detect_backflow(rates, float(tau), float(dt), epsilon=epsilon)
        for tau, dt in intervals
    ]
