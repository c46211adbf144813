"""Entanglement detection and the entanglement-blind backflow scenario.

Negativity across the first tensor cut certifies entanglement; for two
qubits the test is exact, so a qubit channel is entanglement breaking
precisely when its normalized Choi state has zero negativity.  The
scenario below chains an entanglement-breaking prelude into a positive
but not completely positive continuation and records that correlation
backflow survives even though every probe state stays PPT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    RateProfile,
    PauliChannelMap,
    choi_matrix,
    classify_interval,
    decay_factors,
    is_cp,
    is_cp_divisible_at,
    is_p_divisible_at,
    splice_rates,
)
from .ensembles import OptimizerBudget
from .errors import DimensionMismatchError, PreconditionError
from .linalg import DensityMatrix, partial_transpose, trace_norm
from .probe import BackflowReport, detect_backflow

NEGATIVITY_TOL = 1e-10
INTERMEDIATE_NEG_TOL = 1e-8
_PRE_SAMPLES = 65


def _negativity_raw(matrix: np.ndarray, dims: tuple[int, ...]) -> float:
    pt = partial_transpose(matrix, dims, 0)
    return max(0.0, 0.5 * (trace_norm(pt) - 1.0))


def negativity(state: DensityMatrix) -> float:
    """Entanglement negativity across the cut between factor 0 and the rest.

    Returns (||rho^{T_A}||_1 - 1)/2 clipped at zero; the clip only absorbs
    eigenvalue noise of order 1e-16 on separable inputs.
    """
    dims = tuple(state.dims)
    if len(dims) < 2:
        raise DimensionMismatchError(
            "negativity needs at least two tensor factors to define a cut"
        )
    return _negativity_raw(state.matrix, dims)


def is_entanglement_breaking(ch: PauliChannelMap) -> bool:
    """Whether the channel destroys all entanglement with any ancilla.

    Equivalent to separability of the normalized Choi state, which at
    qubit dimension reduces to the PPT condition; non-CP maps fail
    outright because their Choi matrix is not a state.
    """
    choi = choi_matrix(ch)
    if not is_cp(ch):
        return False
    return _negativity_raw(choi, (2, 2)) <= NEGATIVITY_TOL


@dataclass(frozen=True)
class EntanglementBlindReport:
    """Grid diagnostics for the entanglement-blind backflow scenario."""

    switch_time: float
    times: tuple[float, ...]
    negativities: tuple[float, ...]
    choi_min_intermediate: tuple[float, ...]
    c2_values: tuple[float, ...]
    prelude_breaking: bool
    blind_after_switch: bool
    noncp_after_switch: bool
    backflow: BackflowReport | None

    @property
    def certified(self) -> bool:
        if self.backflow is None:
            return False
        return (
            self.prelude_breaking
            and self.blind_after_switch
            and self.noncp_after_switch
            and self.backflow.backflow_detected
            and self.backflow.consistent
        )


def _validate_grid(grid: np.ndarray, switch_time: float, domain_end: float) -> None:
    if grid.ndim != 1 or grid.size < 2:
        raise PreconditionError("grid must be a one-dimensional sequence of at least two times")
    if not np.all(np.isfinite(grid)) or grid[0] < 0.0:
        raise PreconditionError("grid times must be finite and non-negative")
    if np.any(np.diff(grid) <= 0.0):
        raise PreconditionError("grid times must be strictly increasing")
    if int(np.sum(grid >= switch_time - 1e-12)) < 2:
        raise PreconditionError("grid must contain at least two points at or after the switch time")
    if grid[-1] > domain_end:
        raise PreconditionError("grid extends beyond the continuation domain")


def scenario_entanglement_blind(
    prelude_rates: RateProfile,
    continuation_rates: RateProfile,
    switch_time: float,
    grid: Sequence[float],
    epsilon: float = 0.05,
    budget: OptimizerBudget | None = None,
) -> EntanglementBlindReport:
    """Certify correlation backflow on dynamics that keep every state PPT.

    The prelude must be CP-divisible and entanglement breaking by the
    switch; the continuation must be P-divisible while dipping below
    zero in at least one rate.  Violations raise PreconditionError
    naming the failing clause.  The report carries, per grid time, the
    negativity of the evolved maximally entangled probe, the minimal
    Choi eigenvalue of the intermediate map over the following grid
    step, and the pair distance of the backflow probe pair. epsilon and
    budget go to detect_backflow on the first non-CP grid step.
    """
    if not 0.0 < switch_time < math.inf:
        raise PreconditionError("switch time must be positive and finite")
    if switch_time > prelude_rates.domain_end:
        raise PreconditionError("prelude domain must cover the switch time")
    times = np.asarray(grid, dtype=float)
    composite = splice_rates(
        prelude_rates,
        continuation_rates,
        switch_time,
        switch_time,
        f"{prelude_rates.label}->{continuation_rates.label}@{switch_time:g}",
    )
    _validate_grid(times, switch_time, composite.domain_end)

    for t in np.linspace(0.0, switch_time, _PRE_SAMPLES):
        if not is_cp_divisible_at(prelude_rates, float(t)):
            raise PreconditionError(
                f"prelude must be CP-divisible: negative rate at t={t:.6g}"
            )
    lam_switch = decay_factors(composite, 0.0, switch_time)
    if not is_entanglement_breaking(lam_switch):
        raise PreconditionError(
            "prelude map at the switch time must be entanglement breaking"
        )
    horizon = float(times[-1]) - switch_time
    has_negative_rate = False
    for t in np.linspace(0.0, horizon, _PRE_SAMPLES):
        if not is_p_divisible_at(continuation_rates, float(t)):
            raise PreconditionError(
                f"continuation must be P-divisible: negative pair sum at t={t:.6g}"
            )
        if not is_cp_divisible_at(continuation_rates, float(t)):
            has_negative_rate = True
    if not has_negative_rate:
        raise PreconditionError(
            "continuation must have a negative rate somewhere on the grid horizon"
        )

    n = times.size
    ts = times.tolist()
    negativities = tuple(
        _negativity_raw(choi_matrix(decay_factors(composite, 0.0, t)), (2, 2)) for t in ts
    )
    # the last step repeats the one before it, clipped at the domain end; a
    # zero-width step is the identity map, whose Choi minimum is exactly 0.0
    last = min(ts[-1] + (ts[-1] - ts[-2]), composite.domain_end)
    choi_mins = tuple(
        v.choi_min_eig for v in classify_interval(composite, zip(ts, [*ts[1:], last]))
    )

    after = times >= switch_time - 1e-12
    blind = bool(np.all(np.asarray(negativities)[after] <= NEGATIVITY_TOL))

    tau_star = None
    for i in range(n - 1):
        if after[i] and choi_mins[i] < -INTERMEDIATE_NEG_TOL:
            tau_star = i
            break
    noncp = tau_star is not None

    backflow = None
    c2_values = (0.0,) * n
    if noncp:
        ti = ts[tau_star]
        dt = ts[tau_star + 1] - ti
        backflow = detect_backflow(composite, ti, dt, epsilon=epsilon, budget=budget)
        if backflow.pair is not None:
            c2_values = tuple(backflow.pair.distance_at(composite, t) for t in ts)

    return EntanglementBlindReport(
        switch_time=float(switch_time),
        times=tuple(ts),
        negativities=negativities,
        choi_min_intermediate=choi_mins,
        c2_values=c2_values,
        prelude_breaking=True,
        blind_after_switch=blind,
        noncp_after_switch=noncp,
        backflow=backflow,
    )
