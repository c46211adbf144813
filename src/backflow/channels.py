"""Random-unitary qubit dynamics and their divisibility structure.

A rate profile (gamma_x, gamma_y, gamma_z) on [0, T] generates a family of
Pauli channels: the map from time t0 to t1 multiplies the Bloch components by

    d_x = exp(-I(gamma_z + gamma_y)),
    d_y = exp(-I(gamma_z + gamma_x)),
    d_z = exp(-I(gamma_x + gamma_y)),

where I(.) integrates over [t0, t1]. Each Bloch axis is damped by the two
rates that do not commute with it. The same formula with t0 > 0 gives the
intermediate map, which is where complete positivity can fail while the full
dynamics from zero stays perfectly valid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EpsilonRangeError,
    NonBijectiveError,
    NonFiniteError,
    TimeOrderViolationError,
)
from .linalg import PHI_PLUS, DensityMatrix, as_matrix

_TIME_SLACK = 1e-12
# a rate or pair sum this far below zero still counts as non-negative
_RATE_TOL = 1e-12
_SIGN_Z = np.array([[1.0, -1.0], [-1.0, 1.0]])[None, :, None, :]


def _log_cosh(t: float) -> float:
    # numerically stable for large |t|
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


@dataclass(frozen=True)
class RateProfile:
    """Time-dependent rates (gamma_x, gamma_y, gamma_z) on [0, domain_end].

    evaluate(t) returns the three rates at time t. pair_integrals returns the
    exact integrals over [t0, t1] of the three pair sums
    (gamma_y+gamma_z, gamma_x+gamma_z, gamma_x+gamma_y) in that order, i.e.
    ordered by the Bloch axis they damp; every constructor supplies one.
    """

    evaluate: Callable[[float], tuple[float, float, float]]
    domain_end: float
    pair_integrals: Callable[[float, float], tuple[float, float, float]]
    label: str = "custom"

    def __post_init__(self):
        if math.isnan(self.domain_end):  # +inf is a valid, unbounded domain
            raise NonFiniteError("domain_end must not be NaN")

    def rates(self, t: float) -> np.ndarray:
        return np.asarray(self.evaluate(t), dtype=float)

    def pair_sums(self, t: float) -> np.ndarray:
        if not math.isfinite(t):
            raise NonFiniteError(f"time must be finite, got {t}")
        gx, gy, gz = self.evaluate(t)
        return np.array([gy + gz, gx + gz, gx + gy])

    def integrate_pair_sums(self, t0: float, t1: float) -> np.ndarray:
        _check_interval(self, t0, t1)
        return np.asarray(self.pair_integrals(t0, t1), dtype=float)


def _check_interval(profile: RateProfile, t0: float, t1: float) -> None:
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise NonFiniteError(f"interval ends must be finite, got ({t0}, {t1})")
    if t0 < -_TIME_SLACK or t1 < t0 - _TIME_SLACK:
        raise TimeOrderViolationError(f"need 0 <= t0 <= t1, got ({t0}, {t1})")
    if t1 > profile.domain_end + _TIME_SLACK:
        raise TimeOrderViolationError(
            f"t1={t1} beyond profile domain end {profile.domain_end}"
        )


def _require_finite(what: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what} must be finite, got {values}")


def constant_rates(gx: float, gy: float, gz: float, domain_end: float = math.inf) -> RateProfile:
    _require_finite("rates", (gx, gy, gz))
    sums = np.array([gy + gz, gx + gz, gx + gy])
    _require_finite("pair sums", sums)

    def integrals(t0: float, t1: float):
        return tuple(sums * (t1 - t0))

    return RateProfile(
        evaluate=lambda t: (gx, gy, gz),
        domain_end=domain_end,
        pair_integrals=integrals,
        label=f"constant({gx},{gy},{gz})",
    )


def eternal_rates(domain_end: float = math.inf) -> RateProfile:
    """gamma_x = gamma_y = 1, gamma_z = -tanh(t).

    P-divisible for all times (pair sums 1 - tanh t >= 0 and 2), never
    CP-divisible for t > 0, and famously blind to every ancilla-free witness.
    The pair-sum antiderivatives are t - ln(cosh t), t - ln(cosh t), 2t.
    """

    def integrals(t0: float, t1: float):
        ix = (t1 - _log_cosh(t1)) - (t0 - _log_cosh(t0))
        return (ix, ix, 2.0 * (t1 - t0))

    return RateProfile(
        evaluate=lambda t: (1.0, 1.0, -math.tanh(t)),
        domain_end=domain_end,
        pair_integrals=integrals,
        label="eternal",
    )


def table_rates(times: Sequence[float], gammas: Sequence[Sequence[float]]) -> RateProfile:
    """Linear interpolation through sampled rates; domain ends at the last knot."""
    ts = np.asarray(times, dtype=float)
    gs = np.asarray(gammas, dtype=float)
    if ts.ndim != 1 or gs.shape != (ts.size, 3):
        raise DimensionMismatchError("need times (n,) and gammas (n, 3)")
    _require_finite("table times", ts)
    _require_finite("table rates", gs)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise TimeOrderViolationError("table times must be strictly increasing, n >= 2")
    if ts[0] > _TIME_SLACK:
        raise TimeOrderViolationError("table must start at t = 0")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        pair = np.stack([gs[:, 1] + gs[:, 2], gs[:, 0] + gs[:, 2], gs[:, 0] + gs[:, 1]], axis=1)
        # cumulative exact integrals of the piecewise-linear interpolant at knots
        seg = 0.5 * (pair[1:] + pair[:-1]) * np.diff(ts)[:, None]
        cum = np.vstack([np.zeros(3), np.cumsum(seg, axis=0)])
    _require_finite("pair sums", pair)
    _require_finite("pair-sum integrals at the knots", cum)

    def value_at(t: float) -> np.ndarray:
        return np.array([np.interp(t, ts, gs[:, k]) for k in range(3)])

    def cum_at(t: float) -> np.ndarray:
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(max(i, 0), ts.size - 2)
        dt = t - ts[i]
        p0 = pair[i]
        slope = (pair[i + 1] - pair[i]) / (ts[i + 1] - ts[i])
        return cum[i] + p0 * dt + 0.5 * slope * dt * dt

    def integrals(t0: float, t1: float):
        return tuple(cum_at(t1) - cum_at(t0))

    return RateProfile(
        evaluate=lambda t: tuple(value_at(t)),
        domain_end=float(ts[-1]),
        pair_integrals=integrals,
        label="table",
    )


def splice_rates(
    head: RateProfile, tail: RateProfile, switch_time: float, tail_origin: float, label: str
) -> RateProfile:
    """head before switch_time, then tail read on a clock that starts at tail_origin.

    At time t >= switch_time the rates are tail.evaluate(t - tail_origin);
    tail_origin = 0 keeps the global clock, tail_origin = switch_time starts
    the tail afresh at the switch.
    """

    def evaluate(t: float):
        if t < switch_time:
            return head.evaluate(t)
        return tail.evaluate(t - tail_origin)

    def integrals(t0: float, t1: float):
        head_part = np.zeros(3)
        lo, hi = min(t0, switch_time), min(t1, switch_time)
        if hi > lo:
            head_part = head.integrate_pair_sums(lo, hi)
        tail_part = np.zeros(3)
        if t1 > switch_time:
            tail_part = tail.integrate_pair_sums(
                max(t0, switch_time) - tail_origin, t1 - tail_origin
            )
        return tuple(head_part + tail_part)

    return RateProfile(
        evaluate=evaluate,
        domain_end=tail_origin + tail.domain_end,
        pair_integrals=integrals,
        label=label,
    )


def load_rate_table_csv(path: str) -> RateProfile:
    """Read a `t,gamma_x,gamma_y,gamma_z` CSV into an interpolated profile."""
    times: list[float] = []
    gammas: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "gamma_x", "gamma_y", "gamma_z"]:
            raise DimensionMismatchError(
                "rate table must start with header 't,gamma_x,gamma_y,gamma_z'"
            )
        for row in reader:
            if not row:
                continue
            times.append(float(row[0]))
            gammas.append([float(row[1]), float(row[2]), float(row[3])])
    return table_rates(times, gammas)


@dataclass(frozen=True)
class PauliChannelMap:
    """Bloch-diagonal qubit map: sigma_k -> d_k sigma_k, identity fixed."""

    d_x: float
    d_y: float
    d_z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d_x, self.d_y, self.d_z))):
            raise NonFiniteError(
                f"decay factors must be finite, got ({self.d_x}, {self.d_y}, {self.d_z})"
            )

    @property
    def factors(self) -> np.ndarray:
        return np.array([self.d_x, self.d_y, self.d_z])

    def mixing_weights(self) -> np.ndarray:
        """Coefficients q_mu with map(rho) = sum_mu q_mu sigma_mu rho sigma_mu.

        The q_mu sum to 1 but may be negative for non-CP maps; the identity
        still holds as a linear statement.
        """
        dx, dy, dz = self.d_x, self.d_y, self.d_z
        return 0.25 * np.array(
            [1 + dx + dy + dz, 1 + dx - dy - dz, 1 - dx + dy - dz, 1 - dx - dy + dz]
        )


def decay_factors(rates: RateProfile, t0: float, t1: float) -> PauliChannelMap:
    """The map accumulated between t0 and t1 (t0 = 0 gives the full dynamics)."""
    ix, iy, iz = rates.integrate_pair_sums(t0, t1)
    return PauliChannelMap(d_x=math.exp(-ix), d_y=math.exp(-iy), d_z=math.exp(-iz))


def intermediate_map(rates: RateProfile, t: float, s: float) -> PauliChannelMap:
    """V_{s,t}: the piece of dynamics between t and s (t <= s)."""
    return decay_factors(rates, t, s)


def invert_channel(ch: PauliChannelMap) -> PauliChannelMap:
    if np.any(np.abs(ch.factors) <= 1e-13):
        raise NonBijectiveError("a decay factor is numerically zero; cannot invert")
    return PauliChannelMap(d_x=1.0 / ch.d_x, d_y=1.0 / ch.d_y, d_z=1.0 / ch.d_z)


class ExtendedChannel:
    """identity (x) map on ancilla factors, with the map on the last factor.

    This is the one way to apply a Pauli map; ancilla_dims = () maps a bare
    qubit. apply maps every 2x2 block B of the (n, 2, n, 2) reshape at once,
    as q_0 B + q_x F + q_y F.S + q_z B.S: F = sigma_x B sigma_x reverses both
    qubit axes and B.S = sigma_z B sigma_z negates the off-diagonal entries.
    Summed in this order it rounds exactly like the Kronecker-lifted
    sum_mu q_mu (1 (x) sigma_mu) M (1 (x) sigma_mu)^dagger.

    apply also takes a stack (..., dim, dim) and maps each matrix; the kernel
    is elementwise, so apply(stack)[i] equals apply(stack[i]) bit for bit.
    """

    def __init__(self, ch: PauliChannelMap, ancilla_dims: Sequence[int]):
        self.channel = ch
        self.ancilla_dims = tuple(int(d) for d in ancilla_dims)
        anc = int(np.prod(self.ancilla_dims)) if self.ancilla_dims else 1
        self.dim = anc * 2
        self._block_shape = (anc, 2, anc, 2)
        self._weights = ch.mixing_weights()

    def apply(self, operator) -> np.ndarray:
        mat = as_matrix(operator)
        if mat.ndim < 2 or mat.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected shape (..., {self.dim}, {self.dim}), got {mat.shape}"
            )
        q0, qx, qy, qz = self._weights
        blocks = mat.reshape(mat.shape[:-2] + self._block_shape)
        flip = blocks[..., ::-1, :, ::-1]
        out = q0 * blocks + qx * flip + qy * (flip * _SIGN_Z) + qz * (blocks * _SIGN_Z)
        return out.reshape(mat.shape)

    def apply_state(self, state: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(
            matrix=self.apply(state.matrix), dims=state.dims, _skip_checks=True
        )


def choi_matrix(ch: PauliChannelMap) -> np.ndarray:
    """(id (x) map) applied to |Phi+><Phi+|; normalized to trace 1."""
    return ExtendedChannel(ch, (2,)).apply(PHI_PLUS)


def choi_eigenvalues(ch: PauliChannelMap) -> np.ndarray:
    """Closed form, ascending. The Bell basis diagonalizes the Choi state."""
    dx, dy, dz = ch.d_x, ch.d_y, ch.d_z
    vals = 0.25 * np.array(
        [1 + dx + dy + dz, 1 + dz - dx - dy, 1 - dz + dx - dy, 1 - dz - dx + dy]
    )
    return np.sort(vals)


def choi_min_eigenvalue(ch: PauliChannelMap) -> float:
    return float(choi_eigenvalues(ch)[0])


def is_cp(ch: PauliChannelMap) -> bool:
    return choi_min_eigenvalue(ch) >= -1e-10


def is_cp_divisible_at(rates: RateProfile, t: float) -> bool:
    """Pointwise test: all three rates non-negative."""
    return bool(np.all(rates.rates(t) >= -_RATE_TOL))


def is_p_divisible_at(rates: RateProfile, t: float) -> bool:
    """Pointwise test: all pairwise rate sums non-negative."""
    return bool(np.all(rates.pair_sums(t) >= -_RATE_TOL))


@dataclass(frozen=True)
class DivisibilityVerdict:
    t: float
    s: float
    gammas: tuple[float, float, float]
    decay: PauliChannelMap
    choi_min_eig: float
    cp_divisible: bool
    p_divisible: bool


def classify_interval(
    rates: RateProfile, pairs: Sequence[tuple[float, float]]
) -> list[DivisibilityVerdict]:
    """Pointwise rate tests at t combined with the Choi test of V_{s,t}."""
    verdicts = []
    for t, s in pairs:
        ch = intermediate_map(rates, t, s)
        gx, gy, gz = rates.evaluate(t)
        verdicts.append(
            DivisibilityVerdict(
                t=float(t),
                s=float(s),
                gammas=(float(gx), float(gy), float(gz)),
                decay=ch,
                choi_min_eig=choi_min_eigenvalue(ch),
                cp_divisible=is_cp_divisible_at(rates, t),
                p_divisible=is_p_divisible_at(rates, t),
            )
        )
    return verdicts


def tune_rates_shrink_image(rates: RateProfile, epsilon: float, t_activate: float) -> RateProfile:
    """Prepend a constant CP-divisible burst so decay factors at t_activate <= epsilon.

    The burst rate c = -ln(epsilon) / (2 * t_activate) makes each pairwise sum
    integrate to -ln(epsilon) over the burst window, which is what bounds the
    decay factors. epsilon = 1 returns the profile unchanged.
    """
    if not (0.0 < epsilon <= 1.0):
        raise EpsilonRangeError(f"epsilon must be in (0, 1], got {epsilon}")
    if epsilon == 1.0:
        return rates
    _require_finite("t_activate", t_activate)
    if t_activate <= 0:
        raise TimeOrderViolationError("t_activate must be positive")
    c = -math.log(epsilon) / (2.0 * t_activate)
    return splice_rates(
        constant_rates(c, c, c), rates, t_activate, 0.0, f"burst({epsilon:g})+{rates.label}"
    )
