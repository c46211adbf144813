"""Random-unitary qubit dynamics and correlation-backflow witnesses.

The subpackages split along the pipeline: linear algebra primitives
(`linalg`), rate profiles and divisibility of Pauli channels (`channels`),
measurement optimization and the correlation measure (`ensembles`), the
probe construction that witnesses trace-norm backflow (`probe`), mutual
information derivatives at the stationary state (`mutinfo`), entanglement
negativity and the blindness scenario (`entwit`), and the scenario CLI
(`cli`).

`import backflow` loads none of them. Each name in `__all__` is looked up
in its home module on first use (PEP 562), so `from backflow import name`
and `backflow.name` import only that module and what it needs, and
`backflow.<submodule>` works without importing it first. The package keeps
no copy of the names it hands out: every access returns the home module's
current binding.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channels": (
        "DivisibilityVerdict", "ExtendedChannel", "PauliChannelMap", "RateProfile",
        "choi_eigenvalues", "choi_matrix", "choi_min_eigenvalue", "classify_interval",
        "constant_rates", "decay_factors", "eternal_rates", "intermediate_map",
        "invert_channel", "is_cp", "is_cp_divisible_at", "is_p_divisible_at",
        "load_rate_table_csv", "table_rates", "tune_rates_shrink_image",
    ),
    "ensembles": (
        "EnsembleMember", "OptimizerBudget", "Povm", "StateEnsemble", "apply_local_channel",
        "construct_me_povm", "correlation_C2", "correlation_C_general", "correlation_CA2",
        "correlation_CB2", "guessing_probability_bruteforce", "is_me_povm",
        "random_local_cptp",
    ),
    "entwit": (
        "EntanglementBlindReport", "is_entanglement_breaking", "negativity",
        "scenario_entanglement_blind",
    ),
    "linalg": (
        "DensityMatrix", "max_entangled_state", "maximally_mixed", "partial_transpose",
        "pure_state", "random_density_matrix", "tensor_product", "trace_norm",
    ),
    "mutinfo": (
        "HessianReport", "NeighborhoodScanReport", "closed_form_hessian_eigenvalues",
        "hessian_at_stationary", "neighborhood_scan", "spectral_derivatives",
    ),
    "probe": (
        "BackflowReport", "ProbePair", "ProbeState", "build_probe_state", "detect_backflow",
        "evolve_probe", "pull_back_pair", "scan_backflow_grid",
        "trace_norm_expansion_direction",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "errors"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # nothing is cached here: a later patch of the home module stays visible
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
