"""Negativity, entanglement breaking, and the blind-backflow scenario."""

from __future__ import annotations

import numpy as np
import pytest

from backflow.channels import (
    PauliChannelMap,
    choi_min_eigenvalue,
    constant_rates,
    decay_factors,
    eternal_rates,
    intermediate_map,
)
from backflow.ensembles import apply_local_channel, random_local_cptp
from backflow.entwit import (
    NEGATIVITY_TOL,
    is_entanglement_breaking,
    negativity,
    scenario_entanglement_blind,
)
from backflow.errors import DimensionMismatchError, PreconditionError
from backflow.linalg import (
    DensityMatrix,
    max_entangled_state,
    maximally_mixed,
    random_density_matrix,
)


def werner(w: float) -> DensityMatrix:
    bell = max_entangled_state()
    mat = w * bell.matrix + (1.0 - w) * np.eye(4) / 4.0
    return DensityMatrix(matrix=mat, dims=(2, 2))


def random_product(rng: np.random.Generator) -> DensityMatrix:
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    return DensityMatrix(matrix=np.kron(a.matrix, b.matrix), dims=(2, 2))


class TestNegativity:
    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            assert negativity(random_product(rng)) <= 1e-12

    def test_bell_state(self):
        assert negativity(max_entangled_state()) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("w", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
    def test_werner_closed_form(self, w):
        # partial transpose spectrum gives max(0, (3w-1)/4)
        expected = max(0.0, (3.0 * w - 1.0) / 4.0)
        assert negativity(werner(w)) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_zero(self):
        assert negativity(maximally_mixed((2, 2))) == 0.0

    def test_separable_mixture_zero(self):
        rng = np.random.default_rng(23)
        weights = rng.dirichlet(np.ones(12))
        mat = sum(w * random_product(rng).matrix for w in weights)
        assert negativity(DensityMatrix(matrix=mat, dims=(2, 2))) <= 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_locc_monotone(self, seed):
        rng = np.random.default_rng(1000 + seed)
        state = random_density_matrix(rng, 4)
        state = DensityMatrix(matrix=state.matrix, dims=(2, 2), _skip_checks=True)
        before = negativity(state)
        factor = seed % 2
        ch = random_local_cptp(2, seed=77 + seed)
        after = negativity(apply_local_channel(state, ch, factor))
        assert after <= before + 1e-9

    def test_requires_bipartition(self):
        flat = DensityMatrix(matrix=np.eye(4) / 4.0, dims=(4,))
        with pytest.raises(DimensionMismatchError):
            negativity(flat)

    def test_three_factor_cut(self):
        # cut separates factor 0 from the rest
        bell = max_entangled_state()
        mat = np.kron(bell.matrix, np.eye(2) / 2.0)
        state = DensityMatrix(matrix=mat, dims=(2, 2, 2))
        assert negativity(state) == pytest.approx(0.5, abs=1e-12)


class TestEntanglementBreaking:
    @pytest.mark.parametrize(
        "d, expected",
        [
            ((0.0, 0.0, 0.0), True),
            ((1.0, 1.0, 1.0), False),
            ((0.5, 0.5, 0.5), False),
            ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), True),
            ((0.4, 0.4, 0.4), False),
            ((0.3, 0.3, 0.3), True),
            ((0.9, 0.05, 0.05), True),
            ((1.0, 1.0, -0.5), False),
        ],
    )
    def test_pins(self, d, expected):
        assert is_entanglement_breaking(PauliChannelMap(*d)) is expected

    def test_half_half_half_choi_negativity(self):
        # Choi weights (0.625, 0.125, 0.125, 0.125); partial transpose dips to -0.125
        from backflow.channels import choi_matrix
        from backflow.linalg import partial_transpose, trace_norm

        choi = choi_matrix(PauliChannelMap(0.5, 0.5, 0.5))
        neg = 0.5 * (trace_norm(partial_transpose(choi, (2, 2), 0)) - 1.0)
        assert neg == pytest.approx(0.125, abs=1e-12)

    def test_depolarizing_prelude_at_switch(self):
        lam = decay_factors(constant_rates(2.0, 2.0, 2.0), 0.0, 1.0)
        assert np.allclose(lam.factors, np.exp(-4.0))
        assert is_entanglement_breaking(lam)


CANON_GRID = (0.1, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)


@pytest.fixture(scope="module")
def canonical_report():
    return scenario_entanglement_blind(
        constant_rates(2.0, 2.0, 2.0), eternal_rates(), 1.0, CANON_GRID
    )


class TestScenario:
    def test_certified(self, canonical_report):
        rep = canonical_report
        assert rep.prelude_breaking
        assert rep.blind_after_switch
        assert rep.noncp_after_switch
        assert rep.certified

    def test_entanglement_visible_before_switch(self, canonical_report):
        assert canonical_report.negativities[0] > 0.2

    def test_blind_rows_after_switch(self, canonical_report):
        rep = canonical_report
        for t, neg in zip(rep.times, rep.negativities):
            if t >= rep.switch_time:
                assert neg <= NEGATIVITY_TOL

    def test_first_negative_interval(self, canonical_report):
        rep = canonical_report
        # the continuation map from its own origin has an exactly zero Choi
        # eigenvalue, so [1.0, 1.25] sits in the zero band and the first
        # genuinely negative interval starts one step later
        assert abs(rep.choi_min_intermediate[2]) < 1e-12
        assert rep.choi_min_intermediate[3] < -1e-2
        assert rep.backflow is not None
        assert rep.backflow.tau == pytest.approx(1.25, abs=1e-12)
        assert rep.backflow.delta_t == pytest.approx(0.25, abs=1e-12)

    def test_backflow_detected(self, canonical_report):
        bf = canonical_report.backflow
        assert bf.backflow_detected
        assert bf.consistent
        assert not bf.inconclusive
        assert bf.c2_after - bf.c2_before > 1e-6

    def test_c2_column_matches_backflow_endpoints(self, canonical_report):
        rep = canonical_report
        bf = rep.backflow
        i = rep.times.index(bf.tau)
        j = rep.times.index(bf.tau + bf.delta_t)
        assert rep.c2_values[i] == pytest.approx(bf.c2_before, abs=1e-12)
        assert rep.c2_values[j] == pytest.approx(bf.c2_after, abs=1e-12)

    def test_prelude_rows_are_cp(self, canonical_report):
        rep = canonical_report
        for t, chi in zip(rep.times, rep.choi_min_intermediate):
            if t < rep.switch_time:
                assert chi >= -1e-12

    def test_composite_matches_shifted_continuation(self, canonical_report):
        rep = canonical_report
        cont = eternal_rates()
        for i in range(2, len(rep.times) - 1):
            t0 = rep.times[i] - rep.switch_time
            t1 = rep.times[i + 1] - rep.switch_time
            want = choi_min_eigenvalue(intermediate_map(cont, t0, t1))
            assert rep.choi_min_intermediate[i] == pytest.approx(want, abs=1e-12)

    def test_direction_search_runs_once(self, monkeypatch, canonical_report):
        import backflow.probe as probe

        calls = []
        search = probe._best_direction
        monkeypatch.setattr(probe, "_best_direction", lambda ch: calls.append(ch) or search(ch))
        rep = scenario_entanglement_blind(
            constant_rates(2.0, 2.0, 2.0), eternal_rates(), 1.0, CANON_GRID
        )
        assert len(calls) == 1
        assert rep == canonical_report

    @pytest.mark.parametrize(
        "prelude, continuation, switch, grid, match",
        [
            (eternal_rates(), eternal_rates(), 1.0, CANON_GRID, "CP-divisible"),
            (
                constant_rates(0.1, 0.1, 0.1),
                eternal_rates(),
                1.0,
                CANON_GRID,
                "entanglement breaking",
            ),
            (
                constant_rates(2.0, 2.0, 2.0),
                constant_rates(1.0, 1.0, -3.0),
                1.0,
                CANON_GRID,
                "P-divisible",
            ),
            (
                constant_rates(2.0, 2.0, 2.0),
                constant_rates(1.0, 1.0, 1.0),
                1.0,
                CANON_GRID,
                "negative rate",
            ),
            (
                constant_rates(2.0, 2.0, 2.0),
                eternal_rates(),
                1.0,
                (0.5, 1.5),
                "at or after the switch",
            ),
            (
                constant_rates(2.0, 2.0, 2.0),
                eternal_rates(),
                1.0,
                (1.5, 1.2, 2.0),
                "strictly increasing",
            ),
            (constant_rates(2.0, 2.0, 2.0), eternal_rates(), 0.0, CANON_GRID, "positive"),
            (
                constant_rates(2.0, 2.0, 2.0, 0.8),
                eternal_rates(),
                1.0,
                CANON_GRID,
                "prelude domain",
            ),
            (
                constant_rates(2.0, 2.0, 2.0),
                constant_rates(1.0, 1.0, -0.5, 1.0),
                1.0,
                CANON_GRID,
                "continuation domain",
            ),
            (constant_rates(2.0, 2.0, 2.0), eternal_rates(), np.nan, CANON_GRID, "finite"),
        ],
    )
    def test_preconditions(self, prelude, continuation, switch, grid, match):
        with pytest.raises(PreconditionError, match=match):
            scenario_entanglement_blind(prelude, continuation, switch, grid)

    def test_last_step_clipped_to_zero_width_reads_zero(self):
        # the grid ends at the continuation's domain end, so the last interval
        # has zero width: its map is the identity, whose Choi minimum is 0.0
        rep = scenario_entanglement_blind(
            constant_rates(2.0, 2.0, 2.0),
            constant_rates(1.0, 1.0, -0.5, domain_end=2.0),
            1.0,
            np.linspace(0.1, 3.0, 9),
        )
        assert rep.choi_min_intermediate[-1] == 0.0
        assert rep.certified

    def test_probe_state_stays_ppt(self, canonical_report):
        # reproduce clause (b) directly from channel factors
        from backflow.channels import ExtendedChannel

        phi = max_entangled_state()
        comp_pre = constant_rates(2.0, 2.0, 2.0)
        lam = decay_factors(comp_pre, 0.0, 1.0)
        evolved = ExtendedChannel(lam, (2,)).apply(phi.matrix)
        state = DensityMatrix(matrix=evolved, dims=(2, 2), _skip_checks=True)
        assert negativity(state) <= NEGATIVITY_TOL
