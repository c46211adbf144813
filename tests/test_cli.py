"""Config validation, CSV schemas, exit codes and byte-level determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

import backflow.mutinfo as mi
from backflow.cli import (
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    HESSIAN_A12_VALUES,
    ME_POVM_OUTPUTS,
    SCENARIOS,
    load_config,
    main,
)
from backflow.ensembles import construct_me_povm, is_me_povm
from backflow.errors import ConfigError
from backflow.linalg import random_density_matrix
from backflow.probe import scan_backflow_grid

HEADERS = {
    "divisibility-scan": "t,s,gamma_x,gamma_y,gamma_z,d_x,d_y,d_z,choi_min_eig,cp,p",
    "backflow": "tau,delta_t,c2_before,c2_after,choi_min_eig,backflow,consistent",
    "hessian-verify": "a12,idx,eig_numeric,eig_closed_form,abs_err",
    "mutinfo-map": "sample_id,didt,violation",
    "entanglement-blind": "t,negativity,choi_min_eig_intermediate,c2",
    "me-povm-demo": "outcome,probability,deviation_from_uniform",
}


def base_config(scenario: str) -> dict:
    cfg = {
        "schema_version": 1,
        "scenario": scenario,
        "profile": {"preset": "eternal"},
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 5},
        "output": "out.csv",
        "seed": 7,
    }
    if scenario == "hessian-verify":
        cfg["grid"] = {"t_start": 0.0, "t_end": 1.0, "steps": 2}
    if scenario == "mutinfo-map":
        cfg["profile"] = {
            "preset": "shrink-burst",
            "epsilon": 0.018315638888734179,
            "t_activate": 0.2,
            "base": {"preset": "eternal"},
        }
        cfg["grid"] = {"t_start": 0.5, "t_end": 1.5, "steps": 3}
        cfg["budget"] = {"seeds": 64}
        cfg["epsilon"] = 0.016
    if scenario == "entanglement-blind":
        cfg["grid"] = {"t_start": 0.1, "t_end": 2.5, "steps": 9}
        cfg["switch_time"] = 1.0
    return cfg


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, cfg, *extra) -> int:
    return main(["run", write_config(tmp_path, cfg), "--output", str(tmp_path), *extra])


class TestConfigValidation:
    def test_minimal_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config("backflow")))
        assert cfg.scenario == "backflow"
        assert cfg.steps == 5
        assert cfg.epsilon == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.__setitem__("schema_version", 2),
            lambda c: c.__setitem__("scenario", "unknown"),
            lambda c: c.__setitem__("bogus_key", 1),
            lambda c: c["grid"].__setitem__("steps", 1),
            lambda c: c["grid"].__setitem__("t_end", -1.0),
            lambda c: c["grid"].__setitem__("t_start", 2.0),
            lambda c: c.__setitem__("profile", {"preset": "nope"}),
            lambda c: c.__setitem__("profile", {"preset": "constant", "rates": [1.0]}),
            lambda c: c.__setitem__("profile", "eternal"),
            lambda c: c.__setitem__("tolerances", {"didt": 0.0}),
            lambda c: c.__setitem__("tolerances", {"mystery": 1.0}),
            lambda c: c.__setitem__("epsilon", 0.0),
            lambda c: c.__setitem__("epsilon", 1.5),
            lambda c: c.__setitem__("seed", -3),
            lambda c: c.__setitem__("budget", {"seeds": 0}),
            lambda c: c.__setitem__("budget", {"surprise": 2}),
            lambda c: c.__setitem__("output", ""),
            lambda c: c.__setitem__("switch_time", -1.0),
            lambda c: c.__setitem__("budget", {"restarts": 1}),
            lambda c: c.__setitem__("tolerances", {"negativity": 1e-10}),
            lambda c: c.__setitem__("budget", {"max_iterations": 5}),
            lambda c: c.__setitem__("tolerances", {"band": 1e-8}),
            lambda c: c.__setitem__("budget", {"polish_maxfev": 1}),
        ],
    )
    def test_rejects_bad_fields(self, tmp_path, mutate):
        cfg = base_config("backflow")
        mutate(cfg)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_rejects_grid_beyond_domain(self, tmp_path):
        cfg = base_config("divisibility-scan")
        cfg["profile"] = {"preset": "constant", "rates": [1.0, 1.0, 1.0], "domain_end": 1.0}
        with pytest.raises(ConfigError, match="domain"):
            load_config(write_config(tmp_path, cfg))

    def test_entanglement_blind_domain_is_shifted(self, tmp_path):
        # continuation clock starts at the switch, so t_end may exceed domain_end
        cfg = base_config("entanglement-blind")
        cfg["profile"] = {"preset": "constant", "rates": [1.0, 1.0, -0.5], "domain_end": 2.0}
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.t_end == pytest.approx(2.5)

    def test_missing_file_exits_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exits_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_steps_one_exits_config(self, tmp_path):
        cfg = base_config("backflow")
        cfg["grid"]["steps"] = 1
        assert run_cli(tmp_path, cfg) == EXIT_CONFIG

    def test_rate_table_profile(self, tmp_path):
        table = tmp_path / "rates.csv"
        table.write_text("t,gamma_x,gamma_y,gamma_z\n0.0,1.0,1.0,1.0\n2.0,1.0,1.0,1.0\n")
        cfg = base_config("divisibility-scan")
        cfg["profile"] = {"csv": str(table)}
        loaded = load_config(write_config(tmp_path, cfg))
        assert np.allclose(loaded.profile.rates(1.0), [1.0, 1.0, 1.0])


def _rate_table(tmp_path, body: str) -> dict:
    table = tmp_path / "rates.csv"
    table.write_text("t,gamma_x,gamma_y,gamma_z\n" + body)
    return {"csv": str(table)}


class TestNonFiniteAndNonIntegralInput:
    """Input that is not finite or not integral is a config error: exit 1, no CSV."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c, d: c.__setitem__(
                "profile", {"preset": "constant", "rates": [1.0, 1.0, float("nan")]}
            ),
            lambda c, d: c.__setitem__(
                "profile",
                {
                    "preset": "shrink-burst",
                    "epsilon": 0.1,
                    "t_activate": float("nan"),
                    "base": {"preset": "eternal"},
                },
            ),
            lambda c, d: c.__setitem__(
                "profile", _rate_table(d, "0.0,1.0,1.0,nan\n2.0,1.0,1.0,1.0\n")
            ),
            lambda c, d: c.__setitem__(
                "profile", _rate_table(d, "0.0,1.0,1.0,1.0\nnan,1.0,1.0,1.0\n2.0,1.0,1.0,1.0\n")
            ),
            lambda c, d: c.__setitem__(
                "profile", _rate_table(d, "0.0,1.0,1.0,1.0\n2.0,1.0,1.0,1.0\n1.0,1.0,1.0,1.0\n")
            ),
            lambda c, d: c.__setitem__("seed", 1.5),
            lambda c, d: c["grid"].__setitem__("steps", 2.7),
            lambda c, d: c.__setitem__("seed", True),
            lambda c, d: c.__setitem__("budget", {"seeds": 4.5}),
            lambda c, d: c.__setitem__("switch_time", float("nan")),
            lambda c, d: c.__setitem__(
                "profile", {"preset": "eternal", "domain_end": float("nan")}
            ),
            lambda c, d: c["grid"].__setitem__("t_end", float("inf")),
            lambda c, d: c.__setitem__("epsilon", "abc"),
            lambda c, d: c.__setitem__("epsilon", None),
            lambda c, d: c.__setitem__("switch_time", "abc"),
            lambda c, d: c.__setitem__("switch_time", None),
            lambda c, d: c.__setitem__("tolerances", {"didt": "abc"}),
            lambda c, d: c.__setitem__("tolerances", {"didt": None}),
            lambda c, d: c.__setitem__("tolerances", {"didt": [1e-8]}),
            lambda c, d: c.__setitem__("tolerances", [1e-8]),
            lambda c, d: c.__setitem__("switch_time", True),
            lambda c, d: c.__setitem__("tolerances", {"didt": True}),
            lambda c, d: c["grid"].__setitem__("t_start", False),
            lambda c, d: c.__setitem__("profile", {"preset": "constant", "rates": [True, 1, 1]}),
            lambda c, d: c.__setitem__(
                "profile",
                {
                    "preset": "shrink-burst",
                    "epsilon": 0.1,
                    "t_activate": True,
                    "base": {"preset": "eternal"},
                },
            ),
            lambda c, d: c.__setitem__("tolerances", []),
            lambda c, d: c.__setitem__("tolerances", False),
            lambda c, d: c.__setitem__("tolerances", 0),
            lambda c, d: c.__setitem__("tolerances", ""),
            lambda c, d: c.__setitem__("tolerances", None),
            lambda c, d: c.__setitem__("budget", []),
            lambda c, d: c.__setitem__("budget", False),
            lambda c, d: c.__setitem__("budget", 0),
            lambda c, d: c.__setitem__("budget", ""),
            lambda c, d: c.__setitem__("budget", None),
            lambda c, d: c.__setitem__(
                "profile", {"preset": "constant", "rates": [1e308, 1e308, 1.0]}
            ),
            lambda c, d: c.__setitem__(
                "profile", _rate_table(d, "0.0,1e308,1e308,1.0\n2.0,1e308,1e308,1.0\n")
            ),
            lambda c, d: c.__setitem__(
                "profile", _rate_table(d, "0.0,1e308,1.0,1.0\n2.0,1e308,1.0,1.0\n")
            ),
        ],
        ids=[
            "constant-nan-rate",
            "burst-nan-activate",
            "table-nan-rate",
            "table-nan-time",
            "table-times-not-increasing",
            "fractional-seed",
            "fractional-steps",
            "boolean-seed",
            "fractional-budget",
            "nan-switch-time",
            "nan-domain-end",
            "infinite-grid-end",
            "string-epsilon",
            "null-epsilon",
            "string-switch-time",
            "null-switch-time",
            "string-tolerance",
            "null-tolerance",
            "list-tolerance",
            "tolerances-not-object",
            "boolean-switch-time",
            "boolean-tolerance",
            "boolean-grid-start",
            "boolean-rate",
            "boolean-burst-activate",
            "tolerances-empty-list",
            "tolerances-false",
            "tolerances-zero",
            "tolerances-empty-string",
            "tolerances-null",
            "budget-empty-list",
            "budget-false",
            "budget-zero",
            "budget-empty-string",
            "budget-null",
            "constant-pair-sum-overflow",
            "table-pair-sum-overflow",
            "table-integral-overflow",
        ],
    )
    def test_exits_config_without_csv(self, tmp_path, capsys, mutate):
        cfg = base_config("divisibility-scan")
        mutate(cfg, tmp_path)
        assert run_cli(tmp_path, cfg) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_integral_floats_are_accepted(self, tmp_path):
        cfg = base_config("divisibility-scan")
        cfg["seed"] = 3.0
        cfg["grid"]["steps"] = 4.0
        loaded = load_config(write_config(tmp_path, cfg))
        assert (loaded.seed, loaded.steps) == (3, 4)


class TestScenarioRuns:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_header_is_frozen(self, tmp_path, scenario):
        assert run_cli(tmp_path, base_config(scenario)) == EXIT_OK
        first = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert first == HEADERS[scenario]

    def test_divisibility_constant_all_true(self, tmp_path):
        cfg = base_config("divisibility-scan")
        cfg["profile"] = {"preset": "constant", "rates": [1.0, 1.0, 1.0]}
        assert run_cli(tmp_path, cfg) == EXIT_OK
        lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            assert line.endswith("true,true")

    def test_divisibility_eternal_p_but_not_cp(self, tmp_path):
        cfg = base_config("divisibility-scan")
        cfg["grid"] = {"t_start": 0.5, "t_end": 2.0, "steps": 4}
        assert run_cli(tmp_path, cfg) == EXIT_OK
        lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
        for line in lines:
            assert line.endswith("false,true")

    def test_backflow_eternal_every_row_consistent(self, tmp_path):
        cfg = base_config("backflow")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(r.split(",")[-1] == "true" for r in rows)

    @pytest.mark.parametrize("epsilon", [1e-7, 1e-12])
    def test_backflow_verdicts_do_not_depend_on_epsilon_scale(self, tmp_path, epsilon):
        def columns(cfg):
            assert run_cli(tmp_path, cfg) == EXIT_OK
            rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
            return [r.split(",")[-2:] for r in rows]

        cfg = base_config("backflow")
        want = columns(cfg)
        cfg["epsilon"] = epsilon
        assert columns(cfg) == want

    def test_hessian_rows_and_errors(self, tmp_path):
        cfg = base_config("hessian-verify")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        # five coupling values, fifteen eigenvalues each
        assert len(rows) == 75
        errs = [float(r.split(",")[-1]) for r in rows]
        assert max(errs) < 1e-3

    def test_mutinfo_scan_no_violations(self, tmp_path):
        cfg = base_config("mutinfo-map")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 64
        assert all(r.split(",")[-1] == "false" for r in rows)

    def test_me_povm_uniform(self, tmp_path):
        cfg = base_config("me-povm-demo")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "3"]
        for r in rows:
            assert float(r.split(",")[1]) == pytest.approx(0.25, abs=1e-12)

    def test_me_povm_rows_are_the_certificate(self, tmp_path):
        cfg = base_config("me-povm-demo")
        for seed in range(20):
            cfg["seed"] = seed
            assert run_cli(tmp_path, cfg) == EXIT_OK
            rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
            state = random_density_matrix(np.random.default_rng(seed), 4)
            cert = is_me_povm(construct_me_povm(state, ME_POVM_OUTPUTS), state)
            assert tuple(float(r.split(",")[1]) for r in rows) == cert.probabilities

    @pytest.mark.parametrize("tol", [None, 1e-30])
    def test_hessian_exit_is_the_report_verdict(self, tmp_path, tol):
        cfg = base_config("hessian-verify")
        if tol is not None:
            cfg["tolerances"] = {"eig_rel": tol, "eig_abs": tol}
        config = load_config(write_config(tmp_path, cfg))
        matched = all(
            mi.hessian_at_stationary(
                config.profile,
                config.t_end,
                a12,
                rel_tol=config.tolerances["eig_rel"],
                abs_tol=config.tolerances["eig_abs"],
            ).matched
            for a12 in HESSIAN_A12_VALUES
        )
        assert matched == (tol is None)
        assert run_cli(tmp_path, cfg) == (EXIT_OK if matched else EXIT_INCONSISTENT)

    def test_backflow_rows_are_the_scan_reports(self, tmp_path):
        cfg = base_config("backflow")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = [r.split(",") for r in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        config = load_config(write_config(tmp_path, cfg))
        grid = np.linspace(config.t_start, config.t_end, config.steps)
        reports = scan_backflow_grid(
            config.profile,
            zip(grid[:-1], np.diff(grid)),
            epsilon=config.epsilon,
        )
        assert len(rows) == len(reports)
        for row, r in zip(rows, reports):
            assert [float(v) for v in row[:5]] == [
                r.tau, r.delta_t, r.c2_before, r.c2_after, r.choi_min_eig
            ]
            assert row[5:] == [str(r.backflow_detected).lower(), str(r.consistent).lower()]

    def test_entanglement_blind_blind_rows(self, tmp_path):
        cfg = base_config("entanglement-blind")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 9
        first = rows[0].split(",")
        assert float(first[1]) > 0.2
        for r in rows[2:]:
            assert float(r.split(",")[1]) <= 1e-10

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = base_config("backflow")
        assert run_cli(tmp_path, cfg) == EXIT_OK
        text = (tmp_path / "out.csv").read_text()
        # linspace step of 0.5 stays exact; tau = 1.5 prints bare
        assert "\n1.5," in text
        cfg2 = base_config("divisibility-scan")
        cfg2["grid"] = {"t_start": 0.0, "t_end": 2.0, "steps": 6}
        assert run_cli(tmp_path, cfg2) == EXIT_OK
        text2 = (tmp_path / "out.csv").read_text()
        assert "0.40000000000000002" in text2


class TestExitCodes:
    def test_numerical_failure_is_exit_two(self, tmp_path, capsys):
        cfg = base_config("backflow")
        cfg["grid"] = {"t_start": 15.0, "t_end": 16.0, "steps": 2}
        assert run_cli(tmp_path, cfg) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        # exp(2000) overflows a float: a decay factor beyond range, not a traceback
        for scenario in ("divisibility-scan", "backflow"):
            cfg = base_config(scenario)
            cfg["profile"] = {"preset": "constant", "rates": [-1000, -1000, -1000]}
            cfg["grid"] = {"t_start": 0.0, "t_end": 2.0, "steps": 2}
            assert run_cli(tmp_path, cfg) == EXIT_NUMERICAL
            assert "numerical failure" in capsys.readouterr().err

    def test_eigensolver_failure_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run_cli(tmp_path, base_config("me-povm-demo")) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_consistency_violation_is_exit_three(self, tmp_path, capsys):
        cfg = base_config("me-povm-demo")
        cfg["tolerances"] = {"uniformity": 1e-30}
        assert run_cli(tmp_path, cfg) == EXIT_INCONSISTENT
        assert "not uniform" in capsys.readouterr().err
        # the CSV is still written for inspection
        assert (tmp_path / "out.csv").exists()

    def test_scenario_precondition_is_exit_config(self, tmp_path, capsys):
        cfg = base_config("entanglement-blind")
        cfg["profile"] = {"preset": "constant", "rates": [1.0, 1.0, 1.0]}
        assert run_cli(tmp_path, cfg) == EXIT_CONFIG
        assert "negative rate" in capsys.readouterr().err

    def test_prelude_short_of_the_switch_is_exit_config(self, tmp_path, capsys):
        cfg = base_config("entanglement-blind")
        cfg["prelude"] = {"preset": "constant", "rates": [2.0, 2.0, 2.0], "domain_end": 0.5}
        assert run_cli(tmp_path, cfg) == EXIT_CONFIG
        assert "prelude domain must cover the switch time" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_near_cp_edge_backflow_row_is_detected(self, tmp_path):
        # tau = 1e-6, dt = 1e-3: a Choi negativity of about 5e-10, read at the
        # probe's resolution with no band around the CP edge
        cfg = base_config("backflow")
        cfg["grid"] = {"t_start": 1e-6, "t_end": 1.001e-3, "steps": 2}
        assert run_cli(tmp_path, cfg) == EXIT_OK
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].endswith(",true,true")

    def test_argparse_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ["backflow", "mutinfo-map", "me-povm-demo"])
    def test_double_run_byte_identical(self, tmp_path, scenario):
        cfg = base_config(scenario)
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--output", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", path, "--output", str(tmp_path / "b")]) == EXIT_OK
        one = (tmp_path / "a" / "out.csv").read_bytes()
        two = (tmp_path / "b" / "out.csv").read_bytes()
        assert one == two

    def test_threads_do_not_change_bytes(self, tmp_path):
        # --threads is accepted and ignored: every scenario runs serially
        for scenario in ("backflow", "mutinfo-map"):
            path = write_config(tmp_path, base_config(scenario))
            seq, par = tmp_path / scenario / "seq", tmp_path / scenario / "par"
            assert main(["run", path, "--output", str(seq)]) == EXIT_OK
            assert main(["run", path, "--output", str(par), "--threads", "4"]) == EXIT_OK
            assert (seq / "out.csv").read_bytes() == (par / "out.csv").read_bytes()

    def test_output_dir_created(self, tmp_path):
        cfg = base_config("me-povm-demo")
        path = write_config(tmp_path, cfg)
        target = tmp_path / "nested" / "dir"
        assert main(["run", path, "--output", str(target)]) == EXIT_OK
        assert (target / "out.csv").exists()


def test_mutinfo_scan_with_no_interior_sample_is_exit_config(tmp_path, capsys):
    cfg = base_config("mutinfo-map")
    cfg["epsilon"] = 0.5  # every sample of this ball leaves the state set
    assert run_cli(tmp_path, cfg) == EXIT_CONFIG
    assert "no sampled state lies inside the state set" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
    # at 0.2 about half of each time's samples leave it: their NaN rows stay
    cfg["epsilon"] = 0.2
    assert run_cli(tmp_path, cfg) == EXIT_OK
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 64
    assert 0 < sum(r.split(",")[1] == "nan" for r in rows) < 3 * 64
