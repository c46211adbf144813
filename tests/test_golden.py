"""Golden CSV hashes: the six scenarios at seed 0 must reproduce these bytes.

Refactors of the library and the CLI are meant to keep every scenario CSV
byte for byte; a change that alters them on purpose updates the hashes here
and in perfbench/reference.json together and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from backflow.cli import EXIT_OK, main

ETERNAL = {"preset": "eternal"}

CONFIGS = {
    "divisibility-scan": {
        "profile": ETERNAL,
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 41},
        "output": "divisibility.csv",
    },
    "backflow": {
        "profile": ETERNAL,
        "grid": {"t_start": 0.0, "t_end": 2.0, "steps": 4},
        "epsilon": 0.05,
        "output": "backflow.csv",
    },
    "hessian-verify": {
        "profile": ETERNAL,
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 2},
        "output": "hessian.csv",
    },
    "mutinfo-map": {
        "profile": {
            "preset": "shrink-burst",
            "epsilon": 0.018315638888734179,
            "t_activate": 0.5,
            "base": ETERNAL,
        },
        "grid": {"t_start": 0.6, "t_end": 2.0, "steps": 3},
        "budget": {"seeds": 4096},
        "epsilon": 0.015,
        "output": "mutinfo.csv",
    },
    "entanglement-blind": {
        "profile": ETERNAL,
        "prelude": {"preset": "constant", "rates": [2.0, 2.0, 2.0]},
        "switch_time": 1.0,
        "grid": {"t_start": 0.1, "t_end": 2.5, "steps": 9},
        "output": "entanglement-blind.csv",
    },
    "me-povm-demo": {
        "profile": ETERNAL,
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 2},
        "output": "me-povm.csv",
    },
}

SHA256 = {
    "divisibility-scan": "81d2fb4469944276fcba2cdb4a27bb564c536d1f174d2baa103b605adc0674d6",
    "backflow": "7af796e8e788ffa7eb81ee740389700f2415490be2af1586e27c6e8b6c276bae",
    "hessian-verify": "ddaa698205711de368cbf4e25000315adc63a5eb279b7d844a96873ec1a8605a",
    "mutinfo-map": "db902405dd6c3118148f48ef823903fb15d7eda6f79b70dbae1e6b6391f5c407",
    "entanglement-blind": "a2d446b27212810fe7317f19d8632a5be950a64b027d25c4b35d0b5ca2297bcd",
    "me-povm-demo": "df23ed3309a00326e898fd438636121823c253b9d58a4e3962db9b72cf7740f4",
}


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_scenario_csv_hash(tmp_path, scenario):
    cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, **CONFIGS[scenario]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--output", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / cfg["output"]).read_bytes()).hexdigest()
    assert digest == SHA256[scenario]
