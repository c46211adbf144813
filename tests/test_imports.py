"""Code hygiene: no private cross-module imports, dead imports, knobs or parameters,
no definition (private helpers included) that no run path reaches, no scipy import
on the way to `import backflow`, and a lazy package: `import backflow` loads no
submodule and each CLI scenario only the modules it runs."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import backflow
from backflow import cli

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "backflow"
PERFBENCH = SRC.parents[1] / "perfbench"


def private_relative_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every underscore-prefixed name in a relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    assert private_relative_imports("from .mutinfo import _ball_points, didt\n") == [
        (1, "_ball_points")
    ]
    assert private_relative_imports("from numpy import _pytesttester\n") == []


def test_no_module_imports_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in private_relative_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_guards_see_dead_code():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .linalg import as_matrix, tensor_product\n"
        "from .errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "np.eye(2)\n"
        "as_matrix(1)\n"
    ) == ["tensor_product"]


def test_every_import_is_used_or_exported():
    """Over the package and the test modules alike."""
    offenders = {
        f"{path.parent.name}/{path.name}": names
        for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def names_read(node: ast.AST) -> set[str]:
    """Every name node reads, as a bare name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def unreached_definitions(sources, root_text: str) -> list[str]:
    """Top-level definitions in sources that no run root reaches.

    A definition is a top-level def, class or assigned name, dunders aside.
    The roots are the names read by module-level statements other than defs
    and classes (so `cli._SCENARIOS` roots the scenario runners and
    `if __name__ == "__main__"` roots `main`), and every identifier in
    root_text, in code or in strings, that does not start with an
    underscore: a private name that only root_text mentions is no run path.
    A reached definition reaches every definition whose name it reads.
    """
    bodies: dict[str, list[ast.AST]] = {}
    roots = {n for n in re.findall(r"[A-Za-z_]\w*", root_text) if n[0] != "_"}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                roots |= names_read(node)
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    bodies.setdefault(name, []).append(node)
    reached: set[str] = set()
    todo = [name for name in roots if name in bodies]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for node in bodies[name] for n in names_read(node) if n in bodies]
    return sorted(set(bodies) - reached)


def package_sources() -> dict[str, str]:
    """Source of each package module; `__init__.py` only forwards names."""
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def benchmark_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))


def test_guard_sees_unreached_definition():
    sources = package_sources()
    sources["channels.py"] += (
        "\n\ndef compose(later, earlier):\n"
        "    return PauliChannelMap(*(later.factors * earlier.factors))\n"
    )
    assert unreached_definitions(sources.values(), benchmark_text()) == ["compose"]
    # a dead caller does not keep its callee alive; __main__ and strings are roots
    assert unreached_definitions([
        "_TOL = 1e-9\n"
        "def _below(x):\n    return x < _TOL\n"
        "def run(x):\n    return _below(x)\n"
        "def _shifted(x):\n    return x + 1\n"
        "def oracle(x):\n    return _shifted(x)\n"
        "def traced():\n    return 0\n"
        "def _hooked():\n    return 0\n"
        "RUNNERS = {'run': run}\n"
        "if __name__ == '__main__':\n    print(RUNNERS)\n"
    ], "hooks = ['module.traced', 'module._hooked']") == ["_hooked", "_shifted", "oracle"]


def test_every_definition_is_reached_from_a_run_root():
    assert len(package_sources()) >= 8
    assert unreached_definitions(package_sources().values(), benchmark_text()) == []


def unread_tolerances(source: str, keys) -> list[str]:
    """Tolerance keys that no `config.tolerances["key"]` subscript in source reads."""
    read = {
        node.slice.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "tolerances"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "config"
        and isinstance(node.slice, ast.Constant)
    }
    return sorted(set(keys) - read)


def test_guard_sees_unread_tolerance():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert unread_tolerances(source, [*cli._DEFAULT_TOLERANCES, "negativity"]) == ["negativity"]
    assert unread_tolerances(
        'config.tolerances["band"]\ntolerances["didt"]\n', ["band", "didt"]
    ) == ["didt"]


def test_every_tolerance_is_read():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert unread_tolerances(source, cli._DEFAULT_TOLERANCES) == []


def unread_parameters(source: str) -> list[str]:
    """`func:param` for each parameter of a function or method never read in its body.

    `self` and `cls` are skipped; underscore-named functions are checked too.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            f"{node.name}:{p.arg}"
            for p in params
            if p is not None and p.arg not in {"self", "cls"} and p.arg not in read
        ]
    return sorted(found)


def test_guard_sees_unread_parameter():
    source = (SRC / "probe.py").read_text(encoding="utf-8")
    signature = "    intervals: Iterable[tuple[float, float]],\n"
    assert source.count(signature) == 1
    put_back = source.replace(signature, signature + "    threads: int | None = None,\n")
    assert unread_parameters(put_back) == ["scan_backflow_grid:threads"]
    assert unread_parameters(
        "class A:\n    def f(self, x):\n        return 1\n"
        "def _runner(config, threads):\n    return config\n"
        "def g(a, *rest, b=0):\n    return [a for _ in rest]\n"
    ) == ["_runner:threads", "f:x", "g:b"]


def test_every_parameter_is_read():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unread_parameters(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def import_time_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import that runs when the module is imported.

    Relative imports keep their dots (`.probe`). Imports inside function
    bodies run on first call and are not reported.
    """
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found.extend((node.lineno, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.append((node.lineno, "." * node.level + (node.module or "")))
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def import_time_scipy(source: str) -> list[tuple[int, str]]:
    """(line, module) of each scipy import that runs when the module is imported."""
    return [(line, m) for line, m in import_time_imports(source) if m.split(".")[0] == "scipy"]


def test_guard_sees_module_level_scipy_import():
    source = (SRC / "mutinfo.py").read_text(encoding="utf-8")
    line = source.splitlines().index("import numpy as np") + 2
    put_back = source.replace(
        "import numpy as np\n", "import numpy as np\nfrom scipy.stats import norm, qmc\n", 1
    )
    assert import_time_scipy(put_back) == [(line, "scipy.stats")]
    assert import_time_scipy(
        "import scipy.linalg as sla\n"
        "try:\n    import scipy\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy.optimize import minimize\n    return minimize\n"
    ) == [(1, "scipy.linalg"), (3, "scipy")]


def test_no_module_imports_scipy_at_import_time():
    offenders = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := import_time_scipy(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def modules_after(code: str, *roots: str) -> list[str]:
    """Modules under the given top-level packages a fresh interpreter has loaded after code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    report = f"\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots})))"
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + report],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert modules_after("import backflow\nimport backflow.cli", "scipy") == []


def test_scipy_free_scenario_loads_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "scenario": "hessian-verify",
        "profile": {"preset": "eternal"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 2},
        "output": "hessian.csv",
        "seed": 0,
    }))
    code = (
        "from backflow import cli\n"
        f"assert cli.main(['run', {str(config)!r}, '--output', {str(tmp_path)!r}]) == 0\n"
    )
    assert modules_after(code, "scipy") == []
    assert (tmp_path / "hessian.csv").stat().st_size > 0


def test_correlation_searches_load_no_scipy():
    code = (
        "import numpy as np\n"
        "from backflow import DensityMatrix, correlation_C_general\n"
        "from backflow import correlation_CB2, random_density_matrix\n"
        "rho = random_density_matrix(np.random.default_rng(4), 6).matrix\n"
        "correlation_CB2(DensityMatrix(rho, (2, 3)))\n"
        "rho = random_density_matrix(np.random.default_rng(5), 4).matrix\n"
        "correlation_C_general(DensityMatrix(rho, (2, 2)), 4)\n"
    )
    assert modules_after(code, "scipy") == []


def test_mutinfo_scenario_loads_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "scenario": "mutinfo-map",
        "profile": {"preset": "eternal"},
        "grid": {"t_start": 0.5, "t_end": 1.5, "steps": 2},
        "budget": {"seeds": 64},
        "epsilon": 0.016,
        "output": "mutinfo.csv",
        "seed": 0,
    }))
    code = (
        "from backflow import cli\n"
        f"args = ['run', {str(config)!r}, '--output', {str(tmp_path)!r}, '--threads', '2']\n"
        "assert cli.main(args) == 0\n"
    )
    # the ignored --threads flag starts no pool
    assert modules_after(code, "scipy", "concurrent") == []
    assert (tmp_path / "mutinfo.csv").stat().st_size > 0


def test_neighborhood_scan_loads_no_scipy():
    code = (
        "from backflow import eternal_rates, hessian_at_stationary, neighborhood_scan\n"
        "report = neighborhood_scan(eternal_rates(), 1.0, 0.05, radius=0.01, samples=256)\n"
        "assert report.n_valid == 256\n"
        "assert hessian_at_stationary(eternal_rates(), 1.0, 0.05).matched\n"
    )
    assert modules_after(code, "scipy") == []


# the 72 names the package exported when every submodule was imported eagerly,
# less the 17 that no run path reaches; those live in tests/oracles.py
PUBLIC_NAMES = frozenset("""
    BackflowReport DensityMatrix DivisibilityVerdict
    EntanglementBlindReport ExtendedChannel HessianReport NeighborhoodScanReport
    PauliChannelMap Povm ProbePair ProbeState RateProfile
    apply_local_channel build_probe_state choi_eigenvalues choi_matrix
    choi_min_eigenvalue classify_interval closed_form_hessian_eigenvalues constant_rates
    construct_me_povm correlation_C2 correlation_CA2 correlation_CB2
    correlation_C_general decay_factors detect_backflow eternal_rates evolve_probe
    hessian_at_stationary intermediate_map
    invert_channel is_cp is_cp_divisible_at is_entanglement_breaking is_me_povm
    is_p_divisible_at load_rate_table_csv max_entangled_state maximally_mixed negativity
    neighborhood_scan partial_transpose pull_back_pair pure_state random_density_matrix
    random_local_cptp scan_backflow_grid scenario_entanglement_blind
    spectral_derivatives table_rates tensor_product trace_norm
    trace_norm_expansion_direction tune_rates_shrink_image
""".split())
SUBMODULES = ("channels", "cli", "ensembles", "entwit", "errors", "linalg", "mutinfo", "probe")


def test_exports_are_the_home_modules_objects():
    assert len(PUBLIC_NAMES) == 55
    assert backflow.__all__ == sorted(PUBLIC_NAMES)
    for name in backflow.__all__:
        obj = getattr(backflow, name)
        assert obj.__module__.startswith("backflow.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_dir_and_star_import_list_every_export():
    listed = dir(backflow)
    assert set(backflow.__all__) | set(SUBMODULES) | {"__version__"} <= set(listed)
    assert listed == sorted(listed)
    namespace: dict = {}
    exec("from backflow import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == PUBLIC_NAMES
    assert all(namespace[n] is getattr(backflow, n) for n in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    try:
        backflow.detect_backflows
    except AttributeError as exc:
        assert "detect_backflows" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def test_access_follows_the_home_binding(monkeypatch):
    # a patch of the home module (as a tracer makes) shows through the
    # package, and the package keeps no copy that could outlive it
    probe = importlib.import_module("backflow.probe")
    original = probe.detect_backflow
    monkeypatch.setattr(probe, "detect_backflow", len)
    assert backflow.detect_backflow is len
    monkeypatch.undo()
    assert backflow.detect_backflow is original
    assert "detect_backflow" not in vars(backflow)


def test_import_loads_no_submodule_and_no_numpy():
    assert modules_after("import backflow", "backflow", "numpy") == ["backflow"]
    # a submodule is reachable as an attribute without importing it first
    code = (
        "import backflow, types\n"
        f"assert all(isinstance(getattr(backflow, m), types.ModuleType) for m in {SUBMODULES})\n"
        "assert backflow.probe.detect_backflow is backflow.detect_backflow\n"
    )
    assert modules_after(code, "backflow") == sorted(
        ["backflow", *(f"backflow.{m}" for m in SUBMODULES)])


# modules each CLI scenario must not load: it runs none of their code
SCENARIO_UNUSED = {
    "divisibility-scan": {"probe", "mutinfo", "entwit"},
    "me-povm-demo": {"probe", "mutinfo", "entwit"},
    "hessian-verify": {"probe", "entwit"},
    "mutinfo-map": {"probe", "entwit"},
    "backflow": {"mutinfo", "entwit"},
    "entanglement-blind": {"mutinfo"},
}
CLI_IMPORT_TIME = {".channels", ".ensembles", ".errors", ".linalg"}  # what load_config needs


def cli_import_time_modules(source: str) -> list[str]:
    """Package modules cli.py imports at import time beyond the config-time ones."""
    relative = [m for _, m in import_time_imports(source) if m.startswith(".")]
    return sorted(set(relative) - CLI_IMPORT_TIME)


def test_guard_sees_scenario_import_put_back_in_cli():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    anchor = "from .linalg import random_density_matrix\n"
    assert source.count(anchor) == 1
    put_back = source.replace(anchor, anchor + "from .probe import detect_backflow\n")
    assert cli_import_time_modules(put_back) == [".probe"]
    assert cli_import_time_modules(
        "from .channels import RateProfile\n"
        "def _run(config):\n    from .mutinfo import didt\n    return didt\n"
    ) == []


def test_cli_imports_only_config_modules_at_import_time():
    assert cli_import_time_modules((SRC / "cli.py").read_text(encoding="utf-8")) == []
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert [m for _, m in import_time_imports(init) if m.startswith(".")] == []


def test_each_scenario_loads_only_its_modules(tmp_path):
    for scenario, unused in SCENARIO_UNUSED.items():
        # entanglement-blind certifies on a grid that starts before its switch time
        t_start, t_end = (0.1, 2.5) if scenario == "entanglement-blind" else (0.5, 1.5)
        config = tmp_path / f"{scenario}.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "scenario": scenario,
            "profile": {"preset": "eternal"},
            "grid": {"t_start": t_start, "t_end": t_end, "steps": 3},
            "budget": {"seeds": 16},
            "epsilon": 0.016,
            "output": f"{scenario}.csv",
        }))
        code = (
            "from backflow import cli\n"
            f"assert cli.main(['run', {str(config)!r}, '--output', {str(tmp_path)!r}]) == 0\n"
        )
        loaded = {m.split(".", 1)[1] for m in modules_after(code, "backflow") if "." in m}
        assert loaded & unused == set(), scenario
        assert (tmp_path / f"{scenario}.csv").stat().st_size > 0
