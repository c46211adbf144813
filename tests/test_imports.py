"""Code hygiene: no private cross-module imports, dead imports, helpers, knobs or
parameters, and no scipy import on the way to `import backflow`."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from backflow import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "backflow"


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


def unreferenced_private_helpers(source: str) -> list[str]:
    """Module-level underscore names (defs, classes, constants) never read in the module."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


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
    assert unreferenced_private_helpers(
        "_TOL = 1e-9\n"
        "def _lift(x):\n    return x\n"
        "def _used(x):\n    return x < _TOL\n"
        "def public():\n    return _used(1)\n"
    ) == ["_lift"]


def test_every_import_is_used_or_exported():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_every_private_helper_is_referenced():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unreferenced_private_helpers(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


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
    """`func:param` for each parameter of a public function or method never read in its body.

    `self` and `cls` are skipped. Underscore-named functions are exempt: the
    CLI's `_RUNNERS` table calls every scenario runner with the same
    `(config, threads)` signature, though only `mutinfo-map` reads `threads`.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name[0] == "_":
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
    signature = "delta_ts: Sequence[float]\n) -> list[BackflowReport]:"
    assert source.count(signature) == 1
    put_back = source.replace(
        signature,
        "delta_ts: Sequence[float], threads: int | None = None\n) -> list[BackflowReport]:",
    )
    assert unread_parameters(put_back) == ["scan_backflow_grid:threads"]
    assert unread_parameters(
        "class A:\n    def f(self, x):\n        return 1\n"
        "def _runner(config, threads):\n    return config\n"
        "def g(a, *rest, b=0):\n    return [a for _ in rest]\n"
    ) == ["f:x", "g:b"]


def test_every_parameter_is_read():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unread_parameters(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def import_time_scipy(source: str) -> list[tuple[int, str]]:
    """(line, module) of each scipy import that runs when the module is imported.

    Imports inside function bodies run on first call and are not reported.
    """
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found.extend((node.lineno, a.name) for a in node.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] == "scipy":
                    found.append((node.lineno, node.module))
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


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


def scipy_modules_after(code: str) -> list[str]:
    """scipy modules a fresh interpreter has loaded after running code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    report = "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + report],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules_after("import backflow\nimport backflow.cli") == []


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
    assert scipy_modules_after(code) == []
    assert (tmp_path / "hessian.csv").stat().st_size > 0


def test_correlation_searches_load_no_scipy():
    code = (
        "import numpy as np\n"
        "from backflow import DensityMatrix, OptimizerBudget, correlation_C_general\n"
        "from backflow import correlation_CB2, random_density_matrix\n"
        "rho = random_density_matrix(np.random.default_rng(4), 6).matrix\n"
        "correlation_CB2(DensityMatrix(rho, (2, 3)))\n"
        "rho = random_density_matrix(np.random.default_rng(5), 4).matrix\n"
        "correlation_C_general(DensityMatrix(rho, (2, 2)), 4, OptimizerBudget(polish_maxfev=5))\n"
    )
    assert scipy_modules_after(code) == []


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
        f"assert cli.main(['run', {str(config)!r}, '--output', {str(tmp_path)!r}]) == 0\n"
    )
    assert scipy_modules_after(code) == []
    assert (tmp_path / "mutinfo.csv").stat().st_size > 0


def test_neighborhood_scan_loads_no_scipy():
    code = (
        "from backflow import eternal_rates, hessian_at_stationary, neighborhood_scan\n"
        "report = neighborhood_scan(eternal_rates(), 1.0, 0.05, radius=0.01, samples=256)\n"
        "assert report.n_valid == 256\n"
        "assert hessian_at_stationary(eternal_rates(), 1.0, 0.05).matched\n"
    )
    assert scipy_modules_after(code) == []
