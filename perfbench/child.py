"""Child processes started by run.py; each writes its findings to a JSON file.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR OUT_JSON
        In a fresh interpreter, time `import backflow` and building the
        workload's inputs for SEED; write {"import_s", "build_s"}.

    python3 perfbench/child.py cli OUT_JSON ARG...
        Run `backflow.cli.main([ARG...])` with the tracer installed, write
        the tracer's aggregates and spans, and exit with the CLI's code.

Both expect the repository's src/ directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def setup(workload: str, seed: int, workdir: Path, out: Path) -> int:
    start = perf_counter()
    import backflow  # noqa: F401

    imported = perf_counter()
    import workloads

    workloads.build(workload, seed, workdir, None)
    built = perf_counter()
    out.write_text(json.dumps({"import_s": imported - start, "build_s": built - imported}))
    return 0


def cli(out: Path, argv: list[str]) -> int:
    import backflow.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = backflow.cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        workload, seed, workdir, out = sys.argv[2:6]
        sys.exit(setup(workload, int(seed), Path(workdir), Path(out)))
    if mode == "cli":
        sys.exit(cli(Path(sys.argv[2]), sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
