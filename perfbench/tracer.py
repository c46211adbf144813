"""Outside-in tracer for the backflow package.

Every backflow module imports its collaborators by name
(`from .linalg import trace_norm`), which copies the function object into
the importing module. Patching `backflow.linalg.trace_norm` alone would
therefore miss the calls made from `probe` or `ensembles`, so `install`
wraps each public function in every `backflow.*` namespace that binds it.
It also wraps `ExtendedChannel.apply`, `numpy.linalg.eigh` / `eigvalsh`
and the `minimize` / `minimize_scalar` names inside `backflow.ensembles`.
Nothing in the package itself changes; `uninstall` restores every binding.

Each wrapped call pushes a frame on a per-thread stack. A frame's self time
is its duration minus the time covered by the frames called from it. Spans
(id, name, start, end, parent id) are kept in memory for the non-hot
functions and written out by the caller; hot leaf kernels (trace norm,
eigensolvers, Pauli-map application, Kronecker products, argument
coercion) only add to aggregate counts and busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "channels", "ensembles", "probe", "mutinfo", "entwit", "cli")

# public functions timed as aggregates only: they run thousands of times per item
_LEAF_FUNCTIONS = {
    "linalg.trace_norm",
    "linalg.as_matrix",
    "linalg.tensor_product",
    "channels.apply_channel",
}
# several entry points that do one job report under one name
_ALIASES = {
    "channels.apply_channel": "channels.pauli_apply",
    "probe.trace_norm_expansion_direction": "probe.expansion",
}


class Tracer:
    """Collects per-function calls, busy time and self time while enabled."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list[float]] = {}   # name -> [calls, busy_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []              # (id, name, start, end, parent id)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._eigvalsh = None

    # ------------------------------------------------------------------ state

    def reset(self) -> None:
        with self._lock:
            self.stats = {}
            self.counters = Counter()
            self.spans = []

    def snapshot(self) -> dict:
        """Aggregates of everything recorded since the last reset."""
        with self._lock:
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
            }

    def merge(self, snapshot: dict) -> None:
        """Add the aggregates another process recorded (see dump)."""
        with self._lock:
            for name, (calls, busy, self_time) in snapshot["stats"].items():
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += self_time
            self.counters.update(snapshot["counters"])

    def dump(self, path) -> None:
        """Write the aggregates and every span recorded since the last reset."""
        names: dict[str, int] = {}
        rows = [
            [span_id, names.setdefault(name, len(names)), start, end, parent]
            for span_id, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="ascii") as handle:
            json.dump({**self.snapshot(), "span_names": list(names),
                       "spans": rows}, handle, separators=(",", ":"))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, busy: float, self_time: float) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += busy
            entry[2] += self_time

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ---------------------------------------------------------------- wrappers

    def _wrap(self, fn, name: str, record_span: bool, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1][2] if stack else None
            frame = [perf_counter(), 0.0, next(tracer._ids) if record_span else parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer._add(name, duration, duration - frame[1])
                if record_span:
                    tracer.spans.append((frame[2], name, frame[0], end, parent))
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def _counting(self, fn, after):
        """Wrapper that records a value from the result but opens no frame."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                after(args, kwargs, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------------ hooks

    def _eig_matrices(self, args, kwargs):
        shape = getattr(args[0], "shape", ())
        self.count("linalg.eig.matrices", math.prod(shape[:-2]) if len(shape) > 2 else 1)

    def _didt_states(self, args, kwargs):
        shape = getattr(args[0], "shape", ())
        self.count("mutinfo.didt_batch.states", shape[0] if len(shape) == 3 else 1)

    def _expansion_attempt(self, args, kwargs):
        dim = kwargs.get("ancilla_dim", args[1] if len(args) > 1 else 2)
        self.count(f"probe.expansion.anc{dim}.attempts")

    def _expansion_result(self, args, kwargs, result, exc):
        if exc is not None and type(exc).__name__ == "ExpansionNotFoundError":
            dim = kwargs.get("ancilla_dim", args[1] if len(args) > 1 else 2)
            self.count(f"probe.expansion.anc{dim}.failures")

    def _discrimination_result(self, args, kwargs, result, exc):
        if result is not None:
            self.count("ensembles.guessing_probability_bruteforce.iterations", result.iterations)
            self.count("ensembles.guessing_probability_bruteforce.unconverged",
                       0 if result.converged else 1)

    def _objective_evals(self, args, kwargs, result, exc):
        self.count("ensembles.objective_evals", int(getattr(result, "nfev", 0)))

    def _shrink_steps(self, args, kwargs, result, exc):
        if result is None:
            return
        epsilon = kwargs.get("epsilon", args[3] if len(args) > 3 else 0.05)
        diff = result.rho1_0.matrix - result.rho2_0.matrix
        distance = 0.5 * float(abs(self._eigvalsh(diff)).sum())
        if distance > 0.0:
            self.count("probe.pull_back_pair.shrink_steps", round(math.log2(epsilon / distance)))

    # ---------------------------------------------------------------- install

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the package's public functions in every namespace that binds them."""
        import numpy as np

        package = importlib.import_module("backflow")
        modules = {name: importlib.import_module(f"backflow.{name}") for name in LAYERS}
        self._eigvalsh = np.linalg.eigvalsh

        hooks = {
            "probe.trace_norm_expansion_direction": (self._expansion_attempt, self._expansion_result),
            "probe.pull_back_pair": (None, self._shrink_steps),
            "ensembles.guessing_probability_bruteforce": (None, self._discrimination_result),
            "mutinfo.didt_batch": (self._didt_states, None),
        }
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{attr}"
                before, after = hooks.get(key, (None, None))
                wrapped[id(obj)] = self._wrap(
                    obj, _ALIASES.get(key, key), key not in _LEAF_FUNCTIONS, before, after
                )
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped:
                    self._patch(namespace, attr, wrapped[id(obj)])

        extended = modules["channels"].ExtendedChannel
        self._patch(extended, "apply", self._wrap(
            extended.apply, "channels.pauli_apply", record_span=False))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._wrap(
                getattr(np.linalg, attr), "linalg.eig", False, self._eig_matrices))
        # every negativity evaluation, public or inside the entanglement-blind
        # scenario, goes through this kernel exactly once
        entwit = modules["entwit"]
        self._patch(entwit, "_negativity_raw", self._counting(
            entwit._negativity_raw, lambda *_: self.count("entwit.negativity.calls")))
        for attr in ("minimize", "minimize_scalar"):
            self._patch(modules["ensembles"], attr, self._counting(
                getattr(modules["ensembles"], attr), self._objective_evals))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
