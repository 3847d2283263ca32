"""Spans and counts for the traced run, recorded from outside the library.

``Tracer.install`` wraps each function in ``TARGETS`` at every binding
other modules call it through: a function imported by name into another
module (``models`` imports ``tensor`` from ``matcore``) is replaced there
too, by scanning every loaded ``reduction_lab`` module for the same object.
Methods are replaced on their class and classes are traced through their
``__init__``.  No file of the library changes.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory until ``write`` is called at the end of the run; self time,
inclusive time and call counts are derived from them in ``summary``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

TARGETS = {
    "matcore": [
        "partial_trace_apparatus",
        "tensor",
        "hermitian_eig",
        "min_eigenvalue",
        "as_complex_matrix",
    ],
    "superop": [
        "Superoperator.from_function",
        "apply",
        "dual",
        "choi",
        "kraus_from_choi",
        "decompose_trace_class",
    ],
    "quantum": ["DensityOperator", "DiscreteObservable", "observable_from_hermitian"],
    "models": [
        "probe_consistency",
        "operation_of",
        "instrument_of",
        "probe_instrument_of",
        "random_faithful_model",
    ],
    "instrument": [
        "Instrument.validate",
        "instrument_from_operation",
        "verify_theorem1",
        "verify_dual_lemma",
        "reduce",
        "outcome_probability",
    ],
    "scenarios": ["joint_distribution"],
    "serialization": ["model_from_json", "load_file", "dumps"],
    "cli": ["main"],
}

# Work counts; each must repeat exactly between two traced runs of one seed.
COUNTS = (
    "superop.probes",
    "matcore.bytes_out",
    "serialization.bytes_in",
    "serialization.bytes_out",
)

SETUP_OP = -1


def span_names() -> list:
    return [f"{mod}.{q}" for mod, quals in TARGETS.items() for q in quals]


def _array_bytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return value.nbytes if isinstance(value, np.ndarray) else 0


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent span index, op id)
        self.stack = []
        self.counts = Counter({c: 0 for c in COUNTS})
        self.op = SETUP_OP
        self.on = True
        self.missing = []
        self._patches = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _find_patches(self) -> list:
        import importlib

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "reduction_lab" or name.startswith("reduction_lab."))
        ]
        patches = []  # (owner, attribute, original value, wrapper)
        for mod_name, quals in TARGETS.items():
            mod = importlib.import_module(f"reduction_lab.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                target = getattr(owner, attr, None) if owner is not None else None
                if target is None:
                    # a later change may delete a traced function; its
                    # metrics then read 0 instead of breaking the run
                    self.missing.append(name)
                    continue
                if isinstance(target, type):
                    init = target.__dict__["__init__"]
                    patches.append((target, "__init__", init, self._wrap(name, init)))
                elif owner_name:
                    raw = owner.__dict__[attr]
                    wrapper = (classmethod(self._wrap(name, raw.__func__))
                               if isinstance(raw, classmethod) else self._wrap(name, raw))
                    patches.append((owner, attr, raw, wrapper))
                else:
                    wrapper = self._wrap(name, target)
                    patches.extend(
                        (m, key, target, wrapper)
                        for m in modules
                        for key, value in vars(m).items()
                        if value is target
                    )
        return patches

    def _wrap(self, name: str, f):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        count = self._count_hook(name)
        perf = time.perf_counter

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not tracer.on:
                return f(*args, **kwargs)
            stack = tracer.stack
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                out = f(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.op)
            if count is not None:
                count(args, kwargs, out)
            return out

        return traced

    def _count_hook(self, name: str):
        counts = self.counts
        if name == "superop.Superoperator.from_function":
            def hook(args, kwargs, out):
                dim = kwargs["dim"] if "dim" in kwargs else args[1]
                counts["superop.probes"] += dim * dim
            return hook
        if name.startswith("matcore."):
            def hook(args, kwargs, out):
                counts["matcore.bytes_out"] += _array_bytes(out)
            return hook
        if name == "serialization.load_file":
            def hook(args, kwargs, out):
                counts["serialization.bytes_in"] += os.path.getsize(args[0])
            return hook
        if name == "serialization.dumps":
            def hook(args, kwargs, out):
                counts["serialization.bytes_out"] += len(out.encode())
            return hook
        return None

    @contextmanager
    def paused(self):
        """Run benchmark-side reference computations without recording."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self and inclusive seconds per traced function, self
        seconds per module, and the work counts."""
        spans = self.spans
        child = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for idx, (name_id, start, end, _, _) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            total_s[name] += end - start
        out = {}
        modules = defaultdict(float)
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            modules[name.split(".", 1)[0]] += self_s[name]
        for mod in TARGETS:
            out[f"{mod}.self_s"] = modules[mod]
        out.update(self.counts)
        return out

    def write(self, path: str, op_labels: list) -> None:
        """Spans as JSON; ``op_labels[i]`` names op id ``i`` (set-up is -1)."""
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": self.names,
                    "ops": op_labels,
                    "spans": self.spans,
                },
                f,
            )
