"""In-memory span tracer that wraps dephasim's public functions from outside the package.

A wrapper replaces a function under every name it is bound to in the loaded
``dephasim`` modules, because ``sweep`` and ``engine`` bind their callees with
``from .x import y``. Each call records one span (id, name, start, end, parent
id, op id). Self time is a span's duration minus the durations of its direct
children. Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute). Two functions may share one span name.
TARGETS = [
    ("linalg.matrix_exponential", "dephasim.linalg", "matrix_exponential"),
    ("linalg.partial_transpose", "dephasim.linalg", "partial_transpose"),
    ("states.parse_ket_expression", "dephasim.states", "parse_ket_expression"),
    ("engine.build_liouvillian", "dephasim.engine", "build_liouvillian"),
    ("engine.collective_jz", "dephasim.engine", "collective_jz"),
    ("engine.dephasing_fixed_point", "dephasim.engine", "dephasing_fixed_point"),
    ("engine.evolve", "dephasim.engine", "evolve"),
    ("engine.extract_xform", "dephasim.engine", "extract_xform"),
    ("engine.stationary_state", "dephasim.engine", "stationary_state"),
    ("measures.closed_form", "dephasim.measures", "concurrence_xform"),
    ("measures.closed_form", "dephasim.measures", "mutual_information_xform"),
    ("measures.qutrit_sufficient_entangled", "dephasim.measures", "qutrit_sufficient_entangled"),
    ("measures.min_pt_eigenvalue", "dephasim.measures", "min_pt_eigenvalue"),
    ("sweep.run_sweep", "dephasim.sweep", "run_sweep"),
    ("sweep.detect_transitions", "dephasim.sweep", "detect_transitions"),
    ("sweep.detect_local_maxima", "dephasim.sweep", "detect_local_maxima"),
    ("sweep.write_csv", "dephasim.sweep", "write_csv"),
    ("sweep.read_csv", "dephasim.sweep", "read_csv"),
    ("sweep.compare_windows", "dephasim.sweep", "compare_windows"),
    ("sweep.run_qutrit_scan", "dephasim.sweep", "run_qutrit_scan"),
    ("cli.main", "dephasim.cli", "main"),
]
# DensityMatrix validation runs in __post_init__ on every construction.
VALIDATE_SPAN = "states.validate"


class Tracer:
    """Records spans and per-name call counts, self time and inclusive time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            tracer._on_enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if not tracer._open[name]:  # count recursion once
                    tracer.incl_s[name] += duration
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))
            tracer._on_return(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_enter(self, name):
        if name == "engine.stationary_state":
            inside = self._open["sweep.detect_transitions"] > 0
            self.counts["sweep.refine_evals" if inside else "sweep.grid_evals"] += 1

    def _on_return(self, name, args, result):
        if name == "sweep.run_sweep":
            self.counts["sweep.transitions"] += len(result.transitions)
            self.counts["sweep.maxima"] += len(result.maxima)
        elif name == "sweep.write_csv":
            self.counts["sweep.write_csv.bytes"] += os.path.getsize(args[1])

    # -- patching ----------------------------------------------------------

    def install(self):
        """Replace every binding of each target in the loaded dephasim modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dephasim" or n.startswith("dephasim.")]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{attr} is not bound anywhere")
        density = sys.modules["dephasim.states"].DensityMatrix
        original = density.__dict__["__post_init__"]
        self._patches.append((density, "__post_init__", original))
        density.__post_init__ = self._wrap(VALIDATE_SPAN, original)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Call and event counts so far, for per-op differences."""
        return {**self.calls, **self.counts}

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["id", "name", "start", "end", "parent", "op"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
