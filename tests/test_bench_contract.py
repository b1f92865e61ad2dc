"""The names and call structure that perfbench's tracer relies on.

perfbench/run.py counts propagations as calls to `engine.stationary_state` and
splits them into grid and refine evaluations by whether `detect_transitions`
is on the stack; `Tracer.install` raises when a traced name is not bound.
Renaming or bypassing one of them breaks the benchmark's exact-count gate,
so this test fails first.
"""

import sys
from pathlib import Path

import dephasim.cli  # noqa: F401  (binds cli.main, a tracer target)
import dephasim.engine
from dephasim import SweepConfig, run_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_binds_every_target_and_counts_each_propagation():
    original = dephasim.engine.stationary_state
    with Tracer() as t:
        run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", omega_ratio=31.25, samples=50))
    grid, refine = t.counts["sweep.grid_evals"], t.counts["sweep.refine_evals"]
    assert t.calls["engine.stationary_state"] == grid + refine
    assert grid == 50
    assert refine > 0
    assert dephasim.engine.stationary_state is original
