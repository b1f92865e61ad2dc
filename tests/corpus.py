"""Print one SHA-256 over the bytes the package writes for a fixed corpus of inputs.

The corpus is the CSV of each of the first 200 sweeps of the seeded population
(`oracles.seeded_sweep`); `dephasim compare`'s stdout for each of them against a
sweep of another population ket and drive on its grid; and the qutrit reports
of 100 seeded kets. A change that keeps every byte the package writes keeps the
hash. The bytes are those of the OpenBLAS kernel in use: `SkylakeX` writes the
golden CSVs, and other kernels change some last digits, so this is not a test.

Run it as `python tests/corpus.py`, with the package installed or on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile
from dataclasses import replace

import numpy as np

from dephasim import SweepConfig, run_qutrit_scan, run_sweep, write_criterion_report, write_csv
from dephasim.cli import main
import oracles

_QUTRIT_LABELS = [f"{a},{b}" for a in ("1", "0", "-1") for b in ("1", "0", "-1")]

digest = hashlib.sha256()


def add(name: str, data: bytes) -> None:
    digest.update(f"{name} {len(data)}\n".encode() + data)


with tempfile.TemporaryDirectory() as tmp:
    a, b, report = (str(pathlib.Path(tmp) / name) for name in ("a.csv", "b.csv", "report.txt"))
    for seed in range(200):
        config = SweepConfig(*oracles.seeded_sweep(seed))
        ket, omega_ratio, _, _ = oracles.seeded_sweep(seed + 200)
        write_csv(run_sweep(config), a)
        write_csv(run_sweep(replace(config, initial_state=ket, omega_ratio=omega_ratio)), b)
        add(f"sweep {seed}", pathlib.Path(a).read_bytes())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["compare", "--a", a, "--b", b])
        add(f"compare {seed} exit {code}", out.getvalue().replace(tmp, "<tmp>").encode())
    rng = np.random.default_rng(0)
    for k in range(100):
        picks = rng.choice(9, size=k % 4 + 1, replace=False)  # 1 to 4 terms
        thousandths = rng.integers(1, 1000, size=picks.size) * rng.choice([-1, 1], size=picks.size)
        ket = " ".join(f"{t / 1000:+.3f}|{_QUTRIT_LABELS[i]}>" for i, t in zip(picks, thousandths))
        write_criterion_report(run_qutrit_scan(ket), ket, report)
        add(f"report {k}", pathlib.Path(report).read_bytes())
print(digest.hexdigest())
