"""dephasim benchmark: paper sweeps, a seeded qutrit batch and a CLI quick-look session.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sweeps --seed 1 --seconds 20 --trace 0

The harness is single-process, single-threaded and closed-loop: it starts the
next operation only when the previous one has returned. It pins itself and
every process it starts to one CPU and BLAS to one thread. It imports dephasim
from ``src/`` next to this directory and drives only its public API and CLI.

Workloads (an op is the unit that ``op_s`` times):

* ``paper-sweeps`` - the two fixed 2000-sample paper sweeps, SweepConfig to
  CSV in process, alternating; an op is one sweep. ``--seed`` is unused.
* ``qutrit-batch`` - 500 seeded random pure states through validate, the
  dephasing fixed point and the criterion, then 500 seeded mixed states of
  ranks 1-9 through validate and the criterion; an op is the batch.
* ``cli-quicklook`` - fresh ``python -m dephasim.cli`` processes: two seeded
  100-sample sweeps, ``compare`` on their CSVs, ``qutrit`` on a seeded ket and
  one malformed ket that must exit 1; an op is the five-process session.

Every output is checked, and each disagreement, exception, unexpected exit
code or traceback counts as a failed op: the paper-sweep CSVs against the
seed commit's SHA-256 (and, traced, its propagation, transition and maximum
counts), every qutrit verdict and minimum PT eigenvalue against the full
partial-transpose spectrum, and seeded rows of the CLI CSVs, the overlap
count and the qutrit report against ``oracle.py``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. Times are in
seconds at a fixed machine speed (see SpeedProbe); ``op_s`` is the median op,
``items_per_s`` the work items (grid samples, states, processes) over the
summed op time, ``setup_s`` the median spawn-to-ready time of five fresh
interpreters that import, make the seeded inputs and run one warm-up op, and
``peak_rss_mb`` the peak RSS of this process (of the CLI children for
cli-quicklook). ``--trace 1`` wraps dephasim's functions (``tracer.py``),
alternates untraced and traced passes, and prints the per-layer metrics per
pass. Human-readable lines, with provenance, come first; the last line of
stdout is one JSON object. Run files (CSVs, a result file with provenance and
every sample, the span trace) go to ``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import os

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import marshal  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 120
IMPORT_PROBES = 3

ROBUST_KET = "(|10> - |01>)/sqrt(2)"
FRAGILE_KET = "(|11> + |00>)/sqrt(2)"
# SHA-256 of the paper-sweep CSVs written by the seed commit.
PAPER_GOLDEN = {
    "robust": "a2c5c653396bf4f94ca16874f0b64721df4611dd0d7d79a35156446d130289a4",
    "fragile": "e49df3425804e4172932794550723e7d9f2257d8d3ed3765e69af76e7376dfcf",
}
# (propagations, transitions, maxima) per paper sweep at the seed commit.
PAPER_COUNTS = {"robust": (2399, 19, 9), "fragile": (2420, 20, 10)}

CSV_HEADER = "gamma_T,concurrence,mutual_information"
ENTANGLED = 1e-9  # the package's entanglement threshold
# A CSV value has 12 significant digits and |value| <= 2 bits.
CSV_TOL = 2e-11
# PT eigenvalues between these are undecidable at the criterion's margin.
PT_NEGATIVE, PT_NONNEGATIVE = -1e-10, -1e-12
PT_EIG_TOL = 1e-10


class Op(NamedTuple):
    """One timed operation: perf_counter span, work items, attempted and failed sub-ops."""

    start: float
    end: float
    items: int
    attempted: int
    failed: int
    calls: tuple = ()  # (kind, start, end) of each CLI call


class Proc(NamedTuple):
    start: float
    end: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class SpeedProbe:
    """Times a fixed reference kernel every PERIOD_S seconds while the timed ops run.

    On a shared host the speed this process gets swings by up to 2x within a
    second, unevenly across a 1.5 s sweep, so raw medians of 20 s runs differ
    by 20% from run to run. Each op is therefore reported in seconds at a fixed
    machine speed: its wall time, less the probe's own time inside it, times
    the kernel's NOMINAL_S over its mean time measured during the op. Kernel
    times are the probe's CPU time, which a child sharing the CPU cannot
    inflate; the harness and its children share one CPU, so the probe also
    measures, and interrupts, the CLI processes. Each kernel does the same
    kind of work as its workload and never calls dephasim: oracle.py qubit
    propagations for paper-sweeps, oracle.py qutrit PT spectra for
    qutrit-batch, and for the cold CLI processes, page faults on fresh memory
    and unmarshalling and executing a module body, as an interpreter does on
    start-up. The scaling removes most but not all of the swing (see
    RESULTS.md for the spread that remains).
    """

    PERIOD_S = 0.02
    # Fixed scale: each kernel's median CPU seconds, run back to back on an
    # idle 2-core x86_64 VM.
    NOMINAL_S = {"qubit": 1.25e-3, "qutrit": 0.87e-3, "start": 0.69e-3}

    def __init__(self, kind: str):
        import numpy as np
        import oracle

        self._oracle = oracle
        self.kind = kind
        psi = np.array([0.1, 0.7, -0.7, 0.05], dtype=complex)
        self._psi = psi / np.linalg.norm(psi)
        amp = np.linspace(1.0, 2.0, 9) * np.exp(1j * np.arange(9))
        self._rho9 = np.outer(amp, amp.conj()) / np.vdot(amp, amp).real
        source = Path(oracle.__file__).read_text(encoding="utf-8")
        self._module = marshal.dumps(compile(source, oracle.__file__, "exec"))
        self.samples: list[tuple[float, float, float]] = []  # (start, end, CPU seconds)
        self._busy = False
        self._previous = None

    def kernel(self):
        if self.kind == "qubit":
            for gamma_t in (0.1, 0.2, 0.3):
                self._oracle.mutual_information(self._oracle.qubit_stationary(self._psi, 31.25, gamma_t))
        elif self.kind == "qutrit":
            for _ in range(30):
                self._oracle.qutrit_min_pt_eigenvalue(self._oracle.qutrit_dephased(self._rho9))
        else:
            with mmap.mmap(-1, 128 * mmap.PAGESIZE) as region:
                for offset in range(0, len(region), mmap.PAGESIZE):
                    region[offset] = 1
            for _ in range(2):
                exec(marshal.loads(self._module), {"__name__": "probe"})

    def _tick(self, signum, frame):
        if self._busy:  # a slow kernel outlasted the period
            return
        self._busy = True
        try:
            start, cpu = time.perf_counter(), time.thread_time()
            self.kernel()
            self.samples.append((start, time.perf_counter(), time.thread_time() - cpu))
        finally:
            self._busy = False

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Scaled seconds of [start, end], less the probe's own time inside it."""
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        busy = sum(cpu for _, _, cpu in inside)
        if not inside:  # shorter than the period: the nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))]
        return (end - start - busy) * self.NOMINAL_S[self.kind] / statistics.fmean(cpu for _, _, cpu in inside)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(args: list[str]) -> Proc:
    """Run one child to completion: spawn-to-reap perf_counter span and its peak RSS."""
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)  # a killed child fails its checks
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(
            start,
            end,
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            usage.ru_maxrss / 1024.0,
        )


def measure_setup(workload: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Scaled spawn-to-ready seconds of fresh interpreters that set the workload up."""
    args = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        # CLOCK_MONOTONIC is system-wide, so the child can stamp its ready time.
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        proc = subprocess.run(args, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.decode(errors='replace')}")
        ready = float(proc.stdout.split()[-1]) - spawned
        samples.append(probe.seconds(start, start + ready))
    return samples


def import_probes() -> tuple[list[float], float]:
    """Fresh-interpreter `import dephasim` seconds, and scipy.linalg's share from -X importtime."""
    code = "import time; t = time.perf_counter(); import dephasim; print(time.perf_counter() - t)"
    seconds = []
    for _ in range(IMPORT_PROBES):
        proc = run_process([sys.executable, "-c", code])
        if proc.code != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr}")
        seconds.append(float(proc.stdout.strip()))
    proc = run_process([sys.executable, "-X", "importtime", "-c", "import dephasim"])
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.linalg":
            scipy_us = int(parts[1])
    return seconds, scipy_us / 1e6


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class PaperSweeps:
    """The two 2000-sample paper sweeps, SweepConfig to CSV, in process. Not seeded."""

    item = "grid samples"
    PROBE = "qubit"

    def __init__(self, dp, seed):
        self.dp = dp
        self.tracer = None
        self.sweeps = [
            (label, dp.SweepConfig(ket, omega_ratio=31.25, gamma_t_max=4.0, samples=2000,
                                   output_path=str(OUT / f"paper-{label}.csv")))
            for label, ket in (("robust", ROBUST_KET), ("fragile", FRAGILE_KET))
        ]
        warm = dp.SweepConfig(ROBUST_KET, omega_ratio=31.25, gamma_t_max=4.0, samples=16,
                              output_path=str(OUT / "paper-warmup.csv"))
        dp.write_csv(dp.run_sweep(warm, workers=1), warm.output_path)

    def pass_ops(self):
        return range(len(self.sweeps))

    def run(self, i) -> tuple[Op, list[str]]:
        label, config = self.sweeps[i]
        before = self.tracer.snapshot() if self.tracer else None
        start = time.perf_counter()
        result = self.dp.run_sweep(config, workers=1)
        self.dp.write_csv(result, config.output_path)
        end = time.perf_counter()
        problems = []
        if sha256(config.output_path) != PAPER_GOLDEN[label]:
            problems.append(f"{label}: CSV SHA-256 differs from the seed commit's")
        if self.tracer:
            after = self.tracer.snapshot()
            propagations = after.get("engine.stationary_state", 0) - before.get("engine.stationary_state", 0)
            got = (propagations, len(result.transitions), len(result.maxima))
            if got != PAPER_COUNTS[label]:
                problems.append(f"{label}: (propagations, transitions, maxima) {got} != {PAPER_COUNTS[label]}")
        return Op(start, end, config.samples, 1, int(bool(problems))), problems


class QutritBatch:
    """Seeded two-qutrit states: dephased pure states (criterion 7) and mixed states (criterion 8)."""

    item = "states"
    PROBE = "qutrit"
    PER_FAMILY = 500

    def __init__(self, dp, seed):
        import numpy as np

        self.dp = dp
        self.tracer = None
        rng = np.random.default_rng(seed % 2**32)
        psi = rng.normal(size=(self.PER_FAMILY, 9)) + 1j * rng.normal(size=(self.PER_FAMILY, 9))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        self.pure = [np.outer(p, p.conj()) for p in psi]
        self.mixed = []
        for k in range(self.PER_FAMILY):
            rank = k % 9 + 1
            g = rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank))
            rho = g @ g.conj().T
            self.mixed.append(rho / np.trace(rho).real)
        self.expected = None
        dp.qutrit_sufficient_entangled(dp.dephasing_fixed_point(dp.validate(self.pure[0], (3, 3))))
        dp.qutrit_sufficient_entangled(dp.validate(self.mixed[0], (3, 3)))

    def pass_ops(self):
        return range(1)

    def _oracle(self):
        import oracle

        if self.expected is None:
            self.expected = (
                [oracle.qutrit_min_pt_eigenvalue(oracle.qutrit_dephased(rho)) for rho in self.pure],
                [oracle.qutrit_min_pt_eigenvalue(rho) for rho in self.mixed],
            )
        return self.expected

    def run(self, i) -> tuple[Op, list[str]]:
        dp = self.dp
        pure, mixed = [], []
        start = time.perf_counter()
        for rho in self.pure:
            try:
                pure.append(dp.qutrit_sufficient_entangled(dp.dephasing_fixed_point(dp.validate(rho, (3, 3)))))
            except Exception as exc:  # a failed state is counted, not fatal
                pure.append(exc)
        for rho in self.mixed:
            try:
                mixed.append(dp.qutrit_sufficient_entangled(dp.validate(rho, (3, 3))))
            except Exception as exc:
                mixed.append(exc)
        end = time.perf_counter()

        pure_eigs, mixed_eigs = self._oracle()
        problems = []
        for family, reports, eigs in (("pure", pure, pure_eigs), ("mixed", mixed, mixed_eigs)):
            for k, (report, eig) in enumerate(zip(reports, eigs)):
                if isinstance(report, Exception):
                    problems.append(f"{family} state {k}: {type(report).__name__}: {report}")
                    continue
                if abs(report.min_pt_eigenvalue - eig) > PT_EIG_TOL:
                    problems.append(f"{family} state {k}: min PT eigenvalue {report.min_pt_eigenvalue} != {eig}")
                elif family == "pure" and (eig < PT_NEGATIVE or eig > PT_NONNEGATIVE) \
                        and report.sufficient_entangled != (eig < PT_NEGATIVE):
                    problems.append(f"pure state {k}: verdict {report.sufficient_entangled}, PT min {eig}")
                elif family == "mixed" and report.sufficient_entangled and not eig < 0:
                    problems.append(f"mixed state {k}: entangled verdict with PT min {eig}")
        states = len(pure) + len(mixed)
        failed = len({p.split(":")[0] for p in problems})
        return Op(start, end, states, states, failed), problems


def _signed_terms(terms) -> str:
    text = ""
    for coef, label in terms:
        sign = "-" if coef < 0 else "+"
        text += f" {sign} " if text or sign == "-" else ""
        text += f"{abs(coef):.3f}*{label}"
    return text.strip()


class CliQuicklook:
    """Fresh `python -m dephasim.cli` processes, one at a time, on seeded inputs."""

    item = "CLI processes"
    PROBE = "start"
    SAMPLES = 100
    GAMMA_T_MAX = 4.0
    CHECK_ROWS = 6
    QUBIT_LABELS = ("|11>", "|10>", "|01>", "|00>")
    QUTRIT_LEVELS = ("1", "0", "-1")

    def __init__(self, dp, seed):
        import numpy as np

        self.dp = dp
        self.tracer = None
        self.in_process = False
        rng = np.random.default_rng(seed % 2**32)
        self.sweeps = []
        for name in ("a", "b"):
            theta = rng.uniform(0.35, 1.2)
            coefs = [round(float(c), 3) for c in
                     (rng.uniform(-0.1, 0.1), np.cos(theta), -np.sin(theta), rng.uniform(-0.1, 0.1))]
            omega = round(float(rng.uniform(30.0, 32.5)), 2)
            rows = sorted(int(r) for r in rng.choice(self.SAMPLES, self.CHECK_ROWS, replace=False))
            self.sweeps.append((name, coefs, omega, rows))
        picks = rng.choice(9, 3, replace=False)
        self.qutrit_coefs = np.zeros(9)
        for p in picks:
            self.qutrit_coefs[p] = round(float(rng.uniform(0.2, 1.0) * rng.choice((-1, 1))), 3)
        labels = [f"|{a},{b}>" for a in self.QUTRIT_LEVELS for b in self.QUTRIT_LEVELS]
        qutrit_ket = _signed_terms([(self.qutrit_coefs[p], labels[p]) for p in sorted(picks)])
        good = _signed_terms(zip(self.sweeps[0][1], self.QUBIT_LABELS))
        bad_ket = (good[:-1], good.replace("|10>", "|12>"), good + " +", good + " |01>")[int(rng.integers(4))]

        self.calls = []
        for name, coefs, omega, _ in self.sweeps:
            ket = _signed_terms(zip(coefs, self.QUBIT_LABELS))
            self.calls.append(("sweep", name, [
                "sweep", f"--initial-state={ket}", f"--omega-ratio={omega}",
                f"--gamma-t-max={self.GAMMA_T_MAX}", f"--samples={self.SAMPLES}",
                f"--output={self._csv(name)}"]))
        self.calls.append(("compare", None, ["compare", f"--a={self._csv('a')}", f"--b={self._csv('b')}"]))
        self.calls.append(("qutrit", None, ["qutrit", f"--initial-state={qutrit_ket}",
                                            f"--output={OUT / 'cli-qutrit.txt'}"]))
        self.calls.append(("malformed", None, [
            "sweep", f"--initial-state={bad_ket}", f"--samples={self.SAMPLES}",
            f"--output={OUT / 'cli-malformed.csv'}"]))
        self.rss_mb = 0.0
        self._invoke(self.calls[3][2])  # warm-up: one cold qutrit call

    @staticmethod
    def _csv(name):
        return OUT / f"cli-{name}.csv"

    def pass_ops(self):
        return range(1)

    def _invoke(self, argv) -> Proc:
        if not self.in_process:
            proc = run_process([sys.executable, "-m", "dephasim.cli", *argv])
            self.rss_mb = max(self.rss_mb, proc.rss_mb)
            return proc
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sys.modules["dephasim.cli"].main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        return Proc(start, time.perf_counter(), code, out.getvalue(), err.getvalue(), 0.0)

    def run(self, i) -> tuple[Op, list[str]]:
        results = [(kind, name, self._invoke(argv)) for kind, name, argv in self.calls]
        problems = []
        for kind, name, proc in results:
            tag = f"{kind} {name}" if name else kind
            try:
                problems += [f"{tag}: {p}" for p in self._check(kind, name, proc)]
            except Exception as exc:
                problems.append(f"{tag}: check raised {type(exc).__name__}: {exc}")
        calls = tuple((kind, proc.start, proc.end) for kind, _, proc in results)
        failed = len({p.split(":")[0] for p in problems})
        return Op(calls[0][1], calls[-1][2], len(calls), len(calls), failed, calls), problems

    # -- output checks -----------------------------------------------------

    def _check(self, kind, name, proc: Proc) -> list[str]:
        expected_code = 1 if kind == "malformed" else 0
        problems = []
        if proc.code != expected_code:
            problems.append(f"exit code {proc.code}, expected {expected_code}: {proc.stderr.strip()}")
        if "Traceback" in proc.stderr:
            problems.append("traceback on stderr")
        if problems:
            return problems
        if kind == "sweep":
            return self._check_sweep(name)
        if kind == "compare":
            return self._check_compare(proc.stdout)
        if kind == "qutrit":
            return self._check_qutrit()
        if not proc.stderr.startswith("dephasim: "):
            return [f"malformed ket gave {proc.stderr!r}"]
        return []

    def _read(self, name):
        lines = self._csv(name).read_text(encoding="utf-8").splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:] if not line.startswith("#")]
        transitions = [float(line.split("=")[1]) for line in lines if line.startswith("# transition")]
        maxima = [line for line in lines if line.startswith("# maximum")]
        return lines, rows, transitions, maxima

    def _check_sweep(self, name) -> list[str]:
        import numpy as np
        import oracle

        _, coefs, omega, check_rows = next(s for s in self.sweeps if s[0] == name)
        lines, rows, transitions, maxima = self._read(name)
        grid = np.linspace(0.0, self.GAMMA_T_MAX, self.SAMPLES)
        if lines[0] != CSV_HEADER or len(rows) != self.SAMPLES:
            return [f"{name}: header or row count wrong ({len(rows)} rows)"]
        problems = []
        if [f"{g:.12g}" for g in grid] != [line.split(",")[0] for line in lines[1:self.SAMPLES + 1]]:
            problems.append(f"{name}: gamma_T column differs from the grid")
        psi = np.array(coefs, dtype=complex)
        psi /= np.linalg.norm(psi)
        for r in check_rows:
            rho = oracle.qubit_stationary(psi, omega, grid[r])
            for label, want, got in (("concurrence", oracle.x_concurrence(rho), rows[r][1]),
                                     ("mutual_information", oracle.mutual_information(rho), rows[r][2])):
                if abs(want - got) > CSV_TOL:
                    problems.append(f"{name} row {r}: {label} {got!r} vs oracle {want!r}")
        c = np.array([row[1] for row in rows])
        entangled = c > ENTANGLED
        cells = np.flatnonzero(entangled[:-1] != entangled[1:])
        if len(cells) != len(transitions) or any(
                not grid[i] <= t <= grid[i + 1] for i, t in zip(cells, transitions)):
            problems.append(f"{name}: transitions {transitions} do not match grid crossings {cells}")
        peaks = sum(1 for i in range(1, len(c) - 1) if c[i] > c[i - 1] and c[i] > c[i + 1])
        if peaks != len(maxima):
            problems.append(f"{name}: {len(maxima)} maxima listed, {peaks} on the grid")
        return problems

    def _check_compare(self, stdout) -> list[str]:
        overlap = None
        for line in stdout.splitlines():
            if line.startswith("simultaneously entangled:"):
                overlap = int(line.split(":")[1])
        a = [row[1] > ENTANGLED for row in self._read("a")[1]]
        b = [row[1] > ENTANGLED for row in self._read("b")[1]]
        want = sum(x and y for x, y in zip(a, b))
        return [] if overlap == want else [f"overlap {overlap}, expected {want}"]

    def _check_qutrit(self) -> list[str]:
        import numpy as np
        import oracle

        report = dict(line.split(" = ", 1) for line in
                      (OUT / "cli-qutrit.txt").read_text(encoding="utf-8").splitlines())
        psi = self.qutrit_coefs / np.linalg.norm(self.qutrit_coefs)
        eig = oracle.qutrit_min_pt_eigenvalue(oracle.qutrit_dephased(np.outer(psi, psi)))
        verdict = report["sufficient_entangled"] == "true"
        problems = []
        if abs(float(report["min_pt_eigenvalue"]) - eig) > PT_EIG_TOL:
            problems.append(f"min PT eigenvalue {report['min_pt_eigenvalue']} vs oracle {eig}")
        if (eig < PT_NEGATIVE or eig > PT_NONNEGATIVE) and verdict != (eig < PT_NEGATIVE):
            problems.append(f"verdict {verdict} vs oracle PT min {eig}")
        return problems


WORKLOADS = {"paper-sweeps": PaperSweeps, "qutrit-batch": QutritBatch, "cli-quicklook": CliQuicklook}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Ledger:
    """Every op of a run with its seconds, scaled by the speed probe when there is one."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.ops: list[Op] = []
        self.seconds: list[float] = []
        self.raw_seconds: list[float] = []

    def span(self, start, end) -> float:
        return end - start if self.probe is None else self.probe.seconds(start, end)

    def run(self, workload, i) -> float:
        """Run op i, log its failures to stderr and return its seconds."""
        start = time.perf_counter()
        try:
            op, problems = workload.run(i)
        except Exception:
            traceback.print_exc()
            op, problems = Op(start, time.perf_counter(), 0, 1, 1), ["op raised"]
        for problem in problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        spans = op.calls or [(None, op.start, op.end)]
        self.ops.append(op)
        self.seconds.append(sum(self.span(s, e) for _, s, e in spans))
        self.raw_seconds.append(sum(e - s for _, s, e in spans))
        return self.seconds[-1]

    def run_pass(self, workload) -> float:
        return sum(self.run(workload, i) for i in workload.pass_ops())

    def call_seconds(self, kinds) -> list[float]:
        return [self.span(s, e) for op in self.ops for kind, s, e in op.calls if kind in kinds]

    @property
    def attempted(self):
        return sum(op.attempted for op in self.ops)

    @property
    def failed(self):
        return sum(op.failed for op in self.ops)


def load_program():
    if not (SRC / "dephasim" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no dephasim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dephasim
    import dephasim.cli  # noqa: F401  (the tracer wraps its main)

    if Path(dephasim.__file__).resolve().parent != (SRC / "dephasim").resolve():
        raise SystemExit(f"run.py: imported dephasim from {dephasim.__file__}, not {SRC}")
    return dephasim


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dephasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def untraced_run(args, workload, ledger) -> tuple[dict, dict]:
    """End-to-end metrics as `(values, detail)`; detail states each sample count."""
    end = time.perf_counter() + args.seconds
    while not ledger.ops or time.perf_counter() < end:
        ledger.run_pass(workload)
    seconds, items = ledger.seconds, sum(op.items for op in ledger.ops)
    if isinstance(workload, CliQuicklook):
        rss_mb = workload.rss_mb
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_s": statistics.median(seconds),
        "items_per_s": items / sum(seconds),
        "setup_s": statistics.median(workload.setup_samples),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "op_s": f"median of {len(seconds)} ops",
        "items_per_s": f"{items} {workload.item} over {sum(seconds):.3f} s",
        "setup_s": f"median of {len(workload.setup_samples)} fresh interpreters",
        "peak_rss_mb": "CLI children" if isinstance(workload, CliQuicklook) else "this process",
    }
    # Workload-specific names for the same figures, printed alongside.
    named = {}
    if isinstance(workload, PaperSweeps):
        named["sweep_s"] = (values["op_s"], "s", f"median of {len(seconds)} 2000-sample sweeps to CSV")
    elif isinstance(workload, QutritBatch):
        named["qutrit_states_per_s"] = (values["items_per_s"], "1/s",
                                        f"{len(seconds)} batches of {ledger.ops[0].items} states")
    else:
        for key, kinds in (("cli_startup_s", ("compare", "qutrit", "malformed")), ("cli_sweep_s", ("sweep",))):
            times = ledger.call_seconds(kinds)
            named[key] = (statistics.median(times), "s", f"median of {len(times)} processes")
    named["peak_rss_mb"] = (rss_mb, "MB", notes["peak_rss_mb"])
    named["error_rate"] = (ledger.failed / ledger.attempted, "ratio",
                           f"{ledger.failed} failed of {ledger.attempted} attempted")
    named["raw_op_s"] = (statistics.median(ledger.raw_seconds), "s", "unscaled wall time, for reference")
    probe = ledger.probe
    named["probe_kernel_s"] = (statistics.median(cpu for _, _, cpu in probe.samples), "s",
                               f"median of {len(probe.samples)} {probe.kind} samples; nominal {probe.NOMINAL_S[probe.kind]}")
    return values, {"notes": notes, "named_metrics": named, "op_seconds": seconds,
                    "raw_op_seconds": ledger.raw_seconds, "setup_samples": workload.setup_samples}


def traced_run(args, workload, ledger) -> tuple[dict, dict]:
    """Per-layer metrics from traced passes, alternated with untraced passes for the overhead."""
    from tracer import TARGETS, VALIDATE_SPAN, Tracer

    if isinstance(workload, CliQuicklook):
        workload.in_process = True  # in-process main() so its layers can be traced
    import_s, import_scipy_s = import_probes()
    tracer = Tracer()
    untraced, traced = [], []
    end = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < end:
        untraced.append(ledger.run_pass(workload))
        workload.tracer = tracer
        with tracer:
            seconds = 0.0
            for i in workload.pass_ops():
                tracer.op = len(ledger.ops)
                seconds += ledger.run(workload, i)
        workload.tracer = None
        traced.append(seconds)
    passes = len(traced)
    names = sorted({name for name, _, _ in TARGETS} | {VALIDATE_SPAN})
    values = {}
    for name in names:
        values[f"{name}.calls"] = tracer.calls.get(name, 0) / passes
        values[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / passes
    for key in ("sweep.grid_evals", "sweep.refine_evals", "sweep.transitions", "sweep.maxima",
                "sweep.write_csv.bytes"):
        values[key] = tracer.counts.get(key, 0) / passes
    transitions = values["sweep.transitions"]
    values["sweep.refine_evals_per_transition"] = values["sweep.refine_evals"] / transitions if transitions else 0.0
    values["cli.import_s"] = statistics.median(import_s)
    values["cli.import_scipy_s"] = import_scipy_s
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    pass_s = statistics.median(traced)
    layers = {
        name: {"calls": tracer.calls.get(name, 0) / passes,
               "self_s": tracer.self_s.get(name, 0.0) / passes,
               "incl_s": tracer.incl_s.get(name, 0.0) / passes,
               "self_share": tracer.self_s.get(name, 0.0) / passes / pass_s}
        for name in names if tracer.calls.get(name)
    }
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    return values, {"passes": passes, "traced_pass_s": traced, "untraced_pass_s": untraced,
                    "import_s": import_s, "layers": layers, "trace_file": str(trace_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU for this process and every child, so that the probe samples the
    # CPU the measured work runs on and preempts it rather than running beside it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    dp = load_program()
    OUT.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(dp, args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        # Spans would absorb the probe's kernel, so traced runs are unscaled.
        ledger = Ledger()
        workload = workload_cls(dp, args.seed)
        values, detail = traced_run(args, workload, ledger)
        wanted = spec["per_layer"]
    else:
        with SpeedProbe(workload_cls.PROBE) as probe:
            setup_samples = measure_setup(args.workload, args.seed, probe)
            workload = workload_cls(dp, args.seed)
            workload.setup_samples = setup_samples
            ledger = Ledger(probe)
            values, detail = untraced_run(args, workload, ledger)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    info = provenance(args)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {**result, "provenance": info, **detail}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"provenance {json.dumps(info)}")
    for name, (value, unit, note) in detail.get("named_metrics", {}).items():
        print(f"{name:>24} {value:12.6g} {unit:<6} {note}")
    for name, layer in detail.get("layers", {}).items():
        print(f"{name:>38} calls {layer['calls']:9.1f}  self {layer['self_s']:9.5f} s "
              f"({100 * layer['self_share']:5.1f}%)  incl {layer['incl_s']:9.5f} s")
    for name, metric in metrics.items():
        print(f"{name:>38} {metric['value']:12.6g} {metric['unit']}")
    print(f"result file {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
