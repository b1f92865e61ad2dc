"""Independent reference implementations used only to check the package."""

from __future__ import annotations

import functools
import math

import numpy as np
from mpmath import mp

from dephasim.engine import _propagators, extract_xform, stationary_state


def partial_trace_oracle(rho: np.ndarray, keep: int, dims: tuple[int, int]) -> np.ndarray:
    """Explicit index-sum definition of the partial trace."""
    d1, d2 = dims
    if keep == 1:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for k in range(d1):
                for j in range(d2):
                    out[i, k] += rho[i * d2 + j, k * d2 + j]
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for j in range(d2):
            for l in range(d2):
                for i in range(d1):
                    out[j, l] += rho[i * d2 + j, i * d2 + l]
    return out


def taylor_expm(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Truncated power series for exp(m)."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def diagonal_slices_oracle(stack: np.ndarray) -> np.ndarray:
    """Which (n, n) slices of a (k, n, n) stack are diagonal, from their strict triangles;
    a NaN counts as a nonzero entry."""
    return ~(np.tril(stack, -1).any(axis=(1, 2)) | np.triu(stack, 1).any(axis=(1, 2)))


def kronecker_liouvillian(
    dims: tuple[int, int], omega1: float, gamma: float, drive_on: bool
) -> np.ndarray:
    """Column-stacked generator assembled term by term from Kronecker products.

    Collective Jz is rebuilt from the single-party operators, then
    gamma * (Jz^T kron Jz - (1 kron Jz^2)/2 - (Jz^2^T kron 1)/2), plus, for
    qubits with the drive on, -i (1 kron H - H^T kron 1) with
    H = omega1 * gamma * sx_1 / 2.
    """
    d = dims[0]
    jz_single = np.diag([0.5, -0.5]) if d == 2 else np.diag([1.0, 0.0, -1.0])
    eye_d = np.eye(d)
    jz = np.kron(jz_single, eye_d) + np.kron(eye_d, jz_single)
    jz_sq = jz @ jz
    eye = np.eye(d * d)
    gen = gamma * (np.kron(jz.T, jz) - 0.5 * np.kron(eye, jz_sq) - 0.5 * np.kron(jz_sq.T, eye))
    gen = gen.astype(complex)
    if drive_on:
        h = 0.5 * omega1 * gamma * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        gen = gen + (-1j) * (np.kron(eye, h) - np.kron(h.T, eye))
    return gen


def xform_reference(rho0_matrix: np.ndarray, omega1: float, t_max: float, n: int) -> list[tuple]:
    """(a, b, c, d, f) at the n points k * t_max / (n - 1), stepped in 50 digits.

    G is kronecker_liouvillian's qubit generator, whose float entries mpmath
    holds exactly; one exp(G * delta) with delta taken in 50 digits steps
    vec(rho0) from each point to the next. The fields are entries of the
    evolved state that the dephasing pinch keeps as they are.
    """
    with mp.workdps(50):
        generator = mp.matrix(kronecker_liouvillian((2, 2), omega1, 1.0, True).tolist())
        step = mp.expm(generator * (mp.mpf(t_max) / (n - 1)))
        vecs = [mp.matrix(rho0_matrix.reshape(-1, order="F").tolist())]
        for _ in range(n - 1):
            vecs.append(step * vecs[-1])
        # column stacking: rho[i, j] is entry i + 4 j
        return [(*(float(mp.re(v[5 * i])) for i in range(4)), complex(v[1 + 4 * 2])) for v in vecs]


def state_check_oracle(m: np.ndarray) -> tuple[str, float] | None:
    """DensityMatrix's three checks in their first form: the first failing check's message and
    magnitude, or None for a density matrix. A NaN fails each check."""
    with np.errstate(invalid="ignore"):
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
    if not herm_defect <= 1e-10:
        return "matrix is not Hermitian", herm_defect
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if not trace_defect <= 1e-10:
        return "trace differs from one", trace_defect
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if not min_eig >= -1e-9:
        return "matrix has a negative eigenvalue", abs(min_eig)
    return None


# ---------------------------------------------------------------------------
# Fixed-step fourth-order integrator of the two-qubit master equation
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
_EYE2 = np.eye(2, dtype=complex)
_JZ = 0.5 * (np.kron(_SZ, _EYE2) + np.kron(_EYE2, _SZ))
_JZ_SQ = _JZ @ _JZ
_SX1 = np.kron(_SX, _EYE2)


def master_equation_rhs(rho: np.ndarray, omega: float, gamma: float) -> np.ndarray:
    """Right-hand side in density-matrix form; works on stacked (..., 4, 4) arrays."""
    out = 0.5 * gamma * (2.0 * (_JZ @ rho @ _JZ) - _JZ_SQ @ rho - rho @ _JZ_SQ)
    if omega != 0.0:
        out = out - 0.5j * omega * (_SX1 @ rho - rho @ _SX1)
    return out


def rk4_evolve(rho: np.ndarray, omega: float, gamma: float, duration: float, steps: int):
    """Classic fixed-step RK4 over one constant-generator phase."""
    h = duration / steps
    for _ in range(steps):
        k1 = master_equation_rhs(rho, omega, gamma)
        k2 = master_equation_rhs(rho + 0.5 * h * k1, omega, gamma)
        k3 = master_equation_rhs(rho + 0.5 * h * k2, omega, gamma)
        k4 = master_equation_rhs(rho + h * k3, omega, gamma)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def rk4_stationary(
    rho0: np.ndarray,
    omega_ratio: float,
    gamma_t: float,
    drive_steps_per_unit: int = 4000,
    free_time: float = 50.0,
    free_steps: int = 5000,
) -> np.ndarray:
    """Two-phase stationary state (gamma = 1): driven until gamma_t, then free."""
    rho = rho0.astype(complex).copy()
    if gamma_t > 0:
        steps = max(1, int(np.ceil(gamma_t * drive_steps_per_unit)))
        rho = rk4_evolve(rho, omega_ratio, 1.0, gamma_t, steps)
    return rk4_evolve(rho, 0.0, 1.0, free_time, free_steps)


def rk4_stationary_grid(
    rho0: np.ndarray,
    omega_ratio: float,
    grid: np.ndarray,
    steps_per_segment: int = 120,
    free_time: float = 50.0,
    free_steps: int = 5000,
) -> np.ndarray:
    """Stationary states over an increasing gamma_T grid, one driven pass plus a batched free phase."""
    rho = rho0.astype(complex).copy()
    captured = []
    previous = 0.0
    for gamma_t in grid:
        segment = float(gamma_t) - previous
        if segment > 0:
            rho = rk4_evolve(rho, omega_ratio, 1.0, segment, steps_per_segment)
            previous = float(gamma_t)
        captured.append(rho.copy())
    batch = np.stack(captured)
    return rk4_evolve(batch, 0.0, 1.0, free_time, free_steps)


# ---------------------------------------------------------------------------
# Random-state generators
# ---------------------------------------------------------------------------

def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_xform_entries(rng: np.random.Generator):
    """Populations from a flat simplex plus a positivity-respecting central coherence."""
    populations = rng.dirichlet(np.ones(4))
    a, b, c, d = (float(p) for p in populations)
    magnitude = float(rng.uniform(0.0, 1.0)) * np.sqrt(b * c)
    phase = np.exp(2j * np.pi * rng.uniform())
    return a, b, c, d, complex(magnitude * phase)


# ---------------------------------------------------------------------------
# General measures of any two-qubit state, the references for the closed forms
# ---------------------------------------------------------------------------

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)
# Eigenvalues this small are treated as exact zeros in entropy sums.
_ENTROPY_EIG_FLOOR = 1e-12
# Mutual information is nonnegative: a value between this floor and 0 is rounding.
_MI_ROUNDING_FLOOR = -1e-10


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit DensityMatrix (Wootters, PRL 80, 2245 (1998)).

    With rho = R R^dagger (R = V sqrt(w) from one Hermitian eigensolve), the
    Wootters roots, the square roots of the spectrum of rho * flip(rho), are
    the singular values of R^T (sigma_y x sigma_y) R. No square root of a
    computed eigenvalue is taken, so small roots keep their full precision.
    """
    eigvals, eigvecs = np.linalg.eigh(rho.matrix)
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    lam = np.linalg.svd(root.T @ _SPIN_FLIP @ root, compute_uv=False)
    value = lam[0] - lam[1] - lam[2] - lam[3]
    return float(min(max(value, 0.0), 1.0))


def _entropy_of_matrix(m: np.ndarray) -> float:
    probs = np.linalg.eigvalsh(m)
    probs = probs[probs > _ENTROPY_EIG_FLOOR]
    return float(-np.sum(probs * np.log2(probs)))


def von_neumann_entropy(rho) -> float:
    """-Tr(rho log2 rho) of a DensityMatrix in bits, with 0 log 0 := 0."""
    return _entropy_of_matrix(rho.matrix)


def mutual_information(rho) -> float:
    """Total correlation S(rho_1) + S(rho_2) - S(rho) of a DensityMatrix in bits."""
    value = (
        _entropy_of_matrix(partial_trace_oracle(rho.matrix, 1, rho.dims))
        + _entropy_of_matrix(partial_trace_oracle(rho.matrix, 2, rho.dims))
        - _entropy_of_matrix(rho.matrix)
    )
    if _MI_ROUNDING_FLOOR < value < 0.0:
        value = 0.0
    return value


# ---------------------------------------------------------------------------
# The two-qutrit criterion, written out entry by entry from the density matrix
# ---------------------------------------------------------------------------
#
# Pair index 3*i + j over the levels |1>, |0>, |-1>; party 2's partial
# transpose is (rho^T2)[3i+j, 3k+l] = rho[3i+l, 3k+j].

# Margin of the criterion's strict inequalities.
_CRITERION_MARGIN = 1e-12


def partial_transpose_oracle(matrix: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Party 2's partial transpose by its defining index swap."""
    d1, d2 = dims
    out = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for i in range(d1):
        for j in range(d2):
            for k in range(d1):
                for l in range(d2):
                    out[i * d2 + j, k * d2 + l] = matrix[i * d2 + l, k * d2 + j]
    return out


def central_block_oracle(matrix: np.ndarray) -> np.ndarray:
    """The partial transpose's block on |1,1>, |0,0>, |-1,-1>, read off rho's entries."""
    m = matrix
    return np.array(
        [
            [m[0, 0], m[1, 3], m[2, 6]],
            [np.conj(m[1, 3]), m[4, 4], m[5, 7]],
            [np.conj(m[2, 6]), np.conj(m[5, 7]), m[8, 8]],
        ]
    )


def criterion_report_oracle(matrix: np.ndarray) -> dict:
    """The fields of the two-qutrit CriterionReport, from `central_block_oracle` and rho's entries.

    The cubic is the block's characteristic polynomial x^3 - xi x^2 + zeta x + eta;
    the two 2x2 blocks are on {|1,0>, |0,-1>} and {|0,1>, |-1,0>}.
    """
    m = matrix
    block = central_block_oracle(m)
    p1, p0, pm = m[0, 0].real, m[4, 4].real, m[8, 8].real
    c10, c1m, c0m = m[1, 3], m[2, 6], m[5, 7]
    zeta = p1 * p0 + p1 * pm + p0 * pm - abs(c0m) ** 2 - abs(c10) ** 2 - abs(c1m) ** 2
    eta = (
        -p1 * p0 * pm
        + p1 * abs(c0m) ** 2
        + pm * abs(c10) ** 2
        + p0 * abs(c1m) ** 2
        - 2.0 * (c1m * np.conj(c0m) * np.conj(c10)).real
    )
    cubic = bool(np.linalg.eigvalsh(block)[0] < -_CRITERION_MARGIN)
    plus = bool(abs(m[2, 4]) ** 2 > m[1, 1].real * m[5, 5].real + _CRITERION_MARGIN)
    minus = bool(abs(m[4, 6]) ** 2 > m[3, 3].real * m[7, 7].real + _CRITERION_MARGIN)
    return {
        "xi": float(p1 + p0 + pm),
        "zeta": float(zeta),
        "eta": float(eta),
        "xi_population_squares": float(p1**2 + p0**2 + pm**2),
        "cubic_has_negative_root": cubic,
        "pt_block_plus_negative": plus,
        "pt_block_minus_negative": minus,
        "sufficient_entangled": cubic or plus or minus,
        "min_pt_eigenvalue": float(np.linalg.eigvalsh(partial_transpose_oracle(m, (3, 3)))[0]),
    }


# ---------------------------------------------------------------------------
# Point-by-point sweep pieces: scalar closed forms and bracket-by-bracket bisection
# ---------------------------------------------------------------------------

def per_point_xforms(rho0, omega1: float, times):
    """X-forms of what each pulse time leaves from the DensityMatrix rho0, with a fresh generator and
    propagator per time; the earliest failing time raises, an overflow failing the state check."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = [stationary_state(rho0.matrix, next(_propagators(omega1, [t]))) for t in times]
    return extract_xform(np.reshape(states, (-1, 4, 4)))


def concurrence_xform(a: float, b: float, c: float, d: float, f: complex) -> float:
    """2 max(0, |f| - sqrt(a d)), capped at 1, of one stationary-form point in Python scalars."""
    outer = np.sqrt(max(a, 0.0) * max(d, 0.0))
    return float(min(max(0.0, 2.0 * (abs(f) - outer)), 1.0))


def _plog2(value: float) -> float:
    if value <= _ENTROPY_EIG_FLOOR:
        return 0.0
    return value * np.log2(value)


def mutual_information_xform(a: float, b: float, c: float, d: float, f: complex) -> float:
    """Mutual information of one stationary-form point from its spectrum {a, d, beta_+, beta_-}."""
    disc = np.sqrt((b - c) ** 2 + 4.0 * abs(f) ** 2)
    beta_plus = (b + c + disc) / 2.0
    beta_minus = (b + c - disc) / 2.0
    value = (
        -_plog2(a + b)
        - _plog2(c + d)
        - _plog2(a + c)
        - _plog2(b + d)
        + _plog2(a)
        + _plog2(d)
        + _plog2(beta_plus)
        + _plog2(beta_minus)
    )
    if _MI_ROUNDING_FLOOR < value < 0.0:
        value = 0.0
    return float(value)


def bisect_transitions(gamma_t, concurrence, concurrence_at, threshold=1e-9, tol=1e-9):
    """Threshold crossings of a sampled curve, each bracket bisected to `tol` before the next.

    `concurrence_at` maps one gamma_T to one concurrence.
    """
    entangled = np.asarray(concurrence) > threshold
    transitions = []
    for i in np.flatnonzero(entangled[:-1] != entangled[1:]):
        lo, hi = float(gamma_t[i]), float(gamma_t[i + 1])
        lo_entangled = bool(entangled[i])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (concurrence_at(mid) > threshold) == lo_entangled:
                lo = mid
            else:
                hi = mid
        transitions.append(0.5 * (lo + hi))
    return transitions


def seeded_sweep(seed: int) -> tuple[str, float, float, int]:
    """Sweep `seed` of the seeded population: (ket, omega_ratio, gamma_t_max, samples) of a real ket, with
    omega_ratio 0.5 to 1e4, gamma_t_max 4 to 100 and 20 to 400 samples, its grid often too coarse for its drive."""
    rng = np.random.default_rng(seed)
    ket = "".join(f"{a:+.6f}|{label}>" for a, label in zip(rng.standard_normal(4), ("11", "10", "01", "00")))
    samples = int(rng.choice([20, 50, 100, 400]))
    return ket, float(0.5 * 2e4 ** rng.uniform()), float(rng.uniform(4.0, 100.0)), samples


def reads_as_number(value, complex_ok: bool = False) -> bool:
    """Whether the package reads one value from outside as a number: a Python or numpy int or
    float, or a complex number where complex_ok. Never a bool, and an int only where numpy
    holds it, in int64 or uint64."""
    kinds = (int, float, np.integer, np.floating) + ((complex, np.complexfloating) if complex_ok else ())
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
        return False
    return not isinstance(value, int) or -(2**63) <= value < 2**64


def accepted_scalar(value, positive: bool = False) -> bool:
    """Whether a scalar parameter (a drive ratio, a time, gamma_t_max) accepts value: a real
    number that is finite and nonnegative, or positive where positive is set. Compared as a
    Python float: a float16 would round float max to inf."""
    return reads_as_number(value) and math.isfinite(x := float(value)) and (x > 0 if positive else x >= 0)


# ---------------------------------------------------------------------------
# Transitions as the roots of the concurrence margin, in 40 digits
# ---------------------------------------------------------------------------

_MARGIN_DPS = 40


@functools.cache
def _liouvillian_eig(omega1: float):
    """40-digit mp.eig of kronecker_liouvillian's qubit generator, whose float entries mpmath holds exactly."""
    with mp.workdps(_MARGIN_DPS):
        return mp.eig(mp.matrix(kronecker_liouvillian((2, 2), omega1, 1.0, True).tolist()))


class ConcurrenceMargin:
    """h(T) = 2 (|f| - sqrt(a d)) - 1e-9 of the stationary state a pulse of gamma_T = T leaves from rho0.

    A sweep calls a point entangled where h > 0, so its transitions are the roots of h. The
    stationary fields are entries of exp(G T) vec(rho0), G kronecker_liouvillian's qubit generator:
    with G = V diag(lam) V^-1 from a 40-digit mp.eig, each is sum_k V[i, k] c_k exp(lam_k T) with
    c = V^-1 vec(rho0).
    """

    _ENTRIES = (0, 15, 9)  # a = rho[0, 0], d = rho[3, 3], f = rho[1, 2], column-stacked

    def __init__(self, rho0_matrix: np.ndarray, omega1: float):
        self._lam, vectors = _liouvillian_eig(omega1)
        with mp.workdps(_MARGIN_DPS):
            c = mp.lu_solve(vectors, mp.matrix(rho0_matrix.reshape(-1, order="F").tolist()))
            self._weights = [[vectors[i, k] * c[k] for k in range(16)] for i in self._ENTRIES]

    def at(self, t) -> mp.mpf:
        """h(t) in 40 digits."""
        with mp.workdps(_MARGIN_DPS):
            growth = [mp.exp(value * t) for value in self._lam]
            a, d, f = (mp.fsum(w * g for w, g in zip(row, growth)) for row in self._weights)
            return 2 * (abs(f) - mp.sqrt(max(mp.re(a) * mp.re(d), 0))) - mp.mpf("1e-9")

    def root_in(self, lo: float, hi: float) -> mp.mpf:
        """The root of h in [lo, hi], where h changes sign, to 1e-30."""
        with mp.workdps(_MARGIN_DPS):
            lo, hi = mp.mpf(lo), mp.mpf(hi)
            assert self.at(lo) * self.at(hi) < 0, (lo, hi)
            root = mp.findroot(self.at, (lo, hi), solver="anderson", tol=mp.mpf("1e-30"))
            assert lo <= root <= hi, (lo, hi, root)
            return root

    def roots(self, t_max: float, step: float = 1e-4) -> list:
        """Every root of h on [0, t_max]: the sign of h, its sums rounded to complex128, scanned on a
        float grid, and each crossing refined in 40 digits.

        Two roots closer than `step` can hide between two grid points; at the paper's drive the
        closest pair is ~80 steps apart.
        """
        ts = np.linspace(0.0, t_max, int(np.ceil(t_max / step)) + 1)
        lam = np.array([complex(value) for value in self._lam])
        a, d, f = np.array([[complex(w) for w in row] for row in self._weights]) @ np.exp(np.outer(lam, ts))
        positive = 2.0 * (np.abs(f) - np.sqrt(np.maximum(a.real * d.real, 0.0))) - 1e-9 > 0
        return [self.root_in(ts[i], ts[i + 1]) for i in np.flatnonzero(positive[:-1] != positive[1:])]
