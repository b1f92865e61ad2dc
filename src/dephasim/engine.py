"""Collective-dephasing generators, exact propagation, and the stationary-state projector.

The generator of the dynamics is

    d(rho)/dt = -i/2 * omega1 * [sx_1, rho] * (drive on)
                + gamma/2 * (2 Jz rho Jz - Jz^2 rho - rho Jz^2)

with Jz the collective z-spin operator of the pair. Because Jz is diagonal,
every matrix element |m><m'| decays at rate gamma*(m - m')^2 / 2, so the
infinite-time limit of the drive-free channel is the projector onto the
degenerate Jz blocks. Times are scaled by gamma, so the code sets gamma = 1
and omega1 = Omega_1/gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DephasimError, DimensionMismatchError, StateValidationError
from .linalg import matrix_exponential
from .states import POSITIVITY_FLOOR, TRACE_TOL, _LEVELS, DensityMatrix

TRACE_PRESERVATION_TOL = 1e-12
_XFORM_RESIDUAL_TOL = 1e-8


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class Superoperator:
    """Generator (or propagator) acting on column-vectorized density matrices."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        side = math.isqrt(len(m)) if m.ndim == 2 else 0
        if side == 0 or m.shape != (side**2, side**2):
            raise DimensionMismatchError(f"superoperator shape {m.shape} is not n^2 x n^2")
        object.__setattr__(self, "matrix", m)
        # <<I| L = 0 is trace preservation for the vectorized generator.
        vec_id = np.eye(self.dim, dtype=complex).reshape(-1, order="F")
        residual = float(np.max(np.abs(vec_id.conj() @ m)))
        if not residual <= TRACE_PRESERVATION_TOL:
            raise DephasimError(f"generator is not trace-preserving: residual {residual:.3e}")

    @property
    def dim(self) -> int:
        """Side of the density matrices the superoperator acts on."""
        return math.isqrt(self.matrix.shape[0])


@dataclass(frozen=True)
class StationaryXForm:
    """Populations a, b, c, d on |11>,|10>,|01>,|00> plus the central coherence f = <10|rho|01>."""

    a: float
    b: float
    c: float
    d: float
    f: complex

    def __post_init__(self):
        total = self.a + self.b + self.c + self.d
        # Each check is written so that a NaN fails it.
        if not abs(total - 1.0) <= TRACE_TOL:
            raise DephasimError(f"populations sum to {total!r}, not 1")
        least = min(self.a, self.b, self.c, self.d)
        if not least >= POSITIVITY_FLOOR:
            raise DephasimError(f"negative population {least!r}")
        if not abs(self.f) ** 2 <= self.b * self.c - POSITIVITY_FLOOR:
            raise DephasimError(
                f"coherence |f|^2 = {abs(self.f)**2!r} exceeds b*c = {self.b * self.c!r}"
            )


class _PairTable(NamedTuple):
    """What collective dephasing needs to know about one supported pair."""

    levels: np.ndarray  # diagonal of collective Jz, lexicographic basis order
    fixed_mask: np.ndarray  # True where |m><m'| has m == m', the entries dephasing keeps
    dephasing: np.ndarray  # gamma = 1 dephasing generator on column-stacked matrices


def _pair_table(jz_single: list[float]) -> _PairTable:
    levels = np.add.outer(jz_single, jz_single).ravel()
    jz = np.diag(levels)
    jz_sq = jz @ jz
    eye = np.eye(len(levels))
    # (2 Jz rho Jz - Jz^2 rho - rho Jz^2) / 2 is diagonal, -(m - m')^2 / 2 on |m><m'|.
    # It is built in Kronecker form rather than with np.diag because the signs
    # of its zeros (-0.0 where a negative level meets a zero) are part of the
    # bit-exact generator that every propagator is computed from.
    dephasing = np.kron(jz.T, jz) - 0.5 * np.kron(eye, jz_sq) - 0.5 * np.kron(jz_sq.T, eye)
    dephasing = dephasing.astype(complex)
    return _PairTable(levels, levels[:, None] == levels[None, :], dephasing)


# One table per pair of equal parties, from the single-party Jz in basis order; see collective_jz.
_PAIRS = {(d, d): _pair_table(list(jz.values())) for d, jz in _LEVELS.items()}

# -i [sx_1, rho] on column-stacked two-qubit matrices: vec(A rho B) = (B^T kron A) vec(rho).
_SX1 = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
_DRIVE_COMMUTATOR = -1j * (np.kron(np.eye(4), _SX1) - np.kron(_SX1.T, np.eye(4)))


def _pair(dims: tuple[int, int]) -> _PairTable:
    try:
        return _PAIRS[dims]
    except (KeyError, TypeError):
        raise DimensionMismatchError(f"supported pairs are (2, 2) and (3, 3), got {dims}") from None


def collective_jz(dims: tuple[int, int]) -> np.ndarray:
    """Collective z-spin operator of the pair, diagonal in the lexicographic basis.

    Qubits use the spin-1/2 convention sz/2 per party (spectrum 1, 0, 0, -1);
    qutrits use the spin-1 projector form |1><1| - |-1><-1| per party
    (spectrum 2, 1, 1, 0, 0, 0, -1, -1, -2).
    """
    return np.diag(_pair(dims).levels)


def build_liouvillian(dims: tuple[int, int], omega1: float | None = None) -> Superoperator:
    """Vectorized generator of collective dephasing, plus the party-1 drive when omega1 is given.

    In units of 1/gamma the drive term is -i/2 * omega1 [sx_1, rho] and the
    dephasing term is (2 Jz rho Jz - Jz^2 rho - rho Jz^2) / 2. omega1=None
    leaves the drive out; omega1=0.0 adds it with zero intensity.
    """
    pair = _pair(dims)
    gen = pair.dephasing.copy()
    if omega1 is not None:
        if dims != (2, 2):
            raise DimensionMismatchError(f"the local drive needs qubit dims, got {dims}")
        _require_nonnegative("drive ratio omega1", omega1)
        gen += 0.5 * omega1 * _DRIVE_COMMUTATOR
    return Superoperator(gen)


def evolve(rho0: DensityMatrix, generator: Superoperator, t: float) -> DensityMatrix:
    """Propagate exactly: unvec(exp(L t) vec(rho0))."""
    _require_nonnegative("time", t)
    if rho0.dim != generator.dim:
        raise DimensionMismatchError(
            f"state dim {rho0.dim} does not match generator dim {generator.dim}"
        )
    # An exponential that overflows (omega1 * t ~ 1e20) fails the state check below.
    with np.errstate(over="ignore", invalid="ignore"):
        propagator = matrix_exponential(generator.matrix * t)
        vec = propagator @ rho0.matrix.reshape(-1, order="F")  # column stacking, as L assumes
        out = vec.reshape(rho0.matrix.shape, order="F")
    try:
        return DensityMatrix(out, rho0.dims)
    except StateValidationError:
        # exp(L t) preserves trace exactly (<<I| L = 0), but scaling and squaring
        # drifts it as ||L t|| grows (Al-Mohy & Higham 2009), scaling the slow
        # modes by a common factor. Rescale a positive drifted trace and check
        # the state once more; any other rejection stands.
        trace = np.trace(out).real
        if not (trace > 0 and abs(trace - 1.0) > TRACE_TOL):
            raise
        return DensityMatrix(out / trace, rho0.dims)


def dephasing_fixed_point(rho: DensityMatrix) -> DensityMatrix:
    """Infinite-time limit of the drive-free channel: keep only degenerate Jz blocks.

    For qubits this keeps the four populations and the |10><01| coherence; for
    qutrits it keeps the 3x3 m=0 block, the two 2x2 m=+-1 blocks, and the
    m=+-2 diagonal entries.
    """
    # A pinching of a valid state is a valid state, so the result is not re-checked.
    fixed = object.__new__(DensityMatrix)
    fixed.__dict__.update(matrix=rho.matrix * _pair(rho.dims).fixed_mask, dims=rho.dims)
    return fixed


def stationary_state(rho0: DensityMatrix, generator: Superoperator, T: float) -> DensityMatrix:
    """Drive rho0 with `generator` for the scaled time T = gamma*T, then dephase forever."""
    return dephasing_fixed_point(evolve(rho0, generator, T))


def extract_xform(rho_s: DensityMatrix) -> StationaryXForm:
    """Read (a, b, c, d, f) off a stationary-form two-qubit matrix.

    Raises DephasimError when any element outside the diagonal and the central
    coherence pair exceeds 1e-8 in magnitude.
    """
    if rho_s.dims != (2, 2):
        raise DimensionMismatchError(f"stationary form is a two-qubit notion, got dims {rho_s.dims}")
    m = rho_s.matrix
    # The X-form is what collective dephasing keeps of a qubit pair.
    residual = float(np.max(np.abs(m[~_pair((2, 2)).fixed_mask])))
    if not residual <= _XFORM_RESIDUAL_TOL:
        raise DephasimError(f"off-form residual {residual:.3e} exceeds {_XFORM_RESIDUAL_TOL:g}")
    return StationaryXForm(
        a=float(m[0, 0].real),
        b=float(m[1, 1].real),
        c=float(m[2, 2].real),
        d=float(m[3, 3].real),
        f=complex(m[1, 2]),
    )
