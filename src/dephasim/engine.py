"""Collective-dephasing generators, exact propagation, and the stationary-state projector.

The generator of the dynamics is

    d(rho)/dt = -i/2 * omega1 * [sx_1, rho]
                + gamma/2 * (2 Jz rho Jz - Jz^2 rho - rho Jz^2)

with Jz the collective z-spin operator of the pair. Because Jz is diagonal,
every matrix element |m><m'| decays at rate gamma*(m - m')^2 / 2, so the
infinite-time limit of the drive-free channel is the projector onto the
degenerate Jz blocks. Only the driven qubit pair is propagated; a qutrit
pair needs only that projector. Times are scaled by gamma, so the code sets
gamma = 1 and omega1 = Omega_1/gamma.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionMismatchError, StateValidationError, _numbers, _shown
from .linalg import matrix_exponential
from .states import DRIFT_TOL, POSITIVITY_FLOOR, _PAIRS, DensityMatrix, _check_state, _pair, _trusted_state

_BLOCK = 64  # propagators per exponential call: 2000 in one stack add 29 MB of peak RSS


def _checked_float(name: str, value, positive: bool = False) -> float:
    """value as a float, if it is one real number in [0, float max], or in (0, float max] if positive."""
    try:
        number = _numbers(name, value)
    except ValueError:  # not a real number: refused below as a NaN is, with the same message
        number = np.array(np.nan)
    if not (number.ndim == 0 and 0 <= number <= sys.float_info.max and (number > 0 or not positive)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {_shown(value)}")
    return float(number)


@dataclass(frozen=True)
class StationaryXForm:
    """Populations a, b, c, d on |11>,|10>,|01>,|00> plus the central coherence f = <10|rho|01>."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name in "abcdf":  # an array with one entry per point; a scalar is one point
            dtype = complex if name == "f" else float
            object.__setattr__(self, name, _numbers(f"X-form field {name}", getattr(self, name), dtype))
        shapes = {name: getattr(self, name).shape for name in "abcdf"}
        if len(set(shapes.values())) > 1:
            listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
            raise DimensionMismatchError(f"X-form fields must share one shape, got {listed}")
        a, b, c, d, f = map(np.ravel, (self.a, self.b, self.c, self.d, self.f))
        # Each check is written so that a NaN fails it, unwarned; the earliest failing point raises.
        with np.errstate(over="ignore", invalid="ignore"):
            total = a + b + c + d
            least = np.minimum(np.minimum(a, b), np.minimum(c, d))
            f_sq = np.float_power(np.hypot(f.real, f.imag), 2)  # abs(f) ** 2 of a Python complex
            checks = [
                (abs(total - 1.0) <= DRIFT_TOL, "populations do not sum to one", lambda k: abs(total[k] - 1.0)),
                (least >= POSITIVITY_FLOOR, "negative population", lambda k: abs(least[k])),
                (f_sq <= b * c - POSITIVITY_FLOOR, "coherence |f|^2 exceeds b*c", lambda k: f_sq[k] - b[k] * c[k]),
            ]
            failing = np.flatnonzero(~np.logical_and.reduce([ok for ok, _, _ in checks]))
            if failing.size:
                k = failing[0]
                check, magnitude = next((check, magnitude) for ok, check, magnitude in checks if not ok[k])
                raise StateValidationError(check, float(magnitude(k)))


# (2 Jz rho Jz - Jz^2 rho - rho Jz^2) / 2 on column-stacked two-qubit matrices is
# diagonal, -(m - m')^2 / 2 on |m><m'|. It is built in Kronecker form rather than
# with np.diag because the signs of its zeros (-0.0 where a negative level meets
# a zero) are part of the bit-exact generator that every propagator is computed from.
_JZ = np.diag(_PAIRS[(2, 2)].levels)
_JZ_SQ = _JZ @ _JZ
_DEPHASING = (
    np.kron(_JZ.T, _JZ) - 0.5 * np.kron(np.eye(4), _JZ_SQ) - 0.5 * np.kron(_JZ_SQ.T, np.eye(4))
).astype(complex)

# -i [sx_1, rho] on column-stacked two-qubit matrices: vec(A rho B) = (B^T kron A) vec(rho).
_SX1 = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
_DRIVE_COMMUTATOR = -1j * (np.kron(np.eye(4), _SX1) - np.kron(_SX1.T, np.eye(4)))


def collective_jz(dims: tuple[int, int]) -> np.ndarray:
    """Collective z-spin operator of the pair, diagonal in the lexicographic basis.

    Qubits use the spin-1/2 convention sz/2 per party (spectrum 1, 0, 0, -1);
    qutrits use the spin-1 projector form |1><1| - |-1><-1| per party
    (spectrum 2, 1, 1, 0, 0, 0, -1, -1, -2).
    """
    return np.diag(_pair(dims).levels)


def build_liouvillian(omega1: float) -> np.ndarray:
    """Vectorized generator of the qubit pair: collective dephasing plus the party-1 drive.

    Returns the complex128 16x16 matrix L acting on column-stacked density
    matrices. In units of 1/gamma the drive term is -i/2 * omega1 [sx_1, rho]
    and the dephasing term is (2 Jz rho Jz - Jz^2 rho - rho Jz^2) / 2;
    omega1=0.0 gives pure collective dephasing. <<I| L is exactly zero, so
    L preserves trace.
    """
    return _DEPHASING + 0.5 * _checked_float("drive ratio omega1", omega1) * _DRIVE_COMMUTATOR


def _pulse_times(times) -> np.ndarray:
    """The one-dimensional sequence `times` of valid pulse times as a float (n, 1, 1) array."""
    try:
        ndim = np.ndim(times)
    except ValueError:  # numpy refuses a ragged nesting such as [[0.1], [0.1, 0.2]]
        ndim = None
    if ndim != 1:
        raise ValueError(f"times must be a one-dimensional sequence, got {_shown(times)}")
    ts = _numbers("times", times)
    bad = np.flatnonzero(~((ts >= 0) & (ts <= sys.float_info.max)))  # written so that a NaN fails it
    if bad.size:
        raise ValueError(f"time must be finite and nonnegative, got {_shown(times[bad[0]])}")
    return ts.reshape(-1, 1, 1)


def evolve(rho0: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """Propagate the matrix rho0 exactly: unvec(P vec(rho0)) for a propagator P = exp(L t) that fits it.

    A positive drifted trace is rescaled; the result then gets _check_state's
    Hermiticity and trace checks once. The caller holds
    np.errstate(over="ignore", invalid="ignore"): an overflowed propagator
    (omega1 * t ~ 1e20) then fails the check unwarned.
    """
    out = (propagator @ rho0.reshape(-1, order="F")).reshape(rho0.shape, order="F")  # column stacking, as in L
    # exp(L t) preserves trace exactly (<<I| L = 0), but scaling and squaring
    # drifts it as ||L t|| grows (Al-Mohy & Higham 2009), scaling the slow
    # modes by a common factor.
    trace = out.trace().real
    if trace > 0 and abs(trace - 1.0) > DRIFT_TOL:
        out = out / trace
    _check_state(out)
    return out


def dephasing_fixed_point(rho: DensityMatrix) -> DensityMatrix:
    """Infinite-time limit of the drive-free channel: keep only degenerate Jz blocks.

    For qubits this keeps the four populations and the |10><01| coherence; for
    qutrits it keeps the 3x3 m=0 block, the two 2x2 m=+-1 blocks, and the
    m=+-2 diagonal entries.
    """
    # A pinching of a valid state is a valid state, so the result is not re-checked.
    return _trusted_state(rho.matrix * _pair(rho.dims).fixed_mask, rho.dims)


def stationary_state(rho0: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """Drive the qubit-pair matrix rho0 with a pulse's `propagator` exp(L t), then dephase forever.

    The evolved state gets evolve's checks. The pinched result's positivity
    is its X-form's check, not this one's. The caller holds
    np.errstate(over="ignore", invalid="ignore"), as for evolve.
    """
    return evolve(rho0, propagator) * _PAIRS[(2, 2)].fixed_mask


def extract_xform(states: np.ndarray) -> StationaryXForm:
    """Read (a, b, c, d, f) off each pinched qubit-pair matrix of a (..., 4, 4) stack."""
    return StationaryXForm(*(states[..., i, i].real for i in range(4)), states[..., 1, 2])


def _propagators(omega1: float, times) -> Iterator[np.ndarray]:
    """exp(L t) for L = build_liouvillian(omega1) and each of `times`, in order: the one path to a propagator.

    The drive, then the times, are checked at once. Each matrix_exponential call takes _BLOCK times,
    and each propagator keeps the bits of matrix_exponential(L * t). The caller holds np.errstate.
    """
    generator, ts = build_liouvillian(omega1), _pulse_times(times)
    return (p for k in range(0, len(ts), _BLOCK) for p in matrix_exponential(generator * ts[k : k + _BLOCK]))


def _xforms(rho0: DensityMatrix, propagators) -> StationaryXForm:
    """X-forms of what each propagator leaves from rho0, which must be a qubit pair; the earliest failing one raises."""
    if rho0.dims != (2, 2):
        raise DimensionMismatchError(f"stationary form is a two-qubit notion, got dims {rho0.dims}")
    states = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails evolve's state check
        for propagator in propagators:
            try:
                states.append(stationary_state(rho0.matrix, propagator))
            except StateValidationError:
                extract_xform(np.reshape(states, (-1, 4, 4)))  # an earlier point's X-form error wins
                raise
    return extract_xform(np.reshape(states, (-1, 4, 4)))


def stationary_xforms(rho0: DensityMatrix, omega1: float, times) -> StationaryXForm:
    """X-forms of the stationary states that pulses of each of `times` at drive omega1 leave from rho0.

    Each exp(L t) comes fresh from _propagators, which checks the drive and times before _xforms checks
    rho0's dims, even for no times; only a sweep's bisection midpoints compose theirs (_bisection_xforms).
    """
    return _xforms(rho0, _propagators(omega1, times))


def _bisection_xforms(rho0: DensityMatrix, omega1: float) -> Callable[[np.ndarray, np.ndarray], StationaryXForm]:
    """The step of detect_transitions' bisection: _xforms at its midpoints, in bracket order, from their brackets' lows.

    A midpoint's P = exp(L (mid - lo)) P_lo. A step makes one _propagators call, for the lows and widths
    mid - lo (exact by Sterbenz) not kept, and then keeps exp(L t) only at its lows and midpoints.
    """
    kept = {}

    @np.errstate(over="ignore", invalid="ignore")  # an overflowed P_lo fails evolve's state check
    def step(lows: np.ndarray, mids: np.ndarray) -> StationaryXForm:
        nonlocal kept
        lo, widths = lows.tolist(), (mids - lows).tolist()
        need = sorted({*lo, *widths} - kept.keys())
        kept.update(zip(need, _propagators(omega1, need)))
        p_lo = np.array([kept[t] for t in lo])
        p_mid = np.array([kept[t] for t in widths]) @ p_lo
        kept = dict(zip([*lo, *mids.tolist()], [*p_lo, *p_mid]))
        return _xforms(rho0, p_mid)

    return step
