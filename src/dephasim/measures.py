"""Entanglement and correlation functionals for qubit and qutrit pairs.

Includes the Wootters concurrence (general and stationary-form closed form),
von Neumann entropy and mutual information in bits, partial-transpose tests,
and the sufficient entanglement criterion for two-qutrit stationary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import StationaryXForm
from .errors import DimensionMismatchError
from .linalg import partial_trace, partial_transpose
from .states import DensityMatrix

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# Eigenvalues this small are treated as exact zeros in entropy sums.
_ENTROPY_EIG_FLOOR = 1e-12
# Margin for the strict inequalities of the qutrit criterion; boundary states
# are PPT-undecidable at floating precision and reported as not-sufficient.
_STRICT_MARGIN = 1e-12
# Mutual information is nonnegative: a value between this floor and 0 is rounding.
_MI_ROUNDING_FLOOR = -1e-10


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the two-qutrit sufficient entanglement condition.

    ``xi, zeta, eta`` are the cubic coefficients driven by the block trace;
    ``xi_population_squares`` is the squared-population variant reported for
    reference. ``min_pt_eigenvalue`` is the direct partial-transpose verdict
    used as a cross-check.
    """

    xi: float
    zeta: float
    eta: float
    xi_population_squares: float
    cubic_has_negative_root: bool
    pt_block_plus_negative: bool
    pt_block_minus_negative: bool
    sufficient_entangled: bool
    min_pt_eigenvalue: float


def _require_dims(rho: DensityMatrix, dims: tuple[int, int], what: str) -> np.ndarray:
    if rho.dims != dims:
        raise DimensionMismatchError(f"{what} needs dims {dims}, got {rho.dims}")
    return rho.matrix


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    With rho = R R^dagger (R = V sqrt(w) from one Hermitian eigensolve), the
    Wootters roots, the square roots of the spectrum of rho * flip(rho), are
    the singular values of R^T (sigma_y x sigma_y) R. No square root of a
    computed eigenvalue is taken, so small roots keep their full precision.
    """
    m = _require_dims(rho, (2, 2), "concurrence")
    eigvals, eigvecs = np.linalg.eigh(m)
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    lam = np.linalg.svd(root.T @ _SPIN_FLIP @ root, compute_uv=False)
    value = lam[0] - lam[1] - lam[2] - lam[3]
    return float(min(max(value, 0.0), 1.0))


def concurrence_xform(x: StationaryXForm) -> float:
    """Closed-form concurrence of a stationary-form state: 2 max(0, |f| - sqrt(a d))."""
    outer = np.sqrt(max(x.a, 0.0) * max(x.d, 0.0))
    return float(min(max(0.0, 2.0 * (abs(x.f) - outer)), 1.0))


def _entropy_of_matrix(m: np.ndarray) -> float:
    probs = np.linalg.eigvalsh(m)
    probs = probs[probs > _ENTROPY_EIG_FLOOR]
    return float(-np.sum(probs * np.log2(probs)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return _entropy_of_matrix(rho.matrix)


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlation S(rho_1) + S(rho_2) - S(rho) in bits."""
    value = (
        _entropy_of_matrix(partial_trace(rho.matrix, 1, rho.dims))
        + _entropy_of_matrix(partial_trace(rho.matrix, 2, rho.dims))
        - _entropy_of_matrix(rho.matrix)
    )
    if _MI_ROUNDING_FLOOR < value < 0.0:
        value = 0.0
    return value


def _plog2(value: float) -> float:
    if value <= _ENTROPY_EIG_FLOOR:
        return 0.0
    return value * np.log2(value)


def mutual_information_xform(x: StationaryXForm) -> float:
    """Closed-form mutual information of a stationary-form state.

    The joint spectrum is {a, d, beta_plus, beta_minus} with
    beta_pm = (b + c +- sqrt((b - c)^2 + 4|f|^2)) / 2, and the marginals are
    diagonal, which yields the sum of eight p*log2(p) terms below.
    """
    disc = np.sqrt((x.b - x.c) ** 2 + 4.0 * abs(x.f) ** 2)
    beta_plus = (x.b + x.c + disc) / 2.0
    beta_minus = (x.b + x.c - disc) / 2.0
    value = (
        -_plog2(x.a + x.b)
        - _plog2(x.c + x.d)
        - _plog2(x.a + x.c)
        - _plog2(x.b + x.d)
        + _plog2(x.a)
        + _plog2(x.d)
        + _plog2(beta_plus)
        + _plog2(beta_minus)
    )
    if _MI_ROUNDING_FLOOR < value < 0.0:
        value = 0.0
    return float(value)


def min_pt_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the partial transpose; negative certifies entanglement."""
    # The two partial transposes are transposes of each other: one spectrum.
    return float(np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.dims))[0])


# ---------------------------------------------------------------------------
# Two-qutrit sufficient entanglement condition
# ---------------------------------------------------------------------------
#
# Basis order is lexicographic in the single-party levels |1>, |0>, |-1>, so
# the pair index is 3*i + j with i, j in {0: "1", 1: "0", 2: "-1"}. For a
# state that survived collective dephasing, the partial transpose is block
# diagonal: a 3x3 block on {|1,1>, |0,0>, |-1,-1>}, one 2x2 block on
# {|1,0>, |0,-1>}, its mirror on {|0,1>, |-1,0>}, and two nonnegative
# diagonal singletons. The criterion tests exactly those blocks, so it is an
# exact entanglement witness on the dephased family and (by eigenvalue
# interlacing of principal submatrices) still sound on arbitrary states.


def _central_pt_block(m: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [m[0, 0], m[1, 3], m[2, 6]],
            [np.conj(m[1, 3]), m[4, 4], m[5, 7]],
            [np.conj(m[2, 6]), np.conj(m[5, 7]), m[8, 8]],
        ]
    )


def qutrit_cubic_coefficients(rho: DensityMatrix) -> tuple[float, float, float]:
    """Coefficients (xi, zeta, eta) of x^3 - xi x^2 + zeta x + eta.

    This is the characteristic polynomial of the 3x3 central partial-transpose
    block, so a negative real root is exactly a negative block eigenvalue.
    """
    m = _require_dims(rho, (3, 3), "qutrit cubic coefficients")
    p1, p0, pm = m[0, 0].real, m[4, 4].real, m[8, 8].real
    c10 = m[1, 3]  # <1,0|rho|0,1>
    c1m = m[2, 6]  # <1,-1|rho|-1,1>
    c0m = m[5, 7]  # <0,-1|rho|-1,0>
    xi = p1 + p0 + pm
    zeta = p1 * p0 + p1 * pm + p0 * pm - abs(c0m) ** 2 - abs(c10) ** 2 - abs(c1m) ** 2
    eta = (
        -p1 * p0 * pm
        + p1 * abs(c0m) ** 2
        + pm * abs(c10) ** 2
        + p0 * abs(c1m) ** 2
        - 2.0 * (c1m * np.conj(c0m) * np.conj(c10)).real
    )
    return float(xi), float(zeta), float(eta)


def qutrit_sufficient_entangled(rho: DensityMatrix) -> CriterionReport:
    """Sufficient entanglement condition for the stationary state of two qutrits.

    Fires when the central 3x3 partial-transpose block has a negative
    eigenvalue (equivalently, the cubic has a negative root) or when either
    2x2 coherence block has negative determinant. On states that survived
    collective dephasing this is exact; on arbitrary states it is sufficient.
    """
    m = _require_dims(rho, (3, 3), "qutrit entanglement criterion")
    xi, zeta, eta = qutrit_cubic_coefficients(rho)
    p1, p0, pm = m[0, 0].real, m[4, 4].real, m[8, 8].real
    xi_squares = float(p1**2 + p0**2 + pm**2)

    # From the eigenvalues, not the signs of (xi, zeta, eta): eta is rounding
    # noise when the block has a double zero eigenvalue (dephased |a,a>).
    cubic_negative = bool(np.linalg.eigvalsh(_central_pt_block(m))[0] < -_STRICT_MARGIN)
    plus_negative = bool(abs(m[2, 4]) ** 2 > m[1, 1].real * m[5, 5].real + _STRICT_MARGIN)
    minus_negative = bool(abs(m[4, 6]) ** 2 > m[3, 3].real * m[7, 7].real + _STRICT_MARGIN)

    return CriterionReport(
        xi=xi,
        zeta=zeta,
        eta=eta,
        xi_population_squares=xi_squares,
        cubic_has_negative_root=cubic_negative,
        pt_block_plus_negative=plus_negative,
        pt_block_minus_negative=minus_negative,
        sufficient_entangled=cubic_negative or plus_negative or minus_negative,
        min_pt_eigenvalue=min_pt_eigenvalue(rho),
    )
