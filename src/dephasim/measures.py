"""Entanglement and correlation functionals for qubit and qutrit pairs.

The stationary qubit-pair states are X-forms, so their concurrence and mutual
information (in bits) are the closed forms of Yu & Eberly, Quantum Inf.
Comput. 7, 459 (2007). Qutrit pairs get the partial-transpose test and the
sufficient entanglement criterion for two-qutrit stationary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import StationaryXForm
from .errors import DimensionMismatchError
from .linalg import partial_transpose
from .states import DensityMatrix

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


def concurrence_xform(x: StationaryXForm) -> np.ndarray:
    """Closed-form concurrence of each stationary-form point: 2 max(0, |f| - sqrt(a d))."""
    outer = np.sqrt(np.maximum(x.a, 0.0) * np.maximum(x.d, 0.0))
    # hypot, not np.abs: it rounds |f| as abs() of a Python complex does.
    return np.minimum(np.maximum(0.0, 2.0 * (np.hypot(x.f.real, x.f.imag) - outer)), 1.0)


def _plog2(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):  # log2 of the entries that are dropped
        return np.where(p <= _ENTROPY_EIG_FLOOR, 0.0, p * np.log2(p))


def mutual_information_xform(x: StationaryXForm) -> np.ndarray:
    """Closed-form mutual information of each stationary-form point.

    The joint spectrum is {a, d, beta_plus, beta_minus} with
    beta_pm = (b + c +- sqrt((b - c)^2 + 4|f|^2)) / 2, and the marginals are
    diagonal, which yields the sum of eight p*log2(p) terms below.
    """
    # float_power squares through pow(), as a Python float's ** does; ** 2 on an
    # array multiplies, which differs in the last bit for about 1 input in 1300.
    disc = np.sqrt(np.float_power(x.b - x.c, 2) + 4.0 * np.float_power(np.hypot(x.f.real, x.f.imag), 2))
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
    return np.where((_MI_ROUNDING_FLOOR < value) & (value < 0.0), 0.0, value)


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
