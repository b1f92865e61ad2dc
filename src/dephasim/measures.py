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

    ``xi, zeta, eta`` are the coefficients of x^3 - xi x^2 + zeta x + eta, the
    characteristic polynomial of the central 3x3 partial-transpose block;
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


_CENTRAL = np.ix_([0, 4, 8], [0, 4, 8])  # |1,1>, |0,0>, |-1,-1>: the central block


def qutrit_sufficient_entangled(rho: DensityMatrix) -> CriterionReport:
    """Sufficient entanglement condition for the stationary state of two qutrits.

    Fires when the central 3x3 partial-transpose block has a negative
    eigenvalue (equivalently, the cubic has a negative root) or when either
    2x2 coherence block has negative determinant. On states that survived
    collective dephasing this is exact; on arbitrary states it is sufficient.
    """
    if rho.dims != (3, 3):
        raise DimensionMismatchError(f"qutrit entanglement criterion needs dims (3, 3), got {rho.dims}")
    pt = partial_transpose(rho.matrix, (3, 3))
    block = pt[_CENTRAL]
    p1, p0, pm = block.diagonal().real

    # From the eigenvalues, not the signs of (xi, zeta, eta): eta is rounding
    # noise when the block has a double zero eigenvalue (dephased |a,a>).
    cubic_negative = bool(np.linalg.eigvalsh(block)[0] < -_STRICT_MARGIN)
    plus_negative = bool(abs(pt[1, 5]) ** 2 > pt[1, 1].real * pt[5, 5].real + _STRICT_MARGIN)
    minus_negative = bool(abs(pt[3, 7]) ** 2 > pt[3, 3].real * pt[7, 7].real + _STRICT_MARGIN)

    # <1,0|rho|0,1>, <1,-1|rho|-1,1> and <0,-1|rho|-1,0>
    c10, c1m, c0m = block[0, 1], block[0, 2], block[1, 2]
    eta = (
        -p1 * p0 * pm
        + p1 * abs(c0m) ** 2
        + pm * abs(c10) ** 2
        + p0 * abs(c1m) ** 2
        - 2.0 * (c1m * np.conj(c0m) * np.conj(c10)).real
    )
    return CriterionReport(
        xi=float(p1 + p0 + pm),
        zeta=float(p1 * p0 + p1 * pm + p0 * pm - abs(c0m) ** 2 - abs(c10) ** 2 - abs(c1m) ** 2),
        eta=float(eta),
        xi_population_squares=float(p1**2 + p0**2 + pm**2),
        cubic_has_negative_root=cubic_negative,
        pt_block_plus_negative=plus_negative,
        pt_block_minus_negative=minus_negative,
        sufficient_entangled=cubic_negative or plus_negative or minus_negative,
        min_pt_eigenvalue=float(np.linalg.eigvalsh(pt)[0]),
    )
