"""Reference values computed without dephasim: its own generator, expm and PT spectrum.

The qubit generator uses row-major vectorization, vec(A X B) = (A kron B^T)
vec(X), where the package uses column stacking, so the two share no
propagator code.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# Basis |11>, |10>, |01>, |00>; qutrits |1>, |0>, |-1> per party.
_SX1 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
_QUBIT_M = np.array([1.0, 0.0, 0.0, -1.0])
_QUTRIT_M = np.add.outer([1.0, 0.0, -1.0], [1.0, 0.0, -1.0]).reshape(-1)
# Same floor the package applies to 0 log 0.
_ENTROPY_FLOOR = 1e-12


def _dephase(rho, levels):
    return np.where(levels[:, None] == levels[None, :], rho, 0.0)


def qubit_stationary(psi: np.ndarray, omega: float, gamma_t: float) -> np.ndarray:
    """Drive qubit 1 for gamma_T (gamma = 1) under collective dephasing, then dephase fully."""
    eye = np.eye(4)
    h = 0.5 * omega * _SX1
    jz = np.diag(_QUBIT_M)
    jz_sq = jz @ jz
    gen = (
        -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        + np.kron(jz, jz.T)
        - 0.5 * np.kron(jz_sq, eye)
        - 0.5 * np.kron(eye, jz_sq.T)
    )
    rho0 = np.outer(psi, psi.conj())
    rho = (expm(gen * gamma_t) @ rho0.reshape(-1)).reshape(4, 4)
    return _dephase(rho, _QUBIT_M)


def x_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an X-shaped two-qubit state from its matrix elements."""
    inner = abs(rho[1, 2]) - np.sqrt(max(rho[0, 0].real, 0.0) * max(rho[3, 3].real, 0.0))
    outer = abs(rho[0, 3]) - np.sqrt(max(rho[1, 1].real, 0.0) * max(rho[2, 2].real, 0.0))
    return float(min(max(0.0, 2.0 * inner, 2.0 * outer), 1.0))


def _entropy(m: np.ndarray) -> float:
    p = np.linalg.eigvalsh(m)
    p = p[p > _ENTROPY_FLOOR]
    return float(-np.sum(p * np.log2(p)))


def mutual_information(rho: np.ndarray) -> float:
    """S(rho_1) + S(rho_2) - S(rho) in bits for a two-qubit state."""
    blocks = rho.reshape(2, 2, 2, 2)
    value = (
        _entropy(np.einsum("ijkj->ik", blocks))
        + _entropy(np.einsum("ijil->jl", blocks))
        - _entropy(rho)
    )
    return 0.0 if -1e-10 < value < 0.0 else value


def qutrit_dephased(rho: np.ndarray) -> np.ndarray:
    return _dephase(rho, _QUTRIT_M)


def qutrit_min_pt_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the partial transpose on party 2 of a 3x3 state."""
    pt = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    return float(np.linalg.eigvalsh(pt)[0])
