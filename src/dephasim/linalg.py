"""Dense complex linear algebra for small bipartite systems (Hilbert dimension <= 9)."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a general square complex matrix via scaling and squaring."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return scipy.linalg.expm(m)


def partial_trace(rho: np.ndarray, keep: int, dims: tuple[int, int]) -> np.ndarray:
    """Reduced matrix of subsystem `keep` (1 or 2) of a bipartite operator."""
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = dims
    if rho.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {rho.shape} does not match subsystem dims {dims}"
        )
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    blocks = rho.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ijkj->ik", blocks)
    return np.einsum("ijil->jl", blocks)


def partial_transpose(rho: np.ndarray, sub: int, dims: tuple[int, int]) -> np.ndarray:
    """Transpose of one tensor factor (1 or 2) of a bipartite operator."""
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = dims
    if rho.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {rho.shape} does not match subsystem dims {dims}"
        )
    if sub not in (1, 2):
        raise ValueError(f"sub must be 1 or 2, got {sub!r}")
    blocks = rho.reshape(d1, d2, d1, d2)
    if sub == 1:
        blocks = blocks.transpose(2, 1, 0, 3)
    else:
        blocks = blocks.transpose(0, 3, 2, 1)
    return blocks.reshape(d1 * d2, d1 * d2).copy()
