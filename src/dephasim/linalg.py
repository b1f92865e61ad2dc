"""Dense complex linear algebra for small bipartite systems (Hilbert dimension <= 9)."""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatchError


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a square complex matrix, or of each in a stack, via scaling and squaring.

    scipy is imported here, not at module load: only propagation needs it,
    so processes that never propagate (qutrit, compare) never load it.
    """
    import scipy.linalg

    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return scipy.linalg.expm(m)


def _pair_dims(dims: tuple[int, int]) -> tuple[int, int]:
    """(d1, d2) of subsystem dims; DimensionMismatchError unless `dims` is two integers."""
    try:
        d1, d2 = map(operator.index, dims)
    except (TypeError, ValueError):
        raise DimensionMismatchError(f"dims must be a pair of integers, got {dims!r}") from None
    return d1, d2


def _bipartite(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The (d1, d2, d1, d2) view of a bipartite operator whose shape matches `dims`."""
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = _pair_dims(dims)
    if rho.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {rho.shape} does not match subsystem dims {dims}"
        )
    return rho.reshape(d1, d2, d1, d2)


def partial_trace(rho: np.ndarray, keep: int, dims: tuple[int, int]) -> np.ndarray:
    """Reduced matrix of subsystem `keep` (1 or 2) of a bipartite operator."""
    blocks = _bipartite(rho, dims)
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep!r}")
    if keep == 1:
        return np.einsum("ijkj->ik", blocks)
    return np.einsum("ijil->jl", blocks)


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose of party 2's factor of a bipartite operator.

    Party 1's partial transpose is the full transpose of this one, with the same spectrum.
    """
    d1, d2 = _pair_dims(dims)
    return _bipartite(rho, dims).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2).copy()
