"""Dense complex linear algebra for small bipartite systems (Hilbert dimension <= 9)."""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatchError


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a square complex matrix, or of each in a stack, with the bits of scipy.linalg.expm.

    scipy's expm loops over a stack's slices: a diagonal or triangular slice
    gets its own formula, and any other slice gets the Pade approximant of
    Al-Mohy & Higham (2009) from pick_pade_structure and pade_UV_calc, then s
    squarings. Here the structure test runs once on the stack, scipy's expm
    takes the diagonal and triangular slices, the two Pade kernels run per
    slice, and squaring step k is one stacked matmul of every slice with
    s > k. numpy runs the same zgemm on each slice of a stack, so every
    result has the bits of scipy's per-slice `eAw @ eAw`.

    scipy is imported here, not at module load: only propagation needs it,
    so processes that never propagate (qutrit, compare) never load it.
    """
    import scipy.linalg
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    out = np.empty_like(stack)
    # scipy's bandwidth test, on the whole stack: a NaN counts as a nonzero entry.
    generic = np.tril(stack, -1).any(axis=(1, 2)) & np.triu(stack, 1).any(axis=(1, 2))
    if not generic.all():
        out[~generic] = scipy.linalg.expm(stack[~generic])
    index = np.flatnonzero(generic)
    scales = np.empty(len(index), dtype=int)
    # Slice j's 5-matrix kernel scratch is rows j..j+4: its approximant lands
    # in row j, and the next slice's scratch starts just past it.
    pade = np.empty((len(index) + 4, n, n), dtype=complex)
    for j, k in enumerate(index):
        pade[j] = stack[k]
        order, scales[j] = pick_pade_structure(pade[j : j + 5])
        if order < 0:
            raise MemoryError(f"scipy's Pade structure failed (error code {order})")
        info = pade_UV_calc(pade[j : j + 5], order)
        if info != 0:  # as scipy's expm: a failed allocation, or a LAPACK error
            kind = MemoryError if info <= -11 else RuntimeError
            raise kind(f"scipy's Pade approximant failed (error code {info})")
    # In falling order of s, the slices still to square at step k are a prefix.
    by_scale = np.argsort(-scales)
    pade, scales = pade[by_scale], scales[by_scale]
    for step in range(scales.max(initial=0)):
        live = np.count_nonzero(scales > step)
        pade[:live] = pade[:live] @ pade[:live]
    out[index[by_scale]] = pade
    return out.reshape(m.shape)


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
