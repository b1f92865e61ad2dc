"""Dense complex linear algebra for small bipartite systems (Hilbert dimension <= 9)."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys

import numpy as np

from .errors import DimensionMismatchError


@functools.cache
def _pade_kernels():
    """scipy's compiled Pade kernels (pick_pade_structure, pade_UV_calc), loaded on first use.

    The extension scipy.linalg._matfuncs_expm is plain C linked to scipy's
    bundled OpenBLAS, so it is found and loaded as a file: neither
    scipy/__init__ nor scipy/linalg/__init__ runs, and a propagating process
    skips the import of scipy.linalg, which outweighs the rest of a short
    sweep. A module already imported is reused. A missing scipy or kernel
    file raises ImportError.
    """
    name = "scipy.linalg._matfuncs_expm"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        dirs = [os.path.join(d, "linalg") for d in (scipy and scipy.submodule_search_locations) or ()]
        spec = importlib.machinery.PathFinder.find_spec(name, dirs)
        if spec is None:
            raise ImportError(f"No module named {name!r}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.pick_pade_structure, module.pade_UV_calc


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(m) of a square complex matrix, or of each in a stack; diagonal and full slices get scipy's bits.

    scipy.linalg.expm loops over a stack's slices: a diagonal or triangular
    slice gets its own formula, and a full one (neither upper nor lower
    triangular) the Pade approximant of Al-Mohy & Higham (2009) from
    pick_pade_structure and pade_UV_calc, then s squarings. Here the
    structure test runs once on the stack, scipy's diagonal formula
    np.diag(np.exp(np.diag(a))) runs on every diagonal slice at once, the two
    Pade kernels run per other slice, and squaring step k is one stacked
    matmul of every slice with s > k. numpy runs the same zgemm on each slice
    of a stack, so a full slice has the bits of scipy's per-slice `eAw @ eAw`.
    A triangular, non-diagonal slice, which no generator * t is, takes the
    Pade path too and agrees with scipy to rounding, not to the bit.

    scipy is loaded here, not at module load, and only its Pade kernels are
    (see _pade_kernels): processes that never propagate (qutrit, compare)
    load no scipy module, and no call imports scipy.linalg.
    """
    pick_pade_structure, pade_UV_calc = _pade_kernels()

    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(math.prod(m.shape[:-2]), n, n)  # -1 cannot size an empty (0, 0)
    out = np.empty_like(stack)
    # scipy's bandwidth test, on the whole stack: a NaN counts as a nonzero entry.
    diagonal = ~(np.tril(stack, -1).any(axis=(1, 2)) | np.triu(stack, 1).any(axis=(1, 2)))
    out[diagonal] = 0
    np.einsum("kii->ki", out)[diagonal] = np.exp(np.einsum("kii->ki", stack[diagonal]))
    index = np.flatnonzero(~diagonal)
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


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose of party 2's factor of a bipartite operator whose shape matches `dims`.

    Party 1's partial transpose is the full transpose of this one, with the same spectrum.
    """
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = _pair_dims(dims)
    if rho.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {rho.shape} does not match subsystem dims {dims}"
        )
    return rho.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2).copy()
