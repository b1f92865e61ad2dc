"""Dense complex linear algebra: the pairs' Hilbert dimension 4 or 9, and the qubit pair's 16-dimensional Liouville space."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import _numbers
from .states import _pair


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
    """exp of each slice of a (k, n, n) complex128 stack, k and n positive; diagonal and full slices get scipy's bits.

    As in scipy.linalg.expm, a diagonal slice gets np.diag(np.exp(np.diag(a)))
    and any other the Pade approximant of Al-Mohy & Higham (2009) from
    pick_pade_structure and pade_UV_calc, then s squarings. Slice j's
    exponential lands in row j of one buffer, whose rows j..j+4 are its
    kernels' scratch. A squaring step is one in-place stacked matmul per run
    of slices whose s does not fall (rising times give one run), on the run's
    suffix that still needs it; numpy runs one matrix's zgemm on each slice,
    so a full slice has the bits of scipy's `eAw @ eAw`. A triangular,
    non-diagonal slice, which no generator * t is and which scipy gives a
    formula of its own, agrees with scipy to rounding, not to the bit.

    Only scipy's Pade kernels are loaded, on first use (see _pade_kernels):
    processes that never propagate (qutrit, compare) load no scipy module,
    and no call imports scipy.linalg.
    """
    pick_pade_structure, pade_UV_calc = _pade_kernels()

    k, n, _ = m.shape
    # scipy's bandwidth test, on the whole stack: a NaN counts as a nonzero entry. Past
    # its first entry, a slice is n - 1 runs of n off-diagonal entries and a diagonal one.
    off_diagonal = m.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[..., :n]
    diagonal = ~off_diagonal.any(axis=(1, 2))
    out = np.empty((k + 4, n, n), dtype=complex)
    scales = np.zeros(k, dtype=int)
    for j, (a, is_diagonal) in enumerate(zip(m, diagonal.tolist())):
        if is_diagonal:
            out[j] = np.diag(np.exp(np.diag(a)))
            continue
        out[j] = a
        order, scales[j] = pick_pade_structure(out[j : j + 5])
        if order < 0:
            raise MemoryError(f"scipy's Pade structure failed (error code {order})")
        info = pade_UV_calc(out[j : j + 5], order)
        if info != 0:  # as scipy's expm: a failed allocation, or a LAPACK error
            kind = MemoryError if info <= -11 else RuntimeError
            raise kind(f"scipy's Pade approximant failed (error code {info})")
    falls = (np.flatnonzero(scales[1:] < scales[:-1]) + 1).tolist()
    for lo, hi in zip([0, *falls], [*falls, k]):
        run = scales[lo:hi]
        for step in range(run.max(initial=0)):
            live = out[lo + np.searchsorted(run, step, side="right") : hi]
            live[...] = live @ live
    return out[:k]


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose of party 2's factor of an operator on a supported pair `dims` whose shape it matches.

    Party 1's partial transpose is the full transpose of this one, with the same spectrum.
    """
    rho = _numbers("rho", rho, complex)  # a copy: the result shares no memory with the caller's matrix
    return _partial_transpose(rho, _pair(dims, rho.shape).dims[0])


def _partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """partial_transpose of a complex (d*d, d*d) matrix checked already, as a DensityMatrix's is, with no copy first."""
    return rho.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
