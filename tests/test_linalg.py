import importlib.machinery
import importlib.util
import itertools
import sys

import numpy as np
import pytest
import scipy.linalg

import dephasim
from dephasim import (
    SweepConfig,
    parse_ket_expression,
    partial_transpose,
    run_sweep,
    stationary_xforms,
)
import dephasim.engine as engine_module
from dephasim.engine import build_liouvillian
import dephasim.linalg as linalg_module
from dephasim.linalg import _pade_kernels, matrix_exponential
from oracles import diagonal_slices_oracle, partial_trace_oracle, random_density, taylor_expm
from test_package import _KERNELS, _fresh


def test_matrix_exponential_is_not_public():
    # Not public, but defined where the engine and the benchmark's tracer look it up.
    assert not hasattr(dephasim, "matrix_exponential")
    assert callable(linalg_module.matrix_exponential)


def test_expm_trivial_cases():
    assert np.allclose(matrix_exponential(np.zeros((2, 3, 3), dtype=complex)), np.eye(3), atol=1e-15)
    d = np.stack([np.diag([0.3, -1.2 + 0.5j]), np.diag([-2.0, 1j])])
    want = np.stack([np.diag(np.exp(np.diag(a))) for a in d])
    assert np.allclose(matrix_exponential(d), want, atol=1e-14)


def test_expm_leaves_its_stack_untouched_and_shares_no_memory_with_it():
    # With no dtype coercion, the kernel reads the caller's stack itself; the
    # Pade kernels and the squaring work in a buffer of their own.
    stack = build_liouvillian(31.25) * np.linspace(0.0, 4.0, 8)[:, None, None]
    given = stack.copy()
    got = matrix_exponential(stack)
    assert np.array_equal(stack.view(np.uint64), given.view(np.uint64))
    assert not np.shares_memory(got, stack) and got.flags.writeable


@pytest.mark.parametrize(
    "order, info, error, message",
    [
        (-1, 0, MemoryError, r"Pade structure failed \(error code -1\)"),
        (3, -11, MemoryError, r"Pade approximant failed \(error code -11\)"),
        (3, -1, RuntimeError, r"Pade approximant failed \(error code -1\)"),
        (3, 2, RuntimeError, r"Pade approximant failed \(error code 2\)"),
    ],
    ids=["structure", "allocation", "argument", "singular"],
)
def test_a_failed_pade_kernel_raises_as_scipy(order, info, error, message, monkeypatch):
    # As scipy's expm: a negative order is a failed allocation; a nonzero code from
    # pade_UV_calc is one at or below -11, otherwise a LAPACK error.
    monkeypatch.setattr(linalg_module, "_pade_kernels", lambda: (lambda buffer: (order, 0), lambda buffer, m: info))
    with pytest.raises(error, match=message):
        matrix_exponential(build_liouvillian(31.25)[None])


def test_expm_matches_taylor_series():
    rng = np.random.default_rng(14)
    stack = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
    stack *= 5.0 / np.linalg.norm(stack, 2, axis=(1, 2))[:, None, None]
    for m, exp_m in zip(stack, matrix_exponential(stack)):
        assert np.max(np.abs(exp_m - taylor_expm(m, 60))) <= 1e-10


def test_expm_inverse_identity():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m *= 10.0 / np.linalg.norm(m, 2)
    exp_m, exp_minus_m = matrix_exponential(np.stack([m, -m]))
    assert np.max(np.abs(exp_m @ exp_minus_m - np.eye(6))) <= 1e-10


def test_partial_trace_oracle_of_a_product_state():
    rng = np.random.default_rng(16)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace_oracle(rho, 1, (2, 2)) - rho_a)) <= 1e-14
    assert np.max(np.abs(partial_trace_oracle(rho, 2, (2, 2)) - rho_b)) <= 1e-14


def test_partial_trace_oracle_of_a_bell_state_is_maximally_mixed():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    for keep in (1, 2):
        assert np.allclose(partial_trace_oracle(rho, keep, (2, 2)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_oracle_gives_each_party_its_expectation_values():
    # The defining property: Tr(rho_1 A) = Tr(rho (A x 1)) and Tr(rho_2 B) = Tr(rho (1 x B)).
    rng = np.random.default_rng(17)
    rho = random_density(rng, 9)
    eye = np.eye(3)
    for keep, embed in ((1, lambda a: np.kron(a, eye)), (2, lambda b: np.kron(eye, b))):
        reduced = partial_trace_oracle(rho, keep, (3, 3))
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            op = g + g.conj().T
            assert abs(np.trace(reduced @ op) - np.trace(rho @ embed(op))) <= 1e-12


def test_expm_of_a_stack_is_the_expm_of_each_slice():
    rng = np.random.default_rng(19)
    for n in (4, 16):
        stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        for j, exp_m in enumerate(matrix_exponential(stack)):
            assert np.array_equal(exp_m, matrix_exponential(stack[j : j + 1])[0])
        _assert_scipy_bits(stack)


def _assert_scipy_bits(m):
    """matrix_exponential(m) of a (k, n, n) stack has the shape and the bits, signs of zeros and
    NaNs included, of scipy.linalg.expm(m); the stacked path calls scipy's private Pade kernels."""
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = matrix_exponential(m), scipy.linalg.expm(m)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("omega1", [0.0, 1e-3, 31.25, 1e4])
def test_expm_of_propagator_blocks_has_the_bits_of_scipy(omega1):
    # The paper's grid at its omega1 = 31.25, then bisection-like midpoints, in
    # the engine's blocks of 64; the other drives on a coarser grid.
    samples = 2000 if omega1 == 31.25 else 130
    rng = np.random.default_rng(21)
    times = np.concatenate([np.linspace(0.0, 4.0, samples), rng.uniform(0.0, 4.0, 500)])
    generator = build_liouvillian(omega1)
    for start in range(0, len(times), 64):
        _assert_scipy_bits(generator * times[start : start + 64, None, None])


def test_expm_of_a_mixed_stack_has_the_bits_of_scipy():
    # Zero and diagonal slices take scipy's diagonal formula; the others, NaN
    # and overflow included, the Pade kernels and stacked squaring. The full
    # ones have scipy's bits; the triangular ones, for which scipy has a
    # formula of its own, agree with it to rounding.
    generator = build_liouvillian(31.25)
    with_nan = 0.7 * generator
    with_nan[0, 15] = np.nan
    stack = np.stack(
        [
            np.zeros((16, 16)),
            np.diag(np.diag(generator)),
            np.triu(generator),
            np.tril(generator),
            0.7 * generator,
            with_nan,
            np.full((16, 16), np.nan),
            build_liouvillian(1e17),
            1e3 * build_liouvillian(1e17),  # overflows on some BLAS kernels
            np.full((16, 16), 100.0),  # exp(1600) overflows: squaring leaves NaN
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(matrix_exponential(stack[-1:])).all()
    triangular = np.isin(np.arange(len(stack)), [2, 3])
    for order in (slice(None), slice(None, None, -1)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = matrix_exponential(stack[order]), scipy.linalg.expm(stack[order])
        exact = ~triangular[order]
        assert np.array_equal(got[exact].view(np.uint64), want[exact].view(np.uint64))
        for got_k, want_k in zip(got[~exact], want[~exact]):
            assert np.linalg.norm(got_k - want_k) <= 1e-13 * np.linalg.norm(want_k)


def test_expm_of_diagonal_slices_has_the_bits_of_scipy():
    # scipy's np.diag(np.exp(np.diag(a))), signed zeros and non-finite entries included
    entries = [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -np.inf, np.inf, np.nan, 1j * np.pi, 710.0]
    diagonal = np.diag(np.array(entries, dtype=complex))
    _assert_scipy_bits(diagonal[None])
    flipped = np.diag(np.diag(diagonal)[::-1])
    _assert_scipy_bits(np.stack([diagonal, np.zeros((8, 8), dtype=complex), -diagonal, flipped]))
    _assert_scipy_bits(np.array(entries, dtype=complex).reshape(8, 1, 1))


def test_a_sweep_exponentiates_at_most_64_pulse_times_per_call(monkeypatch):
    # The engine's blocks bound its memory: one stack for a 2000-point grid adds ~29 MB of peak RSS.
    # Every call, the grid's, the bisection steps' and shuffled times', hands the kernel the one
    # form it takes: a 3-D complex128 stack of at most 64 generator slices.
    calls = []
    record = lambda m: calls.append((m.dtype, m.shape)) or matrix_exponential(m)
    monkeypatch.setattr(engine_module, "matrix_exponential", record)
    run_sweep(SweepConfig("(|10> - |01>)/sqrt(2)", omega_ratio=31.25, samples=200))
    assert [shape for _, shape in calls[:4]] == [(64, 16, 16)] * 3 + [(8, 16, 16)]  # the grid takes exactly 4 calls
    assert len(calls) > 4  # then the bisection steps'
    grid_and_steps = len(calls)
    times = np.random.default_rng(47).permutation(np.linspace(0.0, 4.0, 150))
    stationary_xforms(parse_ket_expression("(|11> + |00>)/sqrt(2)", (2, 2)), 31.25, times)
    assert len(calls) == grid_and_steps + 3
    assert all(dtype == np.complex128 and len(shape) == 3 and 1 <= shape[0] <= 64 for dtype, shape in calls)
    assert all(shape[1:] == (16, 16) for _, shape in calls)


@pytest.fixture
def pade_calls(monkeypatch):
    """(slice, s) of each pick_pade_structure call that matrix_exponential makes, in order."""
    pick_pade_structure, pade_uv_calc = _pade_kernels()
    calls = []

    def recording_pick(buffer):
        given = buffer[0].copy()
        order, s = pick_pade_structure(buffer)
        calls.append((given, s))
        return order, s

    monkeypatch.setattr(linalg_module, "_pade_kernels", lambda: (recording_pick, pade_uv_calc))
    return calls


@pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
def test_expm_of_propagators_in_any_time_order_has_the_bits_of_scipy(order, pade_calls):
    # Rising times give rising s, squared as they stand; where s falls, the
    # slices are sorted by s first. Either way each has scipy's per-slice bits.
    times = np.linspace(0.0, 4.0, 64)
    times = {"rising": times, "falling": times[::-1], "shuffled": np.random.default_rng(31).permutation(times)}
    stack = build_liouvillian(31.25) * times[order][:, None, None]
    got = matrix_exponential(stack)
    want = np.stack([scipy.linalg.expm(a) for a in stack])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    scales = np.array([s for _, s in pade_calls])
    assert len(scales) == 63 and scales.max() > 0  # t = 0 is a diagonal slice
    assert np.any(np.diff(scales) < 0) == (order != "rising")


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_expm_takes_the_slices_the_triangles_find_diagonal_to_the_diagonal_formula(n, pade_calls):
    # Each slice holds one nonzero, signed zero or NaN at one off-diagonal
    # position of a diagonal matrix; the Pade kernels get exactly the others.
    background = np.diag(np.arange(1.0, n + 1)).astype(complex)
    slices = [background, np.diag(np.full(n, np.nan)).astype(complex)]
    for i, j in itertools.permutations(range(n), 2):
        for value in (1.0, 1j, 5e-324, -0.0, np.nan):
            slices.append(background.copy())
            slices[-1][i, j] = value
    stack = np.array(slices)
    diagonal = diagonal_slices_oracle(stack)
    assert np.count_nonzero(~diagonal) == 4 * n * (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = matrix_exponential(stack)
    assert got.shape == stack.shape
    to_pade = np.array([given for given, _ in pade_calls], dtype=complex).reshape(-1, n, n)
    assert np.array_equal(to_pade.view(np.uint64), stack[~diagonal].view(np.uint64))
    want = np.stack([np.diag(np.exp(np.diag(a))) for a in stack[diagonal]])
    assert np.array_equal(got[diagonal].view(np.uint64), want.view(np.uint64))


def test_a_missing_scipy_or_kernel_file_is_an_import_error(monkeypatch):
    load = _pade_kernels.__wrapped__  # past the cache, which holds the kernels already loaded
    monkeypatch.delitem(sys.modules, "scipy.linalg._matfuncs_expm")
    with monkeypatch.context() as patch:
        patch.setattr(importlib.util, "find_spec", lambda name: None)  # no scipy
        with pytest.raises(ImportError, match="scipy.linalg._matfuncs_expm"):
            load()
    with monkeypatch.context() as patch:
        patch.setattr(importlib.machinery.PathFinder, "find_spec", lambda name, path: None)  # no kernel file
        with pytest.raises(ImportError, match="scipy.linalg._matfuncs_expm"):
            load()


def test_partial_transpose_product_factorization():
    rng = np.random.default_rng(18)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    got = partial_transpose(np.kron(rho_a, rho_b), (2, 2))
    assert np.max(np.abs(got - np.kron(rho_a, rho_b.T))) <= 1e-15


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(19)
    rho = random_density(rng, 9)
    assert np.array_equal(partial_transpose(partial_transpose(rho, (3, 3)), (3, 3)), rho)


def test_partial_transpose_singlet_spectrum():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    pt = partial_transpose(np.outer(psi, psi), (2, 2))
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_partial_transpose_preserves_trace_and_hermiticity(d):
    rng = np.random.default_rng(20)
    rho = random_density(rng, d * d)
    pt = partial_transpose(rho, (d, d))
    assert abs(np.trace(pt) - np.trace(rho)) <= 1e-15
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_partial_transpose_never_shares_memory_with_its_input(d):
    rho = random_density(np.random.default_rng(21), d * d)
    inputs = [rho, np.asfortranarray(rho), rho.T, np.broadcast_to(rho[0, 0], rho.shape), rho.real]
    for given in inputs:
        pt = partial_transpose(given, (d, d))
        assert not np.shares_memory(pt, given) and pt.flags.writeable
        assert np.array_equal(pt, partial_transpose(np.array(given), (d, d)))


# In a fresh interpreter, matrix_exponential loads scipy's Pade kernels by
# themselves; this process already holds scipy.linalg, so only a child reaches
# that branch. Each stage prints the scipy modules loaded after it: a
# triangular slice imports no scipy.linalg either, and agrees with scipy's own
# triangular formula to rounding.
_COLD_EXPM = """
import sys
import numpy as np
from dephasim.engine import build_liouvillian
from dephasim.linalg import matrix_exponential

def loaded():
    print(*sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), flush=True)

generator = build_liouvillian(31.25)
stack = np.concatenate(
    [generator * np.linspace(0.0, 40.0, 7)[:, None, None], np.zeros((2, 16, 16)),
     np.diag(np.diag(generator))[None], np.diag(np.arange(16) * (1 - 2j))[None]]
)
got = matrix_exponential(stack)
loaded()
triangular = np.triu(generator)
(got_triangular,) = matrix_exponential(triangular[None])
loaded()
import scipy.linalg
assert np.array_equal(got.view(np.uint64), scipy.linalg.expm(stack).view(np.uint64))
want_triangular = scipy.linalg.expm(triangular)
assert np.linalg.norm(got_triangular - want_triangular) <= 1e-13 * np.linalg.norm(want_triangular)
print("same bits", flush=True)
"""


def test_cold_expm_loads_the_pade_kernels_alone_with_the_bits_of_scipy(tmp_path):
    proc = _fresh(["-c", _COLD_EXPM], tmp_path)
    assert proc.returncode == 0, proc.stderr
    generic, triangular, verdict = proc.stdout.splitlines()
    assert generic.split() == triangular.split() == [_KERNELS]
    assert verdict == "same bits"
