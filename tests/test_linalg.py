import numpy as np
import pytest

from dephasim import DimensionMismatchError, partial_trace, partial_transpose
from dephasim.linalg import matrix_exponential
from oracles import partial_trace_oracle, random_density, taylor_expm


def test_expm_trivial_cases():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    d = np.diag([0.3, -1.2 + 0.5j])
    assert np.allclose(matrix_exponential(d), np.diag(np.exp(np.diag(d))), atol=1e-14)


def test_expm_matches_taylor_series():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m *= 5.0 / np.linalg.norm(m, 2)
    assert np.max(np.abs(matrix_exponential(m) - taylor_expm(m, 60))) <= 1e-10


def test_expm_inverse_identity():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m *= 10.0 / np.linalg.norm(m, 2)
    product = matrix_exponential(m) @ matrix_exponential(-m)
    assert np.max(np.abs(product - np.eye(6))) <= 1e-10


def test_partial_trace_product_state():
    rng = np.random.default_rng(16)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    reduced = partial_trace(np.kron(rho_a, rho_b), 1, (2, 2))
    assert np.max(np.abs(reduced - rho_a)) <= 1e-14


def test_partial_trace_bell_marginal():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    assert np.allclose(partial_trace(rho, 2, (2, 2)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_matches_index_oracle():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 9)
    for keep in (1, 2):
        got = partial_trace(rho, keep, (3, 3))
        want = partial_trace_oracle(rho, keep, (3, 3))
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(got - got.conj().T)) <= 1e-12
        assert abs(np.trace(got) - 1.0) <= 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4), 1, (3, 3))


def test_partial_trace_rejects_a_subsystem_other_than_1_or_2():
    with pytest.raises(ValueError, match=r"keep must be 1 or 2, got 3"):
        partial_trace(np.eye(4) / 4, 3, (2, 2))


def test_partial_transpose_rejects_bad_dims():
    with pytest.raises(
        DimensionMismatchError,
        match=r"operator shape \(4, 4\) does not match subsystem dims \(3, 3\)",
    ):
        partial_transpose(np.eye(4), (3, 3))


def test_expm_rejects_a_non_square_matrix():
    with pytest.raises(DimensionMismatchError, match=r"square matrix, got shape \(2, 3\)"):
        matrix_exponential(np.zeros((2, 3)))


def test_expm_of_a_stack_is_the_expm_of_each_slice():
    rng = np.random.default_rng(19)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    for m, exp_m in zip(stack, matrix_exponential(stack)):
        assert np.array_equal(exp_m, matrix_exponential(m))
    with pytest.raises(DimensionMismatchError, match=r"got shape \(5, 4, 3\)"):
        matrix_exponential(stack[:, :, :3])


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


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(20)
    rho = random_density(rng, 6)
    pt = partial_transpose(rho, (2, 3))
    assert abs(np.trace(pt) - np.trace(rho)) <= 1e-15
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-15
