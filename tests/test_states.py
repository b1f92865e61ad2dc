import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dephasim import (
    DensityMatrix,
    DimensionMismatchError,
    ParseError,
    StateValidationError,
    dephasing_fixed_point,
    min_pt_eigenvalue,
    parse_ket_expression,
    partial_transpose,
    qutrit_sufficient_entangled,
    validate,
)
from dephasim import states
from dephasim.engine import collective_jz
import oracles


def _projector(amplitudes):
    amp = np.asarray(amplitudes, dtype=complex)
    return np.outer(amp, amp.conj())


_BIG = "1" + "0" * 200  # 1e200: its square overflows a float
_B300 = "1" + "0" * 300


# Basis labels in lexicographic order, so a label's position is its amplitude index.
_LABELS = {
    (2, 2): ["11", "10", "01", "00"],
    (3, 3): [f"{a},{b}" for a in ("1", "0", "-1") for b in ("1", "0", "-1")],
}
# Each known parse: a ket's text and dims; then its amplitudes by basis label, normalized by the test, or another
# spelling of the same state; and the largest entry by which the parsed projector may differ from that (0: exact).
_PARSED = {
    "singlet": ("(|10> - |01>)/sqrt(2)", (2, 2), {"10": 1, "01": -1}, 1e-12),
    "triplet": ("(|10> + |01>)/sqrt(2)", (2, 2), {"10": 1, "01": 1}, 1e-12),
    "bell-11-plus-00": ("(|11> + |00>)/sqrt(2)", (2, 2), {"11": 1, "00": 1}, 1e-12),
    "real-pair": ("0.6*|11> + 0.8*|00>", (2, 2), {"11": 0.6, "00": 0.8}, 1e-12),
    "unnormalized": ("|11> + |00>", (2, 2), {"11": 1, "00": 1}, 1e-12),
    "coefficient-forms": ("0.5*|11> + 1/sqrt(2)*|10> + 0.5|00>", (2, 2), {"11": 0.5, "10": 2**-0.5, "00": 0.5}, 1e-12),
    "sqrt-over-2": ("sqrt(2)/2 * |11> + sqrt(2)/2*|00>", (2, 2), {"11": 1, "00": 1}, 1e-12),
    "basis-00": ("|00>", (2, 2), {"00": 1}, 0),
    "qutrit-basis-0-0": ("|0,0>", (3, 3), {"0,0": 1}, 0),
    "qutrit-basis-1-minus-1": ("|1,-1>", (3, 3), {"1,-1": 1}, 0),
    "qutrit-basis-minus-1-1": ("|-1,1>", (3, 3), {"-1,1": 1}, 0),
    "qutrit-central-sector": ("(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", (3, 3), {"1,-1": 1, "0,0": 1, "-1,1": 1}, 1e-12),
    "qutrit-single-excitation": ("(|1,0> + |0,1>)/sqrt(2)", (3, 3), {"1,0": 1, "0,1": 1}, 1e-12),
    "1e200": (_BIG + "|10>", (2, 2), {"10": 1}, 1e-15),
    "1e200-pair": (_BIG + "|10> + " + _BIG + "|01>", (2, 2), {"10": 1, "01": 1}, 1e-15),
    "1e-13": ("0.0000000000001|10>", (2, 2), {"10": 1}, 1e-15),
    "subnormal": ("0." + "0" * 320 + "1|10>", (2, 2), {"10": 1}, 1e-15),  # its square underflows
    # 1e-9 of its terms' scale survives, although that scale (1e310) overflows a float
    "overflowing-scale": ("(" + _B300 + "|10> - 0.999999999*" + _B300 + "|10>)*10000000000", (2, 2), {"10": 1}, 1e-15),
    # Each amplitude is judged against the terms summed into it, not the largest term; a scale
    # that overflows a float (1e300 * 1e10) marks its amplitude cancelled, with no warning.
    "beside-cancelled": (_BIG + "|10> - " + _BIG + "|10> + |01>", (2, 2), {"01": 1}, 0),
    "beside-cancelled-overflowing-scale": ("(" + _B300 + "|10> - " + _B300 + "|10> + |01>)*10000000000", (2, 2),
                                           {"01": 1}, 0),
    "whitespace": ("( |10>   -|01> ) / sqrt( 2 )", (2, 2), "(|10>-|01>)/sqrt(2)", 0),
    # 1000 deep is a ParseError at position 200: test_faults.py's ket-nested-1000-deep
    "nested-100-deep": ("(" * 100 + "|10>" + ")" * 100, (2, 2), "|10>", 0),
    "arabic-indic-digit": ("\u0663|10>", (2, 2), "|10>", 0),  # U+0663 is a decimal digit, so a coefficient
}


@pytest.mark.parametrize("text, dims, expected, tol", _PARSED.values(), ids=_PARSED)
def test_a_ket_parses_to_its_known_state(text, dims, expected, tol):
    rho = parse_ket_expression(text, dims)
    if isinstance(expected, str):
        want = parse_ket_expression(expected, dims).matrix
    else:
        amplitudes = np.zeros(len(_LABELS[dims]))
        for label, value in expected.items():
            amplitudes[_LABELS[dims].index(label)] = value
        want = _projector(amplitudes / np.linalg.norm(amplitudes))
    assert np.max(np.abs(rho.matrix - want)) <= tol
    assert validate(rho.matrix, dims).dims == dims  # the parsed state passes the checks as it is


def _numerals():
    """Numerals of up to 400 digits, 1e-400 to 9e399: a digit and up to 399 zeros, before or after the point."""
    return st.builds(
        lambda digit, zeros, small: "0." + "0" * zeros + digit if small else digit + "0" * zeros,
        st.sampled_from("123456789"),
        st.integers(0, 399),
        st.booleans(),
    )


def _scalars():
    """Sums, products and quotients of numerals, in nested parentheses."""
    return st.recursive(
        _numerals(),
        lambda s: st.one_of(
            st.builds("({} {} {})".format, s, st.sampled_from("+-*"), s),
            st.builds("({}/{})".format, s, _numerals()),
        ),
        max_leaves=4,
    )


def _ket_expressions():
    """Sums of kets times or over such scalars, in nested parentheses."""
    kets = st.sampled_from(["|10>", "|01>", "|11>", "|00>"])
    return st.recursive(
        st.one_of(kets, st.builds("{}{}".format, _numerals(), kets)),
        lambda k: st.one_of(
            st.builds("({} {} {})".format, k, st.sampled_from("+-"), k),
            st.builds("{}*{}".format, _scalars(), k),
            st.builds("{}/{}".format, k, _numerals()),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(_ket_expressions())
@example("(" + _B300 + "|10> + " + _B300 + "|01>)*10000000000")
@example("((" + _B300 + "|10> - " + _B300 + "|10>)*" + _B300 + " + |01>)/0." + "0" * 300 + "1")
def test_parse_arithmetic_of_long_numerals_is_a_state_or_a_parse_error(text):
    # pyproject.toml makes every warning an error, so an overflow or NaN must not warn
    try:
        psi = parse_ket_expression(text, (2, 2))
    except ParseError:
        return
    assert abs(np.trace(psi.matrix) - 1.0) <= 1e-10


def test_parser_is_total_on_random_garbage():
    rng = np.random.default_rng(21)
    # ASCII grammar characters plus a superscript digit, a non-Latin digit, a
    # fullwidth digit, non-ASCII letters and Unicode spaces
    pool = list("()|><+-*/sqrt 0123456789.,") + list("\u00b2\u0663\uff11\u00e9\u00aa\u03a9\u00a0\u3000")
    for _ in range(400):
        text = "".join(rng.choice(pool, size=rng.integers(1, 24)))
        try:
            psi = parse_ket_expression(text, (2, 2))
        except ParseError:
            continue
        assert abs(np.trace(psi.matrix) - 1.0) <= 1e-10


@given(dims=st.sampled_from(list(_LABELS)), data=st.data())
def test_parse_round_trips_printed_real_states(dims, data):
    labels = _LABELS[dims]
    terms = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(labels) - 1), st.floats(-10.0, 10.0)),
            min_size=1,
            max_size=12,
        )
    )
    expected = np.zeros(len(labels))
    for index, coefficient in terms:
        expected[index] += coefficient
    norm = np.linalg.norm(expected)
    assume(norm > 1e-3)
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c):.17f}*|{labels[i]}>" for i, c in terms)
    psi = parse_ket_expression(text, dims)
    assert np.max(np.abs(psi.matrix - _projector(expected / norm))) <= 1e-12


@pytest.mark.parametrize("dims", [[2, 2], (np.int64(2), 2), np.array([2, 2])])
def test_density_matrix_stores_any_integer_pair_as_a_tuple(dims):
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert np.array_equal(dephasing_fixed_point(rho).matrix, rho.matrix)
    assert np.array_equal(collective_jz(dims), collective_jz((2, 2)))  # the same dims check


# An int of more than 4300 digits, which repr refuses: a message prints its pair as this.
_HUGE, _TOO_LONG = 10**5000, "<tuple too long to print>"
# Dims that are not one of the two pairs the paper studies, each with the size
# of a matrix it would otherwise describe and the text the message shows. A
# mixed qubit-qutrit pair is refused too.
_UNSUPPORTED_DIMS = {
    "2x3": ((2, 3), 6, "(2, 3)"),
    "2x4": ((2, 4), 8, "(2, 4)"),
    "3x2": ((3, 2), 6, "(3, 2)"),
    "4x4": ((4, 4), 16, "(4, 4)"),
    "2x3-array": (np.array([2, 3]), 6, "(2, 3)"),
    "1x4-list": ([np.int64(1), 4], 4, "(1, 4)"),
    "-2x-2": ((-2, -2), 4, "(-2, -2)"),
    "0x0": ((0, 0), 0, "(0, 0)"),
    "single": ((2,), 4, "(2,)"),
    "2x2x1": ((2, 2, 1), 4, "(2, 2, 1)"),
    "2x2x2": ((2, 2, 2), 4, "(2, 2, 2)"),
    "None": (None, 4, "None"),
    "int": (5, 4, "5"),
    "floats": ((2.0, 2.0), 4, "(2.0, 2.0)"),
    "float-and-int": ((2.0, 2), 4, "(2.0, 2)"),
    "1e5000": ((_HUGE,), 4, _TOO_LONG),  # refused as it unpacks
    "1e5000x1": ((_HUGE, 1), 4, _TOO_LONG),  # unpacks, refused at the table lookup
    "1e5000x2": ((_HUGE, 2), 4, _TOO_LONG),
}


@pytest.mark.parametrize("dims, size, shown", list(_UNSUPPORTED_DIMS.values()), ids=list(_UNSUPPORTED_DIMS))
@pytest.mark.parametrize(
    "entry",
    [
        lambda dims, size: DensityMatrix(np.eye(size), dims),
        lambda dims, size: partial_transpose(np.eye(size), dims),
        lambda dims, size: parse_ket_expression("|10>", dims),
        lambda dims, size: collective_jz(dims),
    ],
    ids=["DensityMatrix", "partial_transpose", "parse_ket_expression", "collective_jz"],
)
def test_every_state_and_operator_takes_only_the_two_pairs(entry, dims, size, shown):
    message = rf"^supported pairs are \(2, 2\) and \(3, 3\), got {re.escape(shown)}$"
    with pytest.raises(DimensionMismatchError, match=message):
        entry(dims, size)


@pytest.mark.parametrize(
    "entry",
    [
        lambda dims: DensityMatrix(np.eye(4), dims),
        lambda dims: partial_transpose(np.eye(4), dims),
        lambda dims: parse_ket_expression("|10>", dims),
        lambda dims: collective_jz(dims),
    ],
    ids=["DensityMatrix", "partial_transpose", "parse_ket_expression", "collective_jz"],
)
def test_an_endless_dims_iterable_is_refused_at_its_third_item(entry):
    dims = itertools.count(2)
    with pytest.raises(DimensionMismatchError, match=r"^supported pairs are \(2, 2\) and \(3, 3\), got count\(5\)$"):
        entry(dims)
    assert next(dims) == 5  # the third item was taken and refused; no more


# Entries the propagation path can meet when a propagator overflows.
_EXTREME = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e300j, 1e308, complex(np.nan, 1.0), complex(1.0, np.inf)]


@st.composite
def _near_density_matrices(draw):
    """A 4x4 or 9x9 density matrix with its least eigenvalue near -1e-9, then optionally a
    Hermiticity and a trace defect near 1e-10 and one non-finite or huge entry (or pair)."""
    dim = draw(st.sampled_from([4, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    least = draw(st.floats(-3e-9, 1e-9))
    weights = rng.random(dim - 1)
    spectrum = np.concatenate([[least], weights / weights.sum() * (1.0 - least)])
    u = oracles.random_unitary(rng, dim)
    m = (u * spectrum) @ u.conj().T
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    m[i, j] += 1j * draw(st.floats(-3e-10, 3e-10))
    m[j, j] += draw(st.floats(-3e-10, 3e-10))
    entry = draw(st.one_of(st.none(), st.sampled_from(_EXTREME)))
    if entry is not None:
        m[i, j] = entry
        if draw(st.booleans()):
            m[j, i] = np.conj(entry)
    return m


class _Recorded(Exception):
    """Stands in for StateValidationError to keep the magnitude unformatted."""

    def __init__(self, message, magnitude):
        super().__init__(message, magnitude)


@settings(max_examples=300, deadline=None)
@given(m=_near_density_matrices())
@example(m=np.diag([-0.1, 0.6, 0.5, 0.0]).astype(complex))  # only a negative eigenvalue
def test_the_shared_state_check_agrees_with_its_first_form(m):
    # _check_state holds the oracle's Hermiticity and trace checks and passes a
    # matrix whose one fault is a negative eigenvalue; DensityMatrix holds all three.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):  # as stationary_xforms holds it
            expected = oracles.state_check_oracle(m)
            with mock.patch.object(states, "StateValidationError", _Recorded):
                try:
                    states._check_state(m)
                    got = None
                except _Recorded as error:
                    got = error.args
        dims = (2, 2) if len(m) == 4 else (3, 3)
        if expected is None:
            DensityMatrix(m, dims)
        else:
            with pytest.raises(StateValidationError) as error:
                DensityMatrix(m, dims)
            assert str(error.value) == f"{expected[0]} (magnitude {expected[1]:.3e})"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if expected is not None and expected[0] == "matrix has a negative eigenvalue":
        expected = None
    assert (got is None) == (expected is None)
    if got is not None:
        (message, magnitude), (want_message, want_magnitude) = got, expected
        assert message == want_message
        assert magnitude == want_magnitude or math.isnan(magnitude) and math.isnan(want_magnitude)


def _hermitian_cases(dim, rng):
    """Seeded Hermitian matrices of one size: dense of each rank, diagonal, degenerate and rank-one."""
    u = oracles.random_unitary(rng, dim)
    degenerate = (u * np.where(np.arange(dim) < 2, 0.5, 0.0)) @ u.conj().T  # 0.5 twice, then zeros
    rank_one = _projector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    diagonal = np.diag(rng.normal(size=dim)).astype(complex)
    dense = [oracles.random_density(rng, dim, rank) for rank in range(1, dim + 1)]
    return [*dense, degenerate, rank_one, diagonal, np.eye(dim, dtype=complex) / dim]


@pytest.mark.parametrize("dim", [3, 4, 9])
def test_the_eigenvalue_seam_has_the_bits_of_numpy_eigvalsh(dim):
    for m in _hermitian_cases(dim, np.random.default_rng(dim)):
        for view in (m, np.asfortranarray(m), np.kron(m, np.ones((2, 2)))[::2, ::2]):  # strided, as a central block
            got, want = states._eigvalsh(view), np.linalg.eigvalsh(view)
            assert got.dtype == want.dtype and list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


def _failing_eigvalsh_lo(m, signature):
    """What LAPACK leaves when it fails: NaNs, with the invalid flag raised (inf - inf)."""
    return np.full(m.shape[-1], np.inf) - np.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: validate(rho.matrix, (3, 3)),
        qutrit_sufficient_entangled,
        min_pt_eigenvalue,
    ],
    ids=["validate", "qutrit_sufficient_entangled", "min_pt_eigenvalue"],
)
def test_a_lapack_failure_is_a_linalg_error_without_a_warning(monkeypatch, call):
    rho = parse_ket_expression("(|1,-1> + |0,0>)/sqrt(2)", (3, 3))
    monkeypatch.setattr(np.linalg._umath_linalg, "eigvalsh_lo", _failing_eigvalsh_lo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            call(rho)
