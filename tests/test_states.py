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


def test_parse_bell_singlet():
    psi = parse_ket_expression("(|10> - |01>)/sqrt(2)", (2, 2))
    expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.max(np.abs(psi.matrix - _projector(expected))) <= 1e-12


def test_parse_qutrit_basis_state():
    psi = parse_ket_expression("|0,0>", (3, 3))
    expected = np.zeros(9)
    expected[4] = 1.0
    assert np.array_equal(psi.matrix, _projector(expected))


def test_parse_qutrit_negative_labels():
    psi = parse_ket_expression("|1,-1>", (3, 3))
    assert psi.matrix[2, 2] == 1.0
    psi = parse_ket_expression("|-1,1>", (3, 3))
    assert psi.matrix[6, 6] == 1.0


def test_parse_coefficient_forms():
    psi = parse_ket_expression("0.5*|11> + 1/sqrt(2)*|10> + 0.5|00>", (2, 2))
    expected = np.array([0.5, 1.0 / np.sqrt(2), 0.0, 0.5])
    assert np.max(np.abs(psi.matrix - _projector(expected))) <= 1e-12
    psi2 = parse_ket_expression("sqrt(2)/2 * |11> + sqrt(2)/2*|00>", (2, 2))
    assert np.max(np.abs(psi2.matrix - _projector(np.array([1, 0, 0, 1]) / np.sqrt(2)))) <= 1e-12


def test_parse_normalizes_unnormalized_input():
    psi = parse_ket_expression("|11> + |00>", (2, 2))
    assert np.max(np.abs(psi.matrix - _projector(np.array([1, 0, 0, 1]) / np.sqrt(2)))) <= 1e-12


def test_parse_is_whitespace_insensitive():
    a = parse_ket_expression("( |10>   -|01> ) / sqrt( 2 )", (2, 2))
    b = parse_ket_expression("(|10>-|01>)/sqrt(2)", (2, 2))
    assert np.array_equal(a.matrix, b.matrix)


def test_parse_unclosed_parenthesis():
    with pytest.raises(ParseError) as excinfo:
        parse_ket_expression("(|11> + |00>", (2, 2))
    assert excinfo.value.position == 0


def test_parse_deep_nesting_is_a_parse_error():
    nested = lambda depth: "(" * depth + "|10>" + ")" * depth
    flat = parse_ket_expression("|10>", (2, 2)).matrix
    assert np.array_equal(parse_ket_expression(nested(100), (2, 2)).matrix, flat)
    with pytest.raises(ParseError) as excinfo:
        parse_ket_expression(nested(1000), (2, 2))
    assert str(excinfo.value) == "parentheses nested more than 200 deep (at position 200)"
    assert excinfo.value.position == 200


def test_parse_label_errors():
    with pytest.raises(ParseError, match="is outside the 3x3 level alphabet"):
        parse_ket_expression("|2,0>", (3, 3))
    with pytest.raises(ParseError, match="is outside the 2x2 level alphabet"):
        parse_ket_expression("|12>", (2, 2))
    with pytest.raises(ParseError, match="needs two levels"):
        parse_ket_expression("|1>", (2, 2))
    with pytest.raises(ParseError, match="must name exactly two subsystems"):
        parse_ket_expression("|1,0,1>", (3, 3))


# An int of more than 4300 digits, which repr refuses: a message prints its pair as this.
_HUGE, _TOO_LONG = 10**5000, "<tuple too long to print>"


# Only the two pairs the paper studies parse; a mixed qubit-qutrit pair is refused too.
@pytest.mark.parametrize(
    "dims, shown",
    [((2, 4), "(2, 4)"), ((3, 2), "(3, 2)"), ((_HUGE, 2), _TOO_LONG)],
    ids=["2x4", "3x2", "1e5000"],
)
def test_parse_rejects_unsupported_dims(dims, shown):
    message = rf"^supported pairs are \(2, 2\) and \(3, 3\), got {re.escape(shown)}$"
    with pytest.raises(DimensionMismatchError, match=message):
        parse_ket_expression("|1,0>", dims)


_CANCELLED = r"^all amplitudes cancel \(at position 0\)$"


def test_parse_zero_norm():
    with pytest.raises(ParseError, match=_CANCELLED) as excinfo:
        parse_ket_expression("|10> - |10>", (2, 2))
    assert excinfo.value.position == 0


_BIG = "1" + "0" * 200  # 1e200: its square overflows a float
_B300 = "1" + "0" * 300


@pytest.mark.parametrize(
    "text, expected",
    [
        (_BIG + "|10>", [0, 1, 0, 0]),
        (_BIG + "|10> + " + _BIG + "|01>", [0, 1, 1, 0]),
        ("0.0000000000001|10>", [0, 1, 0, 0]),
        ("0." + "0" * 320 + "1|10>", [0, 1, 0, 0]),  # subnormal: its square underflows
        # 1e-9 of its terms' scale survives, although that scale (1e310) overflows a float
        ("(" + _B300 + "|10> - 0.999999999*" + _B300 + "|10>)*10000000000", [0, 1, 0, 0]),
    ],
    ids=["1e200", "1e200-pair", "1e-13", "subnormal", "overflowing-scale"],
)
def test_parse_normalizes_extreme_amplitudes(text, expected):
    psi = parse_ket_expression(text, (2, 2))
    expected = np.array(expected) / np.linalg.norm(expected)
    assert np.max(np.abs(psi.matrix - _projector(expected))) <= 1e-15


@pytest.mark.parametrize(
    "text",
    [
        "0.1|10> + 0.2|10> - 0.3|10>",
        "0.0000000000001*(|10> - |10>)",
        "0|10>",
        "(" + _B300 + "|10> - " + _B300 + "|10>)*10000000000",
    ],
)
def test_parse_cancellation_is_relative_to_the_summed_terms(text):
    with pytest.raises(ParseError, match=_CANCELLED):
        parse_ket_expression(text, (2, 2))


def test_parse_keeps_an_amplitude_beside_a_cancelled_one():
    # Each amplitude is judged against the terms summed into it, not the largest term;
    # a scale that overflows a float (1e300 * 1e10) marks its amplitude cancelled, with no warning.
    for text in (
        _BIG + "|10> - " + _BIG + "|10> + |01>",
        "(" + _B300 + "|10> - " + _B300 + "|10> + |01>)*10000000000",
    ):
        psi = parse_ket_expression(text, (2, 2))
        assert np.array_equal(psi.matrix, _projector([0, 0, 1, 0]))


def test_parse_rejects_garbage():
    for text in ("", "0.5", "|10> |01>", "|10> + 2", "foo", "|10", "1/0*|10>", "(|10>))"):
        with pytest.raises(ParseError):
            parse_ket_expression(text, (2, 2))


@pytest.mark.parametrize(
    "text, position",
    [
        ("9" * 400 + "|10>", 0),  # the numeral itself does not fit a float
        ("sqrt(" + "9" * 400 + ")|10>", 5),
        ("1" + "0" * 300 + "*" + "1" + "0" * 300 + "|10>", 301),  # the product overflows at '*'
        ("9" * 308 + "|10> + " + "9" * 308 + "|10>", 313),  # the ket sum overflows at '+'
        ("0." + "0" * 400 + "1|10>", 0),  # a nonzero numeral that underflows to 0.0
        ("sqrt(0." + "0" * 400 + "1)|10>", 5),
        ("|11> + 0." + "0" * 400 + "1|10>", 7),
        # a coefficient times a summed ket: the amplitudes overflow at the operator
        ("(" + _B300 + "|10> + " + _B300 + "|01>)*10000000000", 615),
        ("(" + _B300 + "|10>+|01>)/0." + "0" * 299 + "1", 312),
        ("(" + _B300 + "|10> + " + _B300 + "|01>)*10000000000/10000000000", 615),
    ],
    ids=["numeral", "sqrt-numeral", "product", "ket-sum",
         "underflow-numeral", "underflow-sqrt-numeral", "underflow-second-term",
         "times-ket-sum", "ket-sum-over", "times-ket-sum-over"],
)
def test_parse_rejects_unrepresentable_coefficients(text, position):
    with pytest.raises(ParseError, match="does not fit a float") as excinfo:
        parse_ket_expression(text, (2, 2))
    assert excinfo.value.position == position


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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("\u00b2|10>", "unexpected character '\u00b2'", 0),  # superscript two: a digit, not a decimal
        ("|10> + \u00e9", "unexpected character '\u00e9'", 7),  # a letter outside A-Z
        ("sqrt\u00e9|10>", "unexpected character '\u00e9'", 4),
        ("1/|10>", "expected a number or sqrt(...), found '|10>'", 2),  # a ket token quotes its bars
    ],
    ids=["superscript-digit", "accented-letter", "letter-after-sqrt", "ket-divisor"],
)
def test_parse_rejects_non_ascii_characters_at_their_position(text, message, position):
    with pytest.raises(ParseError) as excinfo:
        parse_ket_expression(text, (2, 2))
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def test_parse_reads_any_decimal_digit():
    # U+0663 ARABIC-INDIC DIGIT THREE is a decimal digit, so it is a coefficient
    psi = parse_ket_expression("\u0663|10>", (2, 2))
    assert np.array_equal(psi.matrix, parse_ket_expression("|10>", (2, 2)).matrix)


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


# Basis labels in lexicographic order, so a label's position is its amplitude index.
_LABELS = {
    (2, 2): ["11", "10", "01", "00"],
    (3, 3): [f"{a},{b}" for a in ("1", "0", "-1") for b in ("1", "0", "-1")],
}


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


@pytest.mark.parametrize(
    "matrix, dims, shape, shown",
    [(np.eye(4) / 4, (3, 3), "(4, 4)", "(3, 3)"), (np.eye(9) / 9, np.array([2, 2]), "(9, 9)", "(2, 2)")],
    ids=["4x4-as-3x3", "9x9-as-2x2"],
)
def test_density_matrix_rejects_a_shape_that_does_not_match_dims(matrix, dims, shape, shown):
    with pytest.raises(
        DimensionMismatchError,
        match=rf"^shape {re.escape(shape)} does not match subsystem dims {re.escape(shown)}$",
    ):
        DensityMatrix(matrix, dims)


@pytest.mark.parametrize("dims", [[2, 2], (np.int64(2), 2), np.array([2, 2])])
def test_density_matrix_stores_any_integer_pair_as_a_tuple(dims):
    rho = DensityMatrix(np.eye(4) / 4, dims)
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert np.array_equal(dephasing_fixed_point(rho).matrix, rho.matrix)
    assert np.array_equal(collective_jz(dims), collective_jz((2, 2)))  # the same dims check


# Dims that are not one of the two pairs the paper studies, each with the size
# of a matrix it would otherwise describe and the text the message shows.
_UNSUPPORTED_DIMS = {
    "2x3": ((2, 3), 6, "(2, 3)"),
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


@pytest.mark.parametrize("text, kind", [(5, "int"), (None, "NoneType"), (b"|10>", "bytes")])
def test_parse_rejects_a_ket_that_is_not_a_str(text, kind):
    with pytest.raises(ParseError, match=rf"ket expression must be a str, got {kind}") as info:
        parse_ket_expression(text, (2, 2))
    assert isinstance(info.value, ValueError)


def test_parse_singlet_is_its_projector_block():
    rho = parse_ket_expression("(|10> - |01>)/sqrt(2)", (2, 2))
    m = rho.matrix
    assert abs(m[1, 1] - 0.5) <= 1e-12 and abs(m[2, 2] - 0.5) <= 1e-12
    assert abs(m[1, 2] + 0.5) <= 1e-12 and abs(m[2, 1] + 0.5) <= 1e-12
    assert abs(m[0, 0]) <= 1e-12 and abs(m[3, 3]) <= 1e-12


def test_parse_basis_ket_is_its_diagonal_projector():
    rho = parse_ket_expression("|00>", (2, 2))
    assert np.array_equal(rho.matrix, np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))


def test_validate_accepts_maximally_mixed():
    rho = validate(np.eye(4) / 4, (2, 2))
    assert rho.dims == (2, 2)


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(StateValidationError, match="negative eigenvalue"):
        validate(np.diag([1.2, -0.2, 0.0, 0.0]), (2, 2))


def test_validate_rejects_wrong_trace():
    with pytest.raises(StateValidationError, match="trace differs from one"):
        validate(np.diag([0.6, 0.6, 0.0, 0.0]), (2, 2))


def test_validate_rejects_non_hermitian():
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 1] = 1e-3
    with pytest.raises(StateValidationError, match="not Hermitian"):
        validate(m, (2, 2))


def _with_infinite_pair():
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 1] = m[1, 0] = np.inf
    return m


# inf - inf in the Hermiticity defect is NaN; the typed error must be the only signal,
# which the suite's warnings-as-errors filter enforces.
@pytest.mark.parametrize(
    "matrix",
    [np.diag([np.nan, 0.5, 0.5, 0.0]), np.diag([np.inf, 0.0, 0.0, 0.0]), _with_infinite_pair()],
    ids=["nan-diagonal", "infinite-diagonal", "infinite-off-diagonal-pair"],
)
def test_validate_rejects_a_non_finite_entry_with_only_the_typed_error(matrix):
    with pytest.raises(StateValidationError, match=r"^matrix is not Hermitian \(magnitude nan\)$"):
        validate(matrix, (2, 2))


def test_parse_pure_validate_round_trip():
    expressions = [
        ("(|10> - |01>)/sqrt(2)", (2, 2)),
        ("(|10> + |01>)/sqrt(2)", (2, 2)),
        ("(|11> + |00>)/sqrt(2)", (2, 2)),
        ("0.6*|11> + 0.8*|00>", (2, 2)),
        ("|0,0>", (3, 3)),
        ("(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", (3, 3)),
        ("(|1,0> + |0,1>)/sqrt(2)", (3, 3)),
    ]
    for text, dims in expressions:
        rho = parse_ket_expression(text, dims)
        validate(rho.matrix, dims)


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
