"""The validated density-matrix type and the ket-expression parser used by the CLI."""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, ParseError, StateValidationError, _numbers, _shown

# Hermiticity defect and trace drift a given state may show; a propagated one gets its own bound (engine._xforms).
DRIFT_TOL = 1e-10
# Looser than DRIFT_TOL so propagator rounding never trips it.
POSITIVITY_FLOOR = -1e-9

# Amplitudes whose squares sum without underflow or overflow; outside this
# range the parser rescales by the largest amplitude before normalizing.
_SAFE_AMPLITUDES = (1e-150, 1e150)
# Deepest parenthesis nesting parsed: three stack frames a level, inside Python's limit.
_MAX_NESTING = 200


class _Pair(NamedTuple):
    """What the parser and collective dephasing know about one supported pair of equal parties."""

    dims: tuple[int, int]  # (d, d), the key of this entry
    labels: tuple[str, ...]  # single-party levels in basis order, highest projection first
    levels: np.ndarray  # diagonal of collective Jz, lexicographic basis order
    fixed_mask: np.ndarray  # True where |m><m'| has m == m', the entries dephasing keeps


def _pair_entry(labels: tuple[str, ...], jz: list[float]) -> _Pair:
    levels = np.add.outer(jz, jz).ravel()
    return _Pair((len(labels), len(labels)), labels, levels, levels[:, None] == levels[None, :])


# The two pairs the paper studies, from each party's labels and Jz eigenvalues; see collective_jz.
_PAIRS = {
    (2, 2): _pair_entry(("1", "0"), [0.5, -0.5]),
    (3, 3): _pair_entry(("1", "0", "-1"), [1.0, 0.0, -1.0]),
}


def _pair(dims: tuple[int, int], shape: tuple[int, ...] | None = None) -> _Pair:
    """The one dims check: the table entry of two integers naming a supported pair, which sizes `shape` if given."""
    try:
        d1, d2 = map(operator.index, dims)  # unpacked, so an endless iterable fails at its third item
        dims = (d1, d2)  # shown as ints, whatever held them
        entry = _PAIRS[dims]
    except (TypeError, ValueError, KeyError):
        raise DimensionMismatchError(f"supported pairs are (2, 2) and (3, 3), got {_shown(dims)}") from None
    if shape is not None and shape != (len(entry.levels),) * 2:
        raise DimensionMismatchError(f"shape {shape} does not match subsystem dims {entry.dims}")
    return entry


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator whose dims are a _PAIRS key; checked once, when built."""

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        m = _numbers("matrix", self.matrix, complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _pair(self.dims, m.shape).dims)  # the pair every caller looks up
        with np.errstate(over="ignore", invalid="ignore"):
            _check_state(m)
            min_eig = _eigvalsh(m)[0]
            if not min_eig >= POSITIVITY_FLOOR:
                raise StateValidationError("matrix has a negative eigenvalue", abs(min_eig))


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(m) of a complex matrix: numpy's LAPACK gufunc and bits, without its wrapper's ~3 us.

    A LAPACK failure leaves NaNs and raises numpy's LinAlgError; the caller holds np.errstate(invalid="ignore").
    """
    w = _umath_linalg.eigvalsh_lo(m, signature="D->d")
    if math.isnan(w[0]):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _defects(m: np.ndarray) -> tuple[float, float]:
    """The Hermiticity defect max |m - m^H| and the trace defect |tr m - 1| of a square complex matrix."""
    return np.abs(m - m.conj().T).max(), abs(m.trace() - 1.0)


def _check_state(m: np.ndarray, tol: float = DRIFT_TOL) -> None:
    """The accuracy checks of a square complex matrix, Hermiticity then unit trace, each to within `tol`.

    DensityMatrix adds positivity; a sweep leaves it to StationaryXForm and gives each state its own tol.
    Each check is written so that a NaN fails it; inf - inf is NaN, so the
    caller holds np.errstate(over="ignore", invalid="ignore") and gets no warning.
    """
    herm_defect, trace_defect = _defects(m)
    if not herm_defect <= tol:
        raise StateValidationError("matrix is not Hermitian", herm_defect)
    if not trace_defect <= tol:
        raise StateValidationError("trace differs from one", trace_defect)


def _trusted_state(matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """The DensityMatrix of a matrix pinched from a checked state, which is valid, built unchecked."""
    rho = object.__new__(DensityMatrix)
    rho.__dict__.update(matrix=matrix, dims=dims)
    return rho


validate = DensityMatrix  # the checked constructor under the name tests and benchmarks call


# ---------------------------------------------------------------------------
# Ket-expression parser
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


# One alternative per token class, tried in order; `other` catches every
# character the grammar has no use for. A ket token's text keeps its bars.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<ket>\|[^>]*>)|(?P<word>[A-Za-z]+)"
    r"|(?P<op>[-+*/()])|(?P<space>\s+)|(?P<other>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(m.lastgroup), m.start()
        if kind == "other":
            if value == "|":
                raise ParseError("unterminated ket (missing '>')", pos)
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "word" and value != "sqrt":
            raise ParseError(f"unknown word {_shown(value)}", pos)
        if kind != "space":
            tokens.append(_Token(value if kind in ("op", "word") else kind, value, pos))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _ket_index(label: str, alphabet: tuple[str, ...], pos: int) -> int:
    d, comma = len(alphabet), "," in label
    parts = [p.strip() for p in label.split(",")] if comma else list(label.strip().replace(" ", ""))
    if len(parts) != 2:
        why = ("must name exactly two subsystems" if comma
               else "needs two levels (use a comma for multi-character levels)")
        raise ParseError(f"ket label {_shown(label)} {why}", pos)
    if parts[0] not in alphabet or parts[1] not in alphabet:
        raise ParseError(f"ket label {_shown(label)} is outside the {d}x{d} level alphabet", pos)
    return alphabet.index(parts[0]) * d + alphabet.index(parts[1])


def _numeral(tok: _Token) -> float:
    value = float(tok.text)
    # A nonzero numeral that underflows to 0.0 does not fit, like one that overflows.
    if not math.isfinite(value) or (value == 0 and tok.text.strip("0.")):
        raise ParseError("coefficient does not fit a float", tok.pos)
    return value


class _Value(NamedTuple):
    """Intermediate parse value: a plain scalar or scalar * ket combination.

    `floor` holds, per amplitude, 1e-12 of the largest ket term summed into
    `vector`, so the amplitude counts as cancelled unless it exceeds
    `abs(scalar) * floor`. That product overflows only where the amplitude,
    which fits a float, is cancelled anyway.
    """

    scalar: complex
    vector: np.ndarray | None
    floor: np.ndarray | None = None

    def amplitudes(self) -> np.ndarray:
        return self.scalar * self.vector

    def cancel_floor(self) -> np.ndarray:
        return abs(self.scalar) * self.floor

    def scaled(self, scalar: complex, pos: int) -> _Value:
        """This value with `scalar` in place of its own, raising at `pos` unless the result is finite."""
        value = self._replace(scalar=scalar)
        if not np.all(np.isfinite(scalar if self.vector is None else value.amplitudes())):
            raise ParseError("coefficient does not fit a float", pos)
        return value


class _KetParser:
    """Recursive-descent parser for linear combinations of two-party kets.

    Grammar (whitespace-insensitive)::

        expression := sum
        sum        := ['+'|'-'] term ( ('+'|'-') term )*
        term       := factor ( ['*'] factor | '/' scalar )*
        factor     := scalar | ket | '(' sum ')'
        scalar     := NUMBER | 'sqrt' '(' NUMBER ')'
        ket        := '|' level [','] level '>'

    Adjacent factors multiply, at most one ket per term, and division is only
    by scalars, so forms like ``(|10> - |01>)/sqrt(2)`` or ``0.5*|11>`` parse
    naturally.
    """

    _FACTOR_START = ("number", "sqrt", "ket", "(")

    def __init__(self, tokens: list[_Token], alphabet: tuple[str, ...]):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None, message: str = "", pos: int | None = None) -> _Token:
        """Take the next token; if it is not a given `kind`, raise `message` at `pos` or at the token."""
        tok = self.peek()
        if kind is not None and tok.kind != kind:
            raise ParseError(message, tok.pos if pos is None else pos)
        self.i += 1
        return tok

    def sum(self, depth: int = 0) -> _Value:
        total = None
        while True:
            op = self.peek()
            if op.kind in ("+", "-"):
                self.take()
            elif total is not None:
                return total
            value = self.term(depth)
            if op.kind == "-":
                value = value._replace(scalar=-value.scalar)
            if total is None:
                total = value
            elif (total.vector is None) != (value.vector is None):
                raise ParseError("cannot add a ket term and a bare number", op.pos)
            elif total.vector is None:
                total = total.scaled(total.scalar + value.scalar, op.pos)
            else:
                floor = np.maximum(total.cancel_floor(), value.cancel_floor())
                total = _Value(1.0, total.amplitudes() + value.amplitudes(), floor).scaled(1.0, op.pos)

    def term(self, depth: int) -> _Value:
        value = self.factor(depth)
        while True:
            tok = self.peek()
            if tok.kind == "/":
                self.take()
                divisor = self.scalar_factor()
                if divisor == 0:
                    raise ParseError("division by zero", tok.pos)
                value = value.scaled(value.scalar / divisor, tok.pos)
            elif tok.kind == "*" or tok.kind in self._FACTOR_START:
                # adjacency acts as multiplication, e.g. "0.5|11>"
                if tok.kind == "*":
                    self.take()
                    if self.peek().kind not in self._FACTOR_START:
                        raise ParseError("expected a factor after '*'", self.peek().pos)
                right = self.factor(depth)
                if value.vector is not None and right.vector is not None:
                    raise ParseError("cannot multiply two kets", tok.pos)
                ket = right if value.vector is None else value
                value = ket.scaled(value.scalar * right.scalar, tok.pos)
            else:
                return value

    def factor(self, depth: int) -> _Value:
        tok = self.peek()
        if tok.kind in ("number", "sqrt"):
            return _Value(self.scalar_factor(), None)
        if tok.kind == "ket":
            self.take()
            vec = np.zeros(len(self.alphabet) ** 2, dtype=complex)
            vec[_ket_index(tok.text[1:-1], self.alphabet, tok.pos)] = 1.0
            return _Value(1.0, vec, 1e-12 * np.abs(vec))
        if tok.kind == "(":
            if depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", tok.pos)
            self.take()
            inner = self.sum(depth + 1)
            self.take(")", "unclosed '('", tok.pos)
            return inner
        raise ParseError(f"expected a number, sqrt(...), ket or '(', found {_shown(tok.text)}", tok.pos)

    def scalar_factor(self) -> float:
        tok = self.take()
        if tok.kind == "number":
            return _numeral(tok)
        if tok.kind == "sqrt":
            self.take("(", "expected '(' after sqrt")
            arg = self.take("number", "expected a number inside sqrt(...)")
            self.take(")", "unclosed '(' after sqrt", tok.pos)
            return math.sqrt(_numeral(arg))
        raise ParseError(f"expected a number or sqrt(...), found {_shown(tok.text)}", tok.pos)


def parse_ket_expression(text: str, dims: tuple[int, int]) -> DensityMatrix:
    """Parse a linear combination of kets; return the projector onto its normalized state.

    Examples of accepted input: ``(|10> - |01>)/sqrt(2)``, ``0.5*|11> + 0.5|00>
    + 1/sqrt(2)*|10>``, ``|0,0>`` (qutrit levels are comma-separated because
    ``-1`` is two characters). Any nonzero combination is normalized; an
    expression whose amplitudes cancel is a ParseError at position 0.
    """
    if not isinstance(text, str):
        raise ParseError(f"ket expression must be a str, got {type(text).__name__}", 0)
    alphabet = _pair(dims).labels
    # Each operator checks the amplitudes it makes (_Value.scaled); only a cancellation floor overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        parser = _KetParser(_tokenize(text), alphabet)
        value = parser.sum()
        tok = parser.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {_shown(tok.text)}", tok.pos)
        if value.vector is None:
            raise ParseError("expression contains no ket", 0)
        vec = value.amplitudes()
        # An amplitude cancels when it is rounding noise against the largest ket
        # term summed into it: 1e-13|10> is a state, 0.1|10> + 0.2|10> - 0.3|10> is not.
        if not np.any(np.abs(vec) > value.cancel_floor()):
            raise ParseError("all amplitudes cancel", 0)
    largest = float(np.max(np.abs(vec)))
    if not _SAFE_AMPLITUDES[0] < largest < _SAFE_AMPLITUDES[1]:
        # The norm's sum of squares would underflow or overflow. The parser's
        # amplitudes are real, and real division stays finite for subnormals.
        vec = vec.real / largest
    amp = np.asarray(vec / float(np.linalg.norm(vec)), dtype=complex)
    return DensityMatrix(np.outer(amp, amp.conj()), dims)
