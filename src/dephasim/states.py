"""The validated density-matrix type and the ket-expression parser used by the CLI."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    ParseError,
    StateValidationError,
    ZeroNormError,
)
from .linalg import _pair_dims

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Looser than the Hermiticity tolerance so propagator rounding never trips it.
POSITIVITY_FLOOR = -1e-9

# Amplitudes whose squares sum without underflow or overflow; outside this
# range the parser rescales by the largest amplitude before normalizing.
_SAFE_AMPLITUDES = (1e-150, 1e150)
# Deepest parenthesis nesting parsed: three stack frames a level, inside Python's limit.
_MAX_NESTING = 200

# Single-party level labels and their Jz eigenvalues, in basis order (highest
# projection first): the parser's alphabet and the dephasing generator's spectrum.
_LEVELS = {2: {"1": 0.5, "0": -0.5}, 3: {"1": 1.0, "0": 0.0, "-1": -1.0}}


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with subsystem dims."""

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        d1, d2 = _pair_dims(self.dims)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d1 * d2, d1 * d2):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match subsystem dims {self.dims}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", (d1, d2))  # the pair every caller looks up
        with np.errstate(over="ignore", invalid="ignore"):
            _check_state(m)
            min_eig = np.linalg.eigvalsh(m)[0]
            if not min_eig >= POSITIVITY_FLOOR:
                raise StateValidationError("matrix has a negative eigenvalue", abs(min_eig))


def _check_state(m: np.ndarray) -> None:
    """The accuracy checks of a square complex matrix, Hermiticity then unit trace.

    DensityMatrix adds positivity; a sweep leaves it to StationaryXForm.
    Each check is written so that a NaN fails it; inf - inf is NaN, so the
    caller holds np.errstate(over="ignore", invalid="ignore") and gets no warning.
    """
    herm_defect = np.abs(m - m.conj().T).max()
    if not herm_defect <= HERMITICITY_TOL:
        raise StateValidationError("matrix is not Hermitian", herm_defect)
    trace_defect = abs(m.trace() - 1.0)
    if not trace_defect <= TRACE_TOL:
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
# character the grammar has no use for. A ket token's text is its label.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+\.\d*|\.\d+|\d+)|\|(?P<ket>[^>]*)>|(?P<word>[A-Za-z]+)"
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
            raise ParseError(f"unknown word {value!r}", pos)
        if kind != "space":
            tokens.append(_Token(value if kind in ("op", "word") else kind, value, pos))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _ket_index(label: str, dims: tuple[int, int], pos: int) -> int:
    d1, d2 = dims
    alpha1, alpha2 = list(_LEVELS[d1]), list(_LEVELS[d2])
    raw = label.strip()
    if "," in raw:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise ParseError(f"ket label {label!r} must name exactly two subsystems", pos)
    else:
        compact = raw.replace(" ", "")
        if len(compact) != 2:
            raise ParseError(
                f"ket label {label!r} needs two levels (use a comma for multi-character levels)",
                pos,
            )
        parts = [compact[0], compact[1]]
    if parts[0] not in alpha1 or parts[1] not in alpha2:
        raise ParseError(f"ket label {label!r} is outside the {d1}x{d2} level alphabet", pos)
    return alpha1.index(parts[0]) * d2 + alpha2.index(parts[1])


def _finite(value: float, pos: int) -> float:
    if not math.isfinite(value):
        raise ParseError("coefficient does not fit a float", pos)
    return value


def _numeral(tok: _Token) -> float:
    value = float(tok.text)
    # A nonzero numeral that underflows to 0.0 does not fit, like one that overflows.
    if value == 0 and tok.text.strip("0."):
        raise ParseError("coefficient does not fit a float", tok.pos)
    return _finite(value, tok.pos)


class _Value(NamedTuple):
    """Intermediate parse value: a plain scalar or scalar * ket combination.

    `peak` holds, per amplitude, the largest ket term summed into `vector`, so
    `abs(scalar) * peak` is the scale against which that amplitude counts as
    cancelled.
    """

    scalar: complex
    vector: np.ndarray | None
    peak: np.ndarray | None = None

    def is_vector(self) -> bool:
        return self.vector is not None

    def materialize(self) -> np.ndarray:
        return self.scalar * self.vector

    def scale(self) -> np.ndarray:
        return abs(self.scalar) * self.peak


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

    def __init__(self, tokens: list[_Token], dims: tuple[int, int]):
        self.tokens = tokens
        self.dims = dims
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, message: str, pos: int | None = None) -> _Token:
        """Take the next token if it is a `kind`; else raise at `pos`, or at that token."""
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(message, tok.pos if pos is None else pos)
        return self.take()

    def parse(self) -> _Value:
        value = self.sum()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        if not value.is_vector():
            raise ParseError("expression contains no ket", 0)
        return value

    def sum(self, depth: int = 0) -> _Value:
        sign = self.take().kind if self.peek().kind in ("+", "-") else "+"
        total = self.term(depth)
        if sign == "-":
            total = total._replace(scalar=-total.scalar)
        while self.peek().kind in ("+", "-"):
            op = self.take()
            nxt = self.term(depth)
            if op.kind == "-":
                nxt = nxt._replace(scalar=-nxt.scalar)
            if total.is_vector() != nxt.is_vector():
                raise ParseError("cannot add a ket term and a bare number", op.pos)
            if total.is_vector():
                with np.errstate(over="ignore", invalid="ignore"):
                    vector = total.materialize() + nxt.materialize()
                if not np.all(np.isfinite(vector)):
                    raise ParseError("coefficient does not fit a float", op.pos)
                total = _Value(1.0, vector, np.maximum(total.scale(), nxt.scale()))
            else:
                total = _Value(_finite(total.scalar + nxt.scalar, op.pos), None)
        return total

    def term(self, depth: int) -> _Value:
        value = self.factor(depth)
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.take()
                if self.peek().kind not in self._FACTOR_START:
                    raise ParseError("expected a factor after '*'", self.peek().pos)
                value = self._multiply(value, self.factor(depth), tok.pos)
            elif tok.kind == "/":
                self.take()
                divisor = self.scalar_factor()
                if divisor == 0:
                    raise ParseError("division by zero", tok.pos)
                value = value._replace(scalar=_finite(value.scalar / divisor, tok.pos))
            elif tok.kind in self._FACTOR_START:
                # adjacency acts as multiplication, e.g. "0.5|11>"
                value = self._multiply(value, self.factor(depth), tok.pos)
            else:
                return value

    @staticmethod
    def _multiply(left: _Value, right: _Value, pos: int) -> _Value:
        if left.is_vector() and right.is_vector():
            raise ParseError("cannot multiply two kets", pos)
        ket = left if left.is_vector() else right
        return ket._replace(scalar=_finite(left.scalar * right.scalar, pos))

    def factor(self, depth: int) -> _Value:
        tok = self.peek()
        if tok.kind in ("number", "sqrt"):
            return _Value(self.scalar_factor(), None)
        if tok.kind == "ket":
            self.take()
            d1, d2 = self.dims
            vec = np.zeros(d1 * d2, dtype=complex)
            vec[_ket_index(tok.text, self.dims, tok.pos)] = 1.0
            return _Value(1.0, vec, np.abs(vec))
        if tok.kind == "(":
            if depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} deep", tok.pos)
            self.take()
            inner = self.sum(depth + 1)
            self.expect(")", "unclosed '('", tok.pos)
            return inner
        raise ParseError(f"expected a number, sqrt(...), ket or '(', found {tok.text!r}", tok.pos)

    def scalar_factor(self) -> float:
        tok = self.take()
        if tok.kind == "number":
            return _numeral(tok)
        if tok.kind == "sqrt":
            self.expect("(", "expected '(' after sqrt")
            arg = self.expect("number", "expected a number inside sqrt(...)")
            self.expect(")", "unclosed '(' after sqrt", tok.pos)
            return math.sqrt(_numeral(arg))
        raise ParseError(f"expected a number or sqrt(...), found {tok.text!r}", tok.pos)


def parse_ket_expression(text: str, dims: tuple[int, int]) -> DensityMatrix:
    """Parse a linear combination of kets; return the projector onto its normalized state.

    Examples of accepted input: ``(|10> - |01>)/sqrt(2)``, ``0.5*|11> + 0.5|00>
    + 1/sqrt(2)*|10>``, ``|0,0>`` (qutrit levels are comma-separated because
    ``-1`` is two characters). Any nonzero combination is normalized; an
    expression whose amplitudes cancel raises ZeroNormError.
    """
    if not isinstance(text, str):
        raise ParseError(f"ket expression must be a str, got {type(text).__name__}", 0)
    d1, d2 = _pair_dims(dims)
    if d1 not in _LEVELS or d2 not in _LEVELS:
        raise DimensionMismatchError(f"unsupported subsystem dims {dims}; each must be 2 or 3")
    value = _KetParser(_tokenize(text), dims).parse()
    vec = value.materialize()
    # An amplitude cancels when it is rounding noise against the largest ket
    # term summed into it: 1e-13|10> is a state, 0.1|10> + 0.2|10> - 0.3|10> is not.
    if not np.any(np.abs(vec) > 1e-12 * value.scale()):
        raise ZeroNormError(f"all amplitudes cancel in {text!r}")
    largest = float(np.max(np.abs(vec)))
    if not _SAFE_AMPLITUDES[0] < largest < _SAFE_AMPLITUDES[1]:
        # The norm's sum of squares would underflow or overflow. The parser's
        # amplitudes are real, and real division stays finite for subnormals.
        vec = vec.real / largest
    amp = np.asarray(vec / float(np.linalg.norm(vec)), dtype=complex)
    return DensityMatrix(np.outer(amp, amp.conj()), dims)
