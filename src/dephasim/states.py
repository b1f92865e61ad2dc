"""Validated quantum-state types and the ket-expression parser used by the CLI."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    LabelError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    TraceNotOneError,
    ZeroNormError,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Looser than the Hermiticity tolerance so propagator rounding never trips it.
POSITIVITY_FLOOR = -1e-9
NORM_TOL = 1e-10

# Single-subsystem level labels, highest angular-momentum projection first.
_ALPHABETS = {2: {"1": 0, "0": 1}, 3: {"1": 0, "0": 1, "-1": 2}}


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of a bipartite system, amplitudes in lexicographic basis order."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        d1, d2 = self.dims
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (d1 * d2,):
            raise DimensionMismatchError(
                f"amplitude count {amp.shape} does not match dims {self.dims}"
            )
        object.__setattr__(self, "amplitudes", amp)
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ZeroNormError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with subsystem dims."""

    matrix: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        d1, d2 = self.dims
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d1 * d2, d1 * d2):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match subsystem dims {self.dims}"
            )
        object.__setattr__(self, "matrix", m)
        # Each check is written so that a NaN fails it.
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if not herm_defect <= HERMITICITY_TOL:
            raise NotHermitianError("matrix is not Hermitian", herm_defect)
        trace_defect = abs(complex(np.trace(m)) - 1.0)
        if not trace_defect <= TRACE_TOL:
            raise TraceNotOneError("trace differs from one", trace_defect)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= POSITIVITY_FLOOR:
            raise NotPositiveError("matrix has a negative eigenvalue", abs(min_eig))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate(matrix: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Check the density-matrix invariants and wrap the matrix on success."""
    return DensityMatrix(np.asarray(matrix, dtype=complex), dims)


def pure_density(psi: StateVector) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    amp = psi.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()), psi.dims)


# ---------------------------------------------------------------------------
# Ket-expression parser
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_PUNCT = {"+": "plus", "-": "minus", "*": "star", "/": "slash", "(": "lparen", ")": "rparen"}
_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")
_WORD_RE = re.compile(r"[A-Za-z]+")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch == "|":
            end = text.find(">", i + 1)
            if end < 0:
                raise ParseError("unterminated ket (missing '>')", i)
            tokens.append(_Token("ket", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUMBER_RE.match(text, i)
            tokens.append(_Token("number", m.group(0), i))
            i = m.end()
            continue
        if ch.isalpha():
            word = _WORD_RE.match(text, i).group(0)
            if word != "sqrt":
                raise ParseError(f"unknown word {word!r}", i)
            tokens.append(_Token("sqrt", word, i))
            i += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


def _ket_index(label: str, dims: tuple[int, int], pos: int) -> int:
    d1, d2 = dims
    alpha1, alpha2 = _ALPHABETS[d1], _ALPHABETS[d2]
    raw = label.strip()
    if "," in raw:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise LabelError(f"ket label {label!r} must name exactly two subsystems", pos)
    else:
        compact = raw.replace(" ", "")
        if len(compact) != 2:
            raise LabelError(
                f"ket label {label!r} needs two levels (use a comma for multi-character levels)",
                pos,
            )
        parts = [compact[0], compact[1]]
    if parts[0] not in alpha1 or parts[1] not in alpha2:
        raise LabelError(f"ket label {label!r} is outside the {d1}x{d2} level alphabet", pos)
    return alpha1[parts[0]] * d2 + alpha2[parts[1]]


class _Value(NamedTuple):
    """Intermediate parse value: a plain scalar or scalar * ket combination."""

    scalar: complex
    vector: np.ndarray | None

    def is_vector(self) -> bool:
        return self.vector is not None

    def materialize(self) -> np.ndarray:
        return self.scalar * self.vector


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

    _FACTOR_START = ("number", "sqrt", "ket", "lparen")

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

    def parse(self) -> np.ndarray:
        value = self.sum()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        if not value.is_vector():
            raise ParseError("expression contains no ket", 0)
        return value.materialize()

    def sum(self) -> _Value:
        total = self.signed_term()
        while self.peek().kind in ("plus", "minus"):
            op = self.take()
            nxt = self.term()
            if op.kind == "minus":
                nxt = _Value(-nxt.scalar, nxt.vector)
            if total.is_vector() != nxt.is_vector():
                raise ParseError("cannot add a ket term and a bare number", op.pos)
            if total.is_vector():
                total = _Value(1.0, total.materialize() + nxt.materialize())
            else:
                total = _Value(total.scalar + nxt.scalar, None)
        return total

    def signed_term(self) -> _Value:
        sign = 1.0
        if self.peek().kind in ("plus", "minus"):
            if self.take().kind == "minus":
                sign = -1.0
        value = self.term()
        return _Value(sign * value.scalar, value.vector)

    def term(self) -> _Value:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "star":
                self.take()
                if self.peek().kind not in self._FACTOR_START:
                    raise ParseError("expected a factor after '*'", self.peek().pos)
                value = self._multiply(value, self.factor(), tok.pos)
            elif tok.kind == "slash":
                self.take()
                divisor = self.scalar_factor()
                if divisor == 0:
                    raise ParseError("division by zero", tok.pos)
                value = _Value(value.scalar / divisor, value.vector)
            elif tok.kind in self._FACTOR_START:
                # adjacency acts as multiplication, e.g. "0.5|11>"
                value = self._multiply(value, self.factor(), tok.pos)
            else:
                return value

    @staticmethod
    def _multiply(left: _Value, right: _Value, pos: int) -> _Value:
        if left.is_vector() and right.is_vector():
            raise ParseError("cannot multiply two kets", pos)
        vector = left.vector if left.is_vector() else right.vector
        return _Value(left.scalar * right.scalar, vector)

    def factor(self) -> _Value:
        tok = self.peek()
        if tok.kind in ("number", "sqrt"):
            return _Value(self.scalar_factor(), None)
        if tok.kind == "ket":
            self.take()
            d1, d2 = self.dims
            vec = np.zeros(d1 * d2, dtype=complex)
            vec[_ket_index(tok.text, self.dims, tok.pos)] = 1.0
            return _Value(1.0, vec)
        if tok.kind == "lparen":
            self.take()
            inner = self.sum()
            if self.peek().kind != "rparen":
                raise ParseError("unclosed '('", tok.pos)
            self.take()
            return inner
        raise ParseError(f"expected a number, sqrt(...), ket or '(', found {tok.text!r}", tok.pos)

    def scalar_factor(self) -> float:
        tok = self.take()
        if tok.kind == "number":
            return float(tok.text)
        if tok.kind == "sqrt":
            if self.peek().kind != "lparen":
                raise ParseError("expected '(' after sqrt", self.peek().pos)
            self.take()
            arg = self.peek()
            if arg.kind != "number":
                raise ParseError("expected a number inside sqrt(...)", arg.pos)
            self.take()
            if self.peek().kind != "rparen":
                raise ParseError("unclosed '(' after sqrt", tok.pos)
            self.take()
            return math.sqrt(float(arg.text))
        raise ParseError(f"expected a number or sqrt(...), found {tok.text!r}", tok.pos)


def parse_ket_expression(text: str, dims: tuple[int, int]) -> StateVector:
    """Parse a linear combination of kets and return the normalized state.

    Examples of accepted input: ``(|10> - |01>)/sqrt(2)``, ``0.5*|11> + 0.5|00>
    + 1/sqrt(2)*|10>``, ``|0,0>`` (qutrit levels are comma-separated because
    ``-1`` is two characters). Any nonzero combination is normalized; an
    expression whose amplitudes cancel raises ZeroNormError.
    """
    d1, d2 = dims
    if d1 not in _ALPHABETS or d2 not in _ALPHABETS:
        raise ValueError(f"unsupported subsystem dims {dims}; each must be 2 or 3")
    vec = _KetParser(_tokenize(text), dims).parse()
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise ZeroNormError(f"all amplitudes cancel in {text!r}")
    return StateVector(vec / norm, dims)
