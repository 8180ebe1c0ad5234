"""Parsing of counting-function expressions and scheme names.

The expression language covers exactly what counting functions can hold:
sums and differences of rational multiples of rational powers of u.
Every canonically printed CountingFunction parses back to itself.

Grammar (whitespace insignificant)::

    Expr     := ['-'] Term (('+' | '-') Term)*
    Term     := Factor ('*' Factor)*
    Factor   := Base ['^' Exponent]
    Base     := 'u' | NUMBER | '(' Expr ')'
    Exponent := ['-'] NUMBER | '(' ['-'] NUMBER ')'
    NUMBER   := digits ['/' digits]

The bare variable u may carry any rational exponent (so u^(1/2) and
u^-2 are fine); parenthesized or numeric bases only take nonnegative
integer exponents, keeping every expression a finite term map after
expansion.  A Unicode minus sign is accepted as '-'.
"""

from __future__ import annotations

from fractions import Fraction

from . import counting as cf
from .catalog import SCHEMES, SchemeSpec
from .counting import CountingFunction
from .errors import ParameterRangeError, ParseError, UnknownSchemeError

#: Expansion cap for powers of non-variable bases.
MAX_COMPOUND_EXPONENT = 512
#: Parenthesis nesting cap (keeps the recursive parser total on any input).
MAX_DEPTH = 64

GRAMMAR = """\
Expr     := ['-'] Term (('+' | '-') Term)*
Term     := Factor ('*' Factor)*
Factor   := Base ['^' Exponent]
Base     := 'u' | NUMBER | '(' Expr ')'
Exponent := ['-'] NUMBER | '(' ['-'] NUMBER ')'
NUMBER   := digits ['/' digits]

The bare variable u may carry any rational exponent; other bases only
take nonnegative integer exponents (at most 512), keeping expansion
finite.  Whitespace is insignificant; a Unicode minus works as '-'.
"""

_MINUS_CHARS = "-−"
_ASCII_DIGITS = "0123456789"


def _is_digit(c: str) -> bool:
    # str.isdigit() accepts Unicode digits (e.g. superscripts) that int()
    # rejects; the grammar means ASCII digits only.
    return c in _ASCII_DIGITS


def _int_literal(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits())
        raise ParseError(f"numeric literal of {len(digits)} digits is too long", offset) from None


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value: Fraction | None, offset: int):
        self.kind = kind  # 'num', 'u', '+', '-', '*', '^', '(', ')'
        self.value = value
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _MINUS_CHARS:
            tokens.append(_Token("-", None, i))
            i += 1
            continue
        if c in "+*^()":
            tokens.append(_Token(c, None, i))
            i += 1
            continue
        if c == "u":
            tokens.append(_Token("u", None, i))
            i += 1
            continue
        if _is_digit(c):
            start = i
            while i < n and _is_digit(text[i]):
                i += 1
            num = _int_literal(text[start:i], start)
            den = 1
            if i < n and text[i] == "/":
                j = i + 1
                if j >= n or not _is_digit(text[j]):
                    raise ParseError("expected digits after '/'", i + 1)
                i = j
                while i < n and _is_digit(text[i]):
                    i += 1
                den = _int_literal(text[j:i], start)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", start)
            tokens.append(_Token("num", Fraction(num, den), start))
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.offset)
        return tok

    def parse(self) -> CountingFunction:
        if not self.tokens:
            raise ParseError("empty input", 0)
        result = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok.kind!r}", tok.offset)
        return result

    def _expr(self) -> CountingFunction:
        negate = False
        tok = self._peek()
        if tok is not None and tok.kind == "-":
            self._next()
            negate = True
        total = -self._term() if negate else self._term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in "+-":
                return total
            self._next()
            rhs = self._term()
            total = cf.oplus(total, -rhs if tok.kind == "-" else rhs)

    def _term(self) -> CountingFunction:
        """A product of powers, parsed whole and then expanded in one call."""
        factors = [self._factor()]
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "*":
                break
            self._next()
            factors.append(self._factor())
        if len(factors) == 1 and factors[0][1] == 1:
            return factors[0][0]
        return cf.tensor_product(factors)

    def _factor(self) -> tuple[CountingFunction, int]:
        """A base and the tensor power it is raised to."""
        base, bare_u = self._base()
        tok = self._peek()
        if tok is None or tok.kind != "^":
            return base, 1
        self._next()
        exponent, exp_offset = self._exponent()
        if bare_u:
            return CountingFunction.from_pairs(exponent.denominator, 1,
                                               [(exponent.numerator, 1)]), 1
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError(
                "only the bare variable u takes rational or negative exponents",
                exp_offset)
        k = exponent.numerator
        if k > MAX_COMPOUND_EXPONENT:
            raise ParseError(
                f"exponent {k} exceeds the expansion cap {MAX_COMPOUND_EXPONENT}",
                exp_offset)
        if k == 0:
            return cf.ONE, 1
        return base, k

    def _base(self) -> tuple[CountingFunction, bool]:
        tok = self._next()
        if tok.kind == "u":
            return cf.U, True
        if tok.kind == "num":
            value = tok.value
            return CountingFunction.from_pairs(1, value.denominator,
                                               [(0, value.numerator)] if value else []), False
        if tok.kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError("nesting too deep", tok.offset)
            inner = self._expr()
            self._expect(")")
            self.depth -= 1
            return inner, False
        raise ParseError(f"expected a value, found {tok.kind!r}", tok.offset)

    def _exponent(self) -> tuple[Fraction, int]:
        tok = self._next()
        if tok.kind == "num":
            return tok.value, tok.offset
        if tok.kind == "-":
            num = self._expect("num")
            return -num.value, tok.offset
        if tok.kind == "(":
            sign = 1
            inner = self._next()
            if inner.kind == "-":
                sign = -1
                inner = self._next()
            if inner.kind != "num":
                raise ParseError("expected a rational exponent", inner.offset)
            self._expect(")")
            return sign * inner.value, tok.offset
        raise ParseError("expected an exponent", tok.offset)


def parse_expr(text: str) -> CountingFunction:
    """Parse an expression in u into a canonical counting function."""
    if not isinstance(text, str):
        raise ParseError("expected a string", 0)
    return _Parser(text).parse()


def parse_scheme(text: str) -> SchemeSpec:
    """Parse a scheme name: SpecF1, Gm, Gm^r, SL(r), or GL(r).

    Unknown names raise :class:`UnknownSchemeError`; a recognized name
    with an out-of-range rank raises :class:`ParameterRangeError`.
    """
    if not isinstance(text, str):
        raise UnknownSchemeError("expected a string", 0)
    name = text.strip()
    if not name:
        raise UnknownSchemeError("empty scheme name", 0)
    for kind, row in SCHEMES.items():
        m = row.pattern.match(name)
        if m:
            try:
                ranks = [int(g) for g in m.groups()]
            except ValueError:  # more digits than int() converts
                raise ParameterRangeError(
                    f"{row.template.format(r='r')} rank of {len(m.group(1))} digits "
                    "is out of range") from None
            return SchemeSpec(kind, *ranks)
    raise UnknownSchemeError(f"unknown scheme name {name!r}", 0)
