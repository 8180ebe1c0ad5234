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

import re
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

#: One match per token: an unsigned literal with its '/' part if any, a run of
#: whitespace (dropped), an operator or u (a Unicode minus reads as '-'), or
#: any other character, which is rejected.  Digits are ASCII only, as the
#: grammar means; \d would also match other Unicode digits.
_TOKEN = re.compile(r"([0-9]+)(/[0-9]*)?|[ \t\r\n]+|([-−+*^()u])|(.)", re.S)


def _int_literal(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits())
        raise ParseError(f"numeric literal of {len(digits)} digits is too long", offset) from None


def _tokenize(text: str) -> list[tuple[str, Fraction | None, int]]:
    """(kind, value, offset) per token, kind 'num', 'u' or an operator, and
    an 'end' token at len(text)."""
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, over, char, bad = m.groups()
        start = m.start()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", start)
        if char is not None:
            tokens.append(("-" if char == "−" else char, None, start))
        elif digits is not None:
            num = _int_literal(digits, start)
            if over == "/":
                raise ParseError("expected digits after '/'", start + len(digits) + 1)
            den = _int_literal(over[1:], start) if over else 1
            if den == 0:
                raise ParseError("zero denominator in rational literal", start)
            tokens.append(("num", Fraction(num, den), start))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _next(self) -> tuple[str, Fraction | None, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def _accept(self, kinds: str) -> str | None:
        """The kind of the next token, consumed, if it is an operator listed in kinds."""
        kind = self.tokens[self.pos][0]
        if kind in kinds:
            self.pos += 1
            return kind
        return None

    def _expect(self, kind: str) -> tuple[str, Fraction | None, int]:
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> CountingFunction:
        if len(self.tokens) == 1:
            raise ParseError("empty input", 0)
        result = self._expr()
        kind, _, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing {kind!r}", offset)
        return result

    def _expr(self) -> CountingFunction:
        """The signed terms of a sum, added in one merge."""
        sign = self._accept("-")
        terms = []
        while True:
            term = self._term()
            terms.append(-term if sign == "-" else term)
            sign = self._accept("+-")
            if sign is None:
                return terms[0] if len(terms) == 1 else CountingFunction.merged(terms, True)

    def _term(self) -> CountingFunction:
        """A product of powers, parsed whole and then expanded in one call."""
        factors = [self._factor()]
        while self._accept("*"):
            factors.append(self._factor())
        if len(factors) == 1 and factors[0][1] == 1:
            return factors[0][0]
        return cf.tensor_product(factors)

    def _factor(self) -> tuple[CountingFunction, int]:
        """A base and the tensor power it is raised to."""
        base, bare_u = self._base()
        if not self._accept("^"):
            return base, 1
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
        kind, value, offset = self._next()
        if kind == "u":
            return cf.U, True
        if kind == "num":
            return CountingFunction.from_pairs(1, value.denominator,
                                               [(0, value.numerator)] if value else []), False
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError("nesting too deep", offset)
            inner = self._expr()
            self._expect(")")
            self.depth -= 1
            return inner, False
        raise ParseError(f"expected a value, found {kind!r}", offset)

    def _exponent(self) -> tuple[Fraction, int]:
        kind, value, offset = self._next()
        if kind == "num":
            return value, offset
        if kind == "-":
            return -self._expect("num")[1], offset
        if kind == "(":
            sign = -1 if self._accept("-") else 1
            inner_kind, inner, inner_offset = self._next()
            if inner_kind != "num":
                raise ParseError("expected a rational exponent", inner_offset)
            self._expect(")")
            return sign * inner, offset
        raise ParseError("expected an exponent", offset)


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
