"""Finite counting functions N(u) = sum of m(a) * u^a with exact rational data.

A counting function is a finite formal sum of rational powers of u with
rational multiplicities.  The direct sum adds term maps pointwise; the
tensor product multiplies values N1(u) * N2(u), i.e. convolves the
exponent maps.  Both operations keep the representation canonical:
terms sorted by descending exponent, zero multiplicities dropped.

Every term map of the package (counting functions here, power products in
``symzeta``) is a :class:`TermMap`: integer pairs (E, C) over a least
exponent denominator L and a least multiplicity denominator M.  The
operations run on those integers, and the ``Fraction`` pairs of ``terms``
are built only when they are first read.  Products and powers run by
Kronecker substitution when the exponents are dense (see
:func:`tensor_product`): one big-integer multiply, whose slots are read back
a machine word at a time by one ``memoryview`` cast (wider slots by one
comprehension).  Sparse ones, such as the square of ``u^1000 + u + 1``, are
convolved term pair by term pair.

Two budgets bound the work and are checked before anything is
multiplied.  :data:`MAX_PACKED_BITS` caps the bits of a packed result
(its slots times their width) and of its common denominator; the pairs
of a sparse product are charged the size of one packed product of equal
Karatsuba cost.  :data:`MAX_TERM_PAIRS` caps the term pairs of a sparse
product.  A product over either raises ParameterRangeError.  The packed
bits are charged at the slot width the coefficients need, before a slot is
widened to a machine word.  The largest packed power of u + 1,
``(u+1)^2046`` at 4.19 Mbit, takes 0.3 s on a shared 2-vCPU x86 host with
Python 3.11, most of it in the one big-integer ``pow``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, ParameterRangeError
from .rationals import as_rational, qstr, signed_sum
from .reports import Record

#: Expansion budget of a sparse product: the most term pairs it may form.
#: A pair of small integer terms costs about 1.5 µs, so a product at the
#: cap takes about 0.2 s.
MAX_TERM_PAIRS = 2 ** 17
#: Expansion budget of a packed product: the most bits of its result.
MAX_PACKED_BITS = 2 ** 22
#: A factor is packed when it spans at most this many lattice slots per term.
DENSE_SLOTS_PER_TERM = 8
#: The byte order of a machine word, as ``memoryview.cast`` reads it.
_WORD_ORDER = "little" if memoryview(b"\x01\x00").cast("H")[0] == 1 else "big"


class TermMap(Record):
    """A finite rational map held as integers: the key E / den and the value
    C / mden for each pair (E, C) of the list ``pairs``, keys distinct and
    sorted, no C zero, den and mden least (so gcd(mden, every C) = 1).

    A subclass names the map's ``Fraction`` pairs as its first field, built
    on first read and kept, and its other fields after.  Equality compares
    den, mden, pairs and the other fields, which decide the view, so it builds
    none; hashing, repr and pickling are those of :class:`Record`.
    """

    __slots__ = ("den", "mden", "pairs")

    def __init__(self, view, *fields):
        den = math.lcm(*[k.denominator for k, _ in view])
        mden = math.lcm(*[v.denominator for _, v in view])
        self._fill(self.__slots__, den, mden, [(k.numerator * (den // k.denominator),
                                                v.numerator * (mden // v.denominator))
                                               for k, v in view], view, *fields)

    def _fill(self, names: tuple, *values) -> None:
        for name, value in zip(TermMap.__slots__ + names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = TermMap.__slots__ + self.__slots__[1:]
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    __hash__ = Record.__hash__  # an __eq__ of its own would leave the class unhashable

    def __getattr__(self, name):  # reached only while a slot is unset
        if name != self.__slots__[0]:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, mden = self.den, self.mden  # Fraction(v) skips the gcd of Fraction(v, 1)
        view = tuple([(Fraction(e) if den == 1 else Fraction(e, den),
                       Fraction(c) if mden == 1 else Fraction(c, mden)) for e, c in self.pairs])
        object.__setattr__(self, name, view)
        return view

    @classmethod
    def from_pairs(cls, den: int, mden: int, pairs: list[tuple[int, int]], *fields):
        """The record of integer pairs with distinct sorted keys and no C zero,
        over any denominators den and mden, which are reduced to their least."""
        g, h = _divisor(den, pairs, 0), _divisor(mden, pairs, 1)
        if g > 1 or h > 1:
            pairs = [(e // g, c // h) for e, c in pairs]
        record = cls.__new__(cls)
        record._fill(cls.__slots__[1:], den // g, mden // h, pairs, *fields)
        return record

    @classmethod
    def merged(cls, maps: list["TermMap"], descending: bool, *fields):
        """The pointwise sum of the maps, keys descending or ascending."""
        den, mden = math.lcm(*[m.den for m in maps]), math.lcm(*[m.mden for m in maps])
        acc: dict[int, int] = {}
        for m in maps:
            k, j = den // m.den, mden // m.mden
            for e, c in m.pairs:
                acc[e * k] = acc.get(e * k, 0) + c * j
        return cls.from_pairs(den, mden, sorted([p for p in acc.items() if p[1]],
                                                reverse=descending), *fields)

    @classmethod
    def canonical(cls, raw_pairs: Iterable[tuple[object, object]], descending: bool, *fields):
        """The record of (key, value) rationals or rational literals, the
        values of equal keys added and zeros dropped."""
        raw = cls(tuple([(as_rational(k), as_rational(v)) for k, v in raw_pairs]), *fields)
        return cls.merged([raw], descending, *fields)


def _divisor(den: int, pairs: list[tuple[int, int]], i: int) -> int:
    """gcd of den and entry i of every pair: the factor den exceeds its least by."""
    for pair in pairs:
        if den == 1:
            break
        den = math.gcd(den, pair[i])
    return den


class CountingFunction(TermMap):
    """Immutable finite map exponent -> multiplicity, exponent-descending.

    Instances should be built through :func:`normalize` (or the module
    constants / arithmetic operators), which guarantee the canonical
    ordering and absence of zero multiplicities.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, Fraction], ...]):
        super().__init__(terms)

    def is_zero(self) -> bool:
        return not self.pairs

    def multiplicity_sum(self) -> Fraction:
        return Fraction(sum([c for _, c in self.pairs]), self.mden)

    def max_exponent(self) -> Fraction | None:
        return Fraction(self.pairs[0][0], self.den) if self.pairs else None

    def __add__(self, other: "CountingFunction") -> "CountingFunction":
        return oplus(self, other)

    def __mul__(self, other: "CountingFunction") -> "CountingFunction":
        return otimes(self, other)

    def __pow__(self, r: int) -> "CountingFunction":
        return tensor_power(self, r)

    def __neg__(self) -> "CountingFunction":
        """-N: every multiplicity negated, no expansion."""
        return CountingFunction.from_pairs(self.den, self.mden, [(e, -c) for e, c in self.pairs])

    def __str__(self) -> str:
        """Render as an expression the package's parser accepts back."""
        return signed_sum(self.pairs, self.mden, lambda e: _monomial(e, self.den))


def _monomial(e: int, den: int) -> str:
    if e == 0:
        return ""
    if e == den:
        return "u"
    if e % den == 0:
        return f"u^{qstr(e, den)}"
    return f"u^({qstr(e, den)})"


def normalize(raw_terms: Iterable[tuple[object, object]]) -> CountingFunction:
    """Build a canonical counting function from (exponent, multiplicity) pairs.

    Pairs with equal exponents are merged; zero multiplicities are dropped;
    the result is sorted by descending exponent.
    """
    return CountingFunction.canonical(raw_terms, True)


def oplus(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Direct sum: pointwise addition of the term maps."""
    return CountingFunction.merged([n1, n2], True)


def _check_budget(used: int, cap: int, unit: str) -> None:
    if used > cap:
        raise ParameterRangeError(
            f"tensor product exceeds the expansion budget of {cap} {unit}")


def _power(r) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParameterRangeError(f"tensor power needs an integer r >= 1, got {r!r}")
    return r


def otimes(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Tensor product: multiply the functions, i.e. convolve exponent maps."""
    return tensor_product([(n1, 1), (n2, 1)])


def tensor_power(n: CountingFunction, r: int) -> CountingFunction:
    """r-fold tensor power, r >= 1."""
    return tensor_product([(n, r)])


def tensor_product(factors: Iterable[tuple[CountingFunction, int]]) -> CountingFunction:
    """N_1^r_1 * ... * N_k^r_k for pairs (N_i, r_i) with r_i >= 1, in one expansion.

    The :func:`integer_product` of the factors' integer pairs, their
    exponents brought to L, the lcm of the exponent denominators, is the
    product over the multiplicity denominator prod M_i^r_i.
    """
    factors = [(n, _power(r)) for n, r in factors]
    if any(n.is_zero() for n, _ in factors):
        return ZERO
    _check_budget(sum([r * (n.mden - 1).bit_length() for n, r in factors]),
                  MAX_PACKED_BITS, "packed bits")
    den = math.lcm(*[n.den for n, _ in factors])
    powers = [(n.pairs if n.den == den else [(e * (den // n.den), c) for e, c in n.pairs], r)
              for n, r in factors]
    return CountingFunction.from_pairs(den, math.prod([n.mden ** r for n, r in factors]),
                                       integer_product(powers))


def integer_product(powers: list[tuple[list[tuple[int, int]], int]]) -> list[tuple[int, int]]:
    """The product of powers r >= 1 of exponent-descending integer terms (E, C),
    C != 0, as such terms.  It is packed if every factor spans at most
    :data:`DENSE_SLOTS_PER_TERM` steps of g per term, g the gcd of the
    exponents' offsets from each factor's least one; else it is convolved."""
    step = _lattice_step(powers)
    if all([_dense(terms, step) for terms, _ in powers]):
        return _packed_product(powers, step)
    return _sparse_product(powers)


def _lattice_step(powers: list[tuple[list[tuple[int, int]], int]]) -> int:
    """The gcd of every factor's exponent offsets from its least exponent."""
    return math.gcd(*[e - terms[-1][0] for terms, _ in powers for e, _ in terms]) or 1


def _dense(terms: list[tuple[int, int]], step: int) -> bool:
    return (terms[0][0] - terms[-1][0]) // step <= DENSE_SLOTS_PER_TERM * len(terms)


def _packed_product(powers: list[tuple[list[tuple[int, int]], int]],
                    step: int) -> list[tuple[int, int]]:
    """The dense path, Kronecker substitution, on exponent-descending
    integer terms (E, C): each factor becomes sum C_j 2^(8 w j), C_j the
    coefficient of slot j = (E - E_min) / step, and the product of those
    integers, read back w bytes at a time, holds the product's coefficients.
    Each is at most prod (sum |C|)^r < 2^(8 w - 1) in magnitude, so no slot
    overflows; the slots are offset by 2^(8 w - 1) to read them unsigned.
    The budget charges this w; a w of 3 or 5 to 7 is then widened to a machine
    word if the budget still holds, and word slots are read by one cast."""
    bound_bits = sum([r * (sum([abs(c) for _, c in terms]) - 1).bit_length()
                      for terms, r in powers])
    width = (bound_bits + 9) // 8
    slots = sum([r * ((terms[0][0] - terms[-1][0]) // step) for terms, r in powers]) + 1
    _check_budget(slots * 8 * width, MAX_PACKED_BITS, "packed bits")
    word = 1 << (width - 1).bit_length()
    if word <= 8 and slots * 8 * word <= MAX_PACKED_BITS:
        width = word
    packed = math.prod([_pack(terms, step, width) ** r for terms, r in powers])
    half = 1 << (8 * width - 1)
    data = (packed + _bias(slots, width)).to_bytes(slots * width, _WORD_ORDER)
    if width in (1, 2, 4, 8):
        read = memoryview(data).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width]).tolist()
    else:
        read = [int.from_bytes(data[i:i + width], _WORD_ORDER) for i in range(0, len(data), width)]
    if _WORD_ORDER == "little":
        read.reverse()  # the highest slot first
    top = sum([r * terms[0][0] for terms, r in powers])
    return [(top - step * j, c - half) for j, c in enumerate(read) if c != half]


def _bias(slots: int, width: int) -> int:
    """The sum over the slots of 2^(8 * width - 1), which makes every slot nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(terms: list[tuple[int, int]], step: int, width: int) -> int:
    """sum C 2^(8 width (E - E_min) / step) over the terms: by shifts for one or
    two terms, else by a byte join, whose memory stays linear in the slots."""
    low = terms[-1][0]
    if len(terms) <= 2:
        return sum([c << (8 * width * ((e - low) // step)) for e, c in terms])
    coefficients = [0] * ((terms[0][0] - low) // step + 1)
    for e, c in terms:
        coefficients[(e - low) // step] = c
    half = 1 << (8 * width - 1)
    data = b"".join([(c + half).to_bytes(width, "little") for c in coefficients])
    return int.from_bytes(data, "little") - _bias(len(coefficients), width)


def _sparse_product(powers: list[tuple[list[tuple[int, int]], int]]) -> list[tuple[int, int]]:
    """The sparse path: each power on its own lattice (packed when that factor
    alone is dense, else by binary squaring), then the powers by pairs."""
    product = [(0, 1)]
    for terms, r in powers:
        step = _lattice_step([(terms, r)])
        if _dense(terms, step):
            power = _packed_product([(terms, r)], step)
        else:
            power, square = [(0, 1)], terms
            while True:
                if r & 1:
                    power = _convolve(power, square)
                r >>= 1
                if not r:
                    break
                square = _convolve(square, square)
        product = _convolve(product, power)
    return sorted(product, reverse=True)


def _convolve(p: list[tuple[int, int]], q: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """All term pairs.  Each pair forms a product of up to b bits; at CPython's
    Karatsuba cost, b^log2(3), the pairs cost as much as one packed product
    of b * pairs^(1 / log2(3)) bits, which is charged to the packed budget."""
    pairs = len(p) * len(q)
    _check_budget(pairs, MAX_TERM_PAIRS, "term pairs")
    _check_budget(math.ceil((_bits(p) + _bits(q)) * pairs ** (1 / math.log2(3))),
                  MAX_PACKED_BITS, "packed bits")
    acc: dict[int, int] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return [(e, c) for e, c in acc.items() if c]


def _bits(terms: list[tuple[int, int]]) -> int:
    return max([abs(c) for _, c in terms]).bit_length()


def eval_at(n: CountingFunction, u: float) -> float:
    """Evaluate N(u) for real u > 1 (rational exponents need a positive base).  A sum that
    :func:`cancels` is taken again on the lattice v = u^(1/L): by :func:`exact_sum` in
    Fractions of u when L = 1, else by :func:`_decimal_sum`."""
    u = float(u)
    if not (math.isfinite(u) and u > 1.0):
        raise DomainError(f"counting functions are evaluated at finite u > 1, got u={u}")
    lu = math.log(u)
    den, mden = n.den, n.mden
    total = size = 0.0
    try:
        for e, c in n.pairs:
            # integer powers directly: keeps e.g. 4^3 - 4 at exactly 60.0
            term = c / mden * (u ** (e // den) if e % den == 0 else math.exp(e / den * lu))
            total, size = total + term, size + abs(term)
        if cancels(size, total):
            exact_u = Fraction(u)
            total = _decimal_sum(n, u) if den > 1 else float(exact_sum(
                [(c, exact_u, e) for e, c in n.pairs], mden,
                f"N(u) at u={u} cancels below float rounding"))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"the value N(u) at u={u} must be finite, got {total}")
    return total


def cancels(size: float, total) -> bool:
    """Whether a float sum whose terms add to size in absolute value may have lost
    its value total to rounding: eps size > 1e-12 |total|, a relative bound at any scale."""
    return math.ulp(1.0) * size > 1e-12 * abs(total)


def exact_sum(terms: list[tuple[int, Fraction, int]], mden: int, what: str) -> Fraction:
    """sum C b^k / mden over the terms (C, b, k), exactly; ParameterRangeError when the
    powers b^k have more than MAX_PACKED_BITS bits."""
    if sum([abs(k) * max(abs(b.numerator), b.denominator).bit_length()
            for _, b, k in terms]) > MAX_PACKED_BITS:
        raise ParameterRangeError(f"{what}, and its exact powers exceed {MAX_PACKED_BITS} bits")
    return Fraction(sum([c * b ** k for c, b, k in terms]), mden)


def _decimal_sum(n: CountingFunction, u: float) -> float:
    """N(u) = sum C v^E / M in decimal, v = u^(1/L) by Newton's iteration on v^L = u, at a
    precision p doubled until the rounding bound, sum |C v^E / M| (6 max |E| + terms + 2)
    10^(1 - p), is below 1e-13 |N(u)|, or below 1e-13 of the least subnormal float, so
    that a zero of N on the lattice reads 0.0; ParameterRangeError once p times the
    number of terms would pass MAX_PACKED_BITS log10 2 digits."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext  # fractions has it
    den, pairs, prec = n.den, n.pairs, 32
    factor = 6 * max([abs(e) for e, _ in pairs]) + len(pairs) + 2
    exact_u, v, least = Decimal(u), Decimal(u ** (1 / den)), Decimal(math.ulp(0.0))
    while prec * len(pairs) <= MAX_PACKED_BITS * math.log10(2):
        with localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            for _ in range(3):  # a step doubles the digits of v, which start at the float's
                v = ((den - 1) * v + exact_u / v ** (den - 1)) / den
            terms = [c * v ** e for e, c in pairs]
            total = sum(terms)
            if (sum([abs(t) for t in terms]) * factor * Decimal(10) ** (14 - prec)
                    < max(abs(total), least)):
                return float(total / n.mden)
        prec *= 2
    raise ParameterRangeError(f"N(u) at u={u} cancels below float rounding, and its decimal "
                              f"sum exceeds {MAX_PACKED_BITS * math.log10(2):.0f} digits")


#: The zero function.
ZERO = CountingFunction(())
#: The constant function 1 (the one-point scheme).
ONE = normalize([(0, 1)])
#: The identity monomial u (the affine line counts u, its unit group u - 1).
U = normalize([(1, 1)])
#: u - 1, the counting function of the multiplicative group.
U_MINUS_ONE = normalize([(1, 1), (0, -1)])
