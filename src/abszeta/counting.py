"""Finite counting functions N(u) = sum of m(a) * u^a with exact rational data.

A counting function is a finite formal sum of rational powers of u with
rational multiplicities.  The direct sum adds term maps pointwise; the
tensor product multiplies values N1(u) * N2(u), i.e. convolves the
exponent maps.  Both operations keep the representation canonical:
terms sorted by descending exponent, zero multiplicities dropped.

Products and powers run on integers, by Kronecker substitution when the
exponents are dense (see :func:`tensor_product`): one big-integer
multiply, read back byte by byte.  Sparse ones, such as the square of
``u^1000 + u + 1``, are convolved term pair by term pair.  Fractions are
built only for the terms of the result.

Two budgets bound the work and are checked before anything is
multiplied.  :data:`MAX_PACKED_BITS` caps the bits of a packed result
(its slots times their width) and of its common denominator; the pairs
of a sparse product are charged the size of one packed product of equal
Karatsuba cost.  :data:`MAX_TERM_PAIRS` caps the term pairs of a sparse
product.  A product over either raises ParameterRangeError.  The largest
packed power of u + 1, ``(u+1)^2046`` at 4.19 Mbit, takes 0.4 to 0.5 s
on a shared 2-vCPU x86 host with Python 3.11, most of it in the one
big-integer ``pow``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import DomainError, ParameterRangeError
from .rationals import canonical_terms, qstr, signed_sum
from .reports import Record

TermPair = Tuple[Fraction, Fraction]

#: Expansion budget of a sparse product: the most term pairs it may form.
#: A pair of small integer terms costs about 1.5 µs, so a product at the
#: cap takes about 0.2 s.
MAX_TERM_PAIRS = 2 ** 17
#: Expansion budget of a packed product: the most bits of its result.
MAX_PACKED_BITS = 2 ** 22
#: A factor is packed when it spans at most this many lattice slots per term.
DENSE_SLOTS_PER_TERM = 8


class CountingFunction(Record):
    """Immutable finite map exponent -> multiplicity, exponent-descending.

    Instances should be built through :func:`normalize` (or the module
    constants / arithmetic operators), which guarantee the canonical
    ordering and absence of zero multiplicities.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[TermPair, ...]):
        object.__setattr__(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms

    def multiplicity_sum(self) -> Fraction:
        return sum((m for _, m in self.terms), Fraction(0))

    def max_exponent(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    def __add__(self, other: "CountingFunction") -> "CountingFunction":
        return oplus(self, other)

    def __mul__(self, other: "CountingFunction") -> "CountingFunction":
        return otimes(self, other)

    def __pow__(self, r: int) -> "CountingFunction":
        return tensor_power(self, r)

    def __neg__(self) -> "CountingFunction":
        """-N: every multiplicity negated, no expansion."""
        return CountingFunction(tuple([(a, -m) for a, m in self.terms]))

    def __str__(self) -> str:
        """Render as an expression the package's parser accepts back."""
        return signed_sum(self.terms, _monomial)


def _monomial(a: Fraction) -> str:
    if a == 0:
        return ""
    if a == 1:
        return "u"
    if a.denominator == 1:
        return f"u^{qstr(a)}"
    return f"u^({qstr(a)})"


def normalize(raw_terms: Iterable[tuple[object, object]]) -> CountingFunction:
    """Build a canonical counting function from (exponent, multiplicity) pairs.

    Pairs with equal exponents are merged; zero multiplicities are dropped;
    the result is sorted by descending exponent.
    """
    return CountingFunction(canonical_terms(raw_terms, descending=True))


def oplus(n1: CountingFunction, n2: CountingFunction) -> CountingFunction:
    """Direct sum: pointwise addition of the term maps."""
    return normalize(n1.terms + n2.terms)


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

    Each factor is taken to integers: its exponents times L, the lcm of all
    exponent denominators, and its multiplicities times d_i, the lcm of
    their own denominators.  The :func:`integer_product` is divided by
    prod d_i^r_i once, when the terms are built.
    """
    factors = [(n, _power(r)) for n, r in factors]
    if any(n.is_zero() for n, _ in factors):
        return ZERO
    den = math.lcm(*[a.denominator for n, _ in factors for a, _ in n.terms])
    denominators = [math.lcm(*[m.denominator for _, m in n.terms]) for n, _ in factors]
    _check_budget(sum([r * (d - 1).bit_length() for (_, r), d in zip(factors, denominators)]),
                  MAX_PACKED_BITS, "packed bits")
    powers = [([(a.numerator * (den // a.denominator), m.numerator * (d // m.denominator))
                for a, m in n.terms], r) for (n, r), d in zip(factors, denominators)]
    return from_integer_terms(integer_product(powers), den,
                              math.prod([d ** r for (_, r), d in zip(factors, denominators)]))


def integer_product(powers: list[tuple[list[tuple[int, int]], int]]) -> list[tuple[int, int]]:
    """The product of powers r >= 1 of exponent-descending integer terms (E, C),
    C != 0, as such terms.  It is packed if every factor spans at most
    :data:`DENSE_SLOTS_PER_TERM` steps of g per term, g the gcd of the
    exponents' offsets from each factor's least one; else it is convolved."""
    step = _lattice_step(powers)
    if all([_dense(terms, step) for terms, _ in powers]):
        return _packed_product(powers, step)
    return _sparse_product(powers)


def from_integer_terms(product: list[tuple[int, int]], den: int = 1,
                       denominator: int = 1) -> CountingFunction:
    """The counting function of the terms (E / den, C / denominator), for
    exponent-descending integer terms (E, C) with C != 0."""
    return CountingFunction(tuple(zip(_fractions([e for e, _ in product], den),
                                      _fractions([c for _, c in product], denominator))))


def _fractions(values: list[int], den: int) -> list[Fraction]:
    if den == 1:  # the int-only path of Fraction.__new__, a third cheaper than Fraction(v, 1)
        return [Fraction(v) for v in values]
    return [Fraction(v, den) for v in values]


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
    overflows; the slots are offset by 2^(8 w - 1) to read them unsigned."""
    bound_bits = sum([r * (sum([abs(c) for _, c in terms]) - 1).bit_length()
                      for terms, r in powers])
    width = (bound_bits + 9) // 8
    slots = sum([r * ((terms[0][0] - terms[-1][0]) // step) for terms, r in powers]) + 1
    _check_budget(slots * 8 * width, MAX_PACKED_BITS, "packed bits")
    packed = 1
    for terms, r in powers:
        low = terms[-1][0]
        coefficients = [0] * ((terms[0][0] - low) // step + 1)
        for e, c in terms:
            coefficients[(e - low) // step] = c
        packed *= _pack(coefficients, width) ** r
    lowest = sum([r * terms[-1][0] for terms, r in powers])
    half = 1 << (8 * width - 1)
    data = (packed + _bias(slots, width)).to_bytes(slots * width, "little")
    product = []
    for j in range(slots - 1, -1, -1):
        c = int.from_bytes(data[j * width:(j + 1) * width], "little") - half
        if c:
            product.append((lowest + step * j, c))
    return product


def _bias(slots: int, width: int) -> int:
    """The sum over the slots of 2^(8 * width - 1), which makes every slot nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack(coefficients: list[int], width: int) -> int:
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
    """Evaluate N(u) for real u > 1 (rational exponents need a positive base).  With integer
    exponents, a sum that cancels, eps sum |m u^a| > 1e-12 max(1, |N(u)|), is taken in
    Fractions of u, within MAX_PACKED_BITS bits of powers (else ParameterRangeError)."""
    u = float(u)
    if not (math.isfinite(u) and u > 1.0):
        raise DomainError(f"counting functions are evaluated at finite u > 1, got u={u}")
    lu = math.log(u)
    total = size = 0.0
    try:
        for a, m in n.terms:
            # integer powers directly: keeps e.g. 4^3 - 4 at exactly 60.0
            term = float(m) * (u ** a.numerator if a.denominator == 1 else math.exp(float(a) * lu))
            total, size = total + term, size + abs(term)
        if (math.ulp(1.0) * size > 1e-12 * max(1.0, abs(total))
                and all(a.denominator == 1 for a, _ in n.terms)):
            exact_u = Fraction(u)
            bits = exact_u.numerator.bit_length() * sum(abs(a.numerator) for a, _ in n.terms)
            if bits > MAX_PACKED_BITS:
                raise ParameterRangeError(f"N(u) at u={u} cancels below float rounding, and "
                                          f"its exact powers exceed {MAX_PACKED_BITS} bits")
            total = float(sum(m * exact_u ** a.numerator for a, m in n.terms))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"the value N(u) at u={u} must be finite, got {total}")
    return total


#: The zero function.
ZERO = CountingFunction(())
#: The constant function 1 (the one-point scheme).
ONE = normalize([(0, 1)])
#: The identity monomial u (the affine line counts u, its unit group u - 1).
U = normalize([(1, 1)])
#: u - 1, the counting function of the multiplicative group.
U_MINUS_ONE = normalize([(1, 1), (0, -1)])
