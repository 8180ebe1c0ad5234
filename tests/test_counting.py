"""Counting-function algebra.

Claims covered:
- normalization merges equal exponents, drops zeros, sorts descending;
- every operation returns the canonical integer term map: least exponent
  and multiplicity denominators L and M, gcd(M, every C) = 1, integer
  pairs (E, C) exponent-descending, equal to a Fraction reference; a
  product's packed-bit charge uses each factor's reduced M;
- direct sum is pointwise addition, tensor product convolves exponents
  (oracle: independent dict convolution, sympy expansion, and numeric
  evaluation homomorphisms);
- the integer kernel (packed when the exponent lattice is dense, term
  pairs when it is sparse) matches the dict convolution on byte-boundary
  coefficients, sparse lattices, coprime denominators, one term and zero,
  and in every slot width of 1 to 9 bytes, the sign bit tight included;
  a factor of 150000 terms packs within the budget and in bounded time;
- tensor powers expand (u-1)^r correctly, and powers of one-, two- and
  three-term bases, dense and sparse, agree with r - 1 repeated products;
- both expansion budgets, packed bits and term pairs, refuse oversized
  products before multiplying;
- evaluation at real u > 1 behaves, is exact where the powers of u are,
  meets a high-precision reference where rational exponents cancel, and
  rejects out-of-domain points;
- the operations form a commutative semiring (hypothesis property suite).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction as F
from itertools import product as iproduct

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import abszeta.counting as cf
from abszeta.errors import DomainError, ParameterRangeError
from abszeta.parser import parse_expr
from abszeta.rationals import as_rational

# ---------------------------------------------------------------------------
# oracles

def oracle_otimes(t1, t2):
    """Independent tensor-product reference: plain dict convolution."""
    acc = {}
    for (a1, m1), (a2, m2) in iproduct(t1, t2):
        acc[a1 + a2] = acc.get(a1 + a2, F(0)) + m1 * m2
    return {a: m for a, m in acc.items() if m != 0}


def to_sympy(n, u):
    return sum(sympy.Rational(m) * u ** sympy.Rational(a) for a, m in n.terms)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
counting_fns = st.lists(st.tuples(rationals, rationals), max_size=5).map(cf.normalize)

# inputs aimed at the integer kernel: coefficients at +-2^(8j) +- 1, so packed
# slots and their products cross byte boundaries; exponents far apart (a sparse
# lattice); pairwise coprime exponent denominators; single terms and zero
byte_edges = st.builds(lambda j, s, t: s * 2 ** (8 * j) + t, st.integers(0, 5),
                       st.sampled_from([1, -1]), st.sampled_from([1, -1]))
dense_runs = st.builds(
    lambda start, den, cs: cf.normalize([(F(start + i, den), c) for i, c in enumerate(cs)]),
    st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]), st.lists(byte_edges, min_size=1, max_size=9))
sparse_lattices = st.lists(st.tuples(st.integers(-10 ** 9, 10 ** 9), byte_edges),
                           min_size=3, max_size=6).map(cf.normalize)
coprime_exponents = st.lists(
    st.tuples(st.builds(F, st.integers(-30, 30), st.sampled_from([1, 7, 11, 13, 17])), rationals),
    min_size=1, max_size=6).map(cf.normalize)
one_terms = st.tuples(rationals, st.one_of(rationals, byte_edges)).map(lambda t: cf.normalize([t]))
kernel_fns = st.one_of(dense_runs, sparse_lattices, coprime_exponents, one_terms,
                       st.just(cf.ZERO))


# ---------------------------------------------------------------------------
# normalization and representation

def test_normalize_canonical_order_and_merge():
    n = cf.normalize([(1, 2), (3, 1), (1, -1), (0, 5), (2, 0)])
    assert n.terms == ((F(3), F(1)), (F(1), F(1)), (F(0), F(5)))


def test_normalize_drops_cancelling_terms():
    assert cf.normalize([(1, 1), (1, -1)]) == cf.ZERO
    assert cf.normalize([]).is_zero()


def test_sl2_term_map():
    n = cf.normalize([(3, 1), (1, -1)])
    assert dict(n.terms) == {F(3): F(1), F(1): F(-1)}
    assert str(n) == "u^3 - u"


def test_string_forms():
    assert str(cf.ZERO) == "0"
    assert str(cf.ONE) == "1"
    assert str(cf.normalize([(0, -2)])) == "-2"
    assert str(cf.normalize([(F(1, 2), 1), (0, 1)])) == "u^(1/2) + 1"
    assert str(cf.normalize([(2, F(3, 2))])) == "3/2*u^2"
    assert str(cf.normalize([(-2, 1), (1, -1)])) == "-u + u^-2"


def _canonical_form(acc: dict) -> tuple:
    """The reference (L, M, pairs) of a Fraction map, built from its nonzero entries."""
    acc = {a: m for a, m in acc.items() if m != 0}
    den = math.lcm(*[a.denominator for a in acc])
    mden = math.lcm(*[m.denominator for m in acc.values()])
    return den, mden, tuple([(int(a * den), int(m * mden))
                             for a, m in sorted(acc.items(), reverse=True)])


def _merged(raw) -> dict:
    acc = {}
    for a, m in raw:
        acc[F(a)] = acc.get(F(a), F(0)) + F(m)
    return acc


def _assert_canonical(n, acc: dict) -> None:
    assert (n.den, n.mden, n.pairs) == _canonical_form(acc)
    assert type(n.pairs) is tuple
    assert math.gcd(n.den, *[e for e, _ in n.pairs]) == 1 or not n.pairs
    assert math.gcd(n.mden, *[c for _, c in n.pairs]) == 1


raw_maps = st.lists(st.tuples(rationals, rationals), max_size=5)


@settings(max_examples=150)
@given(raw_maps, raw_maps, st.integers(1, 3))
def test_operations_return_the_canonical_integer_map(raw1, raw2, r):
    """normalize, oplus, otimes and tensor_power against a Fraction convolution."""
    n1, n2 = cf.normalize(raw1), cf.normalize(raw2)
    ref1, ref2 = _merged(raw1), _merged(raw2)
    _assert_canonical(n1, ref1)
    _assert_canonical(cf.oplus(n1, n2), _merged(list(raw1) + list(raw2)))
    _assert_canonical(cf.otimes(n1, n2), oracle_otimes(ref1.items(), ref2.items()))
    power = {F(0): F(1)}
    for _ in range(r):
        power = oracle_otimes(power.items(), ref1.items())
    _assert_canonical(cf.tensor_power(n1, r), power)


def test_product_reduces_its_denominators():
    """(u/2 + 1/2)(2u + 2) = u^2 + 2u + 1 has M = 1, and u^(1/2) u^(1/2) has L = 1."""
    n = cf.otimes(cf.normalize([(1, F(1, 2)), (0, F(1, 2))]), cf.normalize([(1, 2), (0, 2)]))
    assert (n.den, n.mden, n.pairs) == (1, 1, ((2, 1), (1, 2), (0, 1)))
    half = cf.normalize([(F(1, 2), 1)])
    assert (cf.otimes(half, half).den, cf.otimes(half, half).pairs) == (1, ((1, 1),))
    assert (cf.ZERO.den, cf.ZERO.mden, cf.ZERO.pairs) == (1, 1, ())


def test_packed_bit_charge_uses_the_reduced_multiplicity_denominator():
    """A factor of M = 2 is charged one bit a power, so (u/2)^r passes at
    r = MAX_PACKED_BITS and is refused one power later, before anything is
    multiplied; (u/2) 2 = u has M = 1 and is charged nothing."""
    half_u = cf.normalize([(1, F(1, 2))])
    power = cf.tensor_power(half_u, cf.MAX_PACKED_BITS)
    assert (power.den, power.mden, power.pairs) == (1, 2 ** cf.MAX_PACKED_BITS,
                                                    ((cf.MAX_PACKED_BITS, 1),))
    start = time.perf_counter()
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(half_u, cf.MAX_PACKED_BITS + 1)
    assert time.perf_counter() - start < 0.1
    u = cf.otimes(half_u, cf.normalize([(0, 2)]))
    assert u == cf.U and u.mden == 1
    assert cf.tensor_power(u, cf.MAX_PACKED_BITS + 1).pairs == ((cf.MAX_PACKED_BITS + 1, 1),)


def test_accessors():
    n = cf.normalize([(3, 1), (1, -1)])
    assert n.multiplicity_sum() == 0
    assert n.max_exponent() == 3
    assert cf.ZERO.max_exponent() is None


# ---------------------------------------------------------------------------
# direct sum and tensor product

def test_oplus_is_pointwise_addition():
    gm = cf.U_MINUS_ONE
    assert dict(cf.oplus(gm, gm).terms) == {F(1): F(2), F(0): F(-2)}
    assert cf.oplus(gm, cf.ZERO) == gm


def test_otimes_square_of_gm():
    sq = cf.otimes(cf.U_MINUS_ONE, cf.U_MINUS_ONE)
    assert dict(sq.terms) == {F(2): F(1), F(1): F(-2), F(0): F(1)}


def test_otimes_rational_exponents():
    half = cf.normalize([(F(1, 2), 1)])
    assert cf.otimes(half, half) == cf.U
    mixed = cf.otimes(cf.normalize([(F(1, 2), 2), (0, 1)]),
                      cf.normalize([(F(-1, 2), 1)]))
    assert dict(mixed.terms) == {F(0): F(2), F(-1, 2): F(1)}


def test_tensor_power_expands_binomially():
    cube = cf.tensor_power(cf.U_MINUS_ONE, 3)
    expected = {F(k): F((-1) ** (3 - k) * math.comb(3, k)) for k in range(4)}
    assert dict(cube.terms) == expected


def _random_base(rng, k, rational):
    pool = sorted({F(e, d) for e in range(-4, 5) for d in ((1, 2, 3, 4) if rational else (1,))})
    return cf.normalize(
        (e, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3) if rational else 1))
        for e in rng.sample(pool, k))


def _byte_edge_base(rng, k):
    """k terms at adjacent exponents with coefficients +-2^(8j) +- 1."""
    return cf.normalize((e, rng.choice([1, -1]) * 2 ** (8 * rng.randint(1, 3))
                         + rng.choice([1, -1])) for e in range(k))


def _sparse_base(rng, k):
    """k terms spread over a lattice far wider than k slots per term."""
    return cf.normalize((e, rng.choice([-2, -1, 1, 2]))
                        for e in rng.sample([0, 1, 1000, 2 ** 40], k))


def _repeated(base, r):
    repeated = base
    for _ in range(r - 1):
        repeated = cf.otimes(repeated, base)
    return repeated


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rational", [False, True])
def test_tensor_power_matches_repeated_otimes(k, rational):
    """One pow of the packed base (and, for three sparse terms, binary squaring)
    against r - 1 products; two-term bases run to r = 64."""
    rng = random.Random(100 * k + rational)
    for r in (1, 2, 3, 5, 8, 13, 21, 32, 64):
        bases = [_random_base(rng, k, rational), _byte_edge_base(rng, k)]
        if k == 3 and r <= 13:
            bases.append(_sparse_base(rng, k))
        for base in bases:
            assert len(base.terms) == k
            assert cf.tensor_power(base, r) == _repeated(base, r), (base, r)


def test_expansion_budget():
    """Packed bits bound the dense path and term pairs the sparse one; both
    refuse before multiplying, r = 10^12 included, and Gm^722 still expands."""
    start = time.perf_counter()
    # dense: (u + 1)^r packs r + 1 slots of about r bits each
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(cf.normalize([(1, 1), (0, 1)]), 4096)
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(cf.U_MINUS_ONE, 10 ** 12)
    # a one-term base whose coefficient, or denominator, grows without bound
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(cf.normalize([(0, 10 ** 100 - 1)]), 512 * 512)
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(cf.normalize([(1, F(1, 3))]), 10 ** 12)
    dense = cf.normalize((a, 2 ** 4100) for a in range(1024))  # 2047 slots of 8.2 kbit
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.otimes(dense, dense)
    # sparse: term pairs, and the bits of the multiplicities they multiply
    side = math.isqrt(cf.MAX_TERM_PAIRS) + 1
    sparse = cf.normalize((a * a, 1) for a in range(side))
    with pytest.raises(ParameterRangeError, match="term pairs"):
        cf.otimes(sparse, sparse)
    with pytest.raises(ParameterRangeError, match="term pairs"):
        cf.tensor_power(sparse, 2)
    heavy = cf.normalize([(1000, 2 ** (2 ** 22)), (1, 1), (0, 1)])
    with pytest.raises(ParameterRangeError, match="packed bits"):
        cf.tensor_power(heavy, 2)
    assert time.perf_counter() - start < 1.0
    assert len(cf.tensor_power(cf.U_MINUS_ONE, 722).terms) == 723


def test_largest_packed_power_of_u_plus_one():
    """(u + 1)^2046 packs 2047 slots of 256 bytes, 4192256 bits, just within
    MAX_PACKED_BITS = 2^22; (u + 1)^2047 needs 2048 slots of 257 bytes and is
    refused before anything is multiplied."""
    assert cf.MAX_PACKED_BITS == 2 ** 22
    base = cf.normalize([(1, 1), (0, 1)])
    power = cf.tensor_power(base, 2046)
    assert len(power.terms) == 2047
    assert dict(power.terms)[F(1023)] == math.comb(2046, 1023)
    start = time.perf_counter()
    with pytest.raises(ParameterRangeError, match="4194304 packed bits"):
        cf.tensor_power(base, 2047)
    assert time.perf_counter() - start < 0.1


def _dict_power_product(powers):
    """Independent reference for integer_product: repeated dict convolution."""
    acc = {0: 1}
    for terms, r in powers:
        for _ in range(r):
            acc = oracle_otimes(acc.items(), terms)
    return sorted(acc.items(), reverse=True)


def _bound_bits(powers):
    """The bits of the kernel's coefficient bound prod (sum |C|)^r."""
    return sum(r * (sum(abs(c) for _, c in terms) - 1).bit_length() for terms, r in powers)


@st.composite
def slot_class_products(draw):
    """Factor lists whose coefficient bound falls in a drawn slot width of 1 to 9
    bytes, at its top 2^(8 w - 2) half the time, where the sign bit is tight: small
    factors with negative coefficients and exponent gaps, and one factor of one or
    two terms whose sum |C| is a power of two fills the bound up to the target."""
    width = draw(st.integers(1, 9))
    target = 8 * width - 2 if draw(st.booleans()) else draw(
        st.integers(max(0, 8 * width - 9), 8 * width - 2))
    gap = draw(st.sampled_from([1, 2, 3, 7]))
    powers = []
    for _ in range(draw(st.integers(0, 3))):
        slots = sorted(set(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))),
                       reverse=True)
        low = draw(st.integers(-20, 20))
        terms = [(low + gap * s, draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))) for s in slots]
        power = draw(st.integers(1, 5))
        if _bound_bits(powers + [(terms, power)]) <= target:
            powers.append((terms, power))
    fill = target - _bound_bits(powers)
    signs = st.sampled_from([1, -1])
    if fill and draw(st.booleans()):  # a binomial with sum |C| = 2^fill
        first = draw(st.integers(1, 2 ** fill - 1))
        filler = [(gap * draw(st.integers(1, 6)), draw(signs) * first),
                  (0, draw(signs) * (2 ** fill - first))]
    else:
        filler = [(gap * draw(st.integers(-6, 6)), draw(signs) * 2 ** fill)]
    powers.insert(draw(st.integers(0, len(powers))), (filler, 1))
    assert (_bound_bits(powers) + 9) // 8 == width  # the drawn slot class
    return powers


@settings(max_examples=300)
@given(slot_class_products())
def test_integer_product_in_every_slot_class(powers):
    """1-, 2-, 4- and 8-byte slots (3 and 5 to 7 bytes widened to them) are read by
    one cast, and 9-byte slots by int.from_bytes; each equals the dict convolution."""
    assert cf.integer_product(powers) == _dict_power_product(powers)


def test_a_long_factor_packs_by_bytes_within_the_budget():
    """A = sum_{k<150000} u^k: its 3-byte slots fit MAX_PACKED_BITS and 4-byte ones
    would not, so the product keeps 3-byte slots, read by int.from_bytes; its terms are
    packed by one byte join, where a shift per term would build 150000 big integers."""
    long = cf.normalize([(k, 1) for k in range(150000)])
    assert 150000 * 8 * 3 <= cf.MAX_PACKED_BITS < 150000 * 8 * 4
    start = time.perf_counter()
    product = cf.otimes(long, cf.ONE)
    assert time.perf_counter() - start < 1.0
    # the integer map, which equality would compare through 150000 Fractions a side
    assert (product.den, product.mden, product.pairs) == (long.den, long.mden, long.pairs)


@pytest.mark.parametrize("bad", [0, -1, 2.0, F(3, 2)])
def test_tensor_power_rejects_bad_exponent(bad):
    with pytest.raises(ParameterRangeError):
        cf.tensor_power(cf.U, bad)


def test_operator_sugar():
    gm = cf.U_MINUS_ONE
    assert gm + gm == cf.oplus(gm, gm)
    assert gm * gm == cf.otimes(gm, gm)
    assert gm ** 3 == cf.tensor_power(gm, 3)


@settings(max_examples=250)
@given(counting_fns | kernel_fns, counting_fns | kernel_fns)
def test_otimes_matches_dict_convolution_oracle(n1, n2):
    assert cf.otimes(n1, n2) == cf.normalize(oracle_otimes(n1.terms, n2.terms).items())


@settings(max_examples=60)
@given(counting_fns, counting_fns)
def test_algebra_matches_sympy(n1, n2):
    u = sympy.Symbol("u", positive=True)
    assert sympy.expand(to_sympy(cf.oplus(n1, n2), u)
                        - to_sympy(n1, u) - to_sympy(n2, u)) == 0
    assert sympy.expand(to_sympy(cf.otimes(n1, n2), u)
                        - sympy.expand(to_sympy(n1, u) * to_sympy(n2, u))) == 0


# ---------------------------------------------------------------------------
# semiring properties

@settings(max_examples=80)
@given(counting_fns, counting_fns)
def test_commutativity(n1, n2):
    assert cf.oplus(n1, n2) == cf.oplus(n2, n1)
    assert cf.otimes(n1, n2) == cf.otimes(n2, n1)


@settings(max_examples=50)
@given(counting_fns, counting_fns, counting_fns)
def test_associativity_and_distributivity(n1, n2, n3):
    assert cf.oplus(cf.oplus(n1, n2), n3) == cf.oplus(n1, cf.oplus(n2, n3))
    assert cf.otimes(cf.otimes(n1, n2), n3) == cf.otimes(n1, cf.otimes(n2, n3))
    assert (cf.otimes(n1, cf.oplus(n2, n3))
            == cf.oplus(cf.otimes(n1, n2), cf.otimes(n1, n3)))


@settings(max_examples=50)
@given(counting_fns)
def test_units(n):
    assert cf.oplus(n, cf.ZERO) == n
    assert cf.otimes(n, cf.ONE) == n
    assert cf.otimes(n, cf.ZERO) == cf.ZERO


# ---------------------------------------------------------------------------
# evaluation

def test_eval_at_known_values():
    n = cf.normalize([(3, 1), (1, -1)])
    assert cf.eval_at(n, 4.0) == pytest.approx(60.0, abs=1e-12)
    assert cf.eval_at(cf.ONE, 17.3) == pytest.approx(1.0)
    half = cf.normalize([(F(1, 2), 1)])
    assert cf.eval_at(half, 9.0) == pytest.approx(3.0, rel=1e-14)


def test_eval_at_takes_a_cancelling_integer_sum_exactly():
    """(u - 1)^40 at 1.5 is 2^-40, while its 41 float terms round to about 2e-6;
    the Fractions of the float u give the sum exactly.  Exact powers beyond the
    packed-bit budget are refused; a rational exponent takes the decimal route."""
    assert cf.eval_at(cf.tensor_power(cf.U_MINUS_ONE, 40), 1.5) == 2.0 ** -40
    assert cf.eval_at(cf.tensor_power(cf.U_MINUS_ONE, 20), 1.5) == 2.0 ** -20
    u = 1.1  # its Fraction has a 53-bit numerator, and the value is exact in that Fraction
    expected = float((F(u) - 1) ** 30)
    assert cf.eval_at(cf.tensor_power(cf.U_MINUS_ONE, 30), u) == expected
    with pytest.raises(ParameterRangeError, match="cancels below float rounding"):
        cf.eval_at(cf.tensor_power(cf.U_MINUS_ONE, 512), 1.1)
    root = cf.normalize([(F(1, 2), 1), (0, -1)])  # u^(1/2) - 1
    assert cf.eval_at(cf.tensor_power(root, 400), 1.1) == 0.0  # 1.1e-525 underflows


def _reference(n, u: float) -> float:
    with mpmath.workdps(200):
        return float(mpmath.fsum(mpmath.mpf(m.numerator) / m.denominator
                                 * mpmath.mpf(u) ** (mpmath.mpf(a.numerator) / a.denominator)
                                 for a, m in n.terms))


def test_eval_at_takes_a_cancelling_rational_sum_in_decimal():
    """With rational exponents a sum that cancels is taken on the lattice v = u^(1/L)
    in decimal, within 1e-13 of a 200-digit reference (floats gave -1.9e-3 for
    (u^(1/2) - 1)^40 at 1.5, whose value is 1.17e-26, and 5.1514e-13 for the
    5.1177e-13 of (u^(1/4) - 1)^9, a value below 1); a zero on the lattice reads 0.0
    once the rounding bound is below 1e-13 of the least subnormal float, at a rational
    root v = 2 and at the irrational v = sqrt(2) alike."""
    for text, u in [("(u^(1/2)-1)^40", 1.5), ("(u-4)^6*(u^(1/2)-3)^3", 2.340685),
                    ("(u-4)^4*(u^(1/2)+3)^4", 4.703625), ("(2/3*u^(1/3)-1)^30*(u-1)", 3.3),
                    ("(u^(1/4)-1)^9", 1.1838082164714745)]:
        n = parse_expr(text)
        assert cf.eval_at(n, u) == pytest.approx(_reference(n, u), rel=1e-13, abs=0), text
    rng = random.Random(7)
    for _ in range(40):
        d, k, j = rng.choice([2, 3, 5]), rng.randint(1, 40), rng.randint(0, 10)
        c = F(rng.randint(1, 9), rng.randint(1, 4))
        n = parse_expr(f"(u^(1/{d})-{c})^{k}*(u+1)^{j}")
        u = rng.uniform(1.0001, 3.0)
        # the float route, taken where eps sum |term| <= 1e-12 |N(u)|, is held to that
        assert cf.eval_at(n, u) == pytest.approx(_reference(n, u), rel=1e-11, abs=1e-11), (n, u)
    start = time.perf_counter()
    assert cf.eval_at(parse_expr("(u^(3/2)-2*u^(1/2))^7"), 2.0) == 0.0  # sqrt(2)^7 (2 - 2)^7
    assert cf.eval_at(parse_expr("u^(1/2)-2"), 4.0) == 0.0
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("u", [1.0, 0.5, -3.0, float("nan"), float("inf")])
def test_eval_at_domain(u):
    with pytest.raises(DomainError):
        cf.eval_at(cf.U, u)


@settings(max_examples=60)
@given(counting_fns, counting_fns)
def test_eval_is_a_homomorphism(n1, n2):
    u = 1.7
    s = cf.eval_at(cf.oplus(n1, n2), u)
    p = cf.eval_at(cf.otimes(n1, n2), u)
    assert s == pytest.approx(cf.eval_at(n1, u) + cf.eval_at(n2, u), abs=1e-9)
    assert p == pytest.approx(cf.eval_at(n1, u) * cf.eval_at(n2, u), abs=1e-9)


def test_as_rational_refuses_huge_decimal_exponents():
    """Fraction would expand 10^exponent exactly, so an exponent past
    sys.get_int_max_str_digits() (4300) is refused before it is parsed."""
    assert as_rational("1e4300") == 10 ** 4300
    assert as_rational("25e-0_004300") == F(25, 10 ** 4300)
    for text in ("1e4301", "-2.5E-4301", "1e00004_301 ", "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(ParameterRangeError, match="decimal exponent"):
            as_rational(text)
        assert time.perf_counter() - start < 0.1, text[:20]
    with pytest.raises(ValueError, match="not a rational literal"):
        as_rational("1e")


def test_eval_rational_exact():
    """Integer powers are taken directly, so at a u whose powers and sums
    are exact in floats, eval_at returns the rational value exactly."""
    n = cf.normalize([(3, 1), (1, -1)])
    assert cf.eval_at(n, 1.5) == float(F(27, 8) - F(3, 2))
    neg = cf.normalize([(-2, 3)])
    assert cf.eval_at(neg, 2.0) == float(F(3, 4))
