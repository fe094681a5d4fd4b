"""Exact scalar arithmetic: Laurent polynomials, rational functions in q,
q-combinatorics, and cyclotomic specialization."""

import operator
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

RATFUNC_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow],
)

from qgl.errors import BadRootOrder, DenominatorVanishes
from qgl.scalars import (
    CycloNum,
    LaurentInt,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RatFunc,
    _pmul,
    cyclotomic_poly,
    evaluate_at_root,
    exact_quotient,
    gauss_factorial,
    gauss_int,
)

from scalar_oracles import gauss_binomial, kbracket_scalar

# -- strategies -------------------------------------------------------------

small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def laurents(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(n):
        coeffs[draw(small_ints)] = draw(st.integers(min_value=-9, max_value=9))
    return LaurentInt(coeffs)


@st.composite
def ratfuncs(draw, nonzero=False):
    num = draw(laurents())
    while nonzero and num.is_zero():
        num = draw(laurents())
    den = draw(laurents())
    while den.is_zero():
        den = draw(laurents())
    return num / den


# -- LaurentInt -------------------------------------------------------------


@settings(max_examples=200)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentInt({}) == a
    assert a * LaurentInt({0: 1}) == a
    assert a - a == LaurentInt({})


@settings(max_examples=200)
@given(laurents(), laurents())
def test_laurent_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


def test_laurent_no_zero_coeffs_stored():
    x = LaurentInt({2: 1, 0: 0, -1: 3})
    assert set(x.coeffs) == {2, -1}
    assert (x - x).coeffs == {}


def test_laurent_render():
    x = LaurentInt({2: 3, -1: -1, 0: 4})
    assert x.render() == "3*q^2 + 4 - q^-1"
    assert LaurentInt({}).render() == "0"
    assert LaurentInt({1: 1}).render() == "q"
    assert LaurentInt({-2: -2}).render() == "-2*q^-2"


@RATFUNC_SETTINGS
@given(laurents(), ratfuncs())
def test_laurent_values_are_ratfunc_values(a, r):
    ra = RatFunc(a.num, a.den)  # the plain RatFunc on the same tuples
    assert isinstance(a, RatFunc) and type(ra) is RatFunc
    assert a == ra and hash(a) == hash(ra)
    assert len({a, ra}) == 1
    assert a + r == r + a == ra + r
    assert a - r == -(r - a) == ra - r
    assert a * r == r * a == ra * r
    assert a * Fraction(2, 3) == Fraction(2, 3) * a == ra * RatFunc.from_fraction(Fraction(2, 3))


def test_laurent_mixes_with_ratfunc_and_fraction():
    two = LaurentInt({0: 2})
    assert isinstance(gauss_int(3), RatFunc)
    assert hash(two) == hash(RatFunc.from_int(2))
    assert len({two, RatFunc.from_int(2)}) == 1
    x = LaurentInt({1: 1})
    assert (x + RF_Q).render() == (RF_Q + x).render() == "2*q"
    assert (x * Fraction(1, 2)).render() == "1/2*q"
    assert (x * Fraction(1, 2)).coeffs == {1: Fraction(1, 2)}
    # as_laurent_int gives a LaurentInt back on the same tuples
    y = (x * gauss_int(2)).as_laurent_int()
    assert isinstance(y, LaurentInt) and y.coeffs == {2: 1, 0: 1}
    assert y.at_one() == 2
    with pytest.raises(ValueError):
        (RF_ONE / (RF_Q + 1)).coeffs


# -- RatFunc ----------------------------------------------------------------


@RATFUNC_SETTINGS
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a
    assert a * RF_ONE == a
    assert a - a == RF_ZERO


@RATFUNC_SETTINGS
@given(ratfuncs(nonzero=True))
def test_ratfunc_inverse(a):
    assert a * a.inverse() == RF_ONE


@RATFUNC_SETTINGS
@given(ratfuncs(), ratfuncs())
def test_ratfunc_bar_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@RATFUNC_SETTINGS
@given(ratfuncs(), ratfuncs())
def test_ratfunc_equality_is_canonical(a, b):
    # equal values hash equally (canonical form): test via a/b * b == a
    if not b == RF_ZERO:
        c = (a / b) * b
        assert c == a
        assert hash(c) == hash(a)


def test_ratfunc_roundtrips():
    x = LaurentInt({3: 2, -1: -5})
    assert x.as_laurent_int() == LaurentInt({3: 2, -1: -5})
    y = RatFunc.from_fraction(Fraction(3, 7))
    assert y.as_laurent_int() is None
    assert y.as_laurent_rational() == {0: Fraction(3, 7)}
    assert (RF_Q + RF_ONE).render() == "q + 1"
    frac = RF_ONE / (RF_Q + RF_ONE)
    assert frac.render() == "(1)/(q + 1)"
    assert RatFunc.from_int(5).as_int() == 5


def test_ratfunc_q_power_negative():
    assert RF_Q.inverse() == RatFunc.q_power(-1)
    assert RatFunc.q_power(-3) * RatFunc.q_power(3) == RF_ONE


# -- RatFunc against a Fraction-based reference ------------------------------
#
# The reference keeps a value as (num, den) over Q in lowest terms with a
# monic denominator, by Euclid over Fraction coefficients: an oracle that
# shares no code with the integer core.


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] += c
    return _ref_trim(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(a, b):
    rem, db = list(a), len(b) - 1
    quo = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        f = rem[i] / b[-1]
        quo[i - db] = f
        for j, c in enumerate(b):
            rem[i - db + j] -= f * c
    return _ref_trim(quo), _ref_trim(rem)


def _ref_make(num, den):
    num, den = tuple(map(Fraction, num)), tuple(map(Fraction, den))
    a, b = num, den
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    num, den = _ref_divmod(num, a)[0], _ref_divmod(den, a)[0]
    lead = den[-1]
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


def _ref_from_laurent(lp):
    shift = min(list(lp.coeffs) + [0])
    num = [Fraction(0)] * (max(list(lp.coeffs) + [0]) - shift + 1)
    for e, c in lp.coeffs.items():
        num[e - shift] = Fraction(c)
    return _ref_make(_ref_trim(num), (Fraction(0),) * -shift + (Fraction(1),))


def _ref_render_poly(coeffs):
    parts = []
    for e, c in sorted(coeffs.items(), reverse=True):
        body = str(abs(c)) if e == 0 else ("q" if e == 1 else "q^%d" % e)
        if e != 0 and abs(c) != 1:
            body = "%s*%s" % (abs(c), body)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def _ref_render(num, den):
    if den[-1] == 1 and not any(den[:-1]):
        k = len(den) - 1
        return _ref_render_poly({i - k: c for i, c in enumerate(num) if c})
    return "(%s)/(%s)" % (
        _ref_render_poly({i: c for i, c in enumerate(num) if c}),
        _ref_render_poly({i: c for i, c in enumerate(den) if c}),
    )


def _ref_op(op, x, y):
    (a, b), (c, d) = x, y
    if op == "+":
        return _ref_make(_ref_add(_ref_mul(a, d), _ref_mul(c, b)), _ref_mul(b, d))
    if op == "-":
        return _ref_op("+", x, (tuple(-v for v in c), d))
    if op == "*":
        return _ref_make(_ref_mul(a, c), _ref_mul(b, d))
    return _ref_make(_ref_mul(a, d), _ref_mul(b, c))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def ratfuncs_with_ref(draw):
    """A RatFunc built from Laurent polynomials and a rational scalar, with its reference."""
    num, den = draw(laurents()), draw(laurents())
    while den.is_zero():
        den = draw(laurents())
    scale = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    value = num / den * scale
    ref = _ref_op("/", _ref_from_laurent(num), _ref_from_laurent(den))
    ref = _ref_op("*", ref, ((scale,) if scale else (), (Fraction(1),)))
    return value, ref


def assert_canonical(x):
    num, den = x.num, x.den
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    assert not num or num[-1] != 0
    assert gcd(*num, *den) == 1
    if not num:
        assert den == (1,)
    else:
        assert len(_ref_make(num, den)[1]) == len(den)  # no common factor to cancel


@RATFUNC_SETTINGS
@given(ratfuncs_with_ref(), ratfuncs_with_ref(), st.sampled_from("+-*/"))
def test_ratfunc_matches_fraction_reference(x, y, op):
    (a, ref_a), (b, ref_b) = x, y
    for value, ref in ((a, ref_a), (b, ref_b)):
        assert_canonical(value)
        assert _ref_make(value.num, value.den) == ref
        assert value.render() == _ref_render(*ref)
    if op == "/" and b.is_zero():
        return
    c = _OPS[op](a, b)
    ref_c = _ref_op(op, ref_a, ref_b)
    assert_canonical(c)
    assert _ref_make(c.num, c.den) == ref_c
    assert c.render() == _ref_render(*ref_c)
    assert_canonical(c.bar())


def test_ratfunc_integer_laurent_has_unit_monomial_den():
    x = LaurentInt({-2: 3, 1: -1})
    assert (x.num, x.den) == ((3, 0, 0, -1), (0, 0, 1))
    y = x * Fraction(1, 2)
    assert (y.num, y.den) == ((3, 0, 0, -1), (0, 0, 2))
    assert y.as_laurent_int() is None and y.render() == "-1/2*q + 3/2*q^-2"


@st.composite
def monomials(draw):
    """c q^k as a dense tuple, c = +-1 or |c| > 1, k = 0 among the shifts."""
    c = draw(st.sampled_from((1, -1)) | st.integers(-50, 50).filter(lambda c: abs(c) > 1))
    return (0,) * draw(st.integers(0, 40)) + (c,)


@st.composite
def dense_polys(draw):
    """A polynomial with at least two nonzero coefficients."""
    cs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=12))
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or -1
    return tuple(cs)


@settings(max_examples=300, deadline=None)
@given(monomials() | dense_polys(), monomials() | dense_polys())
@example((0, 0, 0, 1), (2, -1, 3))  # q^k on the longer side
@example((2, -1, 3), (0, -1))  # -q on the shorter side
@example((5,), (1, 0, -4))  # k = 0, |c| > 1
@example((0, 0, -7), (0, 0, 0, 0, 1))  # two monomials
@example((1, 1), (3, 0, -2, 1))  # two non-monomials
def test_pmul_matches_the_schoolbook_product(a, b):
    assert _pmul(a, b) == _pmul(b, a) == _ref_mul(a, b)


# -- Gaussian combinatorics -------------------------------------------------


def test_gauss_int_values():
    assert gauss_int(0) == LaurentInt({})
    assert gauss_int(1) == LaurentInt({0: 1})
    assert gauss_int(2) == LaurentInt({1: 1, -1: 1})
    assert gauss_int(3) == LaurentInt({2: 1, 0: 1, -2: 1})
    assert gauss_int(-3) == -gauss_int(3)


def test_gauss_factorial_values():
    assert gauss_factorial(0) == LaurentInt({0: 1})
    assert gauss_factorial(3) == gauss_int(3) * gauss_int(2)
    assert gauss_factorial(4).at_one() == 24


def test_gauss_factorial_matches_the_product_loop():
    want = LaurentInt({0: 1})
    for n in range(41):
        if n >= 2:
            want = want * gauss_int(n)
        assert gauss_factorial(n) == want, n


@RATFUNC_SETTINGS
@given(laurents(), ratfuncs(), st.integers(min_value=0, max_value=6))
def test_exact_quotient_is_the_quotient(a, x, n):
    # a Laurent multiple of [n]! divides exactly; any other value, Laurent or
    # not, gets the general quotient, with the same canonical form
    fact = gauss_factorial(n)
    for value in (a * fact, a * RatFunc.from_fraction(Fraction(1, 3)) * fact, a, x):
        got = exact_quotient(value, fact)
        assert got == value / fact
        assert_canonical(got)


def test_exact_quotient_keeps_what_does_not_divide():
    fact = gauss_factorial(3)
    assert exact_quotient(gauss_int(3) * RF_Q, fact) == RF_Q / gauss_int(2)
    assert exact_quotient(RF_ZERO, fact) == RF_ZERO


def test_gauss_binomial_spec_value():
    # [4 choose 2] = q^4 + q^2 + 2 + q^-2 + q^-4
    assert gauss_binomial(4, 2) == LaurentInt({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_gauss_binomial_conventions():
    assert gauss_binomial(3, 5) == LaurentInt({})
    assert gauss_binomial(3, -1) == LaurentInt({})
    assert gauss_binomial(5, 0) == LaurentInt({0: 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_gauss_binomial_pascal(m, n):
    # [m+1 choose n] = q^n [m choose n] + q^(n-m-1) [m choose n-1]
    lhs = gauss_binomial(m + 1, n)
    rhs = RatFunc.q_power(n) * gauss_binomial(m, n) + RatFunc.q_power(
        n - m - 1
    ) * gauss_binomial(m, n - 1)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-5, max_value=8),
    st.integers(min_value=-2, max_value=3),
    st.integers(min_value=0, max_value=4),
)
def test_kbracket_matches_binomial(zval, c, t):
    got = kbracket_scalar(zval, c, t)
    want = gauss_binomial(zval + c, t)
    if zval + c >= 0:
        assert got == want
    else:
        # negative upper index: the generalized binomial via Gaussian integers
        prod = RF_ONE
        for s in range(1, t + 1):
            prod = prod * gauss_int(zval + c - s + 1)
        prod = prod / gauss_factorial(t)
        assert got == prod


# -- cyclotomic numbers -----------------------------------------------------


def test_cyclotomic_polys():
    assert cyclotomic_poly(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_poly(5) == tuple(Fraction(1) for _ in range(5))
    assert cyclotomic_poly(9) == (
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )


def test_bad_root_orders():
    for l in (1, 2, 4, 0, -3, 6):
        with pytest.raises(BadRootOrder):
            evaluate_at_root(RF_ONE, l)


def test_eta_is_primitive_root():
    for l in (3, 5, 7, 9):
        eta = evaluate_at_root(RF_Q, l)
        p = eta
        for _ in range(l - 1):
            assert not (p == CycloNum.from_int(1, l))
            p = p * eta
        assert p == CycloNum.from_int(1, l)


def _reference_cyclotomic(n):
    """Phi_n as (q^n - 1) / prod of Phi_d over proper divisors d, by long division."""
    acc = (Fraction(1),)
    for d in range(1, n):
        if n % d == 0:
            acc = _ref_mul(acc, _reference_cyclotomic(d))
    quo, rem = _ref_divmod((Fraction(-1),) + (Fraction(0),) * (n - 1) + (Fraction(1),), acc)
    assert not rem
    return quo


def test_cyclotomic_poly_matches_long_division():
    for l in range(1, 100, 2):
        assert cyclotomic_poly(l) == _reference_cyclotomic(l), l


def test_cyclotomic_poly_of_large_order_is_fast():
    start = time.perf_counter()
    phi = cyclotomic_poly(100001)  # 11 * 9091
    assert time.perf_counter() - start < 10
    assert len(phi) == 10 * 9090 + 1
    assert phi[0] == phi[-1] == 1 and sum(phi) == 1  # Phi_n(1) = 1 for n not a prime power


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=9),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([3, 5, 7, 9, 15]),
)
def test_cyclo_field_axioms(ar, br, d, l):
    a = CycloNum(tuple(Fraction(x, d) for x in ar), l)
    b = CycloNum(tuple(Fraction(x) for x in br), l)
    for x in (a, b):
        assert len(x.res) < len(cyclotomic_poly(l)) and x.den > 0
        assert gcd(x.den, *x.res) == 1 and (x.res or x.den == 1)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == CycloNum.from_int(0, l)
    assert (a + b) * b == a * b + b * b
    if not a.is_zero():
        assert a * a.inverse() == CycloNum.from_int(1, l)
        assert (b / a) * a == b


def test_evaluate_at_root_basic():
    # [l] vanishes at a primitive l-th root
    for l in (3, 5):
        v = evaluate_at_root(gauss_int(l), l)
        assert v.is_zero()
        assert not evaluate_at_root(gauss_int(l - 1), l).is_zero()


def test_evaluate_at_root_pole():
    # 1/[l] has a pole at eta
    x = gauss_int(3).inverse()
    with pytest.raises(DenominatorVanishes):
        evaluate_at_root(x, 3)
    # but is fine at l = 5
    evaluate_at_root(x, 5)


def test_evaluate_preserves_arithmetic():
    l = 5
    a = LaurentInt({2: 3, -1: 1})
    b = LaurentInt({1: -2, 0: 7})
    c = RF_ONE / (RatFunc.q_power(2) * 3 + 2)  # a denominator that is no monomial
    ea, eb, ec = (evaluate_at_root(x, l) for x in (a, b, c))
    assert evaluate_at_root(a * b, l) == ea * eb
    assert evaluate_at_root(a + b, l) == ea + eb
    assert evaluate_at_root(a * c, l) == ea * ec
    assert evaluate_at_root(a / 2 + c, l) == ea / 2 + ec
    # eta^-7 = eta^(-7 mod l), built from its coefficients
    assert evaluate_at_root(RatFunc.q_power(-7), l) == CycloNum((0,) * (-7 % l) + (1,), l)
