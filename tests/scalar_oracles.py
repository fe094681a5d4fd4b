"""Closed forms in Z[q, q^-1] and Q(q) that the tests compare the engine
with: the Gaussian binomial, and the eigenvalue of a torus bracket
[K;c;t] on a weight vector as a product of ratios of q-integers.  Also the
input forms the engine itself has no use for: a Laurent polynomial from
{exponent: int} and a cyclotomic number from its coefficients over Q."""

from fractions import Fraction
from math import gcd, lcm

from qgl.scalars import (RF_ONE, RF_ZERO, CycloNum, RatFunc, cyclotomic_poly, gauss_factorial,
                         gauss_int)


def laurent(coeffs):
    """The RatFunc sum of c*q^e over the items e: c of coeffs (ints), stored
    as its integer numerator over q^k."""
    cs = {e: c for e, c in coeffs.items() if c}
    if not cs:
        return RF_ZERO
    low = min(min(cs), 0)
    num = [0] * (max(cs) - low + 1)
    for e, c in cs.items():
        num[e - low] = c
    return RatFunc(tuple(num), (0,) * -low + (1,))


def cyclo(coeffs, l):
    """The CycloNum sum of c*eta^i over the coefficients c of coeffs (ints or
    Fractions, ascending), reduced mod Phi_l by long division over Q."""
    phi = cyclotomic_poly(l)
    top = len(phi) - 1
    cs = [Fraction(c) for c in coeffs]
    for i in range(len(cs) - 1, top - 1, -1):
        c = cs[i]
        if c:
            for j, p in enumerate(phi):
                cs[i - top + j] -= c * p
    cs = cs[:top]
    while cs and not cs[-1]:
        cs.pop()
    den = lcm(*(c.denominator for c in cs))
    res = [int(c * den) for c in cs]
    g = gcd(den, *res)
    return CycloNum(tuple(x // g for x in res), den // g, l)


def gauss_binomial(m, n):
    """Gaussian binomial [m choose n]; zero when n > m or n < 0 (convention)."""
    if n < 0 or n > m:
        return RF_ZERO
    n = min(n, m - n)
    num = RatFunc.from_int(1)
    for k in range(n):
        num = num * gauss_int(m - k)
    out = num / gauss_factorial(n)
    if not out.is_laurent_int():
        raise ArithmeticError("Gaussian binomial failed to be integral")
    return out


def kbracket_scalar(zval, c, t):
    """Eigenvalue of the bracket element [K;c;t] on a vector of K-exponent zval.

    Product over s = 1..t of
        (q_i^(zval+c-s+1) - q_i^-(zval+c-s+1)) / (q_i^s - q_i^-s),
    which equals the Gaussian binomial [zval+c choose t] at q_i.  Each
    factor is a ratio of q-integers, so the value is the same at q_i = q
    and q_i = q^-1.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = RF_ONE
    for s in range(1, t + 1):
        a = zval + c - s + 1
        num = RatFunc.q_power(a) - RatFunc.q_power(-a)
        den = RatFunc.q_power(s) - RatFunc.q_power(-s)
        out = out * (num / den)
    return out
