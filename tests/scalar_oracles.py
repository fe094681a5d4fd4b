"""Closed forms in Z[q, q^-1] and Q(q) that the tests compare the engine
with: the Gaussian binomial, and the eigenvalue of a torus bracket
[K;c;t] on a weight vector as a product of ratios of q-integers."""

from qgl.scalars import RF_ONE, LaurentInt, RatFunc, gauss_factorial, gauss_int


def gauss_binomial(m, n):
    """Gaussian binomial [m choose n]; zero when n > m or n < 0 (convention)."""
    if n < 0 or n > m:
        return LaurentInt({})
    n = min(n, m - n)
    num = RatFunc.from_int(1)
    for k in range(n):
        num = num * gauss_int(m - k)
    quo = num / gauss_factorial(n)
    out = quo.as_laurent_int()
    if out is None:
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
