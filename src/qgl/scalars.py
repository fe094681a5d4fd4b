"""Exact scalar arithmetic for the engine.

Two types:

    RatFunc  -- rational functions over Q, the field Q(q);
    CycloNum -- the cyclotomic field Q(eta), eta a primitive l-th root of
                unity (l odd, >= 3), realized as Q[q]/Phi_l.

Plus the q-combinatorics of divided powers and of the Gelfand-Tsetlin
formulas: symmetric Gaussian integers [n] and Gaussian factorials [n]!.

Both share one polynomial core over the integers: dense tuples of Python
ints.  A RatFunc is a coprime pair num/den of integer polynomials whose
denominator has a positive leading coefficient and whose coefficients have
no common factor all together; a Laurent value c*q^e has the monomial
denominator d*q^k, so it needs no gcd.  The ring Z[q, q^-1] of the integral
form is no type of its own: it is the RatFuncs with denominator q^k
(is_laurent_int), such as every [n] and [n]!.  A CycloNum is an integer
residue modulo the monic Phi_l over one positive integer denominator.  Each
type has one constructor, which takes its stored form.  All forms are
canonical, so equality is tuple equality.  fractions.Fraction appears only
at the API boundary (from_fraction, the coefficients of a Laurent value
with d > 1 and the rendered text).

All values are immutable after construction.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import sub

from .errors import DenominatorVanishes, ResourceLimit, check_int_size
from .rootdata import _check_order

# The largest q-degree built from an integer the user gives: the exponent n
# of a power x^n times the q-degree of x's coefficients (q^k itself), the
# shift c of a torus bracket [K;c;t] and each entry of a module's highest
# weight.  q^k is a dense tuple of |k| + 1 integers and every product or gcd
# with it costs as much: q^1000000 took 0.7 s and 51 MB, and Kac induction
# at lambda = (100000, 0) ran past 200 s.  The benchmark workloads reach
# q-degree 11; at 1000, kac --shape 1,1 --lambda=1000,0 answers in 0.15 s.
_MAX_Q_DEGREE = 1000


def check_q_degree(k, what):
    """Raise ResourceLimit when the q-degree |k| of what is over the budget."""
    if abs(k) > _MAX_Q_DEGREE:
        raise ResourceLimit("%s has q-degree %d, over the budget of %d"
                            % (what, abs(k), _MAX_Q_DEGREE))


# ---------------------------------------------------------------------------
# dense polynomials over Z: tuples of ints, ascending degree, no trailing
# zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------


def _trim(cs):
    """Tuple of the list cs without its trailing zeros."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    # A monomial factor c q^k, a Laurent denominator or a q-power
    # coefficient, shifts and scales the other instead of a loop over its
    # k + 1 mostly zero coefficients; one with k > 0 starts with a zero.
    if len(b) == 1 or not b[0] and b.count(0) == len(b) - 1:
        return _shift_scale(a, len(b) - 1, b[-1])
    if not a[0] and a.count(0) == len(a) - 1:
        return _shift_scale(b, len(a) - 1, a[-1])
    out = [0] * (len(a) + len(b) - 1)
    for i, cb in enumerate(b):
        if cb:
            for j, ca in enumerate(a, i):
                out[j] += ca * cb
    return tuple(out)  # Z is a domain: the leading product is nonzero


def _shift_scale(a, k, c):
    """c q^k * a, for c != 0."""
    if c == 1:
        scaled = tuple(a)
    elif c == -1:
        scaled = tuple(-x for x in a)
    else:
        scaled = tuple(c * x for x in a)
    return (0,) * k + scaled if k else scaled


def _pdivmod(a, b):
    """(m, quo, rem) with m*a == quo*b + rem in Z[q], deg rem < deg b.

    Pseudo-division: m is a nonzero integer, 1 when b is monic or divides a
    exactly in Z[q].  Each leading term is removed with the smallest
    multiplier the leading coefficients allow.
    """
    db = len(b) - 1
    if len(a) <= db:
        return 1, (), a
    lead = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    m = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            g = gcd(c, lead)
            f, k = c // g, lead // g
            if k != 1:
                rem = [x * k for x in rem[:i]]
                quo = [x * k for x in quo]
                m *= k
            quo[i - db] = f
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    return m, tuple(quo), _trim(rem[:db])


def _primitive(a, b=()):
    """(a, b) over their joint content, the leading coefficient of a positive."""
    g = gcd(*a, *b)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a, b
    return tuple(x // g for x in a), tuple(x // g for x in b)


def _pgcd(a, b):
    """Primitive gcd of nonzero a and b in Z[q] (primitive PRS)."""
    if len(a) < len(b):
        a, b = b, a
    b = _primitive(b)[0]
    while len(b) > 1:
        r = _pdivmod(a, b)[2]
        if not r:
            return b
        a, b = b, _primitive(r)[0]
    return _ONE_POLY


def _is_monomial(a):
    """True iff a == c*q^k, c != 0."""
    return not any(a[:-1])


_ONE_POLY = (1,)


def _render_poly(coeffs_by_exp):
    """Render {exponent: int or Fraction} as canonical text like '3*q^2 - q^-1 + 4'."""
    items = [(e, c) for e, c in sorted(coeffs_by_exp.items(), reverse=True) if c]
    if not items:
        return "0"
    parts = []
    for pos, (e, c) in enumerate(items):
        check_int_size(c, "a coefficient")
        neg = c < 0
        c = -c if neg else c
        if e == 0:
            body = str(c)
        else:
            qpart = "q" if e == 1 else "q^%d" % e
            body = qpart if c == 1 else "%s*%s" % (c, qpart)
        if pos == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _over(a, d):
    """{exponent: a[i]/d} for the nonzero coefficients of a (d > 0)."""
    if d == 1:
        return {i: c for i, c in enumerate(a) if c}
    return {i: Fraction(c, d) for i, c in enumerate(a) if c}


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------


class RatFunc:
    """Rational function in q over Q: num/den, coprime integer polynomials.

    den has a positive leading coefficient and num, den together have
    content 1, which makes the pair unique for each value.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_POLY):
        # the canonical tuples; _make builds them from any pair
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _make(cls, num, den):
        """The canonical RatFunc equal to num/den (integer tuples)."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return _RF_ZERO
        if not num[0] and not den[0]:
            s = 1
            while not num[s] and not den[s]:
                s += 1
            num, den = num[s:], den[s:]
        # once the shared power of q is gone, a monomial side leaves no
        # common factor: this skips the gcd for every Laurent value
        if not (_is_monomial(den) or _is_monomial(num)):
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[1]
                den = _pdivmod(den, g)[1]
        den, num = _primitive(den, num)
        return RatFunc(num, den)

    @classmethod
    def from_int(cls, n):
        return RatFunc((n,) if n else ())

    @classmethod
    def from_fraction(cls, f):
        f = Fraction(f)
        if not f:
            return _RF_ZERO
        return RatFunc((f.numerator,), (f.denominator,))

    @classmethod
    def q_power(cls, k):
        if k >= 0:
            return RatFunc((0,) * k + _ONE_POLY)
        return RatFunc(_ONE_POLY, (0,) * (-k) + _ONE_POLY)

    def is_zero(self):
        return not self.num

    def q_degree(self):
        """The larger degree of num and den: x^n has q-degree n times it."""
        return max(len(self.num), len(self.den)) - 1

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc.from_int(other)
        if isinstance(other, Fraction):
            return RatFunc.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        den = self.den
        if den == other.den:
            num = _padd(self.num, other.num)
            if den == _ONE_POLY:
                return RatFunc(num) if num else _RF_ZERO
            return RatFunc._make(num, den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, den))
        return RatFunc._make(num, _pmul(den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return _RF_ZERO
        if self.den == other.den == _ONE_POLY:
            return RatFunc(_pmul(self.num, other.num))
        return RatFunc._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        return RatFunc.from_int(1) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def bar(self):
        """Substitute q -> q^-1 (an involutive field automorphism)."""
        if not self.num:
            return self
        # p(1/q) = rev(p) / q^deg p; shift the lower-degree side to clear q
        dn, dd = len(self.num) - 1, len(self.den) - 1
        num = _trim(self.num[::-1])
        den = _trim(self.den[::-1])
        if dn >= dd:
            den = (0,) * (dn - dd) + den
        else:
            num = (0,) * (dd - dn) + num
        return RatFunc._make(num, den)

    def is_laurent_int(self):
        """True iff self is in Z[q, q^-1], that is den == q^k."""
        den = self.den
        # content 1 makes num/(d*q^k) with d > 1 non-integral
        return den[-1] == 1 and _is_monomial(den)

    def as_laurent_rational(self):
        """{exponent: coefficient} if den == d*q^k, else None.

        The coefficients are ints when d == 1 and Fractions otherwise.
        """
        den = self.den
        if not _is_monomial(den):
            return None
        d, k = den[-1], len(den) - 1
        if d == 1:
            return {i - k: c for i, c in enumerate(self.num) if c}
        return {i - k: Fraction(c, d) for i, c in enumerate(self.num) if c}

    @property
    def coeffs(self):
        """{exponent: coefficient} of a Laurent value; ValueError otherwise."""
        lau = self.as_laurent_rational()
        if lau is None:
            raise ValueError("not a Laurent polynomial: %s" % self.render())
        return lau

    def as_int(self):
        """Return the integer equal to self, or None."""
        if not self.num:
            return 0
        if len(self.num) == 1 and self.den == _ONE_POLY:
            return self.num[0]
        return None

    def render(self):
        lau = self.as_laurent_rational()
        if lau is not None:
            return _render_poly(lau)
        lead = self.den[-1]
        return "(%s)/(%s)" % (_render_poly(_over(self.num, lead)),
                              _render_poly(_over(self.den, lead)))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())


_RF_ZERO = RatFunc((), _ONE_POLY)
_RF_ONE = RatFunc(_ONE_POLY, _ONE_POLY)

RF_ZERO = _RF_ZERO
RF_ONE = _RF_ONE


def exact_quotient(x, d):
    """x / d, by one exact division of numerators and no gcd when d's
    numerator divides x's and x's denominator is a power of q, as for a
    Laurent entry over [n]!; otherwise the general quotient, so a value
    that is not Laurent over d keeps its denominator."""
    if x.num and _is_monomial(x.den):
        m, quo, rem = _pdivmod(x.num, d.num)
        if m == 1 and not rem:
            return RatFunc._make(_pmul(quo, d.den), x.den)
    return x / d


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------


def gauss_int(n):
    """Symmetric Gaussian integer [n] = (q^n - q^-n)/(q - q^-1).

    [n] = q^(1-n) (1 + q^2 + ... + q^(2n-2)) for n > 0 and [-n] = -[n],
    stored as that numerator over q^(n-1).  [n] is invariant under
    q -> q^-1, so it is also [n] at q_i = q^-1.
    """
    if not n:
        return _RF_ZERO
    c = -1 if n < 0 else 1
    n = abs(n)
    return RatFunc((c,) + (0, c) * (n - 1), (0,) * (n - 1) + _ONE_POLY)


def gauss_factorial(n):
    """[n]! = [n][n-1]...[1]; [0]! = 1.

    [k] = q^(1-k) (1 + x + ... + x^(k-1)) in x = q^2, so each factor is a
    length-k window sum over the dense integer coefficients in x; the
    result is that polynomial in q^2 over q^(n(n-1)/2).
    """
    if n < 0:
        raise ValueError("factorial of negative integer")
    cs = [1]
    for k in range(2, n + 1):
        # prefix sums padded with k zeros in front and k - 1 totals behind:
        # the window sum ending at i is prefix[i + k] - prefix[i]
        prefix = [0] * k + list(accumulate(cs))
        prefix += [prefix[-1]] * (k - 1)
        cs = list(map(sub, prefix[k:], prefix))
    num = [0] * (2 * len(cs) - 1)
    num[::2] = cs
    return RatFunc(tuple(num), (0,) * (n * (n - 1) // 2) + _ONE_POLY)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

_CYCLO_CACHE = {}
_MAX_ROOT_ORDER = 10 ** 6  # the largest l whose Phi_l is built: 0.5 s, ~10**6 coefficients


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic_poly(n):
    """The n-th cyclotomic polynomial as an integer tuple, ascending degree.

    Phi_n = prod over d | n of (q^d - 1)^mu(n/d): only squarefree n/d
    contribute, and multiplying or exactly dividing by the sparse binomial
    q^d - 1 takes one pass over the coefficients.
    """
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n > _MAX_ROOT_ORDER:
        raise ResourceLimit("root order %d is over the budget of %d" % (n, _MAX_ROOT_ORDER))
    ups, downs = [], []
    primes = _prime_factors(n)
    for mask in range(1 << len(primes)):
        sq, odd = 1, False
        for bit, p in enumerate(primes):
            if mask >> bit & 1:
                sq *= p
                odd = not odd
        (downs if odd else ups).append(n // sq)
    acc = [1]
    for d in ups:  # acc * (q^d - 1)
        acc = [0] * d + acc
        for i in range(len(acc) - d):
            acc[i] -= acc[i + d]
    for d in downs:  # acc / (q^d - 1): from the top, s[i] = acc[i+d] + s[i+d]
        quo = [0] * (len(acc) - d)
        for i in range(len(quo) - 1, -1, -1):
            quo[i] = acc[i + d] + (quo[i + d] if i + d < len(quo) else 0)
        acc = quo
    phi = tuple(acc)
    _CYCLO_CACHE[n] = phi
    return phi


class CycloNum:
    """Element res/den of Q(eta) = Q[q]/Phi_l, eta a primitive l-th root of unity.

    Stored as res, an integer residue mod Phi_l (degree < phi(l)), over den,
    a positive integer sharing no factor with all of res; zero is res == (),
    den == 1.  CycloNum(res, den, l) takes that form from any trimmed integer
    tuple res and positive int den, reducing res mod Phi_l and removing the
    content; it trusts l, which from_int checks.  An int or a Fraction mixes
    in on either side of an operator.
    """

    __slots__ = ("res", "den", "order")

    def __init__(self, res, den, order):
        res = _pdivmod(res, cyclotomic_poly(order))[2]
        if res:
            c = gcd(den, *res)
            if c != 1:
                res = tuple(x // c for x in res)
                den //= c
        else:
            den = 1
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    @classmethod
    def from_int(cls, n, order):
        _check_order(order)
        return cls((n,) if n else (), 1, order)

    def is_zero(self):
        return not self.res

    def __bool__(self):
        return bool(self.res)

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError("mixed root orders")
            return other
        if isinstance(other, int):
            return CycloNum((other,) if other else (), 1, self.order)
        if isinstance(other, Fraction):
            return CycloNum((other.numerator,) if other else (), other.denominator, self.order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return CycloNum(_padd(self.res, other.res), d1, self.order)
        g = gcd(d1, d2)
        res = _padd(tuple(c * (d2 // g) for c in self.res),
                    tuple(c * (d1 // g) for c in other.res))
        return CycloNum(res, d1 // g * d2, self.order)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(_pneg(self.res), self.den, self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNum(_pmul(self.res, other.res), self.den * other.den, self.order)

    __rmul__ = __mul__

    def inverse(self):
        if not self.res:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # (res/den)^-1 = den * s / c where s * res == c mod Phi_l
        s, c = _inverse_mod(self.res, self.order)
        return CycloNum(tuple(x * self.den for x in s), c, self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.res == other.res and self.den == other.den

    def __hash__(self):
        return hash((self.res, self.den, self.order))

    def render(self):
        body = _render_poly(_over(self.res, self.den))
        return body.replace("q", "eta")

    def __repr__(self):
        return "CycloNum(%s; l=%d)" % (self.render(), self.order)


def _inverse_mod(a, l):
    """(s, c) with s*a == c mod Phi_l, c a positive integer (a != 0 mod Phi_l).

    Fraction-free extended Euclid: every remainder r keeps a cofactor s with
    r == s*a mod Phi_l, and each pair is divided by its joint content.
    """
    phi = cyclotomic_poly(l)
    r0, s0 = phi, ()
    r1, s1 = a, _ONE_POLY
    while len(r1) > 1:
        m, quo, rem = _pdivmod(r0, r1)
        s = _pdivmod(_padd(tuple(m * x for x in s0), _pneg(_pmul(quo, s1))), phi)[2]
        r0, s0 = r1, s1
        r1, s1 = _primitive(rem, s)
    c = r1[0]
    if c < 0:
        return _pneg(s1), -c
    return s1, c


def evaluate_at_root(x, l):
    """Image of x in Q(eta) under q -> eta (eta primitive l-th root, l odd >= 3).

    Raises DenominatorVanishes when x has a pole at eta.
    """
    _check_order(l)
    if not isinstance(x, RatFunc):
        raise TypeError("cannot specialize %r" % (x,))
    if _is_monomial(x.den):
        # a Laurent value num/(d*q^k): eta^-k == eta^(l - k mod l), no inverse
        shift = -(len(x.den) - 1) % l
        return CycloNum((0,) * shift + x.num if x.num else (), x.den[-1], l)
    phi = cyclotomic_poly(l)
    den = _pdivmod(x.den, phi)[2]
    if not den:
        # stored in lowest terms, so a vanishing denominator is a genuine pole
        raise DenominatorVanishes("pole at primitive %d-th root of unity" % l)
    s, c = _inverse_mod(den, l)
    return CycloNum(_pmul(_pdivmod(x.num, phi)[2], s), c, l)


class FieldOps:
    """Tiny field descriptor shared by the generic and root-of-unity scalars:
    l is the order of eta for Q(eta), None for Q(q)."""

    def __init__(self, one, l):
        self.one = one
        self.l = l

    def of(self, c):
        """The image of a RatFunc in the field: c itself over Q(q)."""
        return c if self.l is None else evaluate_at_root(c, self.l)


GENERIC_FIELD = FieldOps(RF_ONE, None)


def cyclo_field(l):
    _check_order(l)
    return FieldOps(CycloNum.from_int(1, l), l)
