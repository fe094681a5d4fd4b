"""Shared error types of the engine, and the digit budget of its integers.

Every failure that a caller can sensibly handle is a subclass of
DomainError; the CLI maps DomainError to exit code 3 and syntax
problems (ExprSyntaxError) to exit code 2.
"""


class DomainError(Exception):
    """A mathematically meaningful failure (bad index, non-integral element, ...)."""


class ExprSyntaxError(Exception):
    """Malformed input expression: the message, and apart from it the byte
    offset of the problem, which the CLI states once."""

    def __init__(self, message, offset):
        super().__init__(message)
        self.offset = offset


class IndexOutOfShape(DomainError):
    """A generator index does not fit inside the shape (m, n)."""


class NegativeDividedPower(DomainError):
    """Divided-power exponent must be a nonnegative integer."""


class OddPowerTooHigh(DomainError):
    """Odd root vectors square to zero; divided powers >= 2 are undefined."""


class DenominatorVanishes(DomainError):
    """A rational function has a pole at the requested root of unity."""


class NotIntegral(DomainError):
    """Element lies outside the divided-power integral form.

    Carries a witness (basis key, coefficient) showing the failure.
    """

    def __init__(self, witness_key, coefficient):
        super().__init__(
            "element is not integral: coefficient %s at %s"
            % (coefficient, (witness_key,))
        )
        self.witness_key = witness_key
        self.coefficient = coefficient


class BraidAtOddNode(DomainError):
    """Braid operators are only defined at even simple roots (index != m)."""


class NonDominant(DomainError):
    """Weight is not dominant for the two gl blocks."""


class NotHighestWeight(DomainError):
    """Operation requires a module generated by its top weight vector."""


class BadRootOrder(DomainError):
    """Root-of-unity order must be an odd integer >= 3."""


class ResourceLimit(DomainError):
    """A computation ran past a documented budget: the rank m + n of a shape
    (rootdata._MAX_RANK), the rewrite-step ceiling of straightening
    (pbwcore._MAX_STEPS), the largest t of a torus bracket [K;c;t]
    (pbwcore._MAX_BRACKET), the largest n of a divided power X^(n)
    (pbwcore._MAX_DIVIDED), the exponent of a power of a many-term element
    (pbwcore._MAX_POWER), the span j - i of a root vector whose antipode,
    of 2^(j-i-1) terms, is built (hopf._MAX_ANTIPODE_SPAN), the Kac
    dimension of a module's highest weight (repmod._MAX_KAC_DIM), a root
    order (scalars._MAX_ROOT_ORDER), the q-degree of a power, a torus
    bracket shift or a highest weight (scalars._MAX_Q_DEGREE), the trial
    count of selftest (cli._MAX_TRIALS) or the digits of an integer an
    answer prints (_MAX_INT_DIGITS: a coefficient, the exponent a power
    gives a monomial, a count or P, and c^n for a rational c != +-1 before
    it is built); a longer integer literal is a syntax error."""


# The most decimal digits of an integer read or printed, under the 4300 that
# Python's int() and str() accept by default.  A literal is measured in
# digits; a result by its bit length, since 2^13288 > 10^4000.
_MAX_INT_DIGITS = 4000
_MAX_INT_BITS = 13288


def check_int_size(x, what):
    """Raise ResourceLimit when the int or Fraction x has a numerator or
    denominator of more than _MAX_INT_BITS bits (over 4000 digits)."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > _MAX_INT_BITS:
        raise ResourceLimit("%s has an integer of more than %d digits, over the budget"
                            % (what, _MAX_INT_DIGITS))
