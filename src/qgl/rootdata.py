"""Root and weight combinatorics of gl(m,n).

Index conventions (1-based throughout, matching the generator labels):

    even positive root pairs I0 = {(i,j) : 1<=i<j<=m or m+1<=i<j<=m+n}
    odd  positive root pairs I1 = {(i,j) : 1<=i<=m < j<=m+n}

Weights live in eps-coordinates (lambda_1, ..., lambda_{m+n}) with the
supersymmetric bilinear form (eps_i, eps_j) = +delta_ij for i <= m and
-delta_ij for i > m.  z-coordinates are the K_{alpha_i}-exponent
coordinates z_i = lambda_i - (-1)^{delta_im} lambda_{i+1},
z_{m+n} = lambda_{m+n}.
"""

from .errors import BadRootOrder, DomainError, IndexOutOfShape, ResourceLimit

# The largest rank m + n of a shape, checked before the O((m+n)^2) index
# lists are built: at m + n = 32, straightening E[1,32]*F[1,32] takes about
# 0.5 s; the tests and the benchmark workloads use m + n <= 6.
_MAX_RANK = 32


def _check_order(l):
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise BadRootOrder("root order must be an odd integer >= 3, got %r" % (l,))


class Shape:
    """The pair (m, n) with all derived index bookkeeping, immutable."""

    __slots__ = ("m", "n", "rank", "I0", "I1")

    def __init__(self, m, n):
        if m < 1 or n < 1:
            raise DomainError("shape requires m >= 1 and n >= 1")
        if m + n > _MAX_RANK:
            raise ResourceLimit("shape rank m + n = %d is over the budget of %d"
                                % (m + n, _MAX_RANK))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        r = m + n
        object.__setattr__(self, "rank", r)
        i0 = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        i0 += [(i, j) for i in range(m + 1, r + 1) for j in range(i + 1, r + 1)]
        i1 = [(i, j) for i in range(1, m + 1) for j in range(m + 1, r + 1)]
        object.__setattr__(self, "I0", tuple(sorted(i0)))
        object.__setattr__(self, "I1", tuple(sorted(i1)))

    def __setattr__(self, *a):
        raise AttributeError("Shape is immutable")

    def __eq__(self, other):
        return isinstance(other, Shape) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return "Shape(%d,%d)" % (self.m, self.n)

    # -- index predicates ---------------------------------------------------

    def check_pair(self, i, j):
        if not (1 <= i < j <= self.rank):
            raise IndexOutOfShape("root index (%d,%d) outside shape %r" % (i, j, self))

    def check_node(self, i, simple=False):
        hi = self.rank - 1 if simple else self.rank
        if not (1 <= i <= hi):
            raise IndexOutOfShape("index %d outside shape %r" % (i, self))

    def is_odd_pair(self, i, j):
        return i <= self.m < j

    def parity(self, i, j):
        return 1 if self.is_odd_pair(i, j) else 0

    def eps_sign(self, i):
        """(eps_i, eps_i): +1 for i <= m, -1 for i > m; also the sign in q_i."""
        return 1 if i <= self.m else -1

    def root_weight(self, i, j):
        """eps_i - eps_j as an integer vector."""
        w = [0] * self.rank
        w[i - 1] += 1
        w[j - 1] -= 1
        return tuple(w)

    def k_alpha_vector(self, i):
        """Exponent vector of K_{alpha_i} in terms of K_1..K_{m+n}.

        K_{alpha_i} = K_i * K_{i+1}^{-1} for i < m+n, and K_{m+n} for i = m+n.
        """
        self.check_node(i)
        w = [0] * self.rank
        if i == self.rank:
            w[i - 1] = 1
        else:
            w[i - 1] = 1
            w[i] = -1
        return tuple(w)

    def cartan_entry(self, i, j):
        """Entry a_ij of the augmented distinguished Cartan matrix.

        Rows i in [1, m+n], columns j in [1, m+n).  The last row is
        (0, ..., 0, -1).
        """
        self.check_node(i)
        self.check_node(j, simple=True)
        m = self.m
        if i == self.rank:
            return -1 if j == self.rank - 1 else 0
        if i == j:
            return 0 if i == m else 2
        if (i, j) == (m, m + 1):
            return 1
        if abs(i - j) == 1:
            return -1
        return 0


def bilinear_form(shape, a, b):
    """Supersymmetric form on eps-coordinates; signature (m, n)."""
    if len(a) != shape.rank or len(b) != shape.rank:
        raise DomainError("weight length does not match shape")
    m = shape.m
    return sum(a[k] * b[k] * (1 if k < m else -1) for k in range(shape.rank))


def c_value(shape, i, j):
    """The atypicality constant c(i,j) = i + j - 2m - 1 for odd pairs."""
    shape.check_pair(i, j)
    if not shape.is_odd_pair(i, j):
        raise DomainError("(%d,%d) is not an odd pair" % (i, j))
    return i + j - 2 * shape.m - 1


def p_factor(shape, lam):
    """P(lambda) = product over odd positive roots of (lambda + rho, alpha),
    each factor in the closed form lambda_i + lambda_j - c(i,j)."""
    if len(lam) != shape.rank:
        raise DomainError("weight length does not match shape")
    out = 1
    for (i, j) in shape.I1:
        out *= lam[i - 1] + lam[j - 1] - c_value(shape, i, j)
    return out


def is_typical(shape, lam):
    """True iff P(lambda) != 0, that is lambda_i + lambda_j != c(i,j) on I1."""
    return p_factor(shape, lam) != 0


def weight_to_z(shape, lam):
    """eps-coordinates -> z-coordinates (K_{alpha_i}-exponents)."""
    if len(lam) != shape.rank:
        raise DomainError("weight length does not match shape")
    r, m = shape.rank, shape.m
    z = []
    for i in range(1, r):
        if i == m:
            z.append(lam[i - 1] + lam[i])
        else:
            z.append(lam[i - 1] - lam[i])
    z.append(lam[r - 1])
    return tuple(z)


def z_to_weight(shape, z):
    """Inverse of weight_to_z."""
    if len(z) != shape.rank:
        raise DomainError("weight length does not match shape")
    r, m = shape.rank, shape.m
    lam = [0] * r
    lam[r - 1] = z[r - 1]
    for i in range(r - 1, 0, -1):
        if i == m:
            lam[i - 1] = z[i - 1] - lam[i]
        else:
            lam[i - 1] = z[i - 1] + lam[i]
    return tuple(lam)


def in_Xplus(shape, lam):
    """Dominance for the two gl blocks (no condition across the m|m+1 wall)."""
    m, r = shape.m, shape.rank
    return all(lam[i] >= lam[i + 1] for i in range(m - 1)) and all(
        lam[i] >= lam[i + 1] for i in range(m, r - 1)
    )


def in_Zplus(shape, z):
    """z_i >= 0 for all i except the unconstrained indices m and m+n."""
    return all(
        z[i - 1] >= 0 for i in range(1, shape.rank + 1) if i not in (shape.m, shape.rank)
    )


def frobenius_decompose(shape, z, l):
    """Split z = z' + l*z'' with z' in the restricted range.

    Convention at the unconstrained indices m and m+n: the whole value
    stays in z' (the restricted range places no bound there, so this is
    the canonical total extension of the unique constrained split).
    """
    _check_order(l)
    if len(z) != shape.rank:
        raise DomainError("z length does not match shape")
    if not in_Zplus(shape, z):
        raise DomainError("z must be nonnegative at constrained indices")
    zp, zpp = [], []
    for i in range(1, shape.rank + 1):
        v = z[i - 1]
        if i in (shape.m, shape.rank):
            zp.append(v)
            zpp.append(0)
        else:
            zp.append(v % l)
            zpp.append((v - v % l) // l)
    return tuple(zp), tuple(zpp)


def weyl_dim_even(shape, lam):
    """Dimension of the simple gl(m) x gl(n) module of highest weight lambda.

    Product of the two classical Weyl dimension formulas
    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i) per block.
    """
    if not in_Xplus(shape, lam):
        raise DomainError("weight is not dominant")
    out = 1
    for lo, hi in ((1, shape.m), (shape.m + 1, shape.rank)):
        num, den = 1, 1
        for i in range(lo, hi + 1):
            for j in range(i + 1, hi + 1):
                num *= lam[i - 1] - lam[j - 1] + j - i
                den *= j - i
        out *= num // den
    return out

