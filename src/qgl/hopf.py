"""Hopf superalgebra structure: coproduct, counit, and antipode.

The tensor square carries the sign rule of super algebra:
(a (x) b)(c (x) d) = (-1)^{par b * par c} ac (x) bd.

Generator values:
    delta(E_i) = E_i (x) K_{alpha_i} + 1 (x) E_i
    delta(F_i) = F_i (x) 1 + K_{alpha_i}^{-1} (x) F_i
    delta(K_mu) = K_mu (x) K_mu
    counit(E) = counit(F) = 0, counit(K_mu) = 1
    S(E_i) = -E_i K_{alpha_i}^{-1},  S(F_i) = -K_{alpha_i} F_i,
    S(K_mu) = K_{-mu}
with the antipode extended as the graded anti-homomorphism
S(xy) = (-1)^{par x * par y} S(y) S(x).
"""

from .pbwcore import LinearCombination, add_term
from .scalars import RF_ONE, RF_ZERO, RatFunc


class TensorElement(LinearCombination):
    """Element of the signed tensor square, keyed by monomial pairs."""

    __slots__ = ()

    def __init__(self, alg, terms):
        super().__init__(alg, {k: c for k, c in terms.items() if not c.is_zero()})

    @classmethod
    def one(cls, alg):
        u = alg.unit_monomial()
        return cls(alg, {(u, u): RF_ONE})

    @classmethod
    def from_pair(cls, x, y):
        out = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                add_term(out, (k1, k2), c1 * c2)
        return cls(x.alg, out)

    def __mul__(self, other):
        """A scalar multiple, or the signed product of two tensor elements."""
        if isinstance(other, (int, RatFunc)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        alg = self.alg
        out = {}
        for (a, b), c1 in self.terms.items():
            pb = alg.monomial_parity(b)
            for (c, d), c2 in other.terms.items():
                pc = alg.monomial_parity(c)
                coeff = c1 * c2
                if pb and pc:
                    coeff = -coeff
                left = alg.mono_product(a, c)
                right = alg.mono_product(b, d)
                for k1, v1 in left.items():
                    for k2, v2 in right.items():
                        add_term(out, (k1, k2), coeff * v1 * v2)
        return TensorElement(alg, out)

    def __repr__(self):
        return "TensorElement(%d terms)" % len(self.terms)


class Hopf:
    """Coproduct, counit and antipode over a fixed straightening algebra."""

    def __init__(self, alg):
        self.alg = alg

    # -- generator images ----------------------------------------------------

    def delta_atom(self, atom):
        """The coproduct of a simple generator or a torus atom."""
        alg, pair = self.alg, TensorElement.from_pair
        if atom[0] == "K":
            k = alg.k_mono(atom[1])
            return pair(k, k)
        kind, i, j, _ = atom
        g = alg.gen(kind, i, j)
        if kind == "E":
            return pair(g, alg.k_alpha(i)) + pair(alg.one(), g)
        return pair(g, alg.one()) + pair(alg.k_alpha(i, -1), g)

    def delta(self, elt):
        """The coproduct, a superalgebra map into the signed tensor square."""
        return self.alg.apply_hom(elt, self.delta_atom)

    def counit(self, elt):
        """The counit: kills E and F, sends every K-monomial to 1."""
        acc = RF_ZERO
        for key, coeff in elt.terms.items():
            if self.alg.is_torus(key):
                acc = acc + coeff
        return acc

    def antipode(self, elt):
        """The antipode, a graded anti-homomorphism."""
        alg = self.alg

        def image(atom):
            if atom[0] == "K":
                return alg.k_mono(tuple(-x for x in atom[1]))
            kind, i, j, _ = atom
            if kind == "E":
                return -(alg.gen("E", i, j) * alg.k_alpha(i, -1))
            return -(alg.k_alpha(i) * alg.gen("F", i, j))

        return alg.apply_hom(elt, image, anti=True)
