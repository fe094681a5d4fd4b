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
S(xy) = (-1)^{par x * par y} S(y) S(x).  The coproduct and the antipode of
every root vector, composite ones included, are written down in PBW normal
form (``Hopf.delta_atom``, ``Hopf.antipode_atom``); ``tests/test_root_vectors.py``
checks them against the defining recursion of composite root vectors.
"""

from .errors import ResourceLimit
from .pbwcore import Element, LinearCombination, add_term
from .scalars import RF_ONE, RF_ZERO, RatFunc

# largest span j - i of a root vector whose antipode, of 2^(j-i-1) terms, is
# built: antipode --shape 13,1 "E[1,14]" prints 4096 terms, 2.9 MB
_MAX_ANTIPODE_SPAN = 13


class TensorElement(LinearCombination):
    """Element of the signed tensor square, keyed by monomial pairs."""

    __slots__ = ()

    def __init__(self, alg, terms):
        super().__init__(alg, {k: c for k, c in terms.items() if not c.is_zero()})

    @classmethod
    def one(cls, alg):
        u = alg.unit_monomial()
        return cls(alg, {(u, u): RF_ONE})

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
        """The coproduct of a torus atom or of a root vector (power one), with
        K_ab = K^{eps_a - eps_b}:

            delta(E_ij) = E_ij (x) K_ij + 1 (x) E_ij
                          + sum_{i<c<j} (q_c - q_c^-1) E_cj (x) K_cj E_ic
            delta(F_ij) = F_ij (x) 1 + K_ji (x) F_ij
                          - sum_{i<c<j} (q_c - q_c^-1) F_ic K_jc (x) F_cj

        j - i + 1 terms, each a pair of PBW monomials."""
        alg = self.alg
        mono = alg.word_to_monomial
        if atom[0] == "K":
            k = mono((atom,))
            return TensorElement(alg, {(k, k): RF_ONE})
        kind, i, j, _ = atom
        root, x, unit = alg.shape.root_weight, mono((atom,)), alg.unit_monomial()
        if kind == "E":
            terms = {(x, mono((("K", root(i, j)),))): RF_ONE, (unit, x): RF_ONE}
            for c in range(i + 1, j):
                terms[(mono((("E", c, j, 1),)), mono((("K", root(c, j)), ("E", i, c, 1))))] = (
                    alg.qi(c, 1) - alg.qi(c, -1))
        else:
            terms = {(x, unit): RF_ONE, (mono((("K", root(j, i)),)), x): RF_ONE}
            for c in range(i + 1, j):
                terms[(mono((("F", i, c, 1), ("K", root(j, c)))), mono((("F", c, j, 1),)))] = (
                    alg.qi(c, -1) - alg.qi(c, 1))
        return TensorElement(alg, terms)

    def delta(self, elt):
        """The coproduct, a superalgebra map into the signed tensor square."""
        return self.alg.apply_hom(elt, self.delta_atom, roots=self.delta_atom)

    def counit(self, elt):
        """The counit: kills E and F, sends every K-monomial to 1."""
        acc = RF_ZERO
        for key, coeff in elt.terms.items():
            if self.alg.is_torus(key):
                acc = acc + coeff
        return acc

    def antipode(self, elt):
        """The antipode, a graded anti-homomorphism."""
        return self.alg.apply_hom(elt, self.antipode_atom, anti=True, roots=self.antipode_atom)

    def antipode_atom(self, atom):
        """S of a torus atom or of a root vector (power one).  S(K_mu) = K_{-mu},
        and S(F_ij) = omega(S(E_ij)).  S(E_ij) has one PBW monomial per set C of
        cut points i < c_1 < ... < c_k < j:

            S(E_ij) = -q_i q_j sum_C prod_{i<c<j} g_C(c) K_ji E_{i c_1} E_{c_1 c_2} ... E_{c_k j}

        with g_C(c) = 1 - q_c^2 at a cut and q_c^2 elsewhere, except that for an
        odd E_ij the points c > m up to the first cut after m have
        g_C(c) = q_c^-1 - q_c at that cut and 1 elsewhere: 2^(j-i-1) terms,
        so j - i is checked against _MAX_ANTIPODE_SPAN before any is built."""
        alg = self.alg
        if atom[0] == "K":
            return alg.k_mono(tuple(-x for x in atom[1]))
        kind, i, j, _ = atom
        if j - i > _MAX_ANTIPODE_SPAN:
            raise ResourceLimit("the antipode of a root vector of span %d is over the budget "
                                "of span %d" % (j - i, _MAX_ANTIPODE_SPAN))
        if kind == "F":
            return alg.omega(self.antipode_atom(("E", i, j, 1)))
        sh, q = alg.shape, alg.qi
        odd = sh.parity(i, j)
        # (coefficient, atoms, last cut, whether a cut after m is placed), c ascending
        parts = [(-(q(i, 1) * q(j, 1)), (("K", sh.root_weight(j, i)),), i, False)]
        for c in range(i + 1, j):
            nxt = []
            for coeff, word, last, cut in parts:
                if odd and c > sh.m and not cut:
                    stay, split = RF_ONE, q(c, -1) - q(c, 1)
                else:
                    stay, split = q(c, 2), RF_ONE - q(c, 2)
                nxt.append((coeff * stay, word, last, cut))
                nxt.append((coeff * split, word + (("E", last, c, 1),), c, cut or c > sh.m))
            parts = nxt
        return Element(alg, {alg.word_to_monomial(word + (("E", last, j, 1),)): coeff
                             for coeff, word, last, _ in parts})
