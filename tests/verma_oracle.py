"""The free-word Verma oracle: an independent model of the Verma action.

It acts on free words in the simple lowering operators with formulas taken
from first principles (no straightening), so comparing products of algebra
elements with iterated action checks the straightening product without
sharing its code.  The tests use it; the engine does not.
"""

from qgl.linalg import Echelon
from qgl.rootdata import bilinear_form
from qgl.scalars import RF_ONE, RF_ZERO, RatFunc, gauss_factorial


class VermaOracle:
    """Independent model of the Verma action on free lowering words.

    Basis: words in letters 1..rank-1 (the simple lowering operators) of
    length <= depth.  The action formulas are implemented directly from
    first principles (no straightening); products of algebra elements are
    compared against iterated action modulo the relation-ideal slice.
    """

    def __init__(self, alg, lam, depth):
        self.alg = alg
        self.sh = alg.shape
        self.lam = tuple(lam)
        self.depth = depth
        self.words = [()]
        frontier = [()]
        letters = list(range(1, self.sh.rank))
        for _ in range(depth):
            frontier = [w + (a,) for w in frontier for a in letters]
            self.words.extend(frontier)
        self.index = {w: t for t, w in enumerate(self.words)}
        self._rel_spans = {}

    # vectors are dicts word -> RatFunc
    def _add(self, vec, word, coeff):
        if coeff.is_zero():
            return
        s = vec.get(word, RF_ZERO) + coeff
        if s.is_zero():
            vec.pop(word, None)
        else:
            vec[word] = s

    def act_f(self, i, vec):
        out = {}
        for w, c in vec.items():
            if len(w) < self.depth:
                self._add(out, (i,) + w, c)
        return out

    def act_k(self, mu, vec):
        out = {}
        for w, c in vec.items():
            wt = list(self.lam)
            for a in w:
                al = self.sh.k_alpha_vector(a)
                wt = [x - y for x, y in zip(wt, al)]
            out[w] = c * RatFunc.q_power(bilinear_form(self.sh, mu, tuple(wt)))
        return out

    def act_e(self, i, vec):
        sh = self.sh
        m = sh.m
        den = (self.alg.qi(i, 1) - self.alg.qi(i, -1)).inverse()
        A = bilinear_form(sh, self.lam, sh.k_alpha_vector(i))
        out = {}
        for w, c in vec.items():
            for s, letter in enumerate(w):
                if letter != i:
                    continue
                odd_before = sum(1 for a in w[:s] if a == m)
                sgn = -1 if (i == m and odd_before % 2) else 1
                B = sum(
                    bilinear_form(sh, sh.k_alpha_vector(i), sh.k_alpha_vector(a)) for a in w[s + 1:]
                )
                coeff = (RatFunc.q_power(A - B) - RatFunc.q_power(B - A)) * den
                self._add(out, w[:s] + w[s + 1:], c * coeff * sgn)
        return out

    def act_element(self, elt, vec):
        out = {}
        for mono, coeff in elt.terms.items():
            for c, word in self.alg.expand_monomial(mono):
                cur = dict(vec)
                for atom in reversed(word):
                    if atom[0] == "K":
                        cur = self.act_k(atom[1], cur)
                    elif atom[0] == "E":
                        cur = self.act_e(atom[1], cur)
                    else:
                        cur = self.act_f(atom[1], cur)
                    if not cur:
                        break
                total = coeff * c
                for w, v in cur.items():
                    self._add(out, w, v * total)
        return out

    # -- the relation ideal -------------------------------------------------

    def _relation_words(self):
        """Generators of the lowering-side relation ideal, as vectors."""
        sh = self.sh
        m = sh.m
        rels = []
        qq = gauss_factorial(2)  # [2]! = q + q^-1
        for i in range(1, sh.rank):
            for j in range(1, sh.rank):
                if abs(i - j) == 1 and i != m:
                    rels.append(
                        {
                            (i, i, j): RF_ONE,
                            (i, j, i): -qq,
                            (j, i, i): RF_ONE,
                        }
                    )
                if j > i + 1:
                    rels.append({(i, j): RF_ONE, (j, i): -RF_ONE})
        rels.append({(m, m): RF_ONE})
        if m >= 2 and sh.rank - m >= 2:
            a, b, c = m - 1, m, m + 1
            rels.append(
                {
                    (a, b, c, b): RF_ONE,
                    (b, a, b, c): RF_ONE,
                    (c, b, a, b): RF_ONE,
                    (b, c, b, a): RF_ONE,
                    (b, a, c, b): -qq,
                }
            )
        return rels

    def relation_span(self, degree):
        """The words of the given degree and an Echelon of the ideal slice."""
        hit = self._rel_spans.get(degree)
        if hit is not None:
            return hit
        letters = list(range(1, self.sh.rank))
        slice_words = [w for w in self.words if len(w) == degree]
        pos = {w: t for t, w in enumerate(slice_words)}
        rows = []
        for rel in self._relation_words():
            rdeg = len(next(iter(rel)))
            if rdeg > degree:
                continue
            rest = degree - rdeg
            for llen in range(rest + 1):
                lefts = [()]
                for _ in range(llen):
                    lefts = [w + (a,) for w in lefts for a in letters]
                rights = [()]
                for _ in range(rest - llen):
                    rights = [w + (a,) for w in rights for a in letters]
                for lw in lefts:
                    for rw in rights:
                        rows.append(sorted((pos[lw + rword + rw], c) for rword, c in rel.items()))
        hit = (slice_words, Echelon(rows))
        self._rel_spans[degree] = hit
        return hit

    def vanishes_mod_relations(self, vec):
        """True iff the vector lies in the relation-ideal slices."""
        by_deg = {}
        for w, c in vec.items():
            by_deg.setdefault(len(w), {})[w] = c
        for deg, comp in by_deg.items():
            slice_words, span = self.relation_span(deg)
            pos = {w: t for t, w in enumerate(slice_words)}
            if span.reduce(sorted((pos[w], c) for w, c in comp.items())):
                return False
        return True
