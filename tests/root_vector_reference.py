"""The reference the closed forms of root vectors are checked against.

``pbwcore``, ``hopf`` and ``braid`` write down the normal form of a crossing
E_ij F_st of single powers and the images of every root vector under the
coproduct, the antipode and T_i^{+-1}.  The reference derives the same
things from the defining presentation alone:

* ``RecursiveAlgebra`` straightens a crossing by one rewrite step, the Kac
  relation or the triangular identity of a composite E against a simple F,
  and expands a composite F by its defining recursion
  F_st = -q_c F_sc F_ct + F_ct F_sc (c = s + 1); the normal form of every
  crossing pair comes from a nested straightening of that step;
* ``delta_simple``, ``antipode_simple`` and ``braid_simple`` are the maps'
  defining values on the simple generators and torus atoms, which
  ``Algebra.apply_hom`` without closed-form root images extends to a
  composite root vector by its defining recursion.
"""

from qgl.braid import _swap_mu
from qgl.pbwcore import Algebra
from qgl.scalars import RF_ONE

from views import tensor_pair


class RecursiveAlgebra(Algebra):
    """An algebra whose crossing pairs are straightened step by step."""

    def _resolve(self, left, right, budget):
        key = (left, right)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = [(c, w) for c, w in self._resolve_uncached(left, right) if not c.is_zero()]
            self._pair_cache[key] = hit
            if left[0] == "E" and right[0] == "F":
                # a nested occurrence of the pair uses its one-step rewrite
                nf = self._straighten(hit, budget)
                hit = [(c, self.mono_word(k)) for k, c in nf.items()]
                self._pair_cache[key] = hit
        return hit

    def _resolve_ef(self, left, right):
        sh = self.shape
        _, i, j, N = left
        _, s, t, M = right
        if t > s + 1:
            # expand the composite F once: F_{s,t} = -q_c F_{s,c}F_{c,t}
            #                                        + F_{c,t}F_{s,c},  c = s+1
            c = s + 1
            post = (("F", s, t, M - 1),) if M > 1 else ()
            return [
                (-self.qi(c, 1), (left, ("F", s, c, 1), ("F", c, t, 1)) + post),
                (RF_ONE, (left, ("F", c, t, 1), ("F", s, c, 1)) + post),
            ]
        # now F is a simple generator F_{s,s+1}
        if j == i + 1:
            if i != s:
                return [(RF_ONE, (right, left))]
            # Kac relation on one power of each factor
            kvec = sh.k_alpha_vector(i)
            den = (self.qi(i, 1) - self.qi(i, -1)).inverse()
            sgn = RF_ONE * (-1 if i == sh.m else 1)
            singles = [
                (sgn, (("F", i, j, 1), ("E", i, j, 1))),
                (den, (("K", kvec),)),
                (-den, (("K", tuple(-x for x in kvec)),)),
            ]
            return self._wrap_peel(singles, left, right)
        # composite E against simple F: triangular crossing identity
        sgn = RF_ONE * (-1 if (sh.parity(i, j) and sh.parity(s, t)) else 1)
        singles = [(sgn, (("F", s, t, 1), ("E", i, j, 1)))]
        if t == j:
            singles.append((self.qi(s, -1), (("E", i, s, 1), ("K", sh.k_alpha_vector(s)))))
        if i == s:
            kvec = tuple(-x for x in sh.k_alpha_vector(s))
            c2 = RF_ONE if s == sh.m else -RF_ONE
            singles.append((c2, (("E", s + 1, j, 1), ("K", kvec))))
        return self._wrap_peel(singles, left, right)


# -- the generator maps on simple generators and torus atoms ------------------


def delta_simple(alg, atom):
    pair = tensor_pair
    if atom[0] == "K":
        k = alg.k_mono(atom[1])
        return pair(k, k)
    kind, i, j, _ = atom
    g = alg.gen(kind, i, j)
    if kind == "E":
        return pair(g, alg.k_alpha(i)) + pair(alg.one(), g)
    return pair(g, alg.one()) + pair(alg.k_alpha(i, -1), g)


def antipode_simple(alg, atom):
    if atom[0] == "K":
        return alg.k_mono(tuple(-x for x in atom[1]))
    kind, i, j, _ = atom
    if kind == "E":
        return -(alg.gen("E", i, j) * alg.k_alpha(i, -1))
    return -(alg.k_alpha(i) * alg.gen("F", i, j))


def braid_simple(alg, i, atom, inverse):
    """T_i (or T_i^{-1}) of a simple generator or a torus atom, from the
    defining products; T_i^{-1} reverses each product and negates the
    exponent of K_{alpha_i}."""
    sh = alg.shape
    if atom[0] == "K":
        return alg.k_mono(_swap_mu(atom[1], i))
    sign = -1 if inverse else 1

    def prod(x, y):
        return y * x if inverse else x * y

    kind, j = atom[0], atom[1]
    if sh.cartan_entry(i, j) == 0:
        return alg.gen(kind, j, j + 1)
    if kind == "E":
        if j == i:
            return -prod(alg.gen("F", i, i + 1), alg.k_alpha(i, sign))
        ei, ej = alg.gen("E", i, i + 1), alg.gen("E", j, j + 1)
        return -prod(ei, ej) + prod(ej, ei).scale(alg.qi(i, -1))
    if j == i:
        return -prod(alg.k_alpha(i, -sign), alg.gen("E", i, i + 1))
    fi, fj = alg.gen("F", i, i + 1), alg.gen("F", j, j + 1)
    return -prod(fj, fi) + prod(fi, fj).scale(alg.qi(i, 1))
