"""The straightened Kac induction: an independent model of K(lam).

K(lam) has the basis F1^d (x) w, with d an ordered odd monomial and w a
basis vector of L0(lam).  This model acts by a simple generator g on it by
straightening the whole product g * F1^d in the PBW algebra, dropping the
terms that end in an odd raising operator (they kill 1 (x) L0) and applying
the even part of every other term to w.  ``repmod.kac_module`` moves g past
F1^d one odd root at a time instead, so comparing the two checks that
shortcut against the full straightening.  The tests use this model; the
engine does not.
"""

import itertools

from qgl import repmod
from qgl.scalars import GENERIC_FIELD


def straightened_kac_module(alg, lam):
    """K(lam) with every generator times F1^d straightened in full."""
    sh = alg.shape
    l0 = repmod.simple_even_module(alg, tuple(lam))
    n1 = len(alg.f1_list)
    dvecs = list(itertools.product((0, 1), repeat=n1))
    labels = [(d, w) for d in dvecs for w in range(l0.dim)]
    index = {lab: t for t, lab in enumerate(labels)}
    weights, parities = [], []
    for d, w in labels:
        wt = list(l0.eps_weights[w])
        for idx, (i, j) in enumerate(alg.f1_list):
            if d[idx]:
                wt[i - 1] -= 1
                wt[j - 1] += 1
        weights.append(tuple(wt))
        parities.append(sum(d) % 2)
    zero = GENERIC_FIELD.zero
    mats = {}
    for i in range(1, sh.rank):
        for kind in ("E", "F"):
            g = alg.gen(kind, i, i + 1)
            m = [[zero] * len(labels) for _ in range(len(labels))]
            prods = {d: g * alg.monomial(fd=d) for d in dvecs}
            for cidx, (d, w) in enumerate(labels):
                for key, coeff in prods[d].terms.items():
                    if any(key.ed):
                        continue  # odd raising operators kill 1 (x) L0
                    even = alg.monomial(fpsi=key.fpsi, k=key.k, epsi=key.epsi)
                    img = l0.act_element(even, l0.unit_vector(w))
                    for wp, val in enumerate(img):
                        if not val.is_zero():
                            tgt = index[(key.fd, wp)]
                            m[tgt][cidx] = m[tgt][cidx] + coeff * val
            mats[(kind, i, i + 1, 1)] = m
    return repmod.WeightModule(alg, GENERIC_FIELD, weights, parities, mats,
                               top=index[(tuple([0] * n1), l0.top)])
