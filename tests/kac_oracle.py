"""Reference models of K(lam): the straightened Kac induction, and K(lam)
rebased as a whole onto divided lowering monomials.

K(lam) has the basis F1^d (x) w, with d an ordered odd monomial and w a
basis vector of L0(lam).  This model acts by a simple generator g on it by
straightening the whole product g * F1^d in the PBW algebra, dropping the
terms that end in an odd raising operator (they kill 1 (x) L0) and applying
the even part of every other term to w.  ``repmod.kac_module`` moves g past
F1^d one odd root at a time instead, so comparing the two checks that
shortcut against the full straightening.

``rebased_kac_module`` chooses the divided monomials F1^d F0^(psi) v0 over
the whole of K(lam) and conjugates every matrix by the basis change.
``repmod.divided_kac_module`` rebases L0(lam) alone and induces K(lam) from
it, so comparing the two checks that K(lam) is free over the odd exterior
algebra in the lattice basis too.  The tests use these models; the engine
does not.
"""

import itertools

from qgl import repmod, rootofunity
from qgl.errors import DomainError
from qgl.linalg import Echelon, columns, mat_mul, rref
from qgl.scalars import GENERIC_FIELD, RF_ONE, gauss_factorial


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
    mats = {}
    for i in range(1, sh.rank):
        for kind in ("E", "F"):
            g = alg.gen(kind, i, i + 1)
            entries = []
            prods = {d: g * alg.monomial(fd=d) for d in dvecs}
            for cidx, (d, w) in enumerate(labels):
                for key, coeff in prods[d].terms.items():
                    if any(key.ed):
                        continue  # odd raising operators kill 1 (x) L0
                    even = alg.monomial(fpsi=key.fpsi, k=key.k, epsi=key.epsi)
                    (img,) = l0.act_element(even, [[(w, l0.field.one)]])
                    for wp, val in img:
                        entries.append((index[(key.fd, wp)], cidx, coeff * val))
            mats[(kind, i, i + 1, 1)] = columns(entries, len(labels))
    return repmod.WeightModule(alg, GENERIC_FIELD, weights, parities, mats,
                               top=index[(tuple([0] * n1), l0.top)])


def rebased_kac_module(alg, lam):
    """K(lam) re-coordinatized on divided lowering monomials F1^d F0^(psi) v0,
    chosen greedily over the whole module in the order (|d| + |psi|, d, psi),
    with every matrix conjugated by the basis change P."""
    mod = repmod.kac_module(alg, lam)
    n1, n0 = len(alg.f1_list), len(alg.f0_list)
    one = mod.field.one
    ops = {}  # the operator of each atom of a monomial, built once
    cols = []
    spans = {wt: Echelon() for wt in mod.weight_spaces()}
    deg = 0
    while len(cols) < mod.dim and deg <= mod.dim + 1:
        for d in itertools.product((0, 1), repeat=n1):
            for psi in itertools.product(range(deg + 1), repeat=n0):
                if sum(d) + sum(psi) != deg:
                    continue
                # the monomial acts on v0 atom by atom, the rightmost first
                vec = [[(mod.top, one)]]
                for atom in reversed(alg.mono_word(alg.unit_monomial()._replace(fd=d, fpsi=psi))):
                    if atom not in ops:
                        ops[atom] = mod.matrix_of_atom(atom)
                    vec = mat_mul(ops[atom], vec)
                inv = RF_ONE
                for x in psi:
                    inv = inv * gauss_factorial(x).inverse()
                col = [(r, x * inv) for r, x in vec[0]]
                if not col:
                    continue
                if spans[mod.eps_weights[col[0][0]]].add(col) is not None:
                    cols.append(col)
        deg += 1
    if len(cols) < mod.dim:
        raise DomainError("divided monomials do not span the module")
    # rref [P | 1] = [1 | P^-1]: the rows of P, then the identity to the right
    rows = [[] for _ in range(mod.dim)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r].append((c, x))
    red, piv = rref([row + [(mod.dim + r, one)] for r, row in enumerate(rows)])
    if piv != list(range(mod.dim)):
        raise DomainError("basis change matrix is singular")
    p_inv = columns(((r, c - mod.dim, x) for r, row in enumerate(red) for c, x in row
                     if c >= mod.dim), mod.dim)
    mats = {key: mat_mul(p_inv, mat_mul(m, cols)) for key, m in mod.mats.items()}
    leads = [col[0][0] for col in cols]
    return repmod.WeightModule(alg, GENERIC_FIELD, [mod.eps_weights[r] for r in leads],
                               [mod.parities[r] for r in leads], mats, top=0)


def specialized_kac_reference(alg, lam, l):
    """The Kac module at q = eta from the whole-module rebase, with the
    divided powers X^(l) of the even simple root vectors, as
    ``rootofunity.specialize_kac`` stores them."""
    mod = rebased_kac_module(alg, lam)
    for i in range(1, alg.shape.rank):
        if i != alg.shape.m:
            mod.ensure_divided("E", i, i + 1, l)
            mod.ensure_divided("F", i, i + 1, l)
    return rootofunity.specialize_module(mod, l)
