"""Weight modules: even simple modules, Kac modules, simple heads, tensor
products, and the independent free-word Verma action oracle."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from qgl import repmod
from qgl import rootofunity as ru
from qgl.errors import DomainError, NonDominant, NotHighestWeight, ResourceLimit
from qgl.linalg import Echelon, columns, mat_mul, nullspace, rref
from qgl.pbwcore import Algebra
from qgl.rootdata import (
    Shape, bilinear_form, frobenius_decompose, in_Xplus, is_typical, weight_to_z, weyl_dim_even,
)
from qgl.scalars import GENERIC_FIELD, RF_ZERO, RatFunc
from kac_oracle import straightened_kac_module
from structure_checks import full_simple_at_root
from views import verify_module
from verma_oracle import VermaOracle


# -- simple modules of the even subalgebra -----------------------------------


@pytest.mark.parametrize(
    "shape,lam",
    [
        ((1, 1), (3, -1)),
        ((2, 1), (0, 0, 0)),
        ((2, 1), (2, 0, 0)),
        ((2, 1), (3, 1, -2)),
        ((1, 2), (1, 2, 0)),
        ((2, 2), (2, 0, 1, 0)),
    ],
)
def test_even_simple_dimension_and_relations(shape, lam):
    alg = Algebra(shape)
    mod = repmod.simple_even_module(alg, lam)
    assert mod.dim == weyl_dim_even(alg.shape, lam)
    assert verify_module(mod) == []
    assert mod.eps_weights[mod.top] == tuple(lam)


def test_non_dominant_rejected():
    alg = Algebra((2, 1))
    with pytest.raises(NonDominant):
        repmod.simple_even_module(alg, (0, 1, 0))


@pytest.mark.parametrize("lam", [(1, 0), (1, 0, 0, 0)])
def test_weight_of_the_wrong_length_rejected(lam):
    with pytest.raises(DomainError):
        repmod.simple_even_module(Algebra((2, 1)), lam)


def _verma_head_l0(alg, lam):
    """Reference L0(lam): the simple head of the even Verma module on the
    PBW monomials F^psi of height at most the height of the lowest weight
    plus 1, which keeps every weight space of L0 and the next layer down
    complete and closed under E."""
    sh = alg.shape
    heights = [j - i for i, j in alg.f0_list]
    depth = sum(lam[i - 1] - lam[j - 1] for i, j in sh.I0) + 1
    labels = [
        lab for lab in itertools.product(*[range(depth // h + 1) for h in heights])
        if sum(v * h for v, h in zip(lab, heights)) <= depth
    ]
    index = {lab: t for t, lab in enumerate(labels)}
    weights = []
    for lab in labels:
        wt = list(lam)
        for v, (i, j) in zip(lab, alg.f0_list):
            wt[i - 1] -= v
            wt[j - 1] += v
        weights.append(tuple(wt))
    mats = {}
    for i in range(1, sh.rank):
        if i == sh.m:
            continue
        for kind in ("E", "F"):
            g = alg.gen(kind, i, i + 1)
            entries = []
            for c, lab in enumerate(labels):
                for key, coeff in (g * alg.monomial(fpsi=lab)).terms.items():
                    if any(key.epsi) or any(key.ed) or any(key.fd):
                        continue  # E0 and the odd parts kill the highest vector
                    r = index.get(key.fpsi)
                    if r is not None:
                        val = coeff * RatFunc.q_power(bilinear_form(sh, key.k, lam))
                        entries.append((r, c, val))
            mats[(kind, i, i + 1, 1)] = columns(entries, len(labels))
    verma = repmod.WeightModule(alg, GENERIC_FIELD, weights, [0] * len(labels), mats,
                                top=index[(0,) * len(heights)])
    return repmod.simple_head(verma)


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3)])
def test_even_module_matches_the_verma_head(shape):
    alg = Algebra(shape)
    lams = [
        lam for lam in itertools.product(range(3, -3, -1), repeat=alg.shape.rank)
        if in_Xplus(alg.shape, lam) and weyl_dim_even(alg.shape, lam) <= 24
    ]
    for lam in random.Random(5).sample(lams, 6):
        mod = repmod.simple_even_module(alg, lam)
        ref = _verma_head_l0(alg, lam)
        assert mod.dim == ref.dim == weyl_dim_even(alg.shape, lam), lam
        assert mod.character() == ref.character(), lam
        assert mod.eps_weights[mod.top] == lam
        assert verify_module(mod) == [], lam


# -- Kac modules -------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,lam",
    [
        ((1, 1), (2, 0)),
        ((1, 1), (0, 0)),
        ((2, 1), (2, 0, 0)),
        ((2, 1), (3, 1, -1)),
        ((1, 2), (3, 2, 1)),
        ((2, 2), (2, 0, 0, 0)),
    ],
)
def test_kac_dimension_and_relations(shape, lam):
    alg = Algebra(shape)
    mod = repmod.kac_module(alg, lam)
    assert mod.dim == repmod.kac_dimension_oracle(alg, lam)
    assert verify_module(mod) == []


def test_kac_dimension_grid():
    # dim K = 2^{mn} * dim L0 across a grid of dominant weights
    alg = Algebra((2, 1))
    lams = [
        lam
        for lam in itertools.product(range(2, -2, -1), repeat=3)
        if in_Xplus(alg.shape, lam)
    ][:12]
    assert len(lams) >= 10
    for lam in lams:
        mod = repmod.kac_module(alg, lam)
        assert mod.dim == 2 ** 2 * weyl_dim_even(alg.shape, lam), lam


# dominant weights with every coordinate in [-b, b], b by shape: the sweep of
# the characters read off weights alone
CHARACTER_BOXES = {(1, 1): 3, (2, 1): 2, (1, 2): 2, (2, 2): 1, (3, 1): 1, (1, 3): 1}


def dominant_box(shape):
    sh, b = Shape(*shape), CHARACTER_BOXES[shape]
    return [lam for lam in itertools.product(range(-b, b + 1), repeat=sh.rank)
            if in_Xplus(sh, lam)]


@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_kac_character_matches_the_module(shape):
    alg = Algebra(shape)
    lams = dominant_box(shape)
    assert len(lams) >= 30
    for lam in lams:
        char = repmod.kac_character(alg, lam)
        assert char == repmod.kac_module(alg, lam).character(), lam
        assert sum(char.values()) == repmod.kac_dimension_oracle(alg, lam), lam


def test_kac_character_refuses_what_the_module_refuses():
    alg = Algebra((2, 1))
    for lam, err in (((0, 1, 0), NonDominant), ((0, 0), DomainError),
                     ((128, 0, 0), ResourceLimit), ((-5000, -5000, 0), ResourceLimit),
                     ((128, 0, 1), ResourceLimit)):  # typical, Kac dimension 516
        for build in (repmod.kac_character, repmod.simple_character, repmod.kac_module):
            with pytest.raises(err):
                build(alg, lam)


# -- simple characters from the raising half ----------------------------------


def _typical_and_atypical_sample(shape, k):
    """Up to k typical and k atypical dominant weights with every coordinate
    in [-2, 2], each a fixed-seed sample of its kind."""
    sh = Shape(*shape)
    lams = [lam for lam in itertools.product(range(2, -3, -1), repeat=sh.rank)
            if in_Xplus(sh, lam)]
    rng = random.Random(7)
    out = []
    for typical in (True, False):
        kind = [lam for lam in lams if is_typical(sh, lam) == typical]
        assert kind, (shape, typical)
        out += rng.sample(kind, min(k, len(kind)))
    return out


@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_simple_character_matches_the_head(shape):
    alg = Algebra(shape)
    for lam in _typical_and_atypical_sample(shape, 20):
        full = repmod.simple_head(repmod.kac_module(alg, lam)).character()
        assert repmod.simple_character(alg, lam) == full, lam


@pytest.mark.parametrize("shape", sorted(CHARACTER_BOXES), ids=str)
def test_typical_simple_character_builds_no_module(shape, monkeypatch):
    # K(lam) is simple exactly when lam is typical, so its character is the
    # head's with no even module, induction or forms pass
    alg = Algebra(shape)
    lams = [lam for lam in dominant_box(shape) if is_typical(alg.shape, lam)]
    assert lams
    heads = {lam: repmod.simple_head(repmod.kac_module(alg, lam)).character() for lam in lams}

    def refuse(*args):
        raise AssertionError("a typical simple character built a module")

    for name in ("_induced_module", "simple_even_module", "simple_head"):
        monkeypatch.setattr(repmod, name, refuse)
    for lam in lams:
        assert repmod.simple_character(alg, lam) == heads[lam], lam


def test_simple_character_induces_no_lowering_matrix(monkeypatch):
    # the kinds of the generators induced at the top level, not in the
    # induction's own recursion, and the keys every induced module and
    # simple head stores
    seen = {"induced": set(), "stored": set()}
    depth = [0]
    induce = repmod._KacInduction.induce

    def induce_recorded(self, atom, d):
        if not depth[0]:
            seen["induced"].add(atom[0])
        depth[0] += 1
        try:
            return induce(self, atom, d)
        finally:
            depth[0] -= 1

    def stored(build):
        def recorded(*args):
            mod = build(*args)
            seen["stored"].update(key[0] for key in mod.mats)
            return mod
        return recorded

    monkeypatch.setattr(repmod._KacInduction, "induce", induce_recorded)
    monkeypatch.setattr(repmod, "_induced_module", stored(repmod._induced_module))
    monkeypatch.setattr(repmod, "simple_head", stored(repmod.simple_head))
    cases = [((2, 1), (2, 0, 0)), ((2, 2), (1, 0, 0, 0)), ((1, 3), (1, 1, 0, 0)),
             ((3, 1), (2, 1, 0, 0))]
    for shape, lam in cases:
        repmod.simple_character(Algebra(shape), lam)
    assert seen == {"induced": {"E"}, "stored": {"E"}}
    # the full path would fail the same check
    for shape, lam in cases:
        repmod.simple_head(repmod.kac_module(Algebra(shape), lam))
    assert seen == {"induced": {"E", "F"}, "stored": {"E", "F"}}


def test_kac_highest_vector():
    alg = Algebra((2, 1))
    lam = (2, 1, 0)
    mod = repmod.kac_module(alg, lam)
    top = [[(mod.top, mod.field.one)]]
    for i in (1, 2):
        assert mod.act_element(alg.gen("E", i, i + 1), top) == [[]]
    assert mod.eps_weights[mod.top] == lam
    assert mod.parities[mod.top] == 0



# -- Kac induction against full straightening --------------------------------

# shape -> (typical, atypical, negative) highest weights
INDUCTION_WEIGHTS = {
    (1, 1): [(2, 0), (0, 0), (-3, 1)],
    (2, 1): [(2, 1, 1), (2, 0, 0), (-1, -2, 3)],
    (1, 2): [(2, 1, 0), (1, 2, 0), (-2, 1, -1)],
    (2, 2): [(2, 0, 1, 0), (1, 0, 0, 0), (-1, -1, 2, 1)],
    (3, 1): [(2, 1, 0, 1), (1, 0, 0, 0), (-1, -1, -2, 3)],
    (1, 3): [(3, 1, 0, 0), (1, 1, 0, 0), (-2, 1, 1, 0)],
    (3, 2): [(0, 0, 0, 2, 2), (0, 0, 0, 0, 0), (-2, -2, -2, 1, 1)],
    (2, 3): [(3, 3, 0, 0, 0), (1, 1, 0, 0, 0), (-1, -1, -3, -3, -3)],
}


@pytest.mark.parametrize("shape", sorted(INDUCTION_WEIGHTS), ids=str)
def test_kac_module_matches_the_straightened_induction(shape):
    typical, atypical, negative = INDUCTION_WEIGHTS[shape]
    assert is_typical(Shape(*shape), typical) and not is_typical(Shape(*shape), atypical)
    assert min(negative) < 0
    for lam in (typical, atypical, negative):
        mod = repmod.kac_module(Algebra(shape), lam)
        ref = straightened_kac_module(Algebra(shape), lam)
        assert (mod.eps_weights, mod.parities, mod.top) == (ref.eps_weights, ref.parities, ref.top)
        assert sorted(mod.mats) == sorted(ref.mats)
        for key, m in ref.mats.items():
            assert mod.mats[key] == m, (shape, lam, key)


def _rule_element(alg, terms):
    """The Element of the terms (coeff, e, x, nu) of a Kac induction rule,
    each the ordered product of the odd F's at the places e in turn, then
    x, then K^nu: the order in which the induction applies them."""
    out = alg.zero()
    for c, e, x, nu in terms:
        term = alg.scalar(c)
        for p in e:
            term = term * alg.gen("F", *alg.f1_list[p])
        if x is not None:
            term = term * alg._atom_element(x)
        if nu is not None:
            term = term * alg.k_mono(nu)
        out = out + term
    return out


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                                   (3, 2), (2, 3), (4, 1), (1, 4), (3, 3)], ids=str)
def test_induction_rules_match_two_atom_products(shape):
    # every closed-form rule is the straightener's product of its two atoms:
    # the simple E's, the even F's (composites arise from [E_m, F_b]) and the
    # odd F's, each against every odd root it may precede
    alg = Algebra(shape)
    ind = repmod._KacInduction.of(alg)
    sh = alg.shape
    atoms = [("E", i, i + 1, 1) for i in range(1, sh.rank)]
    atoms += [("F", i, j, 1) for i, j in alg.f0_list + alg.f1_list]
    checked = 0
    for atom in atoms:
        for p, (s, t) in enumerate(alg.f1_list):
            if atom[0] == "F" and sh.parity(atom[1], atom[2]) and alg.f1_list.index(atom[1:3]) <= p:
                continue  # already in PBW order, or F_b^2
            want = alg.gen(atom[0], atom[1], atom[2]) * alg.gen("F", s, t)
            assert _rule_element(alg, ind._rule(atom, p)) == want, (atom, (s, t))
            checked += 1
    assert checked >= len(alg.f1_list) * (sh.rank - 1)


def test_kac_module_straightens_no_long_word(monkeypatch):
    words = []
    straighten = Algebra.straighten

    def recorded(self, terms):
        words.extend(w for _, w in terms)
        return straighten(self, terms)

    monkeypatch.setattr(Algebra, "straighten", recorded)
    for shape, lam in [((2, 1), (2, 0, 0)), ((2, 2), (1, 0, 0, 0)), ((1, 3), (1, 1, 0, 0)),
                       ((3, 2), (0, 0, 0, 0, 0))]:
        mod = repmod.kac_module(Algebra(shape), lam)
        assert mod.dim == repmod.kac_dimension_oracle(mod.alg, lam)
    assert all(len(w) <= 2 for w in words), max(words, key=len)
    # the straightened induction would fail the same check
    words.clear()
    straightened_kac_module(Algebra((2, 2)), (1, 0, 0, 0))
    assert max(len(w) for w in words) > 2

# -- verify catches broken modules ------------------------------------------


def _verified_modules():
    alg = Algebra((2, 1))
    return [repmod.kac_module(alg, (2, 0, 0)), ru.simple_at_root(alg, (2, 1, 0), 3)]


def _copy(mod, mats=None, parities=None):
    return repmod.WeightModule(
        mod.alg, mod.field, mod.eps_weights, parities or mod.parities, mats or mod.mats,
        top=mod.top,
    )


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("node", [1, 2])
def test_verify_flags_a_scaled_generator(which, node):
    mod = _verified_modules()[which]
    assert verify_module(mod) == []
    key = ("E", node, node + 1, 1)
    two = mod.field.of(RatFunc.from_int(2))
    mats = dict(mod.mats)
    mats[key] = [[(r, x * two) for r, x in col] for col in mats[key]]
    assert "d1:E%d-F%d" % (node, node) in verify_module(_copy(mod, mats=mats))


@pytest.mark.parametrize("which", [0, 1])
def test_verify_flags_a_flipped_parity(which):
    mod = _verified_modules()[which]
    parities = list(mod.parities)
    parities[mod.top] ^= 1
    defects = verify_module(_copy(mod, parities=parities))
    assert defects and all(d.startswith("parity:") for d in defects)


# -- typicality and simplicity -----------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2)])
def test_typicality_matches_simplicity(shape):
    alg = Algebra(shape)
    r = alg.shape.rank
    lams = [
        lam
        for lam in itertools.product(range(2, -3, -1), repeat=r)
        if in_Xplus(alg.shape, lam)
    ]
    rng = random.Random(7)
    if len(lams) > 20:
        lams = rng.sample(lams, 20)
    for lam in lams:
        kac = repmod.kac_module(alg, lam)
        assert is_typical(alg.shape, lam) == (repmod.simple_head(kac).dim == kac.dim), lam


# -- simple heads against the singular-vector peeling they replaced -----------


def _peeling_head(mod):
    """Reference head: quotient by the closure of the proper singular
    vectors until none is left."""
    while True:
        sing = repmod.singular_vectors(mod)
        if not sing:
            return mod
        mod = repmod.quotient_module(mod, repmod.submodule_closure(mod, [v for _, v in sing]))
        assert mod.top is not None


HEAD_CASES = [
    # (shape, typical weight, atypical weight)
    ((1, 1), (1, 0), (0, 0)),
    ((2, 1), (2, 1, 0), (2, 0, 0)),
    ((1, 2), (2, 1, 0), (1, 1, 0)),
    ((2, 2), (2, 2, 0, 0), (0, 0, 0, 0)),
    ((3, 1), (1, 1, 1, 0), (0, 0, 0, 0)),
    ((1, 3), (1, 1, 1, 0), (2, 0, 0, 0)),
]


def _check_head(head, ref):
    assert head.dim == ref.dim
    assert head.character() == ref.character()
    assert head.eps_weights[head.top] == ref.eps_weights[ref.top]
    assert verify_module(head) == []
    assert repmod.singular_vectors(head) == []


@pytest.mark.parametrize("shape,typical,atypical", HEAD_CASES)
def test_simple_head_matches_peeling(shape, typical, atypical):
    alg = Algebra(shape)
    assert is_typical(alg.shape, typical) and not is_typical(alg.shape, atypical)
    for lam in (typical, atypical):
        mod = repmod.kac_module(alg, lam)
        head = repmod.simple_head(mod)
        _check_head(head, _peeling_head(mod))
        assert (head is mod) == is_typical(alg.shape, lam)


def _check_head_at_root(alg, lam, l):
    head = ru.simple_at_root(alg, weight_to_z(alg.shape, lam), l)
    ref = _peeling_head(ru.specialize_kac(alg, lam, l))
    _check_head(head, ref)


@pytest.mark.parametrize("l", [3, 5])
@pytest.mark.parametrize("shape,typical,atypical", HEAD_CASES)
def test_simple_head_at_root_matches_peeling(shape, typical, atypical, l):
    alg = Algebra(shape)
    for lam in (typical, atypical):
        _check_head_at_root(alg, lam, l)


@pytest.mark.parametrize(
    "shape,lam,l",
    [
        ((2, 1), (3, 0, 0), 3),
        ((2, 1), (5, 0, 0), 5),
        ((1, 2), (0, 3, 0), 3),
        ((1, 2), (1, 5, 0), 5),
        ((2, 2), (3, 0, 1, 0), 3),
        ((2, 2), (5, 0, 0, 0), 5),
        ((3, 1), (3, 0, 0, 0), 3),
        ((1, 3), (0, 3, 0, 0), 3),
    ],
)
def test_simple_head_at_root_with_an_even_gap_of_l(shape, lam, l):
    # an even root pairs with lam to l, so only E^(l) reaches the top from
    # the weight below: the head without the divided powers is too small
    _check_head_at_root(Algebra(shape), lam, l)


def test_simple_head_needs_a_one_dimensional_top():
    alg = Algebra((2, 1))
    mats = {(kind, i, i + 1, 1): [[], []] for kind in ("E", "F") for i in (1, 2)}
    mod = repmod.WeightModule(alg, GENERIC_FIELD, [(1, 0, 0)] * 2, [0, 0], mats, top=0)
    with pytest.raises(NotHighestWeight):
        repmod.simple_head(mod)
    mod.top = None
    with pytest.raises(NotHighestWeight):
        repmod.simple_head(mod)


def test_even_module_needs_no_straightening(monkeypatch):
    calls = []
    straighten = Algebra.straighten

    def counted(self, *args, **kwargs):
        calls.append(args)
        return straighten(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "straighten", counted)
    for shape, lam in [((2, 1), (3, 1, -2)), ((3, 1), (2, 1, 0, 0)), ((2, 2), (2, 0, 1, 0))]:
        alg = Algebra(shape)
        calls.clear()
        mod = repmod.simple_even_module(alg, lam)
        assert mod.dim == weyl_dim_even(alg.shape, lam)
        assert calls == [], (shape, lam)


# -- submodule closure against the fixed point it replaced --------------------


def _fixed_point_closure(mod, vectors, keys=None):
    """Reference closure: apply every generator to the whole basis until
    the rank stops growing."""
    mats = [mod.mats[k] for k in (keys if keys is not None else mod.action_keys())]
    basis = rref(vectors)[0]
    while True:
        new = list(basis)
        for m in mats:
            new += mat_mul(m, basis)
        red = rref(new)[0]
        if len(red) == len(basis):
            return red
        basis = red


@pytest.mark.parametrize("l", [None, 5])
def test_submodule_closure_matches_fixed_point(l):
    alg = Algebra((2, 1))
    mod = repmod.kac_module(alg, (2, 0, 0)) if l is None else ru.specialize_kac(alg, (2, 0, 0), l)
    rng = random.Random(11)
    simple_keys = [k for k in mod.action_keys() if k[0] in ("E", "F") and k[3] == 1]
    for trial in range(12):
        vecs = []
        for _ in range(rng.choice([1, 1, 2])):
            idxs = sorted(rng.sample(range(mod.dim), rng.choice([1, 2, 3])))
            vec = [(idx, mod.field.of(RatFunc.from_int(rng.randint(-3, 3)))) for idx in idxs]
            vecs.append([(idx, x) for idx, x in vec if not x.is_zero()])
        keys = simple_keys if trial % 2 else None
        got = repmod.submodule_closure(mod, vecs, keys=keys)
        assert got == _fixed_point_closure(mod, vecs, keys=keys)


# -- derived atoms against the matrix products they replaced ------------------


def _product_matrix(mod, atom):
    """Reference matrix of a derived atom: the sum over its expansion into
    simple-generator words of the products of the stored matrices."""
    alg = mod.alg
    entries = []
    for coeff, word in alg.expand_monomial(alg.word_to_monomial((atom,))):
        m = [[(c, mod.field.one)] for c in range(mod.dim)]
        for a in word:
            m = mat_mul(m, mod.mats[a])
        cval = mod.field.of(coeff)
        entries += [(r, c, x * cval) for c, col in enumerate(m) for r, x in col]
    return columns(entries, mod.dim)


DERIVED_ATOMS = [
    ((2, 1), (1, 0, 0), [("E", 1, 3, 1), ("F", 1, 3, 1)]),
    ((3, 1), (1, 0, 0, 0), [("F", 1, 4, 1), ("E", 1, 4, 1), ("F", 1, 3, 2)]),
    ((2, 2), (1, 0, 0, 0), [("F", 2, 4, 1)]),
]


@pytest.mark.parametrize("l", [None, 5])
@pytest.mark.parametrize("shape,lam,atoms", DERIVED_ATOMS)
def test_derived_atoms_act_like_matrix_products(shape, lam, atoms, l):
    alg = Algebra(shape)
    mod = repmod.kac_module(alg, lam) if l is None else ru.specialize_kac(alg, lam, l)
    keys = set(mod.mats)
    for atom in atoms:
        kind, i, j, n = atom
        want = _product_matrix(mod, atom)
        assert any(want), atom
        assert mod.matrix_of_atom(atom) == want, atom
        elt = alg.gen(kind, i, j) ** n
        assert mod.act_element(elt, mod.identity()) == want, atom
        # one column at a time, as the Kac oracle acts
        for c in range(mod.dim):
            assert mod.act_element(elt, [[(c, mod.field.one)]]) == [want[c]], (atom, c)
    assert set(mod.mats) == keys


@pytest.mark.parametrize("shape,lam", [((3, 1), (3, 0, 0, 0)), ((1, 3), (0, 3, 0, 0))])
def test_rebase_builds_each_lowering_operator_once(shape, lam, monkeypatch):
    # each divided monomial F0^(psi) v0 is F_k F0^(psi - e_k) v0 / [psi_k], so
    # apply_hom builds only the composite lowering operators, once per call
    alg = Algebra(shape)
    mod = repmod.simple_even_module(alg, lam)
    composites = [alg.gen("F", i, j) for i, j in alg.f0_list if j > i + 1]
    calls = []
    real = Algebra.apply_hom

    def recorded(self, elt, *args, **kw):
        calls.append(elt)
        return real(self, elt, *args, **kw)

    monkeypatch.setattr(Algebra, "apply_hom", recorded)
    rebased, psis = repmod.rebase_to_divided_monomials(mod)
    assert rebased.dim == mod.dim == len(psis)
    assert any(psi[alg.f0_list.index(pair)] for psi in psis
               for pair in alg.f0_list if pair[1] > pair[0] + 1)
    assert len(calls) <= len(composites) and all(elt in composites for elt in calls), calls


LARGE_AT_ROOT = {
    # gl(3|1), lambda = (5,0,0,0), l = 5: a Kac module of dimension 168
    # whose rebase applies many composite root vectors
    ("3,1", "5,0,0,0", "5"): (
        '{"character": [{"mult": 1, "z": [-5, 5, 0, 0]}, {"mult": 1, "z": [0, -5, 5, 0]}, '
        '{"mult": 1, "z": [5, 0, 0, 0]}], "dim": 3, "schema": 1}\n'),
    # gl(3|2), lambda = (2,0,0,0,0), l = 3: Kac dimension 384
    ("3,2", "2,0,0,0,0", "3"): (
        '{"character": [{"mult": 1, "z": [-2, 2, 0, 0, 0]}, '
        '{"mult": 1, "z": [-1, 0, 1, 0, 0]}, {"mult": 1, "z": [-1, 1, 0, -1, 1]}, '
        '{"mult": 1, "z": [-1, 1, 1, 1, 0]}, {"mult": 1, "z": [0, -2, 2, 0, 0]}, '
        '{"mult": 1, "z": [0, -1, 1, -1, 1]}, {"mult": 1, "z": [0, -1, 2, 1, 0]}, '
        '{"mult": 1, "z": [0, 0, 1, 0, 1]}, {"mult": 1, "z": [0, 1, 0, 0, 0]}, '
        '{"mult": 1, "z": [1, -1, 1, 0, 0]}, {"mult": 1, "z": [1, 0, 0, -1, 1]}, '
        '{"mult": 1, "z": [1, 0, 1, 1, 0]}, '
        '{"mult": 1, "z": [2, 0, 0, 0, 0]}], "dim": 13, "schema": 1}\n'),
    # gl(5|1), lambda = (1,1,0,0,0,0), l = 3: Kac dimension 320
    ("5,1", "1,1,0,0,0,0", "3"): (
        '{"character": [{"mult": 1, "z": [-1, 0, 1, 0, 0, 0]}, '
        '{"mult": 1, "z": [-1, 1, -1, 1, 0, 0]}, {"mult": 1, "z": [-1, 1, 0, -1, 1, 0]}, '
        '{"mult": 1, "z": [-1, 1, 0, 0, 1, 1]}, {"mult": 1, "z": [0, -1, 0, 1, 0, 0]}, '
        '{"mult": 1, "z": [0, -1, 1, -1, 1, 0]}, {"mult": 1, "z": [0, -1, 1, 0, 1, 1]}, '
        '{"mult": 1, "z": [0, 0, -1, 0, 1, 0]}, {"mult": 1, "z": [0, 0, -1, 1, 1, 1]}, '
        '{"mult": 1, "z": [0, 0, 0, -1, 2, 1]}, {"mult": 1, "z": [0, 0, 0, 0, 2, 2]}, '
        '{"mult": 1, "z": [0, 1, 0, 0, 0, 0]}, {"mult": 1, "z": [1, -1, 1, 0, 0, 0]}, '
        '{"mult": 1, "z": [1, 0, -1, 1, 0, 0]}, {"mult": 1, "z": [1, 0, 0, -1, 1, 0]}, '
        '{"mult": 1, "z": [1, 0, 0, 0, 1, 1]}], "dim": 16, "schema": 1}\n'),
    # gl(5|1), lambda = (2,0,0,0,0,0), l = 3: Kac dimension 480, on which
    # ensure_divided builds E^(3) and F^(3) of four even simple roots
    ("5,1", "2,0,0,0,0,0", "3"): (
        '{"character": [{"mult": 1, "z": [-2, 2, 0, 0, 0, 0]}, '
        '{"mult": 1, "z": [-1, 0, 1, 0, 0, 0]}, {"mult": 1, "z": [-1, 1, -1, 1, 0, 0]}, '
        '{"mult": 1, "z": [-1, 1, 0, -1, 1, 0]}, {"mult": 1, "z": [-1, 1, 0, 0, 1, 1]}, '
        '{"mult": 1, "z": [0, -2, 2, 0, 0, 0]}, {"mult": 1, "z": [0, -1, 0, 1, 0, 0]}, '
        '{"mult": 1, "z": [0, -1, 1, -1, 1, 0]}, {"mult": 1, "z": [0, -1, 1, 0, 1, 1]}, '
        '{"mult": 1, "z": [0, 0, -2, 2, 0, 0]}, {"mult": 1, "z": [0, 0, -1, 0, 1, 0]}, '
        '{"mult": 1, "z": [0, 0, -1, 1, 1, 1]}, {"mult": 1, "z": [0, 0, 0, -2, 2, 0]}, '
        '{"mult": 1, "z": [0, 0, 0, -1, 2, 1]}, {"mult": 1, "z": [0, 1, 0, 0, 0, 0]}, '
        '{"mult": 1, "z": [1, -1, 1, 0, 0, 0]}, {"mult": 1, "z": [1, 0, -1, 1, 0, 0]}, '
        '{"mult": 1, "z": [1, 0, 0, -1, 1, 0]}, {"mult": 1, "z": [1, 0, 0, 0, 1, 1]}, '
        '{"mult": 1, "z": [2, 0, 0, 0, 0, 0]}], "dim": 20, "schema": 1}\n'),
    # gl(4|1), lambda = (3,0,0,0,0), l = 5: Kac dimension 320, with E^(5)
    # and F^(5) of the three even simple roots of the gl(4) block
    ("4,1", "3,0,0,0,0", "5"): (
        '{"character": [{"mult": 1, "z": [-3, 3, 0, 0, 0]}, '
        '{"mult": 1, "z": [-2, 1, 1, 0, 0]}, {"mult": 1, "z": [-2, 2, -1, 1, 0]}, '
        '{"mult": 1, "z": [-2, 2, 0, 1, 1]}, {"mult": 1, "z": [-1, -1, 2, 0, 0]}, '
        '{"mult": 1, "z": [-1, 0, 0, 1, 0]}, {"mult": 1, "z": [-1, 0, 1, 1, 1]}, '
        '{"mult": 1, "z": [-1, 1, -2, 2, 0]}, {"mult": 1, "z": [-1, 1, -1, 2, 1]}, '
        '{"mult": 1, "z": [-1, 2, 0, 0, 0]}, {"mult": 1, "z": [0, -3, 3, 0, 0]}, '
        '{"mult": 1, "z": [0, -2, 1, 1, 0]}, {"mult": 1, "z": [0, -2, 2, 1, 1]}, '
        '{"mult": 1, "z": [0, -1, -1, 2, 0]}, {"mult": 1, "z": [0, -1, 0, 2, 1]}, '
        '{"mult": 1, "z": [0, 0, -3, 3, 0]}, {"mult": 1, "z": [0, 0, -2, 3, 1]}, '
        '{"mult": 1, "z": [0, 0, 1, 0, 0]}, {"mult": 1, "z": [0, 1, -1, 1, 0]}, '
        '{"mult": 1, "z": [0, 1, 0, 1, 1]}, {"mult": 1, "z": [1, -2, 2, 0, 0]}, '
        '{"mult": 1, "z": [1, -1, 0, 1, 0]}, {"mult": 1, "z": [1, -1, 1, 1, 1]}, '
        '{"mult": 1, "z": [1, 0, -2, 2, 0]}, {"mult": 1, "z": [1, 0, -1, 2, 1]}, '
        '{"mult": 1, "z": [1, 1, 0, 0, 0]}, {"mult": 1, "z": [2, -1, 1, 0, 0]}, '
        '{"mult": 1, "z": [2, 0, -1, 1, 0]}, {"mult": 1, "z": [2, 0, 0, 1, 1]}, '
        '{"mult": 1, "z": [3, 0, 0, 0, 0]}], "dim": 30, "schema": 1}\n'),
}


def test_large_root_of_unity_head_is_fast():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for (shape, lam, l), want in LARGE_AT_ROOT.items():
        proc = subprocess.run(
            [sys.executable, "-m", "qgl.cli", "simple", "--shape", shape,
             "--lambda=" + lam, "--at-root", l],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 0, shape
        assert proc.stdout == want, shape


@pytest.mark.parametrize("argv", [["--shape", "2,1", "--lambda=30,0,0"],
                                  ["--shape", "1,2", "--lambda=0,0,-30"]], ids=str)
def test_high_weight_at_a_root_of_unity_is_fast(argv):
    # an even part of height 30 at l = 5 (Kac dimension 124): the rebase
    # onto divided monomials runs on L0(lambda), 31-dimensional, and K(lambda)
    # is induced from it; rebasing K(lambda) as a whole took about 8 s
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qgl.cli", "simple"] + argv + ["--at-root", "5"],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 7 and [c["mult"] for c in doc["character"]] == [1] * 7


def test_simple_head_of_atypical_kac_is_proper():
    alg = Algebra((2, 1))
    lam = (0, 0, 0)
    mod = repmod.kac_module(alg, lam)
    head = repmod.simple_head(mod)
    assert head.dim < mod.dim
    assert verify_module(head) == []
    assert repmod.singular_vectors(head) == []
    assert head.eps_weights[head.top] == lam


# -- PBW independence in typical Kac modules ---------------------------------


@pytest.mark.parametrize("shape,lam", [((2, 1), (6, 3, 0)), ((2, 2), (9, 6, 3, 0))])
def test_pbw_monomials_independent_in_typical_kac(shape, lam):
    alg = Algebra(shape)
    assert is_typical(alg.shape, lam)
    mod = repmod.kac_module(alg, lam)
    vecs = []
    n1, n0 = len(alg.f1_list), len(alg.f0_list)
    for d in itertools.product((0, 1), repeat=n1):
        for psi in itertools.product(range(3), repeat=n0):
            if sum(psi) > 2:
                continue
            (col,) = mod.act_element(alg.monomial(fd=d, fpsi=psi), [[(mod.top, mod.field.one)]])
            vecs.append(col)
    assert len(rref(vecs)[1]) == len(vecs)


# -- tensor products ---------------------------------------------------------


def test_tensor_relations_and_character():
    alg = Algebra((2, 1))
    a = repmod.kac_module(alg, (2, 0, 0))
    b = repmod.kac_module(alg, (1, 0, 0))
    t = repmod.tensor_module(a, b)
    assert t.dim == a.dim * b.dim
    assert verify_module(t) == []
    assert repmod.character_product(a.character(), b.character()) == t.character()


def _trivial_module(alg):
    """L(0): one even vector of weight 0, every simple generator acting as 0."""
    mats = {(kind, i, i + 1, 1): [[]] for i in range(1, alg.shape.rank) for kind in ("E", "F")}
    return repmod.WeightModule(alg, GENERIC_FIELD, [(0,) * alg.shape.rank], [0], mats, top=0)


def test_tensor_with_trivial_module():
    alg = Algebra((1, 1))
    a = repmod.kac_module(alg, (1, 0))
    t = repmod.tensor_module(a, _trivial_module(alg))
    assert t.dim == a.dim
    assert t.character() == a.character()
    assert verify_module(t) == []


def _coproduct_matrices(m1, m2):
    """The simple generators on m1 (x) m2, basis a (x) b at a * dim m2 + b,
    from Delta(E_i) = E_i (x) K_alpha_i + 1 (x) E_i and Delta(F_i) =
    F_i (x) 1 + K_alpha_i^-1 (x) F_i, where the second term carries the
    sign (-1)^{p_i p(a)}."""
    sh = m1.alg.shape
    one = m1.field.one
    n2 = m2.dim
    out = {}
    for i in range(1, sh.rank):
        al = sh.k_alpha_vector(i)
        odd = i == sh.m
        for kind in ("E", "F"):
            key = (kind, i, i + 1, 1)
            x1, x2 = m1.mats[key], m2.mats[key]
            entries = []
            for a in range(m1.dim):
                for b in range(n2):
                    if kind == "E":
                        k1, k2 = m2.q_weight(al, m2.eps_weights[b]), one
                    else:
                        k1, k2 = one, m1.q_weight(tuple(-x for x in al), m1.eps_weights[a])
                    if odd and m1.parities[a]:
                        k2 = -k2
                    entries += [(ap * n2 + b, a * n2 + b, x * k1) for ap, x in x1[a]]
                    entries += [(a * n2 + bp, a * n2 + b, k2 * x) for bp, x in x2[b]]
            out[key] = columns(entries, m1.dim * n2)
    return out


def _tensor_factors():
    gl21, gl12 = Algebra((2, 1)), Algebra((1, 2))
    return {
        "kac-kac-gl21": (repmod.kac_module(gl21, (2, 0, 0)), repmod.kac_module(gl21, (1, 0, 1))),
        "kac-kac-gl12": (repmod.kac_module(gl12, (1, 1, 0)), repmod.kac_module(gl12, (0, 1, 0))),
        "kac-trivial": (repmod.kac_module(gl21, (1, 1, 0)), _trivial_module(gl21)),
        "restricted-l3": (ru.simple_at_root(gl21, (1, 0, 0), 3),
                          ru.simple_at_root(gl21, (0, 1, 0), 3)),
    }


@pytest.mark.parametrize("case", ["kac-kac-gl21", "kac-kac-gl12", "kac-trivial", "restricted-l3"])
def test_tensor_matrices_match_the_coproduct(case):
    m1, m2 = _tensor_factors()[case]
    t = repmod.tensor_module(m1, m2)
    want = _coproduct_matrices(m1, m2)
    assert set(t.mats) == set(want)
    for key, m in want.items():
        assert any(m), key
        assert t.mats[key] == m, key


# z on gl(2|1) and gl(1|2), split at l = 3 into a restricted z' and 3 z''
FROBENIUS_TENSORS = [
    ((2, 1), (4, 0, 0)), ((2, 1), (4, 3, 1)), ((2, 1), (3, 2, 0)),
    ((1, 2), (0, 4, 0)), ((1, 2), (2, 4, 1)),
]


@pytest.mark.parametrize("shape,z", FROBENIUS_TENSORS, ids=str)
def test_tensor_over_q_eta_realizes_the_frobenius_splitting(shape, z):
    # two modules over Q(eta) have fields built apart; the product must
    # still be formed, and L(z') (x) L(3 z'') has the character of L(z),
    # every module built by the full construction
    alg, l = Algebra(shape), 3
    zp, zpp = frobenius_decompose(alg.shape, z, l)
    whole = full_simple_at_root(alg, z, l)
    t = repmod.tensor_module(full_simple_at_root(alg, zp, l),
                             full_simple_at_root(alg, tuple(l * x for x in zpp), l))
    assert t.l == l
    assert verify_module(t) == []
    assert t.dim == whole.dim
    assert t.character() == whole.character()


# -- the sparse-column format ------------------------------------------------


def _quotient_by_singular_vectors():
    mod = repmod.kac_module(Algebra((2, 1)), (0, 0, 0))
    sing = [v for _, v in repmod.singular_vectors(mod)]
    return repmod.quotient_module(mod, repmod.submodule_closure(mod, sing))


def _tensor_of_two_kac_modules():
    alg = Algebra((2, 1))
    return repmod.tensor_module(repmod.kac_module(alg, (1, 0, 0)),
                                repmod.kac_module(alg, (0, 0, 1)))


def _divided_kac_with_divided_power():
    mod = repmod.divided_kac_module(Algebra((2, 1)), (2, 0, 0))
    mod.ensure_divided("E", 1, 2, 3)
    return mod


FORMAT_CASES = {
    "even": lambda: repmod.simple_even_module(Algebra((2, 1)), (3, 1, -2)),
    "rebased-even": lambda: repmod.rebase_to_divided_monomials(
        repmod.simple_even_module(Algebra((2, 1)), (2, 0, 0)))[0],
    "kac": lambda: repmod.kac_module(Algebra((2, 1)), (2, 1, 0)),
    "divided-kac": _divided_kac_with_divided_power,
    # heads on gl(2|2) whose forms meet the raising matrices in zeros
    "head": lambda: repmod.simple_head(repmod.kac_module(Algebra((2, 2)), (1, 0, 1, 1))),
    "head-at-root": lambda: ru.simple_at_root(Algebra((2, 2)), (0, 1, 1, 0), 3),
    "tensor": _tensor_of_two_kac_modules,
    "quotient": _quotient_by_singular_vectors,
    "trivial": lambda: _trivial_module(Algebra((2, 1))),
    "specialized-kac": lambda: ru.specialize_kac(Algebra((2, 1)), (2, 0, 0), 3),
}


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_every_builder_stores_sparse_columns(case):
    # dim columns, each listing (row, value) for its nonzero entries with
    # the rows strictly ascending
    mod = FORMAT_CASES[case]()
    alg, one, nodes = mod.alg, mod.field.one, mod.nodes()
    i, k = nodes[0], (1,) + (0,) * (alg.shape.rank - 1)
    # derived atoms, and an element whose straightened form has torus terms
    derived = {("K", k): alg.k_mono(k), ("F", i, i + 1, 2): alg.gen("F", i, i + 1) ** 2,
               "E F": alg.gen("E", i, i + 1) * alg.gen("F", i, i + 1)}
    if {1, 2} <= set(nodes):
        derived[("F", 1, 3, 1)] = alg.gen("F", 1, 3)
    mats = dict(mod.mats)
    for key, elt in derived.items():
        whole = mats[key] = mod.act_element(elt, mod.identity())
        if key != "E F":
            assert mod.matrix_of_atom(key) == whole, key
        for c in range(mod.dim):
            assert mod.act_element(elt, [[(c, one)]]) == [whole[c]], (key, c)
    assert all(mats[("K", k)])
    for key, m in mats.items():
        assert len(m) == mod.dim, key
        for col in m:
            _assert_sparse(col, mod.dim, key)


def _assert_sparse(vec, dim, what):
    # the (index, value) pairs of the nonzero entries, indices strictly ascending
    idx = [r for r, _ in vec]
    assert idx == sorted(set(idx)) and all(0 <= r < dim for r in idx), what
    assert not any(x.is_zero() for _, x in vec), what


@pytest.mark.parametrize("l", [None, 3])
def test_vectors_are_sparse(l):
    # singular vectors, closures, kernels and Echelon rows share the columns' format
    alg = Algebra((2, 1))
    mod = repmod.kac_module(alg, (0, 0, 0)) if l is None else ru.specialize_kac(alg, (2, 0, 0), l)
    sing = repmod.singular_vectors(mod, skip_top=False)
    vecs = [v for _, v in sing if v != [(mod.top, mod.field.one)]]  # the proper ones
    assert len(vecs) == len(sing) - 1 >= 1
    for _, v in sing:
        _assert_sparse(v, mod.dim, "singular")
    span = repmod.submodule_closure(mod, vecs)
    assert 1 <= len(span) < mod.dim
    for v in span + Echelon(vecs + span).rows:
        _assert_sparse(v, mod.dim, "closure")
    for key, m in mod.mats.items():  # the left kernel: the columns as rows
        kern = nullspace(m, mod.dim, mod.field.one)
        assert len(kern) == mod.dim - len(rref(m)[1]), key
        for v in kern:
            _assert_sparse(v, mod.dim, key)


# -- the free-word action oracle ---------------------------------------------


def _diff(lhs, rhs):
    out = dict(lhs)
    for w, c in rhs.items():
        s = out.get(w, RF_ZERO) - c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


@pytest.mark.parametrize("shape,lam", [((1, 1), (2, -1)), ((2, 1), (3, 1, 0))])
def test_verma_oracle_multiplicativity(shape, lam):
    alg = Algebra(shape)
    vo = VermaOracle(alg, lam, depth=4)
    rng = random.Random(99)
    gens = []
    for i in range(1, alg.shape.rank):
        gens += [alg.gen("E", i, i + 1), alg.gen("F", i, i + 1)]
    mu = [0] * alg.shape.rank
    mu[0] = 1
    gens.append(alg.k_mono(tuple(mu)))
    from qgl.scalars import RF_ONE

    v0 = {(): RF_ONE}
    for _ in range(100):
        def rnd():
            x = rng.choice(gens)
            if rng.random() < 0.6:
                x = x * rng.choice(gens)
            return x

        x, y = rnd(), rnd()
        lhs = vo.act_element(x, vo.act_element(y, v0))
        rhs = vo.act_element(x * y, v0)
        d = _diff(lhs, rhs)
        assert (not d) or vo.vanishes_mod_relations(d)


def test_verma_oracle_ef_eigenvalue():
    # E_i F_i v = [ (lam, alpha_i)_i ] v on the highest vector
    from qgl.rootdata import bilinear_form
    from qgl.scalars import RF_ONE, RatFunc

    alg = Algebra((2, 1))
    lam = (3, 1, 0)
    vo = VermaOracle(alg, lam, depth=3)
    for i in (1, 2):
        v = vo.act_e(i, vo.act_f(i, {(): RF_ONE}))
        a = bilinear_form(alg.shape, lam, alg.shape.k_alpha_vector(i))
        want = (RatFunc.q_power(a) - RatFunc.q_power(-a)) * (
            alg.qi(i, 1) - alg.qi(i, -1)
        ).inverse()
        assert v == ({(): want} if not want.is_zero() else {})


def test_verma_oracle_relations_nontrivial():
    # the relation ideal slice is proper: a single word is not in it
    alg = Algebra((2, 1))
    vo = VermaOracle(alg, (1, 0, 0), depth=3)
    assert not vo.vanishes_mod_relations({(1, 2): RF_ZERO + alg.qi(1, 0)})
    # but the odd square is
    assert vo.vanishes_mod_relations({(2, 2): alg.qi(1, 0)})
