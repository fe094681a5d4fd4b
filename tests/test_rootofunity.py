"""Root-of-unity and q -> 1 specializations: integral-element images,
small-group dimension counts, restricted simple modules, character
factorization, and the classical Serre-presentation limit."""

import itertools
import time

import pytest

from qgl import repmod, rootofunity as ru, scalars
from qgl.errors import BadRootOrder, DenominatorVanishes, ResourceLimit
from qgl.hopf import Hopf
from qgl.linalg import columns, mat_mul
from qgl.pbwcore import Algebra
from qgl.rootdata import Shape, frobenius_decompose, in_Xplus, is_typical, z_to_weight
from qgl.scalars import CycloNum, RatFunc, evaluate_at_root, gauss_factorial, gauss_int

from kac_oracle import rebased_kac_module, specialized_kac_reference
from structure_checks import (
    frobenius_character_check, frobenius_vanishing_check, full_simple_at_root,
    k_power_central_at_root, restricted_checks,
)
from views import verify_module


# -- element specialization --------------------------------------------------


def test_specialize_integer_element_unchanged():
    alg = Algebra((1, 1))
    el = alg.one().scale(RatFunc.from_int(7))
    coords = ru.specialize_element(alg, el, 3)
    assert list(coords.values()) == [CycloNum.from_int(7, 3)]


def test_gauss_l_vanishes_at_root():
    alg = Algebra((1, 1))
    for l in (3, 5, 7):
        el = alg.one().scale(gauss_int(l))
        assert ru.specialize_element(alg, el, l) == {}


def test_k_power_central_at_root():
    for shape in [(1, 1), (2, 1)]:
        assert k_power_central_at_root(Algebra(shape), 3)


def test_bad_orders_rejected():
    alg = Algebra((1, 1))
    for l in (1, 2, 4, 6):
        with pytest.raises(BadRootOrder):
            ru.specialize_element(alg, alg.one(), l)
        with pytest.raises(BadRootOrder):
            ru.small_group_counts(alg.shape, l)


# -- small group counts ------------------------------------------------------


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("l", [3, 5])
def test_small_group_counts_match_closed_form(mn, l):
    m, n = mn
    sh = Shape(m, n)
    c = ru.small_group_counts(sh, l)
    n0, n1 = len(sh.I0), len(sh.I1)
    assert c["upper"] == l ** n0 * 2 ** n1
    assert c["torus"] == (2 * l) ** (m + n)
    assert c["full"] == 2 ** (2 * m * n) * l ** (2 * n0) * (2 * l) ** (m + n)
    assert c["reduced"] == 2 ** (2 * m * n) * l ** (2 * n0) * l ** (m + n)


def test_small_group_counts_gl11_l3():
    c = ru.small_group_counts(Shape(1, 1), 3)
    assert c["reduced"] == 36
    assert c["full"] == 144


# -- restricted simple modules -----------------------------------------------


def test_restricted_simple_gl11():
    alg = Algebra((1, 1))
    assert ru.simple_at_root(alg, (1, 0), 3).dim == 2
    assert ru.simple_at_root(alg, (0, 0), 3).dim == 1


def test_specialized_module_satisfies_relations():
    alg = Algebra((2, 1))
    mod = ru.simple_at_root(alg, (2, 1, 0), 3)
    assert mod.l == 3
    assert verify_module(mod) == []


def test_specialized_kac_stores_only_simple_and_divided_matrices():
    # derived matrices (composite roots, powers) stay out of mats, so that
    # rebasing and specialization neither conjugate nor evaluate them
    alg, lam, l = Algebra((2, 1)), (2, 0, 0), 3
    simple = {(kind, i, i + 1, 1) for i in (1, 2) for kind in ("E", "F")}
    kac = repmod.kac_module(alg, lam)
    generic = rebased_kac_module(alg, lam)
    assert set(kac.mats) == set(generic.mats) == simple
    spec = ru.specialize_kac(alg, lam, l)
    assert set(spec.mats) == simple | {("DE", 1, 2, l), ("DF", 1, 2, l)}
    assert spec.dim == kac.dim and spec.character() == kac.character()
    for atom in (("F", 1, 3, 1), ("E", 1, 3, 1), ("F", 1, 2, 2), ("E", 1, 2, l)):
        want = [[(r, y) for r, x in col for y in [evaluate_at_root(x, l)] if not y.is_zero()]
                for col in generic.matrix_of_atom(atom)]
        assert spec.matrix_of_atom(atom) == want, atom
    assert set(spec.mats) == simple | {("DE", 1, 2, l), ("DF", 1, 2, l)}


# per shape: a typical weight, an atypical one, one with a negative entry
# and one whose even part reaches past l = 3 (Kac dimension at most 80)
SPECIALIZE_WEIGHTS = {
    (1, 1): [(2, 1), (1, -1), (-1, 2), (5, 0)],
    (2, 1): [(2, 1, 0), (2, 0, 0), (0, -1, 2), (5, 0, 0)],
    (1, 2): [(2, 1, 0), (0, 0, 0), (-1, 1, 1), (0, 0, -5)],
    (2, 2): [(1, 0, 1, 0), (0, 0, 0, 0), (0, -1, 2, 1), (3, 0, 0, 0)],
    (3, 1): [(1, 0, 0, 2), (0, 0, 0, 0), (1, 1, -1, 0), (3, 0, 0, 0)],
    (1, 3): [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -3), (0, 3, 0, 0)],
}


def test_specialize_kac_matches_the_whole_module_rebase():
    # K(lam) induced from the rebased L0(lam) is the whole-module rebase of
    # K(lam), matrix for matrix, weight for weight, once both are at eta
    start = time.perf_counter()
    for shape, weights in sorted(SPECIALIZE_WEIGHTS.items()):
        alg = Algebra(shape)
        assert is_typical(alg.shape, weights[0]) and not is_typical(alg.shape, weights[1])
        assert min(weights[2]) < 0
        for lam, l in itertools.product(weights, (3, 5)):
            mod = ru.specialize_kac(alg, lam, l)
            ref = specialized_kac_reference(alg, lam, l)
            assert (mod.eps_weights, mod.parities, mod.top) == (ref.eps_weights, ref.parities, ref.top)
            assert sorted(mod.mats) == sorted(ref.mats), (shape, lam, l)
            for key, m in ref.mats.items():
                assert mod.mats[key] == m, (shape, lam, l, key)
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("z", [(1, 1, 1), (2, 1, 0), (1, 2, 2)])
def test_restricted_structure_gl21(z):
    alg = Algebra((2, 1))
    r = restricted_checks(alg, z, 3)
    assert r["divided_f_kills_top"], z
    assert r["maximal_line_unique"], z
    assert r["small_group_generates"], z


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2, 2), (3, 1)], ids=str)
def test_restricted_structure_sweep(shape):
    # every restricted z at l = 3 and 5 on gl(2|1) and gl(1|2), 152 per
    # shape, and at l = 3 on gl(2|2) and gl(3|1), 81 each, every one with a
    # dominant weight: F^(l) kills the top, the maximal line is unique and
    # the module is simple under the small quantum group among submodules
    # spanned by weight vectors (one closure and one simple head per z).
    # Under 3 s per shape on a 2-core host.
    orders = (3, 5) if sum(shape) == 3 else (3,)
    alg = Algebra(shape)
    start = time.perf_counter()
    checked = 0
    for l in orders:
        for z in itertools.product(range(l), repeat=alg.shape.rank):
            assert in_Xplus(alg.shape, z_to_weight(alg.shape, z)), z
            r = restricted_checks(alg, z, l)
            assert r["divided_f_kills_top"], (l, z)
            assert r["maximal_line_unique"], (l, z)
            assert r["small_group_generates"], (l, z)
            checked += 1
    assert checked == (152 if sum(shape) == 3 else 81)
    assert time.perf_counter() - start < 60


# -- character factorization -------------------------------------------------


@pytest.mark.parametrize("z", [(4, 0, 0), (5, 1, 0), (4, 2, 1)])
def test_frobenius_character_factorization_gl21(z):
    alg = Algebra((2, 1))
    r = frobenius_character_check(alg, z, 3)
    assert r["z_frobenius"] != (0, 0, 0)
    assert r["match"], z


def _frobenius_sweep(monkeypatch, shape, l, box, stride):
    """Every stride-th z of [0, box)^rank in lexicographic order that has
    z'' != 0, a dominant weight and a Kac module within the budget: the full
    construction factors (frobenius_character_check), and simple_at_root
    gives the full construction's character with a certificate that holds.
    Returns the number of z checked."""
    alg = Algebra(shape)
    verdicts = []
    certified = ru._certified
    monkeypatch.setattr(ru, "_certified", lambda mod: verdicts.append(certified(mod)) or verdicts[-1])
    checked = 0
    for t, z in enumerate(itertools.product(range(box), repeat=alg.shape.rank)):
        lam = z_to_weight(alg.shape, z)
        _, zpp = frobenius_decompose(alg.shape, z, l)
        if t % stride or not any(zpp) or not in_Xplus(alg.shape, lam):
            continue
        if repmod.kac_dimension_oracle(alg, lam) > repmod._MAX_KAC_DIM:
            continue
        r = frobenius_character_check(alg, z, l)
        assert r["match"], z
        fast = ru.simple_at_root(alg, z, l)
        assert (fast.dim, fast.character()) == (r["dim"], r["character"]), z
        assert verdicts[-1:] == [True], z
        checked += 1
    assert len(verdicts) == checked
    return checked


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)], ids=str)
def test_frobenius_character_factorization_sweep(shape, monkeypatch):
    # ch L(z) = ch L(z') ch L(3 z'') for every z in [0,7)^3 with z'' != 0 and
    # a dominant weight.  The one constrained index is 1 for (2,1) and 2 for
    # (1,2); at the indices m and m + n all of z stays in z'.  Each sweep
    # builds 588 simple modules at q = eta by the full construction and 196
    # by the factorization, about 4 s on a 2-core host; the bound catches a
    # path that became ten times slower.
    start = time.perf_counter()
    assert _frobenius_sweep(monkeypatch, shape, 3, 7, 1) == 196
    assert time.perf_counter() - start < 60


# (shape, l, box, stride, z checked): the l = 5 boxes, thinned to every
# stride-th z in lexicographic order so that each runs in a few seconds on a
# 2-core host; on gl(2|2) the 294 z over the Kac budget are left out
FROBENIUS_BOXES_L5 = [
    ((2, 1), 5, 11, 5, 146),
    ((1, 2), 5, 11, 5, 146),
    ((2, 2), 5, 7, 29, 31),
]


@pytest.mark.parametrize("shape,l,box,stride,count", FROBENIUS_BOXES_L5,
                         ids=[str(b[0]) for b in FROBENIUS_BOXES_L5])
def test_frobenius_factorization_sweep_at_l5(shape, l, box, stride, count, monkeypatch):
    start = time.perf_counter()
    assert _frobenius_sweep(monkeypatch, shape, l, box, stride) == count
    assert time.perf_counter() - start < 60


def test_frobenius_vanishing():
    alg = Algebra((2, 1))
    r = frobenius_vanishing_check(alg, (1, 0, 0), 3)
    assert r["ef_vanish"] and r["k_identity"]


# -- simple modules by the Frobenius factorization ---------------------------

# (shape, z, l) with z'' != 0; on the gl(2|2) and gl(1|3) z, E^(l) does not
# act as zero on L(z')
FROBENIUS_PRODUCTS = [
    ((2, 1), (4, 0, 0), 3), ((2, 1), (4, 3, 1), 3), ((2, 1), (7, -2, 0), 5),
    ((1, 2), (2, 4, 1), 3), ((1, 2), (0, 6, -1), 5),
    ((2, 2), (3, 1, 4, 0), 3), ((3, 1), (2, 3, 0, 1), 3), ((1, 3), (1, 3, 2, 0), 3),
]


def _product_factors(alg, z, l):
    """L(z') by the full construction and the Frobenius twist of z''."""
    zp, zpp = frobenius_decompose(alg.shape, z, l)
    return (full_simple_at_root(alg, zp, l),
            repmod.frobenius_twist(alg, z_to_weight(alg.shape, zpp), l))


@pytest.mark.parametrize("shape,z,l", FROBENIUS_PRODUCTS, ids=str)
def test_frobenius_product_acts_as_the_tensor_module(shape, z, l):
    # the simple E_i and F_i of L(z) are those of tensor_module, which acts
    # through the whole coproduct of each generator
    alg = Algebra(shape)
    first, twist = _product_factors(alg, z, l)
    t = ru.simple_at_root(alg, z, l)
    ref = repmod.tensor_module(first, twist)
    assert (t.eps_weights, t.parities, t.top) == (ref.eps_weights, ref.parities, ref.top)
    assert set(t.mats) == set(first.mats) == set(twist.mats)
    for key, m in ref.mats.items():
        assert t.mats[key] == m, key
    assert verify_module(t) == []


def _word_operator(mod, word, l):
    """The matrix of a PBW word on mod, a power X^n read as the divided
    power X^(n): the stored matrix for n = l, else X^n / [n]! at eta."""
    out = mod.identity()
    for atom in word:
        if atom[0] == "K":
            m = mod.matrix_of_atom(atom)
        elif atom[3] == l:
            m = mod.mats[("D" + atom[0],) + atom[1:]]
        else:
            inv = evaluate_at_root(gauss_factorial(atom[3]), l).inverse()
            m = [[(r, x * inv) for r, x in col] for col in mod.matrix_of_atom(atom)]
        out = mat_mul(out, m)
    return out


def _divided_power(word):
    """The power n of the one E or F atom of a word, 0 if it has none."""
    return sum(atom[3] for atom in word if atom[0] != "K")


@pytest.mark.parametrize("shape,z,l", FROBENIUS_PRODUCTS, ids=str)
def test_frobenius_product_divided_powers_follow_the_coproduct(shape, z, l):
    # E_i^(l) and F_i^(l) of L(z) are the sum over hopf.delta's terms, in
    # divided coordinates and at eta: the middle terms have an E^(b) or
    # F^(b), 0 < b < l, on the twist, which kills them, and the outer two
    # have coefficient 1 and a K^(+-l) that acts as 1
    alg = Algebra(shape)
    first, twist = _product_factors(alg, z, l)
    t = ru.simple_at_root(alg, z, l)
    d2 = twist.dim
    hopf = Hopf(alg)
    divided = [key for key in t.mats if key[0] in ("DE", "DF")]
    assert divided
    for key in divided:
        kind, i, j, _ = key
        delta = hopf.delta(alg.divided_power(kind[1], i, j, l))
        entries, outer = [], []
        for (x, y), c in delta.terms.items():
            wx, wy = alg.mono_word(x), alg.mono_word(y)
            a, b = _divided_power(wx), _divided_power(wy)
            assert a + b == l
            c = evaluate_at_root(c * gauss_factorial(a) * gauss_factorial(b), l)
            ox, oy = _word_operator(first, wx, l), _word_operator(twist, wy, l)
            if 0 < b < l:
                assert not any(oy), (key, wy)
                continue
            assert c == t.field.one
            outer.append(b)
            assert ox == first.identity() or oy == twist.identity()
            entries += [(r1 * d2 + r2, a1 * d2 + b1, c * x1 * x2)
                        for a1, col1 in enumerate(ox) for b1, col2 in enumerate(oy)
                        for r1, x1 in col1 for r2, x2 in col2]
        assert sorted(outer) == [0, l], key
        assert t.mats[key] == columns(entries, t.dim), key


def _contravariant_form(mod, l, depth):
    """{(u, w): the top coefficient of omega(u) w v_top} for the words u, w
    of at most depth divided powers F^(l) that lower to the same weight,
    omega(u) the word of E^(l) in reverse: numbers that do not depend on
    the basis, and that fix the module's E^(l) and F^(l) up to isomorphism."""
    nodes = sorted(key[1] for key in mod.mats if key[0] == "DF")
    lowered = {}  # word -> the vector w v_top
    for n in range(depth + 1):
        for word in itertools.product(nodes, repeat=n):
            v = [[(mod.top, mod.field.one)]]
            for i in reversed(word):
                v = mat_mul(mod.mats[("DF", i, i + 1, l)], v)
            lowered[word] = v
    out = {}
    for w, v in lowered.items():
        for u in lowered:
            if sorted(u) != sorted(w):
                continue
            x = v
            for i in u:
                x = mat_mul(mod.mats[("DE", i, i + 1, l)], x)
            out[(u, w)] = dict(x[0]).get(mod.top)
    return out


# (shape, z'') for the twist against the engine's own L(l z'')
TWISTS = [
    ((2, 1), (1, 0, 0)), ((2, 1), (3, 0, 0)), ((1, 2), (0, 2, 0)),
    ((2, 2), (1, 0, 1, 0)), ((2, 2), (2, 0, 0, 0)),
    ((3, 1), (1, 1, 0, 0)), ((1, 3), (0, 1, 1, 0)),
]


@pytest.mark.parametrize("shape,zpp", TWISTS, ids=str)
def test_frobenius_twist_is_the_engines_frobenius_module(shape, zpp):
    # the twist, from the classical Gelfand-Tsetlin formulas, against the
    # simple head of the specialized Kac module of l z'': the same weights,
    # simple E and F that act as zero, and the same contravariant form of
    # E^(l) and F^(l), so E^(l) -> e and F^(l) -> f is normalized as the
    # engine's divided powers are
    alg, l = Algebra(shape), 3
    twist = repmod.frobenius_twist(alg, z_to_weight(alg.shape, zpp), l)
    full = full_simple_at_root(alg, tuple(l * x for x in zpp), l)
    assert sorted(twist.eps_weights) == sorted(full.eps_weights)
    assert twist.eps_weights[twist.top] == full.eps_weights[full.top]
    assert set(twist.mats) == set(full.mats)
    assert frobenius_vanishing_check(alg, zpp, l)["ef_vanish"]
    assert not any(any(m) for key, m in twist.mats.items() if key[3] == 1)
    form = _contravariant_form(twist, l, 3)
    assert form == _contravariant_form(full, l, 3)
    assert any(v is not None for (_, w), v in form.items() if w)


def test_a_failing_certificate_falls_back_to_the_full_construction(monkeypatch):
    alg, z, l = Algebra((2, 1)), (4, 3, 1), 3
    want = full_simple_at_root(alg, z, l)
    asked = []
    monkeypatch.setattr(ru, "_certified", lambda mod: asked.append(mod.dim) and False)
    got = ru.simple_at_root(alg, z, l)
    assert asked == [want.dim]
    assert (got.eps_weights, got.parities, got.top) == (want.eps_weights, want.parities, want.top)
    assert got.mats == want.mats


def test_a_restricted_part_over_the_q_degree_budget_is_split_at_every_coordinate(monkeypatch):
    # on gl(1|2), z' can have a larger weight than z: lam = (5, 3, 0) has
    # z = (8, 3, 0), and at l = 3 z' = (8, 0, 0), whose weight is (8, 0, 0);
    # with the budget at 6 that L(z') is over it, so every coordinate is
    # split, z' = (2, 0, 0) and z'' = (2, 1, 0), and the product is certified
    alg, z, l = Algebra((1, 2)), (8, 3, 0), 3
    monkeypatch.setattr(scalars, "_MAX_Q_DEGREE", 6)
    assert z_to_weight(alg.shape, z) == (5, 3, 0)
    want = full_simple_at_root(alg, z, l)
    with pytest.raises(ResourceLimit):
        full_simple_at_root(alg, (8, 0, 0), l)
    asked = []
    certified = ru._certified
    monkeypatch.setattr(ru, "_certified", lambda mod: asked.append(mod.dim) or certified(mod))
    got = ru.simple_at_root(alg, z, l)
    assert asked == [want.dim]
    assert sorted(got.eps_weights) == sorted(want.eps_weights)


# -- classical limit ---------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_classical_limit_serre_relations(shape):
    alg = Algebra(shape)
    results = ru.classical_limit_check(alg)
    failures = [name for name, ok in results if not ok]
    assert failures == []
    if shape == (2, 2):
        assert any(name.startswith("a8") for name, _ in results)


def test_classical_reduce_detects_nonzero():
    # sanity: the reduction is not identically zero
    alg = Algebra((1, 1))
    assert ru.classical_reduce(alg, alg.gen("E", 1, 2)) != {}
    assert ru.classical_reduce(alg, alg.one().scale(RatFunc.from_int(3))) != {}
