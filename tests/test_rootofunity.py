"""Root-of-unity and q -> 1 specializations: integral-element images,
small-group dimension counts, restricted simple modules, character
factorization, and the classical Serre-presentation limit."""

import itertools
import time

import pytest

from qgl import repmod, rootofunity as ru
from qgl.errors import BadRootOrder, DenominatorVanishes
from qgl.pbwcore import Algebra
from qgl.rootdata import Shape, frobenius_decompose, in_Xplus, is_typical, z_to_weight
from qgl.scalars import CycloNum, RatFunc, evaluate_at_root, gauss_int

from kac_oracle import rebased_kac_module, specialized_kac_reference
from structure_checks import (
    frobenius_character_check, frobenius_vanishing_check, k_power_central_at_root, restricted_checks,
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


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)], ids=str)
def test_frobenius_character_factorization_sweep(shape):
    # ch L(z) = ch L(z') ch L(3 z'') for every z in [0,7)^3 with z'' != 0 and
    # a dominant weight.  The one constrained index is 1 for (2,1) and 2 for
    # (1,2); at the indices m and m + n all of z stays in z'.  Each sweep
    # builds 588 simple modules at q = eta through simple_at_root, about 6 s
    # on a 2-core host; the bound catches a path that became ten times slower.
    alg = Algebra(shape)
    start = time.perf_counter()
    checked = 0
    for z in itertools.product(range(7), repeat=3):
        _, zpp = frobenius_decompose(alg.shape, z, 3)
        if any(zpp) and in_Xplus(alg.shape, z_to_weight(alg.shape, z)):
            assert frobenius_character_check(alg, z, 3)["match"], z
            checked += 1
    assert checked == 196
    assert time.perf_counter() - start < 60


def test_frobenius_vanishing():
    alg = Algebra((2, 1))
    r = frobenius_vanishing_check(alg, (1, 0, 0), 3)
    assert r["ef_vanish"] and r["k_identity"]


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
