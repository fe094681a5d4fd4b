"""Root vectors in closed form: the normal form of every crossing E_ij F_st
of single powers, and the coproduct, antipode and T_i^{+-1} images of every
root vector, against the defining presentation (``root_vector_reference``)
on every shape with m + n <= 6."""

import functools
import itertools

import pytest

from qgl import braid
from qgl.hopf import Hopf
from qgl.pbwcore import Algebra, add_term
from qgl.scalars import RF_ONE

from root_vector_reference import RecursiveAlgebra, antipode_simple, braid_simple, delta_simple
from test_braid import even_nodes

SHAPES = [(m, r - m) for r in range(2, 7) for m in range(1, r)]


def _roots(alg):
    return sorted(alg.shape.I0 + alg.shape.I1)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_crossing_of_single_powers_is_written_in_normal_form(shape):
    alg, ref = Algebra(shape), RecursiveAlgebra(shape)
    for (i, j), (s, t) in itertools.product(_roots(alg), repeat=2):
        left, right = ("E", i, j, 1), ("F", s, t, 1)
        terms = alg._resolve_ef(left, right)
        got = {}
        for c, word in terms:
            key = alg.word_to_monomial(word)
            assert alg.mono_word(key) == word and key not in got, (left, right, word)
            add_term(got, key, c)
        assert len(got) == len(terms), (left, right)
        assert got == ref.straighten([(RF_ONE, (left, right))]), (left, right)
        assert len(got) in ((3,) if (i, j) == (s, t) else (1, 2)), (left, right)


@pytest.mark.parametrize("shape", [s for s in SHAPES if sum(s) <= 4])
def test_crossings_of_powers_match_the_recursion(shape):
    # E_ij^a F_st^b, a, b <= 3, each odd root vector to the first power only
    alg, ref = Algebra(shape), RecursiveAlgebra(shape)
    sh = alg.shape
    for (i, j), (s, t), a, b in itertools.product(_roots(alg), _roots(alg), (1, 2, 3), (1, 2, 3)):
        if (sh.parity(i, j) and a > 1) or (sh.parity(s, t) and b > 1):
            continue
        left, right = ("E", i, j, a), ("F", s, t, b)
        got = alg.mono_product(alg.word_to_monomial((left,)), alg.word_to_monomial((right,)))
        assert got == ref.straighten([(RF_ONE, (left, right))]), (left, right)


def test_single_power_crossings_open_no_nested_straightening(monkeypatch):
    # a product of monomials straightens once at the top level, however many
    # crossings of single powers its word meets
    alg = Algebra((3, 2))
    calls = []
    real = Algebra._straighten

    def counted(self, terms, budget):
        calls.append(budget.depth)
        return real(self, terms, budget)

    monkeypatch.setattr(Algebra, "_straighten", counted)
    e = alg.gen("E", 1, 4) * alg.gen("E", 2, 5)
    f = alg.gen("F", 1, 5) * alg.gen("F", 2, 3) * alg.gen("F", 3, 4)
    del calls[:]
    assert e * f
    assert calls and set(calls) == {0}, calls


@pytest.mark.parametrize("shape", SHAPES)
def test_coproduct_of_every_root_vector(shape):
    alg, ref = Algebra(shape), RecursiveAlgebra(shape)
    hopf = Hopf(alg)
    for (i, j), kind in itertools.product(_roots(alg), "EF"):
        got = hopf.delta_atom((kind, i, j, 1))
        want = ref.apply_hom(ref.gen(kind, i, j), functools.partial(delta_simple, ref))
        assert got.terms == want.terms, (kind, i, j)
        assert len(got.terms) == j - i + 1, (kind, i, j)


@pytest.mark.parametrize("shape", SHAPES)
def test_antipode_of_every_root_vector(shape):
    alg, ref = Algebra(shape), RecursiveAlgebra(shape)
    for (i, j), kind in itertools.product(_roots(alg), "EF"):
        got = Hopf(alg).antipode_atom((kind, i, j, 1))
        want = ref.apply_hom(ref.gen(kind, i, j), functools.partial(antipode_simple, ref),
                             anti=True)
        assert got.terms == want.terms, (kind, i, j)
        assert len(got.terms) == 2 ** (j - i - 1), (kind, i, j)


@pytest.mark.parametrize("shape", [s for s in SHAPES if s[0] + s[1] >= 3])
def test_braid_image_of_every_root_vector(shape):
    alg, ref = Algebra(shape), RecursiveAlgebra(shape)
    for node, inverse in itertools.product(even_nodes(alg.shape), (False, True)):
        simple = functools.partial(braid_simple, ref, node, inverse=inverse)
        for (i, j), kind in itertools.product(_roots(alg), "EF"):
            got = braid._braid_image(alg, node, (kind, i, j, 1), inverse)
            want = ref.apply_hom(ref.gen(kind, i, j), simple)
            assert got.terms == want.terms, (node, inverse, kind, i, j)
            assert 1 <= len(got.terms) <= 2, (node, inverse, kind, i, j)


def test_generator_maps_build_no_composite_by_recursion(monkeypatch):
    # the maps take every composite root vector's image as written down; a
    # module action still builds it by the defining recursion
    alg = Algebra((3, 2))
    hopf = Hopf(alg)
    x = alg.gen("E", 1, 5) * alg.gen("F", 1, 3) ** 2 * alg.gen("E", 2, 4)
    assert x

    def refused(*args):
        raise AssertionError("a composite image was built by its recursion")

    monkeypatch.setattr(Algebra, "_composite_step", refused)
    for f in (hopf.delta, hopf.antipode, functools.partial(braid.braid_t, alg, 1),
              functools.partial(braid.braid_t_inv, alg, 4)):
        assert f(x)


def test_each_root_image_is_asked_once_per_call(monkeypatch):
    # apply_hom asks a map's closed form once per distinct composite atom
    # and call, and never for a simple generator or a torus atom
    alg = Algebra((3, 1))
    hopf = Hopf(alg)
    x = alg.gen("E", 1, 3) ** 3 * alg.gen("F", 2, 4) * alg.gen("E", 1, 3) * alg.gen("F", 1, 4)
    asked = []
    real = Algebra.apply_hom

    def spy(self, elt, image, anti=False, roots=None):
        seen = []
        asked.append(seen)
        return real(self, elt, image, anti=anti, roots=lambda atom: seen.append(atom) or roots(atom))

    monkeypatch.setattr(Algebra, "apply_hom", spy)
    for f in (hopf.delta, hopf.antipode, functools.partial(braid.braid_t, alg, 2)):
        del asked[:]
        assert f(x)
        (seen,) = asked
        assert seen and len(seen) == len(set(seen)), (f, seen)
        assert all(a[0] != "K" and a[2] > a[1] + 1 and a[3] == 1 for a in seen), seen
