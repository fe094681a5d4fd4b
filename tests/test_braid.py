"""Braid operators: automorphism property, inverses, compatibility with the
E/F exchange, braid-group relations, and composite root vector chains."""

import pytest

from qgl import relations
from qgl.braid import braid_t, braid_t_inv
from qgl.errors import BraidAtOddNode
from qgl.pbwcore import Algebra

from views import BraidView, root_vector_via_braid


def gen_list(alg, with_k=True):
    sh = alg.shape
    out = [alg.gen(k, i, j) for k in ("E", "F") for (i, j) in list(sh.I0) + list(sh.I1)]
    if with_k:
        mu = [0] * sh.rank
        mu[0], mu[-1] = 1, -1
        out.append(alg.k_mono(tuple(mu)))
    return out


def even_nodes(sh):
    return [i for i in range(1, sh.rank) if i != sh.m]


def test_odd_node_rejected():
    alg = Algebra((2, 2))
    with pytest.raises(BraidAtOddNode):
        braid_t(alg, 2, alg.one())
    with pytest.raises(BraidAtOddNode):
        braid_t_inv(alg, 4, alg.one())


def test_generator_images():
    alg = Algebra((2, 1))
    i = 1
    e, f = alg.gen("E", 1, 2), alg.gen("F", 1, 2)
    assert braid_t(alg, i, e) == -(f * alg.k_alpha(1))
    assert braid_t(alg, i, f) == -(alg.k_alpha(1, -1) * e)
    assert braid_t(alg, i, alg.k_mono((2, 5, 1))) == alg.k_mono((5, 2, 1))
    # node at distance 1 from the odd generator
    e2 = alg.gen("E", 2, 3)
    want = -(e * e2) + (e2 * e).scale(alg.qi(1, -1))
    assert braid_t(alg, i, e2) == want


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
def test_braid_preserves_relations(shape):
    alg = Algebra(shape)
    for i in even_nodes(alg.shape):
        for inverse in (False, True):
            view = BraidView(alg, i, inverse=inverse)
            for name, el in relations.all_relations(view):
                assert el.is_zero(), (shape, i, inverse, name)


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
def test_braid_inverse(shape):
    alg = Algebra(shape)
    for i in even_nodes(alg.shape):
        for g in gen_list(alg):
            assert braid_t_inv(alg, i, braid_t(alg, i, g)) == g
            assert braid_t(alg, i, braid_t_inv(alg, i, g)) == g


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)])
def test_braid_commutes_with_omega(shape):
    alg = Algebra(shape)
    for i in even_nodes(alg.shape):
        for g in gen_list(alg):
            assert braid_t(alg, i, g).omega() == braid_t(alg, i, g.omega())


def test_braid_group_relations():
    # adjacent even nodes satisfy the braid relation, distant ones commute
    alg = Algebra((3, 1))
    gens = gen_list(alg)

    def t(i, x):
        return braid_t(alg, i, x)

    for g in gens:
        assert t(1, t(2, t(1, g))) == t(2, t(1, t(2, g)))
    alg2 = Algebra((4, 1))
    for g in gen_list(alg2):
        assert braid_t(alg2, 1, braid_t(alg2, 3, g)) == braid_t(
            alg2, 3, braid_t(alg2, 1, g)
        )


@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_composite_root_vectors_via_chains(shape):
    alg = Algebra(shape)
    sh = alg.shape
    for (i, j) in list(sh.I0) + list(sh.I1):
        for kind in ("E", "F"):
            assert root_vector_via_braid(alg, kind, i, j) == alg.gen(kind, i, j), (
                kind,
                i,
                j,
            )


def test_braid_is_even():
    # no super sign: images of products of odd generators match the
    # homomorphic extension directly
    alg = Algebra((2, 2))
    x = alg.gen("E", 1, 3) * alg.gen("E", 2, 4)
    for i in even_nodes(alg.shape):
        lhs = braid_t(alg, i, x)
        rhs = braid_t(alg, i, alg.gen("E", 1, 3)) * braid_t(alg, i, alg.gen("E", 2, 4))
        assert lhs == rhs
