"""Hopf superalgebra layer: coproduct, counit, antipode, and the
triangularity of coproducts of raising-operator words."""

import itertools
import operator
import random
import time

import pytest

from qgl import relations
from qgl.braid import braid_t, braid_t_inv
from qgl.hopf import Hopf, TensorElement, TensorSquareView
from qgl.pbwcore import Algebra, Element
from qgl.scalars import RF_ONE, RF_ZERO, RatFunc

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def simple_gens(alg):
    out = []
    for i in range(1, alg.shape.rank):
        out.append(alg.gen("E", i, i + 1))
        out.append(alg.gen("F", i, i + 1))
    mu = [0] * alg.shape.rank
    mu[0] = 1
    out.append(alg.k_mono(tuple(mu)))
    return out


# -- generator values -------------------------------------------------------


def test_delta_on_generators():
    alg = Algebra((2, 1))
    h = Hopf(alg)
    for i in (1, 2):
        e = alg.gen("E", i, i + 1)
        want = TensorElement.from_pair(e, alg.k_alpha(i)) + TensorElement.from_pair(
            alg.one(), e
        )
        assert h.delta(e) == want
        f = alg.gen("F", i, i + 1)
        want = TensorElement.from_pair(f, alg.one()) + TensorElement.from_pair(
            alg.k_alpha(i, -1), f
        )
        assert h.delta(f) == want
    k = alg.k_mono((2, -1, 0))
    assert h.delta(k) == TensorElement.from_pair(k, k)


def test_counit_values():
    alg = Algebra((2, 1))
    h = Hopf(alg)
    assert h.counit(alg.gen("E", 1, 2)) == RF_ZERO
    assert h.counit(alg.gen("F", 2, 3)) == RF_ZERO
    assert h.counit(alg.k_mono((1, -2, 3))) == RF_ONE
    assert h.counit(alg.one().scale(RatFunc.q_power(2))) == RatFunc.q_power(2)


def test_antipode_on_generators():
    alg = Algebra((2, 1))
    h = Hopf(alg)
    for i in (1, 2):
        e = alg.gen("E", i, i + 1)
        assert h.antipode(e) == -(e * alg.k_alpha(i, -1))
        f = alg.gen("F", i, i + 1)
        assert h.antipode(f) == -(alg.k_alpha(i) * f)
    k = alg.k_mono((1, 0, -2))
    assert h.antipode(k) == alg.k_mono((-1, 0, 2))


# -- algebra-map properties -------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_delta_respects_presentation(shape):
    alg = Algebra(shape)
    view = TensorSquareView(Hopf(alg))
    for name, el in relations.all_relations(view):
        assert el.is_zero(), "coproduct breaks %s on %s" % (name, shape)


def test_delta_multiplicative_on_random_monomials():
    rng = random.Random(414)
    alg = Algebra((2, 1))
    h = Hopf(alg)
    gens = [alg.gen(k, i, j) for k in ("E", "F") for (i, j) in list(alg.shape.I0) + list(alg.shape.I1)]
    gens.append(alg.k_mono((1, -1, 1)))
    for _ in range(25):
        x, y = rng.choice(gens), rng.choice(gens)
        assert h.delta(x * y) == h.delta(x) * h.delta(y)


def test_tensor_sign_rule():
    alg = Algebra((1, 1))
    e, f = alg.gen("E", 1, 2), alg.gen("F", 1, 2)
    # (1 (x) e)(f (x) 1) = -(f (x) e): both crossing factors are odd
    a = TensorElement.from_pair(alg.one(), e)
    b = TensorElement.from_pair(f, alg.one())
    assert a * b == TensorElement.from_pair(f, e).scale(-1)
    # and without odd crossing there is no sign
    assert b * a == TensorElement.from_pair(f, e)


def test_elements_and_tensor_elements_do_not_mix():
    # a sum of the two would be keyed partly by monomials and partly by
    # monomial pairs, and their product cannot be formed
    alg = Algebra((1, 1))
    e = alg.gen("E", 1, 2)
    d = Hopf(alg).delta(e)
    for x, y in ((e, d), (d, e)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, y)
    assert alg.zero() != TensorElement.zero(alg)
    assert TensorElement.zero(alg) != alg.zero()


# -- coalgebra axioms -------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_coassociativity(shape):
    alg = Algebra(shape)
    h = Hopf(alg)
    for g in simple_gens(alg):
        d = h.delta(g)
        assert h.delta_slot(d, 0) == h.delta_slot(d, 1)
    # also on a few products
    rng = random.Random(3)
    gens = simple_gens(alg)
    for _ in range(8):
        x = rng.choice(gens) * rng.choice(gens)
        d = h.delta(x)
        assert h.delta_slot(d, 0) == h.delta_slot(d, 1)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_counit_axiom(shape):
    alg = Algebra(shape)
    h = Hopf(alg)
    for g in simple_gens(alg):
        d = h.delta(g)
        left, right = alg.zero(), alg.zero()
        for (a, b), c in d.terms.items():
            left = left + Element(alg, {b: c}).scale(h.counit(Element(alg, {a: RF_ONE})))
            right = right + Element(alg, {a: c}).scale(h.counit(Element(alg, {b: RF_ONE})))
        assert left == g and right == g


@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_antipode_axiom(shape):
    alg = Algebra(shape)
    h = Hopf(alg)
    for g in simple_gens(alg):
        want = alg.one().scale(h.counit(g))
        d = h.delta(g)
        assert d.map_slot(h.antipode, 0).multiply_out() == want
        assert d.map_slot(h.antipode, 1).multiply_out() == want


def test_antipode_graded_anti_homomorphism():
    alg = Algebra((2, 1))
    h = Hopf(alg)
    pairs = [
        (alg.gen("E", 1, 2), alg.gen("F", 1, 2)),
        (alg.gen("E", 1, 3), alg.gen("E", 2, 3)),  # both odd: sign -1
        (alg.gen("F", 2, 3), alg.gen("E", 1, 3)),
        (alg.gen("E", 1, 2), alg.gen("E", 1, 3)),
    ]
    for x, y in pairs:
        sgn = -1 if (x.parity() and y.parity()) else 1
        assert h.antipode(x * y) == (h.antipode(y) * h.antipode(x)).scale(RF_ONE * sgn)


def test_composite_powers_under_every_generator_map():
    # X^14 of the even composite root vector X = E[1,3] of gl(3|1) goes
    # through every generator map as 14 factors X: expanded into words of
    # simple generators first, it would be 2^14 words (S took 148 s).  The
    # right-hand sides are 14 repeated products of the many-term images.
    alg = Algebra((3, 1))
    h = Hopf(alg)
    x = alg.gen("E", 1, 3)
    start = time.perf_counter()

    def fourteenth(value, one):
        out = one
        for _ in range(14):
            out = out * value
        return out

    power = fourteenth(x, alg.one())
    assert h.antipode(power) == fourteenth(h.antipode(x), alg.one())
    assert h.delta(power) == fourteenth(h.delta(x), TensorElement.one(alg))
    for op in (braid_t, braid_t_inv):
        assert op(alg, 1, power) == fourteenth(op(alg, 1, x), alg.one()), op.__name__
    assert power.psi() == fourteenth(x.psi(), alg.one())
    assert time.perf_counter() - start < 10


# -- divided-power coproducts -----------------------------------------------


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
def test_divided_power_coproducts(shape):
    alg = Algebra(shape)
    h = Hopf(alg)
    from qgl.scalars import gauss_binomial

    for i in range(1, alg.shape.rank):
        if i == alg.shape.m:
            continue
        for N in (2, 3):
            lhs = h.delta(alg.divided_power("E", i, i + 1, N))
            rhs = TensorElement.zero(alg)
            for j in range(N + 1):
                left = alg.divided_power("E", i, i + 1, j)
                right = alg.k_alpha(i) ** j * alg.divided_power("E", i, i + 1, N - j)
                rhs = rhs + TensorElement.from_pair(left, right).scale(
                    alg.qi(i, -j * (N - j))
                )
            assert lhs == rhs, ("E", i, N)
            # note the torus power pairs with the right-hand divided power:
            # delta(F^(N)) = sum_j q_i^{j(N-j)} F^(j) K^{-(N-j)} (x) F^(N-j)
            # (the N=1 case forces this: delta(F) = F (x) 1 + K^-1 (x) F)
            lhs = h.delta(alg.divided_power("F", i, i + 1, N))
            rhs = TensorElement.zero(alg)
            for j in range(N + 1):
                left = alg.divided_power("F", i, i + 1, j) * alg.k_alpha(i, -(N - j))
                right = alg.divided_power("F", i, i + 1, N - j)
                rhs = rhs + TensorElement.from_pair(left, right).scale(
                    alg.qi(i, j * (N - j))
                )
            assert lhs == rhs, ("F", i, N)


# -- triangularity ----------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_coproduct_triangularity(shape):
    # expanding delta(E_{i1} ... E_{ik}), the terms with a pure torus right
    # factor reproduce exactly the word itself tensored with K of its weight
    alg = Algebra(shape)
    h = Hopf(alg)
    u = alg.unit_monomial()
    r = alg.shape.rank
    for length in (1, 2, 3, 4):
        for seq in itertools.product(range(1, r), repeat=length):
            word = alg.one()
            kvec = [0] * r
            for i in seq:
                word = word * alg.gen("E", i, i + 1)
                for t, v in enumerate(alg.shape.k_alpha_vector(i)):
                    kvec[t] += v
            if word.is_zero():
                continue
            d = h.delta(word)
            filtered = {}
            for (a, b), c in d.terms.items():
                if (b.fd, b.fpsi, b.epsi, b.ed) == (u.fd, u.fpsi, u.epsi, u.ed):
                    filtered[(a, b)] = c
            want = TensorElement.from_pair(word, alg.k_mono(tuple(kvec)))
            assert TensorElement(alg, filtered) == want, seq


# -- compatibility with the E/F exchange map --------------------------------


def test_delta_omega_compatibility():
    # Omega-bar(delta(x)) = delta(Omega(x)) with
    # Omega-bar(a (x) b) = Omega(b) (x) Omega(a)
    alg = Algebra((2, 1))
    h = Hopf(alg)
    rng = random.Random(8)
    gens = [alg.gen(k, i, j) for k in ("E", "F") for (i, j) in list(alg.shape.I0) + list(alg.shape.I1)]
    for _ in range(12):
        x = rng.choice(gens) * rng.choice(gens)
        d = h.delta(x)
        flipped = {}
        for (a, b), c in d.terms.items():
            ea = Element(alg, {a: RF_ONE}).omega()
            eb = Element(alg, {b: RF_ONE}).omega()
            for k2, v2 in eb.terms.items():
                for k1, v1 in ea.terms.items():
                    key = (k2, k1)
                    s = flipped.get(key, RF_ZERO) + c.bar() * v1 * v2
                    flipped[key] = s
        assert TensorElement(alg, flipped) == h.delta(x.omega())
