"""Hopf superalgebra layer: coproduct, counit, antipode, and the
triangularity of coproducts of raising-operator words."""

import collections
import itertools
import operator
import random
import time

import pytest

from qgl import relations, repmod
from qgl.braid import braid_t, braid_t_inv
from qgl.hopf import Hopf, TensorElement
from qgl.linalg import columns, mat_mul
from qgl.pbwcore import Algebra, Element, PBWMonomial
from qgl.scalars import RF_ONE, RF_ZERO, RatFunc

from scalar_oracles import gauss_binomial
from test_pbwcore import element_parity
from views import TensorSquareView, delta_slot, map_slot, multiply_out, tensor_pair

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
        want = tensor_pair(e, alg.k_alpha(i)) + tensor_pair(
            alg.one(), e
        )
        assert h.delta(e) == want
        f = alg.gen("F", i, i + 1)
        want = tensor_pair(f, alg.one()) + tensor_pair(
            alg.k_alpha(i, -1), f
        )
        assert h.delta(f) == want
    k = alg.k_mono((2, -1, 0))
    assert h.delta(k) == tensor_pair(k, k)


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
    a = tensor_pair(alg.one(), e)
    b = tensor_pair(f, alg.one())
    assert a * b == tensor_pair(f, e).scale(-1)
    # and without odd crossing there is no sign
    assert b * a == tensor_pair(f, e)


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
    assert alg.zero() != TensorElement(alg, {})
    assert TensorElement(alg, {}) != alg.zero()


# -- coalgebra axioms -------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_coassociativity(shape):
    alg = Algebra(shape)
    h = Hopf(alg)
    for g in simple_gens(alg):
        d = h.delta(g)
        assert delta_slot(h, d, 0) == delta_slot(h, d, 1)
    # also on a few products
    rng = random.Random(3)
    gens = simple_gens(alg)
    for _ in range(8):
        x = rng.choice(gens) * rng.choice(gens)
        d = h.delta(x)
        assert delta_slot(h, d, 0) == delta_slot(h, d, 1)


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
        assert multiply_out(map_slot(d, h.antipode, 0)) == want
        assert multiply_out(map_slot(d, h.antipode, 1)) == want


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
        sgn = -1 if (element_parity(x) and element_parity(y)) else 1
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
    assert time.perf_counter() - start < 10


# -- one image per atom -------------------------------------------------------


def _random_monomials(alg, rng, count):
    """Monomials of up to three root-vector atoms, composite ones and powers
    X^2 of even ones among them, and a torus part in [-1,1]^rank."""
    u = alg.unit_monomial()
    slots = [(f, x) for f in (0, 1, 3, 4) for x in range(len(u[f]))]
    out = []
    for _ in range(count):
        blocks = [list(b) for b in u]
        for f, x in rng.sample(slots, 3):
            blocks[f][x] = 1 if f in (0, 4) else rng.randint(1, 2)
        blocks[2] = [rng.randint(-1, 1) for _ in u.k]
        out.append(PBWMonomial._make(map(tuple, blocks)))
    return out


def _atom_element(alg, atom):
    return alg.k_mono(atom[1]) if atom[0] == "K" else alg.gen(*atom[:3])


def _word_by_word(alg, f, key, anti):
    """f of a monomial from f of each simple generator of each word of
    ``expand_monomial``: the reference the generator-map extension must
    reproduce (a graded anti-map reverses the words, with the super sign
    of their odd generators)."""
    acc = None
    for c, word in alg.expand_monomial(key):
        odd = sum(1 for a in word if a[0] != "K" and alg.shape.parity(a[1], a[2]))
        if anti and (odd * (odd - 1) // 2) % 2:
            c = -c
        val = f(alg.one())
        for atom in reversed(word) if anti else word:
            val = val * f(_atom_element(alg, atom))
        val = val * c
        acc = val if acc is None else acc + val
    return acc


@pytest.fixture
def image_calls(monkeypatch):
    """The atoms each apply_hom call asks its image for, one Counter a call."""
    calls = []
    real = Algebra.apply_hom

    def spy(self, elt, image, **kw):
        seen = collections.Counter()
        calls.append(seen)

        def counted(atom):
            seen[atom] += 1
            return image(atom)

        return real(self, elt, counted, **kw)

    monkeypatch.setattr(Algebra, "apply_hom", spy)
    return calls


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (1, 3)])
def test_generator_maps_ask_each_image_once_and_match_the_words(shape, image_calls):
    alg = Algebra(shape)
    h = Hopf(alg)
    node = next(i for i in range(1, alg.shape.rank) if i != alg.shape.m)
    maps = [
        ("delta", h.delta, False),
        ("antipode", h.antipode, True),
        ("braid", lambda x: braid_t(alg, node, x), False),
        ("braid_inv", lambda x: braid_t_inv(alg, node, x), False),
    ]
    rng = random.Random(23)
    keys = _random_monomials(alg, rng, 6)
    assert any(a[0] != "K" and a[2] > a[1] + 1 for key in keys for a in alg.mono_word(key))
    assert any(a[0] != "K" and a[3] > 1 for key in keys for a in alg.mono_word(key))
    for name, f, anti in maps:
        for key in keys:
            coeff = RatFunc.q_power(rng.randint(-2, 2)) + rng.randint(1, 3)
            elt = Element(alg, {key: coeff})
            del image_calls[:]
            got = f(elt)
            asked = image_calls[0]
            assert max(asked.values()) == 1, (name, key, asked)
            assert all(a[0] == "K" or (a[2] == a[1] + 1 and a[3] == 1) for a in asked), asked
            # a word's product starts from its first factor: no unit is asked
            if key != alg.unit_monomial():
                assert ("K", (0,) * alg.shape.rank) not in asked, (name, key)
            want = _word_by_word(alg, f, key, anti) * coeff
            assert got == want, (name, key)


def test_module_actions_ask_each_image_once_and_match_the_words(image_calls):
    # K(1,0,0,0) of gl(3|1), dimension 24, has the composite even root
    # vectors E[1,3] and F[1,3]; an action is the operator that apply_hom
    # builds from the atoms' matrices, each composite once by its defining
    # recursion, times the given columns
    alg = Algebra((3, 1))
    mod = repmod.kac_module(alg, (1, 0, 0, 0))

    def matrix(atom):
        if atom[0] == "K":
            return [[(r, mod.q_weight(atom[1], wt))] for r, wt in enumerate(mod.eps_weights)]
        return mod.matrix_of_atom(atom)

    for key in _random_monomials(alg, random.Random(5), 8):
        want = []
        for c, word in alg.expand_monomial(key):
            cols = mod.identity()
            for atom in reversed(word):
                cols = mat_mul(matrix(atom), cols)
            want += [(r, col, x * c) for col, entries in enumerate(cols) for r, x in entries]
        del image_calls[:]
        got = mod.act_element(Element(alg, {key: RF_ONE}), mod.identity())
        assert max(image_calls[0].values(), default=1) == 1, key
        assert got == columns(want, mod.dim), key
    # a module power has no power budget: X^n acts as n factors
    for x in (alg.gen("E", 1, 3), alg.gen("F", 1, 2)):
        assert not any(mod.act_element(x ** 300, mod.identity()))


# -- divided-power coproducts -----------------------------------------------


@pytest.mark.parametrize("shape", [(2, 1), (1, 2)])
def test_divided_power_coproducts(shape):
    alg = Algebra(shape)
    h = Hopf(alg)

    for i in range(1, alg.shape.rank):
        if i == alg.shape.m:
            continue
        for N in (2, 3):
            lhs = h.delta(alg.divided_power("E", i, i + 1, N))
            rhs = TensorElement(alg, {})
            for j in range(N + 1):
                left = alg.divided_power("E", i, i + 1, j)
                right = alg.k_alpha(i) ** j * alg.divided_power("E", i, i + 1, N - j)
                rhs = rhs + tensor_pair(left, right).scale(
                    alg.qi(i, -j * (N - j))
                )
            assert lhs == rhs, ("E", i, N)
            # note the torus power pairs with the right-hand divided power:
            # delta(F^(N)) = sum_j q_i^{j(N-j)} F^(j) K^{-(N-j)} (x) F^(N-j)
            # (the N=1 case forces this: delta(F) = F (x) 1 + K^-1 (x) F)
            lhs = h.delta(alg.divided_power("F", i, i + 1, N))
            rhs = TensorElement(alg, {})
            for j in range(N + 1):
                left = alg.divided_power("F", i, i + 1, j) * alg.k_alpha(i, -(N - j))
                right = alg.divided_power("F", i, i + 1, N - j)
                rhs = rhs + tensor_pair(left, right).scale(
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
            want = tensor_pair(word, alg.k_mono(tuple(kvec)))
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
