"""Acceptance battery: twelve exact criteria, one pass/fail line each.

Each criterion prints "[criterion N] PASS|FAIL — summary" so the run log
shows the verdict per item; every check is exact (no tolerances).
"""

import itertools
import random

import pytest

from qgl import relations, repmod, rootofunity as ru
from qgl.braid import braid_t, braid_t_inv
from qgl.hopf import Hopf, TensorElement
from qgl.linalg import rref
from qgl.pbwcore import Algebra, Element, PBWMonomial
from qgl.rootdata import Shape, in_Xplus, is_typical, weyl_dim_even
from qgl.scalars import RF_ONE, RF_ZERO, RatFunc
from structure_checks import frobenius_character_check, frobenius_vanishing_check, restricted_checks
from verma_oracle import VermaOracle
from views import (
    BraidView, TensorSquareView, delta_slot, map_slot, multiply_out, root_vector_via_braid,
    tensor_pair, verify_module,
)


def _verdict(num, summary):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print("\n[criterion %d] FAIL — %s" % (num, summary))
                raise
            print("\n[criterion %d] PASS — %s" % (num, summary))

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


RELATION_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]


@_verdict(1, "defining and higher relations straighten to zero on 5 shapes")
def test_criterion_01_relation_suite():
    for shape in RELATION_SHAPES:
        alg = Algebra(shape)
        for name, el in relations.all_relations(alg):
            assert el.is_zero(), (shape, name)


def _random_monomial(alg, rng, max_deg):
    u = alg.unit_monomial()
    budget = rng.randint(0, max_deg)
    fd = [0] * len(u.fd)
    fpsi = [0] * len(u.fpsi)
    epsi = [0] * len(u.epsi)
    ed = [0] * len(u.ed)
    pools = [(fd, 1), (fpsi, 3), (epsi, 3), (ed, 1)]
    while budget > 0:
        vec, cap = rng.choice(pools)
        if not vec:
            continue
        idx = rng.randrange(len(vec))
        if vec[idx] < cap:
            vec[idx] += 1
        budget -= 1
    k = tuple(rng.randint(-1, 1) for _ in range(alg.shape.rank))
    return Element(
        alg, {PBWMonomial(tuple(fd), tuple(fpsi), k, tuple(epsi), tuple(ed)): RF_ONE}
    )


@_verdict(2, "associativity on 200 random monomial triples per shape, degree <= 6")
def test_criterion_02_associativity_fuzz():
    for shape in RELATION_SHAPES:
        alg = Algebra(shape)
        rng = random.Random(hash(shape) & 0xFFFF)
        for _ in range(200):
            a = _random_monomial(alg, rng, 2)
            b = _random_monomial(alg, rng, 2)
            c = _random_monomial(alg, rng, 2)
            assert (a * b) * c == a * (b * c), shape


def _dp(alg, kind, i, j, n):
    return alg.divided_power(kind, i, j, n)


def _valid_power(alg, i, j, n):
    return n <= 1 or not alg.shape.parity(i, j)


@_verdict(3, "divided-power identities and the quantum Kac formula, m+n <= 4, powers <= 3")
def test_criterion_03_divided_power_identities():
    shapes = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    for shape in shapes:
        alg = Algebra(shape)
        r = alg.shape.rank
        for i in range(1, r + 1):
            for c in range(i + 1, r + 1):
                for j in range(c + 1, r + 1):
                    qc = alg.shape.eps_sign(c)
                    for N in (1, 2, 3):
                        # (1) and (3): two-sided expansions of the composite
                        if _valid_power(alg, i, j, N) and _valid_power(alg, i, c, N) and _valid_power(alg, c, j, N):
                            lhs = _dp(alg, "E", i, j, N)
                            rhs1 = alg.zero()
                            rhs3 = alg.zero()
                            for k in range(N + 1):
                                t1 = (
                                    _dp(alg, "E", c, j, k)
                                    * _dp(alg, "E", i, c, N)
                                    * _dp(alg, "E", c, j, N - k)
                                )
                                rhs1 = rhs1 + t1.scale(RatFunc.q_power(-qc * k) * (-1) ** k)
                                t3 = (
                                    _dp(alg, "E", i, c, N - k)
                                    * _dp(alg, "E", c, j, N)
                                    * _dp(alg, "E", i, c, k)
                                )
                                rhs3 = rhs3 + t3.scale(RatFunc.q_power(-qc * k) * (-1) ** k)
                            assert lhs == rhs1, ("8.1(1)", shape, i, c, j, N)
                            assert lhs == rhs3, ("8.1(3)", shape, i, c, j, N)
                        for M in (1, 2, 3):
                            # (2): the braid-like exchange
                            if (
                                _valid_power(alg, i, c, max(M, N, M + N))
                                and _valid_power(alg, c, j, max(M, N, M + N))
                            ):
                                lhs = (
                                    _dp(alg, "E", i, c, M)
                                    * _dp(alg, "E", c, j, M + N)
                                    * _dp(alg, "E", i, c, N)
                                )
                                rhs = (
                                    _dp(alg, "E", c, j, N)
                                    * _dp(alg, "E", i, c, M + N)
                                    * _dp(alg, "E", c, j, M)
                                )
                                assert lhs == rhs, ("8.1(2)", shape, i, c, j, N, M)
                            # (4): straightening with composite correction terms
                            if _valid_power(alg, c, j, N) and _valid_power(alg, i, c, M):
                                lhs = _dp(alg, "E", c, j, N) * _dp(alg, "E", i, c, M)
                                rhs = alg.zero()
                                for k in range(min(N, M) + 1):
                                    if not _valid_power(alg, i, j, k):
                                        continue
                                    term = (
                                        _dp(alg, "E", i, c, M - k)
                                        * _dp(alg, "E", i, j, k)
                                        * _dp(alg, "E", c, j, N - k)
                                    )
                                    rhs = rhs + term.scale(
                                        RatFunc.q_power(qc * (k + (N - k) * (M - k)))
                                        * (-1) ** k
                                    )
                                assert lhs == rhs, ("8.1(4)", shape, i, c, j, N, M)
        # (5): the interleaving super-bracket, i < s < j < t
        for i in range(1, r + 1):
            for s in range(i + 1, r + 1):
                for j in range(s + 1, r + 1):
                    for t in range(j + 1, r + 1):
                        x = alg.gen("E", i, j)
                        y = alg.gen("E", s, t)
                        sgn = (
                            -1
                            if alg.shape.parity(i, j) and alg.shape.parity(s, t)
                            else 1
                        )
                        lhs = x * y - (y * x).scale(sgn)
                        rhs = (alg.gen("E", i, t) * alg.gen("E", s, j)).scale(
                            alg.qi(j, 1) - alg.qi(j, -1)
                        )
                        assert lhs == rhs, ("8.1(5)", shape, i, s, j, t)
        # (e7): the quantum Kac commutation formula on every simple node
        for i in range(1, r):
            cap = 1 if i == alg.shape.m else 3
            for N in range(1, cap + 1):
                for M in range(1, cap + 1):
                    lhs = _dp(alg, "E", i, i + 1, N) * _dp(alg, "F", i, i + 1, M)
                    rhs = alg.zero()
                    for t in range(min(M, N) + 1):
                        sgn = (
                            -1
                            if (i == alg.shape.m and (N * M * (t - 1)) % 2)
                            else 1
                        )
                        term = (
                            _dp(alg, "F", i, i + 1, M - t)
                            * alg.kbracket_element(i, 2 * t - N - M, t)
                            * _dp(alg, "E", i, i + 1, N - t)
                        )
                        rhs = rhs + term.scale(RF_ONE * sgn)
                    assert lhs == rhs, ("e7", shape, i, N, M)
        # (h1)/(h2): bracket elements pass divided powers with a shifted c
        for i in range(1, r + 1):
            for j in range(1, r):
                a = alg.shape.cartan_entry(i, j)
                lcap = 1 if j == alg.shape.m else 3
                for l in (1, lcap):
                    for cc in (-1, 0, 2):
                        for t in (1, 2):
                            br = alg.kbracket_element(i, cc, t)
                            e = _dp(alg, "E", j, j + 1, l)
                            f = _dp(alg, "F", j, j + 1, l)
                            assert br * e == e * alg.kbracket_element(i, cc + l * a, t)
                            assert br * f == f * alg.kbracket_element(i, cc - l * a, t)


@_verdict(4, "free-word Verma oracle multiplicativity, 100 pairs, depth 4")
def test_criterion_04_verma_oracle():
    for shape, lam in [((1, 1), (2, -1)), ((2, 1), (3, 1, 0))]:
        alg = Algebra(shape)
        vo = VermaOracle(alg, lam, depth=4)
        rng = random.Random(2024)
        gens = []
        for i in range(1, alg.shape.rank):
            gens += [alg.gen("E", i, i + 1), alg.gen("F", i, i + 1)]
        mu = [0] * alg.shape.rank
        mu[0] = 1
        gens.append(alg.k_mono(tuple(mu)))
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
            diff = dict(lhs)
            for w, cf in rhs.items():
                s = diff.get(w, RF_ZERO) - cf
                if s.is_zero():
                    diff.pop(w, None)
                else:
                    diff[w] = s
            assert (not diff) or vo.vanishes_mod_relations(diff), shape


@_verdict(5, "Hopf structure: relations, coassociativity, counit/antipode axioms, triangularity")
def test_criterion_05_hopf():
    for shape in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        alg = Algebra(shape)
        h = Hopf(alg)
        view = TensorSquareView(h)
        for name, el in relations.all_relations(view):
            assert el.is_zero(), (shape, name)
        gens = []
        for i in range(1, alg.shape.rank):
            gens += [alg.gen("E", i, i + 1), alg.gen("F", i, i + 1)]
        mu = [0] * alg.shape.rank
        mu[0] = 1
        gens.append(alg.k_mono(tuple(mu)))
        for g in gens:
            d = h.delta(g)
            assert delta_slot(h, d, 0) == delta_slot(h, d, 1), shape
            left = alg.zero()
            for (a, b), cf in d.terms.items():
                left = left + Element(alg, {b: cf}).scale(
                    h.counit(Element(alg, {a: RF_ONE}))
                )
            assert left == g, shape
            want = alg.one().scale(h.counit(g))
            assert multiply_out(map_slot(d, h.antipode, 0)) == want, shape
            assert multiply_out(map_slot(d, h.antipode, 1)) == want, shape
    # triangularity of coproducts of raising words, length <= 4
    for shape in [(1, 1), (2, 1), (2, 2)]:
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
                for (a, b), cf in d.terms.items():
                    if (b.fd, b.fpsi, b.epsi, b.ed) == (u.fd, u.fpsi, u.epsi, u.ed):
                        filtered[(a, b)] = cf
                want = tensor_pair(word, alg.k_mono(tuple(kvec)))
                assert TensorElement(alg, filtered) == want, (shape, seq)


@_verdict(6, "braid operators: relations, inverses, exchange compatibility, root-vector chains")
def test_criterion_06_braid():
    for shape in [(2, 1), (2, 2), (3, 1)]:
        alg = Algebra(shape)
        evens = [i for i in range(1, alg.shape.rank) if i != alg.shape.m]
        gens = [
            alg.gen(k, i, j)
            for k in ("E", "F")
            for (i, j) in list(alg.shape.I0) + list(alg.shape.I1)
        ]
        for i in evens:
            for name, el in relations.all_relations(BraidView(alg, i)):
                assert el.is_zero(), (shape, i, name)
            for g in gens:
                assert braid_t_inv(alg, i, braid_t(alg, i, g)) == g, (shape, i)
                assert braid_t(alg, i, g).omega() == braid_t(alg, i, g.omega()), (shape, i)
    for shape in [(2, 2), (3, 1)]:
        alg = Algebra(shape)
        for (i, j) in list(alg.shape.I0) + list(alg.shape.I1):
            for kind in ("E", "F"):
                assert root_vector_via_braid(alg, kind, i, j) == alg.gen(kind, i, j)


@_verdict(7, "PBW monomial independence in typical Kac modules")
def test_criterion_07_pbw_independence():
    for shape, lam in [((2, 1), (6, 3, 0)), ((2, 2), (9, 6, 3, 0))]:
        alg = Algebra(shape)
        assert is_typical(alg.shape, lam)
        mod = repmod.kac_module(alg, lam)
        vecs = []
        n1, n0 = len(alg.f1_list), len(alg.f0_list)
        for d in itertools.product((0, 1), repeat=n1):
            for psi in itertools.product(range(3), repeat=n0):
                if sum(psi) > 2:
                    continue
                el = alg.monomial(fd=d, fpsi=psi)
                (col,) = mod.act_element(el, [[(mod.top, mod.field.one)]])
                vecs.append(col)
        assert len(rref(vecs)[1]) == len(vecs), shape


@_verdict(8, "Kac dimension law dim K = 2^{mn} dim L0 on a 10+ weight grid")
def test_criterion_08_kac_dimension():
    grids = {
        (1, 1): 6,
        (2, 1): 4,
        (1, 2): 4,
        (2, 2): 2,
    }
    total = 0
    for shape, count in grids.items():
        alg = Algebra(shape)
        r = alg.shape.rank
        lams = [
            lam
            for lam in itertools.product(range(2, -2, -1), repeat=r)
            if in_Xplus(alg.shape, lam)
        ][:count]
        for lam in lams:
            mod = repmod.kac_module(alg, lam)
            want = 2 ** (alg.shape.m * alg.shape.n) * weyl_dim_even(alg.shape, lam)
            assert mod.dim == want, (shape, lam)
            assert verify_module(mod) == [], (shape, lam)
            total += 1
    assert total >= 10


@_verdict(9, "typicality coincides with Kac-module simplicity on the |lambda_i| <= 3 grid")
def test_criterion_09_typicality():
    for shape in [(1, 1), (2, 1), (1, 2)]:
        alg = Algebra(shape)
        r = alg.shape.rank
        for lam in itertools.product(range(3, -4, -1), repeat=r):
            if not in_Xplus(alg.shape, lam):
                continue
            kac = repmod.kac_module(alg, lam)
            assert is_typical(alg.shape, lam) == (repmod.simple_head(kac).dim == kac.dim), (
                shape,
                lam,
            )


@_verdict(10, "classical Serre presentation holds at q = 1 modulo (K - 1)")
def test_criterion_10_classical_limit():
    for shape in [(1, 1), (2, 1), (2, 2)]:
        alg = Algebra(shape)
        results = ru.classical_limit_check(alg)
        failures = [name for name, ok in results if not ok]
        assert failures == [], shape
        if shape == (2, 2):
            assert any(name.startswith("a8") for name, _ in results)


@_verdict(11, "small-group dimensions at l = 3 and restricted module structure")
def test_criterion_11_root_of_unity_structure():
    c = ru.small_group_counts(Shape(1, 1), 3)
    assert c["reduced"] == 36 and c["full"] == 144
    for mn in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        sh = Shape(*mn)
        for l in (3, 5):
            cc = ru.small_group_counts(sh, l)
            n0 = len(sh.I0)
            m, n = mn
            assert cc["full"] == 2 ** (2 * m * n) * l ** (2 * n0) * (2 * l) ** (m + n)
            assert cc["reduced"] == 2 ** (2 * m * n) * l ** (2 * n0) * l ** (m + n)
    alg = Algebra((2, 1))
    for z in [(1, 1, 1), (2, 1, 0), (1, 2, 2)]:
        rep = restricted_checks(alg, z, 3)
        assert rep["divided_f_kills_top"], z
        assert rep["maximal_line_unique"], z
        assert rep["small_group_generates"], z


@_verdict(12, "character factorization and Frobenius vanishing at l = 3")
def test_criterion_12_character_factorization():
    alg = Algebra((2, 1))
    for z in [(4, 0, 0), (5, 1, 0), (4, 2, 1)]:
        rep = frobenius_character_check(alg, z, 3)
        assert rep["z_frobenius"] != (0, 0, 0), z
        assert rep["match"], z
    van = frobenius_vanishing_check(alg, (1, 0, 0), 3)
    assert van["ef_vanish"] and van["k_identity"]
