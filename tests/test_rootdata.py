"""Root/weight combinatorics: index sets, bilinear form, Cartan data,
coordinate changes, typicality, and the restricted-range decomposition."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qgl.errors import BadRootOrder, DomainError, IndexOutOfShape, ResourceLimit
from qgl.rootdata import (
    _MAX_RANK,
    Shape,
    _check_order,
    bilinear_form,
    c_value,
    frobenius_decompose,
    in_Xplus,
    in_Zplus,
    is_typical,
    p_factor,
    weight_to_z,
    weyl_dim_even,
    z_to_weight,
)

SHAPES = [Shape(1, 1), Shape(2, 1), Shape(1, 2), Shape(2, 2), Shape(3, 2)]


def two_rho(shape):
    """2 rho: the sum of the even positive roots minus that of the odd ones."""
    acc = [0] * shape.rank
    for pairs, sign in ((shape.I0, 1), (shape.I1, -1)):
        for i, j in pairs:
            acc[i - 1] += sign
            acc[j - 1] -= sign
    return tuple(acc)


def p_factor_via_rho(shape, lam):
    """P(lambda) = prod over odd positive roots alpha of (lambda + rho, alpha),
    through the half-integer rho: the reference of ``p_factor``'s closed form."""
    two_mu = tuple(2 * x + y for x, y in zip(lam, two_rho(shape)))
    out = 1
    for i, j in shape.I1:
        twice = bilinear_form(shape, two_mu, shape.root_weight(i, j))
        assert twice % 2 == 0, (shape, lam, i, j)
        out *= twice // 2
    return out


def in_Xplus_l(shape, z, l):
    """Restricted range: 0 <= z_i <= l-1 at every constrained index."""
    _check_order(l)
    return all(0 <= z[i - 1] <= l - 1
               for i in range(1, shape.rank + 1) if i not in (shape.m, shape.rank))


def rand_weights(shape, bound=4):
    return st.tuples(
        *[st.integers(min_value=-bound, max_value=bound) for _ in range(shape.rank)]
    )


def test_shape_rank_budget():
    # the budget is checked before the O((m+n)^2) index lists are built
    assert Shape(_MAX_RANK - 1, 1).rank == _MAX_RANK
    for m, n in ((_MAX_RANK, 1), (1, _MAX_RANK), (1500, 1500), (10 ** 12, 1)):
        with pytest.raises(ResourceLimit):
            Shape(m, n)


def test_index_sets():
    sh = Shape(2, 2)
    assert sh.I0 == ((1, 2), (3, 4))
    assert sh.I1 == ((1, 3), (1, 4), (2, 3), (2, 4))
    for sh in SHAPES:
        assert len(sh.I0) == comb(sh.m, 2) + comb(sh.n, 2)
        assert len(sh.I1) == sh.m * sh.n
        assert all(not sh.is_odd_pair(i, j) for (i, j) in sh.I0)
        assert all(sh.is_odd_pair(i, j) for (i, j) in sh.I1)


def test_bilinear_form_signature():
    sh = Shape(2, 1)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert bilinear_form(sh, e1, e1) == 1
    assert bilinear_form(sh, e2, e2) == 1
    assert bilinear_form(sh, e3, e3) == -1
    assert bilinear_form(sh, e1, e2) == 0
    assert bilinear_form(sh, e1, e3) == 0


def test_cartan_spec_examples():
    sh = Shape(2, 1)
    m, r = sh.m, sh.rank
    assert sh.cartan_entry(m, m) == 0
    assert sh.cartan_entry(m, m + 1 - 1) == 0  # same entry, sanity
    assert sh.cartan_entry(1, 1) == 2
    assert sh.cartan_entry(1, 2) == -1
    assert sh.cartan_entry(r, r - 1) == -1
    sh = Shape(2, 2)
    assert sh.cartan_entry(2, 3) == 1  # the (m, m+1) entry
    assert sh.cartan_entry(3, 3) == 2
    assert sh.cartan_entry(4, 3) == -1
    assert sh.cartan_entry(4, 1) == 0


def test_cartan_matches_bilinear_form():
    # (alpha_i, alpha_j) = eps_sign(i) * a_ij for all rows/columns
    for sh in SHAPES:
        for i in range(1, sh.rank + 1):
            for j in range(1, sh.rank):
                lhs = bilinear_form(sh, sh.k_alpha_vector(i), sh.k_alpha_vector(j))
                assert lhs == sh.eps_sign(i) * sh.cartan_entry(i, j), (sh, i, j)


def test_index_errors():
    sh = Shape(2, 1)
    with pytest.raises(IndexOutOfShape):
        sh.check_pair(2, 2)
    with pytest.raises(IndexOutOfShape):
        sh.check_pair(1, 4)
    with pytest.raises(IndexOutOfShape):
        sh.check_node(3, simple=True)
    sh.check_node(3)


def test_two_rho():
    sh = Shape(1, 1)
    # even roots: none in either block of size 1; odd root eps1 - eps2
    assert two_rho(sh) == (-1, 1)
    sh = Shape(2, 1)
    # even: eps1-eps2 = (1,-1,0); odd: eps1-eps3 and eps2-eps3 sum to (1,1,-2)
    assert two_rho(sh) == (0, -2, 2)


def test_z_coordinate_spec_example():
    sh = Shape(2, 1)
    assert weight_to_z(sh, (1, 1, 1)) == (0, 2, 1)
    assert z_to_weight(sh, (0, 2, 1)) == (1, 1, 1)


@settings(max_examples=200)
@given(st.data())
def test_z_roundtrip(data):
    sh = data.draw(st.sampled_from(SHAPES))
    lam = data.draw(rand_weights(sh))
    assert z_to_weight(sh, weight_to_z(sh, lam)) == lam


def test_c_value():
    sh = Shape(2, 1)
    assert c_value(sh, 1, 3) == -1
    assert c_value(sh, 2, 3) == 0
    with pytest.raises(DomainError):
        c_value(sh, 1, 2)


def test_typicality_examples():
    sh = Shape(1, 1)
    assert not is_typical(sh, (0, 0))  # lambda_1 + lambda_2 = 0 = c(1,2)
    assert is_typical(sh, (1, 0))
    sh = Shape(2, 1)
    # c(1,3) = -1, c(2,3) = 0
    assert not is_typical(sh, (0, 0, 0))
    assert not is_typical(sh, (3, 1, -4))
    assert is_typical(sh, (5, 4, 3))


@settings(max_examples=200)
@given(st.data())
def test_typicality_routes_agree(data):
    # the closed form lambda_i + lambda_j - c(i,j) against (lambda + rho, alpha)
    sh = data.draw(st.sampled_from(SHAPES))
    lam = data.draw(rand_weights(sh))
    p = p_factor(sh, lam)
    assert p == p_factor_via_rho(sh, lam)
    assert is_typical(sh, lam) == (p != 0)
    assert is_typical(sh, lam) == all(
        lam[i - 1] + lam[j - 1] != c_value(sh, i, j) for i, j in sh.I1)


def test_dominance():
    sh = Shape(2, 2)
    assert in_Xplus(sh, (3, 1, 5, 2))  # no condition across the wall
    assert not in_Xplus(sh, (1, 3, 5, 2))
    assert not in_Xplus(sh, (3, 1, 2, 5))


def test_restricted_range():
    sh = Shape(2, 1)
    assert in_Zplus(sh, (3, -7, 100))  # indices m=2 and m+n=3 unconstrained
    assert not in_Zplus(sh, (-1, 0, 0))
    assert in_Xplus_l(sh, (2, -7, 100), 3)
    assert not in_Xplus_l(sh, (3, 0, 0), 3)
    with pytest.raises(BadRootOrder):
        in_Xplus_l(sh, (0, 0, 0), 4)


def test_frobenius_spec_example():
    sh = Shape(2, 1)
    zp, zpp = frobenius_decompose(sh, (7, 5, 2), 3)
    assert zp == (1, 5, 2)
    assert zpp == (2, 0, 0)


@settings(max_examples=200)
@given(st.data())
def test_frobenius_properties(data):
    sh = data.draw(st.sampled_from(SHAPES))
    l = data.draw(st.sampled_from([3, 5, 7]))
    z = []
    for i in range(1, sh.rank + 1):
        if i in (sh.m, sh.rank):
            z.append(data.draw(st.integers(min_value=-20, max_value=40)))
        else:
            z.append(data.draw(st.integers(min_value=0, max_value=40)))
    zp, zpp = frobenius_decompose(sh, tuple(z), l)
    assert in_Xplus_l(sh, zp, l)
    assert all(zp[k] + l * zpp[k] == z[k] for k in range(sh.rank))


def test_weyl_dim_even():
    sh = Shape(2, 2)
    assert weyl_dim_even(sh, (0, 0, 0, 0)) == 1
    assert weyl_dim_even(sh, (1, 0, 0, 0)) == 2  # standard rep of the gl(2) block
    assert weyl_dim_even(sh, (1, 0, 1, 0)) == 4
    sh = Shape(3, 1)
    assert weyl_dim_even(sh, (1, 0, 0, 5)) == 3
    assert weyl_dim_even(sh, (2, 1, 0, 0)) == 8  # adjoint of sl(3)
    with pytest.raises(DomainError):
        weyl_dim_even(sh, (0, 1, 0, 0))
