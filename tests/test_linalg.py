"""The exact linear-algebra kernel against its dense definitions.

Every routine takes sparse vectors, the (index, value) pairs of the nonzero
entries, indices ascending; the dense references work on lists, and the
routines' results are densified to meet them.
"""

import random
from fractions import Fraction

import pytest

from qgl.linalg import Echelon, columns, in_span, mat_mul, nullspace, rref
from qgl.scalars import CycloNum, RatFunc


def _ratfunc(rng):
    x = RatFunc.from_int(rng.randint(-3, 3)) * RatFunc.q_power(rng.randint(-2, 2))
    if rng.random() < 0.3:
        x = x * (RatFunc.q_power(1) + RatFunc.from_int(rng.randint(1, 3))).inverse()
    return x


def _cyclo(rng):
    return CycloNum([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)], 5)


def _sparse(vec):
    """The (index, value) pairs of the nonzero entries of a dense list."""
    return [(k, x) for k, x in enumerate(vec) if not x.is_zero()]


def _dense(vec, n, zero):
    """The dense list of length n of a sparse vector."""
    out = [zero] * n
    for k, x in vec:
        out[k] = x
    return out


def _assert_sparse(vec, n):
    """vec is a sparse vector of length n: indices strictly ascending in
    range, no stored zero."""
    idx = [k for k, _ in vec]
    assert idx == sorted(set(idx)) and all(0 <= k < n for k in idx), idx
    assert not any(x.is_zero() for _, x in vec)


@pytest.mark.parametrize(
    "draw,zero", [(_ratfunc, RatFunc.from_int(0)), (_cyclo, CycloNum.from_int(0, 5))]
)
def test_mat_mul_of_one_column_matches_the_dense_formula(draw, zero):
    # a vector is a one-column matrix
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))

        def entry():
            return draw(rng) if rng.random() < density else zero

        a = [[entry() for _ in range(n)] for _ in range(n)]
        v = [entry() for _ in range(n)]
        dense = []
        for row in a:
            acc = zero
            for x, y in zip(row, v):
                acc = acc + x * y
            dense.append(acc)
        (col,) = mat_mul([_sparse(c) for c in zip(*a)], [_sparse(v)])
        _assert_sparse(col, n)
        assert _dense(col, n, zero) == dense


@pytest.mark.parametrize(
    "draw,zero", [(_ratfunc, RatFunc.from_int(0)), (_cyclo, CycloNum.from_int(0, 5))]
)
def test_mat_mul_and_columns_match_the_dense_formula(draw, zero):
    rng = random.Random(8)
    for _ in range(40):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.0, 0.3, 1.0))

        def entry():
            return draw(rng) if rng.random() < density else zero

        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(inner)]
        dense = [[zero] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                for k in range(inner):
                    dense[r][c] = dense[r][c] + a[r][k] * b[k][c]
        want = [_sparse(col) for col in zip(*dense)]
        assert mat_mul([_sparse(col) for col in zip(*a)], [_sparse(col) for col in zip(*b)]) == want
        # the same sum as entries, each split in two parts that cancel or add up
        entries = []
        for r in range(rows):
            for c in range(cols):
                for k in range(inner):
                    x = a[r][k] * b[k][c]
                    entries += [(r, c, x + x), (r, c, -x)]
        rng.shuffle(entries)
        assert columns(entries, cols) == want


# -- elimination against the column sweep ------------------------------------


def _sweep_rref(rows, ncols, zero):
    """Gauss-Jordan elimination column by column on the dense rows: the
    reference rref, as dense rows and pivots."""
    mat = [_dense(r, ncols, zero) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _sweep_rank(rows, ncols, zero):
    return len(_sweep_rref(rows, ncols, zero)[1])


_FIELDS = [
    (_ratfunc, RatFunc.from_int(0), RatFunc.from_int(1)),
    (_cyclo, CycloNum.from_int(0, 5), CycloNum.from_int(1, 5)),
]


def _vector(rng, draw, ncols, density=1.0):
    """A random sparse vector (draws that come out zero are not stored)."""
    out = [(c, draw(rng)) for c in range(ncols) if rng.random() < density]
    return [(c, x) for c, x in out if not x.is_zero()]


def _nonzero(rng, draw):
    x = draw(rng)
    while x.is_zero():
        x = draw(rng)
    return x


def _combination(rng, draw, zero, rows, ncols):
    """A random linear combination of rows (the zero vector when rows is empty)."""
    out = [zero] * ncols
    for row in rows:
        f = draw(rng)
        out = [a + f * b for a, b in zip(out, _dense(row, ncols, zero))]
    return _sparse(out)


def _matrices(draw, zero, seed):
    """Seeded (ncols, sparse rows): empty, zero rows, repeated rows, pivots
    that arrive out of order, rank-deficient and full rank."""
    rng = random.Random(seed)
    yield 3, []
    yield 3, [[], []]
    yield 4, [_vector(rng, draw, 4)]
    v, w = _vector(rng, draw, 4, 0.6), _vector(rng, draw, 4)
    yield 4, [v, v, v]
    yield 4, [v, w, [], v, w]
    a, b, c, d, e = (_nonzero(rng, draw) for _ in range(5))
    # leading indices 3, 1, 0: each new pivot lands before the old ones
    yield 4, [[(3, a)], [(1, b), (3, c)], [(0, d), (2, e)], [(0, d), (1, b), (3, a)]]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [_vector(rng, draw, ncols, density) for _ in range(nrows)]
        if rng.random() < 0.5:  # rank-deficient: a combination of earlier rows
            rows.append(_combination(rng, draw, zero, rows[: rng.randint(0, nrows)], ncols))
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [])
        if rng.random() < 0.2:
            rows.append(rng.choice(rows))
        rng.shuffle(rows)
        yield ncols, rows


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_rref_and_rank_match_the_column_sweep(draw, zero, one):
    seen_ranks = set()
    for ncols, rows in _matrices(draw, zero, 11):
        want = _sweep_rref(rows, ncols, zero)
        red, pivots = rref(rows)
        for row in red:
            _assert_sparse(row, ncols)
        assert ([_dense(row, ncols, zero) for row in red], pivots) == want
        assert len(pivots) == len(want[0])  # the rank
        if rows:
            seen_ranks.add((len(want[0]) == len(rows), len(want[0]) == ncols))
    assert seen_ranks >= {(True, True), (False, False), (True, False), (False, True)}


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_nullspace_matches_the_column_sweep(draw, zero, one):
    for ncols, rows in _matrices(draw, zero, 12):
        kern = nullspace(rows, ncols, one)
        if not rows:  # the kernel of no rows is everything
            assert kern == [[(c, one)] for c in range(ncols)]
        red, pivots = _sweep_rref(rows, ncols, zero)
        assert len(kern) == ncols - len(pivots)
        for v in kern:
            _assert_sparse(v, ncols)
            dense = _dense(v, ncols, zero)
            for row in rows:
                acc = zero
                for x, y in zip(_dense(row, ncols, zero), dense):
                    acc = acc + x * y
                assert acc.is_zero()
        free = [c for c in range(ncols) if c not in pivots]
        assert [[_dense(v, ncols, zero)[c] for c in free] for v in kern] == [
            [one if c == fc else zero for c in free] for fc in free
        ]


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_in_span_matches_the_column_sweep(draw, zero, one):
    rng = random.Random(13)
    for ncols, rows in _matrices(draw, zero, 13):
        inside = _combination(rng, draw, zero, rows, ncols)
        outside = _vector(rng, draw, ncols)
        assert in_span(rows, inside)
        assert in_span(rows, [])
        grows = _sweep_rank(rows + [outside], ncols, zero) > _sweep_rank(rows, ncols, zero)
        assert in_span(rows, outside) == (not grows)


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_echelon_add_and_reduce_match_the_column_sweep(draw, zero, one):
    rng = random.Random(14)
    for ncols, rows in _matrices(draw, zero, 14):
        ech = Echelon()
        for k, row in enumerate(rows):
            before = _sweep_rank(rows[:k], ncols, zero)
            added = ech.add(row)
            grows = _sweep_rank(rows[: k + 1], ncols, zero) > before
            assert (added is not None) == grows
            if added is not None:
                _assert_sparse(added, ncols)
                assert added in ech.rows and added[0] == (added[0][0], one)
                assert added[0][0] in ech.pivots
            for r in ech.rows:
                _assert_sparse(r, ncols)
            assert ([_dense(r, ncols, zero) for r in ech.rows], ech.pivots) == _sweep_rref(
                rows[: k + 1], ncols, zero)
        vec = _vector(rng, draw, ncols)
        red = ech.reduce(vec)
        _assert_sparse(red, ncols)
        assert not {c for c, _ in red} & set(ech.pivots)
        diff = _sparse([a - b for a, b in zip(_dense(vec, ncols, zero), _dense(red, ncols, zero))])
        assert in_span(ech.rows, diff) if ech.rows else diff == []
        assert (red == []) == (_sweep_rank(rows + [vec], ncols, zero) == len(ech.rows))
        assert ech.reduce([]) == []
