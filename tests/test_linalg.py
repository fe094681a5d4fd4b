"""The exact linear-algebra kernel against its dense definitions."""

import random
from fractions import Fraction

import pytest

from qgl.linalg import Echelon, columns, in_span, mat_mul, mat_vec, nullspace, rank, rref, sparse
from qgl.scalars import CycloNum, RatFunc


def _ratfunc(rng):
    x = RatFunc.from_int(rng.randint(-3, 3)) * RatFunc.q_power(rng.randint(-2, 2))
    if rng.random() < 0.3:
        x = x * (RatFunc.q_power(1) + RatFunc.from_int(rng.randint(1, 3))).inverse()
    return x


def _cyclo(rng):
    return CycloNum([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)], 5)


@pytest.mark.parametrize(
    "draw,zero", [(_ratfunc, RatFunc.from_int(0)), (_cyclo, CycloNum.from_int(0, 5))]
)
def test_mat_vec_matches_the_dense_formula(draw, zero):
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
        assert mat_vec([sparse(col) for col in zip(*a)], v, zero) == dense


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
        want = [sparse(col) for col in zip(*dense)]
        assert mat_mul([sparse(col) for col in zip(*a)], [sparse(col) for col in zip(*b)]) == want
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


def _sweep_rref(rows, zero):
    """Gauss-Jordan elimination column by column: the reference rref."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
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
        if r == len(mat):
            break
    return mat[:r], pivots


_FIELDS = [
    (_ratfunc, RatFunc.from_int(0), RatFunc.from_int(1)),
    (_cyclo, CycloNum.from_int(0, 5), CycloNum.from_int(1, 5)),
]


def _combination(rng, draw, zero, rows, ncols):
    """A random linear combination of rows (the zero vector when rows is empty)."""
    out = [zero] * ncols
    for row in rows:
        f = draw(rng)
        out = [a + f * b for a, b in zip(out, row)]
    return out


def _matrices(draw, zero, seed):
    """Seeded matrices: empty, zero rows, rank-deficient and full rank."""
    rng = random.Random(seed)
    yield []
    yield [[zero] * 3 for _ in range(2)]
    yield [[draw(rng) for _ in range(4)]]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [[draw(rng) if rng.random() < density else zero for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.5:  # rank-deficient: a combination of earlier rows
            rows.append(_combination(rng, draw, zero, rows[: rng.randint(0, nrows)], ncols))
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [zero] * ncols)
        rng.shuffle(rows)
        yield rows


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_rref_and_rank_match_the_column_sweep(draw, zero, one):
    seen_ranks = set()
    for rows in _matrices(draw, zero, 11):
        want = _sweep_rref(rows, zero)
        assert rref(rows) == want
        assert rank(rows) == len(want[0])
        if rows:
            seen_ranks.add((len(want[0]) == len(rows), len(want[0]) == len(rows[0])))
    assert seen_ranks >= {(True, True), (False, False), (True, False), (False, True)}


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_nullspace_matches_the_column_sweep(draw, zero, one):
    for rows in _matrices(draw, zero, 12):
        kern = nullspace(rows, zero, one)
        if not rows:
            assert kern == []
            continue
        red, pivots = _sweep_rref(rows, zero)
        ncols = len(rows[0])
        assert len(kern) == ncols - len(pivots)
        for v in kern:
            for row in rows:
                acc = zero
                for x, y in zip(row, v):
                    acc = acc + x * y
                assert acc.is_zero()
        free = [c for c in range(ncols) if c not in pivots]
        assert [[v[c] for c in free] for v in kern] == [
            [one if c == fc else zero for c in free] for fc in free
        ]


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_in_span_matches_the_column_sweep(draw, zero, one):
    rng = random.Random(13)
    for rows in _matrices(draw, zero, 13):
        ncols = len(rows[0]) if rows else 3
        inside = _combination(rng, draw, zero, rows, ncols)
        outside = [draw(rng) for _ in range(ncols)]
        assert in_span(rows, inside)
        base = len(_sweep_rref(rows, zero)[0])
        grows = len(_sweep_rref(rows + [outside], zero)[0]) > base
        assert in_span(rows, outside) == (not grows)


@pytest.mark.parametrize("draw,zero,one", _FIELDS, ids=["Q(q)", "Q(eta)"])
def test_echelon_add_and_reduce_match_the_column_sweep(draw, zero, one):
    rng = random.Random(14)
    for rows in _matrices(draw, zero, 14):
        ech = Echelon()
        for k, row in enumerate(rows):
            before = len(_sweep_rref(rows[:k], zero)[0])
            added = ech.add(row)
            grows = len(_sweep_rref(rows[: k + 1], zero)[0]) > before
            assert (added is not None) == grows
            if added is not None:
                assert added in ech.rows and added[ech.pivots[ech.rows.index(added)]] == one
            assert (ech.rows, ech.pivots) == _sweep_rref(rows[: k + 1], zero)
        ncols = len(rows[0]) if rows else 3
        vec = [draw(rng) for _ in range(ncols)]
        red = ech.reduce(vec)
        assert all(red[pc].is_zero() for pc in ech.pivots)
        diff = [a - b for a, b in zip(vec, red)]
        assert in_span(ech.rows, diff) if ech.rows else all(x.is_zero() for x in diff)
        assert all(x.is_zero() for x in red) == (
            len(_sweep_rref(rows + [vec], zero)[0]) == len(ech.rows)
        )
