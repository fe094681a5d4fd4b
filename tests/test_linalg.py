"""The exact linear-algebra kernel against its dense definitions."""

import random
from fractions import Fraction

import pytest

from qgl.linalg import mat_vec
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
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))

        def entry():
            return draw(rng) if rng.random() < density else zero

        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        v = [entry() for _ in range(cols)]
        dense = []
        for row in a:
            acc = zero
            for x, y in zip(row, v):
                acc = acc + x * y
            dense.append(acc)
        assert mat_vec(a, v, zero) == dense
