"""Expression language: grammar, error offsets, canonical printing,
round-trip exactness, and JSON serialization."""

import json
import random

import pytest

from qgl.errors import DomainError, ExprSyntaxError, IndexOutOfShape
from qgl.expr import (
    element_to_json,
    evaluate,
    parse,
    parse_element,
    print_canonical,
)
from qgl.pbwcore import Algebra, PBWMonomial
from qgl.scalars import LaurentInt, RatFunc, gauss_factorial


ALG21 = Algebra((2, 1))
ALG11 = Algebra((1, 1))
ALG22 = Algebra((2, 2))


# -- parsing ----------------------------------------------------------------


def test_parse_divided_power():
    ast = parse("E[1,2]^(2)", ALG21.shape)
    assert ast == {"sum": [{"sign": 1, "term": {"product": [
        {"op": "*", "factor": {"divided_power": {"gen": "E", "indices": [1, 2]}, "n": 2}},
    ]}}]}


def test_parse_juxtaposition_product():
    ast = parse("q^-1 * F[2,3] E[1,2]", ALG21.shape)
    (item,) = ast["sum"]
    assert item["sign"] == 1
    ops = [f["op"] for f in item["term"]["product"]]
    nodes = [f["factor"] for f in item["term"]["product"]]
    assert ops == ["*", "*", "*"]
    assert nodes[0] == {"power": {"scalar": "q"}, "n": -1}
    assert nodes[1] == {"gen": "F", "indices": [2, 3]}
    assert nodes[2] == {"gen": "E", "indices": [1, 2]}


def test_parse_index_out_of_shape():
    with pytest.raises(IndexOutOfShape):
        parse("E[1,4]", ALG21.shape)
    with pytest.raises(IndexOutOfShape):
        parse("K[4]", ALG21.shape)


def test_parse_errors_carry_offsets():
    cases = [
        ("E[1 2]", 4),       # missing comma, reported at the unexpected token
        ("E[1,2] +", 8),     # dangling operator, reported at end of input
        ("(E[1,2]", 7),      # unclosed paren
        ("E[1,2]]", 6),      # trailing input
        ("2 @ 3", 2),        # bad character
        ("", 0),
    ]
    for src, off in cases:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(src, ALG21.shape)
        assert exc.value.offset == off, src


def test_divided_power_restrictions():
    with pytest.raises(ExprSyntaxError):
        parse("K[1]^(2)", ALG21.shape)
    with pytest.raises(ExprSyntaxError):
        parse("(E[1,2])^(2)", ALG21.shape)


# -- evaluation -------------------------------------------------------------


def test_evaluate_generators():
    assert parse_element("E[1,2]", ALG21) == ALG21.gen("E", 1, 2)
    assert parse_element("Ka[1]", ALG21) == ALG21.k_mono((1, -1, 0))
    assert parse_element("Ka[3]", ALG21) == ALG21.k_mono((0, 0, 1))
    assert parse_element("K[1]*Kinv[2]", ALG21) == ALG21.k_mono((1, -1, 0))
    assert parse_element("Kb[1;0;1]", ALG21) == ALG21.kbracket_element(1, 0, 1)
    assert parse_element("Kb[1;-2;2]", ALG21) == ALG21.kbracket_element(1, -2, 2)


def test_evaluate_powers():
    e = ALG21.gen("E", 1, 2)
    assert parse_element("E[1,2]^3", ALG21) == e * e * e
    fact = gauss_factorial(3)
    assert parse_element("E[1,2]^(3)", ALG21) == (e * e * e).scale(fact.inverse())
    assert parse_element("K[1]^-2", ALG21) == ALG21.k_mono((-2, 0, 0))
    assert parse_element("q^-1", ALG21) == ALG21.scalar(RatFunc.q_power(-1))


def test_evaluate_arithmetic():
    x = parse_element("2*E[1,2] - q*F[1,3] + (1 - q^2)*K[2]", ALG21)
    want = (
        ALG21.gen("E", 1, 2).scale(RatFunc.from_int(2))
        - ALG21.gen("F", 1, 3).scale(RatFunc.q_power(1))
        + ALG21.k_mono((0, 1, 0)).scale(RatFunc.from_int(1) - RatFunc.q_power(2))
    )
    assert x == want


def test_evaluate_division_rules():
    x = parse_element("(q^2 - 1)/(q)", ALG11)
    assert x == ALG11.scalar(RatFunc.q_power(1) - RatFunc.q_power(-1))
    with pytest.raises(DomainError):
        parse_element("E[1,2]/F[1,2]", ALG11)
    with pytest.raises(DomainError):
        parse_element("1/0", ALG11)


def test_negative_ordinary_power_of_generator():
    with pytest.raises(DomainError):
        parse_element("E[1,2]^-1", ALG21)


# -- printing ---------------------------------------------------------------


def test_print_zero_and_units():
    assert print_canonical(ALG21.zero()) == "0"
    assert print_canonical(ALG21.one()) == "1"
    assert print_canonical(ALG21.gen("E", 1, 2)) == "E[1,2]"


def test_print_monomial_grouping():
    m = ALG21.monomial(fd=(0, 1), k=(1, 0, 0), ed=(1, 0))
    assert print_canonical(m) == "F[1,3]*K[1]*E[1,3]"


def test_print_coefficient_forms():
    e = ALG21.gen("E", 1, 2)
    qq = RatFunc.q_power(1) + RatFunc.q_power(-1)
    assert print_canonical(e.scale(qq)) == "(q + q^-1)*E[1,2]"
    assert print_canonical(e.scale(RatFunc.q_power(2))) == "q^2*E[1,2]"
    assert print_canonical(-e) == "-E[1,2]"
    two = ALG21.gen("F", 1, 2).scale(RatFunc.from_int(-3))
    assert print_canonical(e - e + two) == "-3*F[1,2]"


def test_print_fraction_quotient_and_negative_sum_coefficients():
    pins = [
        ("E[1,2]/2", "(1/2)*E[1,2]"),
        ("E[1,2]/(q + 1)", "(1)/(q + 1)*E[1,2]"),
        ("-(q + q^-1)*E[1,2]", "(-q - q^-1)*E[1,2]"),
        ("(1 - q^2)/(q + 2)*F[1,3]", "(-q^2 + 1)/(q + 2)*F[1,3]"),
        ("E[1,2]/2*q - q^-3/5*F[1,2]", "(1/2*q)*E[1,2] + (-1/5*q^-3)*F[1,2]"),
    ]
    for src, text in pins:
        x = parse_element(src, ALG21)
        assert print_canonical(x) == text, src
        assert parse_element(text, ALG21) == x, src


def test_print_sum_ordering_deterministic():
    x = ALG21.gen("E", 1, 2) + ALG21.gen("F", 1, 2) - ALG21.one()
    s1 = print_canonical(x)
    y = -ALG21.one() + ALG21.gen("F", 1, 2) + ALG21.gen("E", 1, 2)
    assert s1 == print_canonical(y)


# -- round trip -------------------------------------------------------------


def rand_element(alg, rng, nterms=3):
    sh = alg.shape
    out = alg.zero()
    for _ in range(nterms):
        fd = tuple(rng.randint(0, 1) for _ in sh.I1)
        fpsi = tuple(rng.choice([0, 0, 1, 2]) for _ in sh.I0)
        k = tuple(rng.randint(-2, 2) for _ in range(sh.rank))
        epsi = tuple(rng.choice([0, 0, 1, 2]) for _ in sh.I0)
        ed = tuple(rng.randint(0, 1) for _ in sh.I1)
        coeff = LaurentInt({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)})
        if coeff.is_zero():
            continue
        out = out + alg.monomial(fd=fd, fpsi=fpsi, k=k, epsi=epsi, ed=ed).scale(coeff)
    return out


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
def test_round_trip_random(shape):
    alg = Algebra(shape)
    rng = random.Random(hash(shape) & 0xFFFF)
    for _ in range(100):
        x = rand_element(alg, rng)
        assert parse_element(print_canonical(x), alg) == x


def test_round_trip_divided_and_bracket():
    # elements whose PBW coefficients are genuine rational functions
    for src in ("E[1,2]^(3)", "Kb[1;0;2]", "Kb[2;-1;1]*F[1,3]"):
        x = parse_element(src, ALG21)
        assert parse_element(print_canonical(x), ALG21) == x


# -- JSON -------------------------------------------------------------------


def test_element_json_schema():
    x = parse_element("E[1,2]*F[1,2]", ALG11)
    doc = element_to_json(x)
    assert doc["shape"] == [1, 1]
    assert all(
        set(t) == {"coeff", "fd", "fpsi", "k", "epsi", "ed"} for t in doc["terms"]
    )
    # deterministic serialization
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        element_to_json(parse_element("E[1,2]*F[1,2]", ALG11)), sort_keys=True
    )


def test_ast_json():
    doc = parse("q^-1 * F[2,3]", ALG21.shape)
    assert "sum" in doc
    text = json.dumps(doc)
    assert "divided_power" not in text and "gen" in text
    # the parse tree is its own JSON, and evaluates from it
    assert json.loads(text) == doc
    assert evaluate(json.loads(text), ALG21) == parse_element("q^-1 * F[2,3]", ALG21)
