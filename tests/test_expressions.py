import ast
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslet2d.expressions import (
    MAX_DEPTH,
    BinOp,
    ConstantPotentialError,
    Neg,
    Num,
    Param,
    PotentialEvalError,
    PotentialSyntaxError,
    Rho,
    bind_params,
    float_pow,
    parse_potential,
    render,
)


def test_parse_simple_coulomb():
    spec = parse_potential("-2/rho")
    assert spec.tree == BinOp("/", Neg(Num(2.0)), Rho())
    assert spec.params == ()


def test_parse_hybrid_three_terms():
    spec = parse_potential("m*g - 2/rho + g^2*rho^2/4")
    assert set(spec.params) == {"m", "g"}
    # top level is a left-associated sum of three terms
    top = spec.tree
    assert isinstance(top, BinOp) and top.op == "+"
    assert isinstance(top.lhs, BinOp) and top.lhs.op == "-"


def test_parse_error_offset():
    with pytest.raises(PotentialSyntaxError) as exc:
        parse_potential("2*")
    assert exc.value.offset == 2


def test_empty_input_rejected():
    with pytest.raises(PotentialSyntaxError):
        parse_potential("")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("   ")


def test_unknown_character():
    with pytest.raises(PotentialSyntaxError) as exc:
        parse_potential("rho + $")
    assert exc.value.offset == 6


def test_no_implicit_multiplication():
    with pytest.raises(PotentialSyntaxError):
        parse_potential("2rho")


def test_constant_potential_rejected():
    with pytest.raises(ConstantPotentialError):
        parse_potential("5")
    with pytest.raises(ConstantPotentialError):
        parse_potential("a + 3*b")


def test_precedence_and_associativity():
    spec = parse_potential("rho - 1 - 2")
    # left-associative: (rho - 1) - 2
    assert spec.tree == BinOp("-", BinOp("-", Rho(), Num(1.0)), Num(2.0))
    spec = parse_potential("rho^2^3")
    # right-associative: rho^(2^3)
    assert spec.tree == BinOp("^", Rho(), BinOp("^", Num(2.0), Num(3.0)))
    spec = parse_potential("-rho^2")
    # '^' binds above unary minus
    assert spec.tree == Neg(BinOp("^", Rho(), Num(2.0)))


def test_bind_missing_parameter():
    spec = parse_potential("m*g - 2/rho + g^2*rho^2/4")
    with pytest.raises(KeyError, match="m"):
        bind_params(spec, {"g": 1.0})


def test_bind_extraneous_parameter_raises():
    spec = parse_potential("-2/rho")
    with pytest.raises(KeyError, match="extraneous"):
        bind_params(spec, {"zz": 1.0})


def test_eval_examples():
    coulomb = bind_params(parse_potential("-2/rho"), {})
    assert coulomb(1.0) == -2.0

    hybrid = bind_params(
        parse_potential("m*g - 2/rho + g^2*rho^2/4"), {"m": 0.0, "g": 2.0}
    )
    assert hybrid(1.0) == pytest.approx(-1.0, abs=1e-15)


def test_eval_at_pole():
    coulomb = bind_params(parse_potential("-2/rho"), {})
    with pytest.raises(ArithmeticError):
        coulomb(0.0)


@pytest.mark.parametrize(
    "text, rho", [("(0-8)^0.5*rho - 2/rho", 1.0), ("(rho-5)^0.5", 2.0)]
)
def test_negative_number_under_real_power_raises(text, rho):
    bound = bind_params(parse_potential(text), {})
    with pytest.raises(PotentialEvalError, match="non-integer power"):
        bound(rho)


@pytest.mark.parametrize(
    "text, offset",
    [("²*rho-2/rho", 0), ("1²*rho-2/rho", 1), ("rho*٣", 4)],
)
def test_number_literal_takes_ascii_digits_only(text, offset):
    with pytest.raises(PotentialSyntaxError, match="unknown character") as exc:
        parse_potential(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text, offset", [("1e400*rho-2/rho", 0), ("rho^(1e400^0)-2/rho", 5)]
)
def test_number_literal_overflowing_to_inf_rejected(text, offset):
    with pytest.raises(PotentialSyntaxError, match="1e400 out of range") as exc:
        parse_potential(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text", ["rho^(1e308*10-1e308*10)-2/rho", "rho^(1e308*10)-2/rho"]
)
def test_non_finite_exponent_raises(text):
    bound = bind_params(parse_potential(text), {})
    with pytest.raises(PotentialEvalError, match="non-finite exponent"):
        bound(1.0)


# ---------------------------------------------------------------------------
# randomized round-trip and agreement checks

def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return Rho()
        if choice < 0.7:
            return Num(float(rng.randint(1, 9)))
        return Param(rng.choice("abc"))
    op = rng.choice(["+", "-", "*", "/", "^", "neg"])
    if op == "neg":
        return Neg(_random_tree(rng, depth - 1))
    if op == "^":
        return BinOp("^", _random_tree(rng, depth - 1), Num(float(rng.randint(1, 3))))
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_print_parse_round_trip():
    rng = random.Random(20240817)
    n_checked = 0
    for _ in range(300):
        tree = _random_tree(rng, 4)
        text = render(tree)
        from pslet2d.expressions import _collect_params

        if not _collect_params(tree, set(), set())[1]:
            continue  # constant trees are rejected by design
        spec = parse_potential(text)
        assert spec.tree == tree, text
        n_checked += 1
    assert n_checked > 150


@pytest.mark.parametrize(
    "text, params, exponent_params, raising_params",
    [
        ("rho^a", ("a",), ("a",), ()),
        ("(a*rho)^a", ("a",), ("a",), ()),  # in the base and in the exponent
        ("rho^(b^c)", ("b", "c"), ("b", "c"), ()),
        ("-rho^-a", ("a",), ("a",), ()),
        ("2^a*rho", ("a",), ("a",), ()),
        ("rho^2+b", ("b",), (), ()),
        ("m*g - 2/rho + g^2*rho^2/4", ("g", "m"), (), ()),  # g^2: a literal square
        ("b*rho^a - 2/rho", ("a", "b"), ("a",), ()),
        ("(b*rho)^1.5 - 2/rho", ("b",), (), ("b",)),  # in a real power's base
        ("rho^2/b - 2/rho", ("b",), (), ("b",)),
        ("b^1.5*rho - 2/rho", ("b",), (), ("b",)),
        ("rho + 1/(b*rho^0)", ("b",), (), ("b",)),  # in a divisor
        ("rho - 2/(a - 3*rho^(1-1))", ("a",), (), ("a",)),
    ],
)
def test_spec_names_the_parameters_in_an_exponent(text, params, exponent_params,
                                                  raising_params):
    spec = parse_potential(text)
    assert (spec.params, spec.exponent_params, spec.raising_params) == (
        params, exponent_params, raising_params)


def test_eval_matches_hand_corpus():
    cases = [
        ("rho^2/4 + 1/rho", 2.0, {}, 1.0 + 0.5),
        ("(rho+1)*(rho-1)", 3.0, {}, 8.0),
        ("a*rho^3 - b/rho^2", 2.0, {"a": 0.5, "b": 4.0}, 4.0 - 1.0),
        ("2*rho^0.5", 4.0, {}, 4.0),
        ("-rho + -3*rho", 1.5, {}, -6.0),
    ]
    for text, rho, params, expected in cases:
        bound = bind_params(parse_potential(text), params)
        assert bound(rho) == pytest.approx(expected, rel=1e-15)


def test_precedence_property_random():
    rng = random.Random(7)
    spec = parse_potential("a + b*c + 0*rho")
    for _ in range(50):
        a, b, c = (rng.uniform(-10, 10) for _ in range(3))
        bound = bind_params(spec, {"a": a, "b": b, "c": c})
        assert bound(1.0) == pytest.approx(a + b * c, rel=1e-14, abs=1e-14)


def test_round_trip_preserves_value():
    text = "m*g - 2/rho + g^2*rho^2/4"
    spec = parse_potential(text)
    again = parse_potential(str(spec))
    assert again.tree == spec.tree
    b1 = bind_params(spec, {"m": -1.0, "g": 0.7})
    b2 = bind_params(again, {"m": -1.0, "g": 0.7})
    for rho in (0.3, 1.0, 2.5):
        assert b1(rho) == b2(rho)


def test_integer_power_exact():
    spec = parse_potential("rho^4")
    bound = bind_params(spec, {})
    assert bound(3.0) == 81.0
    assert math.isclose(bound(0.1), 1e-4, rel_tol=1e-15)


def test_float_pow_table_takes_pow_per_entry():
    x = [[0.3, 2.0], [1e-3, 7.5]]
    exponents = [0.5, -1.5, 3.0, 2.7]
    table = float_pow(np.array(x), exponents)
    assert table.shape == (2, 2, 4)
    assert table.tolist() == [[[math.pow(v, e) for e in exponents] for v in row] for row in x]
    assert float_pow(2.0, exponents).tolist() == [math.pow(2.0, e) for e in exponents]


def test_float_pow_table_overflow_and_negative_base():
    # pow raises on the overflow and on the negative base; every other entry
    # keeps pow's bits
    table = float_pow(np.array([1.7, 1e300, 3.1, -2.0]), [0.5, 1.5]).tolist()
    assert table[1] == [math.pow(1e300, 0.5), math.inf]
    assert table[0] == [math.pow(1.7, 0.5), math.pow(1.7, 1.5)]
    assert table[2] == [math.pow(3.1, 0.5), math.pow(3.1, 1.5)]
    assert all(math.isnan(v) for v in table[3])


# ---------------------------------------------------------------------------
# property: any text ends in a tree or in one of the two documented errors

_PIECES = (
    "rho", "a", "_g", "2", "0.5", ".5", "1e3", "1e400", "+", "-", "*", "/", "^", "(", ")",
    " ", "\t", "\x1c", "\u00a0", "²", "٣", "۵", "½", "ǅ", "ᾈ", "𝑥", "𝟘", "😀", "$", ".",
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=12).map("".join))
def test_parse_any_unicode_text(text):
    try:
        parse_potential(text)
    except ConstantPotentialError:
        return
    except PotentialSyntaxError as exc:
        data = text.encode("utf-8")
        assert 0 <= exc.offset <= len(data), (text, exc)
        unknown = re.fullmatch(r"unknown character (.+) \(at byte offset \d+\)", str(exc))
        if unknown:
            c = ast.literal_eval(unknown.group(1))
            assert data[exc.offset:].startswith(c.encode("utf-8")), (text, exc)


# Expressions d levels deep in the four shapes that used to exhaust Python's
# recursion limit: nested parentheses, chained powers, unary minus signs and
# long sums.  Each one is a potential with a stable frame.
NESTED = {
    "parentheses": lambda d: "(" * (d - 1) + "rho" + ")" * (d - 1),
    "powers": lambda d: "rho" + "^1" * (d - 1),
    "minus signs": lambda d: "2*rho+" + "-" * (d - 2) + "rho",
    "sum": lambda d: "+".join(["rho"] * d),
}


@pytest.mark.parametrize("shape", NESTED)
def test_depth_limit(shape):
    build = NESTED[shape]
    for depth in (MAX_DEPTH - 1, MAX_DEPTH):
        parse_potential(build(depth))
    text = build(MAX_DEPTH + 1)
    with pytest.raises(PotentialSyntaxError, match=f"deeper than {MAX_DEPTH} levels") as exc:
        parse_potential(text)
    assert 0 < exc.value.offset < len(text)
