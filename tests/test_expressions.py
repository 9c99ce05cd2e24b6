"""Parser, printer, and evaluator tests for the potential language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlersym.expressions import (
    BinOp,
    Call,
    Coord,
    Neg,
    Num,
    PotentialDomainError,
    PotentialError,
    PotentialSyntaxError,
    Pow,
    eval_jet,
    parse,
    pretty,
)
from kahlersym.zoo import zoo

from helpers import eval_scalar, partials

ROUND_TRIP_SOURCES = [
    "absq(1)+absq(2)",
    "log(1+rsq)",
    "log(1 + absq(1))",
    "-log(1-rsq)",
    "log(1+absq(1)) + 2*log(1+absq(2))",
    "absq(1)+absq(2)+0.1*absq(1)*absq(2)",
    "x1^2+y1^2",
    "x1*y2 - y1*x2",
    "(x1+y1)^3",
    "x1^2*y1^3 - 4*x2",
    "exp(x1)+exp(-x1)",
    "sqrt(1+absq(1))",
    "1/(1+rsq)",
    "x1/(1+y1^2)",
    "2.5*x1 - 0.125",
    "-(x1+y1)",
    "-x1^2",
    "x1 - y1 - x2",
    "x1 - (y1 - x2)",
    "x1*(y1+x2)",
    "log(exp(absq(1)))",
    "x1^-2",
    "((x1))",
    "1e-3*x1 + 2E2",
    "absq(2)^2",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_pretty_round_trip(source):
    """pretty is a fixed point: parse(pretty(e)) == e, textually idempotent."""
    tree = parse(source, 2)
    text = pretty(tree)
    again = parse(text, 2)
    assert again == tree
    assert pretty(again) == text


def test_macro_expansion_absq():
    assert parse("absq(1)", 2) == parse("x1^2 + y1^2", 2)
    assert parse("absq(2)", 2) == parse("x2^2 + y2^2", 2)


def test_macro_expansion_rsq():
    assert parse("rsq", 3) == parse("x1^2+y1^2 + (x2^2+y2^2) + (x3^2+y3^2)", 3)
    assert parse("rsq", 1) == parse("absq(1)", 1)


def test_precedence_and_associativity():
    assert parse("x1+y1*x2", 2) == BinOp(
        "+", Coord("x", 1), BinOp("*", Coord("y", 1), Coord("x", 2))
    )
    # left-assoc subtraction
    assert parse("x1-y1-x2", 2) == BinOp(
        "-", BinOp("-", Coord("x", 1), Coord("y", 1)), Coord("x", 2)
    )
    # unary minus binds looser than ^
    assert parse("-x1^2", 1) == Neg(Pow(Coord("x", 1), 2))
    assert parse("(x1+y1)*x2", 2) == BinOp(
        "*", BinOp("+", Coord("x", 1), Coord("y", 1)), Coord("x", 2)
    )


def test_parenthesized_pretty_keeps_grouping():
    grouped = parse("x1-(y1-x2)", 2)
    flat = parse("x1-y1-x2", 2)
    assert grouped != flat
    assert eval_scalar(grouped, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1 - (3 - 2))
    assert eval_scalar(flat, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1 - 3 - 2)


@pytest.mark.parametrize(
    "source, line, column",
    [
        ("x1 +", 1, 5),
        ("log(x1", 1, 7),
        ("(x1))", 1, 5),
        ("x1 @ y1", 1, 4),
        ("x1 ** 2", 1, 5),
        ("\n  x1 + + y1", 2, 8),
        ("absq(1) + log(x1 - 1e999)", 1, 20),
        ("x1 *\n .5E400", 2, 2),
    ],
)
def test_syntax_error_position(source, line, column):
    with pytest.raises(PotentialSyntaxError) as exc:
        parse(source, 2)
    assert exc.value.line == line
    assert exc.value.column == column
    assert f"line {line}, column {column}" in str(exc.value)


def test_literal_that_overflows_a_float():
    with pytest.raises(PotentialSyntaxError, match="number '1e999' overflows a float"):
        parse("1e999", 1)
    assert parse("1.7e308 + 1e-999", 1) == BinOp("+", Num(1.7e308), Num(0.0))


def test_unknown_identifier():
    with pytest.raises(PotentialSyntaxError, match="unknown identifier 'foo'"):
        parse("foo + 1", 2)
    with pytest.raises(PotentialSyntaxError, match="unknown identifier 'z1'"):
        parse("z1^2", 2)


def test_coordinate_out_of_range():
    with pytest.raises(PotentialSyntaxError, match="out of range for n=2"):
        parse("x3", 2)
    with pytest.raises(PotentialSyntaxError, match="out of range for n=1"):
        parse("absq(2)", 1)
    with pytest.raises(PotentialSyntaxError, match="out of range"):
        parse("y0", 3)


def test_exponent_must_be_integer_literal():
    with pytest.raises(PotentialSyntaxError, match="integer literal"):
        parse("x1^0.5", 1)
    with pytest.raises(PotentialSyntaxError, match="integer literal"):
        parse("x1^y1", 1)
    assert parse("x1^-2", 1) == Pow(Coord("x", 1), -2)


def test_bad_dimension_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        parse("x1", 0)


def test_parse_keeps_one_tree_per_source_and_n():
    tree = parse("log(1+rsq)", 2)
    assert parse("log(1+rsq)", 2) is tree
    assert parse("log(1+rsq)", 3) is not tree
    assert parse("log(1+rsq)", 3) == parse("log(1 + rsq)", 3)
    assert parse("log(1 + rsq)", 3) is not parse("log(1+rsq)", 3)
    # Errors are raised on every call, never kept.
    for _ in range(2):
        with pytest.raises(PotentialSyntaxError, match="line 1, column 9"):
            parse("x1 + (y1", 1)
        with pytest.raises(ValueError, match="at least 1"):
            parse("x1", 0)


EVAL_CASES = [
    ("log(1+rsq)", 2),
    ("absq(1)+absq(2)+0.1*absq(1)*absq(2)", 2),
    ("sqrt(4+x1^2) / (2 + y1)", 1),
    ("exp(x1*y1) - x1^3", 1),
    ("-log(1-rsq)", 2),
    ("x1^-2 + y2^4", 2),
]


@pytest.mark.parametrize("source, n", EVAL_CASES)
def test_eval_scalar_matches_jet_value(source, n):
    tree = parse(source, n)
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        point = rng.uniform(0.1, 0.4, size=2 * n)
        direct = eval_scalar(tree, point)
        jet = eval_jet(tree, point, order=3)
        assert jet.value == pytest.approx(direct, rel=1e-14, abs=1e-14)


def test_jet_gradient_of_log_potential():
    # d/dx1 log(1+x1^2+y1^2) = 2 x1 / (1+x1^2+y1^2)
    tree = parse("log(1+rsq)", 1)
    point = np.array([0.3, -0.2])
    jet = eval_jet(tree, point, order=2)
    denom = 1 + 0.3**2 + 0.2**2
    assert partials(jet, 1)[0] == pytest.approx(0.6 / denom, rel=1e-13)
    assert partials(jet, 1)[1] == pytest.approx(-0.4 / denom, rel=1e-13)


def test_eval_scalar_number_and_whitespace_forms():
    assert eval_scalar(parse("1e-3*x1 + 2E2", 1), [2.0, 0.0]) == pytest.approx(200.002)
    assert eval_scalar(parse("  x1\n\t+ y1 ", 1), [1.5, 2.5]) == pytest.approx(4.0)


def test_domain_error_log():
    tree = parse("log(x1)", 1)
    with pytest.raises(PotentialDomainError) as exc:
        eval_scalar(tree, [-1.0, 0.0])
    assert pretty(exc.value.subexpression) == "x1"
    with pytest.raises(PotentialDomainError):
        eval_jet(tree, [0.0, 0.0], order=2)


def test_domain_error_sqrt_and_reciprocal():
    with pytest.raises(PotentialDomainError):
        eval_scalar(parse("sqrt(x1)", 1), [-4.0, 0.0])
    bad = parse("1/(x1-1)", 1)
    with pytest.raises(PotentialDomainError) as exc:
        eval_scalar(bad, [1.0, 0.0])
    assert pretty(exc.value.subexpression) == "x1-1"
    with pytest.raises(PotentialDomainError):
        eval_jet(bad, [1.0, 0.0], order=2)


def test_domain_error_negative_power_at_zero():
    tree = parse("x1^-1", 1)
    with pytest.raises(PotentialDomainError):
        eval_scalar(tree, [0.0, 0.0])
    with pytest.raises(PotentialDomainError):
        eval_jet(tree, [0.0, 0.0], order=2)


@pytest.mark.parametrize("source, sub", [("1/x1", "x1"), ("x1^-2", "x1^-2")])
def test_zero_division_names_the_value(source, sub):
    """Division by zero names the value, sign included, at the first point
    in stack order where it happens, like every other domain message."""
    points = [[0.5, 1.0], [-0.0, 1.0], [0.0, 2.0]]
    with pytest.raises(PotentialDomainError) as exc:
        eval_jet(parse(source, 1), points, order=3)
    assert str(exc.value) == f"division by zero value -0.0 in sub-expression `{sub}`"
    assert pretty(exc.value.subexpression) == sub


@pytest.mark.parametrize("source, message, sub", [
    ("log(x1-1)", "log of non-positive value 0.0", "x1-1"),
    ("exp(1000*x1)", "exp of 1000.0 overflows a float", "1000*x1"),
    ("sqrt(x1-1)", "sqrt of non-positive value 0.0", "x1-1"),
    ("1/(x1-1)", "division by zero value 0.0", "x1-1"),
    ("(x1-1)^-2", "division by zero value 0.0", "(x1-1)^-2"),
    ("log(1e-100*x1)", "log of 1e-100 has Taylor coefficients outside the float range",
     "1e-100*x1"),
    ("1/(1e100*x1)", "reciprocal of 1e+100 has Taylor coefficients outside the float range",
     "1e+100*x1"),
])
def test_domain_error_blames_by_node_kind(source, message, sub):
    """A call blames its argument, a quotient its divisor and a negative
    power the power itself."""
    with pytest.raises(PotentialDomainError) as exc:
        eval_jet(parse(source, 1), [1.0, 0.0], order=5)
    assert str(exc.value) == f"{message} in sub-expression `{sub}`"
    assert pretty(exc.value.subexpression) == sub


def test_domain_error_is_potential_error():
    assert issubclass(PotentialDomainError, PotentialError)
    assert issubclass(PotentialSyntaxError, PotentialError)
    assert issubclass(PotentialError, ValueError)


def test_eval_point_dimension_mismatch():
    tree = parse("x2", 2)
    with pytest.raises(PotentialError, match="needs n >= 2"):
        eval_jet(tree, [1.0, 2.0], order=1)


# random expression trees: pretty then parse must reproduce the tree exactly


def _exprs(n):
    leaves = st.one_of(
        st.integers(0, 9).map(lambda v: Num(float(v))),
        st.sampled_from(
            [Coord(axis, k) for axis in "xy" for k in range(1, n + 1)]
        ),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(1, 3)).map(lambda t: Pow(t[0], t[1])),
            children.map(lambda e: Call("exp", e)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_exprs(2))
def test_pretty_parse_inverse_on_random_trees(tree):
    assert parse(pretty(tree), 2) == tree


# -- a point axis: a stack of points expands as each point alone ----------------

EXTRA_POTENTIALS = [
    ("exp(rsq) + x1*y2", 2),
    ("sqrt(2+rsq) - y1^3", 2),
    ("1/(3-rsq) + x2/(2+y1)", 2),
    ("rsq^-2 + (1+absq(1))^-3", 2),
    ("log(1+rsq)", 3),
    ("-(x1^3*y2) - exp(rsq)", 2),  # zero coefficients of both signs
    ("-(x1*y2) - x2^4", 2),
]


@pytest.mark.parametrize(
    "source, n",
    [(spec.potential_source, spec.n) for spec in zoo().values()] + EXTRA_POTENTIALS,
)
def test_eval_jet_over_points_matches_each_point(source, n):
    tree = parse(source, n)
    points = np.random.default_rng(n).uniform(-0.6, 0.6, size=(7, 2 * n))
    points[3, 0] = 0.0  # a zero coordinate gives exact zero coefficients
    for order in (3, 5):
        stacked = eval_jet(tree, points, order).coeffs
        singles = np.stack([eval_jet(tree, p, order).coeffs for p in points])
        assert stacked.shape == singles.shape
        assert np.array_equal(stacked, singles), (source, order)
        assert np.array_equal(np.signbit(stacked), np.signbit(singles)), (source, order)


def test_eval_jet_of_a_constant_carries_the_point_axis():
    jet = eval_jet(parse("2.5", 1), np.zeros((4, 2)), order=2)
    assert jet.coeffs.shape == (4, 6)
    assert np.array_equal(jet.value, np.full(4, 2.5))


@pytest.mark.parametrize("source, bad", [
    ("rsq + log(x1 - 0.2)", [0.1, 0.3, 0.0, 0.0]),
    ("rsq + sqrt(y1)", [0.3, 0.0, -0.5, 0.2]),
    ("rsq + 1/(x1*y2)", [0.0, 0.3, 0.1, 0.2]),
    ("rsq + x2^-2", [0.1, 0.0, 0.1, 0.2]),
])
def test_domain_error_over_points_names_the_per_point_subexpression(source, bad):
    tree = parse(source, 2)
    with pytest.raises(PotentialDomainError) as alone:
        eval_jet(tree, bad, order=3)
    points = np.array([[0.5, 0.4, 0.3, 0.2], bad, [0.6, 0.5, 0.4, 0.3]])
    with pytest.raises(PotentialDomainError) as stacked:
        eval_jet(tree, points, order=3)
    assert stacked.value.subexpression == alone.value.subexpression
    assert str(stacked.value) == str(alone.value)


def test_float_range_failure_is_a_domain_error():
    for source in ("rsq + log(1e-100*rsq)", "1/(1e-100*rsq)",
                   "log(1e100*rsq)", "1/(1e100*rsq)"):
        with pytest.raises(PotentialDomainError, match="outside the float range") as exc:
            eval_jet(parse(source, 2), [0.7] * 4, 5)
        assert pretty(exc.value.subexpression).startswith("1e")
