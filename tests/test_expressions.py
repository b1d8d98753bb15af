import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefocp.expressions import (
    Binary,
    Call,
    ExpressionError,
    Literal,
    Unary,
    Variable,
    as_function,
    evaluate,
    parse_expression,
)
from wavefocp.quadrature import gamma


class TestParsing:
    def test_literal(self):
        assert parse_expression("1") == Literal(1.0)
        assert parse_expression("2.5e-3") == Literal(0.0025)

    def test_variable_and_pi(self):
        assert parse_expression("t") == Variable("t")
        assert parse_expression("pi") == Literal(math.pi)

    def test_precedence(self):
        tree = parse_expression("1 + 2 * 3")
        assert tree == Binary("+", Literal(1.0), Binary("*", Literal(2.0), Literal(3.0)))

    def test_power_right_associative(self):
        tree = parse_expression("2 ^ 3 ^ 2")
        assert evaluate(tree, np.float64(0.0)) == pytest.approx(512.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse_expression("-2^2"), np.float64(0.0)) == pytest.approx(-4.0)

    def test_function_call(self):
        tree = parse_expression("t^0.9 + gamma(1.9)")
        assert evaluate(tree, np.float64(1.0)) == pytest.approx(1.0 + gamma(1.9))

    def test_negation_and_product(self):
        tree = parse_expression("-t*(t-1)")
        assert evaluate(tree, np.float64(0.5)) == pytest.approx(0.25)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + * 2")
        assert err.value.position == 4

    @pytest.mark.parametrize("source, position", [("1 + $", 4), ("  @t", 2), ("t  #", 3)])
    def test_unexpected_character_at_its_offset(self, source, position):
        """The offset is the character's own, not that of the whitespace before
        it (which gave 3, 0 and 1)."""
        with pytest.raises(ExpressionError, match="unexpected character") as err:
            parse_expression(source)
        assert err.value.position == position
        assert str(err.value).endswith(f"(at position {position})")

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_expression("foo(3)")

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_expression("cosh(t")

    def test_empty_source(self):
        with pytest.raises(ExpressionError):
            parse_expression("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 + 2 )")


class TestEvaluation:
    def test_vectorized(self):
        f = as_function(parse_expression("sinh(t) + exp(t)/2"))
        z = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(f(z), np.sinh(z) + np.exp(z) / 2.0)

    def test_division_by_zero(self):
        f = as_function(parse_expression("1 / t"))
        with pytest.raises(ExpressionError, match="division by zero"):
            f(np.array([0.0, 0.5]))

    def test_gamma_overflows_to_inf(self):
        """Past Gamma's overflow point (x > 171.62) gamma gives +inf, as exp
        does, instead of raising OverflowError; like exp's, the overflow is
        NumPy's floating-point overflow, silent under the errstate the
        solver samples coefficients in."""
        f = as_function(parse_expression("gamma(200*t + 1)"))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            values = f(np.array([0.5, 0.86, 1.0]))
        assert values[0] == pytest.approx(math.gamma(101.0), rel=1e-15)
        assert np.isposinf(values[1:]).all()

    def test_constant_broadcasts(self):
        f = as_function(parse_expression("3.5"))
        z = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(f(z), 3.5)

    def test_gamma_domain_error_is_an_expression_error(self):
        """Gamma's own domain error is an ExpressionError, its argument a
        plain float; a nested ExpressionError passes through unwrapped."""
        f = as_function(parse_expression("1 + gamma(t - 2)"))
        with pytest.raises(ExpressionError, match=r"got -2\.0$"):
            f(np.array([0.0, 0.5]))
        g = as_function(parse_expression("gamma(1 / t)"))
        with pytest.raises(ExpressionError, match="^division by zero") as info:
            g(np.array([0.0, 0.5]))
        assert not isinstance(info.value.__cause__, ExpressionError)


class TestDepth:
    """Expressions past Python's recursion limit are refused, not crashed on."""

    @pytest.mark.parametrize("source", ["(" * 1200 + "1" + ")" * 1200, "2+" + "-" * 1200 + "1"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_parse_refused(self, source):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_expression(source)

    def test_long_sum_refused_where_evaluated(self):
        """A 3,000-term sum parses (the parser loops over terms), but its
        left-deep tree is too deep to evaluate."""
        f = as_function(parse_expression("+".join(["1"] * 3000)))
        with pytest.raises(ExpressionError, match="nested too deeply"):
            f(np.array([0.0, 0.5]))


def unparse(node) -> str:
    """Source text that parses back to the tree: every compound node in
    parentheses, literals to 17 significant digits."""
    if isinstance(node, Literal):
        return format(node.value, ".17g")
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Unary):
        return f"(-{unparse(node.operand)})"
    if isinstance(node, Binary):
        return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
    return f"{node.func}({unparse(node.arg)})"


# Recursive strategy over the grammar for round-trip testing.
_expr_strategy = st.recursive(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
            lambda v: Literal(abs(v))
        ),
        st.just(Variable("t")),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Binary(*t)
        ),
        children.map(lambda c: Unary("-", c)),
        st.tuples(st.sampled_from(["gamma", "cosh", "sinh", "exp"]), children).map(
            lambda t: Call(*t)
        ),
    ),
    max_leaves=12,
)


@given(_expr_strategy)
@settings(max_examples=120, deadline=None)
def test_print_parse_roundtrip(tree):
    assert parse_expression(unparse(tree)) == tree
