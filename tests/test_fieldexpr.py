import numpy as np
import pytest

from doublephase.errors import ConfigError
from doublephase.fieldexpr import as_field_function, parse_field_expression


def test_constant_and_coordinates():
    f = parse_field_expression("2", 3)
    assert f(0.5, 0.5, 0.5) == 2
    f = parse_field_expression("x1 + 2*x3", 3)
    assert f(1.0, 9.0, 0.25) == 1.5
    with pytest.raises(ValueError, match="expected 3 coordinate arrays, got 2"):
        f(1.0, 9.0)


def test_functions_and_pi():
    f = parse_field_expression("2 + 0.5*sin(pi*x1)", 2)
    assert abs(f(0.5, 0.0) - 2.5) < 1e-15
    assert abs(f(0.0, 0.0) - 2.0) < 1e-15
    g = parse_field_expression("exp(-x1) + cos(x2)", 2)
    assert abs(g(0.0, 0.0) - 2.0) < 1e-15


def test_vectorized_evaluation():
    f = parse_field_expression("x1 - x2", 2)
    x = np.linspace(0, 1, 5)
    out = f(x, 2 * x)
    assert np.allclose(out, -x)


def test_unary_signs():
    f = parse_field_expression("-x1 + +2", 1)
    assert f(0.5) == 1.5


@pytest.mark.parametrize(
    "bad",
    [
        "2+", "x4", "foo(x1)", "x1/x2", "x1**2", "__import__('os')", "'s'", "lambda: 0",
        "~x1", "sin(x1, x2)",
    ],
)
def test_rejects_with_diagnostic(bad):
    with pytest.raises(ConfigError) as err:
        parse_field_expression(bad, 3)
    assert "column" in str(err.value)


def test_as_field_function_accepts_numbers_and_callables():
    f = as_field_function(2.5, 2)
    assert np.allclose(f(np.zeros(3), np.zeros(3)), 2.5)
    g = as_field_function(lambda x, y: x + y, 2)
    assert g(1.0, 2.0) == 3.0
    with pytest.raises(ConfigError):
        as_field_function(object(), 2)
