import numpy as np
import pytest

from semifem.quadrature import (QuadRule, centroid_rule, edge_midpoint_rule,
                                reference_monomial_mean, rule_of_degree,
                                seven_point_rule, shipped_rules)


@pytest.mark.parametrize("rule", shipped_rules(), ids=lambda r: r.name)
def test_weights_positive_and_normalized(rule):
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("rule", shipped_rules(), ids=lambda r: r.name)
def test_points_inside_reference_triangle(rule):
    assert np.all(rule.points >= 0.0)
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("rule", shipped_rules(), ids=lambda r: r.name)
def test_monomial_exactness(rule):
    # Brute force against the closed-form mean of x^a y^b on the reference
    # triangle; points map to (x, y) = (lambda_1, lambda_2).
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            approx = float(rule.weights @ (x ** a * y ** b))
            exact = reference_monomial_mean(a, b)
            assert abs(approx - exact) <= 1e-13 * abs(exact), (a, b, rule.name)


def test_seven_point_not_exact_beyond_declared_degree():
    rule = seven_point_rule()
    x = rule.points[:, 1]
    approx = float(rule.weights @ x ** 6)
    exact = reference_monomial_mean(6, 0)
    assert abs(approx - exact) > 1e-6 * abs(exact)


def test_rule_of_degree_selection():
    assert rule_of_degree(1).name == "centroid"
    assert rule_of_degree(2).name == "interior-three-point"
    assert rule_of_degree(3).name == "seven-point"
    assert rule_of_degree(4).name == "seven-point"
    assert rule_of_degree(5).name == "seven-point"
    with pytest.raises(ValueError):
        rule_of_degree(6)


def test_reference_monomial_mean_values():
    assert reference_monomial_mean(0, 0) == pytest.approx(1.0)
    assert reference_monomial_mean(1, 0) == pytest.approx(1 / 3)
    assert reference_monomial_mean(1, 1) == pytest.approx(1 / 12)
    assert reference_monomial_mean(2, 0) == pytest.approx(1 / 6)


def test_bad_rules_rejected():
    with pytest.raises(ValueError):
        QuadRule("bad", 1, [[1 / 3, 1 / 3, 1 / 3]], [0.5])
    with pytest.raises(ValueError):
        QuadRule("bad", 1, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.5, -0.5])
    for points, weights, message in [
            ([1 / 3, 1 / 3, 1 / 3], [1.0], r"quadrature points must be \(n, 3\) barycentric"),
            ([[0.5, 0.5]], [1.0], r"quadrature points must be \(n, 3\) barycentric"),
            ([[1 / 3, 1 / 3, 1 / 3]], [0.5, 0.5], "one weight per quadrature point required")]:
        with pytest.raises(ValueError, match=message):
            QuadRule("bad", 1, points, weights)


def test_midpoint_rule_points():
    rule = edge_midpoint_rule()
    assert len(rule) == 3
    assert centroid_rule().degree == 1
    for point in rule.points:
        assert sorted(point) == [0.0, 0.5, 0.5]
