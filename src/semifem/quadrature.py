"""Symmetric quadrature rules on triangles in barycentric form.

Weights are normalized to sum to one, i.e. a rule approximates the mean
value of the integrand over the triangle; multiply by the triangle area
to integrate. Each rule is exact for bivariate polynomials up to its
declared degree.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule given by barycentric points and normalized weights."""

    name: str
    degree: int
    points: np.ndarray   # (n, 3) barycentric coordinates
    weights: np.ndarray  # (n,) positive, summing to 1

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("quadrature points must be (n, 3) barycentric")
        if weights.shape != (points.shape[0],):
            raise ValueError("one weight per quadrature point required")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.points.shape[0]


def centroid_rule():
    """One-point rule at the barycenter, exact for degree 1."""
    return QuadRule("centroid", 1, [[1 / 3, 1 / 3, 1 / 3]], [1.0])


def edge_midpoint_rule():
    """Three-point rule at the edge midpoints, exact for degree 2."""
    points = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    return QuadRule("edge-midpoint", 2, points, [1 / 3, 1 / 3, 1 / 3])


def interior_three_point_rule():
    """Three-point rule at the permutations of (2/3, 1/6, 1/6), exact for degree 2.

    The points lie inside the triangle (Strang & Fix 1973, section 4.3).
    """
    a, b = 2.0 / 3.0, 1.0 / 6.0
    points = [[a, b, b], [b, a, b], [b, b, a]]
    return QuadRule("interior-three-point", 2, points, [1 / 3, 1 / 3, 1 / 3])


def seven_point_rule():
    """Seven-point rule (centroid plus two symmetric orbits), exact for degree 5."""
    s = math.sqrt(15.0)
    a1 = (6.0 - s) / 21.0
    a2 = (6.0 + s) / 21.0
    w1 = (155.0 - s) / 1200.0
    w2 = (155.0 + s) / 1200.0
    points = [[1 / 3, 1 / 3, 1 / 3]]
    weights = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        points += [[a, a, b], [a, b, a], [b, a, a]]
        weights += [w, w, w]
    return QuadRule("seven-point", 5, points, weights)


def shipped_rules():
    """All rules the package ships, in increasing degree.

    Of two rules of one degree the first is the one `rule_of_degree` picks.
    """
    return (centroid_rule(), interior_three_point_rule(), edge_midpoint_rule(),
            seven_point_rule())


def rule_of_degree(degree):
    """Cheapest shipped rule exact at least to the requested degree."""
    for rule in shipped_rules():
        if rule.degree >= degree:
            return rule
    raise ValueError(f"no shipped quadrature rule of degree >= {degree}")


def reference_monomial_mean(a, b):
    """Exact mean value of x^a y^b over the reference triangle.

    The triangle has vertices (0,0), (1,0), (0,1); the mean is the integral
    divided by the area 1/2, so a normalized rule of sufficient degree
    reproduces this value exactly.
    """
    return 2.0 * math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
