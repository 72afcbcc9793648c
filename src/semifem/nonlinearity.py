"""Monotone reaction terms d(x, u), including non-Lipschitz power laws.

A nonlinearity is any callable evaluated as d(x, y, u) on coordinate and
value arrays that is monotone non-decreasing in u for every fixed point.
Evaluation must be reentrant; the classes here are immutable.
"""

from dataclasses import dataclass

import numpy as np

MONOTONE_TOL = 1e-12


class Nonlinearity:
    """Base class for pointwise reaction terms.

    Monotonicity in u is not declared but sampled by `check_monotone`.
    """

    def __call__(self, x, y, u):
        raise NotImplementedError

    def describe(self):
        return type(self).__name__


def _as_pointwise(value):
    """Wrap constants so that weight/shift fields act as callables."""
    if callable(value):
        return value, True
    return float(value), False


class PowerLaw(Nonlinearity):
    """Shifted, weighted sign-power law.

        d(x, u) = weight(x) * scale * sgn(u - shift(x)) * |u - shift(x)|**exponent

    with exponent in (0, 1], scale > 0 and weight >= 0. The exponent 1
    gives a globally Lipschitz (linear) term; smaller exponents have an
    unbounded difference quotient at the kink u = shift(x). sgn(0) = 0
    keeps evaluation exactly zero at the kink.

    Parameters
    ----------
    scale : float
    exponent : float
    shift, weight : float or callable
        Constants or pointwise functions of (x, y).
    """

    def __init__(self, scale=1.0, exponent=1.0, shift=0.0, weight=1.0):
        if not scale > 0.0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        if not 0.0 < exponent <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {exponent!r}")
        self.scale = float(scale)
        self.exponent = float(exponent)
        self._shift, self._shift_callable = _as_pointwise(shift)
        self._weight, self._weight_callable = _as_pointwise(weight)
        if not self._weight_callable and self._weight < 0.0:
            raise ValueError("constant weight must be nonnegative")

    def __call__(self, x, y, u):
        psi = self._shift(x, y) if self._shift_callable else self._shift
        phi = self._weight(x, y) if self._weight_callable else self._weight
        t = u - psi
        return phi * self.scale * np.sign(t) * np.abs(t) ** self.exponent

    def describe(self):
        shift = "shift(x)" if self._shift_callable else f"{self._shift:g}"
        weight = "weight(x)" if self._weight_callable else f"{self._weight:g}"
        return (f"power_law(scale={self.scale:g}, exponent={self.exponent:g}, "
                f"shift={shift}, weight={weight})")


class CutNonlinearity(Nonlinearity):
    """A nonlinearity clamped to its values at -M and M outside [-M, M].

    Coincides with the base term on [-M, M] and is constant beyond, so it
    inherits monotonicity.
    """

    def __init__(self, base, bound):
        if not bound > 0.0:
            raise ValueError(f"cut bound must be positive, got {bound!r}")
        self.base = base
        self.bound = float(bound)

    def __call__(self, x, y, u):
        return self.base(x, y, np.clip(u, -self.bound, self.bound))

    def describe(self):
        base = self.base.describe() if hasattr(self.base, "describe") else repr(self.base)
        return f"cut({base}, M={self.bound:g})"


def cut(d, bound):
    """Clamp a nonlinearity outside [-bound, bound]."""
    return CutNonlinearity(d, bound)


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of a monotonicity spot check.

    `witness` holds (x, y, u_lo, u_hi, d_lo, d_hi) for the first detected
    violation, or None when the check passed.
    """

    passed: bool
    witness: tuple = None

    def __bool__(self):
        return self.passed


def check_monotone(d, sample_points, u_range, n):
    """Sample d at sorted u values and report the first monotonicity violation.

    Parameters
    ----------
    d : callable
        Evaluated as d(x, y, u).
    sample_points : iterable
        (x, y) pairs where the u-slices are examined.
    u_range : tuple
        (u_min, u_max) interval to sample.
    n : int
        Number of u samples per point, at least 2.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    lo, hi = float(u_range[0]), float(u_range[1])
    ugrid = np.linspace(lo, hi, n)
    for px, py in sample_points:
        x = np.full(n, float(px))
        y = np.full(n, float(py))
        values = np.asarray(d(x, y, ugrid), dtype=float)
        drops = values[:-1] > values[1:] + MONOTONE_TOL
        if np.any(drops):
            i = int(np.argmax(drops))
            return MonotoneReport(False, (float(px), float(py),
                                          float(ugrid[i]), float(ugrid[i + 1]),
                                          float(values[i]), float(values[i + 1])))
    return MonotoneReport(True)
