"""Truncated power-series (Taylor jet) arithmetic.

A jet stores the coefficients a_0..a_K of the expansion

    f(rho0 + h) = a_0 + a_1 h + ... + a_K h^K,   a_k = f^(k)(rho0) / k!

Propagating jets through a potential's expression tree yields every
derivative d^n V / d rho^n at the expansion point in one pass, exact to
floating-point rounding -- no finite differencing, no symbolic algebra.
``jet_lift`` returns them checked finite as an array, row k holding a_k,
about a point or a whole array of points; ``taylor_jet`` returns them
unchecked, a point's as Python floats.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .expressions import BoundPotential, PotentialEvalError, evaluate, float_pow

__all__ = ["jet_lift", "taylor_jet"]


class _Series:
    """Truncated series used while traversing the tree, for a point or a batch.

    For a point ``c`` is the list of the K+1 coefficients, Python floats; for
    a batch it is an array of shape (K+1, *batch), row k holding the k-th
    coefficient at every expansion point, and both operands of an operation
    share one batch shape.  Each point goes through the same floating-point
    operations in the same order either way, so a batch entry equals the
    single-point result.  A pole, a non-positive base under a real power or
    an overflow gives inf or NaN in that entry instead of raising.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ndarray op series defers to the series' reflected op

    def __init__(self, coeffs):
        self.c = coeffs

    # A constant enters row 0 only.  The other rows still get 0.0 added, as
    # in the sum with a constant series: that turns -0.0 into 0.0.

    def _lift(self, other):
        """The coefficients of ``other``, a series or a constant, in self's form."""
        if isinstance(other, _Series):
            return other.c
        if isinstance(self.c, list):
            return [other] + [0.0] * (len(self.c) - 1)
        out = np.zeros_like(self.c)
        out[0] = other
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self.c, self._lift(other)
        return _Series(list(map(operator.add, a, b)) if isinstance(a, list) else a + b)

    __radd__ = __add__

    def __neg__(self):
        return _Series([-x for x in self.c] if isinstance(self.c, list) else -self.c)

    def __sub__(self, other):
        a, b = self.c, self._lift(other)
        return _Series(list(map(operator.sub, a, b)) if isinstance(a, list) else a - b)

    def __rsub__(self, other):
        a, b = self._lift(other), self.c
        return _Series(list(map(operator.sub, a, b)) if isinstance(a, list) else a - b)

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, _Series):
            return _Series([x * other for x in a] if isinstance(a, list) else a * other)
        # Cauchy product, each coefficient summed in order of a's index
        b = other.c
        if isinstance(a, list):
            out = [a[0] * x for x in b]
            for j in range(1, len(a)):
                for k in range(j, len(a)):
                    out[k] += a[j] * b[k - j]
            return _Series(out)
        out = a[0] * b
        for j in range(1, len(a)):
            out[j:] += a[j] * b[: len(a) - j]
        return _Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Series):
            return _Series(_series_div(self.c, other.c))
        a = self.c  # evaluate has ruled out a zero constant
        return _Series([x / other for x in a] if isinstance(a, list) else a / other)

    def __rtruediv__(self, other):
        return _Series(_series_div(self._lift(other), self.c))

    def __pow__(self, p: float):
        return _Series(_series_pow(self.c, float(p)))


def _series_div(n, d):
    """The coefficients of n / d; a zero constant term of d (a pole) gives inf or NaN."""
    if isinstance(d, list) and d[0] == 0.0:  # a point at a pole, where floats would raise
        with np.errstate(all="ignore"):
            return _series_div(np.array(n), np.array(d)).tolist()
    out = [0.0] * len(d) if isinstance(d, list) else np.empty_like(n)
    for k in range(len(out)):
        acc = n[k]
        for j in range(1, k + 1):
            acc = acc - d[j] * out[k - j]  # not -=: acc may view n
        out[k] = acc / d[0]
    return out


def _series_pow(f, p: float):
    """The coefficients of f^p via the standard logarithmic-derivative recurrence.

    g = f^p satisfies f g' = p f' g, giving
        k f_0 g_k = sum_{j=1..k} (j p - (k - j)) f_j g_{k-j}.
    A non-positive constant term f_0 gives NaN.
    """
    point = isinstance(f, list)
    if point and not f[0] > 0.0:  # a non-positive base, where floats would raise
        with np.errstate(all="ignore"):
            return _series_pow(np.array(f), p).tolist()
    g = [0.0] * len(f) if point else np.empty_like(f)
    g[0] = float_pow(f[0], p) if point else np.where(f[0] > 0.0, float_pow(f[0], p), np.nan)
    for k in range(1, len(f)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (j * p - (k - j)) * f[j] * g[k - j]
        g[k] = acc / (k * f[0])
    return g


def taylor_jet(bound: BoundPotential, center, order: int):
    """Taylor coefficients of ``bound`` about ``center``, a float or an array.

    Row k holds V^(k)(center) / k!, from one walk of the expression tree, as a
    list of Python floats about a float (no ``np.errstate`` needed: floats raise
    no numpy warning), else as an array of shape (order+1, *np.shape(center)).
    Unchecked: an entry where V or a derivative is undefined is inf or NaN.
    """
    if isinstance(center, float):
        seed = [float(center), 1.0, *[0.0] * order][:order + 1]
        result = evaluate(bound.spec.tree, _Series(seed), bound.values)
    else:
        seed = np.zeros((order + 1,) + np.shape(center))
        seed[0], seed[1:2] = center, 1.0
        with np.errstate(all="ignore"):
            result = evaluate(bound.spec.tree, _Series(seed), bound.values)
    # a tree reduced to a constant (e.g. rho^0) puts it in row 0
    return result.c if isinstance(result, _Series) else _Series(seed)._lift(result)


def jet_lift(bound: BoundPotential, center, order: int) -> np.ndarray:
    """Coefficients a_0..a_order of ``bound`` about ``center``, checked finite.

    ``center`` is a float or a 1-D array, as for ``taylor_jet``; the error
    names the first center whose coefficients are not all finite.
    """
    point = isinstance(center, float)
    if center <= 0.0 if point else np.any(np.less_equal(center, 0.0)):
        raise PotentialEvalError(f"expansion center must be positive, got {center}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = taylor_jet(bound, center, order)
    if point and all(map(math.isfinite, coeffs)):
        return np.array(coeffs)
    finite = np.isfinite(coeffs).all(axis=0)
    if not finite.all():
        bad = center if np.ndim(center) == 0 else float(center[np.argmin(finite)])
        raise PotentialEvalError(
            f"non-finite jet coefficients when expanding about rho={bad}"
        )
    return coeffs
