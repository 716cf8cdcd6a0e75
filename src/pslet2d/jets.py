"""Truncated power-series (Taylor jet) arithmetic.

A jet stores the coefficients a_0..a_K of the expansion

    f(rho0 + h) = a_0 + a_1 h + ... + a_K h^K,   a_k = f^(k)(rho0) / k!

Propagating jets through a potential's expression tree yields every
derivative d^n V / d rho^n at the expansion point in one pass, exact to
floating-point rounding -- no finite differencing, no symbolic algebra.
Both entry points return plain coefficient arrays, row k holding a_k:
``jet_lift`` with every entry checked finite, and ``taylor_coeffs``
unchecked, each about a point or a whole array of points.
"""

from __future__ import annotations

import numpy as np

from .expressions import BoundPotential, PotentialEvalError, evaluate, float_pow

__all__ = ["jet_lift", "taylor_coeffs"]


class _Series:
    """Truncated series used while traversing the tree, for a point or a batch.

    ``c`` has shape (K+1, *batch): row k holds the k-th coefficient at every
    expansion point, and both operands of an operation share one batch shape.
    Each point goes through the same floating-point operations in the same
    order whatever the batch shape, so a batch entry equals the single-point
    result; a point's recurrences run on Python floats, a batch's on numpy
    rows.  A pole, a non-positive base under a real power or an overflow
    gives inf or NaN in that entry instead of raising.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ndarray op series defers to the series' reflected op

    def __init__(self, coeffs: np.ndarray):
        self.c = coeffs

    # -- ring operations ----------------------------------------------------

    # A constant enters row 0 only.  The other rows still get 0.0 added, as
    # in the sum with a constant series: that turns -0.0 into 0.0.

    def __add__(self, other):
        if isinstance(other, _Series):
            return _Series(self.c + other.c)
        out = self.c + 0.0
        out[0] = self.c[0] + other
        return _Series(out)

    __radd__ = __add__

    def __neg__(self):
        return _Series(-self.c)

    def __sub__(self, other):
        if isinstance(other, _Series):
            return _Series(self.c - other.c)
        out = self.c - 0.0
        out[0] = self.c[0] - other
        return _Series(out)

    def __rsub__(self, other):
        out = 0.0 - self.c
        out[0] = other - self.c[0]
        return _Series(out)

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series(self.c * other)
        # Cauchy product, each coefficient summed in order of a's index
        a, b = self.c, other.c
        if a.ndim == 1:  # a point: the same sums on Python floats
            a, b = a.tolist(), b.tolist()
            out = [a[0] * x for x in b]
            for j in range(1, len(a)):
                for k in range(j, len(a)):
                    out[k] += a[j] * b[k - j]
            return _Series(np.array(out))
        out = a[0] * b
        for j in range(1, len(a)):
            out[j:] += a[j] * b[: len(a) - j]
        return _Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Series):
            return _Series(self.c / other)
        return _series_div(self, other)

    def __rtruediv__(self, other):
        num = np.zeros_like(self.c)
        num[0] = other
        return _series_div(_Series(num), self)

    def __pow__(self, p: float):
        return _series_pow(self, float(p))


def _series_div(num: _Series, den: _Series) -> _Series:
    """num / den; a zero constant term of den (a pole) gives inf or NaN."""
    n, d, out = num.c, den.c, np.empty_like(num.c)
    if d.ndim == 1 and d[0] != 0.0:  # a point off a pole: Python floats
        n, d, out = n.tolist(), d.tolist(), out.tolist()
    for k in range(len(out)):
        acc = n[k]
        for j in range(1, k + 1):
            acc = acc - d[j] * out[k - j]  # not -=: acc may view num.c
        out[k] = acc / d[0]
    return _Series(np.asarray(out))


def _series_pow(base: _Series, p: float) -> _Series:
    """Real power of a series via the standard logarithmic-derivative recurrence.

    g = f^p satisfies f g' = p f' g, giving
        k f_0 g_k = sum_{j=1..k} (j p - (k - j)) f_j g_{k-j}.
    A non-positive constant term f_0 gives NaN.
    """
    f = base.c
    g = np.empty_like(f)
    g[0] = np.where(f[0] > 0.0, float_pow(f[0], p), np.nan)
    if f.ndim == 1 and f[0] > 0.0:  # a point with a positive base: Python floats
        f, g = f.tolist(), g.tolist()
    for k in range(1, len(f)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (j * p - (k - j)) * f[j] * g[k - j]
        g[k] = acc / (k * f[0])
    return _Series(np.asarray(g))


def taylor_coeffs(bound: BoundPotential, center, order: int) -> np.ndarray:
    """Taylor coefficients of ``bound`` about ``center``, a float or an array.

    Returns shape (order+1, *np.shape(center)), entry [k, i] being
    V^(k)(center[i]) / k!, from one walk of the expression tree.  Unchecked:
    an entry where V or a derivative is undefined is inf or NaN.
    """
    seed = np.zeros((order + 1,) + np.shape(center))
    seed[0] = center
    if order >= 1:
        seed[1] = 1.0
    with np.errstate(all="ignore"):
        result = evaluate(bound.spec.tree, _Series(seed), bound.values)
    if isinstance(result, _Series):
        return result.c
    coeffs = np.zeros_like(seed)  # the tree reduced to a constant (e.g. rho^0)
    coeffs[0] = result
    return coeffs


def jet_lift(bound: BoundPotential, center, order: int) -> np.ndarray:
    """Coefficients a_0..a_order of ``bound`` about ``center``, checked finite.

    ``center`` is a float or a 1-D array, as for ``taylor_coeffs``; the error
    names the first center whose coefficients are not all finite.
    """
    if np.any(np.less_equal(center, 0.0)):
        raise PotentialEvalError(f"expansion center must be positive, got {center}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = taylor_coeffs(bound, center, order)
    finite = np.isfinite(coeffs).all(axis=0)
    if not finite.all():
        bad = center if np.ndim(center) == 0 else float(center[np.argmin(finite)])
        raise PotentialEvalError(
            f"non-finite jet coefficients when expanding about rho={bad}"
        )
    return coeffs
