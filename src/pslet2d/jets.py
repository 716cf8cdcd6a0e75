"""Truncated power-series (Taylor jet) arithmetic.

A jet stores the coefficients a_0..a_K of the expansion

    f(rho0 + h) = a_0 + a_1 h + ... + a_K h^K,   a_k = f^(k)(rho0) / k!

Propagating jets through a potential's expression tree yields every
derivative d^n V / d rho^n at the expansion point in one pass, exact to
floating-point rounding -- no finite differencing, no symbolic algebra.
The coefficients are a list of K+1 entries: Python floats about a point, or
arrays of the batch's shape about an array of points.  ``taylor_jet``
returns that list unchecked; ``jet_lift`` returns it checked finite as one
array, row k holding a_k.
"""

from __future__ import annotations

import operator

import numpy as np

from .expressions import BoundPotential, PotentialEvalError, evaluate, float_pow

__all__ = ["jet_lift", "taylor_jet"]


class _Series:
    """Truncated series used while traversing the tree, for a point or a batch.

    ``c`` is the list of the K+1 coefficients: Python floats for a point, or
    arrays that all have the batch's shape, entry k holding the k-th
    coefficient at every expansion point.  Every operation runs the same code
    on either, so a batch entry goes through the same floating-point
    operations in the same order as the single-point result, and equals it.
    A pole, a non-positive base under a real power or an overflow gives inf or
    NaN in that entry instead of raising.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None  # ndarray op series defers to the series' reflected op

    def __init__(self, coeffs):
        self.c = coeffs

    # A constant enters entry 0 only.  The other entries still get 0.0 added,
    # as in the sum with a constant series: that turns -0.0 into 0.0.

    def _lift(self, other):
        """The coefficients of ``other``, a series or a constant."""
        if isinstance(other, _Series):
            return other.c
        return [other] + [0.0] * (len(self.c) - 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return _Series(list(map(operator.add, self.c, self._lift(other))))

    __radd__ = __add__

    def __neg__(self):
        return _Series([-x for x in self.c])

    def __sub__(self, other):
        return _Series(list(map(operator.sub, self.c, self._lift(other))))

    def __rsub__(self, other):
        return _Series(list(map(operator.sub, self._lift(other), self.c)))

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, _Series):
            return _Series([x * other for x in a])
        # Cauchy product, each coefficient summed in order of a's index
        b = other.c
        out = [a[0] * x for x in b]
        for j in range(1, len(a)):
            for k in range(j, len(a)):
                # not +=: a term may broadcast out[k] (rho-only terms of a scan)
                out[k] = out[k] + a[j] * b[k - j]
        return _Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Series):
            return _Series(_series_div(self.c, other.c))
        return _Series([x / other for x in self.c])  # evaluate has ruled out a zero constant

    def __rtruediv__(self, other):
        return _Series(_series_div(self._lift(other), self.c))

    def __pow__(self, p: float):
        return _Series(_series_pow(self.c, float(p)))


def _on_numpy_scalars(op, *series):
    """``op`` on a point's coefficients as numpy scalars: inf or NaN where floats raise."""
    with np.errstate(all="ignore"):
        return [float(x) for x in op(*([np.float64(x) for x in c] for c in series))]


def _series_div(n, d):
    """The coefficients of n / d; a zero constant term of d (a pole) gives inf or NaN."""
    if type(d[0]) is float and d[0] == 0.0:  # a point at a pole, where floats would raise
        return _on_numpy_scalars(_series_div, n, d)
    out = []
    for k in range(len(d)):
        acc = n[k]
        for j in range(1, k + 1):
            acc = acc - d[j] * out[k - j]  # not -=: acc may be n's array
        out.append(acc / d[0])
    return out


def _series_pow(f, p: float):
    """The coefficients of f^p via the standard logarithmic-derivative recurrence.

    g = f^p satisfies f g' = p f' g, giving
        k f_0 g_k = sum_{j=1..k} (j p - (k - j)) f_j g_{k-j}.
    A non-positive constant term f_0 gives NaN.
    """
    if type(f[0]) is float and not f[0] > 0.0:  # a point at a non-positive base, as above
        return _on_numpy_scalars(lambda f: _series_pow(f, p), f)
    ok = f[0] > 0.0
    g = [float_pow(f[0] * ok / ok, p)]  # ok / ok is 1, or 0 / 0 = NaN at a non-positive base
    for k in range(1, len(f)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + (j * p - (k - j)) * f[j] * g[k - j]
        g.append(acc / (k * f[0]))
    return g


def taylor_jet(bound: BoundPotential, center, order: int) -> list:
    """Taylor coefficients of ``bound`` about ``center``, a float or an array.

    Entry k holds V^(k)(center) / k!, from one walk of the expression tree:
    a Python float about a Python float (no ``np.errstate`` needed: those
    raise no numpy warning), else a numpy value of ``center``'s shape.
    Entries may share memory with ``center`` and with each other: read only.
    Unchecked: an entry where V or a derivative is undefined is inf or NaN.
    """
    one = center ** 0.0  # 1.0, or ones of center's shape
    seed = _Series([center, one, *[0.0 * one] * (order - 1)][:order + 1])
    if type(center) is float:
        result = evaluate(bound.spec.tree, seed, bound.values)
    else:
        with np.errstate(all="ignore"):
            result = evaluate(bound.spec.tree, seed, bound.values)
    if isinstance(result, _Series):
        return result.c
    return [result * one] + [0.0 * one] * order  # a tree reduced to a constant (e.g. rho^0)


def jet_lift(bound: BoundPotential, center, order: int) -> np.ndarray:
    """Coefficients a_0..a_order of ``bound`` about ``center``, checked finite.

    ``center`` is a float or a 1-D array, as for ``taylor_jet``, and row k of
    the result holds a_k; the error names the first center whose
    coefficients are not all finite.
    """
    if np.less_equal(center, 0.0).any():
        raise PotentialEvalError(f"expansion center must be positive, got {center}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = np.array(taylor_jet(bound, center, order))
    if not np.isfinite(coeffs).all():
        finite = np.isfinite(coeffs).all(axis=0)
        bad = center if np.ndim(center) == 0 else float(center[np.argmin(finite)])
        raise PotentialEvalError(
            f"non-finite jet coefficients when expanding about rho={bad}"
        )
    return coeffs
