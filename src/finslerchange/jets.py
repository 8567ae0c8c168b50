"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet holds the Taylor coefficients of a scalar quantity with respect to a
set of active variables, truncated at a chosen total degree.  Arithmetic on
Jets propagates coefficients through every elementary operation, so any
mixed partial derivative up to the truncation order can be read off exactly
(standard floating-point rounding aside) -- no step-size choices, no
cancellation blowup.

Coefficients are stored densely in graded lexicographic multi-index order,
which makes truncation to a lower order a prefix slice and keeps the
per-operation cost a single vectorized gather/scatter.  That layout is
private to this module: callers read derivatives with ``Jet.partials``
(all partials of one order as an array) or ``Jet.deriv`` (a derivative
that is itself a jet).

A space may also cap the x-degree, the degree in the first half of its
variables (the x of jets over ``(x, y)``): ``lift(values, order, xcap)``.
The monomials above the cap form an ideal, so every coefficient a capped
jet keeps is exact, and it is bit for bit the uncapped jet's: a product
sums, for each kept coefficient, the same pairs in the same order.  A
derivative along an x variable lowers the cap by one, and one along a y
variable keeps it; a cap at or above the order is the uncapped space.
``partials`` gives NaN for a derivative above the cap.

Arithmetic stays inside one space: ``+``, ``-`` and ``*`` of jets of
different variable counts, orders or caps raise ``ValueError``.  Callers
cut inputs with ``Jet.truncated(order, xcap)``, which commutes bit for
bit with all three.

A jet may carry a trailing point axis: coefficients of shape ``(size,)``
hold one point, ``(size, P)`` a block of P points (more trailing axes,
such as an index axis after the point axis, count as one flattened
point axis in products and derivatives), and every operation
acts on each point's column as it would on that point alone, bit for bit
(the vector forward mode of Griewank & Walther, *Evaluating
Derivatives*, 2008).  Jets of one point and of a block do not combine.
The block product is a ``bincount`` over slices of the point axis
(``PRODUCT_BUDGET``), whose bins each take their pairs in ``mul_table``
order from +0.0, as the one-point product's bins do.  A product larger
than one budget leaves out the pairs with a factor row that is zero at
every point, the structural zeros of a block's jets, as the recording
jets of ``straight_line`` do: a sum from +0.0 is never -0.0, so a +-0.0
term leaves its bits.  That holds only where the other factor is
finite, so a factor with an inf or a NaN takes every pair.  Series
coefficients of ``reciprocal``, ``sqrt``, ``exp``, ``log``, ``sin``,
``cos`` and ``powf`` are computed in Python floats and ``math``, because
numpy's vector ``exp``, ``log`` and ``power`` round differently; a block
takes them by columns, each term one list over its points, after one
check of the domain, and point by point where a value fails it or a
term overflows, so that the first point that fails raises its error.
``jet_linear_solve`` picks each point's pivot as Python's ``max`` would,
for all points of a block at once.

``straight_line`` compiles a function of one-point jets into Python code
of floats: it runs the function once on recording jets, whose
coefficients are generated names, and the program repeats each
coefficient's operations in the jets' order, skipping only the products
of structural zeros, so that it returns the jets' coefficients, bit for
bit, as a list without a numpy call per operation.  ``compiled`` turns
generated source into a function, for it and for ``core``'s spray solve.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

# Elements (pairs times points) of each temporary of one ``bincount`` of
# a block product, 256 KB of 8-byte numbers: a product takes as many
# points at a time as keep its temporaries within it.
PRODUCT_BUDGET = 32768

# Resource guard: coefficient counts grow like C(nvars+K, K).
MAX_ORDER = 12


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class JetOrderError(JetError):
    """Requested derivative order exceeds the configured budget."""


class JetDomainError(JetError):
    """Value-level domain violation (sqrt of a negative value, log of a
    non-positive value, division by zero, an overflowing coefficient)."""


def _monomials_of_degree(nvars, deg):
    if nvars == 1:
        return [(deg,)]
    out = []
    for first in range(deg, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, deg - first):
            out.append((first,) + rest)
    return out


def _enumerate_monomials(nvars, order):
    if nvars == 0:
        return [()]
    out = []
    for deg in range(order + 1):
        out.extend(_monomials_of_degree(nvars, deg))
    return out


class _Space:
    """Shared index tables of one jet space, built once and cached
    globally: the monomials in ``nvars`` variables of total degree at most
    ``order`` and, in a capped space, of degree at most ``xcap`` in the
    first ``xvars = nvars // 2`` variables, the x of ``(x, y)`` (the
    x-degree).  A cap at or above the order holds every monomial: that is
    the uncapped space, with ``xcap = None``."""

    __slots__ = ("nvars", "order", "xvars", "xcap", "monomials", "position",
                 "size", "_mul_table", "_deriv_maps",
                 "_partials", "_seeds", "_cuts", "_y_part", "_patterns")

    def __init__(self, nvars, order, xcap=None):
        self.nvars = nvars
        self.order = order
        self.xvars = nvars // 2
        self.xcap = xcap
        monomials = _enumerate_monomials(nvars, order)
        if xcap is not None:
            monomials = [m for m in monomials if sum(m[:self.xvars]) <= xcap]
        self.monomials = tuple(monomials)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.size = len(self.monomials)
        self._mul_table = None
        self._deriv_maps = {}
        self._partials = {}
        self._seeds = None
        self._cuts = {}
        self._y_part = None
        self._patterns = {}

    def __str__(self):
        name = f"{self.nvars}v{self.order}"
        if self.xcap is None:
            return name
        return f"{name} capped at x-degree {self.xcap}"

    def y_part(self):
        """Positions of the monomials of positive degree in the last
        ``nvars - xvars`` variables, the y of ``(x, y)``."""
        if self._y_part is None:
            self._y_part = np.array(
                [i for i, m in enumerate(self.monomials)
                 if sum(m[self.xvars:]) > 0], dtype=np.intp)
        return self._y_part

    def mul_table(self):
        """(ia, ib, io): every pair of coefficients whose product the space
        holds, row-major in (ia, ib), and the position io of their
        product.  A capped space keeps the pairs of the uncapped table
        whose product it holds, in the same order, so each of its
        coefficients sums the same products in the same order."""
        if self._mul_table is None:
            M = np.array(self.monomials, dtype=np.intp).reshape(
                self.size, self.nvars)
            deg = M.sum(axis=1)
            xdeg = M[:, :self.xvars].sum(axis=1)
            cap = self.order if self.xcap is None else self.xcap
            # row i pairs with the monomials of degree <= order - deg[i]
            # and x-degree <= cap - xdeg[i], in order: a prefix of the
            # graded order wherever the first bound implies the second
            partners = {}
            rows = []
            for d, xd in zip((self.order - deg).tolist(),
                             (cap - xdeg).tolist()):
                if (d, xd) not in partners:
                    partners[d, xd] = np.flatnonzero((deg <= d) & (xdeg <= xd))
                rows.append(partners[d, xd])
            lens = np.array([r.size for r in rows], dtype=np.intp)
            ia = np.repeat(np.arange(self.size), lens)
            ib = np.concatenate(rows)
            # exponents stay at most the order, so base order + 1 keys each
            # monomial uniquely and the key of a product is a sum of keys
            keys = M @ (self.order + 1) ** np.arange(self.nvars, dtype=np.intp)
            by_key = np.argsort(keys)
            io = by_key[np.searchsorted(keys, keys[ia] + keys[ib],
                                        sorter=by_key)]
            self._mul_table = (ia, ib, io)
        return self._mul_table

    def block_product(self, a, b):
        """Coefficients of the product of two jets of this space with
        point axes, ``a`` and ``b`` of one shape ``(size, ...)`` whose
        trailing axes are flattened into one point axis.  A product of
        more than ``PRODUCT_BUDGET`` pairs times points multiplies only
        the pairs of ``_pairs``, which leaves out those with a factor
        row that is zero at every point.  Each slice of ``width`` points,
        as many as keep the pairs multiplied times points within
        ``PRODUCT_BUDGET``, is one ``bincount`` (``_summed``); bins are
        per point, so the slices change no bit."""
        shape = a.shape
        a = a.reshape(self.size, -1)
        b = b.reshape(self.size, -1)
        P = a.shape[1]
        table = self.mul_table()
        if P * table[0].size > PRODUCT_BUDGET:
            table = self._pairs(a, b)
        width = max(1, PRODUCT_BUDGET // max(1, table[0].size))
        if P <= width:
            return self._summed(table, a, b).reshape(shape)
        return np.concatenate([
            self._summed(table, a[:, s:s + width], b[:, s:s + width])
            for s in range(0, P, width)], axis=1).reshape(shape)

    def _pairs(self, a, b):
        """The pairs of ``mul_table`` whose rows of ``a`` and of ``b`` are
        both nonzero at some point, in table order, cached by those rows.
        The pairs left out multiply +-0.0 by a finite number: a sum of
        ``bincount`` starts at +0.0, so it is never -0.0 and adding a
        +-0.0 term leaves its bits.  A factor with an inf or a NaN takes
        every pair, whose products carry the NaN of 0 * inf."""
        table = self.mul_table()
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            return table
        ma, mb = a.any(axis=1), b.any(axis=1)
        key = (ma.tobytes(), mb.tobytes())
        hit = self._patterns.get(key)
        if hit is None:
            ia, ib, io = table
            kept = np.flatnonzero(ma[ia] & mb[ib])
            hit = self._patterns[key] = (ia[kept], ib[kept], io[kept])
        return hit

    def _summed(self, table, a, b):
        """The product of coefficient arrays ``a`` and ``b`` of shape
        ``(size, P)`` over the pairs ``table`` of ``mul_table``, as one
        ``bincount`` whose bin ``io * P + p`` is coefficient ``io`` of
        point ``p`` and sums its pairs in ``mul_table`` order from +0.0,
        so each column is bit for bit the one-point ``bincount`` product
        of its columns; +0.0 where no pair is left."""
        P = a.shape[1]
        ia, ib, io = table
        if not ia.size:
            return np.zeros((self.size, P))
        w = np.take(a, ia, axis=0)
        w *= np.take(b, ib, axis=0)
        keys = (io[:, None] * P + np.arange(P)).ravel()
        return np.bincount(keys, weights=w.ravel(),
                           minlength=self.size * P).reshape(self.size, P)

    def cut(self, order, xcap):
        """(space, index) of the jets cut to ``order`` and x-degree
        ``xcap`` (None keeps this space's cap): the coefficients of the
        cut jet are ``coeffs[index]``, a prefix slice where the cut keeps
        the cap."""
        key = (order, xcap)
        if key not in self._cuts:
            if order > self.order:
                raise JetOrderError("cannot extend a jet to a higher order")
            cap = self.order if self.xcap is None else self.xcap
            xcap = cap if xcap is None else xcap
            if min(xcap, order) > min(cap, order):
                raise JetOrderError(f"cannot extend jets of {self} to "
                                    f"x-degree {xcap}")
            target = _space(self.nvars, order, min(xcap, cap))
            if target.monomials == self.monomials[:target.size]:
                index = slice(0, target.size)
            else:
                index = np.array([self.position[m] for m in target.monomials],
                                 dtype=np.intp)
            self._cuts[key] = (target, index)
        return self._cuts[key]

    def deriv_map(self, var):
        """The space of df/dv[var], one order lower and, along a capped
        variable, one x-degree lower, with the source positions and
        factors mapping coefficients of f to those of the derivative."""
        if var not in self._deriv_maps:
            if self.xcap is None:
                target = _space(self.nvars, self.order - 1)
            elif var < self.xvars:
                if self.xcap == 0:
                    raise JetOrderError(
                        f"x-derivative budget of {self} exhausted")
                target = _space(self.nvars, self.order - 1, self.xcap - 1)
            else:
                target = _space(self.nvars, self.order - 1, self.xcap)
            src = np.empty(target.size, dtype=np.intp)
            fac = np.empty(target.size)
            for p, m in enumerate(target.monomials):
                up = list(m)
                up[var] += 1
                src[p] = self.position[tuple(up)]
                fac[p] = up[var]
            self._deriv_maps[var] = (target, src, fac)
        return self._deriv_maps[var]

    def partials_table(self, k):
        """Positions and factorial weights of the k-th partials, as arrays
        of shape ``(nvars,) * k`` indexed by variables.  A partial whose
        monomial the space does not hold has position 0 and weight NaN."""
        if k not in self._partials:
            shape = (self.nvars,) * k
            pos = np.zeros(shape, dtype=np.intp)
            fac = np.full(shape, np.nan)
            for idx in np.ndindex(shape):
                mi = [0] * self.nvars
                for v in idx:
                    mi[v] += 1
                if tuple(mi) in self.position:
                    pos[idx] = self.position[tuple(mi)]
                    fac[idx] = math.prod(math.factorial(e) for e in mi)
            self._partials[k] = (pos, fac)
        return self._partials[k]

    def seeds(self):
        """Coefficient rows of the seed jets with value 0: row v has a unit
        first-order coefficient for variable v, where the space holds
        it."""
        if self._seeds is None:
            self._seeds = np.zeros((self.nvars, self.size))
            if self.order >= 1:
                pos, fac = self.partials_table(1)
                held = np.flatnonzero(~np.isnan(fac))
                self._seeds[held, pos[held]] = 1.0
        return self._seeds


_SPACES = {}
_SPACE_LOCK = threading.Lock()


def _space(nvars, order, xcap=None):
    """The space of ``nvars`` variables at ``order``, capped at x-degree
    ``xcap``; a cap at or above the order, or a space without x
    variables, is the uncapped space."""
    if xcap is not None and xcap < 0:
        raise JetOrderError(f"x-degree cap {xcap} is negative")
    if xcap is None or xcap >= order or nvars < 2:
        xcap = None
    key = (nvars, order, xcap)
    sp = _SPACES.get(key)
    if sp is None:
        with _SPACE_LOCK:
            sp = _SPACES.get(key)
            if sp is None:
                sp = _Space(nvars, order, xcap)
                _SPACES[key] = sp
    return sp


def _check_order(order):
    if order < 0:
        raise JetOrderError("derivative order must be non-negative")
    if order > MAX_ORDER:
        raise JetOrderError(
            f"derivative order {order} exceeds the configured maximum {MAX_ORDER}")


def _binom_real(p, k):
    out = 1.0
    for i in range(k):
        out *= (p - i) / (i + 1)
    return out


# Taylor coefficients at a float value v, up to the order: the series of
# the analytic functions of ``Jet``.  Each ``_columns`` form gives the
# same coefficients at the values ``v`` of a block's points, as one list
# per term over the points, each element by the expression of its point
# alone in Python floats; it raises where a value is outside the domain.

def _within(ok):
    if not ok.all():
        raise JetDomainError("a value outside the series' domain")


def _reciprocal_series(v, order):
    if v == 0.0:
        raise JetDomainError("division by a jet with zero value")
    return [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]


def _reciprocal_columns(v, order):
    _within(v != 0.0)
    vs = v.tolist()
    signs = [(-1.0) ** k for k in range(order + 1)]
    return [[s / x ** (k + 1) for x in vs] for k, s in enumerate(signs)]


def _sqrt_series(v, order):
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    return [_binom_real(0.5, k) * v ** (0.5 - k) for k in range(order + 1)]


def _exp_series(v, order):
    ev = math.exp(v)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _exp_columns(v, order):
    evs = [math.exp(x) for x in v.tolist()]
    facts = [math.factorial(k) for k in range(order + 1)]
    return [[ev / f for ev in evs] for f in facts]


def _log_series(v, order):
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    return [math.log(v)] + [(-1.0) ** (k - 1) / (k * v ** k)
                            for k in range(1, order + 1)]


def _log_columns(v, order):
    _within(v > 0.0)
    vs = v.tolist()
    terms = [[math.log(x) for x in vs]]
    for k in range(1, order + 1):
        s = (-1.0) ** (k - 1)
        terms.append([s / (k * x ** k) for x in vs])
    return terms


def _sin_series(v, order):
    return [math.sin(v + 0.5 * math.pi * k) / math.factorial(k)
            for k in range(order + 1)]


def _cos_series(v, order):
    return [math.cos(v + 0.5 * math.pi * k) / math.factorial(k)
            for k in range(order + 1)]


def _shifted_columns(fn, v, order):
    """The columns of ``fn(v + 0.5 pi k) / k!``, sine's and cosine's."""
    vs = v.tolist()
    terms = []
    for k in range(order + 1):
        shift, f = 0.5 * math.pi * k, math.factorial(k)
        terms.append([fn(x + shift) / f for x in vs])
    return terms


def _pow_series(v, order, p):
    if v <= 0.0:
        raise JetDomainError(f"power {p} of non-positive value {v}")
    return [_binom_real(p, k) * v ** (p - k) for k in range(order + 1)]


def _pow_columns(v, order, p):
    _within(v > 0.0)
    vs = v.tolist()
    binoms = [_binom_real(p, k) for k in range(order + 1)]
    return [[c * x ** (p - k) for x in vs] for k, c in enumerate(binoms)]


_DOMAIN_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _analytic(name, series, columns):
    """A ``Jet`` method that composes the jet with ``series(v, order,
    *args)``, the Taylor coefficients of a function at the float value
    ``v``, and a block with ``columns(v, order, *args)`` at the values of
    its points.  Where a coefficient overflows, divides by zero or leaves
    a math function's domain it raises ``JetDomainError`` naming ``name``
    and the value; where ``columns`` raises, each point of the block
    takes ``series`` on its own, so that the first point that fails
    raises its error."""
    def at(v, order, args):
        try:
            return series(v, order, *args)
        except _DOMAIN_ERRORS as exc:
            raise JetDomainError(f"{name} of value {v!r}: {exc}") from exc

    def block(v, order, args):
        try:
            return np.array(columns(v, order, *args))
        except (JetDomainError,) + _DOMAIN_ERRORS:
            return np.array([at(x, order, args) for x in v.tolist()]).T

    def method(self, *args):
        return self.compose(self._series(at, block, args))
    method.__name__ = name
    return method


class Jet:
    """Truncated Taylor expansion of a scalar in ``nvars`` active variables.

    The zero multi-index coefficient is the underlying value; the
    coefficient of a multi-index a is the partial derivative divided by
    the product of factorials of a's entries.  ``coeffs`` has shape
    ``(size,)`` for one point, or ``(size, P)`` for a block of P points.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = coeffs

    # -- construction ---------------------------------------------------

    @staticmethod
    def constant(value, nvars, order):
        _check_order(order)
        sp = _space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    def _series(self, at, block, args):
        """The series of ``_analytic`` at this jet's value: ``at(v, order,
        args)`` of one point, ``block(v, order, args)`` of a block."""
        v = self.coeffs[0]
        if v.ndim == 0:
            return at(float(v), self.order, args)
        return block(v, self.order, args)

    def _like(self, value):
        """The constant ``value`` in this jet's space and point shape."""
        c = np.zeros(self.coeffs.shape)
        c[0] = value
        return Jet(self.space, c)

    @property
    def nvars(self):
        return self.space.nvars

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        """The value of a one-point jet."""
        return float(self.coeffs[0])

    def truncated(self, order, xcap=None):
        """The jet cut to ``order`` and, where ``xcap`` is given, to
        x-degree ``xcap``; the jet itself where that is its space."""
        sp, index = self.space.cut(order, xcap)
        if sp is self.space:
            return self
        if isinstance(index, slice):
            return Jet(sp, self.coeffs[index].copy())
        return Jet(sp, self.coeffs[index])

    # -- ring operations ------------------------------------------------

    def _mixed(self, other):
        if other.space is self.space:
            return ValueError("jets of one point and of a block of points")
        return ValueError(f"jets of different spaces ({self.space}, "
                          f"{other.space}): truncate one first")

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.coeffs.copy()
            c[0] += float(other)
            return Jet(self.space, c)
        a, b = self.coeffs, other.coeffs
        if other.space is not self.space or a.ndim != b.ndim:
            raise self._mixed(other)
        return Jet(self.space, a + b)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            c = self.coeffs.copy()
            c[0] -= float(other)
            return Jet(self.space, c)
        a, b = self.coeffs, other.coeffs
        if other.space is not self.space or a.ndim != b.ndim:
            raise self._mixed(other)
        return Jet(self.space, a - b)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += float(other)
        return Jet(self.space, c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * float(other))
        a, b, sp = self.coeffs, other.coeffs, self.space
        if other.space is not sp or a.ndim != b.ndim:
            raise self._mixed(other)
        if a.ndim > 1:
            return Jet(sp, sp.block_product(a, b))
        ia, ib, io = sp.mul_table()
        return Jet(sp, np.bincount(io, weights=a[ia] * b[ib],
                                   minlength=sp.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, p):
        return self.powf(p)

    # -- calculus -------------------------------------------------------

    def deriv(self, var):
        """Jet of the partial derivative with respect to active variable
        ``var``; the result is exact one order lower, and along a capped
        variable one x-degree lower."""
        if self.order < 1:
            raise JetOrderError("derivative order budget exhausted")
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        sp, src, fac = self.space.deriv_map(var)
        fac = fac.reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(sp, self.coeffs[src] * fac)

    def partials(self, k):
        """All k-th partial derivatives, as an array indexed by k variables
        and symmetric in them (Taylor coefficients times factorials), then
        by point for a block; ``partials(0)`` is the value.  A partial of
        an x-degree above a capped space's cap is NaN."""
        if k > self.order:
            raise JetOrderError(
                f"derivative order {k} exceeds jet order {self.order}")
        pos, fac = self.space.partials_table(k)
        if self.coeffs.ndim > 1:
            fac = fac[..., None]
        return self.coeffs[pos] * fac

    # -- analytic functions ---------------------------------------------

    def compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner; for a
        block, ``series[k]`` holds one coefficient per point.

        The shifted jet h is nilpotent at the truncation order, so the
        result is the exact truncated Taylor expansion of the composed
        function.  In a space capped at x-degree c >= 1, an h without y
        part has h^(c+1) = 0, so the series stops after its term c: the
        terms above it would add only exact zeros, which the sums of a
        product, started at +0.0, leave the same bits.
        """
        h = Jet(self.space, self.coeffs.copy())
        h.coeffs[0] = 0.0
        cap = self.space.xcap
        if cap and not h.coeffs[self.space.y_part()].any():
            series = series[:cap + 1]
        out = self._like(series[-1])
        for k in range(len(series) - 2, -1, -1):
            out = out * h
            out.coeffs[0] += series[k]
        return out

    reciprocal = _analytic("reciprocal", _reciprocal_series,
                           _reciprocal_columns)
    sqrt = _analytic("sqrt", _sqrt_series,
                     functools.partial(_pow_columns, p=0.5))
    exp = _analytic("exp", _exp_series, _exp_columns)
    log = _analytic("log", _log_series, _log_columns)
    sin = _analytic("sin", _sin_series,
                    functools.partial(_shifted_columns, math.sin))
    cos = _analytic("cos", _cos_series,
                    functools.partial(_shifted_columns, math.cos))
    _real_pow = _analytic("powf", _pow_series, _pow_columns)

    def powf(self, p):
        """Real power; integer exponents work for any base value, other
        exponents require a positive base.  A jet exponent that varies is
        ``exp(p log self)``, and a constant one a number.  A block takes
        the first form where every column's exponent varies, as each
        column alone does, and otherwise computes column by column."""
        if isinstance(p, Jet):
            if p.coeffs.ndim != self.coeffs.ndim:
                raise self._mixed(p)
            if np.any(p.coeffs[1:] != 0.0, axis=0).all():
                return (self.log() * p).exp()
            if self.coeffs.ndim > 1:
                return Jet(self.space, np.stack(
                    [Jet(self.space, a).powf(Jet(p.space, b)).coeffs
                     for a, b in zip(self.coeffs.T, p.coeffs.T)], axis=1))
            p = p.value
        p = float(p)
        try:
            integral = p == int(p)
        except _DOMAIN_ERRORS as exc:
            raise JetDomainError(
                f"powf of value {self.coeffs[0].tolist()!r}: {exc}") from exc
        if integral:
            return self._int_pow(int(p))
        return self._real_pow(p)

    def _int_pow(self, m):
        if m < 0:
            return self.reciprocal()._int_pow(-m)
        out = self._like(1.0)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __repr__(self):
        value = (self.value if self.coeffs.ndim == 1
                 else f"<{self.coeffs.shape[1]} points>")
        return f"Jet(nvars={self.nvars}, order={self.order}, value={value})"


def lift(values, order, xcap=None):
    """Seed jets for a list of scalars, one differentiation variable each,
    in list order: each jet holds its value and a unit first-order
    coefficient in its own slot.  Rows of P values give jets of a block
    of P points.  With ``xcap`` the jets hold only the monomials of
    degree at most ``xcap`` in the first half of the variables."""
    _check_order(order)
    sp = _space(len(values), order, xcap)
    values = np.asarray(values, dtype=float)
    jets = []
    # each jet owns its coefficients: as views of one array, a cached jet
    # would keep the others' coefficients alive
    for seed, value in zip(sp.seeds(), values):
        c = (seed.copy() if values.ndim == 1
             else np.repeat(seed[:, None], values.shape[1], axis=1))
        c[0] = value
        jets.append(Jet(sp, c))
    return jets


def lift_env(order, xcap=None, **coords):
    """Evaluation environment of seed jets: ``lift_env(2, x=x, y=y)`` binds
    ``x1 .. xn`` and then ``y1 .. yn`` to the jets of ``lift`` over all
    those values, in that order.  Coordinates of shape ``(n, P)`` give
    jets of a block of P points.  ``xcap`` caps the degree in the first
    half of the variables, x of ``x=x, y=y``, as ``lift`` does."""
    names = [f"{k}{i + 1}" for k, vals in coords.items()
             for i in range(len(vals))]
    values = [v for vals in coords.values() for v in vals]
    return dict(zip(names, lift(values, order, xcap)))


def _swapped(here, top, low):
    """Two block jets with their columns swapped where ``here`` is set."""
    return (Jet(top.space, np.where(here, low.coeffs, top.coeffs)),
            Jet(low.space, np.where(here, top.coeffs, low.coeffs)))


def _pivot(M, b, col):
    """Bring the pivot of column ``col`` to row ``col`` of ``M`` and ``b``:
    the first row at or below it whose value is largest in magnitude, as
    Python's ``max`` chooses it, at every point of a block at once.  A NaN
    never wins over a number (no comparison with it is true), and one at
    row ``col`` keeps that row.  A block swaps, in the points whose pivot
    is another row, the entries that elimination still reads."""
    n = len(b)
    mag = np.abs([M[r][col].coeffs[0] for r in range(col, n)])
    # a NaN reads as -1 below row col and as inf at it, so that argmax
    # picks as max does; the largest key is 0 only where the pivot is
    # zero
    key = np.fmax(mag, -1.0)
    key[0] = np.fmin(mag[0], np.inf)
    if not key.max(axis=0).all():
        raise JetDomainError("singular jet matrix in linear solve")
    piv = key.argmax(axis=0) + col
    if piv.ndim == 0:
        r = int(piv)
        if r != col:
            M[col], M[r] = M[r], M[col]
            b[col], b[r] = b[r], b[col]
        return
    for r in range(col + 1, n):
        here = piv == r
        if here.any():
            for c in range(col, n):
                M[col][c], M[r][c] = _swapped(here, M[col][c], M[r][c])
            b[col], b[r] = _swapped(here, b[col], b[r])


def jet_linear_solve(A, rhs):
    """Solve A x = rhs where A is a square matrix of jets and rhs a vector
    of jets, by Gaussian elimination with partial pivoting on values,
    chosen point by point for jets of a block.

    Jets with nonzero value are invertible in the truncated-Taylor ring,
    so the usual elimination goes through verbatim.
    """
    n = len(rhs)
    M = [row[:] for row in A]
    b = list(rhs)
    for col in range(n):
        _pivot(M, b, col)
        inv = M[col][col].reciprocal()
        for r in range(col + 1, n):
            f = M[r][col] * inv
            for c in range(col + 1, n):
                M[r][c] = M[r][c] - f * M[col][c]
            b[r] = b[r] - f * b[col]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc = acc - M[r][c] * x[c]
        x[r] = acc * M[r][r].reciprocal()
    return x


# ---------------------------------------------------------------------------
# straight-line programs


class _Unreplayable(JetError):
    """An operation that a straight-line program cannot replay bit for bit."""


def _constant(value):
    """A coefficient that no input changes; it must be finite, so that its
    source is a float literal."""
    value = float(value)
    if not math.isfinite(value):
        raise _Unreplayable(f"non-finite constant {value!r}")
    return value


def _src(c):
    """Source text of a coefficient: a generated name, or a constant."""
    return c if isinstance(c, str) else repr(c)


def _zero(c):
    """Whether a coefficient is a constant +0.0 or -0.0."""
    return not isinstance(c, str) and c == 0.0


def _is(c, value):
    """Whether a coefficient is the constant ``value``, with its sign."""
    return (not isinstance(c, str) and c == value
            and math.copysign(1.0, c) == math.copysign(1.0, value))


_FOLD = {"+": float.__add__, "-": float.__sub__, "*": float.__mul__,
         "/": float.__truediv__}
# the right operand of each operation that leaves the left one's bits
_IDENTITY = {"+": -0.0, "-": 0.0, "*": 1.0, "/": 1.0}


class _Tape:
    """The statements of a straight-line program, in the order recorded,
    the series functions they call by generated name, and the value names
    that a product multiplied by a skipped structural zero."""

    def __init__(self):
        self.lines = []
        self.count = 0
        self.funcs = {}
        self.guards = {}

    def fresh(self):
        self.count += 1
        return f"t{self.count}"

    def bind(self, expr):
        """A coefficient computed by ``expr``: a constant or a name as it
        is, otherwise a new name bound to it."""
        if not isinstance(expr, str) or expr.isidentifier():
            return expr
        name = self.fresh()
        self.lines.append(f"{name} = {expr}")
        return name

    def apply(self, op, x, y):
        """The coefficient ``x op y`` for ``op`` one of ``+ - * /``: folded
        where both are constants, and one operand itself where the other
        leaves its bits."""
        if not isinstance(x, str) and not isinstance(y, str):
            return _constant(_FOLD[op](x, y))
        if op == "+" and _is(x, -0.0):
            return y
        if _is(y, _IDENTITY[op]):
            return x
        return self.bind(f"{_src(x)} {op} {_src(y)}")


def _term(x, y):
    """Source of the product ``x * y`` of two coefficients, or the
    constant where both are."""
    if not isinstance(x, str) and not isinstance(y, str):
        return _constant(x * y)
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    return f"{_src(x)} * {_src(y)}"


def _sum(terms):
    """Source of ``0.0 + t1 + t2 + ...`` in order, the sum ``bincount``
    forms of a product's pairs, or the constant where every term is one.
    The sum starts at +0.0 and so is never -0.0; a constant +-0.0 term
    after a runtime one leaves its bits and is left out."""
    acc, rest = 0.0, []
    for t in terms:
        if isinstance(t, str):
            rest.append(t)
        elif not rest:
            acc += t
        elif t != 0.0:
            rest.append(repr(t))
    if not rest:
        return _constant(acc)
    return " + ".join([repr(acc)] + rest)


class _Recorder(Jet):
    """A one-point jet whose coefficients are the generated names (str)
    and constants (float) of a straight-line program, which each
    operation extends by the statements that compute its coefficients
    in floats, as the jet operation does.

    A constant +-0.0 at a position above the value is a structural zero:
    a product skips its pairs.  That is exact where the other factor is
    finite, since a ``bincount`` sum starts at +0.0 and adding +-0.0
    leaves its bits.  A skipped partner that is a value enters the
    program's guard, which must be finite.  A non-finite coefficient
    above the value carries on, in the jets and in the program, to the
    same position of every result computed from it (each product pairs
    it with the other factor's value, which is never skipped), so where
    a skipped pair makes the jets' NaN the program's result is not finite
    either, and a check of finiteness fails alike."""

    __slots__ = ("tape",)

    def __init__(self, space, coeffs, tape):
        super().__init__(space, coeffs)
        self.tape = tape

    def _new(self, coeffs):
        return _Recorder(self.space, coeffs, self.tape)

    def _like(self, value):
        c = [0.0] * self.space.size
        c[0] = value if isinstance(value, str) else _constant(value)
        return self._new(c)

    def _pointwise(self, op, other):
        apply = self.tape.apply
        if not isinstance(other, Jet):
            c = list(self.coeffs)
            c[0] = apply(op, c[0], _constant(other))
            return self._new(c)
        return self._new([apply(op, x, y)
                          for x, y in zip(self.coeffs, other.coeffs)])

    def __add__(self, other):
        return self._pointwise("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._pointwise("-", other)

    def __rsub__(self, other):
        return (-self)._pointwise("+", other)

    def __neg__(self):
        return self._new([-c if not isinstance(c, str)
                          else self.tape.bind(f"-{c}") for c in self.coeffs])

    def __mul__(self, other):
        tape = self.tape
        if not isinstance(other, Jet):
            s = _constant(other)
            return self._new([tape.apply("*", c, s) for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        bins = [[] for _ in a]
        for i, j, o in zip(*(t.tolist() for t in self.space.mul_table())):
            x, y = a[i], b[j]
            if (i and _zero(x)) or (j and _zero(y)):
                for pos, f in ((i, x), (j, y)):
                    if pos == 0 and isinstance(f, str):
                        tape.guards[f] = None
                continue
            bins[o].append(_term(x, y))
        return self._new([tape.bind(_sum(terms)) for terms in bins])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        s = _constant(other)
        if s == 0.0:
            raise _Unreplayable("division by a zero constant")
        return self._new([self.tape.apply("/", c, s) for c in self.coeffs])

    def _series(self, at, block, args):
        """Names bound, at run time, to the series of ``at`` at the value."""
        tape = self.tape
        f = tape.funcs.setdefault(at, f"f{len(tape.funcs)}")
        names = [tape.fresh() for _ in range(self.order + 1)]
        tape.lines.append(
            f"{', '.join(names)}, = {f}({_src(self.coeffs[0])}, {self.order}, "
            f"({''.join(_src(a) + ', ' for a in args)}))")
        return names

    def compose(self, series):
        """``Jet.compose``: h keeps its value 0.0, which a product never
        skips, so a non-finite coefficient of the result meets it as in
        the jets; the series stops at the cap where the jets' does."""
        h = self._new([0.0] + self.coeffs[1:])
        cap = self.space.xcap
        if cap:
            ys = [h.coeffs[i] for i in self.space.y_part().tolist()]
            if any(isinstance(c, str) for c in ys):
                raise _Unreplayable("a series cut that values decide")
            if not any(ys):
                series = series[:cap + 1]
        out = self._like(series[-1])
        for k in range(len(series) - 2, -1, -1):
            out = out * h
            out.coeffs[0] = self.tape.apply("+", out.coeffs[0], series[k])
        return out

    def powf(self, p):
        """``Jet.powf`` of a finite constant exponent; a jet exponent
        branches on its values, and a non-finite one raises a text with
        the base's value."""
        if isinstance(p, Jet) or not math.isfinite(p):
            raise _Unreplayable("a jet or non-finite exponent")
        return super().powf(p)


def compiled(name, args, lines, namespace):
    """The function ``name(*args)`` whose body is the generated source
    ``lines``, compiled with the globals ``namespace``."""
    body = "".join(f"    {line}\n" for line in lines)
    exec(compile(f"def {name}({', '.join(args)}):\n{body}", name, "exec"),
         namespace)
    return namespace[name]


def straight_line(fn, names, order, xcap=None):
    """Compile ``fn``, a function of an environment of one-point jets such
    as ``lift_env`` gives (``names`` bound, in order, to the seed jets of
    the space of ``order`` and ``xcap``), into a straight-line Python
    function of floats (source transformation, Griewank & Walther,
    *Evaluating Derivatives*, 2008).  ``fn`` runs once on jets that
    record its operations; the program replays them in floats, each
    coefficient by the same operations in the same order as the jets'
    (a product's pairs in ``mul_table`` order, summed from 0.0), and the
    analytic functions through the same series and error texts.

    Returns ``(program, space)``: ``program(*values)`` gives, as a list,
    the coefficients of the jet of ``space`` that ``fn`` gives at the
    seed jets of ``values``, bit for bit, or None where a value that a
    skipped pair read is not finite.  Raises ``JetError`` where ``fn``
    runs an operation the program cannot replay (a jet exponent, a
    non-finite constant), and whatever ``fn`` raises.  The source holds
    generated names and float literals only."""
    _check_order(order)
    sp = _space(len(names), order, xcap)
    tape = _Tape()
    args = [f"a{v}" for v in range(len(names))]
    env = {name: _Recorder(sp, [arg] + row[1:], tape)
           for name, arg, row in zip(names, args, sp.seeds().tolist())}
    out = fn(env)
    if not isinstance(out, _Recorder):
        raise _Unreplayable("the result is not a jet")
    lines = tape.lines
    if tape.guards:
        lines += [f"if ({' + '.join(tape.guards)}) * 0.0 != 0.0:",
                  "    return None"]
    lines.append(f"return [{', '.join(map(_src, out.coeffs))}]")
    namespace = {name: at for at, name in tape.funcs.items()}
    return compiled("program", args, lines, namespace), sp
