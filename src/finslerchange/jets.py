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
The block product keeps the summation order of the one-point
``bincount``: it loops over coefficient rows, ``out[io] += a[i] *
b[partners]`` for the rows of ``mul_table`` in order (the partners are a
prefix, a view, except in the capped rows that skip x-degrees), where
the block has at
least as many points as the space has coefficients, and otherwise runs one
``bincount`` over all points whose bins each take their pairs in
``mul_table`` order.  Series coefficients of
``reciprocal``, ``sqrt``, ``exp``, ``log``, ``sin``, ``cos`` and ``powf``
are computed point by point in Python floats, because numpy's vector
``exp``, ``log`` and ``power`` round differently from ``math`` and
``float``; ``jet_linear_solve`` pivots point by point.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Resource guard: coefficient counts grow like C(nvars+K, K).
MAX_ORDER = 12
# A block product multiplies row by row, one numpy call per coefficient,
# once it makes this many point products per coefficient on average; below
# that one bincount over every pair and point costs less.  On a 2.1 GHz
# Xeon with numpy 2.4 the row loop cost about 10 us per row and the
# bincount 4 to 16 ns per product; in 6v4 they crossed between P = 70 and
# 80, and in the other spaces of point blocks (4v2 to 4v4, 6v2, 6v3) the
# bincount won up to the coefficient count.
_ROW_PRODUCTS = 640


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
                 "size", "_mul_table", "_mul_rows", "_deriv_maps",
                 "_partials", "_seeds", "_cuts", "_y_part")

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
        self._mul_rows = None
        self._deriv_maps = {}
        self._partials = {}
        self._seeds = None
        self._cuts = {}
        self._y_part = None

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

    def mul_rows(self):
        """``mul_table`` by rows: one (i, partners, io) per coefficient i,
        which pairs with the coefficients ``partners`` at the positions
        ``io``, all different.  ``partners`` is a slice where they are a
        prefix, as in every row of an uncapped space, and otherwise their
        positions."""
        if self._mul_rows is None:
            ia, ib, io = self.mul_table()
            counts = np.bincount(ia, minlength=self.size)
            starts = np.cumsum(counts) - counts
            self._mul_rows = []
            for i, (c, s) in enumerate(zip(counts.tolist(), starts.tolist())):
                # partners increase from the constant monomial, 0
                part = ib[s:s + c]
                if part[-1] == c - 1:
                    part = slice(0, c)
                self._mul_rows.append((i, part, io[s:s + c]))
        return self._mul_rows

    def rows_from(self):
        """The number of points from which ``block_product`` multiplies
        by rows: where the products per coefficient reach
        ``_ROW_PRODUCTS``, and at most ``size``."""
        pairs = len(self.mul_table()[0])
        return min(self.size, -(-_ROW_PRODUCTS * self.size // pairs))

    def block_product(self, a, b):
        """Coefficients of the product of two jets of this space with
        point axes, ``a`` and ``b`` of one shape ``(size, ...)`` whose
        trailing axes are flattened into one point axis: each column is
        bit for bit the one-point ``bincount`` product of its columns."""
        shape = a.shape
        a = a.reshape(self.size, -1)
        b = b.reshape(self.size, -1)
        P = a.shape[1]
        if P >= self.rows_from():
            out = np.zeros_like(a)
            for i, part, io in self.mul_rows():
                out[io] += a[i] * b[part]
            return out.reshape(shape)
        # one bincount over all points: bin io * P + p is coefficient io of
        # point p, and each bin meets its pairs in mul_table order
        ia, ib, io = self.mul_table()
        w = np.take(a, ia, axis=0)
        w *= np.take(b, ib, axis=0)
        keys = (io[:, None] * P + np.arange(P)).ravel()
        return np.bincount(keys, weights=w.ravel(),
                           minlength=self.size * P).reshape(shape)

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
# the analytic functions of ``Jet``.

def _reciprocal_series(v, order):
    if v == 0.0:
        raise JetDomainError("division by a jet with zero value")
    return [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]


def _sqrt_series(v, order):
    if v <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {v}")
    return [_binom_real(0.5, k) * v ** (0.5 - k) for k in range(order + 1)]


def _exp_series(v, order):
    ev = math.exp(v)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _log_series(v, order):
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    return [math.log(v)] + [(-1.0) ** (k - 1) / (k * v ** k)
                            for k in range(1, order + 1)]


def _sin_series(v, order):
    return [math.sin(v + 0.5 * math.pi * k) / math.factorial(k)
            for k in range(order + 1)]


def _cos_series(v, order):
    return [math.cos(v + 0.5 * math.pi * k) / math.factorial(k)
            for k in range(order + 1)]


def _pow_series(v, order, p):
    if v <= 0.0:
        raise JetDomainError(f"power {p} of non-positive value {v}")
    return [_binom_real(p, k) * v ** (p - k) for k in range(order + 1)]


_DOMAIN_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _analytic(name, series):
    """A ``Jet`` method that composes the jet with ``series(v, order,
    *args)``, the Taylor coefficients of a function at the float value
    ``v``, computed for each point of a block on its own.  Where a
    coefficient overflows, divides by zero or leaves a math function's
    domain it raises ``JetDomainError`` naming ``name`` and the value."""
    def at(v, order, args):
        try:
            return series(v, order, *args)
        except _DOMAIN_ERRORS as exc:
            raise JetDomainError(f"{name} of value {v!r}: {exc}") from exc

    def method(self, *args):
        v = self.coeffs[0]
        if v.ndim == 0:
            return self.compose(at(float(v), self.order, args))
        return self.compose(np.array(
            [at(p, self.order, args) for p in v.tolist()]).T)
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

    reciprocal = _analytic("reciprocal", _reciprocal_series)
    sqrt = _analytic("sqrt", _sqrt_series)
    exp = _analytic("exp", _exp_series)
    log = _analytic("log", _log_series)
    sin = _analytic("sin", _sin_series)
    cos = _analytic("cos", _cos_series)
    _real_pow = _analytic("powf", _pow_series)

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
    the first row at or below it whose value is largest in magnitude.  A
    block picks it point by point and swaps, in the points whose pivot is
    another row, the entries that elimination still reads."""
    n = len(b)
    if M[col][col].coeffs.ndim == 1:
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if abs(M[piv][col].value) == 0.0:
            raise JetDomainError("singular jet matrix in linear solve")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            b[col], b[piv] = b[piv], b[col]
        return
    values = [M[r][col].coeffs[0].tolist() for r in range(col, n)]
    piv = [max(range(col, n), key=lambda r: abs(values[r - col][p]))
           for p in range(len(values[0]))]
    if any(abs(values[r - col][p]) == 0.0 for p, r in enumerate(piv)):
        raise JetDomainError("singular jet matrix in linear solve")
    piv = np.array(piv)
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
