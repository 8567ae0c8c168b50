"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet holds the Taylor coefficients of a scalar quantity with respect to a
set of active variables, truncated at a chosen total degree.  Arithmetic on
Jets propagates coefficients through every elementary operation, so any
mixed partial derivative up to the truncation order can be read off exactly
(standard floating-point rounding aside) -- no step-size choices, no
cancellation blowup.

Coefficients are stored densely in graded lexicographic multi-index order,
which makes truncation to a lower order a prefix slice and keeps the
per-operation cost a single vectorized gather/scatter.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Resource guard: coefficient counts grow like C(nvars+K, K).
MAX_ORDER = 12


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class JetOrderError(JetError):
    """Requested derivative order exceeds the configured budget."""


class JetDomainError(JetError):
    """Value-level domain violation (sqrt of a negative value, log of a
    non-positive value, division by zero)."""


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
    """Shared per-(nvars, order) index tables; built once, cached globally."""

    __slots__ = ("nvars", "order", "monomials", "position", "size",
                 "_mul_table", "_deriv_maps")

    def __init__(self, nvars, order):
        self.nvars = nvars
        self.order = order
        self.monomials = tuple(_enumerate_monomials(nvars, order))
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.size = len(self.monomials)
        self._mul_table = None
        self._deriv_maps = {}

    def ncoef(self, order):
        """Number of multi-indices of total degree <= order."""
        return math.comb(self.nvars + order, order) if self.nvars else 1

    def mul_table(self):
        if self._mul_table is None:
            ia, ib, io = [], [], []
            degs = [sum(m) for m in self.monomials]
            for i, ma in enumerate(self.monomials):
                da = degs[i]
                for j, mb in enumerate(self.monomials):
                    if da + degs[j] > self.order:
                        continue
                    ia.append(i)
                    ib.append(j)
                    io.append(self.position[tuple(a + b for a, b in zip(ma, mb))])
            self._mul_table = (np.asarray(ia, dtype=np.intp),
                               np.asarray(ib, dtype=np.intp),
                               np.asarray(io, dtype=np.intp))
        return self._mul_table

    def deriv_map(self, var):
        """Source positions and factors mapping coefficients of f to those
        of df/dv[var] in the order-1 space."""
        if var not in self._deriv_maps:
            target = _space(self.nvars, self.order - 1)
            src = np.empty(target.size, dtype=np.intp)
            fac = np.empty(target.size)
            for p, m in enumerate(target.monomials):
                up = list(m)
                up[var] += 1
                src[p] = self.position[tuple(up)]
                fac[p] = up[var]
            self._deriv_maps[var] = (src, fac)
        return self._deriv_maps[var]


_SPACES = {}
_SPACE_LOCK = threading.Lock()


def _space(nvars, order):
    key = (nvars, order)
    sp = _SPACES.get(key)
    if sp is None:
        with _SPACE_LOCK:
            sp = _SPACES.get(key)
            if sp is None:
                sp = _Space(nvars, order)
                _SPACES[key] = sp
    return sp


def _check_order(order):
    if order < 0:
        raise JetOrderError("derivative order must be non-negative")
    if order > MAX_ORDER:
        raise JetOrderError(
            f"derivative order {order} exceeds the configured maximum {MAX_ORDER}")


class Jet:
    """Truncated Taylor expansion of a scalar in ``nvars`` active variables.

    The zero multi-index coefficient is the underlying value; the
    coefficient of a multi-index a is the partial derivative divided by
    the product of factorials of a's entries.
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

    @property
    def nvars(self):
        return self.space.nvars

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        return float(self.coeffs[0])

    def truncated(self, order):
        if order == self.order:
            return self
        if order > self.order:
            raise JetOrderError("cannot extend a jet to a higher order")
        sp = _space(self.nvars, order)
        return Jet(sp, self.coeffs[:sp.size].copy())

    def _like(self, value):
        c = np.zeros(self.space.size)
        c[0] = value
        return Jet(self.space, c)

    # -- ring operations ------------------------------------------------

    def _align(self, other):
        if not isinstance(other, Jet):
            return self, self._like(float(other))
        if other.nvars != self.nvars:
            raise ValueError("jets with different active-variable sets")
        k = min(self.order, other.order)
        return self.truncated(k), other.truncated(k)

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.coeffs.copy()
            c[0] += float(other)
            return Jet(self.space, c)
        if other.space is self.space:
            return Jet(self.space, self.coeffs + other.coeffs)
        a, b = self._align(other)
        return Jet(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            c = self.coeffs.copy()
            c[0] -= float(other)
            return Jet(self.space, c)
        if other.space is self.space:
            return Jet(self.space, self.coeffs - other.coeffs)
        a, b = self._align(other)
        return Jet(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += float(other)
        return Jet(self.space, c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * float(other))
        a, b = self, other
        if other.space is not self.space:
            a, b = self._align(other)
        ia, ib, io = a.space.mul_table()
        out = np.bincount(io, weights=a.coeffs[ia] * b.coeffs[ib],
                          minlength=a.space.size)
        return Jet(a.space, out)

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
        ``var``; the result is exact one order lower."""
        if self.order < 1:
            raise JetOrderError("derivative order budget exhausted")
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        src, fac = self.space.deriv_map(var)
        return Jet(_space(self.nvars, self.order - 1), self.coeffs[src] * fac)

    def extract(self, multi_index):
        """Value of the mixed partial derivative for ``multi_index``
        (Taylor coefficient times the product of factorials)."""
        mi = tuple(int(k) for k in multi_index)
        if len(mi) != self.nvars:
            raise ValueError("multi-index length does not match active variables")
        if sum(mi) > self.order:
            raise JetOrderError(
                f"multi-index order {sum(mi)} exceeds jet order {self.order}")
        fac = 1
        for k in mi:
            fac *= math.factorial(k)
        return float(self.coeffs[self.space.position[mi]]) * fac

    def gradient(self):
        """First-order derivative values, one per active variable."""
        if self.nvars == 0:
            return np.zeros(0)
        e = [0] * self.nvars
        out = np.empty(self.nvars)
        for j in range(self.nvars):
            e[j] = 1
            out[j] = self.extract(e)
            e[j] = 0
        return out

    # -- analytic functions ---------------------------------------------

    def compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner.

        The shifted jet is nilpotent at the truncation order, so the
        result is the exact truncated Taylor expansion of the composed
        function.
        """
        h = Jet(self.space, self.coeffs.copy())
        h.coeffs[0] = 0.0
        out = self._like(series[-1])
        for k in range(len(series) - 2, -1, -1):
            out = out * h
            out.coeffs[0] += series[k]
        return out

    def reciprocal(self):
        v = self.value
        if v == 0.0:
            raise JetDomainError("division by a jet with zero value")
        series = [(-1.0) ** k / v ** (k + 1) for k in range(self.order + 1)]
        return self.compose(series)

    def sqrt(self):
        v = self.value
        if v <= 0.0:
            raise JetDomainError(f"sqrt of non-positive value {v}")
        series = [_binom_real(0.5, k) * v ** (0.5 - k) for k in range(self.order + 1)]
        return self.compose(series)

    def exp(self):
        ev = math.exp(self.value)
        series = [ev / math.factorial(k) for k in range(self.order + 1)]
        return self.compose(series)

    def log(self):
        v = self.value
        if v <= 0.0:
            raise JetDomainError(f"log of non-positive value {v}")
        series = [math.log(v)]
        series += [(-1.0) ** (k - 1) / (k * v ** k) for k in range(1, self.order + 1)]
        return self.compose(series)

    def sin(self):
        v = self.value
        series = [math.sin(v + 0.5 * math.pi * k) / math.factorial(k)
                  for k in range(self.order + 1)]
        return self.compose(series)

    def cos(self):
        v = self.value
        series = [math.cos(v + 0.5 * math.pi * k) / math.factorial(k)
                  for k in range(self.order + 1)]
        return self.compose(series)

    def powf(self, p):
        """Real power; integer exponents work for any base value, other
        exponents require a positive base."""
        if isinstance(p, Jet):
            if np.any(p.coeffs[1:] != 0.0):
                return (self.log() * p).exp()
            p = p.value
        p = float(p)
        if p == int(p):
            return self._int_pow(int(p))
        v = self.value
        if v <= 0.0:
            raise JetDomainError(f"power {p} of non-positive value {v}")
        series = [_binom_real(p, k) * v ** (p - k) for k in range(self.order + 1)]
        return self.compose(series)

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
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value})"


def _binom_real(p, k):
    out = 1.0
    for i in range(k):
        out *= (p - i) / (i + 1)
    return out


def lift(values, active, order):
    """Seed jets for a list of scalars.

    ``active`` selects (by index into ``values``) the differentiation
    variables; they are assigned jet slots in ascending index order.  Each
    active value gets a unit first-order coefficient in its own slot,
    inactive values become constants in the same space.
    """
    _check_order(order)
    active = sorted(active)
    if active and not (0 <= active[0] and active[-1] < len(values)):
        raise ValueError("active indices out of range")
    slot = {idx: j for j, idx in enumerate(active)}
    sp = _space(len(active), order)
    jets = []
    for idx, val in enumerate(values):
        c = np.zeros(sp.size)
        c[0] = float(val)
        if idx in slot and order >= 1:
            e = [0] * len(active)
            e[slot[idx]] = 1
            c[sp.position[tuple(e)]] = 1.0
        jets.append(Jet(sp, c))
    return jets


def jet_linear_solve(A, rhs):
    """Solve A x = rhs where A is a square matrix of jets and rhs a vector
    of jets, by Gaussian elimination with partial pivoting on values.

    Jets with nonzero value are invertible in the truncated-Taylor ring,
    so the usual elimination goes through verbatim.
    """
    n = len(rhs)
    M = [row[:] for row in A]
    b = list(rhs)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if abs(M[piv][col].value) == 0.0:
            raise JetDomainError("singular jet matrix in linear solve")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            b[col], b[piv] = b[piv], b[col]
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
