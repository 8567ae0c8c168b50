"""Pointwise Finsler tensor calculus driven by truncated-Taylor jets.

Every quantity is derived from the single scalar L^2 evaluated on jets of
the 2n coordinates (x, y): metric tensors fall out as Taylor coefficients,
and derived fields (geodesic spray, connections, curvatures) are computed
as jets themselves so that their own derivatives remain exact.  A point
is built from one order-2 jet of L^2, on jets.  The spray's values,
which geodesic integration asks for at every stage, are solved in floats
by a compiled ``_spray_tail`` from the coefficients of that jet, which a
straight-line program of the spec (``jets.straight_line``) computes in
floats, bit for bit; ``spray_values`` compiles both once per space and
builds no point for them.

Each layer keeps only the x-degrees its readers need (``L2_XCAP``): the
jets of L^2 hold x-degree at most 2, the spray's at most 1 and those of
R and W none, because the spray takes one x-derivative of L^2 and R one
of the spray, and no tensor reads an x-derivative of R or W.  Only the
order-6 jet of L^2, which the Douglas tensor and the Weyl torsion need,
is built for the heavy tensors; W reads its values from the same jets.

Every jet layer (those of L^2, the spray, R and W) is a method under one
decorator, ``_layer``, which caches it with the order it was computed at.
A lone point computes every layer after its order-2 ``L^2`` jet at the
layer's top order, the highest that any tensor reads from it, so that a
full tensor stack computes each layer once: a lower order is a cut of the
top order, bit for bit.  Sampled points are columns of ``PointBlock``s: a
block is sampled points as one point with a point axis, its columns
fixed at construction.  It is built from its order-2 jet of L^2, as a
point is, and runs the same code for every jet layer on jets whose
coefficients carry that axis, each layer reading the block's own lower
layers, at the orders asked for.  A block is judged once, at
construction: it raises there where any column's point would, and a
later layer that raises at some column raises out of the block.  Either
way the error is the one that the first column failing at that step
raises as a lone point (``PointBlock._check_l2``, and the per-point
replay of block series in ``jets``).

Every tensor but the float spray of a lone point is written once over an
optional leading point axis, on the class both share (``JetLayers``): a
point's are its own arrays, a block's have one row per column, read from
its cached layers, so that checks over sampled points measure arrays,
not points.  The module's formulas over that axis (``dot``, ``matvec``,
``outer``, ``per_point``, ``float_pow``, ``horizontal_covariant``) round
as their one-point forms do at every point.

Index conventions: arrays are 0-based; for a connection-like array ``T``
the first axis is the upper index.  Jet variable slots are ``i`` for x^i
and ``n + i`` for y^i.
"""

from __future__ import annotations

import functools
import math
# Sums use reduce(add, ...): sum() starts at 0, which turns a -0.0 total
# into 0.0.
from functools import reduce
from operator import add

import numpy as np

from .jets import (Jet, JetDomainError, JetError, compiled, jet_linear_solve,
                   lift_env, straight_line)
from .lang import MetricSpec, SpecError, _l2
from .memo import cached

# The errors of a jet or float evaluation on which a caller falls back to
# a narrower one: a point's top-order attempt (``_layer``), a chunk of
# sampled draws judged draw by draw (``sampling._admit_block``), and
# stacked float probes evaluated point by point.
FALLBACK_ERRORS = (JetError, SpecError, ValueError, ArithmeticError)

# The x-degree that jets of L^2 keep.  No tensor reads more than two
# x-derivatives of L^2: the spray takes one, and R and W take one more of
# the spray.  Monomials of x-degree 3 and more form an ideal, so leaving
# them out changes no coefficient that is kept.
L2_XCAP = 2


def central_partial(f, x, i, h=1e-5):
    """Symmetric difference quotient of a scalar-or-array function f along
    coordinate i of a vector argument."""
    def at(t):
        z = np.array(x, dtype=float)
        z[i] = t
        return np.asarray(f(z), dtype=float)
    t = float(x[i])
    return (at(t + h) - at(t - h)) / (2.0 * h)


def _check_l2(c, order, x, y):
    """Raise ``JetDomainError`` unless the coefficients ``c`` (a list or
    an array) of a jet of L^2 at the coordinate lists ``x`` and ``y`` give
    a positive value and are all finite; those are the coefficients the
    jet holds, so one of x-degree above ``L2_XCAP`` raises nothing."""
    if not (c[0] > 0.0 and all(map(math.isfinite, c))):
        raise JetDomainError(f"L^2 = {c[0]:.6g} is not positive with finite "
                             f"order-{order} coefficients at x={x}, y={y}")


@functools.cache
def _solver(n):
    """``jet_linear_solve`` on order-0 jets of an ``n x n`` system, as a
    compiled function of floats whose arguments are the matrix's rows,
    each followed by its right-hand side: the same pivots and operations
    in the same order, a reciprocal as ``1.0 / v`` and each product as
    ``0.0 + a * b``.  ``np.linalg.solve`` rounds differently."""
    m = [[f"m{r}_{c}" for c in range(n + 1)] for r in range(n)]
    lines = []
    for col in range(n):
        below = range(col + 1, n)
        # the right-hand side is column n; columns before col are done
        lines.append(f"a, k = abs({m[col][col]}), {col}")
        lines += [f"if abs({m[r][col]}) > a: a, k = abs({m[r][col]}), {r}"
                  for r in below]
        lines.append('if a == 0.0: raise JetDomainError('
                     '"singular jet matrix in linear solve")')
        lines += [f"if k == {r}: {', '.join(m[col][col:] + m[r][col:])} = "
                  f"{', '.join(m[r][col:] + m[col][col:])}" for r in below]
        lines.append(f"i = 1.0 / {m[col][col]}")
        for r in below:
            lines.append(f"f = 0.0 + {m[r][col]} * i")
            lines += [f"{m[r][c]} = {m[r][c]} - (0.0 + f * {m[col][c]})"
                      for c in range(col + 1, n + 1)]
    for r in range(n - 1, -1, -1):
        acc = " - ".join([m[r][n]] + [f"(0.0 + {m[r][c]} * x{c})"
                                      for c in range(r + 1, n)])
        lines.append(f"x{r} = 0.0 + ({acc}) * (1.0 / {m[r][r]})")
    lines.append(f"return [{', '.join(f'x{r}' for r in range(n))}]")
    return compiled("solve", sum(m, []), lines,
                    {"JetDomainError": JetDomainError})


@functools.cache
def _spray_tail(space):
    """``tail(c, y1, .., yn)``, compiled for the order-2 jet space
    ``space`` of L^2: ``(G, g)``, the spray G^i = (1/4) g^il
    (d2L^2/dy^l dx^k y^k - dL^2/dx^l) as a list and g_ij as rows, from
    the coefficient list ``c`` of a jet at ``y``.  It replays the value
    part of ``_spray_jets(0)``, bit for bit, with its errors."""
    n = space.nvars // 2

    def d(*idx):
        pos, fac = space.partials_table(len(idx))
        p, f = int(pos[idx]), float(fac[idx])
        return f"c[{p}]" if f == 1.0 else f"(c[{p}] * {f!r})"

    g = [[f"g{i}_{j}" for j in range(n)] for i in range(n)]
    lines = [f"{g[i][j]} = {d(n + i, n + j)} * 0.5"
             for i in range(n) for j in range(n)]
    for i in range(n):
        acc = " + ".join(f"(0.0 + y{k + 1} * {d(n + i, k)})" for k in range(n))
        lines.append(f"r{i} = ({acc} - {d(i)}) * 0.25")
    args = ", ".join(f"{', '.join(g[i])}, r{i}" for i in range(n))
    rows = ", ".join(f"[{', '.join(row)}]" for row in g)
    lines.append(f"return solve({args}), [{rows}]")
    return compiled("spray_tail", ["c"] + [f"y{k + 1}" for k in range(n)],
                    lines, {"solve": _solver(n)})


class FinslerSpace:
    """A metric spec bound to the jet machinery.  ``spray_g`` is ``g_ij``,
    as rows of floats, where ``spray_values`` last answered (None before
    it first does), which the geodesic guard reads."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.n = spec.dim
        self.spray_g = None

    def point(self, x, y):
        return PointGeometry(self, x, y)

    def l2(self, x, y):
        """Float L^2 for value-only probes at points without geometry:
        value drift, homogeneity, reversibility, finite differences.
        Coordinates of shape ``(n, P)`` give the values at P points as an
        array, one evaluation over float arrays whose every element is bit
        for bit the float of its point, with numpy's warnings silenced as
        Python floats give none; where it raises, the points are
        evaluated one by one, so that the first that fails raises its
        error."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim > 1:
            env = {f"x{i + 1}": row for i, row in enumerate(x)}
            env.update({f"y{i + 1}": row for i, row in enumerate(y)})
            try:
                with np.errstate(all="ignore"):
                    return self.spec.eval_l2(env)
            except FALLBACK_ERRORS:
                return np.array([self.l2(a, b) for a, b in zip(x.T, y.T)])
        env = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
        env.update({f"y{i + 1}": float(v) for i, v in enumerate(y)})
        return float(self.spec.eval_l2(env))

    @functools.cached_property
    def _spray_route(self):
        """``(program, tail)``, compiled on first use: ``program(*x, *y)``
        gives the coefficient list of the order-2 jet of L^2, capped at
        x-degree ``L2_XCAP``, that ``eval_l2`` gives on ``lift_env``, bit
        for bit (``jets.straight_line``), and ``tail`` is the
        ``_spray_tail`` of its space.  None where the program cannot
        replay that evaluation (a jet exponent, a non-finite constant, a
        constant subexpression that raises)."""
        names = [f"{k}{i + 1}" for k in "xy" for i in range(self.n)]
        try:
            program, space = straight_line(functools.partial(_l2, self.spec),
                                           names, 2, L2_XCAP)
        except (JetError, SpecError):
            return None
        return program, _spray_tail(space)

    def spray_values(self, x, y):
        """Spray coefficients G^i at a point; the geodesic equation is
        d2x/dt2 + 2 G(x, dx/dt) = 0.  Bit for bit ``point(x, y).spray()``,
        with its errors: the coefficient list of ``_spray_route``'s
        program passes the point's check (``_check_l2``), or raises its
        error, and its tail solves it.  A point is built only where there
        is no list: the spec has no program, or its guard returned None."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        route = self._spray_route
        if route is not None and x.shape == y.shape == (self.n,):
            xs, ys = x.tolist(), y.tolist()
            c = route[0](*xs, *ys)
            if c is not None:
                _check_l2(c, 2, xs, ys)
                G, self.spray_g = route[1](c, *ys)
                return np.array(G)
        pg = self.point(x, y)
        G = pg.spray()
        self.spray_g = pg.g_low().tolist()
        return G


def _layer(top):
    """Cache a jet layer ``method(self, order)`` in the instance's
    ``_cache`` dict, keyed by the method's name, with the order it was
    computed at.  A call at that order or below returns the cached
    result, which may carry more orders than asked for: a caller that
    combines it with other jets cuts it with ``Jet.truncated`` first.

    A higher order is computed and replaces the cached result.  A point
    whose ``_top`` is set computes it at ``top``, the highest order any
    tensor reads from it, if that is higher, so that each layer is
    computed once; a lower order is a cut of it, bit for bit.  That
    attempt runs with floating-point errors raised: where it raises one of
    ``FALLBACK_ERRORS``, the point clears ``_top`` and computes the order
    asked for, as it would have without the attempt."""
    def decorate(method):
        name = method.__name__

        @functools.wraps(method)
        def layer(self, order):
            got = self._cache.get(name)
            if got is not None and got[0] >= order:
                return got[1]
            if self._top and order < top:
                try:
                    with np.errstate(over="raise", invalid="raise",
                                     divide="raise"):
                        got = self._cache[name] = (top, method(self, top))
                    return got[1]
                except FALLBACK_ERRORS:
                    self._top = False
            got = self._cache[name] = (order, method(self, order))
            return got[1]
        return layer
    return decorate


def _stacked(jets):
    """One jet of the space of ``jets`` whose last axis indexes them."""
    return Jet(jets[0].space, np.stack([j.coeffs for j in jets], axis=-1))


def _pairs(jets):
    """``_stacked`` of jets with an index axis i, their index k, as one
    jet whose last axis holds the pairs (i, k) at ``i * n + k``."""
    c = _stacked(jets).coeffs
    return Jet(jets[0].space, c.reshape(c.shape[:-2] + (-1,)))


def _at(jet, index):
    """The jet at ``index`` of ``jet``'s last axis."""
    return Jet(jet.space, jet.coeffs[..., index])


# Formulas over an optional leading point axis.  Each is bit for bit its
# one-point form at every point: numpy's stacked matmul of the one-point
# shapes rounds as ``a @ b`` does, where an einsum dot sums in another
# order, and numpy's array power rounds unlike Python's float power.

def dot(a, b):
    """a_i b^i, as ``a @ b`` at each point."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(m, v):
    """m_ij v^j, as ``m @ v`` at each point."""
    return (m @ v[..., None])[..., 0]


def vecmat(v, m):
    """v^i m_ij, as ``v @ m`` at each point."""
    return (v[..., None, :] @ m)[..., 0, :]


def outer(a, b):
    """a_i b_j, as ``np.outer(a, b)`` at each point."""
    return a[..., :, None] * b[..., None, :]


def per_point(v, k):
    """A number of each point (a float, or an array over the point axis)
    with ``k`` trailing axes, to scale a tensor of rank ``k``."""
    return np.reshape(v, np.shape(v) + (1,) * k)


def float_pow(v, k):
    """``v ** k`` in Python floats, at each point."""
    return np.reshape([x ** k for x in np.ravel(v).tolist()], np.shape(v))


def horizontal_covariant(F, b, db):
    """Horizontal covariant derivative of an x-dependent covector b from
    the horizontal connection F: db[i, j] - b_r F^r_ij, with db[i, j] the
    plain partial of b_i along x^j."""
    return db - np.einsum("...r,...rij->...ij", b, F)


class JetLayers:
    """The jet layers of a point with ``space``, ``n``, coordinates ``x``
    and ``y``, a ``_cache`` dict and a ``_check_l2`` method, and every
    tensor read from them (``ROW_TENSORS`` and the heavy ones).  The
    same code serves one point, with coordinates of shape ``(n,)``, and
    a ``PointBlock``, whose coordinates of shape ``(n, P)`` carry a
    point axis into every jet and, put first by ``_lead``, into every
    tensor.  ``_top`` is set on a point after construction, while it
    builds its layers at their top orders; a block builds them at the
    orders asked for, and a layer that raises at one of its columns
    raises that column's point's error, evaluated again if asked
    again."""

    _top = False

    def _lead(self, a):
        """``a``, read from jets, with their point axis first; a point's
        jets have none."""
        return a

    def _number(self, v):
        """A number of the point, read from jets: a float for a point."""
        return float(v)

    @_layer(6)
    def _f2(self, order):
        """(seed jets of y, jet of L^2) over (x, y), capped at x-degree
        ``L2_XCAP``, evaluated on jets at every order, by a point and a
        block alike; raises where ``_check_l2`` does."""
        env = lift_env(order, L2_XCAP, x=self.x, y=self.y)
        f2 = self.space.spec.eval_l2(env)
        self._check_l2(f2, order)
        return list(env.values())[self.n:], f2

    @_layer(4)
    def _spray_jets(self, order):
        """The spray G^i as jets, capped at x-degree 1."""
        n = self.n
        f2 = self._f2(order + 2)[1].truncated(order + 2)
        yj = [v.truncated(order, 1) for v in self._f2(order + 2)[0]]
        dy = [f2.deriv(n + i) for i in range(n)]    # order + 1
        g = [[di.deriv(n + j).truncated(order, 1) * 0.5 for j in range(n)]
             for di in dy]
        rhs = []
        for l, dl in enumerate(dy):
            acc = reduce(add, (yj[k] * dl.deriv(k) for k in range(n)))
            rhs.append((acc - f2.deriv(l).truncated(order)) * 0.25)
        return jet_linear_solve(g, rhs)

    @_layer(2)
    def _riemann_jets(self, order):
        """The curvature deviation R^i_k as jets, capped at x-degree 0.
        The spray is one jet with an index axis after the point axis,
        and the pairs (i, k) lie on one axis, at ``i * n + k``: each step
        j of the sum is three products and three sums over all pairs."""
        n = self.n
        G = _stacked(self._spray_jets(order + 2)).truncated(order + 2)
        G1 = G.truncated(order + 1)
        # the terms that take no x-derivative of G need none of its x-degree
        G0 = G.truncated(order + 2, 0)
        G2 = 2.0 * G0.truncated(order)
        yj = _stacked([v.truncated(order, 0)
                       for v in self._f2(order + 4)[0]])
        dG = _pairs([G.deriv(n + k) for k in range(n)])      # order + 1
        dG0 = _pairs([G0.deriv(n + k) for k in range(n)])
        N = dG0.truncated(order)
        i, k = np.divmod(np.arange(n * n), n)
        acc = 2.0 * _pairs([G1.deriv(k) for k in range(n)])
        for j in range(n):
            jj = np.full(n * n, j)
            acc = acc - _at(yj, jj) * dG.deriv(j)
            acc = acc + _at(G2, jj) * dG0.deriv(n + j)
            acc = acc - _at(N, i * n + j) * _at(N, j * n + k)
        return [[_at(acc, i * n + k) for k in range(n)] for i in range(n)]

    @_layer(1)
    def _weyl_jets(self, order):
        """Projectively invariant curvature deviation W^i_k as jets, capped
        at x-degree 0."""
        n = self.n
        R = [[Rik.truncated(order + 1) for Rik in row]
             for row in self._riemann_jets(order + 1)]
        yj = [v.truncated(order, 0) for v in self._f2(order + 3)[0]]
        ric = reduce(add, (R[m][m] for m in range(n)))
        A = [[R[i][k] - (ric * (1.0 / (n - 1)) if i == k else 0.0)
              for k in range(n)] for i in range(n)]
        W = [[None] * n for _ in range(n)]
        for k in range(n):
            tr = reduce(add, (A[m][k].deriv(n + m) for m in range(n)))
            for i in range(n):
                W[i][k] = (A[i][k].truncated(order)
                           - yj[i] * tr * (1.0 / (n + 1)))
        return W

    # -- numeric tensors, point axis first ---------------------------------

    @cached
    def L2(self):
        return self._number(self._f2(2)[1].coeffs[0])

    @cached
    def L(self):
        return self._number(np.sqrt(self.L2()))

    @cached
    def y_low(self):
        """Covariant y: g_ij y^j = (1/2) dL^2/dy^i."""
        return self._lead(0.5 * self._f2(2)[1].partials(1)[self.n:])

    @cached
    def l_low(self):
        """Unit covector l_i = dL/dy^i = y_i / L."""
        return self.y_low() / per_point(self.L(), 1)

    @cached
    def g_low(self):
        n = self.n
        return self._lead(0.5 * self._f2(2)[1].partials(2)[n:, n:])

    @cached
    def det_g(self):
        """det g_ij; sampling admits a point by it."""
        return self._number(np.linalg.det(self.g_low()))

    @cached
    def g_up(self):
        return np.linalg.inv(self.g_low())

    @cached
    def h_low(self):
        """Angular metric h_ij = g_ij - l_i l_j."""
        l = self.l_low()
        return self.g_low() - outer(l, l)

    @cached
    def C_low(self):
        """Cartan torsion C_ijk = (1/4) third y-derivatives of L^2."""
        n = self.n
        return self._lead(0.25 * self._f2(3)[1].partials(3)[n:, n:, n:])

    @cached
    def C_up(self):
        """C^i_jk = g^{ir} C_rjk."""
        return np.einsum("...ir,...rjk->...ijk", self.g_up(), self.C_low())

    @cached
    def spray(self):
        """G^i = (1/4) g^il (d2L^2/dy^l dx^k y^k - dL^2/dx^l), the values
        of the spray jets."""
        return self._lead(np.array([Gi.coeffs[0]
                                    for Gi in self._spray_jets(0)]))

    @cached
    def n_conn(self):
        """Nonlinear connection N^i_j = dG^i/dy^j."""
        return self._lead(np.array([Gi.partials(1)[self.n:]
                                    for Gi in self._spray_jets(1)]))

    @cached
    def berwald(self):
        """Berwald connection G^i_jk = d2 G^i / dy^j dy^k."""
        n = self.n
        return self._lead(np.array([Gi.partials(2)[n:, n:]
                                    for Gi in self._spray_jets(2)]))

    @cached
    def cartan_hconn(self):
        """Horizontal connection F^i_jk built from delta-derivatives of g,
        where delta_j = d/dx^j - N^m_j d/dy^m.  Reduces to the Christoffel
        symbols when the metric is quadratic in y."""
        n = self.n
        d3 = self._lead(self._f2(3)[1].partials(3)[n:, n:])
        N = self.n_conn()
        dg = 0.5 * d3[..., :n]     # dg[r, k, j] = d g_rk / dx^j
        dgy = 0.5 * d3[..., n:]    # dgy[r, k, m] = d g_rk / dy^m
        delta = dg - np.einsum("...rkm,...mj->...rkj", dgy, N)
        # low[r, j, k] = (delta_j g_rk + delta_k g_rj - delta_r g_jk) / 2
        low = 0.5 * (np.swapaxes(delta, -1, -2) + delta
                     - np.moveaxis(delta, -1, -3))
        return np.einsum("...ir,...rjk->...ijk", self.g_up(), low)

    @cached
    def riemann(self):
        """Curvature deviation R^i_k (y-dependent Jacobi operator)."""
        return self._lead(np.array([[Rik.coeffs[0] for Rik in row]
                                    for row in self._riemann_jets(0)]))

    @cached
    def ric(self):
        return self._number(np.trace(self.riemann(), axis1=-2, axis2=-1))

    @cached
    def douglas(self):
        """Douglas tensor: third y-derivatives of the trace-adjusted spray,
        D^h_ijk = d3/dy^i dy^j dy^k (G^h - (dG^m/dy^m) y^h / (n + 1))."""
        n = self.n
        # y-derivatives only: x-degree 0 holds them
        G = [Gh.truncated(4, 0) for Gh in self._spray_jets(4)]
        yj = [v.truncated(3, 0) for v in self._f2(6)[0]]
        tr = reduce(add, (G[m].deriv(n + m) for m in range(n)))
        P = [G[h].truncated(3) - yj[h] * tr * (1.0 / (n + 1))
             for h in range(n)]
        return self._lead(np.array([Ph.partials(3)[n:, n:, n:] for Ph in P]))

    @cached
    def weyl_proj(self):
        """Projectively invariant part of the curvature deviation, read
        from the order-1 Weyl jets that ``weyl_torsion`` needs: every
        check that asks for W also asks for the Weyl torsion (``inv5``)
        or the Douglas tensor (``core.*-structure``), and both need the
        order-6 jet of L^2 that these jets are cut from."""
        return self._lead(np.array([[Wik.coeffs[0] for Wik in row]
                                    for row in self._weyl_jets(1)]))

    @cached
    def weyl_torsion(self):
        """Antisymmetrised y-derivative of the projective curvature,
        (1/3)(d W^h_j / dy^i - d W^h_i / dy^j)."""
        n = self.n
        # dW[..., h, j, i] = d W^h_j / dy^i
        dW = self._lead(np.array([[Wj.partials(1)[n:] for Wj in Wh]
                                  for Wh in self._weyl_jets(1)]))
        i, j = np.triu_indices(n, 1)
        v = (dW[..., j, i] - dW[..., i, j]) / 3.0
        out = np.zeros(dW.shape)
        # v and -v written apart keep signed zeros; (dW - dW^T) / 3 would not
        out[..., i, j] = v
        out[..., j, i] = -v
        return out


class PointBlock(JetLayers):
    """Points of one space as one point with a point axis, whose jet
    layers are evaluated together, once per order asked for, with a
    point's code (``JetLayers``) on the block's own cache, so that a
    layer reads the block's lower layers: a sampled chunk's light ones
    (``_f2`` up to order 4, ``_spray_jets`` up to order 2,
    ``_riemann_jets(0)``), and every layer of the heavy checks' block.
    ``x`` and ``y`` have shape ``(n, P)``, fixed at construction, which
    reads the order-2 jet of L^2 and raises where that raises, as a
    point's does.

    A block is all or nothing: an evaluation that raises at any column
    raises out of the block, at the first step that fails, with the
    error that the first column failing there raises as a lone point.
    The tensors of a block are arrays whose first axis indexes its
    columns."""

    def __init__(self, space, x, y):
        self.space = space
        self.n = space.n
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        self._cache = {}
        self._f2(2)

    def _lead(self, a):
        """``a``, read from jets, with the point axis moved from last to
        first."""
        return np.moveaxis(a, -1, 0).copy()

    def _number(self, v):
        """A number of each point, as an array."""
        return np.array(v)

    def _check_l2(self, f2, order):
        """Raise where ``L^2`` is not positive with finite coefficients at
        some column, the error of the module's ``_check_l2`` at the first
        such column: no later layer of the block meets an inf.  Only the
        coefficients the jet holds count: one of x-degree above
        ``L2_XCAP`` fails no column."""
        c = f2.coeffs
        bad = ~((c[0] > 0.0) & np.isfinite(c).all(axis=0))
        if bad.any():
            p = int(np.argmax(bad))
            _check_l2(c[:, p], order, self.x[:, p].tolist(),
                      self.y[:, p].tolist())


# The light tensors, read from the jet layers up to ``riemann``'s, which
# the checks read at every sample, as rows of the sampled chunks' blocks.
ROW_TENSORS = ("L2", "L", "y_low", "l_low", "g_low", "det_g", "g_up",
               "h_low", "C_low", "C_up", "spray", "n_conn", "berwald",
               "cartan_hconn", "riemann")


class PointGeometry(JetLayers):
    """Lazily computed tensors of a Finsler space at one (x, y), those of
    ``JetLayers`` with the spray solved in floats: the points of the
    spray fallback, the hypersurface sampler's draws and the tensor
    benchmark.

    Construction reads the order-2 jet of L^2, raising where ``_f2`` does;
    jets stay cached at their highest order, tensors by name, in
    ``_cache``.  After construction the point computes its later jet
    layers at their top orders (``_layer``).
    """

    def __init__(self, space, x, y):
        self.space = space
        self.n = space.n
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != (self.n,) or self.y.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates")
        self._cache = {}
        self._f2(2)
        self._top = True

    # -- jet-level intermediates ------------------------------------------

    def _check_l2(self, f2, order):
        """Raise where the module's ``_check_l2`` does."""
        _check_l2(f2.coeffs, order, self.x.tolist(), self.y.tolist())

    # -- numeric tensors ---------------------------------------------------

    @cached
    def spray(self):
        """G^i, solved in floats from the order-2 jet of L^2 by
        ``_spray_tail``: bit for bit the values of ``_spray_jets(0)``."""
        f2 = self._f2(2)[1].truncated(2)
        G, _ = _spray_tail(f2.space)(f2.coeffs.tolist(), *self.y.tolist())
        return np.array(G)
