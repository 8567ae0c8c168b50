"""Pointwise Finsler tensor calculus driven by truncated-Taylor jets.

Every quantity is derived from the single scalar L^2 evaluated on jets of
the 2n coordinates (x, y): metric tensors fall out as Taylor coefficients,
and derived fields (geodesic spray, connections, curvatures) are computed
as jets themselves so that their own derivatives remain exact.  A point
is built from one order-2 jet of L^2; the spray's values, which geodesic
integration asks for at every step, are solved in floats from that jet.

Each layer keeps only the x-degrees its readers need (``L2_XCAP``): the
jets of L^2 hold x-degree at most 2, the spray's at most 1 and those of
R and W none, because the spray takes one x-derivative of L^2 and R one
of the spray, and no tensor reads an x-derivative of R or W.  Only the
order-6 jet of L^2, which the Douglas tensor and the Weyl torsion need,
is built for the heavy tensors; W reads its values from the same jets.

Every jet layer (those of L^2, the spray, R and W) is a method under one
decorator, ``_layer``, which caches it with the order it was computed at.
A lone point (one without a block) computes every layer after its
order-2 ``L^2`` jet at the layer's top order, the highest that any
tensor reads from it, so that a full tensor stack computes each layer
once: a lower order is a cut of the top order, bit for bit.  Sampled
points live in ``PointBlock``s: a block is the sampler's chunk of
candidate draws as one point with a point axis.  It is built from its
order-2 jet of L^2, as a point is, and runs the same code for the light
jet layers (those ``riemann`` needs) on jets whose coefficients carry
that axis, each layer reading the block's own lower layers.  Its
admitted draws are its members (``PointBlock.point``), from their
order-2 ``L^2`` jet on: they read their columns of the light layers
through, uncached, bit for bit what they would have computed alone.  A
column whose ``L^2`` jet fails its check, or whose draw is not admitted,
is left out, and a block evaluation that raises leaves out every column
(``PointBlock.layer``).

Index conventions: arrays are 0-based; for a connection-like array ``T``
the first axis is the upper index.  Jet variable slots are ``i`` for x^i
and ``n + i`` for y^i.
"""

from __future__ import annotations

import functools
# Sums use reduce(add, ...): sum() starts at 0, which turns a -0.0 total
# into 0.0.
from functools import reduce
from operator import add

import numpy as np

from .jets import Jet, JetDomainError, JetError, jet_linear_solve, lift_env
from .lang import MetricSpec, SpecError
from .memo import cached

# The errors of a block evaluation that clear every column of the block
# (``PointBlock.layer``), so that each member computes alone and raises
# its own.
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


def _solve_as_jets(A, b):
    """``jet_linear_solve`` on the values of order-0 jets, in floats: the
    same pivots and the same operations in the same order, with a
    reciprocal taken as ``1.0 / v`` and each product as ``0.0 + a * b``.
    ``np.linalg.solve`` rounds differently."""
    n = len(b)
    M = [list(row) for row in A]
    b = list(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) == 0.0:
            raise JetDomainError("singular jet matrix in linear solve")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            b[col], b[piv] = b[piv], b[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            f = 0.0 + M[r][col] * inv
            for c in range(col + 1, n):
                M[r][c] = M[r][c] - (0.0 + f * M[col][c])
            b[r] = b[r] - (0.0 + f * b[col])
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc = acc - (0.0 + M[r][c] * x[c])
        x[r] = 0.0 + acc * (1.0 / M[r][r])
    return x


class FinslerSpace:
    """A metric spec bound to the jet machinery.

    ``spray_point`` is the point of the last ``spray_values`` call (None
    before the first), so that a caller can read ``g`` where it last
    asked for the spray without evaluating ``L^2`` again.  It holds the
    caller's arrays, which must not change before it is read.  Only
    those points are kept: they hold order-2 jets."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.n = spec.dim
        self.spray_point = None

    def point(self, x, y):
        return PointGeometry(self, x, y)

    def l2(self, x, y):
        """Float L^2 for value-only probes at points without geometry:
        value drift, homogeneity, reversibility, finite differences."""
        env = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
        env.update({f"y{i + 1}": float(v) for i, v in enumerate(y)})
        return float(self.spec.eval_l2(env))

    def spray_values(self, x, y):
        """Spray coefficients G^i at a point; the geodesic equation is
        d2x/dt2 + 2 G(x, dx/dt) = 0."""
        self.spray_point = self.point(x, y)
        return self.spray_point.spray()


def _layer(top, cap):
    """Cache a jet layer ``method(self, order)`` in the instance's
    ``_cache`` dict, keyed by the method's name, with the order it was
    computed at.  A call at that order or below returns the cached
    result, which may carry more orders than asked for: a caller that
    combines it with other jets cuts it with ``Jet.truncated`` first.

    A higher order, up to ``cap``, reads the point's column of its
    ``PointBlock``'s layer (``PointBlock.layer``) while that column is
    ``ok``, caching nothing; otherwise the layer is computed and replaces
    the cached result.  A point whose ``_top`` is set computes it at
    ``top``, the highest order any tensor reads from it, if that is
    higher, so that each layer is computed once; a lower order is a cut
    of it, bit for bit.  That attempt runs with floating-point errors
    raised: where it raises one of ``FALLBACK_ERRORS``, the point clears
    ``_top`` and computes the order asked for, as it would have without
    the attempt."""
    def decorate(method):
        name = method.__name__

        @functools.wraps(method)
        def layer(self, order):
            got = self._cache.get(name)
            if got is not None and got[0] >= order:
                return got[1]
            block = self._block
            if block is not None and order <= cap and block.ok[self._p]:
                value = block.layer(name, order)
                if block.ok[self._p]:
                    return _column(value, self._p)
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


def _column(value, p):
    """Column ``p`` of a structure of block jets (a jet, or lists and
    tuples of them): the same structure of one-point jets whose
    coefficients are views of the block's."""
    if isinstance(value, Jet):
        return Jet(value.space, value.coeffs[:, p])
    return type(value)([_column(v, p) for v in value])


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


class _JetLayers:
    """The jet layers of a point with ``space``, ``n``, coordinates ``x``
    and ``y``, a ``_cache`` dict and a ``_check_l2`` method.  The same
    code serves one point, with coordinates of shape ``(n,)``, and a
    ``PointBlock``, whose coordinates of shape ``(n, P)`` carry a point
    axis into every jet.  ``_block`` is the block a point reads the light
    layers (those ``riemann`` needs) through, and ``_p`` its column
    there; a block reads through none, and the Weyl jets are read through
    at no order.  ``_top`` is set on a lone point after construction,
    while it builds its layers at their top orders."""

    _block = None
    _top = False

    @_layer(6, 4)
    def _f2(self, order):
        """(seed jets of y, jet of L^2) over (x, y), capped at x-degree
        ``L2_XCAP``; raises where ``_check_l2`` does."""
        env = lift_env(order, L2_XCAP, x=self.x, y=self.y)
        f2 = self.space.spec.eval_l2(env)
        self._check_l2(f2, order)
        return list(env.values())[self.n:], f2

    @_layer(4, 2)
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

    @_layer(2, 0)
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

    @_layer(1, -1)    # no order reads through
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


class PointBlock(_JetLayers):
    """Points of one space as one point with a point axis, whose light jet
    layers are evaluated together: ``_f2`` up to order 4, ``_spray_jets``
    up to order 2 and ``_riemann_jets(0)``.  ``x`` and ``y`` have shape
    ``(n, P)``; ``point`` makes the member of a column.  Construction
    reads the order-2 jet of L^2 under ``layer``, as a point's does, and
    clears ``ok`` where it fails its check, or everywhere where it raises.

    A member that asks for such a layer at an order its own cache lacks
    reads its column of the block's layer, which the block computes for
    all its points, once per order, with ``PointGeometry``'s code on its
    own cache, so that a layer reads the block's lower layers.  ``ok``
    clears the columns whose ``L^2`` jet fails its check, all columns
    where a block evaluation raises, and those ``keep`` leaves out; their
    members compute alone, so they raise their own errors."""

    def __init__(self, space, x, y):
        self.space = space
        self.n = space.n
        self.x = np.array(x, dtype=float)
        self.y = np.array(y, dtype=float)
        self.ok = np.ones(self.x.shape[1], dtype=bool)
        self._cache = {}
        self.layer("_f2", 2)

    def layer(self, name, order):
        """The block's jet layer ``name`` at ``order``; None, with every
        column cleared, where it raises one of ``FALLBACK_ERRORS``: a
        failure belongs to a column, which its member finds alone."""
        try:
            return getattr(self, name)(order)
        except FALLBACK_ERRORS:
            self.ok[:] = False
            return None

    def point(self, p, x, y):
        """The point ``(x, y)`` of column ``p`` as a member, which reads its
        light jet layers, its order-2 ``L^2`` jet too, through the block."""
        return PointGeometry(self.space, x, y, self, p)

    def keep(self, columns):
        """Set ``ok`` to exactly ``columns``, so that only their members
        read through the block, also where construction cleared every
        column, and give the other columns the coordinates of a kept one:
        a later layer meets no draw that was rejected."""
        self.ok[:] = False
        self.ok[columns] = True
        self._fill(self.x, self.y)

    def _check_l2(self, f2, order):
        """Clear ``ok`` where ``L^2`` is not positive with finite
        coefficients, and give the failed columns the coefficients and
        coordinates of an ``ok`` one.  Only the coefficients the jet
        holds count: one of x-degree above ``L2_XCAP`` fails no column."""
        c = f2.coeffs
        self.ok &= (c[0] > 0.0) & np.isfinite(c).all(axis=0)
        self._fill(c, self.x, self.y)

    def _fill(self, *arrays):
        """Give the columns of ``arrays`` outside ``ok`` the values of the
        first ``ok`` one: no member reads them again, and their infs would
        meet zeros in the block's later layers."""
        if self.ok.any() and not self.ok.all():
            good = [int(np.argmax(self.ok))]
            for a in arrays:
                a[:, ~self.ok] = a[:, good]


class PointGeometry(_JetLayers):
    """Lazily computed tensors of a Finsler space at one (x, y).

    Construction reads the order-2 jet of L^2, raising where ``_f2`` does,
    unless the point is a member of an ``ok`` column of its block, which
    has passed that check; jets stay cached at their highest order,
    tensors by name, in ``_cache``.  ``_block`` is the ``PointBlock`` of
    a sampled point, else None, and ``_p`` its column there.  A lone
    point, with no block, computes its later jet layers at their top
    orders (``_layer``).
    """

    def __init__(self, space, x, y, block=None, p=None):
        self.space = space
        self.n = space.n
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != (self.n,) or self.y.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates")
        self._cache = {}
        self._block, self._p = block, p
        if block is None or not block.ok[p]:
            self._f2(2)
        self._top = block is None

    # -- jet-level intermediates ------------------------------------------

    def _check_l2(self, f2, order):
        """Raise ``JetDomainError`` unless L^2 is positive and every
        coefficient is finite; those are the coefficients the jet holds,
        so one of x-degree above ``L2_XCAP`` raises nothing."""
        if not (f2.value > 0.0 and np.isfinite(f2.coeffs).all()):
            raise JetDomainError(f"L^2 = {f2.value:.6g} is not positive with "
                                 f"finite order-{order} coefficients at "
                                 f"x={self.x.tolist()}, y={self.y.tolist()}")

    # -- numeric tensors ---------------------------------------------------

    @cached
    def L2(self):
        return self._f2(2)[1].value

    @cached
    def L(self):
        return float(np.sqrt(self.L2()))

    @cached
    def y_low(self):
        """Covariant y: g_ij y^j = (1/2) dL^2/dy^i."""
        return 0.5 * self._f2(2)[1].partials(1)[self.n:]

    @cached
    def l_low(self):
        """Unit covector l_i = dL/dy^i = y_i / L."""
        return self.y_low() / self.L()

    @cached
    def g_low(self):
        n = self.n
        return 0.5 * self._f2(2)[1].partials(2)[n:, n:]

    @cached
    def det_g(self):
        """det g_ij; sampling admits a point by it."""
        return float(np.linalg.det(self.g_low()))

    @cached
    def g_up(self):
        return np.linalg.inv(self.g_low())

    @cached
    def h_low(self):
        """Angular metric h_ij = g_ij - l_i l_j."""
        l = self.l_low()
        return self.g_low() - np.outer(l, l)

    @cached
    def C_low(self):
        """Cartan torsion C_ijk = (1/4) third y-derivatives of L^2."""
        n = self.n
        return 0.25 * self._f2(3)[1].partials(3)[n:, n:, n:]

    @cached
    def C_up(self):
        """C^i_jk = g^{ir} C_rjk."""
        return np.einsum("ir,rjk->ijk", self.g_up(), self.C_low())

    @cached
    def spray(self):
        """G^i = (1/4) g^il (d2L^2/dy^l dx^k y^k - dL^2/dx^l), read from
        the order-2 jet of L^2 and solved in floats.  Every operation
        replays the value part of ``_spray_jets(0)``, so the two agree
        bit for bit; a jet product's value is ``0.0 + a * b``."""
        n = self.n
        f2 = self._f2(2)[1]
        d2 = f2.partials(2)
        g = (d2[n:, n:] * 0.5).tolist()
        y = self.y.tolist()
        rhs = []
        for row, dx in zip(d2[n:, :n].tolist(), f2.partials(1)[:n].tolist()):
            acc = reduce(add, (0.0 + yk * d for yk, d in zip(y, row)))
            rhs.append((acc - dx) * 0.25)
        return np.array(_solve_as_jets(g, rhs))

    @cached
    def n_conn(self):
        """Nonlinear connection N^i_j = dG^i/dy^j."""
        return np.array([Gi.partials(1)[self.n:]
                         for Gi in self._spray_jets(1)])

    @cached
    def berwald(self):
        """Berwald connection G^i_jk = d2 G^i / dy^j dy^k."""
        n = self.n
        return np.array([Gi.partials(2)[n:, n:]
                         for Gi in self._spray_jets(2)])

    @cached
    def cartan_hconn(self):
        """Horizontal connection F^i_jk built from delta-derivatives of g,
        where delta_j = d/dx^j - N^m_j d/dy^m.  Reduces to the Christoffel
        symbols when the metric is quadratic in y."""
        n = self.n
        d3 = self._f2(3)[1].partials(3)[n:, n:]
        N = self.n_conn()
        dg = 0.5 * d3[:, :, :n]     # dg[r, k, j] = d g_rk / dx^j
        dgy = 0.5 * d3[:, :, n:]    # dgy[r, k, m] = d g_rk / dy^m
        delta = dg - np.einsum("rkm,mj->rkj", dgy, N)
        # low[r, j, k] = (delta_j g_rk + delta_k g_rj - delta_r g_jk) / 2
        low = 0.5 * (delta.transpose(0, 2, 1) + delta
                     - delta.transpose(2, 0, 1))
        return np.einsum("ir,rjk->ijk", self.g_up(), low)

    def h_cov_covector(self, b_vals, db_vals):
        """Horizontal covariant derivative of an x-dependent covector:
        out[i, j] = db_vals[i, j] - b_r F^r_ij, with db_vals[i, j] the
        plain partial of b_i along x^j."""
        F = self.cartan_hconn()
        return np.asarray(db_vals, dtype=float) - np.einsum(
            "r,rij->ij", np.asarray(b_vals, dtype=float), F)

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
        return np.array([Ph.partials(3)[n:, n:, n:] for Ph in P])

    @cached
    def riemann(self):
        """Curvature deviation R^i_k (y-dependent Jacobi operator)."""
        return np.array([[Rik.value for Rik in row]
                         for row in self._riemann_jets(0)])

    @cached
    def ric(self):
        return float(np.trace(self.riemann()))

    @cached
    def weyl_proj(self):
        """Projectively invariant part of the curvature deviation, read
        from the order-1 Weyl jets that ``weyl_torsion`` needs: every
        check that asks for W at a point also asks there for the Weyl
        torsion (``inv5``) or the Douglas tensor (``core.weyl-structure``
        and ``core.douglas-structure`` run on the same heavy points), and
        both need the order-6 jet of L^2 that these jets are cut from."""
        return np.array([[Wik.value for Wik in row]
                         for row in self._weyl_jets(1)])

    @cached
    def weyl_torsion(self):
        """Antisymmetrised y-derivative of the projective curvature,
        (1/3)(d W^h_j / dy^i - d W^h_i / dy^j)."""
        n = self.n
        # dW[h, j, i] = d W^h_j / dy^i
        dW = np.array([[Wj.partials(1)[n:] for Wj in Wh]
                       for Wh in self._weyl_jets(1)])
        i, j = np.triu_indices(n, 1)
        v = (dW[:, j, i] - dW[:, i, j]) / 3.0
        out = np.zeros((n, n, n))
        # v and -v written apart keep signed zeros; (dW - dW^T) / 3 would not
        out[:, i, j] = v
        out[:, j, i] = -v
        return out
