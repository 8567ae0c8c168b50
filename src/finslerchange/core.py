"""Pointwise Finsler tensor calculus driven by truncated-Taylor jets.

Every quantity is derived from the single scalar L^2 evaluated on jets of
the 2n coordinates (x, y): metric tensors fall out as Taylor coefficients,
and derived fields (geodesic spray, connections, curvatures) are computed
as jets themselves so that their own derivatives remain exact.  A point
is built from one order-2 jet of L^2; the spray's values, which geodesic
integration asks for at every step, are solved in floats from that jet.

Sampled points are grouped in ``PointBlock``s: a block is its members as
one point with a point axis, and runs the same code for the light jet
layers (those ``riemann`` needs) on jets whose coefficients carry that
axis, each layer reading the block's own lower layers.  Members cache
views of their columns, bit for bit what they would have computed
alone; a column whose ``L^2`` jet fails its check is left out.

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
from .memo import cached, cached_to_order


def central_diff(f, t, h=1e-5):
    """Symmetric difference quotient of a scalar-or-array function."""
    fp = np.asarray(f(t + h), dtype=float)
    fm = np.asarray(f(t - h), dtype=float)
    return (fp - fm) / (2.0 * h)


def central_partial(f, x, i, h=1e-5):
    """Symmetric difference of f along coordinate i of a vector argument."""
    def slice_(t):
        z = np.array(x, dtype=float)
        z[i] = t
        return f(z)
    return central_diff(slice_, float(x[i]), h)


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


def _light(max_order):
    """Route a jet layer's calls at orders up to ``max_order`` through
    ``_light_layer``: a point takes them from its ``PointBlock`` where the
    block fills them, and a block evaluates each at most once."""
    def decorate(method):
        @functools.wraps(method)
        def layer(self, order):
            if order <= max_order:
                return self._light_layer(method, order)
            return method(self, order)
        return layer
    return decorate


def _column(value, p):
    """Column ``p`` of a structure of block jets (a jet, or lists and
    tuples of them): the same structure of one-point jets whose
    coefficients are views of the block's."""
    if isinstance(value, Jet):
        return Jet(value.space, value.coeffs[:, p])
    return type(value)(_column(v, p) for v in value)


class _JetLayers:
    """The light jet layers, those ``riemann`` needs, of a point with
    ``space``, ``n``, coordinates ``x`` and ``y``, a ``_cache`` dict, and
    ``_check_l2`` and ``_light_layer`` methods.  The same code serves one
    point, with coordinates of shape ``(n,)``, and a ``PointBlock``, whose
    coordinates of shape ``(n, P)`` carry a point axis into every jet."""

    @cached_to_order
    @_light(4)
    def _f2(self, order):
        """(seed jets of y, jet of L^2) over (x, y); raises where
        ``_check_l2`` does."""
        env = lift_env(order, x=self.x, y=self.y)
        f2 = self.space.spec.eval_l2(env)
        self._check_l2(f2, order)
        return list(env.values())[self.n:], f2

    @cached_to_order
    @_light(2)
    def _spray_jets(self, order):
        n = self.n
        f2 = self._f2(order + 2)[1].truncated(order + 2)
        yj = [v.truncated(order) for v in self._f2(order + 2)[0]]
        dy = [f2.deriv(n + i) for i in range(n)]    # order + 1
        g = [[di.deriv(n + j) * 0.5 for j in range(n)] for di in dy]
        rhs = []
        for l, dl in enumerate(dy):
            acc = reduce(add, (yj[k] * dl.deriv(k) for k in range(n)))
            rhs.append((acc - f2.deriv(l).truncated(order)) * 0.25)
        return jet_linear_solve(g, rhs)

    @cached_to_order
    @_light(0)
    def _riemann_jets(self, order):
        n = self.n
        G = [Gi.truncated(order + 2) for Gi in self._spray_jets(order + 2)]
        G1 = [Gi.truncated(order + 1) for Gi in G]
        G2 = [2.0 * Gi.truncated(order) for Gi in G]
        yj = [v.truncated(order) for v in self._f2(order + 4)[0]]
        dG = [[Gi.deriv(n + k) for k in range(n)] for Gi in G]     # order + 1
        N = [[Gi.deriv(n + k) for k in range(n)] for Gi in G1]     # order
        R = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                acc = 2.0 * G1[i].deriv(k)
                for j in range(n):
                    acc = acc - yj[j] * dG[i][k].deriv(j)
                    acc = acc + G2[j] * dG[i][k].deriv(n + j)
                    acc = acc - N[i][j] * N[j][k]
                R[i][k] = acc
        return R


class PointBlock(_JetLayers):
    """Sampled points of one space as one point with a point axis, whose
    light jet layers are evaluated together: ``_f2`` up to order 4,
    ``_spray_jets`` up to order 2 and ``_riemann_jets(0)``.

    The first member that asks for a layer at an order it lacks makes the
    block compute it, for all its points, with ``PointGeometry``'s code on
    the block's own cache, so that a layer reads the block's lower layers.
    After each evaluation every member whose column is ``ok`` and that
    lacks a layer the block holds, at the block's order, gets a view of
    its column: the block may run ahead of a member's own sequence of
    orders, and members keep no older orders alive beside the block's
    arrays.  ``ok`` clears the columns whose ``L^2`` jet failed its
    check; such a member, and every member of an evaluation that raises,
    is left to compute alone when it asks, so it raises its own error.
    Each layer and order is tried once per block."""

    def __init__(self, members):
        self.members = list(members)
        self.space = self.members[0].space
        self.n = self.members[0].n
        self.x = np.stack([pg.x for pg in self.members], axis=1)
        self.y = np.stack([pg.y for pg in self.members], axis=1)
        self.ok = np.ones(len(self.members), dtype=bool)
        self._cache = {}
        self._tried = set()
        for pg in self.members:
            pg._block = self

    def _check_l2(self, f2, order):
        c = f2.coeffs
        self.ok &= (c[0] > 0.0) & np.isfinite(c).all(axis=0)

    def _light_layer(self, method, order):
        """Evaluate each layer and order once: a result stays cached, so
        one that is asked for again raised the first time."""
        key = (method.__name__, order)
        if key in self._tried:
            raise JetError(f"{key} raised before in this block")
        self._tried.add(key)
        return method(self, order)

    def fill(self, point, name, order):
        """``point``'s result of the jet layer ``name`` at ``order``,
        evaluated for the block, or None where the block leaves it."""
        if (name, order) not in self._tried:
            try:
                getattr(self, name)(order)
            except (JetError, SpecError, ValueError, ArithmeticError):
                pass
            self._tried.add((name, order))
            self._hand_out()
        got = point._cache.get(name)
        return got[1] if got is not None and got[0] >= order else None

    def _hand_out(self):
        """Cache a view of its column of every layer the block holds in
        each ``ok`` member that holds that layer at a lower order."""
        ok = np.flatnonzero(self.ok).tolist()
        for name, (order, value) in self._cache.items():
            for p in ok:
                cache = self.members[p]._cache
                if cache.get(name, (-1,))[0] < order:
                    cache[name] = (order, _column(value, p))


class PointGeometry(_JetLayers):
    """Lazily computed tensors of a Finsler space at one (x, y).

    Construction builds the order-2 jet of L^2, raising where ``_f2`` does;
    jets stay cached at their highest order, tensors by name, in ``_cache``.
    ``_block`` is the ``PointBlock`` of a sampled point, else None.
    """

    def __init__(self, space, x, y):
        self.space = space
        self.n = space.n
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != (self.n,) or self.y.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates")
        self._cache = {}
        self._block = None
        self._f2(2)

    # -- jet-level intermediates ------------------------------------------

    def _light_layer(self, method, order):
        if self._block is not None:
            got = self._block.fill(self, method.__name__, order)
            if got is not None:
                return got
        return method(self, order)

    def _check_l2(self, f2, order):
        """Raise ``JetDomainError`` unless L^2 is positive and every
        coefficient is finite."""
        if not (f2.value > 0.0 and np.isfinite(f2.coeffs).all()):
            raise JetDomainError(f"L^2 = {f2.value:.6g} is not positive with "
                                 f"finite order-{order} coefficients at "
                                 f"x={self.x.tolist()}, y={self.y.tolist()}")

    @cached_to_order
    def _weyl_jets(self, order):
        """Projectively invariant curvature deviation W^i_k as jets."""
        n = self.n
        R = [[Rik.truncated(order + 1) for Rik in row]
             for row in self._riemann_jets(order + 1)]
        yj = [v.truncated(order) for v in self._f2(order + 3)[0]]
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
        G = [Gh.truncated(4) for Gh in self._spray_jets(4)]
        yj = [v.truncated(3) for v in self._f2(6)[0]]
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
        """Projectively invariant part of the curvature deviation."""
        return np.array([[Wik.value for Wik in row]
                         for row in self._weyl_jets(0)])

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
