"""Pointwise Finsler tensor calculus driven by truncated-Taylor jets.

Every quantity is derived from the single scalar L^2 evaluated on jets of
the 2n coordinates (x, y): metric tensors fall out as Taylor coefficients,
and derived fields (geodesic spray, connections, curvatures) are computed
as jets themselves so that their own derivatives remain exact.  Only the
spray's values, which geodesic integration asks for at every step, are
solved in floats from the jet of L^2 (``PointGeometry.spray``).

Index conventions: arrays are 0-based; for a connection-like array ``T``
the first axis is the upper index.  Jet variable slots are ``i`` for x^i
and ``n + i`` for y^i.
"""

from __future__ import annotations

import functools

import numpy as np

from .jets import Jet, JetDomainError, jet_linear_solve, lift
from .lang import MetricSpec
from .memo import cached


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


def lift_x_env(x, order):
    """Jet environment with only the x coordinates active."""
    n = len(x)
    jets = lift(list(x), active=range(n), order=order)
    return {f"x{i + 1}": jets[i] for i in range(n)}


def lift_xy_env(x, y, order):
    """Jet environment with all 2n coordinates active; returns
    (env, x_jets, y_jets)."""
    n = len(x)
    jets = lift(list(x) + list(y), active=range(2 * n), order=order)
    env = {f"x{i + 1}": jets[i] for i in range(n)}
    env.update({f"y{i + 1}": jets[n + i] for i in range(n)})
    return env, jets[:n], jets[n:]


@functools.cache
def _spray_slots(space):
    """Where the spray reads a jet of L^2 over (x, y): positions of the
    y^i y^j, x^k y^l and x^l coefficients, and the factorials (2 on the
    diagonal) that turn the y^i y^j ones into second derivatives."""
    n = space.nvars // 2

    def at(*slots):
        mi = [0] * (2 * n)
        for s in slots:
            mi[s] += 1
        return space.position[tuple(mi)]
    return (np.array([[at(n + i, n + j) for j in range(n)]
                      for i in range(n)]),
            np.array([[at(k, n + l) for k in range(n)] for l in range(n)]),
            np.array([at(l) for l in range(n)]),
            np.eye(n) + 1.0)


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
    """A metric spec bound to the jet machinery."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.n = spec.dim

    def point(self, x, y):
        return PointGeometry(self, x, y)

    def l2(self, x, y):
        env = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
        env.update({f"y{i + 1}": float(v) for i, v in enumerate(y)})
        return float(self.spec.eval_l2(env))

    def spray_values(self, x, y):
        """Spray coefficients G^i at a point; the geodesic equation is
        d2x/dt2 + 2 G(x, dx/dt) = 0."""
        return self.point(x, y).spray()


class PointGeometry:
    """Lazily computed tensors of a Finsler space at one (x, y).

    Jet-valued intermediates are cached at the highest order requested so
    far; numeric tensors are cached by name.
    """

    def __init__(self, space, x, y):
        self.space = space
        self.n = space.n
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != (self.n,) or self.y.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates")
        self._jets = {}
        self._cache = {}
        l2 = space.l2(self.x, self.y)
        if not l2 > 0.0:
            raise JetDomainError(
                f"L^2 = {l2:.6g} is not positive at x={self.x.tolist()}, "
                f"y={self.y.tolist()}")

    # -- slot helpers ----------------------------------------------------

    def _xs(self, i):
        return i

    def _ys(self, i):
        return self.n + i

    def _mi(self, *slots):
        mi = [0] * (2 * self.n)
        for s in slots:
            mi[s] += 1
        return mi

    # -- jet-level intermediates ------------------------------------------

    def _f2(self, order):
        got = self._jets.get("f2")
        if got is None or got[2].order < order:
            env, xj, yj = lift_xy_env(self.x, self.y, order)
            got = (xj, yj, self.space.spec.eval_l2(env))
            self._jets["f2"] = got
        return got

    def _g_jets(self, order):
        got = self._jets.get("g")
        if got is None or got[0][0].order < order:
            _, _, f2 = self._f2(order + 2)
            n = self.n
            got = [[f2.deriv(self._ys(i)).deriv(self._ys(j)) * 0.5
                    for j in range(n)] for i in range(n)]
            if got[0][0].order > order:
                got = [[g.truncated(order) for g in row] for row in got]
            self._jets["g"] = got
        return got

    def _spray_jets(self, order):
        got = self._jets.get("spray")
        if got is None or got[0].order < order:
            n = self.n
            xj, yj, f2 = self._f2(order + 2)
            g = self._g_jets(order)
            rhs = []
            for l in range(n):
                dl = f2.deriv(self._ys(l))          # order + 1
                acc = None
                for k in range(n):
                    term = yj[k] * dl.deriv(self._xs(k))
                    acc = term if acc is None else acc + term
                rhs.append((acc - f2.deriv(self._xs(l))) * 0.25)
            got = jet_linear_solve(g, rhs)
            self._jets["spray"] = got
        return got

    def _riemann_jets(self, order):
        got = self._jets.get("riemann")
        if got is None or got[0][0].order < order:
            n = self.n
            G = self._spray_jets(order + 2)
            xj, yj, _ = self._f2(order + 4)
            R = [[None] * n for _ in range(n)]
            for i in range(n):
                dGi = [G[i].deriv(self._ys(k)) for k in range(n)]
                for k in range(n):
                    acc = 2.0 * G[i].deriv(self._xs(k))
                    for j in range(n):
                        acc = acc - yj[j] * dGi[k].deriv(self._xs(j))
                        acc = acc + 2.0 * G[j] * dGi[k].deriv(self._ys(j))
                        acc = acc - dGi[j] * G[j].deriv(self._ys(k))
                    R[i][k] = acc
            self._jets["riemann"] = R
            got = R
        return got

    def _weyl_jets(self, order):
        """Projectively invariant curvature deviation W^i_k as jets."""
        got = self._jets.get("weyl")
        if got is None or got[0][0].order < order:
            n = self.n
            R = self._riemann_jets(order + 1)
            _, yj, _ = self._f2(order + 3)
            ric = None
            for m in range(n):
                ric = R[m][m] if ric is None else ric + R[m][m]
            A = [[R[i][k] - (ric * (1.0 / (n - 1)) if i == k else 0.0)
                  for k in range(n)] for i in range(n)]
            W = [[None] * n for _ in range(n)]
            for k in range(n):
                tr = None
                for m in range(n):
                    t = A[m][k].deriv(self._ys(m))
                    tr = t if tr is None else tr + t
                for i in range(n):
                    W[i][k] = A[i][k] - yj[i] * tr * (1.0 / (n + 1))
            self._jets["weyl"] = W
            got = W
        return got

    # -- numeric tensors ---------------------------------------------------

    @cached
    def L2(self):
        return self._f2(0)[2].value

    @cached
    def L(self):
        return float(np.sqrt(self.L2()))

    @cached
    def y_low(self):
        """Covariant y: g_ij y^j = (1/2) dL^2/dy^i."""
        _, _, f2 = self._f2(1)
        return np.array([0.5 * f2.extract(self._mi(self._ys(i)))
                         for i in range(self.n)])

    @cached
    def l_low(self):
        """Unit covector l_i = dL/dy^i = y_i / L."""
        return self.y_low() / self.L()

    @cached
    def g_low(self):
        _, _, f2 = self._f2(2)
        n = self.n
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = 0.5 * f2.extract(
                    self._mi(self._ys(i), self._ys(j)))
        return g

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
        _, _, f2 = self._f2(3)
        n = self.n
        C = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    v = 0.25 * f2.extract(
                        self._mi(self._ys(i), self._ys(j), self._ys(k)))
                    C[i, j, k] = C[i, k, j] = C[j, i, k] = v
                    C[j, k, i] = C[k, i, j] = C[k, j, i] = v
        return C

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
        f2 = self._f2(2)[2]
        yy, xy, x, fac = _spray_slots(f2.space)
        c = f2.coeffs
        g = (c[yy] * fac * 0.5).tolist()
        d2 = c[xy].tolist()
        y = self.y.tolist()
        rhs = []
        for row, dx in zip(d2, c[x].tolist()):
            acc = None
            for yk, d in zip(y, row):
                term = 0.0 + yk * d
                acc = term if acc is None else acc + term
            rhs.append((acc - dx) * 0.25)
        return np.array(_solve_as_jets(g, rhs))

    @cached
    def n_conn(self):
        """Nonlinear connection N^i_j = dG^i/dy^j."""
        G = self._spray_jets(1)
        return np.array([[G[i].deriv(self._ys(j)).value
                          for j in range(self.n)] for i in range(self.n)])

    @cached
    def berwald(self):
        """Berwald connection G^i_jk = d2 G^i / dy^j dy^k."""
        G = self._spray_jets(2)
        n = self.n
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                dj = G[i].deriv(self._ys(j))
                for k in range(j, n):
                    out[i, j, k] = out[i, k, j] = dj.deriv(self._ys(k)).value
        return out

    @cached
    def cartan_hconn(self):
        """Horizontal connection F^i_jk built from delta-derivatives of g,
        where delta_j = d/dx^j - N^m_j d/dy^m.  Reduces to the Christoffel
        symbols when the metric is quadratic in y."""
        n = self.n
        _, _, f2 = self._f2(3)
        N = self.n_conn()
        dg = np.empty((n, n, n))    # dg[r, k, j] = d g_rk / dx^j
        dgy = np.empty((n, n, n))   # dgy[r, k, m] = d g_rk / dy^m
        for r in range(n):
            for k in range(r, n):
                for j in range(n):
                    dg[r, k, j] = dg[k, r, j] = 0.5 * f2.extract(
                        self._mi(self._ys(r), self._ys(k), self._xs(j)))
                    dgy[r, k, j] = dgy[k, r, j] = 0.5 * f2.extract(
                        self._mi(self._ys(r), self._ys(k), self._ys(j)))
        delta = dg - np.einsum("rkm,mj->rkj", dgy, N)
        low = np.empty((n, n, n))
        for r in range(n):
            for j in range(n):
                for k in range(n):
                    # (delta_j g_rk + delta_k g_rj - delta_r g_jk) / 2
                    low[r, j, k] = 0.5 * (delta[r, k, j] + delta[r, j, k]
                                          - delta[j, k, r])
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
        G = self._spray_jets(4)
        _, yj, _ = self._f2(6)
        tr = None
        for m in range(n):
            t = G[m].deriv(self._ys(m))
            tr = t if tr is None else tr + t
        out = np.empty((n, n, n, n))
        for h in range(n):
            P = G[h] - yj[h] * tr * (1.0 / (n + 1))
            for i in range(n):
                di = P.deriv(self._ys(i))
                for j in range(i, n):
                    dij = di.deriv(self._ys(j))
                    for k in range(j, n):
                        v = dij.deriv(self._ys(k)).value
                        out[h, i, j, k] = out[h, i, k, j] = v
                        out[h, j, i, k] = out[h, j, k, i] = v
                        out[h, k, i, j] = out[h, k, j, i] = v
        return out

    @cached
    def riemann(self):
        """Curvature deviation R^i_k (y-dependent Jacobi operator)."""
        R = self._riemann_jets(0)
        return np.array([[R[i][k].value for k in range(self.n)]
                         for i in range(self.n)])

    @cached
    def ric(self):
        return float(np.trace(self.riemann()))

    @cached
    def weyl_proj(self):
        """Projectively invariant part of the curvature deviation."""
        W = self._weyl_jets(0)
        return np.array([[W[i][k].value for k in range(self.n)]
                         for i in range(self.n)])

    @cached
    def weyl_torsion(self):
        """Antisymmetrised y-derivative of the projective curvature,
        (1/3)(d W^h_j / dy^i - d W^h_i / dy^j)."""
        n = self.n
        W = self._weyl_jets(1)
        out = np.zeros((n, n, n))
        for h in range(n):
            dW = [[W[h][j].deriv(self._ys(i)).value for j in range(n)]
                  for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = (dW[i][j] - dW[j][i]) / 3.0
                    out[h, i, j] = v
                    out[h, j, i] = -v
        return out
