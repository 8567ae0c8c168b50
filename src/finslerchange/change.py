"""Randers-type conformal rescaling of a Finsler metric.

The transformation acts as

    L(x, y)  ->  Lc(x, y) = exp(sigma(x)) L(x, y) + b_i(x) y^i

with a position-dependent scale exponent sigma and a drift covector b.
This module builds the changed metric as a first-class metric spec (so the
full jet pipeline applies to it unchanged), and provides the closed-form
predictions for the changed tensors in terms of base-space data, next to
the directly computed values, so the two routes can be compared.
"""

from __future__ import annotations

import numpy as np

from .core import FinslerSpace
from .jets import Jet, JetDomainError, lift_env
from .lang import (
    Bin,
    Call,
    ChangeSpec,
    MetricSpec,
    Num,
    Var,
    evaluate,
    quadratic_form,
)
from .memo import cached


def _is_zero(expr):
    return isinstance(expr, Num) and expr.value == 0.0


def changed_metric_spec(metric: MetricSpec, change: ChangeSpec) -> MetricSpec:
    """Metric spec of the transformed space.

    The expression is assembled so that degenerate cases stay exact: the
    identity change returns the base spec itself, a pure scale keeps a
    quadratic metric quadratic, and a pure drift adds no exp factor.
    """
    if change.is_identity:
        return metric
    n = metric.dim
    sigma = change.sigma_or_zero()
    b_exprs = change.b_list(n)
    name = f"{metric.name}*{change.name}"

    beta = None
    for i, bi in enumerate(b_exprs):
        if _is_zero(bi):
            continue
        term = Bin("*", bi, Var(f"y{i + 1}"))
        beta = term if beta is None else Bin("+", beta, term)

    if beta is None:
        # pure scale: Lc^2 = exp(2 sigma) L^2
        esig2 = Call("exp", (Bin("*", Num(2.0), sigma),))
        if metric.a_exprs is not None:
            a_new = {ij: Bin("*", esig2, ex) for ij, ex in metric.a_exprs.items()}
            return MetricSpec(dim=n, L2_expr=quadratic_form(a_new, n),
                              a_exprs=a_new, x_box=metric.x_box,
                              y_annulus=metric.y_annulus, name=name)
        if metric.L2_expr is not None:
            return MetricSpec(dim=n, L2_expr=Bin("*", esig2, metric.L2_expr),
                              x_box=metric.x_box, y_annulus=metric.y_annulus,
                              name=name)
        return MetricSpec(dim=n,
                          L_expr=Bin("*", Call("exp", (sigma,)), metric.L_expr),
                          x_box=metric.x_box, y_annulus=metric.y_annulus,
                          name=name)

    base_l = metric.L_expr
    if base_l is None:
        base_l = Call("sqrt", (metric.L2_expr,))
    if _is_zero(sigma):
        scaled = base_l
    else:
        scaled = Bin("*", Call("exp", (sigma,)), base_l)
    return MetricSpec(dim=n, L_expr=Bin("+", scaled, beta),
                      x_box=metric.x_box, y_annulus=metric.y_annulus,
                      name=name)


class RandersChange:
    """sigma and b bound to a dimension, evaluated pointwise by ``at``."""

    def __init__(self, spec: ChangeSpec, dim: int):
        self.n = dim
        self.sigma_expr = spec.sigma_or_zero()
        self.b_exprs = spec.b_list(dim)

    def at(self, x):
        """(sigma, grad sigma, b, db) at x, from one order-1 jet of each
        expression; db[i, j] is the partial of b_i along x^j.  For x of
        shape (n, P), a list of those tuples, one per column, from jets
        of a block: bit for bit what ``at`` gives at each column alone."""
        x = np.asarray(x, dtype=float)
        points = x.shape[1:]
        env = lift_env(1, x=x)

        def value_and_gradient(expr):
            val = evaluate(expr, env)
            if isinstance(val, Jet):
                return val.coeffs[0], val.partials(1)
            # constant expression
            return np.full(points, float(val)), np.zeros((self.n,) + points)

        sigma, grad_sigma = value_and_gradient(self.sigma_expr)
        b, db = map(np.array, zip(*map(value_and_gradient, self.b_exprs)))
        if not points:
            return float(sigma), grad_sigma, b, db
        return [(float(sigma[p]), grad_sigma[:, p].copy(), b[:, p].copy(),
                 db[..., p].copy()) for p in range(points[0])]


def changed_value(base, change):
    """(e^sigma, b_i y^i, L* = e^sigma L + b_i y^i) at the base space's
    point ``base``, given ``RandersChange.at`` there.  Raises
    ``JetDomainError`` unless L* > 0: the changed spec stores only the
    squared value, which cannot see a sign flip."""
    sigma, _, b, _ = change
    esig = float(np.exp(sigma))
    beta = float(b @ base.y)
    Lstar = esig * base.L() + beta
    if not Lstar > 0.0:
        raise JetDomainError(
            f"changed metric value {Lstar:.6g} not positive at "
            f"x={base.x.tolist()}, y={base.y.tolist()}")
    return esig, beta, Lstar


class ChangedPair:
    """Base space and its transform, sharing sampling geometry."""

    def __init__(self, metric_spec: MetricSpec, change_spec: ChangeSpec):
        self.metric_spec = metric_spec
        self.change_spec = change_spec
        self.n = metric_spec.dim
        self.base = FinslerSpace(metric_spec)
        self.change = RandersChange(change_spec, self.n)
        self.starred_spec = changed_metric_spec(metric_spec, change_spec)
        self.starred = FinslerSpace(self.starred_spec)

    def at(self, x, y, base=None, change=None, star=None):
        """The ``ChangedPoint`` at (x, y).  Raises ``JetDomainError`` where
        the base or the changed ``L^2`` jet fails its check or L* is not
        positive.  A caller that has evaluated them already, such as the
        sampler from its blocks, passes the base point ``base``, its
        ``RandersChange.at`` values ``change`` and the changed point
        ``star``; each left out is evaluated here, alone, and the changed
        point only once L* > 0."""
        if base is None:
            base = self.base.point(x, y)
        if change is None:
            change = self.change.at(base.x)
        if star is None:
            changed_value(base, change)
            star = self.starred.point(base.x, base.y)
        return ChangedPoint(self, base, change, star)


class ChangedPoint:
    """All pointwise data of a change: base tensors, directly computed
    changed tensors, and the closed-form predictions.  ``base`` is the
    base space's geometry at the point; the arrays that several checks
    read are cached in ``_cache``.  Built by ``ChangedPair.at`` from the
    base point, the values of ``RandersChange.at`` there and the changed
    space's point ``star``."""

    def __init__(self, pair: ChangedPair, base, change, star):
        self._cache = {}
        self.pair = pair
        self.n = pair.n
        self.x, self.y = base.x, base.y
        self.base = base
        self.sigma, self.grad_sigma, self.b_low, self.db = change
        self.esig, self.beta, self.Lstar = changed_value(base, change)
        self.L = self.base.L()
        self.star = star
        self.tau = self.esig * self.Lstar / self.L

    # -- scalars ---------------------------------------------------------

    @cached
    def b_up(self):
        return self.base.g_up() @ self.b_low

    def b_norm2(self):
        return float(self.b_low @ self.b_up())

    @cached
    def a_low(self):
        """a_i = beta y_i / L^2 - b_i; orthogonal to y by construction."""
        return self.beta * self.base.y_low() / self.L ** 2 - self.b_low

    @cached
    def a_up(self):
        return self.base.g_up() @ self.a_low()

    def a_norm2(self):
        return float(self.a_low() @ self.a_up())

    def phi(self):
        return (np.exp(-2.0 * self.sigma)
                * (self.L * self.esig * self.b_norm2() + self.beta)
                / self.Lstar ** 3)

    # -- closed-form predictions ------------------------------------------

    def lstar_closed(self):
        return self.esig * self.base.l_low() + self.b_low

    def hstar_closed(self):
        return self.tau * self.base.h_low()

    def gstar_closed(self):
        b = self.b_low
        yl = self.base.y_low()
        return (self.tau * self.base.g_low()
                + np.outer(b, b)
                + self.esig / self.L * (np.outer(b, yl) + np.outer(yl, b))
                - self.beta * self.esig / self.L ** 3 * np.outer(yl, yl))

    def ginv_star_closed(self):
        """Reported closed form for the inverse changed metric; known to
        drift from the true inverse when both sigma and b are active."""
        yu = self.y
        bu = self.b_up()
        return (self.base.g_up() / self.tau
                + self.phi() * np.outer(yu, yu)
                - (np.outer(yu, bu) + np.outer(bu, yu))
                / (self.L * self.tau ** 2))

    def cstar_closed(self):
        h = self.base.h_low()
        a = self.a_low()
        sym = (np.einsum("ij,k->ijk", h, a)
               + np.einsum("jk,i->ijk", h, a)
               + np.einsum("ki,j->ijk", h, a))
        return self.tau * (self.base.C_low() - sym / (2.0 * self.Lstar))

    def cstar_mixed_closed(self):
        """Reported closed form for C^j_ik of the changed space (upper
        index first in the returned array)."""
        g_up = self.base.g_up()
        h = self.base.h_low()
        h_mix = g_up @ h                    # h^j_i
        a = self.a_low()
        au = self.a_up()
        C = self.base.C_low()
        C_mixed = self.base.C_up()          # C^j_ik
        yu = self.y
        term2 = (np.einsum("ji,k->jik", h_mix, a)
                 + np.einsum("jk,i->jik", h_mix, a)
                 + np.einsum("ik,j->jik", h, au)) / (2.0 * self.Lstar)
        term3 = np.einsum("ikr,r,j->jik", C, self.b_up(), yu) / (self.tau * self.L)
        term4 = np.einsum("ik,j->jik",
                          2.0 * np.outer(a, a) + self.a_norm2() * h,
                          yu) / (self.tau * 2.0 * self.L * self.Lstar)
        return C_mixed - term2 - term3 - term4

    # -- direct counterparts ------------------------------------------------

    def cstar_mixed_direct(self):
        return np.einsum("jr,rik->jik", self.star.g_up(), self.star.C_low())

    # -- projectivity --------------------------------------------------------

    def A_low(self):
        """Obstruction covector: zero everywhere exactly when the change
        takes geodesics to geodesics."""
        curl_dot_y = (self.db.T - self.db) @ self.y
        return self.esig * self.L * self.grad_sigma + curl_dot_y

    def d_vector(self):
        return self.star.spray() - self.base.spray()

    def d_jacobian(self):
        return self.star.n_conn() - self.base.n_conn()

    def collinearity_defect(self):
        """Distance of the spray difference from the span of y, scaled by
        max(1, |D|)."""
        D = self.d_vector()
        coeff = float(D @ self.y) / float(self.y @ self.y)
        resid = D - coeff * self.y
        return float(np.max(np.abs(resid)) / max(1.0, np.max(np.abs(D))))

    # -- drift covariant derivative -------------------------------------------

    @cached
    def b_hcov(self):
        """b_{i|j} in the base space's horizontal connection."""
        return self.base.h_cov_covector(self.b_low, self.db)

    def E_low(self):
        bc = self.b_hcov()
        return 0.5 * (bc + bc.T)

    def F_low(self):
        bc = self.b_hcov()
        return 0.5 * (bc - bc.T)
