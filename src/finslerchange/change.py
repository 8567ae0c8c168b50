"""Randers-type conformal rescaling of a Finsler metric.

The transformation acts as

    L(x, y)  ->  Lc(x, y) = exp(sigma(x)) L(x, y) + b_i(x) y^i

with a position-dependent scale exponent sigma and a drift covector b.
This module builds the changed metric as a first-class metric spec (so the
full jet pipeline applies to it unchanged), and provides the closed-form
predictions for the changed tensors in terms of base-space data, next to
the directly computed values, so the two routes can be compared.  A
``ChangedBlock``, built by ``ChangedPair.block``, holds points of the
pair (a sampled chunk's admitted draws, the first samples that the heavy
checks read, or a hypersurface's points) as a base and a changed
``core.PointBlock``, read as its ``base`` and ``star``, and their
``sigma`` and ``b`` arrays.  Its predictions are written over a leading
point axis and evaluate each prediction and tensor once for all of the
points, bit for bit the value at each point alone; one point is a
one-column block.
"""

from __future__ import annotations

import numpy as np

from .core import (FinslerSpace, PointBlock, dot, float_pow,
                   horizontal_covariant, matvec, outer, per_point)
from .jets import Jet, lift_env
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
    """sigma and b bound to a dimension, evaluated at points by ``at``."""

    def __init__(self, spec: ChangeSpec, dim: int):
        self.n = dim
        self.sigma_expr = spec.sigma_or_zero()
        self.b_exprs = spec.b_list(dim)

    def at(self, x):
        """(sigma, grad sigma, b, db) at the columns of x, of shape
        (n, P), each with a last axis over the columns, from one order-1
        jet of each expression over them; db[i, j] is the partial of b_i
        along x^j.  Jet arithmetic is elementwise, so a column's values do
        not depend on the others."""
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
        return sigma, grad_sigma, b, db


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

    def block(self, x, y):
        """The ``ChangedBlock`` at the columns of ``x`` and ``y``, of
        shape ``(n, P)``: its base block, the change there and its changed
        block raise, in that order, the error of the first column failing
        there as a lone point; L* > 0 is left to its callers
        (``sampling._regular``, ``suites.SuiteRun.chpoints``)."""
        base = PointBlock(self.base, x, y)
        return ChangedBlock(self, base, self.change.at(base.x),
                            PointBlock(self.starred, x, y))


class ChangedBlock:
    """All the data of a change at points of a pair, point axis first:
    base tensors, directly computed changed tensors, and the closed-form
    predictions.  ``base`` and ``star`` are a base and a changed
    ``core.PointBlock`` whose columns are the points; ``change`` is
    ``RandersChange.at`` there.  ``y`` (a contiguous copy, since the bits
    of a stacked matmul depend on the layout), the numbers of
    construction and every formula are one-point formulas run on arrays,
    bit for bit their value at each point alone; the arrays that several
    checks read are cached in ``_cache``."""

    def __init__(self, pair, base, change, star):
        self._cache = {}
        self.pair = pair
        self.n = pair.n
        self.base = base
        self.star = star
        self.y = np.ascontiguousarray(base.y.T)
        self.sigma, self.grad_sigma, self.b_low, self.db = (
            np.moveaxis(a, -1, 0) for a in change)
        self.esig = np.exp(self.sigma)
        self.beta = dot(self.b_low, self.y)
        self.L = self.base.L()
        self.Lstar = self.esig * self.L + self.beta
        self.tau = self.esig * self.Lstar / self.L

    # -- scalars ---------------------------------------------------------

    @cached
    def b_up(self):
        return matvec(self.base.g_up(), self.b_low)

    def b_norm2(self):
        return dot(self.b_low, self.b_up())

    @cached
    def a_low(self):
        """a_i = beta y_i / L^2 - b_i; orthogonal to y by construction."""
        return (per_point(self.beta, 1) * self.base.y_low()
                / per_point(float_pow(self.L, 2), 1) - self.b_low)

    @cached
    def a_up(self):
        return matvec(self.base.g_up(), self.a_low())

    def a_norm2(self):
        return dot(self.a_low(), self.a_up())

    def phi(self):
        return (np.exp(-2.0 * self.sigma)
                * (self.L * self.esig * self.b_norm2() + self.beta)
                / float_pow(self.Lstar, 3))

    # -- closed-form predictions ------------------------------------------

    def lstar_closed(self):
        return per_point(self.esig, 1) * self.base.l_low() + self.b_low

    def hstar_closed(self):
        return per_point(self.tau, 2) * self.base.h_low()

    def gstar_closed(self):
        b = self.b_low
        yl = self.base.y_low()
        return (per_point(self.tau, 2) * self.base.g_low()
                + outer(b, b)
                + per_point(self.esig / self.L, 2) * (outer(b, yl)
                                                      + outer(yl, b))
                - per_point(self.beta * self.esig / float_pow(self.L, 3), 2)
                * outer(yl, yl))

    def ginv_star_closed(self):
        """Reported closed form for the inverse changed metric; known to
        drift from the true inverse when both sigma and b are active."""
        yu = self.y
        bu = self.b_up()
        return (self.base.g_up() / per_point(self.tau, 2)
                + per_point(self.phi(), 2) * outer(yu, yu)
                - (outer(yu, bu) + outer(bu, yu))
                / per_point(self.L * float_pow(self.tau, 2), 2))

    def cstar_closed(self):
        h = self.base.h_low()
        a = self.a_low()
        sym = (np.einsum("...ij,...k->...ijk", h, a)
               + np.einsum("...jk,...i->...ijk", h, a)
               + np.einsum("...ki,...j->...ijk", h, a))
        return per_point(self.tau, 3) * (
            self.base.C_low() - sym / per_point(2.0 * self.Lstar, 3))

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
        term2 = (np.einsum("...ji,...k->...jik", h_mix, a)
                 + np.einsum("...jk,...i->...jik", h_mix, a)
                 + np.einsum("...ik,...j->...jik", h, au)
                 ) / per_point(2.0 * self.Lstar, 3)
        term3 = np.einsum("...ikr,...r,...j->...jik", C, self.b_up(),
                          yu) / per_point(self.tau * self.L, 3)
        term4 = np.einsum("...ik,...j->...jik",
                          2.0 * outer(a, a) + per_point(self.a_norm2(), 2) * h,
                          yu) / per_point(
                              self.tau * 2.0 * self.L * self.Lstar, 3)
        return C_mixed - term2 - term3 - term4

    # -- direct counterparts ------------------------------------------------

    def cstar_mixed_direct(self):
        return np.einsum("...jr,...rik->...jik", self.star.g_up(),
                         self.star.C_low())

    # -- projectivity --------------------------------------------------------

    def A_low(self):
        """Obstruction covector: zero everywhere exactly when the change
        takes geodesics to geodesics."""
        curl_dot_y = matvec(np.swapaxes(self.db, -1, -2) - self.db, self.y)
        return per_point(self.esig * self.L, 1) * self.grad_sigma + curl_dot_y

    def d_vector(self):
        return self.star.spray() - self.base.spray()

    def d_jacobian(self):
        return self.star.n_conn() - self.base.n_conn()

    def collinearity_defect(self):
        """Distance of the spray difference from the span of y, scaled by
        max(1, |D|)."""
        D = self.d_vector()
        coeff = dot(D, self.y) / dot(self.y, self.y)
        resid = D - per_point(coeff, 1) * self.y
        return (np.max(np.abs(resid), axis=-1)
                / np.fmax(1.0, np.max(np.abs(D), axis=-1)))

    # -- drift covariant derivative -------------------------------------------

    @cached
    def b_hcov(self):
        """b_{i|j} in the base space's horizontal connection."""
        return horizontal_covariant(self.base.cartan_hconn(), self.b_low,
                                    self.db)

    def E_low(self):
        bc = self.b_hcov()
        return 0.5 * (bc + np.swapaxes(bc, -1, -2))

    def F_low(self):
        bc = self.b_hcov()
        return 0.5 * (bc - np.swapaxes(bc, -1, -2))

