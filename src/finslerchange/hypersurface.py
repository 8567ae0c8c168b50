"""Hypersurfaces of a Finsler space and their behaviour under the
Randers-type conformal change.

A hypersurface is given parametrically, x^i = x^i(u^1 .. u^{n-1}).  With a
tangential supporting element y^i = B^i_a v^a, the ambient metric induces
tangent projection factors, a unique unit normal (up to sign), and the
normal curvature vector whose vanishing characterises totally geodesic
hypersurfaces.

Sign convention: by default the normal is chosen so that the frame
(B_1, ..., B_{n-1}, N) is positively oriented in the ambient coordinates,
which is deterministic and continuous along a connected chart; a
``normal_ref`` vector in the spec overrides this with sign(N . ref) > 0.
"""

from __future__ import annotations

import numpy as np

from .change import ChangedPair
from .core import FinslerSpace
from .jets import Jet, JetDomainError, lift_env
from .lang import HypersurfaceSpec, evaluate
from .memo import cached


class HypersurfaceGeometry:
    """An embedding bound to an ambient Finsler space."""

    def __init__(self, spec: HypersurfaceSpec, space: FinslerSpace):
        if spec.dim != space.n:
            raise ValueError(
                f"hypersurface {spec.name!r} is for dim {spec.dim}, "
                f"ambient space has dim {space.n}")
        self.spec = spec
        self.space = space
        self.n = spec.dim
        self.m = spec.pdim

    def at(self, u, v):
        """Embedding data and ambient geometry at one (u, v), with
        B[i, a] = dx^i/du^a, B2[i, a, b] = d2x^i/du^a du^b and the pushed
        forward element y = B v."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (self.m,) or v.shape != (self.m,):
            raise ValueError(f"expected {self.m} surface coordinates")
        env = lift_env(2, u=u)
        x = np.empty(self.n)
        B = np.empty((self.n, self.m))
        B2 = np.empty((self.n, self.m, self.m))
        for i, expr in enumerate(self.spec.embed_exprs):
            val = evaluate(expr, env)
            if not isinstance(val, Jet):
                val = Jet.constant(float(val), self.m, 2)
            x[i] = val.value
            B[i] = val.partials(1)
            B2[i] = val.partials(2)
        return HyperPoint(self.spec, u, v, B, B2, self.space.point(x, B @ v))


class HyperPoint:
    """Embedding data and induced geometry at one (u, v); ``pg`` is the
    ambient geometry at the embedded point and element."""

    def __init__(self, spec: HypersurfaceSpec, u, v, B, B2, pg):
        self.spec = spec
        self.n, self.m = spec.dim, spec.pdim
        self.u, self.v = u, v
        self.B, self.B2 = B, B2
        self.pg = pg
        self.x, self.y = pg.x, pg.y
        self._cache = {}

    @cached
    def induced_metric(self):
        """g_ab = B^i_a g_ij B^j_b."""
        return self.B.T @ self.pg.g_low() @ self.B

    @cached
    def normal_up(self):
        """Unit normal N^i: g-orthogonal to every tangent, unit g-length."""
        M = self.B.T @ self.pg.g_low()        # (m, n); kernel is span(N)
        _, s, vt = np.linalg.svd(M)
        if s[-1] < 1e-10 * max(1.0, s[0]):
            raise JetDomainError(
                "embedding is rank-deficient here; normal direction "
                "is not unique")
        k = vt[-1]
        norm2 = float(k @ self.pg.g_low() @ k)
        if norm2 <= 0.0:
            raise JetDomainError(
                f"no unit normal: candidate has g-norm^2 {norm2:.3g}")
        N = k / np.sqrt(norm2)
        ref = self.spec.normal_ref
        if ref is not None:
            dot = float(N @ ref)
            if dot == 0.0:
                raise JetDomainError(
                    "normal_ref is orthogonal to the normal here; "
                    "cannot fix a sign")
            if dot < 0.0:
                N = -N
        else:
            frame = np.column_stack([self.B, N])
            if np.linalg.det(frame) < 0.0:
                N = -N
        return N

    @cached
    def normal_low(self):
        return self.pg.g_low() @ self.normal_up()

    @cached
    def tangent_inverse(self):
        """B_i^a = g^{ab} B^j_b g_ji, the tangential part of the inverse
        frame; rows are surface indices."""
        g_ind_inv = np.linalg.inv(self.induced_metric())
        return g_ind_inv @ self.B.T @ self.pg.g_low()

    def frame_residuals(self):
        """Max deviations of the standard frame identities:
        B^i_a B_i^b = delta, B^i_a N_i = 0, N^i N_i = 1,
        B^i_a B_j^a + N^i N_j = delta^i_j."""
        Binv = self.tangent_inverse()
        N = self.normal_up()
        Nl = self.normal_low()
        r1 = np.max(np.abs(Binv @ self.B - np.eye(self.m)))
        r2 = np.max(np.abs(Nl @ self.B))
        r3 = abs(float(N @ Nl) - 1.0)
        r4 = np.max(np.abs(self.B @ Binv + np.outer(N, Nl) - np.eye(self.n)))
        return max(r1, r2, r3, r4)

    @cached
    def normal_curvature(self):
        """H_a = N_i (v^b B^i_ba + N^i_j B^j_a); identically zero exactly
        for totally geodesic hypersurfaces."""
        B0 = np.einsum("b,iba->ia", self.v, self.B2)
        inner = B0 + self.pg.n_conn() @ self.B
        return self.normal_low() @ inner


class ChangedHypersurface:
    """A hypersurface seen from both sides of a metric change."""

    def __init__(self, metric_spec, change_spec, hyper_spec):
        self.pair = ChangedPair(metric_spec, change_spec)
        self.base_h = HypersurfaceGeometry(hyper_spec, self.pair.base)


class ChangedHyperPoint:
    """Base and changed hypersurface data at one (u, v), plus the
    closed-form predictions that tie them together.  Built from the base
    ``HyperPoint``, whose embedding data and ambient geometry both sides
    share; ``cp`` is the change at its ambient point."""

    def __init__(self, pair: ChangedPair, base: HyperPoint):
        self.cp = pair.at(base.pg.x, base.pg.y, base=base.pg)
        self.base = base
        self.star = HyperPoint(base.spec, base.u, base.v, base.B, base.B2,
                               self.cp.star)

    def b_dot_normal(self):
        """Tangency scalar b_i N^i; the frame transfer below needs it to
        vanish."""
        return float(self.cp.b_low @ self.base.normal_up())

    def gstar_on_normal(self):
        """Direct value of g*_ij N^i N^j on the base normal."""
        N = self.base.normal_up()
        return float(N @ self.star.pg.g_low() @ N)

    def gstar_on_normal_closed(self):
        """Closed form tau + (b_i N^i)^2."""
        return self.cp.tau + self.b_dot_normal() ** 2

    def normal_transfer_closed(self):
        """N*^i = N^i / sqrt(tau) (requires tangential b)."""
        return self.base.normal_up() / np.sqrt(self.cp.tau)

    def conormal_transfer_closed(self):
        """N*_i = sqrt(tau) N_i (requires tangential b)."""
        return np.sqrt(self.cp.tau) * self.base.normal_low()

    def d_term(self):
        """N_i D^i_j B^j_a: the obstruction separating the changed normal
        curvature from a pure rescaling; vanishes for projective changes."""
        return (self.base.normal_low()
                @ self.cp.d_jacobian() @ self.base.B)

    def hstar_decomposition_residual(self):
        """Residual of H*_a = sqrt(tau) (H_a + N_i D^i_j B^j_a), which
        needs only tangency of b, not projectivity."""
        want = np.sqrt(self.cp.tau) * (self.base.normal_curvature()
                                       + self.d_term())
        return np.max(np.abs(self.star.normal_curvature() - want))

    def hstar_reported_residual(self):
        """Residual of the reported relation
        H*_a = sqrt(tau) H_a + N_i D^i_j B^j_a (no scale factor on the
        correction term); coincides with the decomposition above whenever
        the correction vanishes."""
        want = (np.sqrt(self.cp.tau) * self.base.normal_curvature()
                + self.d_term())
        return np.max(np.abs(self.star.normal_curvature() - want))
