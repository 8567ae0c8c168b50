"""Hypersurfaces of a Finsler space and their behaviour under the
Randers-type conformal change.

A hypersurface is given parametrically, x^i = x^i(u^1 .. u^{n-1}).  With a
tangential supporting element y^i = B^i_a v^a, the ambient metric induces
tangent projection factors, a unique unit normal (up to sign), and the
normal curvature vector whose vanishing characterises totally geodesic
hypersurfaces.

A ``HyperPoint`` holds one point, or points with a leading point axis;
the suites read the changed side of the sampled points as one
``ChangedHyperPoint`` on a ``change.ChangedBlock``.

Sign convention: by default the normal is chosen so that the frame
(B_1, ..., B_{n-1}, N) is positively oriented in the ambient coordinates,
which is deterministic and continuous along a connected chart; a
``normal_ref`` vector in the spec overrides this with sign(N . ref) > 0.
"""

from __future__ import annotations

import numpy as np

from .change import ChangedPair
from .core import (FinslerSpace, dot, float_pow, matvec, outer, per_point,
                   vecmat)
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
    """Embedding data and induced geometry at one (u, v), or, with a
    leading point axis on ``u``, ``v``, ``B`` and ``B2``, at points of a
    hypersurface; ``pg`` is the ambient geometry there, a
    ``core.PointGeometry`` or a ``core.PointBlock``.  Every formula runs
    over that optional axis, bit for bit its value at each point alone,
    with ``B`` laid out as one point's (contiguous), since the bits of a
    stacked matmul depend on the layout."""

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
        return np.swapaxes(self.B, -1, -2) @ self.pg.g_low() @ self.B

    @cached
    def normal_up(self):
        """Unit normal N^i: g-orthogonal to every tangent, unit g-length.
        A step that fails at some point raises the error of the first
        point failing there, as a block does."""
        g = self.pg.g_low()
        M = np.swapaxes(self.B, -1, -2) @ g   # (m, n); kernel is span(N)
        _, s, vt = np.linalg.svd(M)
        if np.any(s[..., -1] < 1e-10 * np.fmax(1.0, s[..., 0])):
            raise JetDomainError(
                "embedding is rank-deficient here; normal direction "
                "is not unique")
        k = np.ascontiguousarray(vt[..., -1, :])
        norm2 = dot(vecmat(k, g), k)
        if np.any(norm2 <= 0.0):
            raise JetDomainError("no unit normal: candidate has g-norm^2 "
                                 f"{np.extract(norm2 <= 0.0, norm2)[0]:.3g}")
        N = k / per_point(np.sqrt(norm2), 1)
        ref = self.spec.normal_ref
        if ref is not None:
            along = dot(N, ref)
            if np.any(along == 0.0):
                raise JetDomainError(
                    "normal_ref is orthogonal to the normal here; "
                    "cannot fix a sign")
            flip = along < 0.0
        else:
            frame = np.concatenate([self.B, N[..., None]], axis=-1)
            flip = np.linalg.det(frame) < 0.0
        return np.where(per_point(flip, 1), -N, N)

    @cached
    def normal_low(self):
        return matvec(self.pg.g_low(), self.normal_up())

    @cached
    def tangent_inverse(self):
        """B_i^a = g^{ab} B^j_b g_ji, the tangential part of the inverse
        frame; rows are surface indices."""
        g_ind_inv = np.linalg.inv(self.induced_metric())
        return g_ind_inv @ np.swapaxes(self.B, -1, -2) @ self.pg.g_low()

    def frame_residuals(self):
        """Max deviations of the standard frame identities:
        B^i_a B_i^b = delta, B^i_a N_i = 0, N^i N_i = 1,
        B^i_a B_j^a + N^i N_j = delta^i_j."""
        Binv = self.tangent_inverse()
        N = self.normal_up()
        Nl = self.normal_low()
        r1 = np.max(np.abs(Binv @ self.B - np.eye(self.m)), axis=(-2, -1))
        r2 = np.max(np.abs(vecmat(Nl, self.B)), axis=-1)
        r3 = np.abs(dot(N, Nl) - 1.0)
        r4 = np.max(np.abs(self.B @ Binv + outer(N, Nl) - np.eye(self.n)),
                    axis=(-2, -1))
        # Python's max(r1, r2, r3, r4) at each point: a later value replaces
        # the maximum only where it is greater, so a NaN after r1 is dropped
        worst = r1
        for r in (r2, r3, r4):
            worst = np.where(r > worst, r, worst)
        return worst

    @cached
    def normal_curvature(self):
        """H_a = N_i (v^b B^i_ba + N^i_j B^j_a); identically zero exactly
        for totally geodesic hypersurfaces."""
        B0 = np.einsum("...b,...iba->...ia", self.v, self.B2)
        inner = B0 + self.pg.n_conn() @ self.B
        return vecmat(self.normal_low(), inner)


class ChangedHypersurface:
    """A hypersurface seen from both sides of a metric change."""

    def __init__(self, metric_spec, change_spec, hyper_spec):
        self.pair = ChangedPair(metric_spec, change_spec)
        self.base_h = HypersurfaceGeometry(hyper_spec, self.pair.base)


class ChangedHyperPoint:
    """Base and changed hypersurface data at points of a hypersurface,
    point axis first, plus the closed-form predictions that tie them
    together.  Built from ``cp``, the ``change.ChangedBlock`` at the
    ambient points of the base ``HyperPoint``s ``points``, whose
    embedding data both sides share, stacked."""

    def __init__(self, cp, points):
        self.cp = cp
        spec = points[0].spec
        u, v, B, B2 = (np.array([getattr(hp, name) for hp in points])
                       for name in ("u", "v", "B", "B2"))
        self.base = HyperPoint(spec, u, v, B, B2, cp.base)
        self.star = HyperPoint(spec, u, v, B, B2, cp.star)

    def __len__(self):
        return len(self.base.u)

    def b_dot_normal(self):
        """Tangency scalar b_i N^i; the frame transfer below needs it to
        vanish."""
        return dot(self.cp.b_low, self.base.normal_up())

    def gstar_on_normal(self):
        """Direct value of g*_ij N^i N^j on the base normal."""
        N = self.base.normal_up()
        return dot(vecmat(N, self.star.pg.g_low()), N)

    def gstar_on_normal_closed(self):
        """Closed form tau + (b_i N^i)^2."""
        return self.cp.tau + float_pow(self.b_dot_normal(), 2)

    def root_tau(self):
        """sqrt(tau) at each point, to scale a vector."""
        return per_point(np.sqrt(self.cp.tau), 1)

    def normal_transfer_closed(self):
        """N*^i = N^i / sqrt(tau) (requires tangential b)."""
        return self.base.normal_up() / self.root_tau()

    def conormal_transfer_closed(self):
        """N*_i = sqrt(tau) N_i (requires tangential b)."""
        return self.root_tau() * self.base.normal_low()

    def d_term(self):
        """N_i D^i_j B^j_a: the obstruction separating the changed normal
        curvature from a pure rescaling; vanishes for projective changes."""
        return vecmat(vecmat(self.base.normal_low(), self.cp.d_jacobian()),
                      self.base.B)

    def hstar_decomposition_residual(self):
        """Residual of H*_a = sqrt(tau) (H_a + N_i D^i_j B^j_a), which
        needs only tangency of b, not projectivity."""
        want = self.root_tau() * (self.base.normal_curvature()
                                  + self.d_term())
        return np.max(np.abs(self.star.normal_curvature() - want), axis=-1)

    def hstar_reported_residual(self):
        """Residual of the reported relation
        H*_a = sqrt(tau) H_a + N_i D^i_j B^j_a (no scale factor on the
        correction term); coincides with the decomposition above whenever
        the correction vanishes."""
        want = (self.root_tau() * self.base.normal_curvature()
                + self.d_term())
        return np.max(np.abs(self.star.normal_curvature() - want), axis=-1)
