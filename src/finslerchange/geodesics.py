"""Geodesic integration and unparametrized-curve comparison.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0 with the spray G of the
space.  The integrator is an adaptive Dormand-Prince 5(4) pair with a
standard step controller; the metric value L(x, xdot) is a first integral
of the flow, so its relative drift along the numerical solution doubles
as an independent accuracy meter.

Projective changes keep geodesics as point sets while reparametrizing
them, so paths are compared as curves: sample one, measure distances to a
densified polyline of the other, take the worst case.
"""

from __future__ import annotations

import numpy as np

from .jets import JetDomainError

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])


class GeodesicError(Exception):
    """Integration failed (step size underflow, step budget, domain)."""


def _first_exit_time(t0, h, z0, z1, n, in_box):
    """Locate where the Hermite interpolant of one accepted step first
    leaves the box.  Scan coarsely, then bisect the bracketing interval."""
    p0, m0 = z0[:n], z0[n:] * h
    p1, m1 = z1[:n], z1[n:] * h

    def pos(s):
        return ((2 * s ** 3 - 3 * s ** 2 + 1) * p0
                + (s ** 3 - 2 * s ** 2 + s) * m0
                + (-2 * s ** 3 + 3 * s ** 2) * p1
                + (s ** 3 - s ** 2) * m1)

    lo, hi = 0.0, 1.0
    for s in np.linspace(0.0, 1.0, 33)[1:]:
        if not in_box(pos(s)):
            hi = s
            break
        lo = s
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if in_box(pos(mid)):
            lo = mid
        else:
            hi = mid
    return t0 + hi * h


class GeodesicPath:
    """Accepted integration nodes plus run statistics.

    ``states[k] = (x^1..x^n, y^1..y^n)`` at ``t[k]``.  ``stats`` carries
    steps, rejected steps, max accepted local error estimate, relative
    drift of the conserved metric value, and sampling-box exits.
    """

    def __init__(self, n, t, states, stats):
        self.n = n
        self.t = np.asarray(t)
        self.states = np.asarray(states)
        self.stats = stats

    @property
    def x(self):
        return self.states[:, :self.n]

    @property
    def y(self):
        return self.states[:, self.n:]

    def end_state(self):
        return self.states[-1, :self.n].copy(), self.states[-1, self.n:].copy()

    def dense_points(self, refine=8):
        """Positions along the path, subdividing each accepted interval
        with cubic Hermite interpolation (position and velocity are both
        stored, so no extra derivative estimates are needed)."""
        if len(self.t) < 2:
            return self.x.copy()
        chunks = []
        s = np.linspace(0.0, 1.0, refine, endpoint=False)
        h00 = 2 * s ** 3 - 3 * s ** 2 + 1
        h10 = s ** 3 - 2 * s ** 2 + s
        h01 = -2 * s ** 3 + 3 * s ** 2
        h11 = s ** 3 - s ** 2
        for k in range(len(self.t) - 1):
            dt = self.t[k + 1] - self.t[k]
            p0, p1 = self.x[k], self.x[k + 1]
            m0, m1 = self.y[k] * dt, self.y[k + 1] * dt
            chunks.append(np.outer(h00, p0) + np.outer(h10, m0)
                          + np.outer(h01, p1) + np.outer(h11, m1))
        chunks.append(self.x[-1:])
        return np.vstack(chunks)


def integrate_geodesic(space, x0, y0, t_end, tol=1e-8, max_steps=200_000,
                       enforce_box=False):
    """Integrate the geodesic through (x0, y0) for parameter length t_end.

    ``tol`` is used as both absolute and relative local tolerance.  The
    path may leave the metric's sampling box; exits are counted in the
    stats and only raise when ``enforce_box`` is set.
    """
    n = space.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != (n,) or y0.shape != (n,):
        raise ValueError(f"expected {n} coordinates")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")

    box = space.spec.x_box

    def rhs(z):
        x, y = z[:n], z[n:]
        return np.concatenate([y, -2.0 * space.spray_values(x, y)])

    def in_box(x):
        return bool(np.all((x >= box[:, 0]) & (x <= box[:, 1])))

    z = np.concatenate([x0, y0])
    try:
        k1 = rhs(z)
    except JetDomainError as exc:
        raise GeodesicError(f"metric left its domain at t = 0: {exc}") from exc
    t = 0.0
    L0 = np.sqrt(space.l2(x0, y0))
    ts = [0.0]
    zs = [z.copy()]
    stats = {"steps": 0, "rejected": 0, "max_local_error": 0.0,
             "value_drift": 0.0, "box_exits": 0, "first_exit_t": None}

    h = min(t_end / 10.0,
            0.1 * max(np.linalg.norm(z), 1.0) / max(np.linalg.norm(k1), 1e-8))
    h = max(h, 1e-12)
    K = np.empty((7, 2 * n))

    while t < t_end:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, t_end):
            raise GeodesicError(f"step size underflow at t = {t:.6g}")
        K[0] = k1
        try:
            for s in range(1, 7):
                zs_stage = z + h * (np.asarray(_A[s]) @ K[:s])
                K[s] = rhs(zs_stage)
        except JetDomainError as exc:
            raise GeodesicError(
                f"metric left its domain during a step at t = {t:.6g}: "
                f"{exc}") from exc
        z5 = z + h * (_B5 @ K)
        z4 = z + h * (_B4 @ K)
        scale = tol + tol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean(((z5 - z4) / scale) ** 2)))

        if err <= 1.0:
            z_prev, t_prev = z, t
            t += h
            z = z5
            k1 = K[6]          # first-same-as-last
            ts.append(t)
            zs.append(z.copy())
            stats["steps"] += 1
            stats["max_local_error"] = max(stats["max_local_error"],
                                           err * tol)
            L = np.sqrt(space.l2(z[:n], z[n:]))
            stats["value_drift"] = max(stats["value_drift"],
                                       abs(L - L0) / L0)
            if not in_box(z[:n]):
                stats["box_exits"] += 1
                if stats["first_exit_t"] is None:
                    stats["first_exit_t"] = (
                        _first_exit_time(t_prev, h, z_prev, z, n, in_box)
                        if in_box(z_prev[:n]) else t_prev)
                if enforce_box:
                    raise GeodesicError(
                        f"geodesic left the sampling box at t = {t:.6g}")
        else:
            stats["rejected"] += 1

        if stats["steps"] + stats["rejected"] > max_steps:
            raise GeodesicError(f"step budget {max_steps} exhausted")
        h *= float(np.clip(0.9 * err ** -0.2 if err > 0 else 5.0, 0.2, 5.0))

    return GeodesicPath(n, ts, zs, stats)


def curve_set_deviation(path_a: GeodesicPath, path_b: GeodesicPath,
                        refine=8):
    """One-sided worst-case distance between two paths seen as point sets.

    Samples the shorter path densely and measures each sample against the
    densified polyline of the longer one, so a projective reparametrization
    (same curve traversed at a different speed, possibly further) scores
    zero up to discretisation."""
    pa = path_a.dense_points(refine)
    pb = path_b.dense_points(refine)
    la, lb = (float(np.sum(np.sqrt(np.sum(d * d, axis=1))))
              for d in (np.diff(pa, axis=0), np.diff(pb, axis=0)))
    query, target = (pa, pb) if la <= lb else (pb, pa)

    p0 = target[:-1]
    seg = target[1:] - p0
    len2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    worst = 0.0
    for q in query:
        w = np.clip(np.sum((q - p0) * seg, axis=1) / len2, 0.0, 1.0)
        d2 = np.sum((q - (p0 + w[:, None] * seg)) ** 2, axis=1)
        worst = max(worst, float(np.min(d2)))
    return float(np.sqrt(worst))


def retrace_deviation(space, x0, y0, t_end, tol=1e-8):
    """Integrate forward, flip the final velocity, integrate back, and
    compare the two traces as point sets.  Meaningful for metrics with
    L(x, -y) = L(x, y); a genuinely one-way metric traces a different
    return path."""
    forward = integrate_geodesic(space, x0, y0, t_end, tol=tol)
    xe, ye = forward.end_state()
    backward = integrate_geodesic(space, xe, -ye, t_end, tol=tol)
    return curve_set_deviation(forward, backward)
