"""Geodesic integration and unparametrized-curve comparison.

Geodesics solve xddot^i + 2 G^i(x, xdot) = 0 with the spray G of the
space.  The integrator is an adaptive Dormand-Prince 5(4) pair with a
standard step controller; the metric value L(x, xdot) is a first integral
of the flow, so its relative drift along the numerical solution doubles
as an independent accuracy meter.

A path stops with a ``GeodesicError`` whose ``kind`` names the reason.
One of them is a metric that degenerates: a change ``e^sigma L + b_i y^i``
stays a Finsler metric only while ``|b| e^-sigma < 1``, and past that
bound ``g`` turns singular while the step size shrinks towards
underflow.  At each accepted step the integrator reads ``g`` at the
point of the last stage, which is the accepted node, and stops once the
condition number of ``g`` with its diagonal scaled out exceeds
``MAX_CONDITION``.  Scaling it out keeps coordinate units from reading as
degeneration; a ``g`` that degenerates only along a coordinate axis
reads as a change of units too, and is left to the step controller.

A path is described by the cubic Hermite segments of its accepted steps.
Projective changes keep geodesics as point sets while reparametrizing
them, so paths are compared as curves: sample one, measure distances to
the segments of the other, take the worst case.  A segment lies in the
convex hull of its four Bezier control points, so the box of those
points bounds its distance from below.  Each sample first takes its
Newton value on the segment that starts at its nearest node, a distance
actually reached, and then skips every segment whose box is farther than
that: such a segment cannot hold the sample's minimum.  Kept pairs run
the same elementwise arithmetic as an all-pairs pass would, so the
result is the same float.
"""

from __future__ import annotations

import math

import numpy as np

from .jets import JetDomainError

REFINE = 8          # dense-output points per accepted step
# Stop where the diagonally scaled cond(g) of ``_condition`` passes this.
# It reads at most 280 on the paths of the bundled metrics and changes
# that finish; a degenerating changed path climbs from 1e4 to 1e8 in
# about 800 spray evaluations, and at 1e8 the spray solve can keep only
# about eight digits.
MAX_CONDITION = 1e8
_CHUNK = 32         # query points per block of the curve distance
_NEWTON_STEPS = 4   # Newton steps from each chord projection
# Margins of the curve distance's skip rule, relative to a sample's bound
# and absolute in units of the coordinate scale.  They absorb rounding in
# the segment boxes and in the Newton residuals, which stays within a few
# ulps of the coordinates (1e-13 is about 450), so that no skipped pair
# could have rounded below a kept one.
_SKIP_REL = 1e-9
_SKIP_ABS = 1e-13

# Dormand-Prince 5(4) tableau
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
    """Integration failed.  ``kind`` names why: ``"underflow"`` (step size
    underflow), ``"domain"`` (the metric left its domain, or ``g``
    degenerated), ``"budget"`` (step budget exhausted) or ``"box"`` (the
    path left the sampling box under ``enforce_box``); ``t`` is the
    parameter where the integration stopped."""

    def __init__(self, message, kind, t):
        super().__init__(message)
        self.kind = kind
        self.t = float(t)


def _condition(pg):
    """Frobenius estimate ``|s| |s^-1|`` of the condition number of
    ``s = D^-1/2 g D^-1/2``, ``D = diag(g)``, at a point: ``n`` for any
    diagonal ``g``, so rescaling a coordinate leaves it unchanged, and inf
    where ``g`` is singular or has a diagonal entry that is not positive.
    ``s^-1 = D^1/2 g^-1 D^1/2`` is read from the cached ``g_up()``."""
    g = pg.g_low()
    d = g.diagonal()
    if not d.min() > 0.0:
        return np.inf
    try:
        g_up = pg.g_up()
    except np.linalg.LinAlgError:
        return np.inf
    # |s|_F^2 and |s^-1|_F^2 term by term: on n x n matrices plain floats
    # cost less than a chain of numpy calls
    d = d.tolist()
    s2 = s_inv2 = 0.0
    for di, row, row_up in zip(d, g.tolist(), g_up.tolist()):
        for dj, v, w in zip(d, row, row_up):
            s2 += v * v / (di * dj)
            s_inv2 += w * w * (di * dj)
    return math.sqrt(s2 * s_inv2)


def _hermite(t, states, n):
    """Power-basis coefficients ``(steps, 4, n)`` of the cubic Hermite
    segment of each step: ``x(s) = c0 + c1 s + c2 s^2 + c3 s^3`` on
    [0, 1] matches the stored position and velocity at both ends."""
    dt = np.diff(t)[:, None]
    p0, p1 = states[:-1, :n], states[1:, :n]
    m0, m1 = states[:-1, n:] * dt, states[1:, n:] * dt
    return np.stack([p0, m0, 3 * (p1 - p0) - 2 * m0 - m1,
                     2 * (p0 - p1) + m0 + m1], axis=1)


def _first_exit_time(t, states, n, in_box):
    """Locate where the segment of one accepted step (nodes ``t``,
    ``states``) first leaves the box: scan coarsely, then bisect the
    bracketing interval."""
    seg = _hermite(t, states, n)[0]
    lo, hi = 0.0, 1.0
    for s in np.linspace(0.0, 1.0, 33)[1:]:
        if not in_box(s ** np.arange(4) @ seg):
            hi = s
            break
        lo = s
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if in_box(mid ** np.arange(4) @ seg):
            lo = mid
        else:
            hi = mid
    return t[0] + hi * (t[1] - t[0])


class GeodesicPath:
    """Accepted integration nodes plus run statistics.

    ``states[k] = (x^1..x^n, y^1..y^n)`` at ``t[k]``; ``segments[k]``
    holds the coefficients of the step from ``t[k]`` (see ``_hermite``),
    which dense output and curve distance both read.  ``stats`` carries
    steps, rejected steps, max accepted local error estimate, relative
    drift of the conserved metric value, and sampling-box exits.
    """

    def __init__(self, n, t, states, stats):
        self.n = n
        self.t = np.asarray(t)
        self.states = np.asarray(states)
        self.stats = stats
        self.segments = _hermite(self.t, self.states, n)

    @property
    def x(self):
        return self.states[:, :self.n]

    @property
    def y(self):
        return self.states[:, self.n:]

    def end_state(self):
        return self.states[-1, :self.n].copy(), self.states[-1, self.n:].copy()

    def dense_points(self):
        """Positions along the path: ``REFINE`` points on the segment of
        each accepted step, then the end point."""
        s = np.linspace(0.0, 1.0, REFINE, endpoint=False)
        inner = (s[:, None] ** np.arange(4)) @ self.segments
        return np.vstack([inner.reshape(-1, self.n), self.x[-1:]])


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
    if not (np.isfinite(x0).all() and np.isfinite(y0).all()):
        raise ValueError("x0 and y0 must be finite")
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")

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
        raise GeodesicError(f"metric left its domain at t = 0: {exc}",
                            "domain", 0.0) from exc
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
            raise GeodesicError(f"step size underflow at t = {t:.6g}",
                                "underflow", t)
        K[0] = k1
        try:
            for s in range(1, 7):
                zs_stage = z + h * (np.asarray(_A[s]) @ K[:s])
                K[s] = rhs(zs_stage)
        except JetDomainError as exc:
            raise GeodesicError(
                f"metric left its domain during a step at t = {t:.6g}: "
                f"{exc}", "domain", t) from exc
        z5 = z + h * (_B5 @ K)
        z4 = z + h * (_B4 @ K)
        scale = tol + tol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean(((z5 - z4) / scale) ** 2)))

        if err <= 1.0:
            z_prev, t_prev = z, t
            t += h
            z = z5
            # first-same-as-last: the last stage ran at the accepted node
            k1 = K[6]
            cond = _condition(space.spray_point)
            if not cond <= MAX_CONDITION:
                raise GeodesicError(
                    f"metric left its domain at t = {t:.6g}: g is "
                    f"degenerating (cond {cond:.3e} > {MAX_CONDITION:.0e})",
                    "domain", t)
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
                    stats["first_exit_t"] = float(_first_exit_time(
                        np.array([t_prev, t]), np.array([z_prev, z]), n,
                        in_box) if in_box(z_prev[:n]) else t_prev)
                if enforce_box:
                    raise GeodesicError(
                        "geodesic left the sampling box at t = "
                        f"{stats['first_exit_t']:.6g}", "box",
                        stats["first_exit_t"])
        else:
            stats["rejected"] += 1

        # the budget stops only a path that has not finished
        if t < t_end and stats["steps"] + stats["rejected"] > max_steps:
            raise GeodesicError(f"step budget {max_steps} exhausted",
                                "budget", t)
        h *= float(np.clip(0.9 * err ** -0.2 if err > 0 else 5.0, 0.2, 5.0))

    return GeodesicPath(n, ts, zs, stats)


def _sq_norm(v):
    return np.einsum("...k,...k->...", v, v)


def _box_sq_dist(lo, hi, box_lo, box_hi):
    """Squared distance between the boxes ``[lo, hi]`` and
    ``[box_lo, box_hi]``, broadcast over leading axes; a point is the box
    with ``lo = hi``."""
    return _sq_norm(np.maximum(np.maximum(box_lo - hi, lo - box_hi), 0.0))


def _segment_boxes(segments):
    """Boxes ``(lo, hi)``, each ``(steps, n)``, of the four Bezier control
    points of each segment (see ``_hermite``), which hold the segment."""
    c0, c1, c2, c3 = segments.transpose(1, 0, 2)
    ctrl = np.stack([c0, c0 + c1 / 3, c0 + (2 * c1 + c2) / 3,
                     c0 + c1 + c2 + c3])
    return ctrl.min(axis=0), ctrl.max(axis=0)


def _segment_sq_dist(off, c1, c2, c3, chord, len2):
    """Squared distance from points to cubic segments, elementwise over
    leading axes: ``off = c0 - point``.  The parameter starts at the
    point's projection onto the chord, then takes Newton steps on the
    squared distance along the segment, where its second derivative is
    positive, with ``s`` kept in [0, 1]."""
    s = np.clip(-np.sum(off * chord, axis=-1) / len2, 0.0, 1.0)[..., None]
    for _ in range(_NEWTON_STEPS):
        r = off + s * (c1 + s * (c2 + s * c3))
        d1 = c1 + s * (2 * c2 + 3 * s * c3)
        f1 = np.sum(r * d1, axis=-1, keepdims=True)
        f2 = np.sum(d1 * d1 + r * (2 * c2 + 6 * s * c3), axis=-1,
                    keepdims=True)
        convex = f2 > 0
        s = np.clip(s - np.where(convex, f1, 0.0)
                    / np.where(convex, f2, 1.0), 0.0, 1.0)
    r = off + s * (c1 + s * (c2 + s * c3))
    return np.sum(r * r, axis=-1)


def curve_set_deviation(path_a: GeodesicPath, path_b: GeodesicPath):
    """One-sided worst-case distance between two paths seen as point sets.

    Samples the shorter path densely and measures each sample against the
    segments of the longer one (``_segment_sq_dist``), so a projective
    reparametrization (same curve traversed at a different speed,
    possibly further) scores zero up to integration error.

    Only pairs that could hold a sample's minimum are measured.  Each
    sample's bound ``ub`` is its value on the segment that starts at its
    nearest node.  Samples go in chunks of ``_CHUNK``: a segment whose box
    (see the module docstring) is farther from the chunk's box of samples
    than the chunk's largest bound is skipped for the whole chunk, and of
    the rest, a pair is skipped where the segment's box is farther from
    the sample than its bound.  A skipped pair's value is at least its box
    distance, so the minimum over the kept pairs and ``ub`` is the
    all-pairs minimum, bit for bit; a NaN bound skips nothing."""
    pa, pb = path_a.dense_points(), path_b.dense_points()
    la, lb = (float(np.sum(np.sqrt(np.sum(d * d, axis=1))))
              for d in (np.diff(pa, axis=0), np.diff(pb, axis=0)))
    query, target = (pa, path_b) if la <= lb else (pb, path_a)
    seg = target.segments
    c0, c1, c2, c3 = seg.transpose(1, 0, 2)
    chord = c1 + c2 + c3
    len2 = np.maximum(np.sum(chord * chord, axis=-1), 1e-300)
    lo, hi = _segment_boxes(seg)
    slack = _SKIP_ABS * (np.abs(query).max()
                         + np.abs(seg).max(axis=(0, 2)).sum())

    def sq_dist(q, j):
        return _segment_sq_dist(c0[j] - q, c1[j], c2[j], c3[j], chord[j],
                                len2[j])

    # temporaries stay within one chunk's (_CHUNK, segments, n)
    chunks = range(0, len(query), _CHUNK)
    nearest = np.concatenate([
        np.argmin(_sq_norm(query[i:i + _CHUNK, None] - c0), axis=1)
        for i in chunks])
    slab = _CHUNK * len(seg)
    ub = np.concatenate([sq_dist(query[i:i + slab], nearest[i:i + slab])
                         for i in range(0, len(query), slab)])
    reach = (np.sqrt(ub) * (1 + _SKIP_REL) + slack) ** 2
    worst = 0.0
    for i in chunks:
        q, r = query[i:i + _CHUNK], reach[i:i + _CHUNK]
        near = np.flatnonzero(~(_box_sq_dist(q.min(axis=0), q.max(axis=0),
                                             lo, hi) > r.max()))
        keep = ~(_box_sq_dist(q[:, None], q[:, None], lo[near], hi[near])
                 > r[:, None])
        qi, sj = np.nonzero(keep)
        d2 = np.full(keep.shape, np.inf)
        d2[keep] = sq_dist(q[qi], near[sj])
        best = np.minimum(ub[i:i + _CHUNK],
                          np.min(d2, axis=1, initial=np.inf))
        worst = max(worst, float(np.max(best)))
    return float(np.sqrt(worst))


def retrace_deviation(space, path, tol=1e-8):
    """Flip the velocity at the end of ``path``, integrate back for as
    long, and compare the two traces as point sets.  Meaningful for
    metrics with L(x, -y) = L(x, y); a genuinely one-way metric traces a
    different return path."""
    xe, ye = path.end_state()
    backward = integrate_geodesic(space, xe, -ye, path.t[-1], tol=tol)
    return curve_set_deviation(path, backward)
