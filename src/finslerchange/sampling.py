"""Seeded sampling of evaluation points from a spec's declared domains.

Points are drawn uniformly from the x-box, supporting elements from the
y-annulus (uniform direction times uniform radius).  Each draw is admitted
by building its geometry (a ``ChangedPoint``, or a ``HyperPoint`` on a
hypersurface), and the samplers return those objects, so callers evaluate
the admitted points without building them again.  Draws violating
positivity or regularity of the metric are rejected; a rejection rate
above 99% raises, since it means the declared domain is unusable.
``sample_points`` groups the base and the changed geometry of its
points, in draw order, into ``PointBlock``s of ``BLOCK_SIZE`` points,
which evaluate their light jet layers together.
"""

from __future__ import annotations

import numpy as np

from .core import PointBlock
from .jets import JetDomainError

_MAX_TRIES_PER_POINT = 100
# Points per block: a block's jets take memory in proportion to its size,
# and a product runs its faster row loop once a block has at least as many
# points as the jet space has coefficients (70 at order 4 in 4 variables).
BLOCK_SIZE = 256


class SamplingError(Exception):
    pass


def _draw_x(rng, box):
    return rng.uniform(box[:, 0], box[:, 1])


def _draw_y(rng, n, annulus):
    v = rng.normal(size=n)
    norm = np.linalg.norm(v)
    while norm < 1e-12:           # essentially never
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
    return v / norm * rng.uniform(annulus[0], annulus[1])


def _rejection_loop(count, draw, what):
    """Call ``draw()`` until it has returned ``count`` points other than
    None; returns (points, number of None returns)."""
    if count < 1:
        raise SamplingError("sample count must be at least 1")
    out = []
    attempts = 0
    budget = _MAX_TRIES_PER_POINT * count
    while len(out) < count:
        if attempts >= budget:
            raise SamplingError(
                f"rejected more than 99% of {attempts} candidate {what}; "
                "the declared sampling domain admits almost no valid points")
        attempts += 1
        point = draw()
        if point is not None:
            out.append(point)
    return out, attempts - count


def sample_points(pair, count, seed):
    """Draw ``count`` admitted points of a ``ChangedPair`` from its base
    domain.  Returns (``ChangedPoint`` list, rejected draw count).

    A draw is admitted where the base value ``L^2`` and the signed changed
    value ``e^sigma L + b_i y^i`` are finite and above 1e-12 (the changed
    spec stores only the squared value, which cannot see a sign flip) and
    the base fundamental tensor is invertible."""
    rng = np.random.default_rng(seed)
    space = pair.base
    box = space.spec.x_box
    annulus = space.spec.y_annulus

    def draw():
        x, y = _draw_x(rng, box), _draw_y(rng, space.n, annulus)
        try:
            cp = pair.at(x, y)
        except (ValueError, ZeroDivisionError, JetDomainError):
            return None
        vals = (cp.base.L2(), cp.Lstar)
        if not all(np.isfinite(v) and v > 1e-12 for v in vals):
            return None
        det = cp.base.det_g()
        scale = max(1.0, float(np.max(np.abs(cp.base.g_low())))) ** space.n
        return cp if np.isfinite(det) and abs(det) > 1e-10 * scale else None

    points, rejected = _rejection_loop(count, draw, "points")
    for side in ([cp.base for cp in points], [cp.star for cp in points]):
        for start in range(0, len(side), BLOCK_SIZE):
            PointBlock(side[start:start + BLOCK_SIZE])
    return points, rejected


def sample_pair_points(pair, count, seed):
    """The (x, y) coordinates of ``sample_points``.
    Returns (points, rejected_count)."""
    cps, rejected = sample_points(pair, count, seed)
    return [(cp.x, cp.y) for cp in cps], rejected


def sample_hyper_points(hgeom, count, seed):
    """Draw ``count`` admitted points of a hypersurface.  Returns
    (``HyperPoint`` list, rejected draw count).

    A draw (u, v) is admitted where the ambient metric is positive on the
    pushed-forward element and the embedding has a unique unit normal.
    """
    rng = np.random.default_rng(seed)
    box = hgeom.spec.u_box
    annulus = hgeom.spec.v_annulus
    m = hgeom.spec.pdim

    def draw():
        try:
            hp = hgeom.at(_draw_x(rng, box), _draw_y(rng, m, annulus))
            hp.normal_up()
        except JetDomainError:
            return None
        return hp

    return _rejection_loop(count, draw, "hypersurface points")
