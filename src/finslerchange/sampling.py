"""Seeded sampling of evaluation points from a spec's declared domains.

Points are drawn uniformly from the x-box, supporting elements from the
y-annulus (uniform direction times uniform radius).  Each draw is admitted
by building its geometry (a ``ChangedPoint``, or a ``HyperPoint`` on a
hypersurface), and the samplers return those objects, so callers evaluate
the admitted points without building them again.  Draws violating
positivity or regularity of the metric are rejected; a rejection rate
above 99% raises, since it means the declared domain is unusable.

Draws are made and judged in chunks of at most ``BLOCK_SIZE``, never more
than the points still wanted or the attempts left, so the generator
makes the same calls in the same order as one draw at a time would.
``sample_points`` makes a chunk's base and changed ``core.PointBlock``,
each built from its order-2 ``L^2`` jet, and evaluates its ``sigma`` and
``b`` as blocks too; each admitted point is a member of the chunk's two
blocks, which evaluate its light jet layers together with the chunk's
other admitted points.  Where draws are rejected, a block has fewer
members than columns, and the next chunk is smaller.  A block
evaluation that raises clears every column of its block, whose members
then compute alone, and so raise their own errors or are admitted.
"""

from __future__ import annotations

import numpy as np

from .core import FALLBACK_ERRORS, PointBlock
from .jets import JetDomainError

_MAX_TRIES_PER_POINT = 100
# Draws per chunk, so columns per block: a block's jets take memory in
# proportion to its size; a product's temporaries take at most
# ``jets.PRODUCT_BUDGET`` numbers each, whatever the size.
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


def _rejection_loop(count, admit, what):
    """Call ``admit(k)``, which draws ``k`` candidates and returns those
    it admits in draw order, until ``count`` points are admitted; ``k`` is
    at most ``BLOCK_SIZE``, the points still wanted and the attempts
    left.  Returns (points, number of rejected draws)."""
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
        k = min(count - len(out), BLOCK_SIZE, budget - attempts)
        attempts += k
        out.extend(admit(k))
    return out, attempts - count


def _admit_block(pair, draws):
    """The ``_regular`` ``ChangedPoint``s of the draws whose base and
    changed ``L^2`` jets pass their checks and whose L* is positive, in
    draw order.  The base jets, ``sigma`` and ``b`` of all draws are each
    one block evaluation, and the changed jets one more, on the base
    block's filled coordinates, so a draw's changed member, built after
    its base member passed, is its column; the points are members of the
    two blocks, which keep only their columns.  ``sigma`` and ``b`` are
    evaluated per draw where their block evaluation raises."""
    x = np.stack([d[0] for d in draws], axis=1)
    y = np.stack([d[1] for d in draws], axis=1)
    base = PointBlock(pair.base, x, y)
    try:
        change = pair.change.at(x)
    except FALLBACK_ERRORS:
        change = [None] * len(draws)
    star = PointBlock(pair.starred, base.x, base.y)
    # a column that failed its check rejects its draw, whose member would
    # raise alone; a block that raised left every column to its member
    tried = (base.ok | ~base.ok.any()) & (star.ok | ~star.ok.any())
    points = {}
    for p in np.flatnonzero(tried):
        xp, yp = draws[p]
        try:
            cp = pair.at(xp, yp, base.point(p, xp, yp), change[p],
                         star.point(p, xp, yp))
        except (ValueError, ZeroDivisionError, JetDomainError):
            continue
        if _regular(cp):
            points[p] = cp
    base.keep(list(points))
    star.keep(list(points))
    return list(points.values())


def _regular(cp):
    """Whether ``L^2`` and L* are finite and above 1e-12 and the base
    fundamental tensor is invertible."""
    vals = (cp.base.L2(), cp.Lstar)
    if not all(np.isfinite(v) and v > 1e-12 for v in vals):
        return False
    det = cp.base.det_g()
    scale = max(1.0, float(np.max(np.abs(cp.base.g_low())))) ** cp.n
    return bool(np.isfinite(det) and abs(det) > 1e-10 * scale)


def sample_points(pair, count, seed):
    """Draw ``count`` admitted points of a ``ChangedPair`` from its base
    domain.  Returns (``ChangedPoint`` list, rejected draw count).

    A draw is admitted where the base value ``L^2`` and the signed changed
    value ``e^sigma L + b_i y^i`` are finite and above 1e-12 (the changed
    spec stores only the squared value, which cannot see a sign flip) and
    the base fundamental tensor is invertible.  A draw fails only on
    coefficients the package computes: admission reads order-2 jets,
    which hold every coefficient, and a higher tensor of an admitted
    point raises only where a coefficient of x-degree at most
    ``core.L2_XCAP`` is not finite.  Each chunk of draws is
    judged from block evaluations of its order-2 ``L^2`` jets and its
    ``sigma`` and ``b``; where one of those raises, the draws it covers
    are judged alone.  Either way a point is bit for bit the one
    ``pair.at`` builds alone, and the same draws are admitted."""
    rng = np.random.default_rng(seed)
    space = pair.base
    box = space.spec.x_box
    annulus = space.spec.y_annulus

    def admit(k):
        return _admit_block(pair, [
            (_draw_x(rng, box), _draw_y(rng, space.n, annulus))
            for _ in range(k)])

    return _rejection_loop(count, admit, "points")


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

    def admit(k):
        return [hp for hp in (draw() for _ in range(k)) if hp is not None]

    return _rejection_loop(count, admit, "hypersurface points")
