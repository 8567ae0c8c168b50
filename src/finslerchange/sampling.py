"""Seeded sampling of evaluation points from a spec's declared domains.

Points are drawn uniformly from the x-box, supporting elements from the
y-annulus (uniform direction times uniform radius).  Draws violating
positivity or regularity of the metric are rejected; a rejection rate
above 99% raises, since it means the declared domain is unusable.

Draws are made and judged in chunks of at most ``BLOCK_SIZE``, never more
than the points still wanted or the attempts left, so the generator
makes the same calls in the same order as one draw at a time would.
``sample_points`` makes each chunk's ``change.ChangedBlock`` with
``ChangedPair.block`` and judges the chunk's draws from its rows; its
admitted draws are the columns of blocks that evaluate their light jet
layers together.  A block is judged once, at construction, and raises
where any column's point would, so a chunk whose block raises is judged
draw by draw, each draw on a one-column block, which raises its own
errors or is judged from its rows as every block's draws are.  Where a
chunk was judged so, or draws are rejected, its block is built again at
the draws it keeps, and the next chunk is smaller (``_admit_block``,
which ``suites.SuiteRun.chpoints`` shares).  A hypersurface sampler
admits each draw by building its ``HyperPoint``, and returns those.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FALLBACK_ERRORS, float_pow
from .jets import JetDomainError

_MAX_TRIES_PER_POINT = 100
# Draws per chunk, so columns per block: a block's jets take memory in
# proportion to its size; a product's temporaries take at most
# ``jets.PRODUCT_BUDGET`` numbers each, whatever the size.
BLOCK_SIZE = 256


class SamplingError(Exception):
    pass


# Draws spell out ``rng.uniform(lo, hi)`` as ``lo + (hi - lo)`` times
# ``rng.random``, and ``np.linalg.norm`` of a vector as the square root of
# its dot with itself: the same numbers from the same calls of the
# generator, without those functions' checks of their arguments.

def _draw_x(rng, box):
    lo = box[:, 0]
    return lo + (box[:, 1] - lo) * rng.random(len(box))


def _draw_y(rng, n, annulus):
    v = rng.normal(size=n)
    norm = math.sqrt(v.dot(v))
    while norm < 1e-12:           # essentially never
        v = rng.normal(size=n)
        norm = math.sqrt(v.dot(v))
    lo, hi = annulus
    return v / norm * (lo + (hi - lo) * rng.random())


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


class Samples:
    """The admitted samples of a ``ChangedPair``, in draw order: ``coords``
    holds the (x, y) of each, and ``blocks`` the ``ChangedBlock`` of each
    chunk with an admitted draw, whose points are those samples, in the
    same order; no block is one whose construction raised."""

    def __init__(self, coords, blocks):
        self.coords = coords
        self.blocks = blocks

    def __len__(self):
        return len(self.coords)


def _admit_block(pair, x, y, keep, errors):
    """(kept columns, ``ChangedBlock`` of them or None) of the columns of
    ``x`` and ``y``, of shape ``(n, P)``, in order.  Their block
    (``pair.block``) is built once, and keeps a column where
    ``keep(block)`` holds.  Where it raises (it raises where any column
    would), each column is judged on a one-column block, and dropped
    where that raises one of ``errors``.  A block that drops columns, or
    was judged column by column, is built again at the columns kept, so
    that no block holds a dropped column, and none is one that raised."""
    kept = np.arange(x.shape[1])
    try:
        cb = pair.block(x, y)
    except FALLBACK_ERRORS:
        kept = []
        for p in range(x.shape[1]):
            try:
                pair.block(x[:, p:p + 1], y[:, p:p + 1])
            except errors:
                continue
            kept.append(p)
        if not kept:
            return [], None
        kept = np.array(kept)
        cb = pair.block(x[:, kept], y[:, kept])
    good = keep(cb)
    if not good.all():
        kept = kept[good]
        cb = pair.block(x[:, kept], y[:, kept]) if good.any() else None
    return kept, cb


def _regular(cb):
    """Which points of the ``ChangedBlock`` ``cb`` are regular: the base
    ``L^2`` and L* finite and above 1e-12, and ``|det g| > 1e-10 max(1,
    max |g_ij|)^n`` for the base ``g``, the power in Python floats
    (``core.float_pow``) as ``max(1.0, ...) ** n`` of one point, taken
    only where the values pass."""
    L2, Lstar = cb.base.L2(), cb.Lstar
    good = (np.isfinite(L2) & (L2 > 1e-12)
            & np.isfinite(Lstar) & (Lstar > 1e-12))
    g, det = cb.base.g_low()[good], cb.base.det_g()[good]
    scale = float_pow(np.fmax(1.0, np.max(np.abs(g), axis=(1, 2))), cb.n)
    good[good] = np.isfinite(det) & (np.abs(det) > 1e-10 * scale)
    return good


def sample_points(pair, count, seed):
    """Draw ``count`` admitted points of a ``ChangedPair`` from its base
    domain.  Returns (``Samples``, rejected draw count).

    A draw is admitted where the base value ``L^2`` and the signed changed
    value ``e^sigma L + b_i y^i`` are finite and above 1e-12 (the changed
    spec stores only the squared value, which cannot see a sign flip) and
    the base fundamental tensor is invertible.  A draw fails only on
    coefficients the package computes: admission reads order-2 jets,
    which hold every coefficient, and a higher tensor of an admitted
    point raises only where a coefficient of x-degree at most
    ``core.L2_XCAP`` is not finite.  Each chunk of draws is judged from
    its block (``ChangedPair.block``): its order-2 ``L^2`` jets and its
    ``sigma`` and ``b``; where that raises, the chunk's draws are judged
    on one-column blocks.  Either way the same draws are admitted as one
    draw at a time, and a block's rows are bit for bit the lone points'
    values."""
    rng = np.random.default_rng(seed)
    space = pair.base
    box = space.spec.x_box
    annulus = space.spec.y_annulus
    blocks = []

    def admit(k):
        draws = [(_draw_x(rng, box), _draw_y(rng, space.n, annulus))
                 for _ in range(k)]
        kept, block = _admit_block(
            pair, *(np.stack(d, axis=1) for d in zip(*draws)), _regular,
            (ValueError, ZeroDivisionError, JetDomainError))
        if block is not None:
            blocks.append(block)
        return [draws[p] for p in kept]

    coords, rejected = _rejection_loop(count, admit, "points")
    return Samples(coords, blocks), rejected


def sample_pair_points(pair, count, seed):
    """The (x, y) coordinates of ``sample_points``.
    Returns (points, rejected_count)."""
    points, rejected = sample_points(pair, count, seed)
    return points.coords, rejected


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
