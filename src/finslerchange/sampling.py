"""Seeded sampling of evaluation points from a spec's declared domains.

Points are drawn uniformly from the x-box, supporting elements from the
y-annulus (uniform direction times uniform radius).  Draws violating
positivity or regularity of the metric are rejected; a rejection rate
above 99% raises, since it means the declared domain is unusable.

Draws are made and judged in chunks of at most ``BLOCK_SIZE``, never more
than the points still wanted or the attempts left, so the generator
makes the same calls in the same order as one draw at a time would.
``sample_points`` makes a chunk's base and changed ``core.PointBlock``,
each built from its order-2 ``L^2`` jet, and evaluates its ``sigma`` and
``b`` as blocks too; it judges the chunk's draws from the rows of those
blocks, and its admitted draws are the columns of blocks that evaluate
their light jet layers together (``change.ChangedBlock``).  A block is
all or nothing, so a chunk where one of the three block evaluations
raises is judged draw by draw, each draw as a lone point, which raises
its own errors or is admitted.  Where draws are rejected, the chunk's
blocks are built again at the draws it keeps, and the next chunk is
smaller.  A hypersurface sampler admits each draw by
building its ``HyperPoint``, and returns those.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .change import ChangedBlock
from .core import FALLBACK_ERRORS, PointBlock, float_pow
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


class Samples(Sequence):
    """The admitted samples of a ``ChangedPair``, in draw order: ``coords``
    holds the (x, y) of each, and ``blocks`` the ``ChangedBlock`` of each
    chunk with an admitted draw, whose points are those samples, in the
    same order.  Item ``i`` is the lone ``ChangedPoint`` at ``coords[i]``,
    built by ``pair.at`` on each request and not kept."""

    def __init__(self, pair, coords, blocks):
        self.pair = pair
        self.coords = coords
        self.blocks = blocks

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.pair.at(x, y) for x, y in self.coords[i]]
        return self.pair.at(*self.coords[i])


def _admit_block(pair, draws):
    """(admitted draws, ``ChangedBlock`` of them) of a chunk of draws, in
    draw order, or ([], None).  The base jets, ``sigma`` and ``b`` of all
    draws are each one block evaluation, and the changed jets one more;
    the draws are admitted where the rows of their ``ChangedBlock`` are
    ``_regular``.  Where one of the three evaluations raises (a block is
    all or nothing), a draw is tried where the lone point ``pair.at``
    builds raises nothing.  A chunk that keeps every draw returns the
    ``ChangedBlock`` it judged; one that leaves draws out builds its
    blocks again at the draws it keeps (``_blocks``), so that no block
    holds a draw that was left out."""
    x = np.stack([d[0] for d in draws], axis=1)
    y = np.stack([d[1] for d in draws], axis=1)
    base = PointBlock(pair.base, x, y)
    try:
        change = [np.moveaxis(a, -1, 0) for a in pair.change.at(x)]
    except FALLBACK_ERRORS:
        change = None
    star = PointBlock(pair.starred, x, y)
    kept = np.arange(len(draws))
    if change is None or not (base.ok and star.ok):
        cps = {}
        for p, draw in enumerate(draws):
            try:
                cps[p] = pair.at(*draw)
            except (ValueError, ZeroDivisionError, JetDomainError):
                pass
        if not cps:
            return [], None
        kept = np.array(list(cps), dtype=int)
        change = [np.array([getattr(cp, name) for cp in cps.values()])
                  for name in ("sigma", "grad_sigma", "b_low", "db")]
    cb = ChangedBlock(pair, *_blocks(pair, base, star, kept), change)
    good = _regular(cb)
    if not good.all():
        kept = kept[good]
        cb = ChangedBlock(pair, *_blocks(pair, base, star, kept),
                          [a[good] for a in change]) if good.any() else None
    return [draws[p] for p in kept], cb


def _blocks(pair, base, star, kept):
    """The base and changed ``PointBlock`` of the columns ``kept`` of the
    chunk's blocks ``base`` and ``star``: those blocks where they are all
    of their columns, else new blocks at those columns' coordinates."""
    if len(kept) == base.x.shape[1]:
        return base, star
    x, y = base.x[:, kept], base.y[:, kept]
    return PointBlock(pair.base, x, y), PointBlock(pair.starred, x, y)


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
    block evaluations of its order-2 ``L^2`` jets and its ``sigma`` and
    ``b``; where one of those raises, the chunk's draws are judged alone.
    Either way the same draws are admitted as one draw at a time, and a
    block's rows are bit for bit the lone points' values."""
    rng = np.random.default_rng(seed)
    space = pair.base
    box = space.spec.x_box
    annulus = space.spec.y_annulus
    blocks = []

    def admit(k):
        coords, block = _admit_block(pair, [
            (_draw_x(rng, box), _draw_y(rng, space.n, annulus))
            for _ in range(k)])
        if block is not None:
            blocks.append(block)
        return coords

    coords, rejected = _rejection_loop(count, admit, "points")
    return Samples(pair, coords, blocks), rejected


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
