"""Points of a ``ChangedPair`` as columns of blocks, read as one point.

``column(pair, x, y)`` is ``pair.block`` at the single column (x, y),
and ``columns(blocks)`` each column of some blocks, wrapped in
``Column``: each array and tensor of the block, and of its base and
changed sides, is read as its row at that column, and each number of a
point as a Python float, as the tests read a point."""

import numpy as np

from finslerchange.core import PointBlock


def column(pair, x, y):
    """The one-column ``ChangedBlock`` of ``pair`` at (x, y), as one
    point."""
    return Column(pair.block(np.reshape(x, (-1, 1)), np.reshape(y, (-1, 1))))


def columns(blocks):
    """Each column of each ``ChangedBlock`` of ``blocks``, in order, as
    one point."""
    return [Column(cb, p) for cb in blocks for p in range(cb.base.x.shape[1])]


def _row(value, p):
    """Row ``p`` of an array, a float where it is a number; anything else
    as it is."""
    if not isinstance(value, np.ndarray):
        return value
    row = value[p]
    return float(row) if row.ndim == 0 else row


class Column:
    """Column ``p`` of a ``ChangedBlock`` or a ``core.PointBlock``, read
    as one point.  A block's ``x`` and ``y`` hold its columns as their
    last axis; every other array holds them first."""

    def __init__(self, block, p=0):
        self.block = block
        self.p = p

    def __getattr__(self, name):
        value = getattr(self.block, name)
        if name in ("base", "star"):
            return Column(value, self.p)
        if isinstance(self.block, PointBlock) and name in ("x", "y"):
            return value[:, self.p]
        if callable(value):
            return lambda: _row(value(), self.p)
        return _row(value, self.p)
