"""``tools/report_digest.py``, loaded by path: its sampled lines hash the
rows of the samples' blocks, and lone points' other tensors, in the bytes
of each sample's own tensors, so that the tool keeps working on the
package's sampling API and keeps exercising the blocks."""

import hashlib
import importlib.util
import pathlib

import numpy as np
import pytest

from finslerchange.change import ChangedPair
from finslerchange.core import FALLBACK_ERRORS, PointBlock
from finslerchange.lang import resolve_spec
from finslerchange.sampling import sample_pair_points

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _load_tool()


# randers2 builds every block; the blocks of sqrt2 (the tool's own spec)
# raise where a draw leaves the domain of sqrt, so their chunks are
# judged draw by draw and the blocks built again at the kept columns
@pytest.mark.parametrize("metric,samples,raises", [
    ("randers2", 20, False), (digest.SQRT2, 30, True)],
    ids=["randers2-n20", "sqrt2-n30"])
def test_sampled_digest_hashes_each_samples_tensors(monkeypatch, metric,
                                                     samples, raises):
    failed = []
    init = PointBlock.__init__

    def counting(block, *args):
        try:
            init(block, *args)
        except FALLBACK_ERRORS:
            failed.append(block)
            raise

    monkeypatch.setattr(PointBlock, "__init__", counting)
    _, parts = digest._sampled([(metric, "projective", samples, 1)],
                               digest.TENSORS)
    assert bool(failed) == raises
    pair = ChangedPair(resolve_spec(metric, expect="metric"),
                       resolve_spec("projective", expect="change"))
    points, _ = sample_pair_points(pair, samples, 1)
    fresh = [space.point(x, y) for x, y in points
             for space in (pair.base, pair.starred)]
    want = {}
    for name in digest.TENSORS:
        part = hashlib.sha256()
        for pg in fresh:
            part.update(np.ascontiguousarray(getattr(pg, name)(),
                                             dtype=float).tobytes())
        want[name] = part.hexdigest()[:16]
    assert parts == want
