"""Chunked admission of ``sample_points`` against a sampler that admits one
draw at a time with ``ChangedPair.at``: the same points, whose blocks'
rows and numbers are the lone points' values bit for bit, the same
rejections and the same errors, for each cause of rejection."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from finslerchange import sampling
from finslerchange.change import ChangedPair
from finslerchange.core import PointBlock
from finslerchange.jets import Jet, JetDomainError
from finslerchange.lang import MetricSpec, parse_spec_text, resolve_spec
from finslerchange.sampling import SamplingError, sample_points

BOX = "x_box = -1 1 -1 1\ny_annulus = 0.5 1.5\n"


def _metric(body):
    return parse_spec_text(f"dim 2\n{body}\n{BOX}", name="metric")


def _change(body):
    return parse_spec_text(body + "\n", name="change")


def _reference(pair, count, seed):
    """One draw at a time: ``pair.at``, then the value and ``det g``
    tests.  Returns (points, rejected draws, rejections by cause)."""
    rng = np.random.default_rng(seed)
    space = pair.base
    box, annulus = space.spec.x_box, space.spec.y_annulus
    out, causes = [], Counter()
    attempts, budget = 0, 100 * count
    while len(out) < count:
        if attempts >= budget:
            raise SamplingError(
                f"rejected more than 99% of {attempts} candidate points; "
                "the declared sampling domain admits almost no valid points")
        attempts += 1
        x = sampling._draw_x(rng, box)
        y = sampling._draw_y(rng, space.n, annulus)
        try:
            cp = pair.at(x, y)
        except (ValueError, ZeroDivisionError, JetDomainError) as exc:
            text = str(exc)
            causes["L*" if "changed metric value" in text
                   else "L2" if "not positive with finite" in text
                   else "domain"] += 1
            continue
        if not all(np.isfinite(v) and v > 1e-12
                   for v in (cp.base.L2(), cp.Lstar)):
            causes["value"] += 1
            continue
        det = cp.base.det_g()
        scale = max(1.0, float(np.max(np.abs(cp.base.g_low())))) ** space.n
        if not (np.isfinite(det) and abs(det) > 1e-10 * scale):
            causes["det"] += 1
            continue
        out.append(cp)
    return out, attempts - count, causes


def _sample(monkeypatch, pair, count, seed):
    """``sample_points`` with the number of blocks whose construction
    raised, which fails the whole block: a block caches its order-2
    ``L^2`` jet at construction unless that evaluation raised."""
    cleared = []
    init = PointBlock.__init__

    def counting(block, *args):
        init(block, *args)
        if not block._cache:
            assert not block.ok
            cleared.append(block)

    monkeypatch.setattr(PointBlock, "__init__", counting)
    points, rejected = sample_points(pair, count, seed)
    return points, rejected, len(cleared)


# (metric, change, the rejection cause it exercises, whether the block
# evaluation of a chunk raises, so the block fails and each draw is judged
# alone; a draw whose L^2 jet fails its check fails its block)
CASES = {
    "L2 not positive": ("L2 = (y1^2 + y2^2) * (x1 + 0.5)", "sigma = 0.2 * x2",
                        "L2", True),
    "block domain error": ("L2 = (y1^2 + y2^2) * sqrt(x1 + 0.3)",
                           "b1 = 0.1 * x2", "domain", True),
    "L* not positive": ("a_11 = 1\na_22 = 1", "b1 = 1.4 * x1", "L*", False),
    # e^(2 sigma) stays finite, its second coefficients do not everywhere
    "changed L2 not finite": ("a_11 = 1\na_22 = 1",
                              "sigma = 350 * sin(50 * x1)", "L2", True),
    "det g": ("a_11 = 1\na_22 = x1^8", "sigma = 0.1 * x1", "det", False),
    # sigma and b of a block raise, so each draw evaluates its own
    "change domain error": ("a_11 = 1\na_22 = 1", "b1 = 0.1 * sqrt(x2 + 0.3)",
                            "domain", True),
    # the base block passes, the changed one raises: the series of
    # sqrt(L^2) at a value below 1e-250 (|x1| > 0.91) leaves the float
    # range, so each draw is judged with its changed point
    "changed block domain error": ("L2 = (y1^2 + y2^2) * exp(-700 * x1^2)",
                                   "b1 = 1e-8 * x2", "domain", True),
    # a block takes jet exponents as each column does
    "jet exponent": ("L2 = (y1^2 + y2^2) * e^x1 * (x2 + 0.5)",
                     "b1 = 0.1 * 2^x2", "L2", True),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("count", [1, 30, 300])
def test_chunks_admit_what_single_draws_admit(monkeypatch, case, count):
    metric, change, cause, raises = CASES[case]
    pair = ChangedPair(_metric(metric), _change(change))
    monkeypatch.setattr(sampling, "BLOCK_SIZE", 64)
    # the overflowing coefficients of a rejected changed jet are expected
    with np.errstate(over="ignore", invalid="ignore"):
        got, rejected, cleared = _sample(monkeypatch, pair, count, 7)
        want, want_rejected, causes = _reference(pair, count, 7)
    assert rejected == want_rejected
    if count > 1:
        assert causes[cause] > 0
        assert (cleared > 0) == raises
    assert len(got) == len(want) == count
    _assert_same_points(got, want)


# The numbers a ``ChangedBlock`` holds for each of its points, and the
# rows of each side that admission reads.
NUMBERS = ("y", "sigma", "grad_sigma", "b_low", "db", "esig", "beta",
           "Lstar", "L", "tau")
ADMISSION_ROWS = {"base": ("L2", "g_low", "det_g"), "star": ("L2",)}


def _assert_same_points(got, want):
    """The samples ``got`` are the ``ChangedPoint``s ``want``: the same
    coordinates, and their blocks' numbers and admission rows are the
    lone points' values, bit for bit."""
    assert len(got.coords) == len(want)
    for (x, y), ref in zip(got.coords, want):
        assert x.tobytes() == ref.x.tobytes()
        assert y.tobytes() == ref.y.tobytes()
    blocks = got.blocks
    assert sum(len(cb.y) for cb in blocks) == len(want)
    for name in NUMBERS:
        stacked = np.concatenate([getattr(cb, name) for cb in blocks])
        assert stacked.tobytes() == np.array(
            [getattr(ref, name) for ref in want]).tobytes(), name
    for side, names in ADMISSION_ROWS.items():
        for name in names:
            stacked = np.concatenate([getattr(getattr(cb, side), name)()
                                      for cb in blocks])
            assert stacked.tobytes() == np.array(
                [getattr(getattr(ref, side), name)() for ref in want]
            ).tobytes(), (side, name)


def test_blocks_that_raise_admit_what_single_draws_admit(monkeypatch):
    # L^2 of block jets raises on both sides, so every block fails at
    # construction; the blocks built again at the admitted draws of a
    # chunk that rejects some raise again
    pair = ChangedPair(*map(resolve_spec, ["sphere2", "tangent_parabola"]))
    eval_l2 = MetricSpec.eval_l2

    def one_point_only(spec, env):
        if any(isinstance(v, Jet) and v.coeffs.ndim > 1
               for v in env.values()):
            raise ValueError("no block jets")
        return eval_l2(spec, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", one_point_only)
    monkeypatch.setattr(sampling, "BLOCK_SIZE", 64)
    got, rejected, cleared = _sample(monkeypatch, pair, 200, 1)
    want, want_rejected, causes = _reference(pair, 200, 1)
    assert rejected == want_rejected == causes["L*"] == 3
    _assert_same_points(got, want)
    sides = [rows for cb in got.blocks for rows in (cb.base, cb.star)]
    # two blocks for each of the five chunks, and two more for each of the
    # two chunks with a rejected draw: every one failed at construction,
    # so the rows are lone points'
    assert len({id(rows.block) for rows in sides}) == 10
    assert cleared == 14
    for rows in sides:
        assert not rows.block.ok
        assert len(rows.points()) == len(rows.x)


def test_changed_block_that_raises_leaves_each_draw_to_its_changed_point(
        monkeypatch):
    # the changed L^2 raises on block jets, and alone where x1 > 0.3: the
    # base block judges those draws regular, but each is judged with its
    # own changed point, which rejects it
    pair = ChangedPair(*map(resolve_spec, ["randers2", "projective"]))
    eval_l2 = MetricSpec.eval_l2

    def changed_raises(spec, env):
        x1 = env["x1"]
        if spec is pair.starred_spec and (x1.coeffs.ndim > 1
                                          or x1.value > 0.3):
            raise ValueError("changed L^2 raises")
        return eval_l2(spec, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", changed_raises)
    monkeypatch.setattr(sampling, "BLOCK_SIZE", 64)
    got, rejected, cleared = _sample(monkeypatch, pair, 100, 1)
    want, want_rejected, causes = _reference(pair, 100, 1)
    assert rejected == want_rejected == causes["domain"] > 0
    # the changed block of each of the six chunks fails, and so does the
    # one built again at the kept draws of each of the five that reject
    # some; no base block fails
    assert len(got.blocks) == 6 and cleared == 11
    assert all(cb.base.block.ok and not cb.star.block.ok
               for cb in got.blocks)
    _assert_same_points(got, want)


def _jets_in(value):
    """The jets of a structure of jets, in order."""
    if isinstance(value, Jet):
        return [value]
    return [j for v in value for j in _jets_in(v)]


# The tensors read from the jet layers that blocks evaluate.
LIGHT_TENSORS = ("g_low", "C_low", "spray", "n_conn", "berwald",
                 "cartan_hconn", "riemann")


# sphere2 + tangent_parabola rejects 3 of 203 draws at seed 1, L* <= 0
@pytest.mark.parametrize("case", ["sphere2+tangent_parabola", "det g",
                                  "block domain error"])
def test_rejected_draws_never_reach_a_blocks_later_layers(monkeypatch, case):
    raises = False
    if case in CASES:
        metric, change, _, raises = CASES[case]
        pair = ChangedPair(_metric(metric), _change(change))
        monkeypatch.setattr(sampling, "BLOCK_SIZE", 64)
    else:
        pair = ChangedPair(*map(resolve_spec, case.split("+")))
    points, rejected, cleared = _sample(monkeypatch, pair, 200, 1)
    assert rejected > 0
    assert (cleared > 0) == raises
    sides = {"base": [cb.base for cb in points.blocks],
             "star": [cb.star for cb in points.blocks]}
    with np.errstate(all="raise"):
        got = {(side, name): np.concatenate([getattr(rows, name)()
                                             for rows in sides[side]])
               for side in sides for name in LIGHT_TENSORS}
    # the rows are the blocks', whose layers never met a rejected draw:
    # a chunk that rejects draws builds its blocks again at the kept
    # ones, also where its blocks' construction raised
    for rows in sides["base"] + sides["star"]:
        assert rows.block.ok
        assert "points" not in rows._cache
        for name, cached in rows.block._cache.items():
            if name.startswith("_"):
                assert all(np.isfinite(j.coeffs).all()
                           for j in _jets_in(cached[1]))
    for i, (x, y) in enumerate(points.coords):
        for side, space in (("base", pair.base), ("star", pair.starred)):
            lone = space.point(x, y)
            for name in LIGHT_TENSORS:
                want = getattr(lone, name)()
                assert got[side, name][i].tobytes() == want.tobytes(), (
                    case, side, name)


def test_regular_takes_the_power_in_python_floats():
    # |det g| exactly at 1e-10 max(1, max |g_ij|)^3 and one ulp above it,
    # where numpy's array power rounds the scale otherwise
    v = np.tile(np.random.default_rng(3).uniform(1.0, 10.0, 2000), 2)
    threshold = 1e-10 * np.array([s ** 3 for s in v.tolist()])
    det = np.where(np.arange(v.size) < v.size // 2, threshold,
                   np.nextafter(threshold, np.inf))
    g = np.zeros((v.size, 3, 3))
    g[:, 0, 0] = v
    ones = np.ones(v.size)
    cb = SimpleNamespace(n=3, Lstar=ones, base=SimpleNamespace(
        L2=lambda: ones, g_low=lambda: g, det_g=lambda: det))
    want = [abs(d) > 1e-10 * max(1.0, float(np.max(np.abs(m)))) ** 3
            for d, m in zip(det.tolist(), g)]
    assert sampling._regular(cb).tolist() == want
    # the data tells the two powers apart
    assert (np.abs(det) > 1e-10 * v ** 3).tolist() != want


def test_exhausted_budget_raises_after_the_same_attempts():
    # L^2 > 0 on one percent of the box: one draw is admitted, then chunks
    # of four draws until the last, which the budget of 100 attempts per
    # point cuts to two
    pair = ChangedPair(_metric("L2 = (y1^2 + y2^2) * (x1 - 0.98)"),
                       resolve_spec("identity"))
    with pytest.raises(SamplingError) as want:
        _reference(pair, 5, 5)
    with pytest.raises(SamplingError) as got:
        sample_points(pair, 5, 5)
    assert "of 500 candidate points" in str(want.value)
    assert str(got.value) == str(want.value)


def _draws_by_uniform(rng, box, annulus, count):
    """Reference for the draws: ``rng.uniform`` and ``np.linalg.norm``."""
    out = []
    for _ in range(count):
        x = rng.uniform(box[:, 0], box[:, 1])
        v = rng.normal(size=len(box))
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.normal(size=len(box))
            norm = np.linalg.norm(v)
        out.append((x, v / norm * rng.uniform(annulus[0], annulus[1])))
    return out


@pytest.mark.parametrize("box, annulus", [
    (resolve_spec("randers2").x_box, resolve_spec("randers2").y_annulus),
    (resolve_spec("sphere3").x_box, resolve_spec("sphere3").y_annulus),
    (np.array([[-0.3, 1.7], [0.1, 0.2], [-5.0, -4.5]]), (0.2, 3.0)),
    (resolve_spec("parabola2").u_box, resolve_spec("parabola2").v_annulus),
], ids=["2d", "3d", "asymmetric", "hypersurface"])
def test_draws_equal_uniform_draws_bit_for_bit(box, annulus):
    for seed in range(20):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = _draws_by_uniform(want_rng, box, annulus, 200)
        for x, y in want:
            assert sampling._draw_x(got_rng, box).tobytes() == x.tobytes()
            got_y = sampling._draw_y(got_rng, len(box), annulus)
            assert got_y.tobytes() == y.tobytes()
        # the generator made the same calls
        assert got_rng.random() == want_rng.random()
