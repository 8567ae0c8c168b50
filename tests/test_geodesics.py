import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerchange import geodesics
from finslerchange.change import ChangedPair
from finslerchange.core import FinslerSpace
from finslerchange.geodesics import (
    MAX_CONDITION,
    GeodesicError,
    GeodesicPath,
    curve_set_deviation,
    integrate_geodesic,
    retrace_deviation,
)
from finslerchange.lang import parse_spec_text, resolve_spec
from finslerchange.suites import SuiteConfig, SuiteRun

EUCLID2 = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = 1\nx_box = -20 20 -20 20\n", name="euclid2")
POLAR = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = x1^2\nx_box = 0.3 4 -9 9\n", name="polar")
SPHERE = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = sin(x1)^2\nx_box = 0.4 2.7 -9 9\n", name="sphere")
RANDERS = parse_spec_text(
    "dim 2\nL = sqrt(y1^2 + y2^2) + 0.08 * (x2 * y1 - x1 * y2)\n"
    "x_box = -6 6 -6 6\n", name="randers")
PROJ = parse_spec_text(
    "sigma = 0.05\nb1 = 0.02 * x2\nb2 = 0.02 * x1\n", name="proj")
CONFORMAL = parse_spec_text("sigma = 0.3 * x1\n", name="conformal")


def test_euclidean_geodesics_are_straight():
    space = FinslerSpace(EUCLID2)
    path = integrate_geodesic(space, [0.0, 0.0], [0.6, 0.8], 5.0, tol=1e-10)
    want_end = np.array([3.0, 4.0])
    assert np.allclose(path.x[-1], want_end, atol=1e-9)
    assert np.allclose(path.y[-1], [0.6, 0.8], atol=1e-10)
    assert path.stats["value_drift"] < 1e-12
    # every dense sample sits on the line
    pts = path.dense_points()
    cross = pts[:, 0] * 0.8 - pts[:, 1] * 0.6
    assert np.max(np.abs(cross)) < 1e-9


def test_polar_chart_geodesics_are_straight_in_cartesian():
    space = FinslerSpace(POLAR)
    x0 = np.array([1.0, 0.2])
    y0 = np.array([0.3, 0.4])
    path = integrate_geodesic(space, x0, y0, 3.0, tol=1e-10)
    pts = path.dense_points()
    cart = np.column_stack([pts[:, 0] * np.cos(pts[:, 1]),
                            pts[:, 0] * np.sin(pts[:, 1])])
    p0 = cart[0]
    r, th = x0
    dr, dth = y0
    u = np.array([dr * np.cos(th) - r * np.sin(th) * dth,
                  dr * np.sin(th) + r * np.cos(th) * dth])
    u = u / np.linalg.norm(u)
    offs = cart - p0
    dist = np.abs(offs[:, 0] * u[1] - offs[:, 1] * u[0])
    assert np.max(dist) < 1e-7


def test_sphere_equator_closes_after_full_period():
    space = FinslerSpace(SPHERE)
    x0 = [np.pi / 2, 0.0]
    y0 = [0.0, 1.0]
    path = integrate_geodesic(space, x0, y0, 2 * np.pi, tol=1e-11)
    assert path.x[-1][0] == pytest.approx(np.pi / 2, abs=1e-8)
    assert path.x[-1][1] == pytest.approx(2 * np.pi, abs=1e-8)
    assert np.allclose(path.y[-1], y0, atol=1e-8)


def test_value_drift_stays_small_on_curved_metric():
    space = FinslerSpace(RANDERS)
    path = integrate_geodesic(space, [0.5, -0.3], [0.8, 0.6], 5.0, tol=1e-9)
    assert path.stats["value_drift"] < 1e-7
    assert path.stats["steps"] > 5
    assert path.stats["max_local_error"] <= 1e-9


def test_projective_change_keeps_geodesic_point_sets():
    pair = ChangedPair(SPHERE, PROJ)
    x0 = [1.1, 0.4]
    y0 = [0.4, 0.7]
    base = integrate_geodesic(pair.base, x0, y0, 2.0, tol=1e-10)
    star = integrate_geodesic(pair.starred, x0, y0, 2.0, tol=1e-10)
    # parametrizations differ...
    assert not np.allclose(base.x[-1], star.x[-1], atol=1e-4)
    # ...but the curves coincide, up to integration error
    assert curve_set_deviation(base, star) < 1e-5


def test_nonprojective_change_bends_geodesics():
    for metric, change, x0, y0 in [
            (SPHERE, CONFORMAL, [1.1, 0.4], [0.4, 0.7]),
            (resolve_spec("randers2"), resolve_spec("randers_nonclosed"),
             [0.3, -0.2], [0.8, 0.6])]:
        pair = ChangedPair(metric, change)
        base = integrate_geodesic(pair.base, x0, y0, 2.0, tol=1e-10)
        star = integrate_geodesic(pair.starred, x0, y0, 2.0, tol=1e-10)
        assert curve_set_deviation(base, star) > 1e-3, metric.name


@pytest.mark.parametrize("metric,x0,y0", [
    ("randers2", [0.3, -0.2], [0.8, 0.6]),
    ("sphere2", [1.1, 0.4], [0.4, 0.7]),
    ("curved3", [0.2, 0.1, -0.3], [0.5, -0.6, 0.7]),
], ids=("randers2", "sphere2", "curved3"))
def test_rescaled_start_velocity_traces_the_same_curve(metric, x0, y0):
    # the measured distance is the integration error, not chord sag
    space = FinslerSpace(resolve_spec(metric))
    slow = integrate_geodesic(space, x0, y0, 2.0, tol=1e-10)
    fast = integrate_geodesic(space, x0, 1.7 * np.asarray(y0), 2.0,
                              tol=1e-10)
    assert curve_set_deviation(slow, fast) < 1e-6


def test_retrace_on_reversible_metric():
    space = FinslerSpace(SPHERE)
    path = integrate_geodesic(space, [1.0, 0.1], [0.5, 0.8], 1.5, tol=1e-10)
    assert retrace_deviation(space, path, tol=1e-10) < 1e-5


def test_retrace_detects_one_way_metric():
    # rotational drift: the return geodesic is a different curve
    space = FinslerSpace(RANDERS)
    path = integrate_geodesic(space, [1.0, 0.5], [0.9, 0.1], 4.0, tol=1e-10)
    assert retrace_deviation(space, path, tol=1e-10) > 1e-3


def test_box_exit_statistics_and_enforcement():
    space = FinslerSpace(
        parse_spec_text("dim 2\na_11 = 1\na_22 = 1\n", name="tight"))
    path = integrate_geodesic(space, [0.0, 0.0], [1.0, 0.0], 3.0, tol=1e-10)
    assert path.stats["box_exits"] > 0
    assert 0.9 < path.stats["first_exit_t"] < 1.3
    assert type(path.stats["first_exit_t"]) is float
    # the error names the located exit, not the end of the exiting step
    with pytest.raises(GeodesicError,
                       match=r"^geodesic left the sampling box at t = 1$"):
        integrate_geodesic(space, [0.0, 0.0], [1.0, 0.0], 3.0, tol=1e-10,
                           enforce_box=True)


def test_bad_arguments():
    space = FinslerSpace(EUCLID2)
    x, y = [0.0, 0.0], [0.6, 0.8]
    nan, inf = float("nan"), float("inf")
    for x0, y0, t_end, kwargs in [
            ([0.0], [1.0, 0.0], 1.0, {}),
            (x, [1.0, 0.0], -1.0, {}),
            ([nan, 0.0], y, 1.0, {}),
            ([0.0, inf], y, 1.0, {}),
            (x, [0.6, nan], 1.0, {}),
            (x, y, 0.0, {}),
            (x, y, nan, {}),
            (x, y, inf, {}),
            (x, y, 1.0, {"tol": 0.0}),
            (x, y, 1.0, {"tol": -1e-8}),
            (x, y, 1.0, {"tol": nan}),
            (x, y, 1.0, {"tol": inf}),
            (x, y, 1.0, {"max_steps": 0}),
            (x, y, 1.0, {"max_steps": -5})]:
        with pytest.raises(ValueError):
            integrate_geodesic(space, x0, y0, t_end, **kwargs)


def test_step_budget():
    space = FinslerSpace(EUCLID2)
    with pytest.raises(GeodesicError):
        integrate_geodesic(space, [0.0, 0.0], [1.0, 0.0], 100.0, tol=1e-13,
                           max_steps=3)


def test_step_budget_spares_a_finished_path():
    # steps of 0.1, 0.5, 2.5 and 6.9: the fourth is over the budget of
    # three, and it reaches t_end
    space = FinslerSpace(EUCLID2)
    path = integrate_geodesic(space, [0.0, 0.0], [1.0, 0.0], 10.0,
                              max_steps=3)
    assert path.t[-1] == 10.0
    assert path.stats["steps"] == 4


def test_start_point_outside_domain_raises_geodesic_error():
    # sqrt(y1^2 + y2^2) has no jet at y = 0
    space = FinslerSpace(resolve_spec("randers2"))
    with pytest.raises(GeodesicError, match="left its domain"):
        integrate_geodesic(space, [0.1, 0.2], [0.0, 0.0], 1.0)


def _counting_sprays(space, limit):
    """Count ``space.spray_values`` calls; abort the integration with a
    RuntimeError on call ``limit + 1``."""
    calls = [0]
    spray_values = space.spray_values

    def counting(x, y):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError(f"more than {limit} spray evaluations")
        return spray_values(x, y)
    space.spray_values = counting
    return calls


@pytest.mark.parametrize("kind,spec,y0,t_end,kwargs,t", [
    # head-on into the edge x1 = 1, at arc length int sqrt(1 - x1) dx1 =
    # 2/3; g stays diagonal, so the guard reads it as a change of units
    ("underflow", "a_11 = 1 - x1\na_22 = 1", [1.0, 0.0], 3.0, {}, 2 / 3),
    # steps of 0.1 and 0.5, then the step from t = 0.6 crosses x1 = 1
    ("domain", "a_11 = 1\na_22 = 1 + sqrt(1 - x1)", [1.0, 0.0], 3.0, {},
     0.6),
    # steps of 0.1, 0.5, 2.5 and 12.5: the fourth is over the budget
    ("budget", "a_11 = 1\na_22 = 1\nx_box = -20 20 -20 20", [1.0, 0.0],
     100.0, {"max_steps": 3}, 15.6),
    ("box", "a_11 = 1\na_22 = 1", [1.0, 0.0], 3.0, {"enforce_box": True},
     1.0),
], ids=("underflow", "domain", "budget", "box"))
def test_failure_kind_and_time(kind, spec, y0, t_end, kwargs, t):
    space = FinslerSpace(parse_spec_text(f"dim 2\n{spec}\n", name=kind))
    with pytest.raises(GeodesicError) as info:
        integrate_geodesic(space, [0.0, 0.0], y0, t_end, tol=1e-10,
                           **kwargs)
    assert info.value.kind == kind
    assert type(info.value.t) is float
    assert info.value.t == pytest.approx(t, abs=1e-6)


@pytest.mark.parametrize("seed,index", [(108, 0), (2, 1), (7, 1)])
def test_degenerating_changed_metric_stops_early(seed, index):
    # past |b| e^-sigma = 1 the changed g turns singular; unguarded, these
    # paths ground on to a step size underflow after 13k to 388k sprays
    run = SuiteRun(SuiteConfig(resolve_spec("euclid2"),
                               resolve_spec("tangent_parabola"),
                               resolve_spec("parabola2"), samples=12,
                               seed=seed))
    x0, y0 = run.geodesic_ics()[index]
    space = run.pair.starred
    calls = _counting_sprays(space, 3000)
    with pytest.raises(GeodesicError, match="left its domain") as info:
        integrate_geodesic(space, x0, y0, 2.0, tol=1e-10)
    assert info.value.kind == "domain"
    assert "g is degenerating" in str(info.value)
    assert 0.0 < info.value.t < 2.0
    assert calls[0] <= 3000


@pytest.mark.parametrize("metric,y0,t_end,cond", [
    # a_22 = e^{2 x1} and a_33 = e^{-2 x1}: cond(g) grows as e^{4 x1}
    # along the x1 axis while the metric stays regular
    ("curved3", [1.0, 0.0, 0.0], 3.4, 1e5),
    ("curved3", [1.0, 0.0, 0.0], 5.0, 4 * MAX_CONDITION),
    # regular everywhere, with cond(g) = 1e9 only from the units of x1
    (parse_spec_text("dim 2\na_11 = 1e9\na_22 = 1\n", name="scaled2"),
     [1e-4, 1.0], 3.0, 5 * MAX_CONDITION),
], ids=("curved3-3.4", "curved3-5", "scaled2"))
def test_ill_conditioned_healthy_path_finishes(metric, y0, t_end, cond):
    # the guard reads g with its diagonal scaled out, so a condition
    # number that only reflects coordinate scales does not stop a path
    space = FinslerSpace(resolve_spec(metric) if isinstance(metric, str)
                         else metric)
    path = integrate_geodesic(space, np.zeros(space.n), y0, t_end,
                              tol=1e-10)
    assert path.t[-1] == t_end
    assert path.x[-1] == pytest.approx(t_end * np.asarray(y0), abs=1e-8)
    g = space.point(path.x[-1], path.y[-1]).g_low()
    assert np.linalg.cond(g) > cond


@pytest.mark.parametrize("metric,x0,y0", [
    ("sphere2", [1.1, 0.4], [0.4, 0.7]),
    ("curved3", [0.2, 0.1, -0.3], [0.5, -0.6, 0.7]),
], ids=("sphere2", "curved3"))
def test_one_spray_evaluation_per_stage(metric, x0, y0):
    # the benchmark tracer derives RK attempts from this count
    space = FinslerSpace(resolve_spec(metric))
    calls = _counting_sprays(space, 10 ** 6)
    path = integrate_geodesic(space, x0, y0, 2.0, tol=1e-10)
    assert path.stats["rejected"] > 0
    assert calls[0] == 1 + 6 * (path.stats["steps"]
                                + path.stats["rejected"])


def _all_pairs_deviation(path_a, path_b):
    """Reference curve distance: every dense point of the shorter path
    against every segment of the longer one, in chunks of 32 points,
    with no segment skipped."""
    pa, pb = path_a.dense_points(), path_b.dense_points()
    la, lb = (float(np.sum(np.sqrt(np.sum(d * d, axis=1))))
              for d in (np.diff(pa, axis=0), np.diff(pb, axis=0)))
    query, target = (pa, path_b) if la <= lb else (pb, path_a)
    c0, c1, c2, c3 = target.segments.transpose(1, 0, 2)
    chord = c1 + c2 + c3
    len2 = np.maximum(np.sum(chord * chord, axis=-1), 1e-300)
    worst = 0.0
    for start in range(0, len(query), 32):
        off = c0 - query[start:start + 32, None, :]
        s = np.clip(-np.sum(off * chord, axis=-1) / len2, 0.0, 1.0)[..., None]
        for _ in range(4):
            r = off + s * (c1 + s * (c2 + s * c3))
            d1 = c1 + s * (2 * c2 + 3 * s * c3)
            f1 = np.sum(r * d1, axis=-1, keepdims=True)
            f2 = np.sum(d1 * d1 + r * (2 * c2 + 6 * s * c3), axis=-1,
                        keepdims=True)
            convex = f2 > 0
            s = np.clip(s - np.where(convex, f1, 0.0)
                        / np.where(convex, f2, 1.0), 0.0, 1.0)
        r = off + s * (c1 + s * (c2 + s * c3))
        worst = max(worst, float(np.max(np.min(np.sum(r * r, axis=-1),
                                               axis=1))))
    return float(np.sqrt(worst))


def _path(t, states):
    states = np.asarray(states, dtype=float)
    return GeodesicPath(states.shape[1] // 2, t, states, {})


def _wiggle(rng, n, steps, scale):
    """A random path of ``steps`` steps: a random walk of nodes with
    random velocities."""
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, steps))])
    x = np.cumsum(rng.normal(scale=scale, size=(steps + 1, n)), axis=0)
    y = rng.normal(scale=scale, size=(steps + 1, n))
    return t, np.hstack([x, y])


def _stall(states, k):
    """Repeat node ``k`` at rest, so that a zero-length segment (chord 0,
    the ``len2`` floor) follows it."""
    n = states.shape[1] // 2
    rest = states[k].copy()
    rest[n:] = 0.0
    return np.vstack([states[:k], rest, rest, states[k + 1:]])


def _assert_same_deviation(a, b):
    for p, q in ((a, b), (b, a)):
        assert curve_set_deviation(p, q) == _all_pairs_deviation(p, q)


@st.composite
def _path_pairs(draw):
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.01, 0.3, 2.0]))
    ta, sa = _wiggle(rng, n, draw(st.integers(1, 12)), scale)
    relation = draw(st.sampled_from(["free", "same", "near", "shares"]))
    if relation == "same":
        tb, sb = ta, sa.copy()
    else:
        tb, sb = _wiggle(rng, n, draw(st.integers(1, 12)), scale)
        if relation == "near":
            sb = sa[:1] + (sb - sb[:1]) * 1e-3
            sb[:, :n] += rng.normal(scale=1e-6, size=n)
        elif relation == "shares":
            # queries fall exactly on some nodes of the other path
            k = rng.integers(0, len(sa), size=min(len(sa), len(sb)))
            sb[:len(k)] = sa[k]
    sb[:, :n] += draw(st.sampled_from([0.0, 0.5, 50.0]))
    for states in (sa, sb):
        if draw(st.booleans()):
            k = int(rng.integers(0, len(states)))
            states = _stall(states, k)
    if draw(st.booleans()):
        sa = _stall(sa, int(rng.integers(0, len(sa))))
        ta = np.concatenate([ta, [ta[-1] + 0.5]])
    return _path(ta, sa), _path(tb, sb)


@settings(max_examples=300, deadline=None, database=None)
@given(_path_pairs())
def test_curve_distance_equals_all_pairs_reference(pair):
    _assert_same_deviation(*pair)


def test_curve_distance_edge_cases_equal_the_reference():
    rng = np.random.default_rng(5)
    # identical paths: every query sits on the other path
    t = np.linspace(0.0, 6.0, 21)
    helix = np.column_stack([np.cos(t), np.sin(t), 0.2 * t,
                             -np.sin(t), np.cos(t), np.full_like(t, 0.2)])
    assert curve_set_deviation(_path(t, helix), _path(t, helix)) < 1e-9
    _assert_same_deviation(_path(t, helix), _path(t, helix))
    t, states = _wiggle(rng, 3, 20, 0.3)
    path = _path(t, states)
    # a query exactly on a node of the target, and zero-length segments
    stalled = _stall(_stall(states, 4), 11)
    _assert_same_deviation(path, _path(np.arange(len(stalled)) * 0.3,
                                       stalled))
    _assert_same_deviation(_path([0.0, 0.2], states[3:5]), path)
    # a one-step target: a long step against a short wiggly query path
    long_step = _path([0.0, 1.0], [[-5.0, 0, 0, 10, 1, 0],
                                   [5.0, 0, 0, 10, -1, 0]])
    tq, sq = _wiggle(rng, 3, 15, 0.01)
    _assert_same_deviation(long_step, _path(tq, sq))
    # far apart, and crossing: every bound reaches every segment
    far = states.copy()
    far[:, :3] += 1e3
    _assert_same_deviation(path, _path(t, far))
    line = np.zeros((9, 4))
    line[:, 0] = np.linspace(-4.0, 4.0, 9)
    line[:, 2] = 1.0
    cross = line[:, [1, 0, 3, 2]].copy()
    cross[:, 0] += 0.25
    _assert_same_deviation(_path(np.arange(9.0), line),
                           _path(np.arange(9.0), cross))


def test_curve_distance_skips_far_segments():
    # two long neighbouring paths: almost every pair is skipped
    space = FinslerSpace(SPHERE)
    base = integrate_geodesic(space, [1.0, 0.1], [0.5, 0.8], 6.0,
                              tol=1e-10)
    other = integrate_geodesic(space, [1.0, 0.1], [0.5, 0.81], 6.0,
                               tol=1e-10)
    measured = []
    newton = geodesics._segment_sq_dist

    def counting(off, *args):
        measured.append(len(off))
        return newton(off, *args)

    geodesics._segment_sq_dist = counting
    try:
        got = curve_set_deviation(base, other)
    finally:
        geodesics._segment_sq_dist = newton
    assert got == _all_pairs_deviation(base, other)
    steps = len(base.segments)
    assert steps > 30
    all_pairs = len(base.dense_points()) * steps
    assert sum(measured) < 0.2 * all_pairs


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_segments_lie_in_their_boxes(n, seed, scale):
    # the skip rule is exact because of this: every point that the
    # Newton steps can reach lies in its segment's box, up to the
    # rounding the rule's absolute margin absorbs
    rng = np.random.default_rng(seed)
    t, states = _wiggle(rng, n, 6, scale)
    segments = _path(t, states).segments
    lo, hi = geodesics._segment_boxes(segments)
    c0, c1, c2, c3 = segments.transpose(1, 0, 2)
    s = np.linspace(0.0, 1.0, 65)[:, None, None]
    points = c0 + s * (c1 + s * (c2 + s * c3))
    slack = geodesics._SKIP_ABS * np.abs(segments).max(axis=(0, 2)).sum()
    assert np.all(points >= lo - slack) and np.all(points <= hi + slack)
    # the dense points, the queries, sit in the boxes too
    dense = (np.linspace(0.0, 1.0, geodesics.REFINE, endpoint=False)[
        :, None] ** np.arange(4)) @ segments
    assert np.all(dense >= lo[:, None] - slack)
    assert np.all(dense <= hi[:, None] + slack)
