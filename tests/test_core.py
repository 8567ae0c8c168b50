import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerchange import core, geodesics, sampling, suites
from finslerchange.change import ChangedPair
from finslerchange.core import (
    FinslerSpace,
    PointBlock,
    central_partial,
    horizontal_covariant,
)
from finslerchange.jets import (Jet, JetDomainError, jet_linear_solve, lift,
                                lift_env)
from finslerchange.lang import (MetricSpec, SpecError, parse_spec_text,
                                resolve_spec)
from finslerchange.sampling import sample_pair_points, sample_points

# dx1^2 + x1^2 dx2^2: flat plane in polar-style coordinates
POLAR = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = x1^2\nx_box = 0.5 2 -1 1\n", name="polar")
# round unit sphere
SPHERE = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = sin(x1)^2\nx_box = 0.7 2.4 -1 1\n", name="sphere")
# Randers metric with a rotational (non-closed) drift term
RANDERS = parse_spec_text(
    "dim 2\nL = sqrt(y1^2 + y2^2) + 0.08 * (x2 * y1 - x1 * y2)\n",
    name="randers")
EUCLID3 = parse_spec_text(
    "dim 3\na_11 = 1\na_22 = 1\na_33 = 1\n", name="euclid3")

RNG = np.random.default_rng(901)


def rand_point(spec, rng=RNG):
    x = np.array([rng.uniform(lo, hi) for lo, hi in spec.x_box])
    v = rng.normal(size=spec.dim)
    y = v / np.linalg.norm(v) * rng.uniform(*spec.y_annulus)
    return x, y


def test_polar_spray_oracle():
    # hand-computed: G^1 = -x1 y2^2 / 2, G^2 = y1 y2 / x1
    pg = FinslerSpace(POLAR).point([1.3, 0.4], [0.7, -0.5])
    G = pg.spray()
    assert G[0] == pytest.approx(-1.3 * 0.25 / 2, abs=1e-13)
    assert G[1] == pytest.approx(0.7 * -0.5 / 1.3, abs=1e-13)


def test_polar_connection_oracles():
    pg = FinslerSpace(POLAR).point([1.3, 0.4], [0.7, -0.5])
    N = pg.n_conn()
    assert N[0, 0] == pytest.approx(0.0, abs=1e-13)
    assert N[0, 1] == pytest.approx(-1.3 * -0.5, abs=1e-13)
    assert N[1, 0] == pytest.approx(-0.5 / 1.3, abs=1e-13)
    assert N[1, 1] == pytest.approx(0.7 / 1.3, abs=1e-13)
    B = pg.berwald()
    assert B[0, 1, 1] == pytest.approx(-1.3, abs=1e-13)
    assert B[1, 0, 1] == pytest.approx(1 / 1.3, abs=1e-13)
    assert B[0, 0, 0] == pytest.approx(0.0, abs=1e-13)


def test_polar_is_flat():
    space = FinslerSpace(POLAR)
    for _ in range(3):
        pg = space.point(*rand_point(POLAR))
        assert np.allclose(pg.riemann(), 0.0, atol=1e-10)
        assert np.allclose(pg.douglas(), 0.0, atol=1e-10)
        assert np.allclose(pg.weyl_proj(), 0.0, atol=1e-10)


def test_sphere_constant_curvature():
    # R^i_k = K (L^2 delta^i_k - y^i y_k) with K = 1
    space = FinslerSpace(SPHERE)
    for _ in range(3):
        x, y = rand_point(SPHERE)
        pg = space.point(x, y)
        want = pg.L2() * np.eye(2) - np.outer(y, pg.y_low())
        assert np.allclose(pg.riemann(), want, atol=1e-9)
        assert np.allclose(pg.weyl_proj(), 0.0, atol=1e-9)
        assert pg.ric() == pytest.approx(pg.L2(), rel=1e-9)


def test_metric_tensors_basic():
    pg = FinslerSpace(EUCLID3).point([0.1, 0.2, 0.3], [3.0, 0.0, 4.0])
    assert pg.L() == pytest.approx(5.0)
    assert np.allclose(pg.g_low(), np.eye(3))
    assert np.allclose(pg.l_low(), [0.6, 0.0, 0.8])
    assert np.allclose(pg.y_low(), [3.0, 0.0, 4.0])
    assert np.allclose(pg.C_low(), 0.0, atol=1e-14)
    assert np.allclose(pg.spray(), 0.0, atol=1e-14)
    h = pg.h_low()
    assert np.allclose(h @ np.array([3.0, 0.0, 4.0]), 0.0, atol=1e-13)


def test_quadratic_metric_has_no_cartan_torsion():
    space = FinslerSpace(SPHERE)
    pg = space.point(*rand_point(SPHERE))
    assert np.allclose(pg.C_low(), 0.0, atol=1e-12)


def test_randers_cartan_torsion_nonzero_but_y_null():
    space = FinslerSpace(RANDERS)
    pg = space.point(*rand_point(RANDERS))
    C = pg.C_low()
    assert np.max(np.abs(C)) > 1e-3
    # positive homogeneity kills every y-contraction
    assert np.allclose(np.einsum("ijk,k->ij", C, pg.y), 0.0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(pg.g_low()) > 0.0)


def test_angular_metric_rank_deficiency():
    space = FinslerSpace(RANDERS)
    pg = space.point(*rand_point(RANDERS))
    h = pg.h_low()
    assert np.allclose(h, h.T, atol=1e-13)
    assert np.allclose(h @ pg.y, 0.0, atol=1e-12)
    evals = np.linalg.eigvalsh(h)
    assert abs(evals[0]) < 1e-10 and evals[1] > 1e-4


def test_spray_homogeneity():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    G1 = space.spray_values(x, y)
    G2 = space.spray_values(x, 1.7 * y)
    assert np.allclose(G2, 1.7 ** 2 * G1, rtol=1e-11)


def test_euler_contractions():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    pg = space.point(x, y)
    # y^j N^i_j = 2 G^i and y^k G^i_jk = N^i_j
    assert np.allclose(pg.n_conn() @ y, 2 * pg.spray(), atol=1e-11)
    assert np.allclose(np.einsum("ijk,k->ij", pg.berwald(), y),
                       pg.n_conn(), atol=1e-11)
    # y^j F^i_jk = N^i_k for the horizontal connection
    assert np.allclose(np.einsum("ijk,j->ik", pg.cartan_hconn(), y),
                       pg.n_conn(), atol=1e-10)


def test_riemannian_connections_coincide():
    # Berwald, horizontal, and Christoffel symbols all match for a
    # quadratic metric
    space = FinslerSpace(SPHERE)
    x, y = rand_point(SPHERE)
    pg = space.point(x, y)
    s1 = np.sin(x[0])
    c1 = np.cos(x[0])
    christoffel = np.zeros((2, 2, 2))
    christoffel[0, 1, 1] = -s1 * c1
    christoffel[1, 0, 1] = christoffel[1, 1, 0] = c1 / s1
    assert np.allclose(pg.berwald(), christoffel, atol=1e-10)
    assert np.allclose(pg.cartan_hconn(), christoffel, atol=1e-10)


def test_finite_difference_cross_checks():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    pg = space.point(x, y)
    n = 2

    # g_ij against second differences of L^2 in y
    def l2_at(yv):
        return space.l2(x, yv)
    h = 1e-4
    for i in range(n):
        for j in range(n):
            yppp = np.array(y)
            fd = central_partial(
                lambda yi, jj=j: central_partial(l2_at, yi, jj, h),
                y, i, h)
            assert 0.5 * fd[()] == pytest.approx(pg.g_low()[i, j], abs=2e-6)

    # spray against a finite-difference build of the same formula
    def dl2_dy(xv, yv, l):
        return central_partial(lambda yy: space.l2(xv, yy), yv, l, 1e-5)
    rhs = np.empty(n)
    for l in range(n):
        grad_x = np.array([
            central_partial(lambda xv: dl2_dy(xv, y, l), x, k, 1e-5)
            for k in range(n)])
        dl2_dx_l = central_partial(lambda xv: space.l2(xv, y), x, l, 1e-5)
        rhs[l] = 0.25 * (y @ grad_x - dl2_dx_l)
    G_fd = np.linalg.solve(pg.g_low(), rhs)
    assert np.allclose(G_fd, pg.spray(), atol=1e-5)

    # nonlinear connection against differences of the spray
    for j in range(n):
        fd = central_partial(lambda yv: space.spray_values(x, yv), y, j, 1e-5)
        assert np.allclose(fd, pg.n_conn()[:, j], atol=1e-5)


def test_douglas_structure_randers():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    pg = space.point(x, y)
    D = pg.douglas()
    assert np.max(np.abs(D)) > 1e-4          # non-closed drift: not Douglas
    # total symmetry in the lower indices
    assert np.allclose(D, D.transpose(0, 2, 1, 3), atol=1e-11)
    assert np.allclose(D, D.transpose(0, 1, 3, 2), atol=1e-11)
    # trace-free and y-null
    assert np.allclose(np.einsum("hhjk->jk", D), 0.0, atol=1e-10)
    assert np.allclose(np.einsum("hijk,k->hij", D, y), 0.0, atol=1e-10)


def test_douglas_fd_cross_check():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    pg = space.point(x, y)
    n = 2
    h = 1e-3

    # S[h, i, j, k] = third y-derivatives of G^h by differencing the
    # jet-computed Berwald coefficients
    def berwald_at(yv):
        return space.point(x, yv).berwald()
    S = np.stack([central_partial(berwald_at, y, k, h) for k in range(n)],
                 axis=-1)
    T2 = np.einsum("mjkm->jk", S)

    def t2_at(yv):
        Sy = np.stack([central_partial(
            lambda yy: space.point(x, yy).berwald(), yv, k, h)
            for k in range(n)], axis=-1)
        return np.einsum("mjkm->jk", Sy)
    T3 = np.stack([central_partial(t2_at, y, i, 5e-3) for i in range(n)],
                  axis=0)   # T3[i, j, k]

    D_fd = np.empty((n, n, n, n))
    for hh in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    corr = (y[hh] * T3[i, j, k]
                            + (i == hh) * T2[j, k]
                            + (j == hh) * T2[i, k]
                            + (k == hh) * T2[i, j])
                    D_fd[hh, i, j, k] = S[hh, i, j, k] - corr / (n + 1)
    assert np.allclose(D_fd, pg.douglas(), atol=1e-4)


def test_riemann_fd_cross_check():
    space = FinslerSpace(SPHERE)
    x, y = rand_point(SPHERE)
    pg = space.point(x, y)
    n = 2
    G = pg.spray()
    N = pg.n_conn()
    B = pg.berwald()
    dG = np.stack([central_partial(lambda xv: space.spray_values(xv, y),
                                   x, k, 1e-5) for k in range(n)], axis=-1)
    dN = np.stack([central_partial(
        lambda xv: space.point(xv, y).n_conn(), x, j, 1e-5)
        for j in range(n)], axis=-1)   # dN[i, k, j]
    R_fd = (2 * dG
            - np.einsum("j,ikj->ik", y, dN)
            + 2 * np.einsum("j,ijk->ik", G, B)
            - N @ N)
    assert np.allclose(R_fd, pg.riemann(), atol=1e-4)


def test_weyl_structure():
    space = FinslerSpace(RANDERS)
    x, y = rand_point(RANDERS)
    pg = space.point(x, y)
    W = pg.weyl_proj()
    assert abs(np.trace(W)) < 1e-10
    assert np.allclose(W @ y, 0.0, atol=1e-10)
    T = pg.weyl_torsion()
    assert np.allclose(T, -T.transpose(0, 2, 1), atol=1e-12)
    assert np.allclose(np.einsum("hhj->j", T), 0.0, atol=1e-10)


def test_h_cov_covector_constant_field_euclid():
    pg = FinslerSpace(EUCLID3).point([0.0, 0.0, 0.0], [1.0, 2.0, 2.0])
    b = np.array([0.3, -0.1, 0.2])
    out = horizontal_covariant(pg.cartan_hconn(), b, np.zeros((3, 3)))
    assert np.allclose(out, 0.0, atol=1e-13)


def test_rejects_nonpositive_metric_value():
    space = FinslerSpace(RANDERS)
    with pytest.raises(JetDomainError):
        space.point([0.0, 0.0], [0.0, 0.0])


def _count_l2(monkeypatch, calls):
    """Log each evaluation of L^2 on one-point or block jets in ``calls``
    as (spec name, order)."""
    eval_l2 = MetricSpec.eval_l2

    def counting_eval(self, env):
        calls.append((self.name, env["x1"].order))
        return eval_l2(self, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", counting_eval)


def test_point_evaluates_l2_once_per_side(monkeypatch):
    calls = []
    _count_l2(monkeypatch, calls)
    pair = ChangedPair(resolve_spec("randers2"), resolve_spec("projective"))
    cp = pair.at([0.2, -0.3], [0.8, 0.6])
    for pg in (cp.base, cp.star):
        for name in ("L2", "L", "y_low", "l_low", "g_low", "g_up", "h_low",
                     "spray"):
            getattr(pg, name)()
    assert calls == [("randers2", 2), ("randers2*projective", 2)]


def test_overflowing_l2_jet_raises_at_construction():
    # e^(800 x1) has x1-derivatives 800^k e^(800 x1): finite value, but
    # order-2 coefficients beyond the float range at x1 = 0.88
    space = FinslerSpace(parse_spec_text(
        "dim 2\nL2 = y1^2 + y2^2 + 1e-300 * exp(800 * x1) * y1^2\n",
        name="steep"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(JetDomainError, match="finite order-2"):
            space.point([0.88, 0.0], [1.0, 0.5])
    assert np.all(np.isfinite(space.point([0.5, 0.0], [1.0, 0.5]).douglas()))


BUNDLED_METRICS = ("curved3", "diag2", "euclid2", "euclid3", "randers2",
                   "sphere2", "sphere3")
BUNDLED_CHANGES = ("conformal", "homothety", "identity", "projective",
                   "projective3", "randers_closed", "randers_nonclosed",
                   "tangent_parabola")
SQRT2 = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "specs",
                     "sqrt2.fspec")


def _pairs_of_matching_dimension():
    """Every bundled metric with every bundled change that binds to its
    dimension, and the sqrt2 spec of the report digests with
    ``projective``."""
    for metric in BUNDLED_METRICS + (SQRT2,):
        changes = ("projective",) if metric == SQRT2 else BUNDLED_CHANGES
        for change in changes:
            try:
                yield ChangedPair(resolve_spec(metric), resolve_spec(change))
            except SpecError:
                continue


def test_l2_program_is_the_jets_bit_for_bit():
    pairs = list(_pairs_of_matching_dimension())
    assert len(pairs) == 53
    for pair in pairs:
        points, _ = sample_pair_points(pair, 20, 4)
        for space in (pair.base, pair.starred):
            spec = space.spec
            route = space._spray_route
            assert route is not None, spec.name
            assert space._spray_route is route
            for x, y in points:
                want = spec.eval_l2(lift_env(2, core.L2_XCAP, x=x, y=y))
                got = np.array(route[0](*x, *y))
                assert got.tobytes() == want.coeffs.tobytes(), (
                    spec.name, x, y)


# Every kind of node of the float route: non-integer powers of arrays, of
# a float by an array and of arrays by arrays, the four functions,
# division and negation.
INLINE_L2 = parse_spec_text(
    "dim 2\nL2 = (y1^2 + y2^2)^0.75 * exp(0.3 * sin(x1)) * (2 + cos(x2 * y1))"
    " + log(1.5 + x1 * x2) * y2^2 / (2 + x1) + 2^x1 * (1 + y1^2)^(x2 + 1.5)"
    " - -sqrt(1.25 + x1) * y1 * y2 / 3\n", name="inline")


def _lone_l2(space, x, y):
    try:
        return space.l2(x, y)
    except JetDomainError:
        return None


def test_stacked_l2_is_each_points_float_bit_for_bit():
    specs = [space.spec for pair in _pairs_of_matching_dimension()
             for space in (pair.base, pair.starred)] + [INLINE_L2]
    rng = np.random.default_rng(5)
    for spec in specs:
        space = FinslerSpace(spec)
        # the points of the box where the spec has a value (sqrt2's box
        # reaches beyond its root's domain)
        pts = [(x, y) for x, y in (rand_point(spec, rng) for _ in range(200))
               if _lone_l2(space, x, y) is not None]
        assert len(pts) > 100, spec.name
        got = space.l2(np.transpose([x for x, _ in pts]),
                       np.transpose([y for _, y in pts]))
        want = np.array([space.l2(x, y) for x, y in pts])
        assert got.shape == (len(pts),)
        assert got.tobytes() == want.tobytes(), spec.name


@pytest.mark.parametrize("text, x1, x2, match", [
    # the power's node comes first, so the block meets the third point's
    # error first; the second point's is the one to raise
    ("L2 = (y1^2 + y2^2) * (x1^0.5 + 1 / x2)", [0.5, 0.5, -0.5, 0.4],
     [1.0, 0.0, 1.0, 0.0], "division by zero"),
    ("L2 = (y1^2 + y2^2) * (x1^0.5 + 1 / x2)", [0.5, -0.7, -0.5, 0.4],
     [1.0, 1.0, 0.0, 0.0], "power 0.5 of negative value -0.7"),
    ("L2 = (y1^2 + y2^2) * (2 + log(x1) + exp(x2))", [0.5, 0.3, 0.0, 0.4],
     [1.0, 800.0, 1.0, 1.0], "exp domain error"),
    ("L2 = (y1^2 + y2^2) * (3 + sin(x2 * 1e308 * 10) + sqrt(x1))",
     [0.5, -0.1, 0.5, 0.4], [0.0, 0.0, 1.0, 0.0], "sqrt domain error"),
])
def test_stacked_l2_raises_the_first_failing_points_error(text, x1, x2,
                                                          match):
    space = FinslerSpace(parse_spec_text("dim 2\n" + text + "\n"))
    x = np.array([x1, x2])
    y = np.full((2, 4), 0.6)
    with pytest.raises(JetDomainError) as alone:
        for p in range(4):
            space.l2(x[:, p], y[:, p])
    assert match in str(alone.value)
    with pytest.raises(JetDomainError) as block:
        space.l2(x, y)
    assert str(block.value) == str(alone.value)


def test_stacked_l2_silences_what_python_floats_never_warn():
    # overflow and inf - inf give infs and NaN quietly, as floats do
    space = FinslerSpace(parse_spec_text(
        "dim 2\nL2 = y1^2 + y2^2 + x1 * 1e308 * 10 - x2 * 1e308 * 10\n"))
    x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    y = np.ones((2, 3))
    got = space.l2(x, y)
    want = np.array([space.l2(x[:, p], y[:, p]) for p in range(3)])
    assert got.tobytes() == want.tobytes()
    assert got[0] == np.inf and np.isnan(got[1]) and got[2] == -np.inf


# At x2 = 1e300 the value of (x1 + x2) * (y1 + x2) overflows and its other
# coefficients do not; times the constant jet x2^0 it meets structural
# zeros, whose pairs the program skips and the jets turn into NaN.
GUARDED = "L2 = y1^2 + y2^2 + 1 / ((x1 + x2) * (y1 + x2) * x2^0)"


# (L^2, x, a part of the error's text, whether the spec compiles) of
# points that fail at y = (1, 0.5).
FAILING_POINTS = [
    # the steep spec of test_overflowing_l2_jet_raises_at_construction
    ("L2 = y1^2 + y2^2 + 1e-300 * exp(800 * x1) * y1^2", [0.88, 0.0],
     "finite order-2", True),
    ("L2 = (y1^2 + y2^2) * sqrt(x1)", [-0.5, 0.0],
     "sqrt of non-positive value -0.5", True),
    ("L2 = (y1^2 + y2^2) * (2 + log(x1))", [0.0, 0.3],
     "log of non-positive value 0.0", True),
    ("L2 = y1^2 + y2^2 + y1^2 / x1", [0.0, 0.3], "jet with zero value",
     True),
    # an exponent that is not finite: powf's error names the base's value
    ("L2 = (y1^2 + y2^2) * x1^(1e300 * 1e300)", [0.5, 0.3],
     "powf of value 0.5", False),
    # GUARDED's value overflows where its other coefficients do not
    (GUARDED, [0.5, 1e300], "finite order-2", True),
    # the steep term's infinite coefficients times a constant jet whose
    # value is 0.0, which no product skips: NaN by either route
    ("L2 = y1^2 + y2^2 + 1e-300 * exp(800 * x1) * (x2^0 * 0)", [0.88, 0.0],
     "finite order-2", True),
]


def _outcome(call):
    """The value's bits, or the type and text of the error, of ``call()``."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return call().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text,x,match,compiled", FAILING_POINTS + [
    # g is singular: the solve raises
    ("L2 = (y1 + y2)^2", [0.3, 0.2], "singular jet matrix", True),
    # L^2 = 0 with finite coefficients
    ("L2 = (y1 - 2 * y2)^2", [0.3, 0.2], "L^2 = 0 is not positive", True)])
def test_spray_values_fails_as_the_point_does(text, x, match, compiled):
    space = FinslerSpace(parse_spec_text(f"dim 2\n{text}\n", name="fails"))
    assert (space._spray_route is not None) == compiled
    y = [1.0, 0.5]
    built = _counting_points(space)
    got = _outcome(lambda: space.spray_values(x, y))
    # a point is built only where there is no coefficient list: no
    # program, or a guard that returned None
    assert built == [text == GUARDED or not compiled]
    assert got == _outcome(lambda: space.point(x, y).spray())
    assert got[0] is JetDomainError and match in got[1]


def _solve_by_jets(n, values):
    """``jet_linear_solve`` on order-0 jets of the ``n x n`` system whose
    rows, each followed by its right-hand side, are ``values``."""
    rows = [[Jet.constant(v, 1, 0) for v in values[r * (n + 1):][:n + 1]]
            for r in range(n)]
    return np.array([v.value for v in jet_linear_solve(
        [row[:n] for row in rows], [row[n] for row in rows])])


@st.composite
def _systems(draw):
    """(n, entries) of an ``n x n`` system, n = 1 to 4, as ``_solver``
    takes them: entries of equal magnitude and either sign, so that
    pivots tie, signed zeros, and others, at scales from 1e-150 to 1e150,
    one for the whole system or one per entry."""
    n = draw(st.integers(1, 4))
    base = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.0, -0.0]) | st.floats(
        -4.0, 4.0)
    scales = st.sampled_from([1e-150, 1e-50, 1.0, 1e50, 1e150])
    scale = draw(scales)
    entries = []
    for _ in range(n * n + n):
        entries.append(draw(base) * (draw(scales) if draw(st.booleans())
                                     else scale))
    return n, entries


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_unrolled_solve_is_jet_linear_solve_bit_for_bit(system):
    n, values = system
    got = _outcome(lambda: np.array(core._solver(n)(*values)))
    assert got == _outcome(lambda: _solve_by_jets(n, values))


def test_unrolled_solve_names_each_entry_apart():
    # at n = 11, row 1 column 11 and row 11 column 1 must not share a name
    n = 11
    values = np.random.default_rng(3).normal(size=n * (n + 1)).tolist()
    got = np.array(core._solver(n)(*values))
    assert got.tobytes() == _solve_by_jets(n, values).tobytes()


@pytest.mark.parametrize("n,values", [
    (1, [-0.0, 1.0]),
    (2, [1.0, 2.0, 1.0, 2.0, 4.0, 1.0]),
    (2, [0.0, 1.0, 1.0, 0.0, -3.0, 1.0]),
    (3, [1.0, 2.0, 3.0, 1.0, -1.0, -2.0, -3.0, 0.0, 2.0, 1.0, 0.0, 1.0]),
])
def test_unrolled_solve_raises_on_a_singular_matrix(n, values):
    want = (JetDomainError, "singular jet matrix in linear solve")
    assert _outcome(lambda: np.array(core._solver(n)(*values))) == want
    assert _outcome(lambda: _solve_by_jets(n, values)) == want


def test_spray_values_whose_coefficient_sum_overflows_builds_no_point():
    space = FinslerSpace(parse_spec_text(
        "dim 2\nL2 = 4e307 * (y1^2 + y2^2) * (1 + x1^2)\n", name="huge"))
    x, y = [0.5, 0.0], [1.0, 1.0]
    c = space._spray_route[0](*x, *y)
    assert np.isfinite(c).all() and c[0] > 0.0
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(c))
    built = _counting_points(space)
    got = space.spray_values(x, y)
    assert built == [0]
    pg = space.point(x, y)
    assert got.tobytes() == pg.spray().tobytes()
    assert np.isfinite(got).all() and got.any()
    assert np.array(space.spray_g).tobytes() == pg.g_low().tobytes()


def test_guard_that_fails_leaves_the_point_to_the_jets():
    spec = parse_spec_text(f"dim 2\n{GUARDED}\n", name="guarded")
    program, _ = FinslerSpace(spec)._spray_route
    # the reciprocal of the overflowed value is finite: without the guard
    # every coefficient would be, where the jets' are NaN
    assert program(0.5, 1e300, 1.0, 0.5) is None
    with np.errstate(over="ignore", invalid="ignore"):
        want = spec.eval_l2(lift_env(2, core.L2_XCAP, x=[0.5, 1e300],
                                     y=[1.0, 0.5]))
    assert np.isfinite(want.value) and np.isnan(want.coeffs).any()
    # where every value is finite, the program runs
    want = spec.eval_l2(lift_env(2, core.L2_XCAP, x=[0.5, 0.3], y=[1.0, 0.5]))
    got = np.array(program(0.5, 0.3, 1.0, 0.5))
    assert got.tobytes() == want.coeffs.tobytes()


def test_lift_x_env_names():
    env = lift_env(2, x=[1.0, 2.0])
    assert set(env) == {"x1", "x2"}
    assert env["x1"].value == 1.0
    assert env["x2"].partials(1)[1] == 1.0
    env = lift_env(1, x=[1.0, 2.0], y=[3.0, 4.0])
    assert list(env) == ["x1", "x2", "y1", "y2"]
    assert env["y1"].value == 3.0
    assert env["y1"].partials(1).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_order_cache_keeps_the_highest_order():
    calls = []

    class Probe:
        """A point (``x`` a float) or a block (``x`` one value per
        column) with one jet layer, whose top order is 5.  Above
        ``finite`` the layer overflows."""

        def __init__(self, x, finite=9):
            self.x, self.finite = x, finite
            self._cache = {}
            self._top = False

        @core._layer(5)
        def jets(self, order):
            calls.append((order, np.shape(self.x)))
            if order > self.finite:
                np.exp(np.float64(1000.0))
            return lift([self.x], order)

    lone = Probe(0.5)
    first = lone.jets(3)
    assert lone.jets(1) is first and lone.jets(3) is first
    assert calls == [(3, ())]
    higher = lone.jets(4)
    assert higher is not first and calls == [(3, ()), (4, ())]
    assert lone.jets(2) is higher
    # a block computes the orders asked for, once each, for every column
    block = Probe(np.array([0.5, 0.7]))
    calls.clear()
    got = block.jets(2)
    assert block.jets(1) is got and calls == [(2, (2,))]
    assert got[0].coeffs[:, 1].tobytes() == lift([0.7], 2)[0].coeffs.tobytes()
    # a lone point computes its first order as asked, at construction,
    # and every later one at the top order, which answers the lower ones
    top = Probe(0.5)
    top.jets(1)
    top._top = True
    calls.clear()
    assert top.jets(2) is top.jets(5) and top._cache["jets"][0] == 5
    assert top.jets(6)[0].order == 6 and calls == [(5, ()), (6, ())]
    # a top order that raises a floating-point error, raised there as it
    # is nowhere else, falls back once to the order asked for
    low = Probe(0.5, finite=3)
    low.jets(1)
    low._top = True
    calls.clear()
    got = low.jets(2)
    assert calls == [(5, ()), (2, ())] and not low._top
    assert got[0].coeffs.tobytes() == lift([0.5], 2)[0].coeffs.tobytes()
    assert low.jets(3) is not got and calls[-1] == (3, ())
    with pytest.raises(FloatingPointError):
        with np.errstate(over="raise"):
            low.jets(4)
    assert calls[-1] == (4, ()) and low._cache["jets"][0] == 3
    # on a point: every jet intermediate, at the order of its largest call
    pg = FinslerSpace(SPHERE).point([1.0, 0.3], [0.7, 0.9])
    pg.weyl_torsion()
    for name, order in (("_f2", 6), ("_spray_jets", 4),
                        ("_riemann_jets", 2), ("_weyl_jets", 1)):
        jets = getattr(pg, name)(order)
        assert getattr(pg, name)(0) is jets and pg._cache[name][0] == order
    assert pg._f2(6)[1].order == 6
    f2 = pg._f2(6)
    assert pg._f2(7) is not f2 and pg._f2(7)[1].order == 7


# One pair per bundled metric; the changes cover scale only, drift only,
# closed and non-closed drift, and both together.
BUNDLED_PAIRS = [("euclid2", "tangent_parabola"), ("euclid3", "projective3"),
                 ("diag2", "randers_nonclosed"), ("sphere2", "conformal"),
                 ("sphere3", "projective3"), ("curved3", "homothety"),
                 ("randers2", "projective"), ("randers2", "randers_closed")]


# Each jet layer's top order and the lower orders that are cuts of it.
LAYER_ORDERS = (("_f2", 6, range(2, 6)), ("_spray_jets", 4, range(4)),
                ("_riemann_jets", 2, range(2)), ("_weyl_jets", 1, range(1)))


def _layer_points(pair, seed):
    """Lone points of both sides at 3 sampled points, and a block of each
    side's 3 points."""
    points, _ = sample_pair_points(pair, 3, seed)
    xs, ys = np.transpose([x for x, _ in points]), np.transpose(
        [y for _, y in points])
    lone = [space.point(x, y) for space in (pair.base, pair.starred)
            for x, y in points]
    blocks = [PointBlock(space, xs, ys)
              for space in (pair.base, pair.starred)]
    return lone + blocks


@pytest.mark.parametrize("metric,change", BUNDLED_PAIRS)
def test_lower_orders_are_cuts_of_the_top_order_bit_for_bit(metric, change):
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    for pg in _layer_points(pair, 29):
        pg._weyl_jets(1)
        assert all(pg._cache[name][0] == top
                   for name, top, _ in LAYER_ORDERS)
        for name, top, lower in LAYER_ORDERS:
            want = _jets_in(getattr(pg, name)(top))
            for order in lower:
                # the undecorated layer computes the order asked for
                got = _jets_in(getattr(pg, name).__wrapped__(pg, order))
                assert len(got) == len(want)
                for low, high in zip(got, want):
                    cut = high.truncated(order)
                    assert cut.space is low.space, (name, order)
                    assert cut.coeffs.tobytes() == low.coeffs.tobytes(), (
                        pg.space.spec.name, name, order)


@pytest.mark.parametrize("metric,change", [("sphere3", "projective3"),
                                           ("randers2", "projective")])
def test_lone_point_computes_each_layer_once(monkeypatch, metric, change):
    calls, solves, layers = [], [], []
    solve = core.jet_linear_solve

    def counting_solve(A, rhs):
        solves.append(A[0][0].order)
        return solve(A, rhs)

    class Log(dict):
        """A point cache that logs each jet layer it is given."""

        def __setitem__(self, name, value):
            if name.startswith("_"):
                layers.append((name, value[0]))
            super().__setitem__(name, value)

    _count_l2(monkeypatch, calls)
    monkeypatch.setattr(core, "jet_linear_solve", counting_solve)
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    (x, y), = sample_pair_points(pair, 1, 3)[0]
    calls.clear()
    pg = pair.starred.point(x, y)
    pg._cache = Log(pg._cache)
    # the tensors in the order of the ``tensors`` benchmark workload
    for name in REQUEST_ORDER[1:]:
        getattr(pg, name)()
    # construction's order-2 jet, then every layer once at its top order
    assert [call[1] for call in calls] == [2, 6]
    assert solves == [4]
    assert layers == [("_f2", 6), ("_spray_jets", 4), ("_riemann_jets", 2),
                      ("_weyl_jets", 1)]


@pytest.mark.parametrize("metric,change", [("sphere3", "projective3"),
                                           ("randers2", "projective")])
def test_tensor_stack_compiles_no_program(monkeypatch, metric, change):
    # only spray_values runs the compiled program: lone points build every
    # layer on jets, so a tensor stack pays no compile
    compiles = []
    straight_line = core.straight_line

    def counting(*args):
        compiles.append(args[1])
        return straight_line(*args)

    monkeypatch.setattr(core, "straight_line", counting)
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    points, _ = sample_pair_points(pair, 3, 3)
    for space in (FinslerSpace(pair.base.spec),
                  FinslerSpace(pair.starred.spec)):
        for x, y in points:
            pg = space.point(x, y)
            for name in REQUEST_ORDER:
                getattr(pg, name)()
        assert "_spray_route" not in vars(space)
    assert compiles == []
    pair.starred.spray_values(*points[0])
    assert len(compiles) == 1


# e^(200 x1 y1) at x1 = 1.15, y1 = 3: the order-3 jet of L^2 is finite, and
# the order-6 one is not.
STEEP_TOP = ("dim 2\nL2 = y1^2 + y2^2 + exp(200 * x1 * y1)\n",
             [1.15, 0.0], [3.0, 0.5])


def test_top_order_that_fails_falls_back_to_the_order_asked(monkeypatch):
    text, x, y = STEEP_TOP
    space = FinslerSpace(parse_spec_text(text, name="steep"))
    # the orders asked for, as a block member computes them alone
    ref = space.point(x, y)
    ref._top = False
    want = ref.C_low()
    with pytest.raises(JetDomainError,
                       match=r"reciprocal of value 1\.2179\d*e\+304") as inv:
        ref.n_conn()
    pg = space.point(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pg.C_low().tobytes() == want.tobytes()
    assert not pg._top and pg._cache["_f2"][0] == 3
    with pytest.raises(JetDomainError) as got:
        pg.n_conn()
    assert str(got.value) == str(inv.value)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(JetDomainError, match="finite order-4"):
            pg.berwald()
        # the top order itself fails its check
        with pytest.raises(JetDomainError, match="finite order-6"):
            space.point(x, y)._f2(6)
    # the attempt raises its floating-point error, which the fallback
    # catches
    monkeypatch.setattr(core, "FALLBACK_ERRORS", ())
    with pytest.raises(FloatingPointError):
        space.point(x, y).C_low()


# A spec whose L^2 takes a jet exponent, in a box where its base x1 is
# positive: it has no compiled program.
JET_EXPONENT = ("dim 2\nL2 = (y1^2 + y2^2) * x1^x2\n"
                "x_box = 0.5 1.5 -1 1\n")


def _counting_points(space):
    """Count the points ``space`` builds through ``space.point``."""
    built = [0]
    point = space.point

    def counting(x, y):
        built[0] += 1
        return point(x, y)
    space.point = counting
    return built


@pytest.mark.parametrize("metric,change", BUNDLED_PAIRS + [
    (SQRT2, "projective"), (JET_EXPONENT, "homothety")])
def test_numeric_spray_equals_jet_spray_bit_for_bit(metric, change):
    metric = (parse_spec_text(metric, name="jet exponent")
              if metric == JET_EXPONENT else resolve_spec(metric))
    pair = ChangedPair(metric, resolve_spec(change))
    points, _ = sample_pair_points(pair, 6, 17)
    for space in (pair.base, pair.starred):
        compiled = space._spray_route is not None
        assert compiled == (metric.name != "jet exponent")
        built = _counting_points(space)
        for x, y in points:
            for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
                before = built[0]
                values = space.spray_values(x, scale * y)
                # without a program, spray_values builds the point
                assert built[0] - before == (not compiled)
                pg = space.point(x, scale * y)
                got = pg.spray()
                want = np.array([G.value for G in
                                 space.point(x, scale * y)._spray_jets(0)])
                where = (space.spec.name, x, scale * y)
                assert got.tobytes() == want.tobytes(), where
                assert values.tobytes() == want.tobytes(), where
                assert (np.array(space.spray_g).tobytes()
                        == pg.g_low().tobytes()), where


def test_geodesic_runs_integrate_each_base_condition_once(monkeypatch):
    calls = []
    integrate = geodesics.integrate_geodesic

    def counting(space, x, y, t_end, **kwargs):
        path = integrate(space, x, y, t_end, **kwargs)
        calls.append((space, np.asarray(x), t_end, path))
        return path

    # suites runs the base and changed paths, geodesics the reverse runs
    monkeypatch.setattr(suites, "integrate_geodesic", counting)
    monkeypatch.setattr(geodesics, "integrate_geodesic", counting)
    metric = resolve_spec("euclid2")
    cfg = suites.SuiteConfig(metric, resolve_spec("projective"), samples=5,
                             seed=1)
    records = {r.check_id: r for r in suites.run_suites(
        cfg, ["projectivity", "geodesics"])}
    # every check that reads the base paths ran on all five conditions
    for check in ("proj.geodesic-deviation", "geo.value-conservation",
                  "geo.retrace", "geo.projective-deviation"):
        assert records[check].samples == 5, check
    # in order: five base runs, five changed runs from the same starts,
    # five reverse runs from the ends of the base paths
    assert len(calls) == 15
    base, changed, reverse = calls[:5], calls[5:10], calls[10:]
    assert all(space.spec is metric for space, *_ in base + reverse)
    assert all(space.spec is not metric for space, *_ in changed)
    for (_, x, _, path), (_, xc, _, _), (_, xr, _, _) in zip(base, changed,
                                                             reverse):
        assert np.array_equal(xc, x)
        assert np.array_equal(xr, path.x[-1])
    assert [t for _, _, t, _ in calls] == [2.0] * 15


# The pairs of the tensor digest in tools/report_digest.py.
TENSOR_PAIRS = [("sphere3", "projective3"), ("randers2", "projective"),
                ("curved3", "projective3"), ("euclid2", "tangent_parabola")]
REQUEST_ORDER = ("L2", "g_low", "C_low", "spray", "n_conn", "berwald",
                 "cartan_hconn", "riemann", "weyl_proj", "weyl_torsion",
                 "douglas")


@pytest.mark.parametrize("metric,change", TENSOR_PAIRS)
def test_tensor_bits_do_not_depend_on_request_order(metric, change):
    # jets stay cached at the highest order asked for, so a tensor may be
    # read from a jet cut from a higher order than it needs
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    points, _ = sample_pair_points(pair, 3, 7)
    for x, y in points:
        for space in (pair.base, pair.starred):
            forward, backward = space.point(x, y), space.point(x, y)
            want = {name: getattr(forward, name)() for name in REQUEST_ORDER}
            for name in reversed(REQUEST_ORDER):
                got = np.asarray(getattr(backward, name)())
                assert got.tobytes() == np.asarray(want[name]).tobytes(), (
                    space.spec.name, name)


def _full_chain(pg):
    """The jet layers of ``pg`` replayed in uncapped spaces, every
    x-degree kept: functions of the order giving the seed jets of y, the
    jet of L^2, the spray, R and W, each by the formula of its layer."""
    n = pg.n

    def seeds(order):
        env = lift_env(order, x=pg.x, y=pg.y)
        return list(env.values())[n:]

    def f2(order):
        env = lift_env(order, x=pg.x, y=pg.y)
        out = pg.space.spec.eval_l2(env)
        assert out.space.xcap is None
        return out

    def spray(order):
        f = f2(order + 2)
        y = seeds(order)
        dy = [f.deriv(n + i) for i in range(n)]
        g = [[di.deriv(n + j) * 0.5 for j in range(n)] for di in dy]
        rhs = []
        for l, dl in enumerate(dy):
            acc = None
            for k in range(n):
                t = y[k] * dl.deriv(k)
                acc = t if acc is None else acc + t
            rhs.append((acc - f.deriv(l).truncated(order)) * 0.25)
        return jet_linear_solve(g, rhs)

    def riemann(order):
        G = spray(order + 2)
        y = seeds(order)
        R = [[None] * n for _ in range(n)]
        for i in range(n):
            dGi = [G[i].deriv(n + k) for k in range(n)]
            for k in range(n):
                acc = 2.0 * G[i].deriv(k).truncated(order)
                for j in range(n):
                    acc = acc - y[j] * dGi[k].deriv(j)
                    acc = acc + (2.0 * G[j].truncated(order)
                                 * dGi[k].deriv(n + j))
                    acc = acc - (dGi[j] * G[j].deriv(n + k)).truncated(order)
                R[i][k] = acc
        return R

    def weyl(order):
        R = riemann(order + 1)
        y = seeds(order)
        ric = R[0][0]
        for m in range(1, n):
            ric = ric + R[m][m]
        A = [[R[i][k] - ric * (1.0 / (n - 1)) if i == k else R[i][k]
              for k in range(n)] for i in range(n)]
        W = [[None] * n for _ in range(n)]
        for k in range(n):
            tr = A[0][k].deriv(n)
            for m in range(1, n):
                tr = tr + A[m][k].deriv(n + m)
            for i in range(n):
                W[i][k] = (A[i][k].truncated(order)
                           - y[i] * tr * (1.0 / (n + 1)))
        return W

    return seeds, f2, spray, riemann, weyl


def _chained_deriv_tensors(pg):
    """The tensors as read by one chained ``Jet.deriv`` per entry down to
    ``.value``, with symmetric fills and loops, from the layers of
    ``_full_chain``: the reference for the ``Jet.partials`` slices of
    ``PointGeometry``, whose layers drop x-degrees no tensor reads."""
    n = pg.n
    seeds, f2, spray, riemann, weyl = _full_chain(pg)
    G = spray(1)
    N = np.array([[G[i].deriv(n + j).value for j in range(n)]
                  for i in range(n)])
    G = spray(2)
    B = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            dj = G[i].deriv(n + j)
            for k in range(j, n):
                B[i, j, k] = B[i, k, j] = dj.deriv(n + k).value
    d3 = f2(3).partials(3)[n:, n:]
    delta = 0.5 * d3[:, :, :n] - np.einsum("rkm,mj->rkj", 0.5 * d3[:, :, n:],
                                           N)
    low = np.empty((n, n, n))
    for r in range(n):
        for j in range(n):
            for k in range(n):
                low[r, j, k] = 0.5 * (delta[r, k, j] + delta[r, j, k]
                                      - delta[j, k, r])
    F = np.einsum("ir,rjk->ijk", pg.g_up(), low)
    G = spray(4)
    yj = seeds(3)
    tr = None
    for m in range(n):
        t = G[m].deriv(n + m)
        tr = t if tr is None else tr + t
    D = np.empty((n, n, n, n))
    for h in range(n):
        P = G[h].truncated(3) - yj[h] * tr * (1.0 / (n + 1))
        for i in range(n):
            di = P.deriv(n + i)
            for j in range(i, n):
                dij = di.deriv(n + j)
                for k in range(j, n):
                    v = dij.deriv(n + k).value
                    D[h, i, j, k] = D[h, i, k, j] = v
                    D[h, j, i, k] = D[h, j, k, i] = v
                    D[h, k, i, j] = D[h, k, j, i] = v
    R = np.array([[Rik.value for Rik in row] for row in riemann(0)])
    # W at order 0, where ``weyl_proj`` reads the order-1 jets' values
    W0 = np.array([[Wik.value for Wik in row] for row in weyl(0)])
    W = weyl(1)
    T = np.zeros((n, n, n))
    for h in range(n):
        dW = [[W[h][j].deriv(n + i).value for j in range(n)]
              for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = (dW[i][j] - dW[j][i]) / 3.0
                T[h, i, j] = v
                T[h, j, i] = -v
    return {"n_conn": N, "berwald": B, "cartan_hconn": F, "douglas": D,
            "riemann": R, "weyl_proj": W0, "weyl_torsion": T}


@pytest.mark.parametrize("metric,change", [("randers2", "projective"),
                                           ("sphere3", "projective3")])
def test_partials_reads_equal_chained_derivs_bit_for_bit(metric, change):
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    points, _ = sample_pair_points(pair, 2, 23)
    for x, y in points:
        for space in (pair.base, pair.starred):
            want = _chained_deriv_tensors(space.point(x, y))
            pg = space.point(x, y)
            for name, ref in want.items():
                got = getattr(pg, name)()
                assert got.shape == ref.shape, name
                assert got.tobytes() == ref.tobytes(), (space.spec.name, name)


# The tensors read from the jet layers that blocks evaluate.
LIGHT_TENSORS = ("g_low", "C_low", "spray", "n_conn", "berwald",
                 "cartan_hconn", "riemann")


@pytest.mark.parametrize("metric,change,count,block_size", [
    (metric, change, 5, size) for metric, change in BUNDLED_PAIRS
    for size in (1, 2, 256)] + [
    # blocks with at least as many points as coefficients: in every space
    # of a 2D point, and in the 6v0 to 6v2 spaces of a 3D point
    ("randers2", "projective", 80, 256),
    ("curved3", "projective3", 30, 256)])
def test_block_tensors_equal_single_points_bit_for_bit(monkeypatch, metric,
                                                       change, count,
                                                       block_size):
    monkeypatch.setattr(sampling, "BLOCK_SIZE", block_size)
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    # tensor by tensor over all blocks, as the checks ask for them: from
    # the lowest layer up, and from the highest down, where a block's
    # lower orders are cuts of the higher ones it computed first
    for names in (LIGHT_TENSORS, LIGHT_TENSORS[::-1]):
        points, _ = sample_points(pair, count, 11)
        assert all(cb.base.x.shape[1] <= block_size
                   for cb in points.blocks)
        got = {}
        for name in names:
            for cb in points.blocks:
                for side, rows in (("base", cb.base), ("star", cb.star)):
                    got.setdefault((side, name), []).extend(
                        getattr(rows, name)())
        for i, (x, y) in enumerate(points.coords):
            for side, space in (("base", pair.base), ("star", pair.starred)):
                alone = space.point(x, y)
                for name in LIGHT_TENSORS:
                    want = np.asarray(getattr(alone, name)())
                    assert got[side, name][i].tobytes() == want.tobytes(), (
                        space.spec.name, names[0], i, name)


# e^(800 x1 y1) at x1 = 0.864, y1 = 1: finite order-2 coefficients, and
# of the order-3 ones x1^2 y1 and x1 y1^2 beyond the float range, so the
# middle column fails its check.  x1^3 stays finite: the coefficients
# that fail have x-degree at most 2, which jets of L^2 hold.
OVERFLOW = ("1e-300 * exp(800 * x1 * y1)", [0.864, 0.0])


def _steep_block(L2, x):
    """A space whose ``L^2`` adds the term ``L2`` to the Euclidean one,
    three of its points, the middle one at ``x``, and their block."""
    space = FinslerSpace(parse_spec_text(f"dim 2\nL2 = y1^2 + y2^2 + {L2}\n",
                                         name="steep"))
    xs = [[0.5, 0.1], x, [0.25, -0.3]]
    y = [1.0, 0.5]
    block = PointBlock(space, np.transpose(xs), np.transpose([y] * len(xs)))
    return space, xs, y, block


def _block_at(space, xs, y):
    """The block of ``space`` at the x of ``xs``, each with ``y``."""
    return PointBlock(space, np.transpose(xs), np.transpose([y] * len(xs)))


def _counting_eval_l2(monkeypatch):
    """A list that records (order, point shape) of every ``L^2``
    evaluation from now on."""
    calls = []
    eval_l2 = MetricSpec.eval_l2

    def counting(self, env):
        calls.append((env["x1"].order, env["x1"].coeffs.shape[1:]))
        return eval_l2(self, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", counting)
    return calls


@pytest.mark.parametrize("L2,x,match", [
    OVERFLOW + ("finite order-3",),
    # 1/x1 at x1 = 1e-90: x1^4 underflows in the order-3 series, so the
    # block's evaluation raises
    ("1e-200 / x1 * y1^2", [1e-90, 0.0], "reciprocal of value 1e-90"),
])
def test_block_member_raises_its_own_error(monkeypatch, L2, x, match):
    with np.errstate(over="ignore", invalid="ignore"):
        space, xs, y, block = _steep_block(L2, x)
        with pytest.raises(JetDomainError, match=match) as info:
            space.point(x, y).C_low()
        calls = _counting_eval_l2(monkeypatch)
        # the block fails whole, with the failed column's own error
        with pytest.raises(JetDomainError) as own:
            block.C_low()
        assert str(own.value) == str(info.value)
        # its Berwald connection, from L^2 at order 4, raises the lone
        # point's error too
        with pytest.raises(JetDomainError) as own:
            block.berwald()
        with pytest.raises(JetDomainError) as info:
            space.point(x, y).berwald()
        assert str(own.value) == str(info.value)
        # the block evaluated L^2 once at each of the two orders
        assert [call for call in calls if call[1]] == [(3, (3,)), (4, (3,))]
        got = _block_at(space, [xs[0], xs[2]], y).C_low()
    for row, xv in zip(got, (xs[0], xs[2]), strict=True):
        assert row.tobytes() == space.point(xv, y).C_low().tobytes()


@pytest.mark.parametrize("names", [("riemann", "berwald"),
                                   ("berwald", "riemann")])
def test_block_layer_that_raises_is_evaluated_on_each_request(monkeypatch,
                                                              names):
    # 1/x1 at x1 = 1e-65: x1^5 underflows in the order-4 series, so the
    # block's L^2 at order 4 raises, inside the spray jets that both the
    # R jets and berwald read
    space, xs, y, block = _steep_block("1e-200 / x1 * y1^2", [1e-65, 0.0])
    calls = _counting_eval_l2(monkeypatch)
    healthy = _block_at(space, [xs[0], xs[2]], y)
    for name in names:
        with pytest.raises(JetDomainError, match="1e-65") as want:
            getattr(space.point(xs[1], y), name)()
        with pytest.raises(JetDomainError) as got:
            getattr(block, name)()
        assert str(got.value) == str(want.value)
        for xv, row in zip((xs[0], xs[2]), getattr(healthy, name)()):
            alone = getattr(space.point(xv, y), name)()
            assert row.tobytes() == alone.tobytes()
    # a block keeps no failure: each request evaluates the layer again
    assert calls.count((4, (3,))) == 2


@pytest.mark.parametrize("name", ["C_low", "berwald", "riemann"])
@pytest.mark.parametrize("L2,x", [
    OVERFLOW, ("1e-200 / x1 * y1^2", [1e-90, 0.0])],
    ids=["overflow", "reciprocal"])
def test_block_layers_raise_the_lone_points_error(L2, x, name):
    with np.errstate(over="ignore", invalid="ignore"):
        space, xs, y, block = _steep_block(L2, x)
        with pytest.raises(JetDomainError) as want:
            getattr(space.point(x, y), name)()
        with pytest.raises(JetDomainError) as got:
            getattr(block, name)()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("L2,bad", [
    # L^2 < 0 where x1 < -0.5: construction's order-2 check fails
    ("(y1^2 + y2^2) * (x1 + 0.5)", [[-0.7, 0.2], [-0.9, -0.4]]),
    # order-3 coefficients beyond the float range where x1 y1 is large
    (OVERFLOW[0], [[0.864, 0.0], [0.87, 0.1]])],
    ids=["construction", "order-3"])
def test_block_raises_its_first_failing_columns_error(L2, bad):
    space = FinslerSpace(parse_spec_text(f"dim 2\nL2 = {L2}\n", name="m"))
    y = [1.0, 0.5]
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for xv in bad:
            with pytest.raises(JetDomainError) as info:
                space.point(xv, y).C_low()
            errors.append(str(info.value))
        # the two failing columns' points raise different texts
        assert errors[0] != errors[1]
        for order in (bad, bad[::-1]):
            xs = [[0.5, 0.1], order[0], [0.25, -0.3], order[1]]
            with pytest.raises(JetDomainError) as got:
                _block_at(space, xs, y).C_low()
            assert str(got.value) == errors[bad.index(order[0])]


def test_failing_column_fails_the_whole_block(monkeypatch):
    solves = []
    solve = core.jet_linear_solve

    def counting(A, rhs):
        solves.append(A[0][0].coeffs.shape[1:])
        return solve(A, rhs)

    # the failed column's order-3 overflow is expected; an inf of it that
    # met a zero in a later layer of a block would raise here
    with np.errstate(over="ignore", invalid="raise"):
        space, xs, y, block = _steep_block(*OVERFLOW)
        monkeypatch.setattr(core, "jet_linear_solve", counting)
        with pytest.raises(JetDomainError, match="finite order-3") as got:
            block.n_conn()
        with pytest.raises(JetDomainError) as want:
            space.point(xs[1], y).n_conn()
        assert str(got.value) == str(want.value)
        # the check failed the block before its spray solve: the solves
        # are the lone point's
        assert all(shape == () for shape in solves)
        solves.clear()
        healthy = _block_at(space, [xs[0], xs[2]], y)
        got = (healthy.n_conn(), healthy.berwald(), healthy.riemann())
        # one block solve per spray order
        assert solves == [(2,), (2,)]
        for xv, N, B, R in zip((xs[0], xs[2]), *got):
            alone = space.point(xv, y)
            assert N.tobytes() == alone.n_conn().tobytes()
            assert B.tobytes() == alone.berwald().tobytes()
            assert R.tobytes() == alone.riemann().tobytes()
    # the failed block keeps the coordinates of its construction, and no
    # layer of it holds the overflowing coefficients
    assert block.x.T.tolist() == xs
    for name, (_, layer) in _layers(block):
        assert all(np.isfinite(j.coeffs).all() for j in _jets_in(layer))


@pytest.mark.parametrize("L2,xs,name", [
    # the middle draw's order-3 coefficients overflow
    ("y1^2 + y2^2 + " + OVERFLOW[0], [[0.5, 0.1], OVERFLOW[1], [0.25, -0.3]],
     "C_low"),
    # g is singular at the middle draw, so the block's g^ij raises
    ("y1^2 + x1^2 * y2^2", [[0.5, 0.1], [0.0, 0.2], [0.25, -0.3]], "g_up"),
    # sqrt leaves its domain at the middle draw: construction raises
    ("(y1^2 + y2^2) * sqrt(x1 + 0.3)",
     [[0.5, 0.1], [-0.8, 0.9], [0.25, -0.3]], "berwald")],
    ids=["overflow", "singular-g", "sqrt-domain"])
def test_block_of_the_kept_draws_never_meets_a_left_out_one(L2, xs, name):
    space = FinslerSpace(parse_spec_text(f"dim 2\nL2 = {L2}\n", name="m"))
    y = [1.0, 0.5]
    failures = (JetDomainError, ValueError, ArithmeticError)
    # the block with the middle draw raises that draw's own error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(failures) as got:
            getattr(_block_at(space, xs, y), name)()
        with pytest.raises(failures) as want:
            getattr(space.point(xs[1], y), name)()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    # the block of the other draws, the one admission builds where draws
    # are left out, evaluates its layers without meeting an inf or a NaN,
    # and its rows are bit for bit the lone points'
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        kept = _block_at(space, [xs[0], xs[2]], y)
        for tensor in ("C_low", "g_up", "berwald"):
            for xv, row in zip((xs[0], xs[2]), getattr(kept, tensor)()):
                want = getattr(space.point(xv, y), tensor)()
                assert row.tobytes() == want.tobytes()


def _jets_in(value):
    """The jets of a structure of jets, in order."""
    if isinstance(value, Jet):
        return [value]
    return [j for v in value for j in _jets_in(v)]


def _layers(pg):
    """(name, (order, jets)) of the jet layers a point or block caches,
    beside its tensors."""
    return [(name, got) for name, got in pg._cache.items()
            if name.startswith("_")]


def test_block_members_keep_no_views_of_the_blocks_layers():
    pair = ChangedPair(resolve_spec("randers2"), resolve_spec("projective"))
    points, _ = sample_points(pair, 5, 11)
    (cb,) = points.blocks
    block = cb.base
    got = [getattr(block, name)() for name in core.ROW_TENSORS]
    assert {"_f2", "_spray_jets", "_riemann_jets"} <= set(block._cache)
    jet_arrays = [j.coeffs for _, (_, layer) in _layers(block)
                  for j in _jets_in(layer)]
    # the rows are the block's tensors, arrays of their own: no view of a
    # block's jet, which would keep its layers alive
    for name, value in zip(core.ROW_TENSORS, got):
        assert value is block._cache[name]
        assert isinstance(value, np.ndarray) and value.shape[0] == 5
        assert not any(np.shares_memory(value, a) for a in jet_arrays)
    # a cached seed jet keeps no other seed's coefficients alive
    assert all(j.coeffs.base is None for j in block._cache["_f2"][1][0])
    assert all(j.coeffs.base is None
               for j in lift(np.ones((4, 3)), 2) + lift(np.ones(4), 2))


# per-block L^2 evaluations of 200 points, admitted in chunks of 64, 64, 64
# and 8 draws (none is rejected) at order 2 on each side, whose blocks then
# evaluate the light orders of the core-identities suite and of all six
L2_ADMISSION_CALLS = {
    ("randers2", 2, 64): 3, ("randers2", 2, 8): 1,
    ("randers2*projective", 2, 64): 3, ("randers2*projective", 2, 8): 1}
L2_BLOCK_CALLS = (
    (["core-identities"], {
        **L2_ADMISSION_CALLS,
        ("randers2", 3, 64): 3, ("randers2", 3, 8): 1,
        ("randers2", 4, 64): 3, ("randers2", 4, 8): 1}),
    (list(suites.SUITE_NAMES), {
        **L2_ADMISSION_CALLS,
        ("randers2", 3, 64): 3, ("randers2", 3, 8): 1,
        ("randers2", 4, 64): 3, ("randers2", 4, 8): 1,
        ("randers2*projective", 3, 64): 3,
        ("randers2*projective", 3, 8): 1}),
)


def test_blocks_evaluate_l2_once_per_light_order(monkeypatch):
    calls, probes = [], []
    eval_l2 = MetricSpec.eval_l2
    pair = ChangedPair(resolve_spec("randers2"), resolve_spec("projective"))
    cps, _ = sample_points(pair, 200, 1)
    sampled = {tuple(cp.x.tolist() + cp.y.tolist()) for cp in cps}

    def counting(self, env):
        x1 = env["x1"]
        if isinstance(x1, Jet):
            points = x1.coeffs.shape[1] if x1.coeffs.ndim > 1 else 1
            calls.append((self.name, x1.order, points))
            # a one-point call off the samples above order 2 is a probe's
            if points == 1 and x1.order > 2 and tuple(
                    v.value for v in env.values()) not in sampled:
                probes.append((self.name, x1.order))
        return eval_l2(self, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", counting)
    monkeypatch.setattr(sampling, "BLOCK_SIZE", 64)
    for selected, blocks in L2_BLOCK_CALLS:
        calls.clear()
        probes.clear()
        cfg = suites.SuiteConfig(resolve_spec("randers2"),
                                 resolve_spec("projective"), samples=200,
                                 seed=1)
        suites.run_suites(cfg, selected)
        # each admission chunk's block evaluates L^2 once at order 2 per
        # side, on admission, and once at each light order its members
        # ask for
        assert Counter(call for call in calls if call[2] > 1) == blocks, (
            selected)
        # no one-point call is at a light order: the finite-difference
        # probes, which build points of their own, build their layers at
        # the top order after the order-2 jet of construction
        assert not [call for call in calls
                    if call[2] == 1 and call[1] in (3, 4)], selected
        assert Counter(probes) == {("randers2", 6): 20}, selected
    # admission makes no one-point evaluation
    calls.clear()
    sample_points(pair, 200, 1)
    assert Counter(calls) == L2_ADMISSION_CALLS
