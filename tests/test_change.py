import collections
import inspect
import sys

import numpy as np
import pytest

from column import column

from finslerchange import core, sampling, suites
from finslerchange.change import ChangedBlock, ChangedPair, changed_metric_spec
from finslerchange.core import FinslerSpace, central_partial
from finslerchange.jets import JetDomainError
from finslerchange.lang import parse_spec_text, resolve_spec
from finslerchange.sampling import sample_points
from finslerchange.suites import SuiteConfig, SuiteRun

EUCLID2 = parse_spec_text("dim 2\na_11 = 1\na_22 = 1\n", name="euclid2")
POLAR = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = x1^2\nx_box = 0.5 2 -1 1\n", name="polar")
SPHERE = parse_spec_text(
    "dim 2\na_11 = 1\na_22 = sin(x1)^2\nx_box = 0.7 2.4 -1 1\n", name="sphere")
RANDERS = parse_spec_text(
    "dim 2\nL = sqrt(y1^2 + y2^2) + 0.08 * (x2 * y1 - x1 * y2)\n",
    name="randers")
CURVED3 = parse_spec_text(
    "dim 3\na_11 = 1\na_22 = exp(2*x1)\na_33 = exp(-2*x1)\n", name="curved3")
SPHERE3 = parse_spec_text(
    "dim 3\na_11 = 1\na_22 = sin(x1)^2\na_33 = sin(x1)^2 * sin(x2)^2\n"
    "x_box = 0.7 2.4 0.7 2.4 -1 1\n", name="sphere3")

IDENT = parse_spec_text("sigma = 0\n", name="identity")
HOMOTHETY = parse_spec_text("sigma = 0.3\n", name="homothety")
CONFORMAL = parse_spec_text("sigma = 0.1 * x1\n", name="conformal")
DRIFT_CLOSED = parse_spec_text(
    "b1 = 0.02 * x2\nb2 = 0.02 * x1\n", name="drift_closed")
DRIFT_CURL = parse_spec_text(
    "b1 = -0.1 * x2\nb2 = 0.1 * x1\n", name="drift_curl")
PROJ = parse_spec_text(
    "sigma = 0.05\nb1 = 0.02 * x2\nb2 = 0.02 * x1\n", name="proj")
PROJ3 = parse_spec_text(
    "sigma = 0.04\nb1 = 0.03 * x2\nb2 = 0.03 * x1\nb3 = 0.05\n", name="proj3")
CONF3 = parse_spec_text("sigma = 0.1 * x3\n", name="conf3")

RNG = np.random.default_rng(424242)


def rand_point(spec, rng=RNG):
    x = np.array([rng.uniform(lo, hi) for lo, hi in spec.x_box])
    v = rng.normal(size=spec.dim)
    y = v / np.linalg.norm(v) * rng.uniform(*spec.y_annulus)
    return x, y


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


def test_identity_change_returns_same_spec():
    assert changed_metric_spec(POLAR, IDENT) is POLAR


def test_pure_scale_keeps_quadratic():
    out = changed_metric_spec(SPHERE, CONFORMAL)
    assert out.is_quadratic
    out2 = changed_metric_spec(SPHERE, DRIFT_CLOSED)
    assert not out2.is_quadratic


def test_changed_l_two_routes():
    for base, change in [(POLAR, PROJ), (SPHERE, DRIFT_CURL),
                         (RANDERS, CONFORMAL), (EUCLID2, HOMOTHETY)]:
        pair = ChangedPair(base, change)
        for _ in range(3):
            x, y = rand_point(base)
            cp = column(pair, x, y)
            assert cp.star.L() == pytest.approx(cp.Lstar, rel=1e-13)


@pytest.mark.parametrize("base,change", [
    (POLAR, PROJ),
    (SPHERE, DRIFT_CURL),
    (RANDERS, CONFORMAL),
    (EUCLID2, DRIFT_CLOSED),
    (RANDERS, PROJ),
])
def test_closed_forms_match_direct_computation(base, change):
    pair = ChangedPair(base, change)
    for _ in range(4):
        x, y = rand_point(base)
        cp = column(pair, x, y)
        assert rel_err(cp.lstar_closed(), cp.star.l_low()) < 1e-11
        assert rel_err(cp.hstar_closed(), cp.star.h_low()) < 1e-11
        assert rel_err(cp.gstar_closed(), cp.star.g_low()) < 1e-11
        assert rel_err(cp.cstar_closed(), cp.star.C_low()) < 1e-11


def test_identity_change_point_tensors_bitwise():
    pair = ChangedPair(RANDERS, IDENT)
    x, y = rand_point(RANDERS)
    cp = column(pair, x, y)
    assert np.array_equal(cp.star.g_low(), cp.base.g_low())
    assert np.array_equal(cp.star.C_low(), cp.base.C_low())
    assert np.array_equal(cp.star.spray(), cp.base.spray())
    assert cp.tau == 1.0


def test_inverse_closed_form_exact_in_reduced_cases():
    # scale only
    pair = ChangedPair(POLAR, CONFORMAL)
    x, y = rand_point(POLAR)
    cp = column(pair, x, y)
    assert rel_err(cp.ginv_star_closed(), np.linalg.inv(cp.star.g_low())) < 1e-11
    # drift only
    pair = ChangedPair(EUCLID2, DRIFT_CURL)
    x, y = rand_point(EUCLID2)
    cp = column(pair, x, y)
    assert rel_err(cp.ginv_star_closed(), np.linalg.inv(cp.star.g_low())) < 1e-11


def test_inverse_closed_form_drifts_when_scale_and_drift_combine():
    # with both sigma and b active the reported inverse stops agreeing
    # with the actual inverse; the residual is small but far above noise
    pair = ChangedPair(EUCLID2, PROJ)
    worst = 0.0
    for _ in range(5):
        x, y = rand_point(EUCLID2)
        cp = column(pair, x, y)
        resid = np.max(np.abs(cp.ginv_star_closed()
                              - np.linalg.inv(cp.star.g_low())))
        worst = max(worst, resid)
    assert 1e-6 < worst < 1e-2


def test_mixed_cartan_closed_form_follows_inverse():
    # exact whenever the inverse form is exact...
    for base, change in [(RANDERS, DRIFT_CURL), (RANDERS, CONFORMAL)]:
        pair = ChangedPair(base, change)
        x, y = rand_point(base)
        cp = column(pair, x, y)
        assert rel_err(cp.cstar_mixed_closed(), cp.cstar_mixed_direct()) < 1e-10
    # ...and inherits its drift otherwise
    pair = ChangedPair(RANDERS, PROJ)
    worst = 0.0
    for _ in range(5):
        x, y = rand_point(RANDERS)
        cp = column(pair, x, y)
        worst = max(worst, np.max(np.abs(
            cp.cstar_mixed_closed() - cp.cstar_mixed_direct())))
    assert 1e-8 < worst < 1e-3


def test_a_covector_orthogonal_to_y():
    pair = ChangedPair(RANDERS, PROJ)
    x, y = rand_point(RANDERS)
    cp = column(pair, x, y)
    assert abs(cp.a_low() @ y) < 1e-13
    assert abs(cp.base.h_low() @ y).max() < 1e-12


def test_tau_y_gradient_identity():
    # d tau / dy^k = -(e^sigma / L) a_k, via finite differences of tau
    for base, change in [(EUCLID2, PROJ), (SPHERE, DRIFT_CURL)]:
        pair = ChangedPair(base, change)
        x, y = rand_point(base)
        cp = column(pair, x, y)

        def tau_at(yv):
            return column(pair, x, yv).tau
        fd = np.array([central_partial(tau_at, y, k, 1e-6)
                       for k in range(base.dim)])
        want = -(cp.esig / cp.L) * cp.a_low()
        assert np.allclose(fd, want, atol=1e-6)


def test_projection_obstruction_vanishes_iff_projective():
    # constant sigma + curl-free drift: obstruction covector is zero
    pair = ChangedPair(SPHERE, PROJ)
    for _ in range(4):
        x, y = rand_point(SPHERE)
        cp = column(pair, x, y)
        assert np.max(np.abs(cp.A_low())) < 1e-13
        assert cp.collinearity_defect() < 1e-12
    # varying sigma: nonzero obstruction, spray difference leaves span(y)
    pair = ChangedPair(SPHERE, CONFORMAL)
    x, y = rand_point(SPHERE)
    cp = column(pair, x, y)
    assert np.max(np.abs(cp.A_low())) > 1e-3
    assert cp.collinearity_defect() > 1e-3
    # curl drift: also non-projective
    pair = ChangedPair(EUCLID2, DRIFT_CURL)
    cp = column(pair, *rand_point(EUCLID2))
    assert np.max(np.abs(cp.A_low())) > 1e-3


def test_d_jacobian_is_connection_difference():
    pair = ChangedPair(SPHERE, PROJ)
    x, y = rand_point(SPHERE)
    cp = column(pair, x, y)
    # FD of the spray difference in y reproduces the connection difference
    def dvec(yv):
        cc = column(pair, x, yv)
        return cc.d_vector()
    fd = np.stack([central_partial(dvec, y, j, 1e-6) for j in range(2)],
                  axis=-1)
    assert np.allclose(fd, cp.d_jacobian(), atol=1e-6)


def test_drift_covariant_derivative_symmetry():
    # closed drift: antisymmetric part F vanishes even on a curved base
    pair = ChangedPair(RANDERS, DRIFT_CLOSED)
    x, y = rand_point(RANDERS)
    cp = column(pair, x, y)
    assert np.max(np.abs(cp.F_low())) < 1e-12
    assert np.allclose(cp.E_low(), cp.b_hcov(), atol=1e-12)
    # curl drift: F is the half-curl of b, here constant
    pair = ChangedPair(EUCLID2, DRIFT_CURL)
    cp = column(pair, *rand_point(EUCLID2))
    F = cp.F_low()
    assert F[0, 1] == pytest.approx(-0.1, abs=1e-12)
    assert np.allclose(F, -F.T, atol=1e-14)
    Fm = cp.base.g_up() @ F
    assert np.allclose(cp.base.g_low() @ Fm, F, atol=1e-14)


def test_changed_point_evaluates_shared_arrays_once():
    # counted by code object, so a cache in front of a method is
    # transparent; the suite's rows read the samples' block form, one
    # ChangedBlock for the four points of one pair of blocks
    names = ("a_low", "a_up", "b_up", "b_hcov")
    codes = {inspect.unwrap(getattr(ChangedBlock, name)).__code__: name
             for name in names}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code], frame.f_locals["self"]] += 1

    cfg = suites.SuiteConfig(resolve_spec("randers2"),
                             resolve_spec("projective"), samples=4, seed=1)
    run = suites.SuiteRun(cfg)
    sys.setprofile(profile)
    try:
        records = [suites._record(run, row)
                   for row in suites.CHECKS["change-identities"]]
    finally:
        sys.setprofile(None)
    assert all(r.samples == 4 for r in records)
    (cb,) = run.cblocks()
    assert len(cb.y) == 4
    for name in names:
        assert {self: c for (m, self), c in calls.items()
                if m == name} == {cb: 1}, name


def test_douglas_invariance_under_projective_change():
    pair = ChangedPair(RANDERS, PROJ)
    for _ in range(3):
        x, y = rand_point(RANDERS)
        cp = column(pair, x, y)
        assert rel_err(cp.star.douglas(), cp.base.douglas()) < 1e-9


def test_douglas_not_invariant_under_nonprojective_change():
    pair = ChangedPair(EUCLID2, DRIFT_CURL)
    x, y = rand_point(EUCLID2)
    cp = column(pair, x, y)
    assert np.allclose(cp.base.douglas(), 0.0, atol=1e-12)
    assert np.max(np.abs(cp.star.douglas())) > 1e-4


def test_weyl_invariance_under_projective_change_3d():
    pair = ChangedPair(CURVED3, PROJ3)
    for _ in range(2):
        x, y = rand_point(CURVED3)
        cp = column(pair, x, y)
        assert np.max(np.abs(cp.base.weyl_torsion())) > 1e-2
        assert rel_err(cp.star.weyl_torsion(), cp.base.weyl_torsion()) < 1e-8
        assert rel_err(cp.star.weyl_proj(), cp.base.weyl_proj()) < 1e-8


def test_flat_space_invariants_vanish():
    # constant-curvature 3d base: both projective invariants of a flat
    # family; sphere has W = 0, and every quadratic metric has D = 0
    sp = FinslerSpace(SPHERE3)
    x, y = rand_point(SPHERE3)
    pg = sp.point(x, y)
    assert np.max(np.abs(pg.weyl_torsion())) < 1e-9
    assert np.max(np.abs(pg.douglas())) < 1e-11
    flat = FinslerSpace(POLAR)
    pg = flat.point(*rand_point(POLAR))
    assert np.max(np.abs(pg.weyl_proj())) < 1e-10
    assert np.max(np.abs(pg.douglas())) < 1e-11


def test_positivity_validation_catches_large_drift():
    # |y| + 2 y1 = -1 at y = (-1, 0): the changed value is negative.  The
    # block of the three draws raises (sqrt leaves its domain at the
    # second), so each is judged on a one-column block: the first builds,
    # and ``_regular`` rejects it by its value, as any block's draw
    pair = ChangedPair(parse_spec_text(
        "dim 2\nL2 = (y1^2 + y2^2) * sqrt(x1 + 0.3)\n", name="sqrt2"),
        parse_spec_text("b1 = 2\n", name="bad"))
    x = np.array([[0.3, -0.8, 0.5], [-0.2, 0.1, 0.1]])
    y = np.array([[-1.0, 1.0, 1.0], [0.0, 0.5, 0.5]])
    with pytest.raises(JetDomainError):
        pair.block(x, y)
    first = pair.block(x[:, :1], y[:, :1])
    assert first.Lstar[0] < 0.0 and sampling._regular(first).tolist() == [
        False]
    kept, cb = sampling._admit_block(
        pair, x, y, sampling._regular,
        (ValueError, ZeroDivisionError, JetDomainError))
    assert kept.tolist() == [2]
    assert cb.y.tobytes() == y[:, 2].tobytes() and cb.Lstar[0] > 0.0


def test_nonpositive_changed_value_drops_the_hypersurface_draw():
    # |y| + 2 y1 turns negative along the circle where its tangent points
    # against x1: ``chpoints`` builds the block of every draw and keeps
    # those where L* > 0, in draw order
    config = SuiteConfig(EUCLID2, parse_spec_text("b1 = 2\n", name="bad"),
                         resolve_spec("circle2"), samples=20, seed=3)
    run = SuiteRun(config)
    draws, _ = sampling.sample_hyper_points(run.hyper.base_h, 20, 3)
    lstar = [column(run.pair, hp.x, hp.y).Lstar for hp in draws]
    kept = [hp for hp, value in zip(draws, lstar) if value > 0.0]
    assert 0 < len(kept) < len(draws)
    chp = run.chpoints()
    assert len(chp) == len(kept)
    assert chp.base.u.tobytes() == np.array([hp.u for hp in kept]).tobytes()
    assert (chp.cp.Lstar > 0.0).all()


def test_homothety_scales_metric_exactly():
    pair = ChangedPair(SPHERE, HOMOTHETY)
    x, y = rand_point(SPHERE)
    cp = column(pair, x, y)
    scale = np.exp(0.6)
    assert rel_err(cp.star.g_low(), scale * cp.base.g_low()) < 1e-13
    # homothety is projective
    assert np.max(np.abs(cp.A_low())) == 0.0
    assert rel_err(cp.star.spray(), cp.base.spray()) < 1e-12


def test_nonprojective_3d_conformal_breaks_weyl_equality_check():
    # sanity: a non-projective change does move the spray
    pair = ChangedPair(CURVED3, CONF3)
    x, y = rand_point(CURVED3)
    cp = column(pair, x, y)
    assert np.max(np.abs(cp.d_vector())) > 1e-3


# The numbers a ``ChangedBlock`` holds for each of its points.
BLOCK_NUMBERS = ("y", "sigma", "grad_sigma", "b_low", "db", "esig", "beta",
                 "Lstar", "L", "tau")


def test_pair_block_is_the_sampled_chunks_block():
    # the block sampling admits a chunk with is ``ChangedPair.block`` at
    # its draws: the same numbers and rows, bit for bit
    pair = ChangedPair(resolve_spec("randers2"), resolve_spec("projective"))
    points, _ = sample_points(pair, 30, 1)
    (sampled,) = points.blocks
    x, y = (np.stack(c, axis=1) for c in zip(*points.coords))
    cb = pair.block(x, y)
    for name in BLOCK_NUMBERS:
        assert getattr(cb, name).tobytes() == getattr(sampled, name).tobytes()
    for side in ("base", "star"):
        for name in core.ROW_TENSORS:
            got = getattr(getattr(cb, side), name)()
            want = getattr(getattr(sampled, side), name)()
            assert got.tobytes() == want.tobytes(), (side, name)


@pytest.mark.parametrize("metric,change,xs", [
    # the base block: sqrt leaves its domain at the last two columns
    ("L2 = (y1^2 + y2^2) * sqrt(x1 + 0.3)", "b1 = 0.1 * x2",
     [[0.5, 0.1], [-0.8, 0.2], [-0.9, 0.3]]),
    # the change: sqrt of x2 + 0.3 at the last two columns
    ("a_11 = 1\na_22 = 1", "b1 = 0.1 * sqrt(x2 + 0.3)",
     [[0.5, 0.1], [0.2, -0.8], [0.1, -0.9]]),
    # the changed block: the series of sqrt(L^2) at a value below 1e-250
    # leaves the float range, where L* > 0 and the base passes
    ("L2 = (y1^2 + y2^2) * exp(-700 * x1^2)", "b1 = 1e-8 * x2",
     [[0.1, 0.1], [0.95, 0.5], [0.97, 0.6]])],
    ids=["base", "change", "changed"])
def test_pair_block_raises_the_first_failing_columns_error(metric, change,
                                                          xs):
    pair = ChangedPair(parse_spec_text(f"dim 2\n{metric}\n", name="m"),
                       parse_spec_text(change + "\n", name="c"))
    y = np.array([1.0, 0.5])

    def lone(x):
        # the pieces of a point of the pair, in the order a block builds
        # them: the base point, the change, the changed point
        x = np.array(x)
        pair.base.point(x, y)
        pair.change.at(x[:, None])
        pair.starred.point(x, y)

    with pytest.raises(JetDomainError) as got:
        pair.block(np.transpose(xs), np.transpose([y] * len(xs)))
    lone(xs[0])
    with pytest.raises(JetDomainError) as want:
        lone(xs[1])
    assert str(got.value) == str(want.value)
    with pytest.raises(JetDomainError) as later:
        lone(xs[2])
    assert str(later.value) != str(want.value)
