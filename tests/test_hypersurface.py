import numpy as np
import pytest

from finslerchange.core import FinslerSpace
from finslerchange.hypersurface import (ChangedHyperPoint, ChangedHypersurface,
                                        HypersurfaceGeometry)
from finslerchange.lang import parse_spec_text

EUCLID2 = parse_spec_text("dim 2\na_11 = 1\na_22 = 1\n", name="euclid2")
EUCLID3 = parse_spec_text("dim 3\na_11 = 1\na_22 = 1\na_33 = 1\n",
                          name="euclid3")
RANDERS = parse_spec_text(
    "dim 2\nL = sqrt(y1^2 + y2^2) + 0.08 * (x2 * y1 - x1 * y2)\n",
    name="randers")

CIRCLE = parse_spec_text(
    "dim 2\nx1 = cos(u1)\nx2 = sin(u1)\nu_box = 0.2 6.1\n", name="circle")
PARABOLA = parse_spec_text(
    "dim 2\nx1 = u1\nx2 = u1^2 / 2\nu_box = -1.2 1.2\n", name="parabola")
PLANE3 = parse_spec_text(
    "dim 3\nx1 = u1\nx2 = u2\nx3 = 0\nu_box = -1 1 -1 1\n", name="plane3")

# tangential drift fields: rotational (not closed) on the circle, and the
# gradient of x1 x2 + x1 - x1^3/6 (closed) which is tangent to the parabola
CIRCLE_TANGENT = parse_spec_text(
    "sigma = 0.1\nb1 = -0.1 * x2\nb2 = 0.1 * x1\n", name="circle_tangent")
PARABOLA_TANGENT = parse_spec_text(
    "sigma = 0.1\nb1 = 0.2 * (x2 + 1 - x1^2 / 2)\nb2 = 0.2 * x1\n",
    name="parabola_tangent")
PLANE_TANGENT = parse_spec_text(
    "sigma = 0.04\nb1 = 0.03 * x2\nb2 = 0.03 * x1\n", name="plane_tangent")
# drift with a normal component on the parabola
LIFTED_2D = parse_spec_text("sigma = 0.05\nb2 = 0.04\n", name="lifted2")

RNG = np.random.default_rng(5150)


def rand_uv(spec, rng=RNG):
    u = np.array([rng.uniform(lo, hi) for lo, hi in spec.u_box])
    m = spec.pdim
    v = rng.normal(size=m)
    v = v / np.linalg.norm(v) * rng.uniform(*spec.v_annulus)
    return u, v


def test_circle_embedding_data():
    geom = HypersurfaceGeometry(CIRCLE, FinslerSpace(EUCLID2))
    hp = geom.at([0.7], [1.0])
    assert np.allclose(hp.x, [np.cos(0.7), np.sin(0.7)])
    assert np.allclose(hp.B[:, 0], [-np.sin(0.7), np.cos(0.7)])
    assert np.allclose(hp.B2[:, 0, 0], [-np.cos(0.7), -np.sin(0.7)])
    assert np.allclose(hp.y, hp.B[:, 0])


def test_circle_normal_is_radial_and_consistent():
    geom = HypersurfaceGeometry(CIRCLE, FinslerSpace(EUCLID2))
    # the orientation rule picks the inward normal all along the chart
    for u in [0.3, 1.8, 3.1, 4.4, 5.9]:
        hp = geom.at([u], [1.0])
        N = hp.normal_up()
        assert np.allclose(N, [-np.cos(u), -np.sin(u)], atol=1e-12)


def test_circle_normal_curvature_oracle():
    geom = HypersurfaceGeometry(CIRCLE, FinslerSpace(EUCLID2))
    for v in [1.0, 0.6, 1.4]:
        hp = geom.at([1.1], [v])
        # inward normal: H = v for the unit circle (1-homogeneous in v)
        assert hp.normal_curvature()[0] == pytest.approx(v, abs=1e-12)


def test_normal_ref_overrides_orientation():
    spec = parse_spec_text(
        "dim 2\nx1 = cos(u1)\nx2 = sin(u1)\nu_box = 0.2 1.2\n"
        "normal_ref = 1 1\n", name="circle_out")
    geom = HypersurfaceGeometry(spec, FinslerSpace(EUCLID2))
    hp = geom.at([0.7], [1.0])
    # ref picks the outward branch on this arc
    assert np.allclose(hp.normal_up(), [np.cos(0.7), np.sin(0.7)], atol=1e-12)
    assert hp.normal_curvature()[0] == pytest.approx(-1.0, abs=1e-12)


def test_plane_is_totally_geodesic():
    geom = HypersurfaceGeometry(PLANE3, FinslerSpace(EUCLID3))
    for _ in range(3):
        u, v = rand_uv(PLANE3)
        hp = geom.at(u, v)
        assert np.allclose(hp.normal_curvature(), 0.0, atol=1e-13)
        assert np.allclose(hp.normal_up(), [0.0, 0.0, 1.0], atol=1e-13)


def test_frame_identities():
    for spec, metric in [(CIRCLE, EUCLID2), (PARABOLA, RANDERS),
                         (PLANE3, EUCLID3)]:
        geom = HypersurfaceGeometry(spec, FinslerSpace(metric))
        u, v = rand_uv(spec)
        hp = geom.at(u, v)
        assert hp.frame_residuals() < 1e-11


def test_normal_orthogonality_in_randers_ambient():
    geom = HypersurfaceGeometry(PARABOLA, FinslerSpace(RANDERS))
    u, v = rand_uv(PARABOLA)
    hp = geom.at(u, v)
    N = hp.normal_up()
    # defining conditions, with the ambient (y-dependent) metric
    assert np.max(np.abs(hp.B.T @ hp.pg.g_low() @ N)) < 1e-12
    assert float(N @ hp.pg.g_low() @ N) == pytest.approx(1.0, abs=1e-12)
    # supporting element is orthogonal to the normal as a covector pairing
    assert float(hp.pg.y_low() @ N) < 1e-12


def _changed_at(ch, u, v):
    """The ``ChangedHyperPoint`` of a ``ChangedHypersurface`` at (u, v),
    built as the suites build it."""
    return ChangedHyperPoint(ch.pair, ch.base_h.at(u, v))


def test_tangential_drift_fields_are_tangential():
    ch = ChangedHypersurface(EUCLID2, CIRCLE_TANGENT, CIRCLE)
    for _ in range(3):
        u, v = rand_uv(CIRCLE)
        assert abs(_changed_at(ch, u, v).b_dot_normal()) < 1e-12
    ch = ChangedHypersurface(EUCLID2, PARABOLA_TANGENT, PARABOLA)
    for _ in range(3):
        u, v = rand_uv(PARABOLA)
        assert abs(_changed_at(ch, u, v).b_dot_normal()) < 1e-12


def test_gstar_on_normal_closed_form_general():
    # holds with or without tangency
    for change in (PARABOLA_TANGENT, LIFTED_2D):
        ch = ChangedHypersurface(EUCLID2, change, PARABOLA)
        u, v = rand_uv(PARABOLA)
        chp = _changed_at(ch, u, v)
        assert chp.gstar_on_normal() == pytest.approx(
            chp.gstar_on_normal_closed(), rel=1e-12)


def test_normal_transfer_requires_tangency():
    # tangential: the changed normal is exactly N / sqrt(tau)
    ch = ChangedHypersurface(EUCLID2, PARABOLA_TANGENT, PARABOLA)
    u, v = rand_uv(PARABOLA)
    chp = _changed_at(ch, u, v)
    direct = chp.star.normal_up()
    assert np.allclose(direct, chp.normal_transfer_closed(), atol=1e-12)
    assert np.allclose(chp.star.normal_low(),
                       chp.conormal_transfer_closed(), atol=1e-12)
    # non-tangential: the transfer law fails by a visible margin
    ch = ChangedHypersurface(EUCLID2, LIFTED_2D, PARABOLA)
    chp = _changed_at(ch, u, v)
    diff = np.max(np.abs(chp.star.normal_up()
                         - chp.normal_transfer_closed()))
    assert diff > 1e-4


def test_changed_frame_identities_hold_directly():
    ch = ChangedHypersurface(EUCLID2, PARABOLA_TANGENT, PARABOLA)
    u, v = rand_uv(PARABOLA)
    chp = _changed_at(ch, u, v)
    assert chp.star.frame_residuals() < 1e-11


def test_projective_tangential_change_scales_normal_curvature():
    # sigma constant, b closed and tangent: H* = sqrt(tau) H, and the
    # obstruction term is zero
    ch = ChangedHypersurface(EUCLID2, PARABOLA_TANGENT, PARABOLA)
    for _ in range(4):
        u, v = rand_uv(PARABOLA)
        chp = _changed_at(ch, u, v)
        assert np.max(np.abs(chp.d_term())) < 1e-11
        H_star = chp.star.normal_curvature()
        want = np.sqrt(chp.cp.tau) * chp.base.normal_curvature()
        assert np.allclose(H_star, want, atol=1e-11)
        assert chp.hstar_decomposition_residual() < 1e-11
        assert chp.hstar_reported_residual() < 1e-11


def test_nonprojective_tangential_change_decomposition():
    # rotational drift on the circle: tangential but not closed, so the
    # change is not projective; the full decomposition still holds while
    # the pure-rescale law fails
    ch = ChangedHypersurface(EUCLID2, CIRCLE_TANGENT, CIRCLE)
    for _ in range(4):
        u, v = rand_uv(CIRCLE)
        chp = _changed_at(ch, u, v)
        assert np.max(np.abs(chp.d_term())) > 1e-4
        assert chp.hstar_decomposition_residual() < 1e-10
        H_star = chp.star.normal_curvature()
        want = np.sqrt(chp.cp.tau) * chp.base.normal_curvature()
        assert np.max(np.abs(H_star - want)) > 1e-4


def test_totally_geodesic_preserved_in_3d():
    # plane with a tangential projective change: H = 0 on both sides
    ch = ChangedHypersurface(EUCLID3, PLANE_TANGENT, PLANE3)
    for _ in range(3):
        u, v = rand_uv(PLANE3)
        chp = _changed_at(ch, u, v)
        assert abs(chp.b_dot_normal()) < 1e-13
        assert np.max(np.abs(chp.base.normal_curvature())) < 1e-12
        assert np.max(np.abs(chp.star.normal_curvature())) < 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        HypersurfaceGeometry(PLANE3, FinslerSpace(EUCLID2))


def test_changed_point_evaluates_the_embedding_once():
    chs = ChangedHypersurface(EUCLID2, PARABOLA_TANGENT, PARABOLA)
    chp = _changed_at(chs, [0.4], [0.9])
    assert chp.base.pg is chp.cp.base and chp.star.pg is chp.cp.star
    assert chp.star.B is chp.base.B and chp.star.B2 is chp.base.B2
    hp = chs.base_h.at([0.4], [0.9])
    assert hp.x.tobytes() == chp.star.x.tobytes()
    assert hp.B2.tobytes() == chp.star.B2.tobytes()
    assert (hp.normal_curvature().tobytes()
            == chp.base.normal_curvature().tobytes())
