"""Acceptance battery: one test per contract criterion.

Each test prints a single ``ACCEPTANCE k: PASS`` line on success (visible
with ``pytest -s``; the PASSED/FAILED line of ``pytest -v`` carries the
same verdict).  Thresholds are the contract values, not tuned to what the
implementation happens to produce.
"""

import numpy as np

from finslerchange.change import ChangedPair
from finslerchange.core import central_partial
from finslerchange.geodesics import curve_set_deviation, integrate_geodesic
from finslerchange.hypersurface import ChangedHyperPoint, ChangedHypersurface
from finslerchange.lang import resolve_spec
from finslerchange.report import Report, emit_json_lines, environment_block
from finslerchange.sampling import sample_hyper_points, sample_points
from finslerchange.suites import SuiteConfig, run_suites

METRICS = ("euclid2", "euclid3", "diag2", "sphere2", "sphere3", "curved3",
           "randers2")

S = {name: resolve_spec(name) for name in METRICS}
CH = {name: resolve_spec(name) for name in
      ("identity", "homothety", "conformal", "randers_closed",
       "randers_nonclosed", "projective", "projective3", "tangent_parabola")}


def rel(got, want=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


def done(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def sample_base(mname, count, seed):
    """Geometry of one bundled metric at sampled points; the identity
    change admits the draws the metric alone admits."""
    pts, _ = sample_points(ChangedPair(S[mname], CH["identity"]), count, seed)
    return [cp.base for cp in pts]


# -- 1: Euler/homogeneity chain on every bundled metric -----------------------

def test_criterion_1_euler_homogeneity():
    worst = 0.0
    for name in METRICS:
        pair = ChangedPair(S[name], CH["projective"])
        pts, _ = sample_points(pair, 100, seed=101)
        for cp in pts:
            pg, y = cp.base, cp.y
            L = pg.L()
            worst = max(
                worst,
                rel(pg.l_low() @ y, L),
                rel(y @ pg.g_low() @ y, L * L),
                rel(pg.h_low() @ y),
                rel(np.einsum("ijk,k->ij", pg.C_low(), y)),
                rel(cp.a_low() @ y),
                rel(pg.n_conn() @ y, 2.0 * pg.spray()),
            )
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"
    done(1, f"euler/homogeneity chain on {len(METRICS)} metrics x 100 "
            f"points, worst {worst:.1e} <= 1e-10")


# -- 2: closed forms vs the direct pipeline ----------------------------------

def test_criterion_2_two_path_closed_forms():
    algebraic = 0.0
    inverted = 0.0
    for chname in ("randers_closed", "randers_nonclosed", "conformal",
                   "homothety"):
        pair = ChangedPair(S["euclid2"], CH[chname])
        pts, _ = sample_points(pair, 100, seed=102)
        for cp in pts:
            star = cp.star
            algebraic = max(
                algebraic,
                rel(cp.Lstar, star.L()),
                rel(cp.lstar_closed(), star.l_low()),
                rel(cp.hstar_closed(), star.h_low()),
                rel(cp.gstar_closed(), star.g_low()),
                rel(cp.cstar_closed(), star.C_low()),
            )
            # these changes keep either the scale or the drift zero, so
            # the inverse-metric and mixed closed forms are exact as well
            inverted = max(inverted,
                           rel(cp.ginv_star_closed(), star.g_up()),
                           rel(cp.cstar_mixed_closed(),
                               cp.cstar_mixed_direct()))
    assert algebraic <= 1e-10, f"algebraic closed forms: {algebraic:.3e}"
    assert inverted <= 1e-8, f"post-inversion closed forms: {inverted:.3e}"

    # a change with both scale and drift active records the inverse and
    # mixed forms as measured residuals instead of pass/fail checks
    cfg = SuiteConfig(S["euclid2"], CH["tangent_parabola"], samples=20,
                      seed=102)
    by_id = {r.check_id: r for r in run_suites(cfg, ["change-identities"])}
    inv = by_id["change.inverse-closed-form"]
    mix = by_id["change.mixed-cartan-closed-form"]
    assert inv.verdict == "reported-residual"
    assert mix.verdict == "reported-residual"
    assert inv.max_rel_err > 1e-8, "generic-regime discrepancy not visible"
    done(2, f"closed forms vs direct pipeline on 4 changes x 100 points: "
            f"algebraic {algebraic:.1e} <= 1e-10, post-inversion "
            f"{inverted:.1e} <= 1e-8; generic-regime inverse residual "
            f"{inv.max_rel_err:.1e} recorded as reported-residual")


# -- 3: degenerate changes reduce to the known special cases ------------------

def test_criterion_3_reductions():
    # identity change: every starred/unstarred pair is exactly equal
    pair = ChangedPair(S["sphere2"], CH["identity"])
    assert pair.starred_spec is pair.metric_spec
    pts, _ = sample_points(pair, 40, seed=103)
    for cp in pts[:10]:
        assert np.array_equal(cp.base.g_low(), cp.star.g_low())
        assert np.array_equal(cp.base.C_low(), cp.star.C_low())
        assert np.array_equal(cp.base.spray(), cp.star.spray())
        assert np.array_equal(cp.base.n_conn(), cp.star.n_conn())

    # drift = 0: pure scaling laws with tau = e^(2 sigma)
    scale_err = 0.0
    for chname in ("homothety", "conformal"):
        pair = ChangedPair(S["sphere2"], CH[chname])
        for p in pts[:20]:
            cp = pair.at(p.x, p.y)
            e2s = float(np.exp(2.0 * cp.sigma))
            scale_err = max(
                scale_err,
                rel(cp.tau, e2s),
                rel(cp.star.L(), np.exp(cp.sigma) * cp.base.L()),
                rel(cp.star.g_low(), e2s * cp.base.g_low()),
                rel(cp.star.C_low(), e2s * cp.base.C_low()),
            )
    assert scale_err <= 1e-10, f"pure-scaling reduction: {scale_err:.3e}"

    # scale = 0: the value is additive and every closed form is exact
    drift_err = 0.0
    pair = ChangedPair(S["sphere2"], CH["randers_closed"])
    for p in pts[:20]:
        cp = pair.at(p.x, p.y)
        drift_err = max(
            drift_err,
            rel(cp.star.L(), cp.base.L() + cp.beta),
            rel(cp.gstar_closed(), cp.star.g_low()),
            rel(cp.ginv_star_closed(), cp.star.g_up()),
            rel(cp.cstar_mixed_closed(), cp.cstar_mixed_direct()),
        )
    assert drift_err <= 1e-8, f"pure-drift reduction: {drift_err:.3e}"
    done(3, f"identity exact; pure-scaling {scale_err:.1e} <= 1e-10; "
            f"pure-drift {drift_err:.1e} <= 1e-8")


# -- 4: the projectivity criterion separates geodesic-preserving changes ------

def test_criterion_4_projectivity():
    pair = ChangedPair(S["euclid2"], CH["projective"])
    pts, _ = sample_points(pair, 100, seed=104)
    defect = max(float(np.max(np.abs(cp.A_low()))) for cp in pts)
    assert defect <= 1e-12, f"projectivity obstruction {defect:.3e}"
    coll = max(cp.collinearity_defect() for cp in pts)
    assert coll <= 1e-8, f"collinearity defect {coll:.3e}"

    deviation = 0.0
    for cp in pts[:10]:
        base = integrate_geodesic(pair.base, cp.x, cp.y, 10.0, tol=1e-10)
        star = integrate_geodesic(pair.starred, cp.x, cp.y, 10.0, tol=1e-10)
        deviation = max(deviation, curve_set_deviation(base, star))
    assert deviation <= 1e-5, f"geodesic point-set deviation {deviation:.3e}"

    bad = ChangedPair(S["euclid2"], CH["conformal"])
    bad_defect = max(float(np.max(np.abs(bad.at(cp.x, cp.y).A_low())))
                     for cp in pts)
    assert bad_defect > 1e-3, f"non-constant scaling defect {bad_defect:.3e}"
    cfg = SuiteConfig(S["euclid2"], CH["conformal"], samples=20, seed=104)
    by_id = {r.check_id: r for r in run_suites(cfg, ["projectivity"])}
    assert "not projective" in by_id["proj.obstruction"].notes
    done(4, f"obstruction {defect:.1e} <= 1e-12, collinearity {coll:.1e} "
            f"<= 1e-8, geodesic deviation over t_end=10 x 10 starts "
            f"{deviation:.1e} <= 1e-5; non-constant scaling flagged not "
            f"projective ({bad_defect:.1e} > 1e-3)")


# -- 5: hypersurface frames and their transfer under tangential changes -------

def test_criterion_5_hypersurfaces():
    # generic closed curve + non-projective drift: frame relations and the
    # normal-value identity hold unconditionally on both sides
    frame_err = value_err = 0.0
    circ = ChangedHypersurface(S["euclid2"], CH["randers_nonclosed"],
                               resolve_spec("circle2"))
    upts, _ = sample_hyper_points(circ.base_h, 40, seed=105)
    for hp in upts:
        chp = ChangedHyperPoint(circ.pair, hp)
        frame_err = max(frame_err, chp.base.frame_residuals(),
                        chp.star.frame_residuals())
        value_err = max(value_err, rel(chp.gstar_on_normal(),
                                       chp.gstar_on_normal_closed()))
    assert frame_err <= 1e-10, f"frame relations {frame_err:.3e}"
    assert value_err <= 1e-10, f"normal-value identity {value_err:.3e}"

    # verified-projective change with drift tangent to the parabola:
    # normals and normal curvatures transfer by powers of sqrt(tau)
    pb = ChangedHypersurface(S["euclid2"], CH["tangent_parabola"],
                             resolve_spec("parabola2"))
    ppts, _ = sample_hyper_points(pb.base_h, 40, seed=105)
    chps = [ChangedHyperPoint(pb.pair, hp) for hp in ppts]
    proj_defect = max(float(np.max(np.abs(chp.cp.A_low()))) for chp in chps)
    assert proj_defect <= 1e-12, "change must be verified projective"
    tang = transfer = curv = 0.0
    for chp in chps:
        tang = max(tang, abs(chp.b_dot_normal()))
        transfer = max(
            transfer,
            rel(chp.star.normal_up(), chp.normal_transfer_closed()),
            rel(chp.star.normal_low(), chp.conormal_transfer_closed()))
        curv = max(curv, rel(chp.star.normal_curvature(),
                             np.sqrt(chp.cp.tau)
                             * chp.base.normal_curvature()))
    assert tang <= 1e-10, f"tangency {tang:.3e}"
    assert transfer <= 1e-9, f"normal transfer {transfer:.3e}"
    assert curv <= 1e-8, f"normal-curvature scaling {curv:.3e}"

    # hyperplane: totally geodesic before and after the change
    pl = ChangedHypersurface(S["euclid3"], CH["projective"],
                             resolve_spec("plane3"))
    plpts, _ = sample_hyper_points(pl.base_h, 25, seed=105)
    flat = 0.0
    for hp in plpts:
        chp = ChangedHyperPoint(pl.pair, hp)
        flat = max(flat, float(np.max(np.abs(chp.base.normal_curvature()))),
                   float(np.max(np.abs(chp.star.normal_curvature()))))
    assert flat <= 1e-10, f"hyperplane curvature {flat:.3e}"
    done(5, f"frames {frame_err:.1e} <= 1e-10, normal transfer "
            f"{transfer:.1e} <= 1e-9, curvature scaling {curv:.1e} <= 1e-8, "
            f"hyperplane flat on both sides {flat:.1e} <= 1e-10")


# -- 6: the projectively invariant tensors are actually invariant -------------

def test_criterion_6_projective_invariants():
    d_inv = w_inv = 0.0
    for mname, chname, count in (("euclid2", "projective", 15),
                                 ("sphere2", "projective", 15),
                                 ("euclid3", "projective3", 5),
                                 ("sphere3", "projective3", 5)):
        pair = ChangedPair(S[mname], CH[chname])
        pts, _ = sample_points(pair, count, seed=106)
        for cp in pts:
            d_inv = max(d_inv, float(np.max(np.abs(
                cp.star.douglas() - cp.base.douglas()))))
            w_inv = max(w_inv, float(np.max(np.abs(
                cp.star.weyl_proj() - cp.base.weyl_proj()))))
    assert d_inv <= 1e-8, f"douglas invariance {d_inv:.3e}"
    assert w_inv <= 1e-6, f"weyl invariance {w_inv:.3e}"

    d_quad = 0.0
    for mname in ("euclid2", "diag2", "sphere2", "curved3"):
        for pg in sample_base(mname, 10, seed=106):
            d_quad = max(d_quad, float(np.max(np.abs(pg.douglas()))))
    assert d_quad <= 1e-9, f"quadratic-base douglas {d_quad:.3e}"

    w_flat = 0.0
    for mname, count in (("euclid2", 10), ("diag2", 10), ("euclid3", 6),
                         ("sphere3", 6)):
        for pg in sample_base(mname, count, seed=106):
            w_flat = max(w_flat, float(np.max(np.abs(pg.weyl_proj()))))
    assert w_flat <= 1e-7, f"flat/constant-curvature weyl {w_flat:.3e}"

    # control: a base without constant flag curvature has a visible weyl
    # tensor, so the vanishing checks above have teeth
    w_curved = max(float(np.max(np.abs(pg.weyl_proj())))
                   for pg in sample_base("curved3", 5, seed=106))
    assert w_curved > 1e-2
    done(6, f"invariance douglas {d_inv:.1e} <= 1e-8 / weyl {w_inv:.1e} "
            f"<= 1e-6; quadratic douglas {d_quad:.1e} <= 1e-9; flat or "
            f"constant-curvature weyl {w_flat:.1e} <= 1e-7 (control base "
            f"weyl {w_curved:.1e})")


# -- 7: every tensor family against central finite differences ----------------

def _fd2_scalar(f, y, i, j, h):
    def at(di, dj):
        yy = np.array(y, dtype=float)
        yy[i] += di * h
        yy[j] += dj * h
        return f(yy)
    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * h * h)


def _fd3_vector(f, y, i, j, k, h):
    """Composed central differences D_i D_j D_k of a vector-valued f;
    valid for repeated indices."""
    acc = 0.0
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                yy = np.array(y, dtype=float)
                yy[i] += s1 * h
                yy[j] += s2 * h
                yy[k] += s3 * h
                acc = acc + (s1 * s2 * s3) * f(yy)
    return acc / (8.0 * h ** 3)


def test_criterion_7_fd_cross_checks():
    worst = {}
    rng = np.random.default_rng(107)

    def spot(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for mname in ("sphere2", "randers2"):
        for pg in sample_base(mname, 2, seed=107):
            space, n, x, y = pg.space, pg.n, pg.x, pg.y
            for _ in range(3):
                i, j, k = (int(v) for v in rng.integers(0, n, size=3))
                spot("support", rel(
                    pg.l_low()[i],
                    central_partial(lambda yy: np.sqrt(space.l2(x, yy)),
                                    y, i, 1e-5)))
                spot("fundamental", rel(
                    pg.g_low()[i, j],
                    0.5 * _fd2_scalar(lambda yy: space.l2(x, yy), y, i, j,
                                      1e-4)))
                spot("angular", rel(
                    pg.h_low()[i, j],
                    pg.g_low()[i, j]
                    - central_partial(lambda yy: np.sqrt(space.l2(x, yy)),
                                      y, i, 1e-5)
                    * central_partial(lambda yy: np.sqrt(space.l2(x, yy)),
                                      y, j, 1e-5)))
                spot("cartan", rel(
                    pg.C_low()[i, j, k],
                    0.5 * central_partial(
                        lambda yy: space.point(x, yy).g_low()[i, j],
                        y, k, 1e-5)))
                spot("connection", rel(
                    pg.n_conn()[i, j],
                    central_partial(
                        lambda yy: space.spray_values(x, yy)[i], y, j,
                        1e-5)))
                spot("berwald", rel(
                    pg.berwald()[i, j, k],
                    central_partial(
                        lambda yy: space.point(x, yy).n_conn()[i, j],
                        y, k, 1e-5)))
                spot("douglas", rel(
                    pg.douglas()[:, i, j, k],
                    _fd3_vector(
                        lambda yy: (space.point(x, yy).spray()
                                    - np.trace(space.point(x, yy).n_conn())
                                    * yy / (n + 1.0)),
                        y, i, j, k, 1e-3)))

            # spray from first principles: normal equations with every
            # derivative taken by finite differences
            g_fd = np.array([[0.5 * _fd2_scalar(
                lambda yy: space.l2(x, yy), y, a, b, 1e-4)
                for b in range(n)] for a in range(n)])
            rhs = np.empty(n)
            for l in range(n):
                dxdy = np.array([central_partial(
                    lambda xv: central_partial(
                        lambda yy: space.l2(xv, yy), y, l, 1e-4),
                    x, kk, 1e-4) for kk in range(n)])
                dx_l = central_partial(lambda xv: space.l2(xv, y), x, l,
                                       1e-5)
                rhs[l] = 0.25 * (y @ dxdy - dx_l)
            spot("spray", rel(pg.spray(), np.linalg.solve(g_fd, rhs)))

            # horizontal connection from finite-difference x and y
            # derivatives of the exact metric
            N = pg.n_conn()
            dg_x = np.stack([central_partial(
                lambda xv: space.point(xv, y).g_low(), x, kk, 1e-5)
                for kk in range(n)], axis=-1)
            dg_y = np.stack([central_partial(
                lambda yy: space.point(x, yy).g_low(), y, kk, 1e-5)
                for kk in range(n)], axis=-1)
            delta = dg_x - np.einsum("rkm,mj->rkj", dg_y, N)
            low = np.empty((n, n, n))
            for r in range(n):
                for a in range(n):
                    for b in range(n):
                        low[r, a, b] = 0.5 * (delta[r, b, a] + delta[r, a, b]
                                              - delta[a, b, r])
            spot("hconn", rel(pg.cartan_hconn(),
                              np.einsum("ir,rjk->ijk", pg.g_up(), low)))

            # curvature deviation from finite-difference x derivatives of
            # the exact spray and connection
            G, B = pg.spray(), pg.berwald()
            dG = np.stack([central_partial(
                lambda xv: space.spray_values(xv, y), x, kk, 1e-5)
                for kk in range(n)], axis=-1)
            dN = np.stack([central_partial(
                lambda xv: space.point(xv, y).n_conn(), x, kk, 1e-5)
                for kk in range(n)], axis=-1)
            r_fd = (2.0 * dG - np.einsum("j,ikj->ik", y, dN)
                    + 2.0 * np.einsum("j,ijk->ik", G, B) - N @ N)
            spot("curvature", rel(pg.riemann(), r_fd))
            spot("ricci", rel(pg.ric(), float(np.trace(r_fd))))

    # change-level derivative objects
    pair = ChangedPair(S["sphere2"], CH["randers_nonclosed"])
    cpts, _ = sample_points(pair, 2, seed=107)
    for cp in cpts:
        x, y = cp.x, cp.y
        db_fd = np.stack([central_partial(lambda xv: pair.change.at(xv)[2],
                                          x, kk, 1e-6)
                          for kk in range(pair.n)], axis=-1)
        spot("drift-jacobian", rel(cp.db, db_fd))
        dj_fd = np.stack([central_partial(
            lambda yy: (pair.starred.point(x, yy).spray()
                        - pair.base.point(x, yy).spray()), y, kk, 1e-5)
            for kk in range(pair.n)], axis=-1)
        spot("spray-difference", rel(cp.d_jacobian(), dj_fd))

    # torsion-type projective objects are only substantive in dimension 3
    pg = sample_base("curved3", 1, seed=107)[0]
    space, x, y = pg.space, pg.x, pg.y

    def a_part(yy):
        r = space.point(x, yy).riemann()
        return r - np.eye(3) * np.trace(r) / 2.0
    dA = np.stack([central_partial(a_part, y, kk, 1e-5)
                   for kk in range(3)], axis=-1)
    w_fd = a_part(y) - np.outer(y, np.einsum("mkm->k", dA)) / 4.0
    spot("weyl", rel(pg.weyl_proj(), w_fd))

    dW = np.stack([central_partial(
        lambda yy: space.point(x, yy).weyl_proj(), y, kk, 1e-5)
        for kk in range(3)], axis=-1)
    wt_fd = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            wt_fd[:, i, j] = (dW[:, j, i] - dW[:, i, j]) / 3.0
    spot("weyl-torsion", rel(pg.weyl_torsion(), wt_fd))

    bad = {name: err for name, err in worst.items() if err > 1e-5}
    assert not bad, f"finite-difference mismatches above 1e-5: {bad}"
    done(7, f"{len(worst)} families ({', '.join(sorted(worst))}); worst "
            f"{max(worst.values()):.1e} <= 1e-5")


# -- 8: reports are reproducible byte for byte --------------------------------

def test_criterion_8_determinism():
    def run_once(metric, change, hyper, suites):
        cfg = SuiteConfig(resolve_spec(metric), resolve_spec(change),
                          hyper=resolve_spec(hyper) if hyper else None,
                          samples=12, seed=108)
        recs = run_suites(cfg, suites)
        return emit_json_lines(Report(environment_block(108, {}), recs))

    combos = (
        ("euclid2", "tangent_parabola", "parabola2", None),
        ("sphere2", "conformal", None, ["projectivity", "geodesics"]),
        ("randers2", "identity", None, ["core-identities"]),
    )
    for metric, change, hyper, suites in combos:
        first = run_once(metric, change, hyper, suites)
        second = run_once(metric, change, hyper, suites)
        assert first.splitlines()[1:] == second.splitlines()[1:], \
            f"non-deterministic report for {metric}+{change}"
    done(8, f"{len(combos)} configurations re-run byte-identically below "
            f"the environment line")
