import importlib.util
import inspect
import json
import pathlib
import time

import numpy as np
import pytest

from finslerchange import core, hypersurface, suites
from finslerchange.change import ChangedPair
from finslerchange.cli import main
from finslerchange.core import FinslerSpace, PointGeometry
from finslerchange.geodesics import GeodesicError
from finslerchange.hypersurface import HypersurfaceGeometry
from finslerchange.jets import JetDomainError
from finslerchange.lang import (MetricSpec, parse_spec_text,
                                resolve_spec)
from finslerchange.report import (CheckRecord, Report, ReportError,
                                  emit_json_lines, emit_text, environment_block,
                                  errors_between, parse_json_lines)
from finslerchange.sampling import (SamplingError, sample_hyper_points,
                                    sample_pair_points, sample_points)
from finslerchange.suites import (DEFAULT_TOLS, SUITE_NAMES, SuiteConfig,
                                  SuiteRun, _judge, run_suites)

EUCLID2 = resolve_spec("euclid2")
IDENT = resolve_spec("identity")
SPHERE2 = resolve_spec("sphere2")
CONFORMAL = resolve_spec("conformal")


# --------------------------------------------------------------------- report

def test_report_roundtrip():
    env = environment_block(7, {"metric": "euclid2"})
    recs = [
        CheckRecord("a.one", "some-law", 10, 1e-12, 1e-12, 1e-10, "pass"),
        CheckRecord("a.two", "other-law", 10, 2e-3, 1e-3, 1e-8,
                    "reported-residual", "known discrepancy"),
        CheckRecord("a.three", "third-law", 0, 0.0, 0.0, 1e-8, "skipped",
                    "gated"),
    ]
    report = Report(env, recs)
    text = emit_json_lines(report)
    back = parse_json_lines(text)
    assert back.environment["seed"] == 7
    assert [r.verdict for r in back.records] == [r.verdict for r in recs]
    assert [r.check_id for r in back.records] == ["a.one", "a.two", "a.three"]
    assert back.records[1].max_abs_err == 2e-3


def test_report_text_format():
    env = environment_block(0, {})
    recs = [CheckRecord("x.y", "law", 5, 0.0, 0.0, 1e-10, "pass"),
            CheckRecord("x.z", "law2", 5, 1.0, 0.5, 1e-10, "fail")]
    out = emit_text(Report(env, recs))
    assert "2 checks: 1 pass, 1 fail" in out
    assert "x.y" in out and "x.z" in out


def test_report_validation():
    with pytest.raises(ReportError):
        CheckRecord("x", "l", 1, 0, 0, 1e-8, "maybe")
    with pytest.raises(ReportError):
        parse_json_lines('{"record": "check"}\n')
    with pytest.raises(ReportError):
        parse_json_lines("not json\n")
    env = emit_json_lines(Report(environment_block(0, {}), []))
    for row in ("[1]", "1", '"x"', "null"):
        with pytest.raises(ReportError, match="line 2: not a JSON object"):
            parse_json_lines(env + row + "\n")


def test_errors_between():
    a, r = errors_between([1.0, 2.0], [1.0, 2.0 + 1e-9])
    assert a == pytest.approx(1e-9)
    assert r == pytest.approx(1e-9 / 2.0)
    # zero-valued identities are judged absolutely
    a, r = errors_between(5e-11, 0.0)
    assert r == pytest.approx(5e-11)
    special, ordinary = _error_cases()
    for got, want in special + ordinary:
        with np.errstate(invalid="ignore", over="ignore"):
            measured = errors_between(got, want)
            reference = _errors_between_by_maxima(got, want)
        # repr compares NaN and the sign of zero too
        assert repr(measured) == repr(reference), (got, want)


# ------------------------------------------------------------------- sampling

def test_sampling_deterministic():
    pair = ChangedPair(EUCLID2, IDENT)
    one, rej1 = sample_points(pair, 10, seed=1)
    two, rej2 = sample_points(pair, 10, seed=1)
    assert rej1 == rej2 == 0
    for cp1, cp2 in zip(one, two):
        assert np.array_equal(cp1.x, cp2.x) and np.array_equal(cp1.y, cp2.y)
    other, _ = sample_points(pair, 10, seed=2)
    assert not np.array_equal(one[0].x, other[0].x)


def test_sampling_respects_domains():
    pts, _ = sample_points(ChangedPair(SPHERE2, IDENT), 50, seed=3)
    box = SPHERE2.x_box
    for cp in pts:
        assert np.all(cp.x >= box[:, 0]) and np.all(cp.x <= box[:, 1])
        assert 0.5 <= np.linalg.norm(cp.y) <= 1.5


def test_sampling_rejects_hopeless_domain():
    bad = parse_spec_text("dim 2\na_11 = -1\na_22 = -1\n", name="bad")
    with pytest.raises(SamplingError):
        sample_points(ChangedPair(bad, IDENT), 5, seed=0)
    with pytest.raises(SamplingError):
        sample_points(ChangedPair(EUCLID2, IDENT), 0, seed=0)


def test_pair_sampling_rejects_changed_negativity():
    # drift with norm > 1 on part of the box: candidates there must be
    # rejected because the changed value goes negative for some y
    big = parse_spec_text("b1 = 1.4 * x1\n", name="big-drift")
    pair = ChangedPair(EUCLID2, big)
    pts, rejected = sample_pair_points(pair, 30, seed=5)
    assert len(pts) == 30
    assert rejected > 0
    for x, y in pts:
        assert pair.starred.l2(x, y) > 0


def test_hyper_sampling():
    circle = resolve_spec("circle2")
    geom = HypersurfaceGeometry(circle, FinslerSpace(EUCLID2))
    pts, _ = sample_hyper_points(geom, 12, seed=1)
    assert len(pts) == 12
    box = circle.u_box
    for hp in pts:
        assert box[0, 0] <= hp.u[0] <= box[0, 1]
        assert 0.5 <= abs(hp.v[0]) <= 1.5
    again, _ = sample_hyper_points(geom, 12, seed=1)
    assert np.array_equal(pts[0].u, again[0].u)


# --------------------------------------------------------------------- suites

def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(EUCLID2, IDENT, samples=0)
    with pytest.raises(ValueError):
        SuiteConfig(EUCLID2, IDENT, tols={"no-such-tol": 1e-3})
    with pytest.raises(ValueError):
        run_suites(SuiteConfig(EUCLID2, IDENT, samples=5), ["bogus-suite"])
    for value in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            SuiteConfig(EUCLID2, IDENT, tols={"euler": value})


def test_identity_run_all_green():
    cfg = SuiteConfig(EUCLID2, IDENT, samples=15, seed=1)
    records = run_suites(cfg)
    ids = [r.check_id for r in records]
    assert len(ids) == len(set(ids)), "check ids must be unique"
    assert not [r for r in records if r.verdict == "fail"]
    assert ids[0] == "valid.homogeneity"
    # hypersurface checks present but skipped (none supplied)
    hyper = [r for r in records if r.check_id.startswith("hyper.")]
    assert hyper and all(r.verdict == "skipped" for r in hyper)


def test_conformal_run_gates_projective_checks():
    cfg = SuiteConfig(SPHERE2, CONFORMAL, samples=12, seed=2)
    records = {r.check_id: r for r in run_suites(
        cfg, ["projectivity", "invariants-5"])}
    obs = records["proj.obstruction"]
    assert obs.verdict == "reported-residual"
    assert "not projective" in obs.notes
    assert obs.max_abs_err > 1e-3
    for gated in ("proj.collinearity", "proj.geodesic-deviation",
                  "inv5.douglas-invariance", "inv5.weyl-invariance"):
        assert records[gated].verdict == "skipped"
    assert not [r for r in records.values() if r.verdict == "fail"]


def test_stopped_geodesics_are_named_in_notes():
    # the changed path from x0 = (1.424, 0.529) runs into a degenerate g
    cfg = SuiteConfig(EUCLID2, resolve_spec("tangent_parabola"),
                      resolve_spec("parabola2"), samples=12, seed=108)
    records = {r.check_id: r for r in run_suites(
        cfg, ["projectivity", "geodesics"])}
    stopped = "1 left its domain at t = 1.49"
    assert records["proj.geodesic-deviation"].notes == (
        "4/5 initial conditions integrated to t = 2.0; " + stopped)
    assert records["geo.projective-deviation"].notes == (
        "4/5 initial conditions integrated; " + stopped)
    assert records["geo.projective-deviation"].samples == 4
    assert records["geo.value-conservation"].notes == (
        "5/5 initial conditions integrated to t = 2.0")
    assert records["geo.retrace"].notes == ""


def test_cached_geodesic_errors_hold_no_frames(monkeypatch):
    # a step that leaves the domain raises from a JetDomainError, whose
    # traceback holds the integrator's frame and its path lists
    run = SuiteRun(SuiteConfig(EUCLID2, resolve_spec("projective"),
                               samples=3, seed=5))
    integrate = suites.integrate_geodesic

    def changed_side_fails(space, x, y, t_end, tol):
        if space is run.pair.base:
            return integrate(space, x, y, t_end, tol=tol)
        try:
            raise JetDomainError("L^2 is not positive")
        except JetDomainError as exc:
            raise GeodesicError("metric left its domain during a step at "
                                f"t = 0.5: {exc}", "domain", 0.5) from exc
    monkeypatch.setattr(suites, "integrate_geodesic", changed_side_fails)
    errors = run.geodesic_pairs()
    assert len(errors) == len(run.geodesic_ics()) > 0
    for exc in errors:
        assert (exc.kind, exc.t) == ("domain", 0.5)
        assert str(exc).startswith("metric left its domain during a step")
        assert exc.__traceback__ is None
        assert exc.__cause__ is None and exc.__context__ is None


RANDERS3 = parse_spec_text(
    "dim 3\nL = sqrt(y1^2 + y2^2 + y3^2) + 0.1 * (x2 * y1 - x1 * y2)"
    " + 0.05 * x1 * y3\nx_box = -0.5 0.5 -0.5 0.5 -0.5 0.5\n",
    name="randers3")


@pytest.mark.parametrize("metric,change,weyl_size,weyl_invariance", [
    # Douglas 0.43: not projectively flat, though W vanishes in 2D
    ("randers2", "projective", "Douglas tensor nonzero: not projectively "
     "flat", "holds trivially: both Weyl tensors vanish identically in "
     "dimension 2"),
    # quadratic, so D = 0; in 2D that does not decide flatness
    ("sphere2", "projective", "Weyl vanishes identically in dimension 2; "
     "flatness not decided", "holds trivially: both Weyl tensors vanish "
     "identically in dimension 2"),
    ("curved3", "projective3", "nonzero projective curvature at samples", ""),
    ("euclid3", "projective3", "projectively flat at samples", ""),
    (RANDERS3, "projective3", "Douglas tensor nonzero: not projectively "
     "flat", ""),
], ids=("randers2", "sphere2", "curved3", "euclid3", "randers3"))
def test_flatness_note_reads_douglas_and_dimension(metric, change, weyl_size,
                                                   weyl_invariance):
    metric = resolve_spec(metric) if isinstance(metric, str) else metric
    cfg = SuiteConfig(metric, resolve_spec(change), samples=3, seed=5)
    records = {r.check_id: r for r in run_suites(cfg, ["invariants-5"])}
    size = records["inv5.base-weyl-size"]
    assert size.notes == weyl_size
    assert size.verdict == "reported-residual"
    assert records["inv5.weyl-invariance"].notes == weyl_invariance
    assert records["inv5.weyl-invariance"].verdict == "pass"


def test_suite_run_evaluates_each_sample_once(monkeypatch):
    # The pair sampler builds no point: its samples are columns of their
    # chunks' blocks.  The hypersurface sampler returns the geometry it
    # admitted each draw with, so a run builds one base PointGeometry per
    # hypersurface draw and evaluates the embedding once per draw.
    spaces, embeddings = [], []
    init, lift = PointGeometry.__init__, hypersurface.lift_env

    def counted_init(self, space, *args):
        spaces.append(space)
        init(self, space, *args)

    def counted_lift(*args, **kwargs):
        embeddings.append(kwargs)
        return lift(*args, **kwargs)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(hypersurface, "lift_env", counted_lift)
    run = SuiteRun(SuiteConfig(EUCLID2, resolve_spec("tangent_parabola"),
                               resolve_spec("parabola2"), samples=12,
                               seed=108))
    assert len(run.coords()) == 12 and run.sampled()[1] == 0
    assert spaces == []
    assert len(run.chpoints()) == 12
    assert sum(space is run.pair.base for space in spaces) == 12
    assert len(embeddings) == 12


def test_check_table_fixes_ids_and_tolerances():
    # Between them these configurations open and close every gate: no
    # hypersurface / drift off the normal / drift tangential, projective or
    # not, quadratic or not, reversible or not, base hypersurface curved or
    # totally geodesic.
    configs = [("euclid2", "identity", None),
               ("randers2", "conformal", None),
               ("euclid2", "randers_closed", "circle2"),
               ("sphere2", "conformal", "circle2"),
               ("euclid3", "projective3", "plane3")]
    runs = [run_suites(SuiteConfig(resolve_spec(m), resolve_spec(c),
                                   resolve_spec(h) if h else None,
                                   samples=2, seed=1))
            for m, c, h in configs]
    # valid.frame-rank is emitted only with a hypersurface; every suite
    # record comes from the check table, in table order.
    id_lists = [[r.check_id for r in recs
                 if not r.check_id.startswith("valid.")] for recs in runs]
    assert all(ids == id_lists[0] for ids in id_lists)
    tols = {}
    for recs in runs:
        for r in recs:
            assert tols.setdefault(r.check_id, r.tol) == r.tol, r.check_id
    notes = " ".join(r.notes for recs in runs for r in recs
                     if r.verdict == "skipped")
    for closed in ("no hypersurface spec", "gated on tangency",
                   "gated on projectivity", "metric is not quadratic",
                   "metric is irreversible", "not totally geodesic"):
        assert closed in notes
    measured = {r.check_id for recs in runs for r in recs
                if r.verdict != "skipped"}
    assert measured == set(tols)


def test_nan_error_fails_the_check():
    _, abs_err, rel_err, verdict, _ = _judge(
        3, [(np.array([np.nan, 1.0]), 0.0)], 1e-10)
    assert verdict == "fail"
    assert np.isnan(abs_err) and np.isnan(rel_err)
    # a NaN survives later finite errors, and fails a reported residual too
    _, abs_err, rel_err, verdict, _ = _judge(
        3, [(1.0, 1.0), (np.nan, 0.0), (2.0, 1.0)], 1e-10, residual=True)
    assert verdict == "fail"
    assert np.isnan(abs_err) and np.isnan(rel_err)
    assert _judge(1, [(1.0, 1.0)], 1e-10) == (1, 0.0, 0.0, "pass", "")


def _errors_between_by_maxima(got, want):
    """Reference for ``errors_between``: (max abs, max rel) of one pair,
    the relative error over max(1, |got|, |want|) by Python's ``max``."""
    a = np.asarray(got, dtype=float)
    b = np.asarray(want, dtype=float)
    abs_err = float(np.max(np.abs(a - b))) if a.size else 0.0
    den = max(1.0,
              float(np.max(np.abs(a))) if a.size else 0.0,
              float(np.max(np.abs(b))) if b.size else 0.0)
    return abs_err, abs_err / den


def _judge_by_pairs(samples, pairs, tol, residual=False, notes=""):
    """Reference for ``_judge``: one error measure per pair."""
    abs_err = rel_err = 0.0
    for got, want in pairs:
        a, r = _errors_between_by_maxima(got, want)
        abs_err = float(np.maximum(abs_err, a))
        rel_err = float(np.maximum(rel_err, r))
    within = rel_err <= tol
    if not isinstance(notes, str):
        notes = notes[0] if within else notes[1]
    verdict = ("fail" if np.isnan(abs_err) or np.isnan(rel_err)
               else "reported-residual" if residual
               else "pass" if within else "fail")
    return samples, abs_err, rel_err, verdict, notes


def _error_cases():
    """(special, ordinary) (got, want) pairs of the error measure tests."""
    nan, inf = np.nan, np.inf
    rng = np.random.default_rng(5)
    special = [
        (np.array([nan, 1.0]), np.array([1.0, 1.0])),
        (np.array([1.0, 2.0]), np.array([1.0, nan])),
        (inf, 1.0), (1.0, -inf), (-inf, -inf), (np.array([inf, 0.5]), 0.0),
        (np.array([-0.0, 0.0]), 0.0), (-0.0, np.array([0.0, -0.0])),
        (np.array([3.0, -4.0]), 0.0), (np.array([1e308]), -1e308),
        (np.zeros(0), np.zeros(0)), (np.zeros(0), 1.0),
        (np.zeros(0), np.array([nan])),
    ]
    # points whose pairs mix shapes, and scalars against arrays
    ordinary = []
    for _ in range(6):
        v, m = rng.normal(size=2), rng.normal(size=(2, 2))
        ordinary += [(float(v[0]), float(v[0]) + 1e-12), (v, v * 1.5),
                     (m @ v, 0.0), (m, m.T), (np.einsum("ij,k->ijk", m, v),
                                              rng.normal(size=(2, 2, 2)))]
    return special, ordinary


def test_judge_matches_errors_between_pair_by_pair():
    special, ordinary = _error_cases()
    cases = ([[]] + [[pair] for pair in special + ordinary]
             + [ordinary, special + ordinary, ordinary + special[::-1]])
    for pairs in cases:
        for residual in (False, True):
            for notes in ("", ("within", "beyond")):
                with np.errstate(invalid="ignore", over="ignore"):
                    got = _judge(len(pairs), iter(pairs), 1e-10, residual,
                                 notes)
                    want = _judge_by_pairs(len(pairs), pairs, 1e-10,
                                           residual, notes)
                # repr compares NaN and the sign of zero too
                assert repr(got) == repr(want), pairs


# The rows that measure the sampled points on their block forms; the
# obstruction row reads them too, through ``projectivity_defect``.
SAMPLED_ROWS = ("valid.regularity",) + tuple(
    row[0] for row in suites.CHECKS["core-identities"][:8]
    + suites.CHECKS["change-identities"] + suites.CHECKS["projectivity"][1:2])
SQRT2 = parse_spec_text("dim 2\nL2 = (y1^2 + y2^2) * sqrt(x1 + 0.3)\n"
                        "x_box = -1 1 -1 1\n", name="sqrt2")
# A 3D Randers metric: its Cartan tensor and Berwald connection depend on
# y, so the rows that contract them with a block's y see its layout (a
# transposed view of the block's y sums in another order than the lone
# point's y in numpy's einsum)
RANDERS3 = parse_spec_text(
    "dim 3\nL = sqrt(y1^2 + y2^2 + y3^2) + 0.1 * (x2 * y1 - x1 * y2)"
    " + 0.05 * x1 * y3\nx_box = -1 1 -1 1 -1 1\n", name="randers3")


def _homogeneity_by_points(run, tol):
    """Reference for ``valid.homogeneity``: one ``lam`` and two lone
    float ``l2`` per sample, base before the changed side, judged pair by
    pair."""
    rng = np.random.default_rng([run.cfg.seed, 11])
    values = [Ls for cb in run.cblocks()
              for Ls in zip(cb.base.L().tolist(), cb.star.L().tolist())]
    pairs = []
    for (x, y), Ls in zip(run.coords(), values, strict=True):
        lam = rng.uniform(0.5, 2.0)
        for space, L in zip((run.pair.base, run.pair.starred), Ls):
            pairs.append((np.sqrt(space.l2(x, lam * y)), lam * L))
    return _judge_by_pairs(len(values), pairs, tol)


# Admitted at |y|^2 >= 0.36, its L^2 is negative at |lam y|^2 < 0.3, where
# the changed side's sqrt raises, and its power raises at |lam y|^2 < 0.2.
SHRINKING = parse_spec_text(
    "dim 2\nL2 = y1^2 + y2^2 - 0.3 + 0 * (y1^2 + y2^2 - 0.2)^0.5\n"
    "y_annulus = 0.6 1.5\n", name="shrinking")


@pytest.mark.parametrize("metric, change, samples, seed", [
    ("randers2", "projective", 300, 1), (SQRT2, "projective", 300, 1),
    ("sphere2", "conformal", 50, 108), (SHRINKING, "projective", 20, 1)],
    ids=["randers2", "sqrt2", "sphere2", "shrinking"])
def test_homogeneity_equals_the_per_point_probes(metric, change, samples,
                                                 seed):
    metric = resolve_spec(metric) if isinstance(metric, str) else metric
    cfg = SuiteConfig(metric=metric, change=resolve_spec(change),
                      samples=samples, seed=seed)
    run = SuiteRun(cfg)
    tol = cfg.tol("euler")
    if metric is not SHRINKING:
        got = suites._homogeneity(run, tol)
        assert repr(got) == repr(_homogeneity_by_points(run, tol))
        return
    # a sample whose changed side raises comes before the first whose
    # base raises: the row raises the changed side's error, as the
    # samples taken one by one do
    with np.errstate(invalid="ignore"):
        with pytest.raises(JetDomainError, match="sqrt domain") as want:
            _homogeneity_by_points(run, tol)
        with pytest.raises(JetDomainError) as got:
            suites._homogeneity(run, tol)
    assert str(got.value) == str(want.value)
    lam = np.random.default_rng([seed, 11]).uniform(0.5, 2.0, size=samples)
    with pytest.raises(JetDomainError, match="power 0.5 of negative"):
        run.pair.base.l2(np.transpose([x for x, _ in run.coords()]),
                         np.transpose([y for _, y in run.coords()]) * lam)


def _lone_pairs(cp):
    """The (got, want) values of each sampled row at a lone
    ``ChangedPoint``, as the rows computed them point by point: one-point
    numpy and Python floats (``L ** 3``, ``a @ b``), from the point's
    tensors and its sigma and b.  The reference of the block forms' rows,
    with |A_i| of the obstruction under "A"."""
    b, s, y = cp.base, cp.star, cp.y
    bl, g_up, h, yl, C = cp.b_low, b.g_up(), b.h_low(), b.y_low(), b.C_low()
    L, esig, beta = b.L(), float(np.exp(cp.sigma)), float(bl @ y)
    Lstar = esig * L + beta
    tau = esig * Lstar / L
    b_up = g_up @ bl
    a = beta * yl / L ** 2 - bl
    a_up = g_up @ a
    phi = (np.exp(-2.0 * cp.sigma) * (L * esig * float(bl @ b_up) + beta)
           / Lstar ** 3)
    hstar = tau * h
    gstar = (tau * b.g_low() + np.outer(bl, bl)
             + esig / L * (np.outer(bl, yl) + np.outer(yl, bl))
             - beta * esig / L ** 3 * np.outer(yl, yl))
    ginv = (g_up / tau + phi * np.outer(y, y)
            - (np.outer(y, b_up) + np.outer(b_up, y)) / (L * tau ** 2))
    sym = (np.einsum("ij,k->ijk", h, a) + np.einsum("jk,i->ijk", h, a)
           + np.einsum("ki,j->ijk", h, a))
    h_mix = g_up @ h
    mixed = (b.C_up()
             - (np.einsum("ji,k->jik", h_mix, a)
                + np.einsum("jk,i->jik", h_mix, a)
                + np.einsum("ik,j->jik", h, a_up)) / (2.0 * Lstar)
             - np.einsum("ikr,r,j->jik", C, b_up, y) / (tau * L)
             - np.einsum("ik,j->jik", 2.0 * np.outer(a, a)
                         + float(a @ a_up) * h, y) / (tau * 2.0 * L * Lstar))
    bc = cp.db - np.einsum("r,rij->ij", bl, b.cartan_hconn())
    E, F = 0.5 * (bc + bc.T), 0.5 * (bc - bc.T)
    D = s.spray() - b.spray()
    resid = D - float(D @ y) / float(y @ y) * y
    A = esig * L * cp.grad_sigma + (cp.db.T - cp.db) @ y
    return {
        "valid.regularity": [(abs(b.det_g()), 0.0), (abs(s.det_g()), 0.0)],
        "core.value-from-support": [(b.l_low() @ y, b.L())],
        "core.metric-restores-value": [(y @ b.g_low() @ y, b.L() * b.L())],
        "core.angular-kills-support": [(h @ y, 0.0)],
        "core.cartan-kills-support": [(np.einsum("ijk,k->ij", C, y), 0.0)],
        "core.connection-euler": [(b.n_conn() @ y, 2 * b.spray())],
        "core.berwald-euler": [(np.einsum("ijk,k->ij", b.berwald(), y),
                                b.n_conn())],
        "core.hconn-euler": [(np.einsum("ijk,j->ik", b.cartan_hconn(), y),
                              b.n_conn())],
        "core.curvature-kills-support": [(b.riemann() @ y, 0.0)],
        "change.value-closed-form": [(Lstar, s.L()),
                                     (esig * b.l_low() + bl, s.l_low())],
        "change.angular-closed-form": [(hstar, s.h_low())],
        "change.metric-closed-form": [(gstar, s.g_low())],
        "change.cartan-closed-form": [(tau * (C - sym / (2.0 * Lstar)),
                                       s.C_low())],
        "change.inverse-closed-form": [(ginv, s.g_up())],
        "change.mixed-cartan-closed-form": [
            (mixed, np.einsum("jr,rik->jik", s.g_up(), s.C_low()))],
        "change.support-orthogonal": [(a @ y, 0.0), (hstar @ y, 0.0)],
        "change.hcov-split": [(bc, E + F), (E, E.T), (F, -F.T)],
        "proj.collinearity": [(float(np.max(np.abs(resid))
                                     / max(1.0, np.max(np.abs(D)))), 0.0)],
        "A": float(np.max(np.abs(A))),
    }


@pytest.mark.parametrize("metric,change,samples,seed", [
    # seven full chunks and a tail of 208 points
    ("randers2", "projective", 2000, 1),
    ("curved3", "projective3", 30, 108),
    # rejected draws: blocks built again at the kept draws
    ("sphere2", "tangent_parabola", 200, 1),
    # most blocks' construction raises
    (SQRT2, "projective", 300, 1),
    (RANDERS3, "projective3", 30, 108)],
    ids=["randers2-n2000", "curved3-n30", "sphere2-n200", "sqrt2-n300",
         "randers3-n30"])
def test_block_rows_equal_lone_rows_bit_for_bit(monkeypatch, metric, change,
                                                samples, seed):
    run = SuiteRun(SuiteConfig(
        resolve_spec(metric) if isinstance(metric, str) else metric,
        resolve_spec(change), samples=samples, seed=seed))
    lone = [_lone_pairs(run.pair.at(x, y)) for x, y in run.coords()]
    measured = []
    stacked_errors = suites.stacked_errors

    def capture(pairs):
        measured.append(list(pairs))
        return stacked_errors(measured[-1])

    monkeypatch.setattr(suites, "stacked_errors", capture)
    # admission evaluated every block's order-2 jet, and built no point
    calls = []
    eval_l2 = MetricSpec.eval_l2

    def counting(self, env):
        calls.append((env["x1"].order, env["x1"].coeffs.shape[1:]))
        return eval_l2(self, env)

    monkeypatch.setattr(MetricSpec, "eval_l2", counting)
    rows = {row[0]: row for rows in suites.CHECKS.values() for row in rows}
    rows["valid.regularity"] = suites._VALIDATION[2]
    for check_id in SAMPLED_ROWS:
        measured.clear()
        record = suites._record(run, rows[check_id])
        want = [pair for point in lone for pair in point[check_id]]
        if check_id == "valid.regularity":
            floor = min([np.inf] + [got for got, _ in want])
            assert record.notes == f"min |det g| = {floor:.3e}"
            continue
        if record.verdict == "skipped":
            assert check_id == "proj.collinearity"
            continue
        # per point: the block forms' arrays, point axis first, in sample
        # order, and the same values at the lone point, bit for bit
        (stacks,) = measured
        per_point = len(lone[0][check_id])
        for k in range(per_point):
            for side in (0, 1):
                column = np.concatenate([
                    np.full(len(pair[0]), pair[side]) if np.ndim(pair[side])
                    == 0 else np.asarray(pair[side], dtype=float)
                    for pair in stacks[k::per_point]])
                assert len(column) == len(lone), check_id
                for p, point in enumerate(lone):
                    ref = np.asarray(point[check_id][k][side], dtype=float)
                    assert column[p].tobytes() == ref.tobytes(), (
                        check_id, k, side, p)
        # each point's error reduced before the maximum, as pair by pair
        residual = check_id in ("change.inverse-closed-form",
                                "change.mixed-cartan-closed-form")
        with np.errstate(invalid="ignore"):
            reference = _judge_by_pairs(
                len(lone), want, record.tol, residual,
                suites._FIT if residual else "")
        assert repr(reference) == repr((
            record.samples, record.max_abs_err, record.max_rel_err,
            record.verdict, record.notes)), check_id
    assert run.projectivity_defect() == max(point["A"] for point in lone)
    # no point or block evaluated its order-2 jet after admission: where
    # a block's construction raised (in most chunks of sqrt2), admission
    # built it again at the kept draws, and no row reads a lone point
    assert not [call for call in calls if call[0] == 2], calls


def test_sampled_rows_stay_on_blocks(monkeypatch):
    # sampling judges the draws from the rows of their blocks, and the rows
    # that measure the sampled points read the blocks' tensors: no point is
    # built and none computes a light tensor of its own
    config = SuiteConfig(resolve_spec("randers2"), resolve_spec("projective"),
                         samples=300, seed=1)
    built, at, lone = [], [], []
    init, pair_at = PointGeometry.__init__, ChangedPair.at

    def counted_init(self, space, x, y):
        built.append(space)
        init(self, space, x, y)

    def counted_at(self, x, y, *args):
        at.append((x.tobytes(), y.tobytes()))
        return pair_at(self, x, y, *args)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(ChangedPair, "at", counted_at)
    for name in core.ROW_TENSORS:
        def tensor(self, _method=getattr(PointGeometry, name), _name=name):
            lone.append(_name)
            return _method(self)
        monkeypatch.setattr(PointGeometry, name, tensor)
    points, _ = sample_points(ChangedPair(config.metric, config.change),
                              300, 1)
    assert len(points) == 300 and built == [] and at == []
    run = SuiteRun(config)
    assert len(run.coords()) == 300
    rows = {row[0]: row for rows in suites.CHECKS.values() for row in rows}
    rows["valid.regularity"] = suites._VALIDATION[2]
    records = [suites._record(run, rows[check_id])
               for check_id in SAMPLED_ROWS + ("proj.obstruction",)]
    assert [r.verdict for r in records].count("skipped") == 0
    assert built == [] and at == [] and lone == []
    # the per-point rows read lone points
    suites._record(run, rows["core.fd-cartan"])
    assert built and at and lone
    # a whole run builds the lone point of each of the first 25 samples
    # once, which the heavy, invariant and finite-difference rows share
    at.clear()
    run_suites(config)
    assert at == [(x.tobytes(), y.tobytes()) for x, y in points.coords[:25]]


def test_suite_selection_subset():
    cfg = SuiteConfig(EUCLID2, IDENT, samples=5, seed=0)
    records = run_suites(cfg, ["geodesics"])
    ids = {r.check_id.split(".")[0] for r in records}
    assert ids == {"valid", "geo"}


def test_tolerance_override_changes_verdicts():
    # an impossibly tight tolerance must flip exact-arithmetic checks
    cfg = SuiteConfig(EUCLID2, IDENT, samples=5, seed=1,
                      tols={"euler": 1e-30})
    records = run_suites(cfg, ["core-identities"])
    assert any(r.verdict == "fail" for r in records)


def test_reports_are_deterministic():
    def run_once():
        cfg = SuiteConfig(EUCLID2, resolve_spec("projective"),
                          samples=8, seed=11)
        recs = run_suites(cfg, ["change-identities", "projectivity"])
        return emit_json_lines(Report(environment_block(11, {}), recs))
    first, second = run_once(), run_once()
    strip = lambda s: s.splitlines()[1:]
    assert strip(first) == strip(second)


# ------------------------------------------------------------------------ cli

def test_cli_verify_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["verify", "--metric", "euclid2", "--change", "identity",
                 "--samples", "8", "--seed", "1", "--report", str(out)])
    assert code == 0
    body = out.read_text()
    assert "0 fail" in body


def test_cli_verify_takes_jet_exponents(tmp_path):
    # e^x1 is a power with a jet exponent, which sampling evaluates on
    # blocks of points
    spec = tmp_path / "exp.fspec"
    spec.write_text("dim 2\nL2 = (y1^2 + y2^2) * e^x1\n")
    out = tmp_path / "report.txt"
    code = main(["verify", "--metric", str(spec), "--samples", "5",
                 "--seed", "1", "--suite", "core-identities",
                 "--report", str(out)])
    assert code == 0
    assert "0 fail" in out.read_text()


def test_cli_verify_exit_one_on_failure(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["verify", "--metric", "euclid2", "--samples", "5",
                 "--seed", "1", "--suite", "core-identities",
                 "--tol", "euler=1e-30", "--report", str(out)])
    assert code == 1


def test_cli_verify_json_lines_roundtrip(tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--metric", "euclid2", "--change", "projective",
                 "--samples", "6", "--seed", "3", "--suite", "projectivity",
                 "--format", "json-lines", "--report", str(out)])
    assert code == 0
    report = parse_json_lines(out.read_text())
    assert report.environment["metric"] == "euclid2"
    by_id = {r.check_id: r for r in report.records}
    assert by_id["proj.obstruction"].verdict == "pass"


def test_cli_config_errors(tmp_path, capsys):
    assert main(["verify", "--metric", "no-such-spec"]) == 2
    assert main(["verify", "--metric", "euclid2",
                 "--tol", "bogus=1"]) == 2
    assert main(["verify", "--metric", "euclid2",
                 "--tol", "euler=batman"]) == 2
    assert main(["verify", "--metric", "euclid2",
                 "--tol", "euler=inf"]) == 2
    assert main(["parse", "--check", "/nonexistent/path.fspec"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # a metric that uses no y
    spec = tmp_path / "const.fspec"
    for text in ("dim 2\nL2 = 4\n", "dim 2\nL = 2\n"):
        spec.write_text(text)
        assert main(["verify", "--metric", str(spec), "--samples", "3"]) == 2
        assert main(["geodesic", "--metric", str(spec), "--x0", "0", "0",
                     "--y0", "0.6", "0.8", "--t-end", "1"]) == 2
    err = capsys.readouterr().err
    assert "uses no y variable" in err and "Traceback" not in err


def test_cli_overflowing_spec_rejects_draws_or_exits_two(tmp_path, capsys):
    spec = tmp_path / "ovf.fspec"
    spec.write_text("dim 2\nL2 = (y1^2 + y2^2) * (1 + exp(800*x1)^0)\n"
                    "x_box = -2 2 -2 2\n")
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--metric", str(spec), "--samples", "6",
                 "--seed", "1", "--suite", "core-identities",
                 "--format", "json-lines", "--report", str(out)]) == 0
    by_id = {r.check_id: r for r in parse_json_lines(out.read_text()).records}
    rejected = int(by_id["valid.positivity"].notes.split()[0])
    assert rejected > 0
    spec.write_text("dim 2\nL2 = (y1^2 + y2^2) * (1 + x1^(1e300*1e300))\n")
    assert main(["verify", "--metric", str(spec), "--samples", "6"]) == 2
    for text in ("dim 2\nL2 = (y1^2 + y2^2) * 1e400\n",
                 "dim = 1e400\nL2 = y1^2 + y2^2\n"):
        spec.write_text(text)
        assert main(["parse", "--check", str(spec), "--canonical"]) == 2
    err = capsys.readouterr().err
    assert "overflows to infinity" in err and "Traceback" not in err


def test_cli_tol_env_var(tmp_path, monkeypatch):
    out = tmp_path / "r.txt"
    monkeypatch.setenv("FINSLERCHANGE_TOLS", "euler=1e-30")
    argv = ["verify", "--metric", "euclid2", "--samples", "5",
            "--seed", "1", "--suite", "core-identities",
            "--report", str(out)]
    assert main(argv) == 1
    # explicit flag wins over the environment
    assert main(argv + ["--tol", "euler=1e-10"]) == 0


def test_cli_geodesic_dump(tmp_path):
    out = tmp_path / "path.txt"
    code = main(["geodesic", "--metric", "euclid2", "--x0", "0", "0",
                 "--y0", "0.6", "0.8", "--t-end", "2", "--tol", "1e-10",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# t x1 x2 y1 y2")
    last_data = [l for l in lines if not l.startswith("#")][-1]
    t, x1, x2, y1, y2 = map(float, last_data.split())
    assert t == pytest.approx(2.0)
    assert (x1, x2) == (pytest.approx(1.2), pytest.approx(1.6))
    assert lines[-1].startswith("# steps=")


def test_cli_geodesic_enforce_box():
    code = main(["geodesic", "--metric", "euclid2", "--x0", "0", "0",
                 "--y0", "1", "0", "--t-end", "10", "--enforce-box"])
    assert code == 2


def test_cli_geodesic_rejects_a_non_finite_start_at_once():
    start = time.perf_counter()
    code = main(["geodesic", "--metric", "euclid2", "--x0", "nan", "0",
                 "--y0", "0.6", "0.8", "--t-end", "1"])
    assert code == 2
    assert time.perf_counter() - start < 1.0


def test_cli_parse(capsys):
    assert main(["parse", "--check", "sphere2"]) == 0
    out = capsys.readouterr().out
    assert "metric spec" in out and "dim 2" in out and "quadratic" in out
    assert main(["parse", "--check", "identity"]) == 0
    out = capsys.readouterr().out
    assert "change spec" in out and "identity" in out


def test_cli_parse_canonical_roundtrip(tmp_path, capsys):
    assert main(["parse", "--check", "randers2", "--canonical"]) == 0
    canon = capsys.readouterr().out.split("\n", 1)[1]
    p = tmp_path / "again.fspec"
    p.write_text(canon)
    assert main(["parse", "--check", str(p), "--canonical"]) == 0
    again = capsys.readouterr().out.split("\n", 1)[1]
    assert canon == again


def test_default_tols_cover_suite_names():
    # every suite name is valid and every tolerance is positive
    assert set(SUITE_NAMES) == {"core-identities", "change-identities",
                                "projectivity", "hypersurface",
                                "invariants-5", "geodesics"}
    assert all(v > 0 for v in DEFAULT_TOLS.values())


def test_names_the_benchmark_traces_resolve_in_the_package():
    # the tracer wraps public functions and methods in place, by the name
    # it reads here; a renamed one would record zeros, not fail.  Loading
    # it only binds its names; it installs nothing.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert list(tracer.SUITE_SPANS) == ["validation", *SUITE_NAMES]
    names = [*tracer.SUITE_SPANS.values(), tracer._SPRAY, tracer._INTEGRATE,
             tracer._DEVIATION, tracer._EVAL_L2, tracer._SOLVE]
    for name in names:
        layer, *path = name.split(".")
        assert layer in tracer.LAYERS, name
        module = importlib.import_module("finslerchange." + layer)
        obj = module
        for part in path:
            assert not part.startswith("_"), name
            obj = vars(obj)[part]
        assert inspect.isfunction(obj), name
        owner = vars(module)[path[0]]
        assert owner.__module__ == module.__name__, name
