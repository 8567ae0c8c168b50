"""Verification suites, declared as one check table.

``CHECKS`` maps each suite's name to its tuple of rows ``(check id,
law, tolerance name, gates, measurement)``; its keys, in order, are
``SUITE_NAMES``.  A gate is a function of the run that returns None when
the check applies, else the note of a ``skipped`` record; the first
closed gate supplies the note.  A measurement maps ``(run, tol)`` to
``(samples, max abs error, max rel error, verdict, notes)``.  ``_record``
turns a row into its record, so every configuration emits the same ids
in the same order, each with its own tolerance.  Adding a check means
adding a row.

Every row over the sampled points (``_sampled``) measures block forms,
``change.ChangedBlock``s: arrays whose first axis indexes points, each
point's error reduced before the maximum (``report.stacked_errors``),
over every sample (``SuiteRun.cblocks``) or, for the heavy rows (Weyl,
Douglas, ``inv5``), whose order-6 jets cost more, over the first
samples, as one block (``SuiteRun.heavy``).  The hypersurface rows
(``_hyper``) measure the block form of the hypersurface's points
(``SuiteRun.chpoints``), and the finite-difference rows probe one
``core.PointBlock`` or float values; only the geodesic rows measure
path by path.

Verdict policy: ``fail`` is reserved for violations of laws the
configuration is supposed to satisfy (these drive the exit status).
Measurements whose size is a finding about the configuration — the
projectivity obstruction of a non-projective change, the known
inverse-metric discrepancy — carry ``reported-residual`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .change import ChangedPair
from .core import FALLBACK_ERRORS, PointBlock, central_partial, dot, matvec
from .geodesics import (GeodesicError, curve_set_deviation,
                        integrate_geodesic, retrace_deviation)
from .hypersurface import ChangedHyperPoint, ChangedHypersurface
from .jets import JetDomainError
from .memo import cached
from .report import CheckRecord, stacked_errors, worst_errors
from .sampling import _admit_block, sample_hyper_points, sample_points

DEFAULT_TOLS = {
    "euler": 1e-10,             # homogeneity/contraction identities
    "two-path": 1e-10,          # closed form vs direct pipeline, algebraic
    "two-path-inverse": 1e-8,   # same, after a numeric matrix inversion
    "residual": 1e-8,           # threshold quoted on reported residuals
    "projective-defect": 1e-12,  # max |A_i| for a projective verdict
    "nonprojective-floor": 1e-3,  # defect above this: clearly not projective
    "collinearity": 1e-8,       # spray difference off span(y)
    "geodesic-deviation": 1e-5,  # unparametrized curve distance
    "value-drift": 1e-7,        # first-integral drift along geodesics
    "frame": 1e-10,             # normal/tangent frame relations
    "ambient-identity": 1e-10,  # changed metric on the base normal
    "normal-transfer": 1e-9,    # normal rescaling law
    "curvature-transfer": 1e-8,  # normal curvature rescaling law
    "flat-hypersurface": 1e-10,  # totally geodesic preservation
    "douglas-invariance": 1e-8,
    "weyl-invariance": 1e-6,
    "riemannian-douglas": 1e-9,
    "flat-weyl": 1e-7,
    "fd-cross-check": 1e-5,     # jets vs central finite differences
    "tangency": 1e-10,          # |b_i N^i| for the tangential gate
}


@dataclass
class SuiteConfig:
    metric: object
    change: object
    hyper: object = None
    samples: int = 100
    seed: int = 0
    tols: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        unknown = set(self.tols) - set(DEFAULT_TOLS)
        if unknown:
            raise ValueError(
                f"unknown tolerance name(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(DEFAULT_TOLS))}")
        for name, value in self.tols.items():
            if not 0.0 < float(value) < np.inf:
                raise ValueError(
                    f"tolerance {name} must be positive and finite")

    def tol(self, name):
        return float(self.tols.get(name, DEFAULT_TOLS[name]))


# How many first samples the heavy rows (Weyl, Douglas) read, the columns
# of ``SuiteRun.heavy``, and how many of those the invariant rows read,
# in 2D and from 3D on: the order-6 jets of L^2 cost more in 3D.
_HEAVY, _INVARIANT = (25, 10), (25, 8)


class SuiteRun:
    """Shared state for one verification run: the changed pair, the
    sampled points (their coordinates and ``ChangedBlock``s), and the
    lazily computed data the checks share."""

    def __init__(self, config: SuiteConfig):
        self.cfg = config
        self.hyper = (ChangedHypersurface(config.metric, config.change,
                                          config.hyper)
                      if config.hyper is not None else None)
        self.pair = (self.hyper.pair if self.hyper is not None
                     else ChangedPair(config.metric, config.change))
        self.n = self.pair.n
        self._cache = {}

    @cached
    def sampled(self):
        """(``sampling.Samples``, rejected draw count) of the pair
        sampler."""
        return sample_points(self.pair, self.cfg.samples, self.cfg.seed)

    def coords(self):
        """The (x, y) of each sample, in sample order."""
        return self.sampled()[0].coords

    def cblocks(self):
        """The samples as ``ChangedBlock``s, one per sampled chunk, in
        sample order."""
        return self.sampled()[0].blocks

    @cached
    def heavy(self):
        """The ``ChangedBlock`` of the first samples (``_HEAVY``), which
        the heavy and invariant rows read."""
        x, y = (np.stack(c, axis=1)
                for c in zip(*self.coords()[:_HEAVY[self.n >= 3]]))
        return self.pair.block(x, y)

    @cached
    def chpoints(self):
        """The changed-hypersurface points as one ``ChangedHyperPoint``,
        or None: the hypersurface sampler's draws, less those where the
        changed metric leaves its domain along the surface (its ``L^2``
        raises ``JetDomainError``, or L* > 0 fails)."""
        draws, _ = sample_hyper_points(
            self.hyper.base_h, min(self.cfg.samples, 40), self.cfg.seed)
        kept, cb = _admit_block(
            self.pair, *(np.stack([getattr(hp, k) for hp in draws], axis=1)
                         for k in "xy"),
            lambda cb: cb.Lstar > 0.0, JetDomainError)
        return (None if cb is None
                else ChangedHyperPoint(cb, [draws[p] for p in kept]))

    @cached
    def projectivity_defect(self):
        """max |A_i| over the samples, by Python's ``max`` over the
        points in sample order."""
        return max(np.concatenate([np.max(np.abs(cb.A_low()), axis=1)
                                   for cb in self.cblocks()]).tolist())

    @cached
    def tangency(self):
        """max |b_i N^i| over the hypersurface samples."""
        return max([0.0] + np.abs(self.chpoints().b_dot_normal()).tolist())

    def geodesic_ics(self):
        return self.coords()[:5]

    @cached
    def base_paths(self):
        """The base geodesic of each initial condition, or the
        ``GeodesicError`` that stopped it; integrated once per run."""
        out = []
        for x, y in self.geodesic_ics():
            try:
                out.append(integrate_geodesic(self.pair.base, x, y, 2.0,
                                              tol=1e-10))
            except GeodesicError as exc:
                out.append(_detached(exc))
        return out

    def _per_base_path(self, measure):
        """``measure(path, x, y)`` on the base path of each initial
        condition, or the ``GeodesicError`` that stopped that path or the
        measurement."""
        out = []
        for (x, y), path in zip(self.geodesic_ics(), self.base_paths()):
            try:
                out.append(path if isinstance(path, GeodesicError)
                           else measure(path, x, y))
            except GeodesicError as exc:
                out.append(_detached(exc))
        return out

    @cached
    def geodesic_pairs(self):
        """Curve distance between the base and the changed geodesic."""
        star = self.pair.starred
        return self._per_base_path(lambda path, x, y: curve_set_deviation(
            path, integrate_geodesic(star, x, y, 2.0, tol=1e-10)))

    @cached
    def value_drifts(self):
        """Drift of the metric value along the base geodesic."""
        return self._per_base_path(
            lambda path, x, y: path.stats["value_drift"])

    @cached
    def retrace_deviations(self):
        """Curve distance between the base path and the path run back
        from its end with the velocity flipped."""
        return self._per_base_path(lambda path, x, y: retrace_deviation(
            self.pair.base, path, tol=1e-10))


def _detached(exc):
    """A ``GeodesicError`` with the message, kind and t of ``exc`` but no
    traceback, cause or context: their frames would keep the failed
    integration alive in the cache."""
    return GeodesicError(str(exc), exc.kind, exc.t)


# --------------------------------------------------------------------------
# gates: None when the check applies, else the note of its skipped record

def _has_hypersurface(run):
    if run.hyper is None:
        return "no hypersurface spec provided"
    if not run.chpoints():
        return "no valid hypersurface sample admitted by the changed metric"
    return None


def _within(tol_name, value, note):
    """Gate open while ``value(run)`` is within the named tolerance, else
    closed with ``note`` formatted with the value and the tolerance."""
    def gate(run):
        v, tol = value(run), run.cfg.tol(tol_name)
        return None if v <= tol else note.format(v, tol)
    return gate


_tangential = _within(
    "tangency", lambda run: run.tangency(),
    "gated on tangency; max |b.N| = {0:.2e} exceeds {1:.0e}")
_projective = _within(
    "projective-defect", lambda run: run.projectivity_defect(),
    "gated on projectivity; obstruction {0:.2e} exceeds {1:.0e}")
_base_flat = _within(
    "flat-hypersurface", lambda run: max([0.0] + np.max(np.abs(
        run.chpoints().base.normal_curvature()), axis=-1).tolist()),
    "base hypersurface is not totally geodesic (max |H| = {0:.2e})")


def _quadratic(run):
    return None if run.cfg.metric.is_quadratic else "metric is not quadratic"


def _reversible(run):
    space = run.pair.base
    try:
        rev = max([0.0] + [abs(np.sqrt(space.l2(x, -np.asarray(y)))
                               - np.sqrt(space.l2(x, y)))
                           for x, y in run.geodesic_ics()])
    except JetDomainError:
        rev = np.inf
    if rev <= 1e-12:
        return None
    return "metric is irreversible; reverse traversal follows other curves"


def _integrated(results):
    """Gate on a per-initial-condition ``SuiteRun`` measurement (a method
    name) having integrated at least once."""
    def gate(run):
        if not all(isinstance(v, GeodesicError)
                   for v in getattr(run, results)()):
            return None
        return "no initial condition could be integrated"
    return gate


_HYPER = (_has_hypersurface,)
_TANGENTIAL = (_has_hypersurface, _tangential)


# --------------------------------------------------------------------------
# measurements: (run, tol) -> (samples, max abs, max rel, verdict, notes)

def _judge(samples, pairs, tol, residual=False, notes=""):
    """Measurement from the worst errors over (got, want) pairs, each of
    one point (``report.worst_errors``)."""
    return _verdict(samples, worst_errors(pairs), tol, residual, notes)


def _verdict(samples, errors, tol, residual=False, notes=""):
    """Measurement from the worst (abs, rel) errors.  The verdict follows
    the tolerance, or is ``reported-residual`` for a finding; a NaN error
    is kept and always fails.  ``notes`` is a string, or a (within
    tolerance, beyond it) pair of strings."""
    abs_err, rel_err = errors
    within = rel_err <= tol
    if not isinstance(notes, str):
        notes = notes[0] if within else notes[1]
    verdict = ("fail" if np.isnan(abs_err) or np.isnan(rel_err)
               else "reported-residual" if residual
               else "pass" if within else "fail")
    return samples, abs_err, rel_err, verdict, notes


def _sampled(pairs, residual=False, notes="", first=None):
    """Measurement over the sampled points, on their block forms
    (``SuiteRun.cblocks``): ``pairs(cb)`` lists the (got, want) arrays
    compared at the points of ``cb``, point axis first
    (``report.stacked_errors``).  With ``first`` (``_HEAVY`` or
    ``_INVARIANT``), over the first rows of ``SuiteRun.heavy`` only."""
    def measure(run, tol):
        k = None if first is None else first[run.n >= 3]
        blocks = run.cblocks() if first is None else [run.heavy()]
        return _verdict(len(run.coords()[:k]), stacked_errors(
            tuple(v[:k] if np.ndim(v) else v for v in pair)
            for cb in blocks for pair in pairs(cb)), tol, residual, notes)
    return measure


def _hyper(pairs, residual=False, notes=""):
    """``_sampled`` over the block form of the hypersurface points
    (``SuiteRun.chpoints``)."""
    def measure(run, tol):
        chp = run.chpoints()
        return _verdict(len(chp), stacked_errors(pairs(chp)), tol,
                        residual, notes)
    return measure


# How a stopped path reads in a note, by ``GeodesicError.kind``.
_STOPPED = {"underflow": "hit a step size underflow",
            "domain": "left its domain",
            "budget": "exhausted its step budget",
            "box": "left the sampling box"}


def _stopped_notes(values):
    """Note parts naming the stopped paths among ``values``, one per kind
    in order of first appearance: "1 left its domain at t = 1.49"."""
    stops = {}
    for v in values:
        if isinstance(v, GeodesicError):
            stops.setdefault(v.kind, []).append(f"{v.t:.3g}")
    return [f"{len(ts)} {_STOPPED[kind]} at t = {', '.join(ts)}"
            for kind, ts in stops.items()]


def _geodesics(results, notes=""):
    """Measurement over a per-initial-condition ``SuiteRun`` measurement
    (a method name); ``notes`` may use ``{done}`` and ``{tried}``, and the
    stopped paths are named after it."""
    def measure(run, tol):
        values = getattr(run, results)()
        done = [(v, 0.0) for v in values
                if not isinstance(v, GeodesicError)]
        return _judge(len(done), done, tol, notes="; ".join(filter(None, [
            notes.format(done=len(done), tried=len(values))]
            + _stopped_notes(values))))
    return measure


# The step of the difference quotients, ``central_partial``'s default.
_H = 1e-5


def _first_rows(run, name):
    """The base tensor ``name`` at the first two samples, read from the
    sampled blocks, which can be two."""
    return np.concatenate([getattr(cb.base, name)()
                           for cb in run.cblocks()[:2]])[:2]


def _block_partials(run, name, points, axis):
    """``central_partial`` of the base tensor ``name`` along coordinate k
    of x (``axis`` 0) or of y (1) at each (x, y, k) of ``points``, from
    one ``PointBlock`` of the moved points, +h before -h."""
    moved = []
    for *xy, k in points:
        for h in (_H, -_H):
            z = [np.array(v, dtype=float) for v in xy]
            z[axis][k] = float(xy[axis][k]) + h
            moved.append(z)
    x, y = (np.stack(c, axis=1) for c in zip(*moved))
    T = getattr(PointBlock(run.pair.base, x, y), name)()
    return (T[0::2] - T[1::2]) / (2.0 * _H)


def _fd(name, quotients):
    """Finite-difference cross-check of the base tensor ``name`` at three
    random index triples (i, j, k) at each of the first two samples,
    drawn in that order; every such check draws the same triples.
    ``quotients(run, probes)`` lists the difference quotient that the
    entry (i, j) or (i, j, k) should equal at each probe (x, y, i, j, k)."""
    def measure(run, tol):
        rng = np.random.default_rng([run.cfg.seed, 7])
        coords = run.coords()[:2]
        probes = [(x, y, *rng.integers(0, run.n, size=3))
                  for x, y in coords for _ in range(3)]
        rows = _first_rows(run, name)
        jet = [rows[p // 3][probe[2:rows.ndim + 1]]
               for p, probe in enumerate(probes)]
        return _judge(len(coords), zip(jet, quotients(run, probes)), tol)
    return measure


def _y_partials(name, scale):
    """``quotients`` of ``_fd``: ``scale`` times the entry (i, j) of
    ``_block_partials`` of ``name`` along y^k at each probe."""
    def quotients(run, probes):
        d = _block_partials(run, name,
                            [(x, y, k) for x, y, _, _, k in probes], 1)
        return [scale * d[p][i, j]
                for p, (_, _, i, j, _) in enumerate(probes)]
    return quotients


def _homogeneity(run, tol):
    """L at (x, lam y) against lam L at each sample, one ``lam`` drawn
    per sample in sample order, from one stacked float ``l2`` per side.
    Where one raises, the samples are evaluated one by one, base before
    the changed side, so that the first that fails raises its error."""
    rng = np.random.default_rng([run.cfg.seed, 11])
    coords = run.coords()
    lam = rng.uniform(0.5, 2.0, size=len(coords))
    x = np.transpose([c[0] for c in coords])
    y = np.transpose([c[1] for c in coords]) * lam
    spaces = (run.pair.base, run.pair.starred)
    try:
        got = [np.sqrt(space.l2(x, y)) for space in spaces]
    except FALLBACK_ERRORS:
        for p in range(len(coords)):
            for space in spaces:
                space.l2(x[:, p], y[:, p])
        raise
    want = [lam * np.concatenate([getattr(cb, side).L()
                                  for cb in run.cblocks()])
            for side in ("base", "star")]
    return _verdict(len(coords), stacked_errors(zip(got, want)), tol)


def _regularity(run, tol):
    floor = min([np.inf] + [v for cb in run.cblocks()
                            for rows in (cb.base, cb.star)
                            for v in np.abs(rows.det_g()).tolist()])
    return (len(run.coords()), 0.0, 0.0, "pass",
            f"min |det g| = {floor:.3e}")


def _frame_rank(run, tol):
    """The least singular value of the tangent frames, by Python's min."""
    chp = run.chpoints()
    s = ([] if chp is None else
         np.linalg.svd(chp.base.B, compute_uv=False)[:, -1].tolist())
    smin = min([np.inf] + s)
    return (len(s), 0.0, 0.0, "pass" if smin > 1e-10 else "fail",
            f"min singular value of the tangent frame = {smin:.3e}")


def _obstruction(run, tol):
    defect = run.projectivity_defect()
    floor = run.cfg.tol("nonprojective-floor")
    if defect <= tol:
        verdict, note = "pass", "projective at samples"
    elif defect > floor:
        verdict, note = "reported-residual", "not projective at samples"
    else:
        verdict, note = "reported-residual", (
            f"obstruction between {tol:.0e} and {floor:.0e}: "
            "neither clearly projective nor clearly not")
    return len(run.coords()), defect, defect, verdict, note


def _tangency(run, tol):
    t = run.tangency()
    if t <= tol:
        verdict, note = "pass", "drift is tangential at samples"
    else:
        verdict, note = "reported-residual", (
            f"drift has a normal component (max |b.N| = {t:.2e}); "
            "transfer laws do not apply")
    return len(run.chpoints()), t, t, verdict, note


def _fd2(f, y, i, j, h=1e-4):
    def at(di, dj):
        yy = np.array(y, dtype=float)
        yy[i] += di * h
        yy[j] += dj * h
        return f(yy)
    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)


def _fd_curvature(run, tol):
    """R and its finite-difference value from the spray and connection
    at the first two samples."""
    space, n = run.pair.base, run.n
    coords = run.coords()[:2]
    G, N, B, R = (_first_rows(run, name)
                  for name in ("spray", "n_conn", "berwald", "riemann"))
    dN = _block_partials(run, "n_conn", [(x, y, j) for x, y in coords
                                         for j in range(n)], 0)
    pairs = []
    for p, (x, y) in enumerate(coords):
        dG = np.stack([central_partial(
            lambda xv: space.spray_values(xv, y), x, k, _H)
            for k in range(n)], axis=-1)
        dNp = np.stack(list(dN[p * n:(p + 1) * n]), axis=-1)
        r_fd = (2 * dG - np.einsum("j,ikj->ik", y, dNp)
                + 2 * np.einsum("j,ijk->ik", G[p], B[p]) - N[p] @ N[p])
        pairs.append((R[p], r_fd))
    return _judge(len(coords), pairs, tol)


def _weyl_structure(cb):
    W = cb.base.weyl_proj()
    return [(np.trace(W, axis1=-2, axis2=-1), 0.0), (matvec(W, cb.y), 0.0)]


def _weyl_invariance(run, tol):
    notes = ("holds trivially: both Weyl tensors vanish identically in "
             "dimension 2" if run.n == 2 else "")
    return _sampled(lambda cb: [
        (cb.star.weyl_proj(), cb.base.weyl_proj()),
        (cb.star.weyl_torsion(), cb.base.weyl_torsion())],
        notes=notes, first=_INVARIANT)(run, tol)


_riemannian_douglas = _sampled(lambda cb: [(cb.base.douglas(), 0.0)],
                               first=_INVARIANT)


def _base_weyl_size(run, tol):
    """Size of the base Weyl tensor and its torsion, noted as a flatness
    verdict only where the samples decide it.  A nonzero Douglas tensor
    rules projective flatness out in any dimension.  For n >= 3 the space
    is flat exactly when D and W vanish (Douglas 1927); for n = 2 both
    Weyl tensors vanish identically and D = 0 does not decide it
    (Berwald 1941).  A quadratic base has D = 0, so D is evaluated, and
    judged with the ``riemannian-douglas`` tolerance, only on the
    others."""
    if not (run.cfg.metric.is_quadratic or _riemannian_douglas(
            run, run.cfg.tol("riemannian-douglas"))[3] == "pass"):
        notes = "Douglas tensor nonzero: not projectively flat"
    elif run.n == 2:
        notes = ("Weyl vanishes identically in dimension 2; flatness not "
                 "decided")
    else:
        notes = ("projectively flat at samples",
                 "nonzero projective curvature at samples")
    return _sampled(lambda cb: [
        (cb.base.weyl_proj(), 0.0), (cb.base.weyl_torsion(), 0.0)],
        residual=True, notes=notes, first=_INVARIANT)(run, tol)


def _douglas_structure(cb):
    D = cb.base.douglas()
    return [(D, np.swapaxes(D, -3, -2)), (D, np.swapaxes(D, -3, -1)),
            (np.einsum("phhjk->pjk", D), 0.0),
            (np.einsum("phijk,pk->phij", D, cb.y), 0.0)]


# --------------------------------------------------------------------------
# the check table: (check id, law, tolerance name, gates, measurement)

_FIT = ("agrees with the direct pipeline",
        "disagrees with the direct pipeline when the scale factor "
        "and the drift form are both nonzero")
_FD = "matches-central-finite-differences"

_VALIDATION = (
    ("valid.homogeneity", "value-scales-linearly-with-support", "euler", (),
     _homogeneity),
    ("valid.positivity", "both-metric-values-positive-on-samples", "euler",
     (), lambda run, tol: (len(run.coords()), 0.0, 0.0, "pass",
                           f"{run.sampled()[1]} candidate draw(s) rejected")),
    ("valid.regularity", "fundamental-tensor-invertible-on-samples", "euler",
     (), _regularity),
)
# Follows the validation rows when a hypersurface is given.
_FRAME_RANK = ("valid.frame-rank", "embedding-differential-has-full-rank",
               "euler", (), _frame_rank)

CHECKS = {}
CHECKS["core-identities"] = (
    ("core.value-from-support", "support-covector-restores-value", "euler",
     (), _sampled(lambda cb: [(dot(cb.base.l_low(), cb.y), cb.base.L())])),
    ("core.metric-restores-value", "metric-on-support-gives-squared-value",
     "euler", (), _sampled(lambda cb: [
         ((cb.y[:, None, :] @ cb.base.g_low() @ cb.y[:, :, None])[:, 0, 0],
          cb.base.L() * cb.base.L())])),
    ("core.angular-kills-support", "angular-metric-annihilates-support",
     "euler", (), _sampled(lambda cb: [(matvec(cb.base.h_low(), cb.y),
                                        0.0)])),
    ("core.cartan-kills-support", "cartan-tensor-annihilates-support", "euler",
     (), _sampled(lambda cb: [
         (np.einsum("pijk,pk->pij", cb.base.C_low(), cb.y), 0.0)])),
    ("core.connection-euler", "connection-contracts-to-twice-spray", "euler",
     (), _sampled(lambda cb: [
         (matvec(cb.base.n_conn(), cb.y), 2 * cb.base.spray())])),
    ("core.berwald-euler", "berwald-contracts-to-connection", "euler", (),
     _sampled(lambda cb: [
         (np.einsum("pijk,pk->pij", cb.base.berwald(), cb.y),
          cb.base.n_conn())])),
    ("core.hconn-euler", "horizontal-connection-contracts-to-connection",
     "euler", (), _sampled(lambda cb: [
         (np.einsum("pijk,pj->pik", cb.base.cartan_hconn(), cb.y),
          cb.base.n_conn())])),
    ("core.curvature-kills-support", "curvature-annihilates-support", "euler",
     (), _sampled(lambda cb: [(matvec(cb.base.riemann(), cb.y), 0.0)])),
    ("core.weyl-structure", "weyl-tensor-trace-free-and-kills-support",
     "euler", (), _sampled(_weyl_structure, first=_HEAVY)),
    ("core.douglas-structure", "douglas-symmetric-trace-free-kills-support",
     "euler", (), _sampled(_douglas_structure, first=_HEAVY)),
    ("core.fd-fundamental", _FD, "fd-cross-check", (),
     _fd("g_low", lambda run, probes: [0.5 * _fd2(
         lambda yy: run.pair.base.l2(x, yy), y, i, j)
         for x, y, i, j, k in probes])),
    ("core.fd-cartan", _FD, "fd-cross-check", (),
     _fd("C_low", _y_partials("g_low", 0.5))),
    ("core.fd-connection", _FD, "fd-cross-check", (),
     _fd("n_conn", lambda run, probes: [central_partial(
         lambda yy: run.pair.base.spray_values(x, yy)[i], y, j, _H)
         for x, y, i, j, k in probes])),
    ("core.fd-berwald", _FD, "fd-cross-check", (),
     _fd("berwald", _y_partials("n_conn", 1.0))),
    ("core.fd-curvature", _FD, "fd-cross-check", (), _fd_curvature),
)
CHECKS["change-identities"] = (
    ("change.value-closed-form", "changed-value-and-support-closed-forms",
     "two-path", (), _sampled(lambda cb: [
         (cb.Lstar, cb.star.L()), (cb.lstar_closed(), cb.star.l_low())])),
    ("change.angular-closed-form", "angular-metric-rescales", "two-path", (),
     _sampled(lambda cb: [(cb.hstar_closed(), cb.star.h_low())])),
    ("change.metric-closed-form", "changed-fundamental-tensor-closed-form",
     "two-path", (), _sampled(lambda cb: [
         (cb.gstar_closed(), cb.star.g_low())])),
    ("change.cartan-closed-form", "changed-cartan-tensor-closed-form",
     "two-path", (), _sampled(lambda cb: [
         (cb.cstar_closed(), cb.star.C_low())])),
    ("change.inverse-closed-form", "changed-inverse-metric-closed-form",
     "two-path-inverse", (), _sampled(lambda cb: [
         (cb.ginv_star_closed(), cb.star.g_up())], residual=True, notes=_FIT)),
    ("change.mixed-cartan-closed-form", "changed-mixed-cartan-closed-form",
     "residual", (), _sampled(lambda cb: [
         (cb.cstar_mixed_closed(), cb.cstar_mixed_direct())],
         residual=True, notes=_FIT)),
    ("change.support-orthogonal", "drift-covector-orthogonal-to-support",
     "euler", (), _sampled(lambda cb: [
         (dot(cb.a_low(), cb.y), 0.0),
         (matvec(cb.hstar_closed(), cb.y), 0.0)])),
    ("change.hcov-split", "horizontal-derivative-splits-sym-antisym", "euler",
     (), _sampled(lambda cb: [
         (cb.b_hcov(), cb.E_low() + cb.F_low()),
         (cb.E_low(), cb.E_low().transpose(0, 2, 1)),
         (cb.F_low(), -cb.F_low().transpose(0, 2, 1))])),
)
CHECKS["projectivity"] = (
    ("proj.obstruction", "projectivity-obstruction-vanishes",
     "projective-defect", (), _obstruction),
    ("proj.collinearity", "spray-difference-collinear-with-support",
     "collinearity", (_projective,),
     _sampled(lambda cb: [(cb.collinearity_defect(), 0.0)])),
    ("proj.geodesic-deviation", "geodesics-coincide-as-point-sets",
     "geodesic-deviation", (_projective, _integrated("geodesic_pairs")),
     _geodesics("geodesic_pairs",
                "{done}/{tried} initial conditions integrated to t = 2.0")),
)
CHECKS["hypersurface"] = (
    ("hyper.frame-identities", "frame-relations-hold", "frame", _HYPER,
     _hyper(lambda chp: [(chp.base.frame_residuals(), 0.0)])),
    ("hyper.frame-identities-changed", "frame-relations-hold-after-change",
     "frame", _HYPER,
     _hyper(lambda chp: [(chp.star.frame_residuals(), 0.0)])),
    ("hyper.normal-value", "changed-metric-on-normal-closed-form",
     "ambient-identity", _HYPER, _hyper(lambda chp: [
         (chp.gstar_on_normal(), chp.gstar_on_normal_closed())])),
    ("hyper.tangency", "drift-tangent-to-hypersurface", "tangency", _HYPER,
     _tangency),
    ("hyper.normal-transfer", "normal-rescales-by-root-tau", "normal-transfer",
     _TANGENTIAL, _hyper(lambda chp: [
         (chp.star.normal_up(), chp.normal_transfer_closed()),
         (chp.star.normal_low(), chp.conormal_transfer_closed())])),
    ("hyper.curvature-decomposition",
     "normal-curvature-decomposes-under-tangential-drift",
     "curvature-transfer", _TANGENTIAL, _hyper(lambda chp: [
         (chp.hstar_decomposition_residual(), 0.0)])),
    ("hyper.curvature-scale-reported",
     "normal-curvature-relation-without-scaled-correction", "residual",
     _TANGENTIAL, _hyper(lambda chp: [
         (chp.hstar_reported_residual(), 0.0)], residual=True,
         notes="correction term enters unscaled; residual vanishes only "
               "when the correction itself does")),
    ("hyper.curvature-transfer", "normal-curvature-rescales-by-root-tau",
     "curvature-transfer", _TANGENTIAL + (_projective,),
     _hyper(lambda chp: [
         (chp.star.normal_curvature(),
          chp.root_tau() * chp.base.normal_curvature())])),
    ("hyper.normal-projective-contraction",
     "normal-contraction-of-spray-difference-vanishes", "curvature-transfer",
     _TANGENTIAL + (_projective,),
     _hyper(lambda chp: [(chp.d_term(), 0.0)])),
    ("hyper.flat-preserved",
     "totally-geodesic-preserved-under-tangential-drift", "flat-hypersurface",
     _HYPER + (_base_flat,),
     _hyper(lambda chp: [(chp.star.normal_curvature(), 0.0)],
            notes="base normal curvature vanishes at samples")),
)
CHECKS["invariants-5"] = (
    ("inv5.douglas-invariance", "douglas-tensor-unchanged",
     "douglas-invariance", (_projective,), _sampled(
         lambda cb: [(cb.star.douglas(), cb.base.douglas())],
         first=_INVARIANT)),
    ("inv5.weyl-invariance", "weyl-tensors-unchanged", "weyl-invariance",
     (_projective,), _weyl_invariance),
    ("inv5.riemannian-douglas", "douglas-vanishes-on-quadratic-metric",
     "riemannian-douglas", (_quadratic,), _riemannian_douglas),
    ("inv5.base-weyl-size", "weyl-size-as-flatness-test", "flat-weyl", (),
     _base_weyl_size),
)
CHECKS["geodesics"] = (
    ("geo.value-conservation", "metric-value-conserved-along-flow",
     "value-drift", (_integrated("value_drifts"),),
     _geodesics("value_drifts",
                "{done}/{tried} initial conditions integrated to t = 2.0")),
    ("geo.retrace", "reversed-geodesics-retrace-the-curve",
     "geodesic-deviation", (_reversible, _integrated("retrace_deviations")),
     _geodesics("retrace_deviations")),
    ("geo.projective-deviation", "changed-flow-keeps-geodesic-point-sets",
     "geodesic-deviation", (_projective, _integrated("geodesic_pairs")),
     _geodesics("geodesic_pairs",
                "{done}/{tried} initial conditions integrated")),
)
SUITE_NAMES = tuple(CHECKS)


def _record(run, row):
    """The record of one table row: skipped with the note of the first
    closed gate, else measured."""
    check_id, law, tol_name, gates, measure = row
    tol = run.cfg.tol(tol_name)
    for gate in gates:
        note = gate(run)
        if note is not None:
            return CheckRecord(check_id, law, 0, 0.0, 0.0, tol, "skipped",
                               note)
    samples, abs_err, rel_err, verdict, notes = measure(run, tol)
    return CheckRecord(check_id, law, samples, abs_err, rel_err, tol,
                       verdict, notes)


def validation_records(run: SuiteRun):
    """Sample-validity records, emitted before every suite."""
    rows = _VALIDATION + ((_FRAME_RANK,) if run.hyper is not None else ())
    return [_record(run, row) for row in rows]


def _suite(name):
    """The records of the suite ``CHECKS[name]``."""
    def suite(run: SuiteRun):
        return [_record(run, row) for row in CHECKS[name]]
    return suite


_SUITE_FUNCS = {name: _suite(name) for name in SUITE_NAMES}
# Module-level names, which the benchmark's tracer wraps by name.
suite_core = _SUITE_FUNCS["core-identities"]
suite_change = _SUITE_FUNCS["change-identities"]
suite_projectivity = _SUITE_FUNCS["projectivity"]
suite_hypersurface = _SUITE_FUNCS["hypersurface"]
suite_invariants5 = _SUITE_FUNCS["invariants-5"]
suite_geodesics = _SUITE_FUNCS["geodesics"]


def run_suites(config: SuiteConfig, suites=None):
    """Run the selected suites (default: all) and return the records,
    validation records first, suites in canonical order."""
    if suites is None or not suites:
        selected = list(SUITE_NAMES)
    else:
        unknown = set(suites) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(
                f"unknown suite(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(SUITE_NAMES)}")
        selected = [s for s in SUITE_NAMES if s in set(suites)]
    run = SuiteRun(config)
    records = validation_records(run)
    for name in selected:
        records.extend(_SUITE_FUNCS[name](run))
    return records
