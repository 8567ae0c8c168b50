"""Span tracer for the traced benchmark run, and the per-layer analysis
of the spans it writes.

The tracer wraps, from outside the package, each module's public
functions and the public methods of its classes, so ``src/`` stays
untouched.  Each wrapped call records a span: name, start, end and the
index of the enclosing span.  Spans live in flat arrays in memory and are
written out once, when the traced child ends; ``analyse`` in the parent
turns them into layer metrics.  Each module is one layer, named after it.

Two references would otherwise escape the wrapping and record zeros:
``suites.run_suites`` dispatches through the ``_SUITE_FUNCS`` dict, and
several modules import functions by name (``suites.integrate_geodesic``,
``core.jet_linear_solve``).  ``install`` therefore rebinds every module
global and every module-level dict value that refers to a wrapped
function.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

LAYERS = ("jets", "lang", "core", "change", "hypersurface", "geodesics",
          "sampling", "suites", "report", "cli")

# ``lang.evaluate`` recurses once per expression node; wrapping it would
# trace every node.  Its callers (``MetricSpec.eval_l2`` and the change
# and hypersurface methods) are traced instead.  Of ``Jet`` only the
# multiplication is traced: the other methods run per coefficient slice
# and count toward the layer that calls them.
_SKIP = {("lang", "evaluate")}

_SPRAY = "core.FinslerSpace.spray_values"
_INTEGRATE = "geodesics.integrate_geodesic"
_DEVIATION = "geodesics.curve_set_deviation"
_EVAL_L2 = "lang.MetricSpec.eval_l2"
_SOLVE = "jets.jet_linear_solve"
_SCALAR_MUL = "jets.scalar_mul"
MUL_SPACES = ("4v0", "4v2", "4v4", "4v6", "6v0", "6v2", "6v4", "6v6")
SUITE_SPANS = {
    "validation": "suites.validation_records",
    "core-identities": "suites.suite_core",
    "change-identities": "suites.suite_change",
    "projectivity": "suites.suite_projectivity",
    "hypersurface": "suites.suite_hypersurface",
    "invariants-5": "suites.suite_invariants5",
    "geodesics": "suites.suite_geodesics",
}
FAILURE_REASONS = {"step size underflow": "underflow",
                   "left its domain": "domain",
                   "step budget": "budget"}


class Tracer:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # One (span index, outcome, RK attempts or -1) per integration.
        self.integrations = []
        self.draws = 0
        self.rejected = 0

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so that each call records a span called ``name``.
        ``observe(index, result, exc)`` runs after the call ends."""
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(idx, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(idx, out, None)
            return out
        return wrapper

    def jet_mul(self, fn, jet_cls):
        """Wrap ``Jet.__mul__``; the span name carries the product's jet
        space as ``jets.mul.<nvars>v<order>``, or ``jets.scalar_mul``."""
        by_space = {}
        scalar = self.span(_SCALAR_MUL, fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            if not isinstance(b, jet_cls):
                return scalar(a, b)
            key = (a.space.nvars, min(a.space.order, b.space.order))
            traced = by_space.get(key)
            if traced is None:
                traced = by_space[key] = self.span("jets.mul.%dv%d" % key, fn)
            return traced(a, b)
        return wrapper

    def _observe_integration(self, error_cls):
        def observe(idx, path, exc):
            if exc is None:
                attempts = path.stats["steps"] + path.stats["rejected"]
                self.integrations.append((idx, "finished", attempts))
            elif isinstance(exc, error_cls):
                reason = next((tag for text, tag in FAILURE_REASONS.items()
                               if text in str(exc)), "unknown")
                self.integrations.append((idx, reason, -1))
            else:
                self.integrations.append(
                    (idx, "error-" + type(exc).__name__, -1))
        return observe

    def _observe_sampling(self, idx, result, exc):
        if exc is None:
            points, rejected = result
            self.draws += len(points) + rejected
            self.rejected += rejected

    def install(self):
        """Wrap the package's public functions and methods in place."""
        import finslerchange.cli  # noqa: F401  (imports every module)
        from finslerchange.geodesics import GeodesicError
        from finslerchange.jets import Jet

        modules = {layer: sys.modules["finslerchange." + layer]
                   for layer in LAYERS}
        observers = {
            _INTEGRATE: self._observe_integration(GeodesicError),
            "sampling.sample_points": self._observe_sampling,
            "sampling.sample_hyper_points": self._observe_sampling,
        }
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or (layer, name) in _SKIP
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    full = f"{layer}.{name}"
                    wrapped[id(obj)] = (obj, self.span(
                        full, obj, observers.get(full)))
                elif inspect.isclass(obj) and obj is not Jet:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.span(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        mul = self.jet_mul(Jet.__mul__, Jet)
        Jet.__mul__ = Jet.__rmul__ = mul

        def replacement(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                new = replacement(obj)
                if new is not None:
                    setattr(mod, name, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = replacement(val)
                        if new is not None:
                            obj[key] = new

    def write(self, out_dir):
        """Write the spans and the counters gathered beside them."""
        for field in ("name_id", "parent", "start", "end"):
            with open(os.path.join(out_dir, field + ".bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {"names": self.names, "integrations": self.integrations,
                "draws": self.draws, "rejected": self.rejected}
        with open(os.path.join(out_dir, "meta.json"), "w") as fh:
            json.dump(meta, fh)


# --------------------------------------------------------------------------
# parent side: spans -> layer metrics

def _load(out_dir):
    import numpy as np
    with open(os.path.join(out_dir, "meta.json")) as fh:
        meta = json.load(fh)
    cols = {field: np.fromfile(os.path.join(out_dir, field + ".bin"),
                               dtype=dtype)
            for field, dtype in (("name_id", np.uint32), ("parent", np.int32),
                                 ("start", np.float64), ("end", np.float64))}
    return meta, cols


def analyse(out_dir):
    """Per-layer metrics and exactly repeatable counts of one traced run.

    Returns ``(metrics, counts)``: ``metrics`` maps metric name to
    ``(value, unit)``; ``counts`` holds every count the run should repeat
    exactly (calls per span name, integrations by outcome, sampler draws).
    Raises ``ValueError`` when the trace contradicts itself.
    """
    import numpy as np
    meta, cols = _load(out_dir)
    names = meta["names"]
    nid, parent = cols["name_id"].astype(np.intp), cols["parent"]
    dur = cols["end"] - cols["start"]
    nspans = len(dur)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested],
                          minlength=nspans)
    self_time = dur - covered

    name_layer = np.array([LAYERS.index(n.split(".")[0]) for n in names],
                          dtype=np.intp)
    span_layer = name_layer[nid] if nspans else np.zeros(0, dtype=np.intp)
    # A span is a layer's outermost one when its parent is in another
    # layer: its duration is the time the caller waited on that layer.
    parent_layer = np.where(nested, span_layer[np.where(nested, parent, 0)],
                            -1)
    outer = parent_layer != span_layer
    calls = np.bincount(nid, minlength=len(names))
    inclusive = np.bincount(nid, weights=dur, minlength=len(names))
    layer_self = np.bincount(span_layer, weights=self_time,
                             minlength=len(LAYERS))
    layer_outer = np.bincount(span_layer[outer], weights=dur[outer],
                              minlength=len(LAYERS))
    index = {n: i for i, n in enumerate(names)}

    def count(name):
        return int(calls[index[name]]) if name in index else 0

    def seconds(name):
        return float(inclusive[index[name]]) if name in index else 0.0

    # Dormand-Prince with first-same-as-last: one spray evaluation to
    # start, then six per attempted step.
    sprays_in = (np.bincount(parent[(nid == index[_SPRAY]) & nested],
                             minlength=nspans)
                 if _SPRAY in index else np.zeros(nspans, dtype=np.intp))
    outcomes = dict.fromkeys(("finished", "underflow", "domain", "budget"), 0)
    rk_attempts = geo_sprays = 0
    for idx, outcome, attempts in meta["integrations"]:
        if outcome not in outcomes:
            raise ValueError(f"integration ended as {outcome!r}")
        outcomes[outcome] += 1
        sprays = int(sprays_in[idx])
        derived = -(-(sprays - 1) // 6)
        if attempts >= 0 and attempts != derived:
            raise ValueError(
                f"integration span {idx}: {attempts} RK attempts in its "
                f"stats, {derived} from its {sprays} spray evaluations")
        rk_attempts += derived
        geo_sprays += sprays
    integrations = len(meta["integrations"])
    failed = integrations - outcomes["finished"]

    m = {
        "geodesics.integrations": (integrations, "count"),
        "geodesics.failed.underflow": (outcomes["underflow"], "count"),
        "geodesics.failed.domain": (outcomes["domain"], "count"),
        "geodesics.failed.budget": (outcomes["budget"], "count"),
        "geodesics.rk_attempts": (rk_attempts, "count"),
        "geodesics.spray_evals": (geo_sprays, "count"),
        "geodesics.integrate_s": (seconds(_INTEGRATE), "s"),
        "geodesics.deviation_s": (seconds(_DEVIATION), "s"),
        # 0/0 on workloads without geodesics; reported as 0 there.
        "geodesic_fail_ratio": (failed / integrations if integrations
                                else 0.0, "ratio"),
        "core.spray_evals": (count(_SPRAY), "count"),
        "core.spray_s": (seconds(_SPRAY), "s"),
        "jets.scalar_mul_calls": (count(_SCALAR_MUL), "count"),
        "jets.linear_solve_calls": (count(_SOLVE), "count"),
        "jets.linear_solve_s": (seconds(_SOLVE), "s"),
        "lang.eval_l2_calls": (count(_EVAL_L2), "count"),
        "lang.eval_l2_s": (seconds(_EVAL_L2), "s"),
        "sampling.draws": (meta["draws"], "count"),
        "sampling.rejected": (meta["rejected"], "count"),
        "sampling.s": (float(layer_outer[LAYERS.index("sampling")]), "s"),
        "change.points": (count("change.ChangedPair.at"), "count"),
        "change.s": (float(layer_outer[LAYERS.index("change")]), "s"),
        "hypersurface.points": (count("hypersurface.HypersurfaceGeometry.at"),
                                "count"),
        "hypersurface.s": (float(layer_outer[LAYERS.index("hypersurface")]),
                           "s"),
        "report.emit_s": (seconds("report.emit_json_lines")
                          + seconds("report.emit_text"), "s"),
    }
    for space in MUL_SPACES:
        name = "jets.mul." + space
        calls_here = count(name)
        m["jets.mul_calls." + space] = (calls_here, "count")
        m["jets.mul_us." + space] = (
            seconds(name) / calls_here * 1e6 if calls_here else 0.0, "us")
    for suite, span in SUITE_SPANS.items():
        m[f"suites.{suite}_s"] = (seconds(span), "s")
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = (float(layer_self[i]), "s")

    counts = {"calls." + n: int(calls[i]) for i, n in enumerate(names)}
    counts.update({"integrations." + k: v for k, v in outcomes.items()})
    counts.update({"rk_attempts": rk_attempts, "draws": meta["draws"],
                   "rejected": meta["rejected"]})
    return m, counts


def mul_totals(counts):
    """(all Jet multiplications, those by a scalar) in a count table."""
    total = sum(v for k, v in counts.items() if k.startswith("calls.jets.")
                and ("mul." in k or k.endswith("scalar_mul")))
    return total, counts.get("calls." + _SCALAR_MUL, 0)
