"""One fresh benchmark process.  run.py starts it as

    python3 perfbench/child.py '<json job>'

with ``PYTHONPATH`` pointing at the checkout's ``src``.  The job's
``mode`` is one of

* ``setup``: import the package, resolve the workload's specs and build
  its ``ChangedPair`` (and ``ChangedHypersurface``), stopping before the
  first point evaluation;
* ``run``: run the workload once, traced when ``trace_dir`` is set;
* ``fresh``: time each tensor of the stack on its own new
  ``PointGeometry`` (jets are cached at the highest order requested so
  far, so timing tensors one after another on one point misattributes
  cost).

The last stdout line is one JSON object with the results.  Timing starts
before the package is imported, so import cost is counted where a user
pays it.
"""

import hashlib
import json
import os
import sys
from time import perf_counter

T0 = perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (benchmark-local module)


def _setup(job):
    from finslerchange.change import ChangedPair
    from finslerchange.hypersurface import ChangedHypersurface
    from finslerchange.lang import resolve_spec

    for metric, change, hyper in workloads.spec_names(job["workload"]):
        m = resolve_spec(metric, expect="metric")
        c = resolve_spec(change, expect="change")
        ChangedPair(m, c)
        if hyper is not None:
            ChangedHypersurface(m, c, resolve_spec(hyper, expect="hypersurface"))
    return {"setup_s": perf_counter() - T0}


def _verify(job):
    from finslerchange import cli
    argv = workloads.verify_argv(job["workload"], job["seed"], job["report"],
                                 smoke=job["smoke"])
    return {"rc": cli.main(argv)}


def _pairs(seed, count):
    from finslerchange.change import ChangedPair
    from finslerchange.lang import resolve_spec
    from finslerchange.sampling import sample_pair_points

    for metric, change, tag in workloads.TENSOR_CONFIGS:
        pair = ChangedPair(resolve_spec(metric, expect="metric"),
                           resolve_spec(change, expect="change"))
        points, _ = sample_pair_points(pair, count, seed)
        yield tag, pair, points


def _tensors(job):
    """The full tensor stack on base and changed space at fresh sampled
    points, with cheap identities checked at every point to the package's
    ``euler`` tolerance."""
    import numpy as np
    from finslerchange.report import errors_between
    from finslerchange.suites import DEFAULT_TOLS

    tol = DEFAULT_TOLS["euler"]
    digest = hashlib.sha256()
    checks = fails = 0
    count = (workloads.SMOKE_TENSOR_POINTS if job["smoke"]
             else workloads.TENSOR_POINTS)
    for _, pair, points in _pairs(job["seed"], count):
        for x, y in points:
            for space in (pair.base, pair.starred):
                pg = space.point(x, y)
                vals = [np.asarray(getattr(pg, name)(), dtype=float)
                        for name in workloads.TENSORS]
                for v in vals:
                    digest.update(np.ascontiguousarray(v).tobytes())
                g, C, G, N, B, F, R, W, WT, D = vals
                identities = (
                    (N @ y, 2.0 * G),                           # N.y = 2G
                    (np.einsum("ijk,k->ij", B, y), N),          # Berwald.y = N
                    (np.trace(W), 0.0),                         # Weyl trace-free
                    (np.einsum("hhjk->jk", D), 0.0),            # Douglas trace-free
                )
                for got, want in identities:
                    checks += 1
                    fails += errors_between(got, want)[1] > tol
    return {"rc": 0, "sha256": digest.hexdigest(), "checks": checks,
            "check_fails": fails}


def _fresh(job):
    count = (workloads.SMOKE_FRESH_POINTS if job["smoke"]
             else workloads.FRESH_POINTS)
    out = {}
    for tag, pair, points in _pairs(job["seed"], count + 1):
        space = pair.starred
        warm = space.point(*points[0])        # builds the jet tables
        for name in workloads.TENSORS:
            getattr(warm, name)()
        for name in workloads.TENSORS:
            times = []
            for x, y in points[1:]:
                pg = space.point(x, y)
                t = perf_counter()
                getattr(pg, name)()
                times.append(perf_counter() - t)
            times.sort()
            out[f"core.fresh_us.{name}.{tag}"] = times[len(times) // 2] * 1e6
    return {"fresh_us": out}


def _peak_rss_kb():
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    also carry the parent's peak across fork and exec, so read VmHWM."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace_dir"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if job["mode"] == "setup":
        result = _setup(job)
    elif job["mode"] == "fresh":
        result = _fresh(job)
    elif job["workload"] == "tensors":
        result = _tensors(job)
    else:
        result = _verify(job)
    result["workload_s"] = perf_counter() - T0
    if tracer is not None:
        tracer.write(job["trace_dir"])
    result["maxrss_kb"] = _peak_rss_kb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
