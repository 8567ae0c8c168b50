"""Benchmark of finslerchange: end-to-end cost of its workloads, and
per-layer metrics from a separate traced run.

Usage, from the root of a checkout (numpy is the only requirement):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --smoke             # every workload at tiny sizes

Workloads (see workloads.py):

* ``verify-degenerate``: ``verify`` on euclid2 + tangent_parabola +
  parabola2, 12 samples, all suites, verify seed pinned at 108.  One
  initial condition runs to a step-size underflow; geodesics dominate.
* ``verify-regular-3d``: ``verify`` on curved3 + projective3, 12 samples;
  healthy geodesics, order-0 and order-2 jets in 6 variables dominate.
* ``verify-many-2d``: ``verify`` on randers2 + projective, 2000 samples;
  the low-order, many-point path.
* ``tensors``: the full tensor stack on base and changed space at fresh
  sampled points of sphere3*projective3 (n = 3) and randers2*projective
  (n = 2), with cheap identities checked at every point.

Every workload run is a fresh process, single-threaded (BLAS and OpenMP
pools pinned to one thread), because a ``verify`` user pays import, spec
parsing and lazily built jet tables on every call.  Each child process is
pinned to the CPU that a short probe finds fastest just before it starts
(see ``_pin_to_fastest``).

``--trace 0`` reports the end-to-end metrics, tracing off:

* ``wall_s``: median wall time of one fresh-process workload run; runs
  repeat until ``--seconds`` is spent, at least three times;
* ``setup_s``: median over nine fresh processes of the time to import
  the package, resolve the workload's specs and build its pairs;
* ``peak_rss_mb``: median peak resident memory of a workload process.

``--trace 1`` runs the workload once untraced and twice traced, checks
that the two traced runs repeat every count exactly, and reports the
per-layer metrics (see tracer.py), ``trace.overhead_ratio`` and
``check_fail_ratio``.

Both modes check the output: every run of a workload must produce the
same report hash (sha256 of the json-lines report below its environment
line, or of the tensor values), and ``verify``'s exit status must agree
with its count of ``fail`` records.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (benchmark-local modules)
import workloads  # noqa: E402

SETUP_REPEATS = 9        # set-ups per run, SETUP_BATCH before each workload run
SETUP_BATCH = 3
MIN_REPEATS = 3
DEADLINE_S = 170.0       # a run must end within 180 s
CHILD_ENV = {
    "PYTHONPATH": os.path.join(ROOT, "src"),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _probe_seconds():
    """Time a fixed piece of interpreter work on the current CPU."""
    t = perf_counter()
    sum(i * i % 7 for i in range(100_000))
    return perf_counter() - t


def _pin_to_fastest(cpus):
    """Pin this process, and so the next child it starts, to whichever of
    ``cpus`` runs the probe fastest right now.  On a shared machine each
    CPU's speed drifts by up to about 25% in phases of tens of seconds,
    largely independently of the other CPUs; picking the faster one before
    each child narrows the run-to-run spread."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append((_probe_seconds(), cpu))
    os.sched_setaffinity(0, {min(times)[1]})


class ChildError(Exception):
    """A benchmark child process failed or gave an inconsistent result."""


class Run:
    """Bookkeeping of one benchmark run: deadline, scratch directory,
    operations attempted and failed, and problems with the output."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke
        self.started = perf_counter()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def remaining(self):
        return DEADLINE_S - (perf_counter() - self.started)

    def child(self, job):
        """Run child.py on ``job``; returns (result, wall seconds)."""
        job = {"seed": self.seed, "smoke": self.smoke, **job}
        env = {**os.environ, **CHILD_ENV}
        cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]
        if len(self.cpus) > 1:
            _pin_to_fastest(self.cpus)
        t = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise ChildError(f"{job['mode']} child exceeded the deadline")
        wall = perf_counter() - t
        if proc.returncode != 0:
            raise ChildError(f"{job['mode']} child exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def workload(self, workload, trace_dir=None):
        """One fresh-process workload run, with its output checked."""
        self.attempted += 1
        report = os.path.join(self.tmp, f"report{self.attempted}.jsonl")
        try:
            res, wall = self.child({"mode": "run", "workload": workload,
                                    "report": report, "trace_dir": trace_dir})
            if workload == "tensors":
                checks, fails = res["checks"], res["check_fails"]
            else:
                res["sha256"], checks, fails = _read_report(report)
                if res["rc"] != (1 if fails else 0):
                    raise ChildError(f"verify exited {res['rc']} with "
                                     f"{fails} failed check(s)")
        except ChildError as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        res["wall_s"] = wall
        res["check_fail_ratio"] = fails / checks if checks else 0.0
        print(f"  run {self.attempted}: wall {wall:.3f} s, "
              f"rss {res['maxrss_kb'] / 1024:.1f} MB, "
              f"fails {fails}/{checks}, sha256 {res['sha256'][:16]}",
              flush=True)
        return res

    def check_same_output(self, runs):
        hashes = {r["sha256"] for r in runs}
        if len(hashes) > 1:
            self.problems.append(f"report hashes differ across runs: "
                                 f"{sorted(hashes)}")

    def close(self):
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.tmp, ignore_errors=True)


def _read_report(path):
    """(sha256 below the environment line, hard checks, failed checks)."""
    with open(path, "rb") as fh:
        data = fh.read()
    env, _, body = data.partition(b"\n")
    if not env.startswith(b'{"'):
        raise ChildError("report does not start with an environment record")
    verdicts = [json.loads(line)["verdict"] for line in body.splitlines()]
    fails = verdicts.count("fail")
    return (hashlib.sha256(body).hexdigest(), verdicts.count("pass") + fails,
            fails)


def end_to_end(run, workload, seconds):
    """--trace 0: setup, wall time and memory of fresh-process runs.
    Set-ups are spread over the first runs, so that their median samples
    the machine's speed over the whole run rather than one moment."""
    setups, runs = [], []
    while True:
        for _ in range(SETUP_BATCH if len(setups) < SETUP_REPEATS else 0):
            try:
                setups.append(run.child({"mode": "setup",
                                         "workload": workload})[0]["setup_s"])
            except ChildError as exc:
                run.problems.append(str(exc))
                return None
        res = run.workload(workload)
        if res is None:
            break
        runs.append(res)
        if run.smoke:
            break
        spent = perf_counter() - run.started
        next_wall = median([r["wall_s"] for r in runs])
        if len(runs) >= MIN_REPEATS and spent + next_wall > seconds:
            break
        if run.remaining() < 1.5 * next_wall:
            break
    if not runs:
        return None
    run.check_same_output(runs)
    print(f"  setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  check_fail_ratio {runs[0]['check_fail_ratio']:.6g} "
          f"(report sha256 {runs[0]['sha256']})")
    return {
        "wall_s": (median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["maxrss_kb"] for r in runs]) / 1024, "MB"),
    }


def per_layer(run, workload):
    """--trace 1: one untraced and two traced runs, plus fresh-point
    tensor timings; counts must repeat exactly across the traced runs."""
    plain = run.workload(workload)
    if plain is None:
        return None
    traced, analysed = [], []
    for k in range(2):
        out = os.path.join(run.tmp, f"trace{k}")
        os.mkdir(out)
        res = run.workload(workload, trace_dir=out)
        if res is None:
            return None
        traced.append(res)
        try:
            analysed.append(tracer.analyse(out))
        except ValueError as exc:
            run.problems.append(f"trace {k}: {exc}")
            return None
        shutil.rmtree(out)
    run.check_same_output([plain, *traced])
    (m0, c0), (m1, c1) = analysed
    if c0 != c1:
        diff = sorted(k for k in set(c0) | set(c1) if c0.get(k) != c1.get(k))
        run.problems.append("counts differ between two traced runs: "
                            + ", ".join(f"{k} {c0.get(k)} vs {c1.get(k)}"
                                        for k in diff[:20]))
    try:
        fresh = run.child({"mode": "fresh", "workload": workload})[0]
    except ChildError as exc:
        run.problems.append(str(exc))
        return None
    metrics = {name: ((value + m1[name][0]) / 2 if unit in ("s", "us")
                      else value, unit)
               for name, (value, unit) in m0.items()}
    metrics.update({name: (value, "us")
                    for name, value in fresh["fresh_us"].items()})
    metrics["check_fail_ratio"] = (plain["check_fail_ratio"], "ratio")
    metrics["trace.overhead_ratio"] = (
        median([r["workload_s"] for r in traced]) / plain["workload_s"] - 1,
        "ratio")
    total, scalar = tracer.mul_totals(c0)
    print(f"  anchors: {c0.get('calls.core.FinslerSpace.spray_values', 0)} "
          f"spray evaluations, {total} Jet multiplications "
          f"({scalar} by a scalar)")
    return metrics


def measure(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object, or None when no
    workload run succeeded."""
    run = Run(seed, smoke)
    try:
        print(f"{workload} seed {seed} trace {trace}", flush=True)
        metrics = (per_layer(run, workload) if trace
                   else end_to_end(run, workload, seconds))
    finally:
        run.close()
    for problem in run.problems:
        print("error: " + problem, file=sys.stderr)
    if metrics is None:
        return None
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:34s} {value:>14.6g} {unit}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def smoke(seed):
    """Every workload in both modes at tiny sizes; every metric named in
    BENCHMARK.json must be present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ok = [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    if not ok:
        print("smoke: BENCHMARK.json names other workloads than workloads.py",
              file=sys.stderr)
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(workload, seed, 0, trace, smoke=True)
            if result is None or not result["correct"]:
                print(f"smoke: {workload} trace {trace} failed",
                      file=sys.stderr)
                ok = False
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                print(f"smoke: {workload} trace {trace} metrics differ from "
                      f"BENCHMARK.json: missing "
                      f"{sorted(set(want) - set(got))}, unexpected "
                      f"{sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in want if k in got and want[k] != got[k])}",
                      file=sys.stderr)
                ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=108)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload once at tiny sizes, checking the "
                        "metric names against BENCHMARK.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "finslerchange",
                                       "__init__.py")):
        print(f"error: no finslerchange sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        results = {w: [measure(w, args.seed, args.seconds, t) for t in (0, 1)]
                   for w in workloads.WORKLOADS}
        print(json.dumps(results))
        return 0 if all(r and r["correct"] for rs in results.values()
                        for r in rs) else 1
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
