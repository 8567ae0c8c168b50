"""Workload definitions shared by the driver (run.py) and its child
processes (child.py).

Every workload reaches the package through its public entry points only:
``cli.main(["verify", ...])`` for the verify workloads, and
``ChangedPair`` / ``FinslerSpace.point`` for the tensor workload.
"""

WORKLOADS = ("verify-degenerate", "verify-regular-3d", "verify-many-2d",
             "tensors")

# Bundled spec names per verify workload.  ``smoke_suites`` leaves out the
# geodesic suites where their cost does not shrink with the sample count.
#
# ``pinned_seed`` fixes the seed handed to ``verify`` where the geodesic
# initial conditions it samples decide the cost.  verify-degenerate exists
# to measure the degenerate initial condition x0 = (1.424, 0.529), which
# appears only at some seeds: across verify seeds 1-7 one run took from
# 0.4 s to about 300 s.  On verify-regular-3d, seeds 1-3 and 108 moved the
# spray evaluations from 11,039 to 12,581 and the wall time by up to 18%.
# verify-many-2d and tensors pass the benchmark seed through: they draw many
# points, and their cost moves little with the seed.
_ALGEBRAIC = ("core-identities", "change-identities", "hypersurface",
              "invariants-5")
VERIFY = {
    "verify-degenerate": {"metric": "euclid2", "change": "tangent_parabola",
                          "hypersurface": "parabola2", "samples": 12,
                          "pinned_seed": 108, "smoke_suites": _ALGEBRAIC},
    "verify-regular-3d": {"metric": "curved3", "change": "projective3",
                          "samples": 12, "pinned_seed": 108,
                          "smoke_suites": _ALGEBRAIC},
    "verify-many-2d": {"metric": "randers2", "change": "projective",
                       "samples": 2000},
}
SMOKE_SAMPLES = 3

# (metric, change, tag) of the tensor workload; the tag names the
# dimension in the ``core.fresh_us.<tensor>.<tag>`` metrics.
TENSOR_CONFIGS = (("sphere3", "projective3", "n3"),
                  ("randers2", "projective", "n2"))
TENSOR_POINTS = 40
SMOKE_TENSOR_POINTS = 1

# The full tensor stack, in the order the tensor workload computes it.
TENSORS = ("g_low", "C_low", "spray", "n_conn", "berwald", "cartan_hconn",
           "riemann", "weyl_proj", "weyl_torsion", "douglas")

# Fresh points per configuration for the fresh-point tensor timings.
FRESH_POINTS = 5
SMOKE_FRESH_POINTS = 1


def verify_argv(workload, seed, report_path, smoke=False):
    """``verify`` arguments of a verify workload at a benchmark seed."""
    spec = VERIFY[workload]
    argv = ["verify", "--metric", spec["metric"], "--change", spec["change"],
            "--samples", str(SMOKE_SAMPLES if smoke else spec["samples"]),
            "--seed", str(spec.get("pinned_seed", seed)),
            "--format", "json-lines", "--report", report_path]
    if "hypersurface" in spec:
        argv[5:5] = ["--hypersurface", spec["hypersurface"]]
    if smoke:
        for suite in spec.get("smoke_suites", ()):
            argv += ["--suite", suite]
    return argv


def spec_names(workload):
    """(metric, change, hypersurface or None) triples the workload builds."""
    if workload == "tensors":
        return [(metric, change, None) for metric, change, _ in TENSOR_CONFIGS]
    spec = VERIFY[workload]
    return [(spec["metric"], spec["change"], spec.get("hypersurface"))]
