"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402


def _spans(tmp_path, spans, integrations):
    """Write a hand-made trace: spans are (name, parent, start, end)."""
    t = tracer.Tracer()
    for name, parent, start, end in spans:
        t.name_id.append(t._id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    t.integrations = integrations
    t.write(str(tmp_path))
    return str(tmp_path)


def _geodesic_trace(tmp_path, attempts):
    spray = "core.FinslerSpace.spray_values"
    spans = [("suites.suite_core", -1, 0.0, 10.0),
             ("geodesics.integrate_geodesic", 0, 1.0, 8.0)]
    spans += [(spray, 1, 1.0 + k * 0.5, 1.5 + k * 0.5) for k in range(7)]
    return _spans(tmp_path, spans, [(1, "finished", attempts)])


def test_self_time_and_geodesic_counts(tmp_path):
    metrics, counts = tracer.analyse(_geodesic_trace(tmp_path, 1))
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["suites.self_s"] == pytest.approx(3.0)
    assert value["geodesics.self_s"] == pytest.approx(3.5)
    assert value["core.self_s"] == pytest.approx(3.5)
    assert value["suites.core-identities_s"] == pytest.approx(10.0)
    assert value["geodesics.integrate_s"] == pytest.approx(7.0)
    assert value["core.spray_s"] == pytest.approx(3.5)
    # one spray to start, six per Dormand-Prince attempt
    assert value["geodesics.rk_attempts"] == 1
    assert value["geodesics.spray_evals"] == 7
    assert value["geodesic_fail_ratio"] == 0.0
    assert counts["calls.core.FinslerSpace.spray_values"] == 7


def test_attempts_disagreeing_with_sprays_fail(tmp_path):
    with pytest.raises(ValueError, match="RK attempts"):
        tracer.analyse(_geodesic_trace(tmp_path, 2))


def test_traced_run_reaches_suites_and_geodesics():
    # run_suites dispatches through a dict and suites imports
    # integrate_geodesic by name; both must still be traced.
    result = run.measure("verify-many-2d", 108, 0, 1, smoke=True)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["suites.projectivity_s"] > 0 and m["suites.geodesics_s"] > 0
    assert m["geodesics.integrations"] > 0 and m["geodesics.rk_attempts"] > 0
    assert m["sampling.draws"] > 0 and m["change.points"] > 0


def test_smoke_mode_checks_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("smoke: ok")
