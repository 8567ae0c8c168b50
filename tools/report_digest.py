"""Digest of the ``verify`` reports of a source tree, for byte-identity checks.

    python3 tools/report_digest.py [TREE ...]

For each source tree (default: the checkout this script lives in) and
each configuration in ``CONFIGS``, runs ``verify --format json-lines`` in
a fresh process with ``PYTHONPATH=<TREE>/src`` and prints one line:

    <configuration>  <sha256 of the report below its environment line,
                      first 16 hex digits>  exit <status>

The environment line carries interpreter and library versions, so it is
left out of the hash.  Run the script on the parent commit (a clone of
it) and on a change: a refactor that keeps every line identical keeps the
reports byte-identical.  With two or more trees it prints the lines of
each, then ``identical`` or the configurations that differ, and exits 1
on a difference.  Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

# (label, metric, change, hypersurface or None, samples, seed).  The first
# two are also the pinned configurations of the verify-degenerate and
# verify-regular-3d benchmark workloads; the last is verify-many-2d at
# benchmark seed 1.
CONFIGS = (
    ("euclid2+tangent_parabola+parabola2 n12 s108",
     "euclid2", "tangent_parabola", "parabola2", 12, 108),
    ("curved3+projective3 n12 s108", "curved3", "projective3", None, 12, 108),
    ("sphere2+conformal n50 s108", "sphere2", "conformal", None, 50, 108),
    ("randers2+projective n20 s108", "randers2", "projective", None, 20, 108),
    ("randers2+projective n200 s1", "randers2", "projective", None, 200, 1),
    ("sphere3+projective3 n10 s5", "sphere3", "projective3", None, 10, 5),
    ("randers2+projective n2000 s1", "randers2", "projective", None, 2000, 1),
)


def digest(tree, metric, change, hyper, samples, seed):
    """(first 16 hex digits of the report hash, exit status) of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.jsonl")
        argv = [sys.executable, "-c",
                "import sys; from finslerchange.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "verify", "--metric", metric, "--change", change,
                "--samples", str(samples), "--seed", str(seed),
                "--format", "json-lines", "--report", report]
        if hyper is not None:
            argv += ["--hypersurface", hyper]
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        rc = subprocess.run(argv, env=env, cwd=tmp).returncode
        if not os.path.exists(report):
            return "no-report", rc
        with open(report, "rb") as fh:
            body = fh.read().partition(b"\n")[2]
    return hashlib.sha256(body).hexdigest()[:16], rc


def main(argv=None):
    trees = (argv if argv is not None else sys.argv[1:]) or [
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    results = []
    for tree in trees:
        print(tree)
        got = []
        for label, *config in CONFIGS:
            h, rc = digest(os.path.abspath(tree), *config)
            print(f"  {label:45s} {h}  exit {rc}", flush=True)
            got.append((h, rc))
        results.append(got)
    if len(results) < 2:
        return 0
    differ = [CONFIGS[i][0] for i in range(len(CONFIGS))
              if len({r[i] for r in results}) > 1]
    print("identical" if not differ else "differ: " + "; ".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
