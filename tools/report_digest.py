"""Digest of the ``verify`` reports of a source tree, for byte-identity checks.

    python3 tools/report_digest.py [TREE ...]

For each source tree (default: the checkout this script lives in) and
each configuration in ``CONFIGS``, runs ``verify --format json-lines`` in
a fresh process with ``PYTHONPATH=<TREE>/src`` and prints one line:

    <configuration>  <sha256 of the report below its environment line,
                      first 16 hex digits>  exit <status>

The environment line carries interpreter and library versions, so it is
left out of the hash.  Each record line is also hashed on its own, so
that a difference names the check ids behind it.  A line per tree,
``tensor stack``, hashes the bytes of every ``PointGeometry`` tensor of
base and changed space at the sampled points of ``TENSOR_PAIRS``, and
the frame data (``x``, ``B``, ``B2``, normal, normal curvature) of both
sides of ``HYPER`` on lone points: the hypersurface sampler's
``HyperPoint``, and one with its embedding data on a changed
``PointGeometry`` where the changed metric keeps the draw (``L*`` > 0
from ``RandersChange.at``, and the changed point builds), so that
tensors no report prints are covered too; each tensor name is hashed on
its own in the same way.  A line
``fresh tensor stack`` hashes the same tensors at the same points, each
on its own new ``PointGeometry``: a tensor there reads no jet that
another tensor left cached, so a result that depends on the order of
requests shows.  Those lone points build their jet layers at the top
orders, so where the tree before a change built them at the orders asked
for, this line's equality between the two trees checks that the lower
orders are cuts of the top ones; within one tree, the sampled stack
below and ``test_core`` carry that check.  A line ``sampled tensor
stack`` hashes the same tensors of both sides at the points
``sample_points`` returns for ``SAMPLED``, requested tensor by tensor
over all points, as ``verify``'s checks request them: each light tensor
(``core.ROW_TENSORS``) is read as the rows of the samples' blocks
(``sampling.Samples.blocks``), which must match the one-point tensors bit
for bit, since a report's maxima could hide a difference in the last
bit, and each other tensor on a lone point.  The bytes go tensor by
tensor, then point by point, base before changed side, as the lone
points' would.  A line ``sampled 3d chunk`` hashes ``CHUNK_TENSORS`` in
the same way at the points of ``CHUNK``, one full chunk of
``sampling.BLOCK_SIZE`` points per 3D pair, so that the products of
blocks as wide as a chunk in every space of a 3D point are covered.  A
line ``order-2 stack`` hashes ``ORDER2`` (``L2``,
``y_low``, ``g_low``, ``g_up`` and ``spray``, which read a point's
order-2 jet of ``L^2`` alone) on a new lone point per side at
``ORDER2_POINTS`` sampled points of every bundled metric with every
bundled change that binds to its dimension, and of ``SQRT2`` with
``projective``: a change to how that jet is computed shows there on
every bundled spec.  A line ``spray values`` hashes
``FinslerSpace.spray_values`` of both sides at the same points, with
``y`` scaled by each of ``SPRAY_SCALES``, and at those points moved
``FAR`` times as far from the middle of the box; where a call raises, it
hashes the error's type and text.  A line ``spray fallback`` hashes
``spray_values`` and ``spray_g``, or the error's type and text, for the
specs and points of ``FALLBACK`` at each ``y`` of ``FALLBACK_YS``: specs
without a compiled program, a program whose guard fails, coefficients
that are not finite or whose sum overflows, a singular ``g`` and
``L^2 = 0``, which the points of the line before never reach.  Run the
script on the parent commit
(a clone of it) and on a change: a refactor that keeps every line identical keeps the
reports and the tensors byte-identical.  With two or more trees it
prints the lines of each, then ``identical`` or the configurations that
differ with the records or tensors that differ in them, for example
``differ: randers2+projective n20 s108 (geo.retrace); tensor stack
(weyl_torsion)``, and exits 1 on a difference.
Uses the standard library only; the tensor child imports the tree's
package and numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

# Metric specs kept beside this script, passed to ``verify`` by path.
SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")
SQRT2 = os.path.join(SPECS, "sqrt2.fspec")
RANDERS3 = os.path.join(SPECS, "randers3.fspec")

# (label, metric, change, hypersurface or None, samples, seed).  The first
# two are also the pinned configurations of the verify-degenerate and
# verify-regular-3d benchmark workloads; the seventh is verify-many-2d at
# benchmark seed 1.  The eighth and ninth are the 3D hypersurface chain,
# where every hypersurface check is measured, and a non-projective change
# with a closed curve: its drift (-0.1 x2, 0.1 x1) cancels the drift of
# the irreversible randers2, so the changed side is Euclidean.  The tenth
# is a metric whose block evaluations raise, so sampling judges those
# chunks draw by draw and builds their blocks again at the kept draws.
# The eleventh measures every row that reads block forms in 3D, on one
# full chunk and a tail of 44 points.  The last is a non-quadratic 3D
# base: its blocks sum ``C y`` and ``berwald y`` in the order a lone
# point does only where their ``y`` is laid out as its own, and its
# Douglas tensor is nonzero, so the heavy rows measure more than zeros.
CONFIGS = (
    ("euclid2+tangent_parabola+parabola2 n12 s108",
     "euclid2", "tangent_parabola", "parabola2", 12, 108),
    ("curved3+projective3 n12 s108", "curved3", "projective3", None, 12, 108),
    ("sphere2+conformal n50 s108", "sphere2", "conformal", None, 50, 108),
    ("randers2+projective n20 s108", "randers2", "projective", None, 20, 108),
    ("randers2+projective n200 s1", "randers2", "projective", None, 200, 1),
    ("sphere3+projective3 n10 s5", "sphere3", "projective3", None, 10, 5),
    ("randers2+projective n2000 s1", "randers2", "projective", None, 2000, 1),
    ("curved3+projective3+plane3 n12 s108",
     "curved3", "projective3", "plane3", 12, 108),
    ("randers2+randers_nonclosed+circle2 n20 s108",
     "randers2", "randers_nonclosed", "circle2", 20, 108),
    ("sqrt2+projective n300 s1", SQRT2, "projective", None, 300, 1),
    ("sphere3+projective3 n300 s1", "sphere3", "projective3", None, 300, 1),
    ("randers3+projective3 n30 s108", RANDERS3, "projective3", None, 30, 108),
)

# (metric, change) pairs of the tensor digest, each at TENSOR_POINTS points
# sampled with TENSOR_SEED, and the (metric, change, hypersurface) whose
# frame data it covers at as many sampled surface points.
TENSOR_PAIRS = (("sphere3", "projective3"), ("randers2", "projective"),
                ("curved3", "projective3"), ("euclid2", "tangent_parabola"))
HYPER = ("euclid2", "tangent_parabola", "parabola2")
TENSOR_POINTS = 8
TENSOR_SEED = 7
TENSORS = ("L2", "L", "y_low", "l_low", "g_low", "g_up", "h_low", "C_low",
           "C_up", "spray", "n_conn", "berwald", "cartan_hconn", "douglas",
           "riemann", "ric", "weyl_proj", "weyl_torsion")
HYPER_DATA = ("x", "B", "B2", "normal_up", "normal_curvature")
# The tensors of the order-2 stack, and its points per metric and change.
ORDER2 = ("L2", "y_low", "g_low", "g_up", "spray")
ORDER2_POINTS = 20
# The scales of y at which the spray values line evaluates the spray, and
# the factor by which it moves points away from the middle of the box.
SPRAY_SCALES = (1e-6, 1.0, 1e6)
FAR = 1.5
# (L^2, x) of the spray fallback line, each at every y of FALLBACK_YS:
# the failing points of test_core, a singular g, L^2 = 0, coefficients
# whose sum overflows, a jet exponent (no program) and coefficients that
# overflow.
FALLBACK = (
    ("y1^2 + y2^2 + 1e-300 * exp(800 * x1) * y1^2", (0.88, 0.0)),
    ("(y1^2 + y2^2) * sqrt(x1)", (-0.5, 0.0)),
    ("(y1^2 + y2^2) * (2 + log(x1))", (0.0, 0.3)),
    ("y1^2 + y2^2 + y1^2 / x1", (0.0, 0.3)),
    ("(y1^2 + y2^2) * x1^(1e300 * 1e300)", (0.5, 0.3)),
    ("y1^2 + y2^2 + 1 / ((x1 + x2) * (y1 + x2) * x2^0)", (0.5, 1e300)),
    ("y1^2 + y2^2 + 1e-300 * exp(800 * x1) * (x2^0 * 0)", (0.88, 0.0)),
    ("(y1 + y2)^2", (0.3, 0.2)),
    ("(y1 - 2 * y2)^2", (0.3, 0.2)),
    ("4e307 * (y1^2 + y2^2) * (1 + x1^2)", (0.5, 0.0)),
    ("(y1^2 + y2^2) * x1^x2", (0.7, -0.4)),
    ("y1^2 + y2^2 * exp(700 * x1)", (0.99, 0.0)),
)
FALLBACK_YS = ((1.0, 0.5), (1.0, 1.0))
# (metric, change, samples, seed) of the sampled tensor digest: the
# configurations of verify-many-2d's 200-sample digest line and of
# verify-regular-3d, and the one bundled pair whose sampler rejects draws
# (3 of 203, where L* <= 0), so that blocks built again at the draws a
# chunk keeps are covered.
SAMPLED = (("randers2", "projective", 200, 1),
           ("curved3", "projective3", 12, 108),
           ("sphere2", "tangent_parabola", 200, 1))
# The same for the sampled 3D chunk line, and the tensors it hashes: L2
# and those read from the light jet layers that blocks evaluate.
CHUNK = (("sphere3", "projective3", 256, 1),
         ("curved3", "randers_nonclosed", 256, 1))
CHUNK_TENSORS = ("L2", "y_low", "g_low", "C_low", "spray", "n_conn",
                 "berwald", "cartan_hconn", "riemann")


def digest(tree, metric, change, hyper, samples, seed):
    """(first 16 hex digits of the report hash, exit status, {check id:
    hash of its record line}) of one run."""
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
            return "no-report", rc, {}
        with open(report, "rb") as fh:
            body = fh.read().partition(b"\n")[2]
    records = {json.loads(line)["check_id"]: _short(line)
               for line in body.splitlines()}
    return _short(body), rc, records


def _short(data):
    return hashlib.sha256(data).hexdigest()[:16]


class _Hashes:
    """sha256 of a sequence of arrays, and of the arrays of each name."""

    def __init__(self):
        self.whole = hashlib.sha256()
        self.parts = {}

    def add(self, name, value):
        import numpy as np
        self.add_bytes(name,
                       np.ascontiguousarray(value, dtype=float).tobytes())

    def add_bytes(self, name, data):
        self.whole.update(data)
        self.parts.setdefault(name, hashlib.sha256()).update(data)

    def digests(self):
        return self.whole.hexdigest()[:16], {
            name: part.hexdigest()[:16] for name, part in self.parts.items()}


def _sampled(configs, tensors):
    """(sha256 of ``tensors`` of both sides at the points ``sample_points``
    returns for ``configs``, {tensor name: sha256}), requested tensor by
    tensor over all points: a light tensor as the rows of the samples'
    blocks, any other on a lone point of each side, built once."""
    from finslerchange.change import ChangedPair
    from finslerchange.core import ROW_TENSORS
    from finslerchange.lang import resolve_spec
    from finslerchange.sampling import sample_pair_points, sample_points

    hashes = _Hashes()
    for metric, change, samples, seed in configs:
        pair = ChangedPair(resolve_spec(metric, expect="metric"),
                           resolve_spec(change, expect="change"))
        blocks = sample_points(pair, samples, seed)[0].blocks
        lone = []
        for name in tensors:
            if name in ROW_TENSORS:
                for cb in blocks:
                    for rows in zip(getattr(cb.base, name)(),
                                    getattr(cb.star, name)()):
                        for row in rows:
                            hashes.add(name, row)
                continue
            if not lone:
                points, _ = sample_pair_points(pair, samples, seed)
                lone = [space.point(x, y) for x, y in points
                        for space in (pair.base, pair.starred)]
            for pg in lone:
                hashes.add(name, getattr(pg, name)())
    return hashes.digests()


def sampled_stack():
    """(sha256 of the sampled tensor stack, {tensor name: sha256}),
    computed with the package on the import path; run in a child process
    by ``tensor_digest``."""
    return _sampled(SAMPLED, TENSORS)


def sampled_chunk():
    """(sha256 of the sampled 3D chunk, {tensor name: sha256}), computed
    with the package on the import path; run in a child process by
    ``tensor_digest``."""
    return _sampled(CHUNK, CHUNK_TENSORS)


def _tensor_points():
    """(space, x, y) for both sides of the points of ``TENSOR_PAIRS``."""
    from finslerchange.change import ChangedPair
    from finslerchange.lang import resolve_spec
    from finslerchange.sampling import sample_pair_points

    for metric, change in TENSOR_PAIRS:
        pair = ChangedPair(resolve_spec(metric, expect="metric"),
                           resolve_spec(change, expect="change"))
        points, _ = sample_pair_points(pair, TENSOR_POINTS, TENSOR_SEED)
        for x, y in points:
            for space in (pair.base, pair.starred):
                yield space, x, y


def fresh_stack():
    """(sha256 of the fresh tensor stack, {tensor name: sha256}): the
    tensors of ``tensor_stack``'s points, each on its own new point;
    run in a child process by ``tensor_digest``."""
    hashes = _Hashes()
    for space, x, y in _tensor_points():
        for name in TENSORS:
            hashes.add(name, getattr(space.point(x, y), name)())
    return hashes.digests()


def tensor_stack():
    """(sha256 of the tensor stack, {tensor name: sha256 of its arrays}),
    computed with the package on the import path; run in a child process
    by ``tensor_digest``.  Frame data names carry a ``hyper.`` prefix."""
    import numpy as np

    from finslerchange.hypersurface import ChangedHypersurface, HyperPoint
    from finslerchange.jets import JetDomainError
    from finslerchange.lang import resolve_spec
    from finslerchange.sampling import sample_hyper_points

    hashes = _Hashes()
    add = hashes.add
    for space, x, y in _tensor_points():
        pg = space.point(x, y)
        for name in TENSORS:
            add(name, getattr(pg, name)())
    metric, change, hyper = HYPER
    chs = ChangedHypersurface(resolve_spec(metric, expect="metric"),
                              resolve_spec(change, expect="change"),
                              resolve_spec(hyper, expect="hypersurface"))
    draws, _ = sample_hyper_points(chs.base_h, TENSOR_POINTS, TENSOR_SEED)
    for draw in draws:
        sigma, _, b, _ = chs.pair.change.at(draw.x[:, None])
        if not float(np.exp(sigma[0])) * draw.pg.L() + b[:, 0] @ draw.y > 0:
            continue
        try:
            star = HyperPoint(draw.spec, draw.u, draw.v, draw.B, draw.B2,
                              chs.pair.starred.point(draw.x, draw.y))
        except JetDomainError:
            continue
        for side in (draw, star):
            for name in HYPER_DATA:
                value = getattr(side, name)
                add("hyper." + name, value() if callable(value) else value)
    return hashes.digests()


def _order2_points():
    """(pair, sampled points) of every bundled metric with every bundled
    change that binds to its dimension, and of ``SQRT2`` with
    ``projective``: ``ORDER2_POINTS`` points each, sampled with
    ``TENSOR_SEED``."""
    from importlib import resources

    from finslerchange.change import ChangedPair
    from finslerchange.lang import SpecError, resolve_spec, spec_kind
    from finslerchange.sampling import sample_pair_points

    specs = {}
    for entry in sorted(e.name for e in (resources.files("finslerchange")
                                         / "specs").iterdir()):
        spec = resolve_spec(entry[:-len(".fspec")])
        specs.setdefault(spec_kind(spec), []).append(spec.name)
    configs = [(m, c) for m in specs["metric"] for c in specs["change"]]
    for metric, change in configs + [(SQRT2, "projective")]:
        try:
            pair = ChangedPair(resolve_spec(metric, expect="metric"),
                               resolve_spec(change, expect="change"))
        except SpecError:
            continue
        points, _ = sample_pair_points(pair, ORDER2_POINTS, TENSOR_SEED)
        yield pair, points


def order2_stack():
    """(sha256 of the order-2 stack, {tensor name: sha256}), computed with
    the package on the import path; run in a child process by
    ``tensor_digest``."""
    hashes = _Hashes()
    for pair, points in _order2_points():
        for x, y in points:
            for space in (pair.base, pair.starred):
                pg = space.point(x, y)
                for name in ORDER2:
                    hashes.add(name, getattr(pg, name)())
    return hashes.digests()


def spray_values():
    """(sha256 of the spray values, {part: sha256}), computed with the
    package on the import path; run in a child process by
    ``tensor_digest``.  Part ``spray_values`` hashes the values, part
    ``error`` the type and text of each call that raises."""
    import numpy as np

    hashes = _Hashes()
    for pair, points in _order2_points():
        box = pair.base.spec.x_box
        mid = 0.5 * (box[:, 0] + box[:, 1])
        far = [(mid + FAR * (np.asarray(x) - mid), y) for x, y in points]
        for x, y in points + far:
            for space in (pair.base, pair.starred):
                for scale in SPRAY_SCALES:
                    try:
                        with np.errstate(all="ignore"):
                            G = space.spray_values(x, scale * np.asarray(y))
                    except Exception as exc:
                        hashes.add_bytes(
                            "error", f"{type(exc).__name__}: {exc}".encode())
                    else:
                        hashes.add("spray_values", G)
    return hashes.digests()


def spray_fallback():
    """(sha256 of the spray fallback line, {part: sha256}), computed with
    the package on the import path; run in a child process by
    ``tensor_digest``.  Parts ``spray_values`` and ``spray_g`` hash the
    values and ``FinslerSpace.spray_g`` of each call that answers, part
    ``error`` the type and text of each call that raises."""
    import numpy as np

    from finslerchange.core import FinslerSpace
    from finslerchange.lang import parse_spec_text

    hashes = _Hashes()
    for text, x in FALLBACK:
        space = FinslerSpace(parse_spec_text(f"dim 2\nL2 = {text}\n",
                                             name="fallback"))
        for y in FALLBACK_YS:
            try:
                with np.errstate(all="ignore"):
                    G = space.spray_values(x, y)
            except Exception as exc:
                hashes.add_bytes(
                    "error", f"{type(exc).__name__}: {exc}".encode())
            else:
                hashes.add("spray_values", G)
                hashes.add("spray_g", space.spray_g)
    return hashes.digests()


# child process flag -> the digest it prints
STACKS = {"--tensor-stack": tensor_stack, "--fresh-stack": fresh_stack,
          "--sampled-stack": sampled_stack, "--sampled-chunk": sampled_chunk,
          "--order2-stack": order2_stack,
          "--spray-values": spray_values, "--spray-fallback": spray_fallback}


def tensor_digest(tree, flag):
    """(hash, exit status, {tensor name: hash}) of the stack of a child
    flag (a key of ``STACKS``) on a tree, in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), flag]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        return "no-digest", out.returncode, {}
    return lines[0], 0, dict(line.split() for line in lines[1:])


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) == 1 and argv[0] in STACKS:
        combined, parts = STACKS[argv[0]]()
        print(combined)
        for name, part in parts.items():
            print(name, part)
        return 0
    trees = argv or [
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    stacks = (("tensor stack", "--tensor-stack"),
              ("fresh tensor stack", "--fresh-stack"),
              ("sampled tensor stack", "--sampled-stack"),
              ("sampled 3d chunk", "--sampled-chunk"),
              ("order-2 stack", "--order2-stack"),
              ("spray values", "--spray-values"),
              ("spray fallback", "--spray-fallback"))
    labels = [c[0] for c in CONFIGS] + [label for label, _ in stacks]
    # per tree, one (hash, exit status, {part name: hash}) per label
    results = []
    for tree in trees:
        tree = os.path.abspath(tree)
        print(tree)
        got = []
        for label, *config in CONFIGS:
            got.append(digest(tree, *config))
            print(f"  {label:45s} {got[-1][0]}  exit {got[-1][1]}",
                  flush=True)
        for label, flag in stacks:
            got.append(tensor_digest(tree, flag))
            print(f"  {label:45s} {got[-1][0]}  exit {got[-1][1]}",
                  flush=True)
        results.append(got)
    if len(results) < 2:
        return 0
    differ = []
    for i, label in enumerate(labels):
        if len({r[i][:2] for r in results}) == 1:
            continue
        parts = [r[i][2] for r in results]
        names = [name for name in dict.fromkeys(n for p in parts for n in p)
                 if len({p.get(name) for p in parts}) > 1]
        differ.append(f"{label} ({', '.join(names)})" if names else label)
    print("identical" if not differ else "differ: " + "; ".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
