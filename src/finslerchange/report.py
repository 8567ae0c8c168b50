"""Check records and report emission.

A verification run produces one ``CheckRecord`` per enabled check.  The
structured format is JSON lines: an environment record first (versions,
seed, configuration), then one check record per line with sorted keys,
so identical runs produce byte-identical output below the environment
line.  The text format is a human-readable table with a tally footer.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__

VERDICTS = ("pass", "fail", "reported-residual", "skipped")

_FIELDS = ("check_id", "law", "samples", "max_abs_err", "max_rel_err",
           "tol", "verdict", "notes")


class ReportError(Exception):
    pass


@dataclass
class CheckRecord:
    """Outcome of one check across its sample set.

    ``law`` names the relation being tested (a short slug, e.g.
    ``angular-metric-kills-y``); ``notes`` carries anything a reader
    needs to interpret a non-pass verdict.
    """

    check_id: str
    law: str
    samples: int
    max_abs_err: float
    max_rel_err: float
    tol: float
    verdict: str
    notes: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ReportError(f"unknown verdict {self.verdict!r}")
        self.max_abs_err = float(self.max_abs_err)
        self.max_rel_err = float(self.max_rel_err)
        self.tol = float(self.tol)


@dataclass
class Report:
    environment: dict
    records: list = field(default_factory=list)

    def counts(self):
        out = {v: 0 for v in VERDICTS}
        for r in self.records:
            out[r.verdict] += 1
        return out

    def hard_failures(self):
        return [r for r in self.records if r.verdict == "fail"]


def worst_errors(pairs):
    """(max abs, max rel) difference over (got, want) pairs of arrays or
    scalars, each of one point, NaN where any pair's difference is NaN.
    Pairs are grouped by the shapes of their two arrays, and each group is
    measured as one pair of stacked arrays by ``stacked_errors``."""
    groups = {}
    for got, want in pairs:
        a = np.asarray(got, dtype=float)
        b = np.asarray(want, dtype=float)
        group = groups.setdefault((a.shape, b.shape), ([], []))
        group[0].append(a)
        group[1].append(b)
    return stacked_errors(
        (np.reshape(a_list, (len(a_list),) + a_shape),
         np.reshape(b_list, (len(b_list),) + b_shape))
        for (a_shape, b_shape), (a_list, b_list) in groups.items())


def stacked_errors(pairs):
    """(max abs, max rel) difference over (got, want) pairs of arrays
    whose first axis indexes points, NaN where any point's difference is
    NaN; a scalar side is the same at every point.

    Each point's error is reduced before the maximum: its relative error
    is its absolute error over max(1, |got|, |want|) at that point, so
    identities whose exact value is zero are judged absolutely."""
    abs_errs, rel_errs = [np.zeros(1)], [np.zeros(1)]
    for got, want in pairs:
        A = np.asarray(got, dtype=float)
        B = np.asarray(want, dtype=float)
        k = len(A) if A.ndim else len(B)
        A, B = (np.broadcast_to(X, (k,)) if X.ndim == 0 else X
                for X in (A, B))
        ndim = max(A.ndim, B.ndim)
        # per point: the other axes broadcast as in a - b
        A = A.reshape((k,) + (1,) * (ndim - A.ndim) + A.shape[1:])
        B = B.reshape((k,) + (1,) * (ndim - B.ndim) + B.shape[1:])
        zeros = np.zeros(k)
        abs_err = (np.max(np.abs(A - B).reshape(k, -1), axis=1)
                   if A[0].size else zeros)
        top_a = np.max(np.abs(A).reshape(k, -1), axis=1) if A[0].size else zeros
        top_b = np.max(np.abs(B).reshape(k, -1), axis=1) if B[0].size else zeros
        # fmax skips a NaN maximum: a NaN reaches the result through abs_err
        with np.errstate(invalid="ignore"):
            rel_err = abs_err / np.fmax(np.fmax(1.0, top_a), top_b)
        abs_errs.append(abs_err)
        rel_errs.append(rel_err)
    # np.max keeps a NaN error, where max() would drop it.
    return (float(np.max(np.concatenate(abs_errs))),
            float(np.max(np.concatenate(rel_errs))))


def errors_between(got, want):
    """(max abs, max rel) difference of two arrays/scalars: the
    ``worst_errors`` of the one pair."""
    return worst_errors([(got, want)])


def environment_block(seed, extra=None):
    env = {
        "record": "environment",
        "tool": "finslerchange",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }
    if extra:
        env.update(extra)
    return env


def emit_json_lines(report):
    lines = [json.dumps(report.environment, sort_keys=True)]
    for rec in report.records:
        row = {"record": "check", **asdict(rec)}
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_json_lines(text):
    env = None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReportError(f"line {lineno}: not valid JSON: {exc}")
        if not isinstance(row, dict):
            raise ReportError(f"line {lineno}: not a JSON object")
        kind = row.get("record")
        if kind == "environment":
            env = row
        elif kind == "check":
            try:
                records.append(CheckRecord(**{k: row[k] for k in _FIELDS}))
            except KeyError as exc:
                raise ReportError(f"line {lineno}: missing field {exc}")
        else:
            raise ReportError(f"line {lineno}: unknown record kind {kind!r}")
    if env is None:
        raise ReportError("no environment record found")
    return Report(env, records)


def emit_text(report):
    env = report.environment
    head = [f"finslerchange {env.get('version', '?')}  "
            f"(python {env.get('python', '?')}, numpy {env.get('numpy', '?')})",
            f"seed = {env.get('seed')}"]
    for key in sorted(env):
        if key in ("record", "tool", "version", "python", "numpy", "seed"):
            continue
        head.append(f"{key} = {env[key]}")

    rows = [("check", "law", "n", "max abs", "max rel", "tol", "verdict")]
    for r in report.records:
        rows.append((r.check_id, r.law, str(r.samples),
                     f"{r.max_abs_err:.3e}", f"{r.max_rel_err:.3e}",
                     f"{r.tol:.1e}", r.verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = list(head)
    lines.append("")
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     .rstrip())
        if k == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        elif report.records[k - 1].notes:
            lines.append(f"    note: {report.records[k - 1].notes}")
    counts = report.counts()
    lines.append("")
    lines.append(f"{len(report.records)} checks: "
                 + ", ".join(f"{counts[v]} {v}" for v in VERDICTS))
    return "\n".join(lines) + "\n"
