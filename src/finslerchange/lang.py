"""Line-oriented spec files describing metrics, changes, and hypersurfaces.

A spec file is a sequence of ``key = value`` lines (the ``=`` is optional),
with ``#`` starting a comment.  Values are either arithmetic expressions in
the coordinate variables or flat number lists, depending on the key.  The
full grammar lives in docs/grammar.md.

Three kinds of file are recognized by the keys they use:

* metric        -- ``dim``, one of ``L`` / ``L2`` / ``a_ij`` entries,
                   optional ``x_box``, ``y_annulus``
* change        -- optional ``dim``, ``sigma``, ``b1`` .. ``bn``
* hypersurface  -- ``dim``, embeddings ``x1`` .. ``xn`` in ``u1`` .. ``u(n-1)``,
                   optional ``u_box``, ``v_annulus``, ``normal_ref``
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, JetDomainError

MAX_DIM = 6

_VECTOR_KEYS = ("x_box", "y_annulus", "u_box", "v_annulus", "normal_ref")
_FUNCS = ("sqrt", "exp", "log", "sin", "cos")
_CONSTANTS = {"pi": math.pi, "e": math.e}


class SpecError(Exception):
    """Malformed spec file (syntax, unknown key, scope or shape violation)."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", column {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True, slots=True)
class Num:
    value: float
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Neg:
    arg: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: object
    right: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple
    line: int = 0
    col: int = 0


def free_vars(node):
    """Variable names used by an expression, built-in constants excluded."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            if n.name not in _CONSTANTS:
                out.add(n.name)
        elif isinstance(n, Neg):
            stack.append(n.arg)
        elif isinstance(n, Bin):
            stack.append(n.left)
            stack.append(n.right)
        elif isinstance(n, Call):
            stack.extend(n.args)
    return out


# id(node) -> (node, closure).  Holding the node keeps its id from being
# reused, so the tree is compiled once and never hashed.
_COMPILED = {}


def evaluate(node, env):
    """Evaluate an expression over floats, float arrays or Jets.

    ``env`` maps variable names to values; plain numbers, arrays of
    float64 and Jet instances flow through the same code.  An array is a
    stack of points: ``+``, ``-``, ``*``, ``/`` and negation are the IEEE
    operations of Python floats at each element, and ``^`` and function
    calls take each element in Python floats and ``math``, so that every
    element is bit for bit the float of its point.  Where an element
    raises, which element raises first is not defined.  The first call
    compiles the expression into nested closures, which later calls
    reuse.
    """
    hit = _COMPILED.get(id(node))
    if hit is None:
        hit = _COMPILED[id(node)] = (node, _compile(node))
    return hit[1](env)


def _compile(node):
    """A function of ``env`` that evaluates ``node``: the operations of a
    tree walk, in the same order, without the per-node dispatch."""
    if isinstance(node, Num):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        return _compile_var(node)
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda env: -arg(env)
    if isinstance(node, Bin):
        make = _BINARY.get(node.op, _power)
        return make(_compile(node.left), _compile(node.right))
    if isinstance(node, Call):
        return _compile_call(node)
    raise TypeError(f"not an expression node: {node!r}")


def _compile_var(node):
    name = node.name
    if name in _CONSTANTS:
        const = _CONSTANTS[name]
        return lambda env: env.get(name, const)

    def var(env):
        try:
            return env[name]
        except KeyError:
            raise SpecError(f"unknown variable {name!r}",
                            node.line, node.col) from None
    return var


def _divide(lhs, rhs):
    def divide(env):
        a, b = lhs(env), rhs(env)
        if isinstance(a, Jet) or isinstance(b, Jet):
            if not isinstance(a, Jet):
                return b.reciprocal() * a
            return a / b
        if not b.all() if isinstance(b, np.ndarray) else b == 0.0:
            raise JetDomainError("division by zero")
        return a / b
    return divide


def _elementwise(fn, *args):
    """``fn`` of Python floats at each element of the broadcast arrays
    and floats ``args``, as an array."""
    arrays = np.broadcast_arrays(*args)
    return np.array(list(map(fn, *(a.tolist() for a in arrays))),
                    dtype=float).reshape(arrays[0].shape)


def _float_power(a, b):
    try:
        if a < 0.0 and b != int(b):
            raise JetDomainError(f"power {b} of negative value {a}")
        return float(a) ** float(b)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise JetDomainError(f"power {b} of {a}: {exc}") from exc


def _power(lhs, rhs):
    def power(env):
        a, b = lhs(env), rhs(env)
        if isinstance(a, Jet):
            return a.powf(b)
        if isinstance(b, Jet):
            return b._like(a).powf(b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return _elementwise(_float_power, a, b)
        return _float_power(a, b)
    return power


_BINARY = {
    "+": lambda lhs, rhs: lambda env: lhs(env) + rhs(env),
    "-": lambda lhs, rhs: lambda env: lhs(env) - rhs(env),
    "*": lambda lhs, rhs: lambda env: lhs(env) * rhs(env),
    "/": _divide,
}


def _compile_call(node):
    (arg,) = [_compile(a) for a in node.args]
    name = node.fn
    jet_fn, math_fn = getattr(Jet, name), getattr(math, name)

    def float_fn(val):
        try:
            return math_fn(val)
        except (OverflowError, ValueError) as exc:
            raise JetDomainError(f"{name} domain error: {exc}") from exc

    def call(env):
        val = arg(env)
        if isinstance(val, Jet):
            return jet_fn(val)
        if isinstance(val, np.ndarray):
            return _elementwise(float_fn, val)
        return float_fn(val)
    return call


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),=]))"
)


def _tokenize(text, line_no):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].isspace():
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise SpecError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "num":
            num, col = m.group("num"), m.start("num") + 1
            if not math.isfinite(float(num)):
                raise SpecError(f"number {num} overflows to infinity",
                                line_no, col)
            tokens.append(("num", num, line_no, col))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), line_no, m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), line_no, m.start("op") + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", "", 0, 0)
            raise SpecError("unexpected end of expression", last[2], last[3])
        self.i += 1
        return tok

    def _accept_op(self, *ops):
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise SpecError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self._accept_op("+", "-")
            if tok is None:
                return node
            node = Bin(tok[1], node, self.term(), tok[2], tok[3])

    def term(self):
        node = self.unary()
        while True:
            tok = self._accept_op("*", "/")
            if tok is None:
                return node
            node = Bin(tok[1], node, self.unary(), tok[2], tok[3])

    def unary(self):
        tok = self._accept_op("-")
        if tok is not None:
            return Neg(self.unary(), tok[2], tok[3])
        return self.power()

    def power(self):
        node = self.atom()
        tok = self._accept_op("^")
        if tok is not None:
            node = Bin("^", node, self.unary(), tok[2], tok[3])
        return node

    def _close(self, ln, col):
        """Consume a ')', or raise at the next token, else at the token
        at ``ln``, ``col`` that opened the group."""
        if not self._accept_op(")"):
            nxt = self._peek()
            at = nxt if nxt else (None, None, ln, col)
            raise SpecError("expected ')'", at[2], at[3])

    def atom(self):
        tok = self._next()
        kind, text, ln, col = tok
        if kind == "num":
            return Num(float(text), ln, col)
        if kind == "name":
            if self._accept_op("("):
                args = [self.expr()]
                while self._accept_op(","):
                    args.append(self.expr())
                self._close(ln, col)
                if text not in _FUNCS:
                    raise SpecError(f"unknown function {text!r}", ln, col)
                if len(args) != 1:
                    raise SpecError(f"{text} takes one argument", ln, col)
                return Call(text, tuple(args), ln, col)
            return Var(text, ln, col)
        if kind == "op" and text == "(":
            node = self.expr()
            self._close(ln, col)
            return node
        raise SpecError(f"unexpected token {text!r}", ln, col)


def parse_expression(text, line_no=1):
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise SpecError("empty expression", line_no)
    return _Parser(tokens).parse()


def _parse_number_list(tokens, key, line_no):
    vals = []
    i = 0
    while i < len(tokens):
        sign = 1.0
        kind, text, ln, col = tokens[i]
        if kind == "op" and text == ",":
            i += 1
            continue
        if kind == "op" and text in ("-", "+"):
            sign = -1.0 if text == "-" else 1.0
            i += 1
            if i >= len(tokens):
                raise SpecError(f"dangling sign in {key}", ln, col)
            kind, text, ln, col = tokens[i]
        if kind != "num":
            raise SpecError(f"{key} expects numbers, got {text!r}", ln, col)
        vals.append(sign * float(text))
        i += 1
    if not vals:
        raise SpecError(f"{key} needs at least one number", line_no)
    return vals


# ---------------------------------------------------------------------------
# canonical printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def format_number(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def format_expression(node):
    return _fmt(node, 0)


def _node_prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 2.5
    return 5


def _fmt(node, ctx):
    if isinstance(node, Num):
        s = format_number(node.value)
    elif isinstance(node, Var):
        s = node.name
    elif isinstance(node, Call):
        s = f"{node.fn}({', '.join(_fmt(a, 0) for a in node.args)})"
    elif isinstance(node, Neg):
        s = "-" + _fmt(node.arg, 2.5)
    elif isinstance(node, Bin):
        p = _PREC[node.op]
        if node.op == "^":
            s = _fmt(node.left, 5) + "^" + _fmt(node.right, 4)
        else:
            right_ctx = p + 1 if node.op in ("-", "/") else p
            s = f"{_fmt(node.left, p)} {node.op} {_fmt(node.right, right_ctx)}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _node_prec(node) < ctx:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# spec objects

_A_KEY = re.compile(r"^a_([1-9])([1-9])$")
_B_KEY = re.compile(r"^b([1-9])$")
_X_KEY = re.compile(r"^x([1-9])$")
# The keys of each spec kind besides ``dim``: fixed names and a pattern of
# indexed names.  A file is of the kind its keys belong to.
_KIND_KEYS = {
    "metric": ({"L", "L2", "x_box", "y_annulus"}, _A_KEY),
    "hypersurface": ({"u_box", "v_annulus", "normal_ref"}, _X_KEY),
    "change": ({"sigma"}, _B_KEY),
}
# The sampling domains of a spec that declares none: the box per axis,
# and the annulus of supporting elements.
_BOX = (-1.0, 1.0)
_ANNULUS = (0.5, 1.5)


@dataclass
class MetricSpec:
    dim: int
    L_expr: object = None          # expression for L itself
    L2_expr: object = None         # expression for L^2 (exact when quadratic)
    a_exprs: dict = None           # (i, j) zero-based -> expression, i <= j
    x_box: np.ndarray = None       # (dim, 2)
    y_annulus: tuple = _ANNULUS
    name: str = "metric"
    items: list = field(default_factory=list)

    @property
    def is_quadratic(self):
        return self.a_exprs is not None

    def eval_l2(self, env):
        """L^2 at an environment of floats or Jets."""
        return _l2(self, env)


def _l2(spec, env):
    """The body of ``MetricSpec.eval_l2``.  ``core`` records it into the
    spray route's program without calling ``eval_l2``: compiling
    evaluates L^2 at no point."""
    if spec.L2_expr is not None:
        return evaluate(spec.L2_expr, env)
    val = evaluate(spec.L_expr, env)
    return val * val


@dataclass
class ChangeSpec:
    dim: int = None                # None binds to any metric dimension
    sigma_expr: object = None      # None means 0
    b_exprs: dict = None           # one-based index -> expression
    name: str = "change"
    items: list = field(default_factory=list)

    def sigma_or_zero(self):
        return self.sigma_expr if self.sigma_expr is not None else Num(0.0)

    def b_list(self, dim):
        """Covector component expressions, padded with zeros, for a metric
        of the given dimension."""
        if self.dim is not None and self.dim != dim:
            raise SpecError(
                f"change {self.name!r} declares dim {self.dim}, metric has {dim}")
        exprs = self.b_exprs or {}
        top = max(exprs) if exprs else 0
        if top > dim:
            raise SpecError(f"change {self.name!r} uses b{top} beyond dim {dim}")
        for ex in ([] if self.sigma_expr is None else [self.sigma_expr]) + list(exprs.values()):
            for v in free_vars(ex):
                if int(v[1:]) > dim:
                    raise SpecError(
                        f"change {self.name!r} uses {v} beyond dim {dim}")
        return [exprs.get(i + 1, Num(0.0)) for i in range(dim)]

    @property
    def is_identity(self):
        def zero(e):
            return e is None or (isinstance(e, Num) and e.value == 0.0)
        return zero(self.sigma_expr) and (
            not self.b_exprs or all(zero(e) for e in self.b_exprs.values()))


@dataclass
class HypersurfaceSpec:
    dim: int                       # ambient dimension
    embed_exprs: list = None       # dim expressions in u1..u(dim-1)
    u_box: np.ndarray = None       # (dim-1, 2)
    v_annulus: tuple = _ANNULUS
    normal_ref: np.ndarray = None
    name: str = "hypersurface"
    items: list = field(default_factory=list)

    @property
    def pdim(self):
        return self.dim - 1


# ---------------------------------------------------------------------------
# file parsing


def _split_lines(text):
    """Yield (line_no, key, value_tokens) for each non-empty line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        tokens = _tokenize(body, line_no)
        if not tokens:
            continue
        kind, key, ln, col = tokens[0]
        if kind != "name":
            raise SpecError(f"expected a key, got {key!r}", ln, col)
        rest = tokens[1:]
        if rest and rest[0][0] == "op" and rest[0][1] == "=":
            rest = rest[1:]
        if not rest:
            raise SpecError(f"key {key!r} has no value", ln, col)
        yield line_no, key, rest


def parse_spec_text(text, name="<spec>"):
    """Parse a spec file body; returns a MetricSpec, ChangeSpec, or
    HypersurfaceSpec according to the keys present."""
    items = []
    seen = set()
    for line_no, key, rest in _split_lines(text):
        if key in seen:
            raise SpecError(f"duplicate key {key!r}", line_no)
        seen.add(key)
        if key in _VECTOR_KEYS:
            items.append((key, _parse_number_list(rest, key, line_no)))
        elif key == "dim":
            vals = _parse_number_list(rest, key, line_no)
            if len(vals) != 1 or vals[0] != int(vals[0]):
                raise SpecError("dim must be a single integer", line_no)
            items.append((key, int(vals[0])))
        else:
            node = _Parser(rest).parse()
            items.append((key, node))

    kinds = [kind for kind in _KIND_KEYS
             if any(_of_kind(key, kind) for key, _ in items)]
    if len(kinds) > 1:
        raise SpecError(f"{name}: keys mix spec kinds {kinds}")
    kind = kinds[0] if kinds else "change"

    if kind == "metric":
        return _build_metric(items, name)
    if kind == "hypersurface":
        return _build_hypersurface(items, name)
    return _build_change(items, name)


def _of_kind(key, kind):
    fixed, indexed = _KIND_KEYS[kind]
    return key in fixed or indexed.match(key) is not None


def _reject_unknown(items, kind, name):
    for key, _ in items:
        if key != "dim" and not _of_kind(key, kind):
            raise SpecError(f"{name}: unknown {kind} key {key!r}")


def _get(items, key, default=None):
    for k, v in items:
        if k == key:
            return v
    return default


def _require_dim(items, name):
    dim = _get(items, "dim")
    if dim is None:
        raise SpecError(f"{name}: missing dim")
    if not 2 <= dim <= MAX_DIM:
        raise SpecError(f"{name}: dim must be between 2 and {MAX_DIM}")
    return dim


def _check_scope(expr, allowed, key, name):
    for v in sorted(free_vars(expr)):
        if v not in allowed:
            raise SpecError(f"{name}: {key} uses variable {v!r}, "
                            f"allowed here: {', '.join(sorted(allowed))}")


def _box(items, key, count, name):
    vals = _get(items, key)
    if vals is None:
        return np.array([_BOX] * count)
    if len(vals) != 2 * count:
        raise SpecError(f"{name}: {key} needs {2 * count} numbers "
                        f"(lo hi per axis), got {len(vals)}")
    box = np.asarray(vals, dtype=float).reshape(count, 2)
    if np.any(box[:, 0] >= box[:, 1]):
        raise SpecError(f"{name}: {key} axes must satisfy lo < hi")
    return box


def _annulus(items, key, name):
    vals = _get(items, key)
    if vals is None:
        return _ANNULUS
    if len(vals) != 2:
        raise SpecError(f"{name}: {key} needs two numbers r_lo r_hi")
    lo, hi = float(vals[0]), float(vals[1])
    if not 0.0 < lo <= hi:
        raise SpecError(f"{name}: {key} needs 0 < r_lo <= r_hi")
    return (lo, hi)


def _build_metric(items, name):
    dim = _require_dim(items, name)
    xs = {f"x{i + 1}" for i in range(dim)}
    ys = {f"y{i + 1}" for i in range(dim)}

    l_expr = _get(items, "L")
    l2_expr = _get(items, "L2")
    a_exprs = {}
    for key, val in items:
        m = _A_KEY.match(key)
        if not m:
            continue
        i, j = int(m.group(1)), int(m.group(2))
        if i > dim or j > dim:
            raise SpecError(f"{name}: {key} index beyond dim {dim}")
        if i > j:
            raise SpecError(f"{name}: give only upper-triangle entries ({key})")
        _check_scope(val, xs, key, name)
        a_exprs[(i - 1, j - 1)] = val

    given = [k for k, present in
             (("L", l_expr is not None), ("L2", l2_expr is not None),
              ("a_ij", bool(a_exprs))) if present]
    if len(given) != 1:
        raise SpecError(f"{name}: give exactly one of L, L2, or a_ij entries "
                        f"(got {given or 'none'})")

    for key, expr in (("L", l_expr), ("L2", l2_expr)):
        if expr is not None:
            _check_scope(expr, xs | ys, key, name)
            # a_ij forms always use y
            if not free_vars(expr) & ys:
                raise SpecError(f"{name}: {key} uses no y variable; a "
                                f"metric depends on y1 .. y{dim}")
    if a_exprs:
        l2_expr = quadratic_form(a_exprs, dim)

    x_box = _box(items, "x_box", dim, name)
    y_annulus = _annulus(items, "y_annulus", name)
    _reject_unknown(items, "metric", name)

    return MetricSpec(dim=dim, L_expr=l_expr, L2_expr=l2_expr,
                      a_exprs=a_exprs or None, x_box=x_box,
                      y_annulus=y_annulus, name=name, items=items)


def quadratic_form(a_exprs, dim):
    """Expression for a_ij(x) y^i y^j from upper-triangle entries."""
    total = None
    for (i, j), ex in sorted(a_exprs.items()):
        term = Bin("*", ex, Bin("*", Var(f"y{i + 1}"), Var(f"y{j + 1}")))
        if i != j:
            term = Bin("*", Num(2.0), term)
        total = term if total is None else Bin("+", total, term)
    return total


def _build_change(items, name):
    dim = _get(items, "dim")
    if dim is not None and not 2 <= dim <= MAX_DIM:
        raise SpecError(f"{name}: dim must be between 2 and {MAX_DIM}")
    xs = ({f"x{i + 1}" for i in range(dim)} if dim is not None
          else {f"x{i + 1}" for i in range(MAX_DIM)})

    sigma = _get(items, "sigma")
    if sigma is not None:
        _check_scope(sigma, xs, "sigma", name)
    b_exprs = {}
    for key, val in items:
        m = _B_KEY.match(key)
        if not m:
            continue
        idx = int(m.group(1))
        if dim is not None and idx > dim:
            raise SpecError(f"{name}: {key} index beyond dim {dim}")
        _check_scope(val, xs, key, name)
        b_exprs[idx] = val

    _reject_unknown(items, "change", name)

    return ChangeSpec(dim=dim, sigma_expr=sigma, b_exprs=b_exprs or None,
                      name=name, items=items)


def _build_hypersurface(items, name):
    dim = _require_dim(items, name)
    m = dim - 1
    us = {f"u{i + 1}" for i in range(m)}

    embed = [None] * dim
    for key, val in items:
        match = _X_KEY.match(key)
        if not match:
            continue
        idx = int(match.group(1))
        if idx > dim:
            raise SpecError(f"{name}: {key} index beyond dim {dim}")
        _check_scope(val, us, key, name)
        embed[idx - 1] = val
    missing = [f"x{i + 1}" for i, e in enumerate(embed) if e is None]
    if missing:
        raise SpecError(f"{name}: missing embedding components {missing}")

    u_box = _box(items, "u_box", m, name)
    v_annulus = _annulus(items, "v_annulus", name)
    nr = _get(items, "normal_ref")
    normal_ref = None
    if nr is not None:
        if len(nr) != dim:
            raise SpecError(f"{name}: normal_ref needs {dim} numbers")
        normal_ref = np.asarray(nr, dtype=float)
        if not np.any(normal_ref):
            raise SpecError(f"{name}: normal_ref must be nonzero")

    _reject_unknown(items, "hypersurface", name)

    return HypersurfaceSpec(dim=dim, embed_exprs=embed, u_box=u_box,
                            v_annulus=v_annulus, normal_ref=normal_ref,
                            name=name, items=items)


def canonical_text(spec):
    """Round-trippable canonical rendering of a parsed spec."""
    lines = []
    for key, val in spec.items:
        if key == "dim":
            lines.append(f"dim = {val}")
        elif isinstance(val, list):
            lines.append(f"{key} = " + " ".join(format_number(v) for v in val))
        else:
            lines.append(f"{key} = {format_expression(val)}")
    return "\n".join(lines) + "\n"


def spec_kind(spec):
    if isinstance(spec, MetricSpec):
        return "metric"
    if isinstance(spec, ChangeSpec):
        return "change"
    if isinstance(spec, HypersurfaceSpec):
        return "hypersurface"
    raise TypeError(f"not a spec object: {spec!r}")


def load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_spec_text(text, name=name)


def bundled_spec_path(name):
    """Path of a spec shipped with the package, by bare name."""
    from importlib import resources
    base = resources.files("finslerchange") / "specs" / f"{name}.fspec"
    return str(base)


def resolve_spec(arg, expect=None):
    """Load a spec from a filesystem path or a bundled-spec name."""
    import os
    if os.path.exists(arg):
        spec = load_spec(arg)
    else:
        candidate = bundled_spec_path(arg)
        if not os.path.exists(candidate):
            raise SpecError(f"no such spec file or bundled spec: {arg!r}")
        spec = load_spec(candidate)
    if expect is not None and spec_kind(spec) != expect:
        raise SpecError(f"{arg!r} parsed as a {spec_kind(spec)} spec, "
                        f"expected {expect}")
    return spec
