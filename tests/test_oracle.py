"""An oracle outside the jets: the fundamental tensor, the spray and the
curvature deviation of a lone point against sympy derivatives of the
spec's ``L^2``, evaluated in mpmath at 40 digits.

The spec's expression tree is translated node by node to sympy.  With
``F = L^2``, ``g_ij = (1/2) d2F/dy^i dy^j`` and the spray solves
``g G = r / 4``, ``r_l = y^k d2F/dy^l dx^k - dF/dx^l``, by
``mpmath.lu_solve``; its derivatives solve the differentiated system,
``g dG = d(r / 4) - dg G``.  ``R`` follows Berwald's formula

    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - N^i_j N^j_k,    N^i_j = dG^i/dy^j.

The points are those the sampler admits, on the changed space of each
pair, so the changed spec that ``change`` assembles is translated too.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy

from finslerchange import lang
from finslerchange.change import ChangedPair
from finslerchange.lang import resolve_spec
from finslerchange.sampling import sample_pair_points

DPS = 40
CONSTANTS = {"pi": math.pi, "e": math.e}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b,
          "^": sympy.Pow}


def _sympy(node):
    """The sympy expression of a ``lang`` expression tree; numbers keep
    the doubles the package computes with."""
    if isinstance(node, lang.Num):
        return sympy.Float(node.value, DPS)
    if isinstance(node, lang.Var):
        if node.name in CONSTANTS:
            return sympy.Float(CONSTANTS[node.name], DPS)
        return sympy.Symbol(node.name)
    if isinstance(node, lang.Neg):
        return -_sympy(node.arg)
    if isinstance(node, lang.Bin):
        right = node.right
        if (node.op == "^" and isinstance(right, lang.Num)
                and right.value == int(right.value)):
            # an integral exponent, as the jets take it
            return sympy.Pow(_sympy(node.left), int(right.value))
        return BINARY[node.op](_sympy(node.left), _sympy(right))
    if isinstance(node, lang.Call):
        (arg,) = node.args
        return getattr(sympy, node.fn)(_sympy(arg))
    raise TypeError(f"not an expression node: {node!r}")


def _oracle(spec):
    """A function of (x, y) that gives (g, G, R) of ``spec`` there, as
    mpmath matrices at ``DPS`` digits, from the partial derivatives of
    ``F`` that they read, each differentiated once per spec."""
    n = spec.dim
    v = sympy.symbols(f"x1:{n + 1}") + sympy.symbols(f"y1:{n + 1}")
    F = (_sympy(spec.L2_expr) if spec.L2_expr is not None
         else _sympy(spec.L_expr) ** 2)
    derivs = {(): F}

    def D(idx):
        """F differentiated along the variables of index ``idx``, where
        x^k has index k and y^k index n + k."""
        idx = tuple(sorted(idx))
        if idx not in derivs:
            derivs[idx] = sympy.diff(derivs[D(idx[:-1])], v[idx[-1]])
        return idx

    # the systems g G = r / 4 differentiated along nothing, along every
    # variable, and along the pairs Berwald's formula reads: (x^j, y^k)
    # and (y^j, y^k); ``A`` and ``b`` list the derivatives of F, with
    # their factors, that give g and r / 4 there
    alongs = [()] + [(u,) for u in range(2 * n)] + [
        (u, n + k) for u in range(2 * n) for k in range(n)]

    def A(i, j, along):
        return [(0.5, D((n + i, n + j) + along))]

    def b(l, along):
        terms = [(-0.25, D((l,) + along))]
        for k in range(n):
            # y^k times F_{y^l x^k}, by the product rule
            terms.append((("y", k), D((n + l, k) + along)))
            for e, u in enumerate(along):
                if u == n + k:
                    rest = along[:e] + along[e + 1:]
                    terms.append((0.25, D((n + l, k) + rest)))
        return terms

    systems = [([[A(i, j, a) for j in range(n)] for i in range(n)],
                [b(l, a) for l in range(n)]) for a in alongs]
    names = list(derivs)
    values = sympy.lambdify(v, [derivs[k] for k in names], modules="mpmath",
                            cse=True)

    def at(x, y):
        with mpmath.workdps(DPS):
            point = [mpmath.mpf(c) for c in list(x) + list(y)]
            got = dict(zip(names, values(*point)))

            def total(terms):
                return sum((point[n + f[1]] / 4 if isinstance(f, tuple)
                            else f) * got[idx] for f, idx in terms)

            mats = {a: (mpmath.matrix([[total(e) for e in row]
                                       for row in M]),
                        mpmath.matrix([total(e) for e in c]))
                    for a, (M, c) in zip(alongs, systems)}
            g, rhs = mats[()]
            G = mpmath.lu_solve(g, rhs)
            d = {u: mpmath.lu_solve(g, mats[u,][1] - mats[u,][0] * G)
                 for u in range(2 * n)}
            dd = {}
            for a in alongs[1 + 2 * n:]:
                u, w = a
                ddA, ddb = mats[a]
                dd[a] = mpmath.lu_solve(g, ddb - ddA * G - mats[u,][0] * d[w]
                                        - mats[w,][0] * d[u])
            R = mpmath.matrix(n, n)
            for i in range(n):
                for k in range(n):
                    R[i, k] = (2 * d[k][i]
                               - sum(point[n + j] * dd[j, n + k][i]
                                     for j in range(n))
                               + 2 * sum(G[j] * dd[n + j, n + k][i]
                                         for j in range(n))
                               - sum(d[n + j][i] * d[n + k][j]
                                     for j in range(n)))
            return g, G, R
    return at


def _relative(got, want):
    """max |got - want| / max(1, max |want|), in mpmath."""
    with mpmath.workdps(DPS):
        diff = max(abs(mpmath.mpf(float(a)) - w)
                   for a, w in zip(np.ravel(got), want))
        return float(diff / max([mpmath.mpf(1)] + [abs(w) for w in want]))


@pytest.mark.parametrize("metric,change,count", [
    ("randers2", "projective", 2), ("sphere2", "conformal", 2),
    ("randers2", "randers_nonclosed", 2), ("curved3", "projective3", 1)])
def test_lone_point_matches_symbolic_derivatives(metric, change, count):
    pair = ChangedPair(resolve_spec(metric), resolve_spec(change))
    points, _ = sample_pair_points(pair, count, 3)
    oracle = _oracle(pair.starred_spec)
    for x, y in points:
        pg = pair.starred.point(x, y)
        g, G, R = oracle(x, y)
        n = pair.n
        for name, got, want in (
                ("g_low", pg.g_low(), [g[i, j] for i in range(n)
                                       for j in range(n)]),
                ("spray", pg.spray(), [G[i] for i in range(n)]),
                ("riemann", pg.riemann(), [R[i, k] for i in range(n)
                                           for k in range(n)])):
            assert _relative(got, want) <= 1e-12, (pair.starred_spec.name,
                                                   name)
