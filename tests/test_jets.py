import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerchange.jets import (
    PRODUCT_BUDGET,
    Jet,
    JetDomainError,
    JetError,
    JetOrderError,
    _pivot,
    _space,
    jet_linear_solve,
    lift,
    lift_env,
    straight_line,
)
from finslerchange.sampling import BLOCK_SIZE


def test_lift_single_variable_coeffs():
    (j,) = lift([3.0], order=2)
    assert j.value == 3.0
    assert j.partials(1)[0] == 1.0
    assert j.partials(2)[0, 0] == 0.0


def test_square_derivatives():
    (j,) = lift([3.0], order=2)
    sq = j * j
    assert sq.value == 9.0
    assert sq.partials(1)[0] == 6.0
    assert sq.partials(2)[0, 0] == 2.0


def test_exp_coefficients_at_zero():
    (j,) = lift([0.0], order=3)
    e = j.exp()
    # raw Taylor coefficients 1, 1, 1/2, 1/6
    assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])
    assert e.partials(3)[0, 0, 0] == pytest.approx(1.0)


def test_product_of_two_variables():
    x, y = lift([2.0, 3.0], order=2)
    p = x * y
    assert p.value == 6.0
    assert p.partials(1)[0] == 3.0
    assert p.partials(1)[1] == 2.0
    assert p.partials(2)[0, 1] == 1.0
    assert p.partials(2)[0, 0] == 0.0


def test_euclidean_norm_gradient():
    y1, y2 = lift([3.0, 4.0], order=1)
    r = (y1 * y1 + y2 * y2).sqrt()
    assert r.value == 5.0
    assert r.partials(1)[0] == pytest.approx(3.0 / 5.0)
    assert r.partials(1)[1] == pytest.approx(4.0 / 5.0)


def test_sin_third_derivative_at_zero():
    (j,) = lift([0.0], order=3)
    assert j.sin().partials(3)[0, 0, 0] == pytest.approx(-1.0)


def test_constant_jet():
    c = Jet.constant(5.0, nvars=2, order=3)
    assert c.value == 5.0
    assert c.partials(1)[0] == 0.0
    assert c.partials(2)[1, 1] == 0.0


def test_inactive_values_are_constants():
    (x,) = lift([1.5], order=2)
    c = Jet.constant(7.0, nvars=1, order=2)
    p = x * c
    assert p.value == 10.5
    assert p.partials(1)[0] == 7.0
    assert p.partials(2)[0, 0] == 0.0


def test_deriv_reduces_order():
    (j,) = lift([2.0], order=4)
    cube = j * j * j
    d = cube.deriv(0)
    assert d.order == 3
    assert d.value == 12.0           # 3 x^2
    assert d.partials(1)[0] == 12.0    # 6 x
    assert d.partials(2)[0, 0] == 6.0
    with pytest.raises(JetOrderError):
        d.deriv(0).deriv(0).deriv(0).deriv(0)


def test_order_budget_enforced():
    (j,) = lift([1.0], order=2)
    with pytest.raises(JetOrderError):
        j.partials(3)
    with pytest.raises(JetOrderError):
        lift([1.0], order=99)


def test_domain_errors():
    (j,) = lift([-2.0], order=2)
    with pytest.raises(JetDomainError):
        j.sqrt()
    with pytest.raises(JetDomainError):
        j.log()
    z = Jet.constant(0.0, nvars=1, order=2)
    with pytest.raises(JetDomainError):
        z.reciprocal()


def test_division_and_rdiv():
    x, y = lift([2.0, 5.0], order=2)
    q = x / y
    assert q.value == pytest.approx(0.4)
    assert q.partials(1)[0] == pytest.approx(1.0 / 5.0)
    assert q.partials(1)[1] == pytest.approx(-2.0 / 25.0)
    r = 1.0 / y
    assert r.partials(2)[1, 1] == pytest.approx(2.0 / 125.0)


def test_integer_and_real_powers():
    (x,) = lift([1.7], order=3)
    assert (x ** 4).value == pytest.approx(1.7 ** 4)
    assert (x ** 4).partials(2)[0, 0] == pytest.approx(12 * 1.7 ** 2)
    assert (x ** -2).partials(1)[0] == pytest.approx(-2 * 1.7 ** -3)
    assert (x ** 1.5).partials(1)[0] == pytest.approx(1.5 * math.sqrt(1.7))
    (neg,) = lift([-1.3], order=2)
    assert (neg ** 2).value == pytest.approx(1.69)
    with pytest.raises(JetDomainError):
        neg ** 0.5


def _poly_eval(coeff_map, xs):
    """Dict-of-multi-index polynomial oracle: value of sum c * x^a."""
    total = 0.0
    for mi, c in coeff_map.items():
        term = c
        for x, k in zip(xs, mi):
            term *= x ** k
        total += term
    return total


def _poly_partial(coeff_map, var):
    out = {}
    for mi, c in coeff_map.items():
        if mi[var] == 0:
            continue
        down = list(mi)
        down[var] -= 1
        out[tuple(down)] = out.get(tuple(down), 0.0) + c * mi[var]
    return out


def test_polynomial_mixed_partials_match_symbolic_oracle():
    # p(x, y, z) = 2 x^2 y - 3 y z^2 + 0.5 x y z + 4
    pmap = {(2, 1, 0): 2.0, (0, 1, 2): -3.0, (1, 1, 1): 0.5, (0, 0, 0): 4.0}
    pt = [1.2, -0.7, 2.1]
    x, y, z = lift(pt, order=4)
    p = 2.0 * x * x * y - 3.0 * y * z * z + 0.5 * x * y * z + 4.0
    for mi in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 0), (0, 1, 2)]:
        want = pmap
        for var in range(3):
            for _ in range(mi[var]):
                want = _poly_partial(want, var)
        idx = tuple(v for v in range(3) for _ in range(mi[v]))
        assert p.partials(sum(mi))[idx] == pytest.approx(
            _poly_eval(want, pt), abs=1e-12)


def test_chain_rule_against_finite_differences():
    def f(x, y):
        return (x * x + y * y).sqrt().exp() * (x * y).sin() + (2.0 + x * x).log()

    pt = [0.8, 1.3]
    x, y = lift(pt, order=2)
    jet = f(x, y)

    def fval(a, b):
        return (math.exp(math.hypot(a, b)) * math.sin(a * b)
                + math.log(2.0 + a * a))

    h = 1e-5
    fd_x = (fval(pt[0] + h, pt[1]) - fval(pt[0] - h, pt[1])) / (2 * h)
    fd_y = (fval(pt[0], pt[1] + h) - fval(pt[0], pt[1] - h)) / (2 * h)
    fd_xy = (fval(pt[0] + h, pt[1] + h) - fval(pt[0] + h, pt[1] - h)
             - fval(pt[0] - h, pt[1] + h) + fval(pt[0] - h, pt[1] - h)) / (4 * h * h)
    assert jet.partials(1)[0] == pytest.approx(fd_x, rel=1e-6)
    assert jet.partials(1)[1] == pytest.approx(fd_y, rel=1e-6)
    assert jet.partials(2)[0, 1] == pytest.approx(fd_xy, rel=1e-4)


def test_leibniz_rule_exact():
    vals = np.random.default_rng(20240811).uniform(0.5, 1.5, size=2)
    x, y = lift(vals, order=3)
    f = x * x * y + x
    g = y * y - x * y
    prod = f * g
    # d(fg)/dx = f'g + fg' evaluated exactly
    lhs = prod.deriv(0)
    rhs = f.deriv(0) * g.truncated(2) + f.truncated(2) * g.deriv(0)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)


def test_trig_identity_all_coefficients():
    (t,) = lift([0.9], order=5)
    one = t.sin() * t.sin() + t.cos() * t.cos()
    assert one.value == pytest.approx(1.0)
    assert np.allclose(one.coeffs[1:], 0.0, atol=1e-13)


def test_log_exp_roundtrip():
    x, y = lift([1.1, 0.4], order=3)
    w = x * y + 2.0
    back = w.log().exp()
    assert np.allclose(back.coeffs, w.coeffs, atol=1e-12)


def test_linear_solve_matches_numpy_values_and_derivatives():
    n = 3
    rng = np.random.default_rng(n)
    base = rng.uniform(0.5, 1.5, size=(n, n)) + n * np.eye(n)
    rhs_base = rng.uniform(-1.0, 1.0, size=n)
    (t,) = lift([0.3], order=2)

    A = [[Jet.constant(base[i, j], 1, 2) + (t * (0.1 * (i + 1) * (j + 1))
                                            if (i + j) % 2 == 0 else 0.0)
          for j in range(n)] for i in range(n)]
    rhs = [Jet.constant(rhs_base[i], 1, 2) + t * 0.05 * i for i in range(n)]
    x = jet_linear_solve(A, rhs)

    def solve_at(tv):
        M = base.copy()
        for i in range(n):
            for j in range(n):
                if (i + j) % 2 == 0:
                    M[i, j] += 0.1 * (i + 1) * (j + 1) * tv
        r = rhs_base + 0.05 * np.arange(n) * tv
        return np.linalg.solve(M, r)

    x0 = solve_at(0.3)
    h = 1e-6
    dx = (solve_at(0.3 + h) - solve_at(0.3 - h)) / (2 * h)
    for i in range(n):
        assert x[i].value == pytest.approx(x0[i], rel=1e-12)
        assert x[i].partials(1)[0] == pytest.approx(dx[i], rel=1e-6)


# Values whose magnitudes tie, order and fail to compare (NaN) in every
# way a pivot column can hold them.
PIVOT_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0, 2.0)


def _max_pivot(values, col):
    """The pivot rule the solve was written with: Python's ``max`` of the
    magnitudes at and below ``col``, its first maximum; None where the
    chosen magnitude is zero, as the solve raises there."""
    piv = max(range(col, len(values)), key=lambda r: abs(values[r]))
    return None if abs(values[piv]) == 0.0 else piv


def _pivoted(column, col):
    """``_pivot`` of a system whose column ``col`` holds ``column``, an
    array of shape (n,) for a point or (n, P) for a block: the rows of
    ``b``, labelled by their index, after it, or None where it raised."""
    n = len(column)
    space = _space(1, 0)

    def jet(v):
        return Jet(space, np.array([v]) if np.ndim(v) == 0
                   else np.asarray(v, dtype=float)[None])

    labels = [jet(np.full(np.shape(column[0]), float(r))) for r in range(n)]
    M = [[jet(column[r]) if c == col else labels[r] for c in range(n)]
         for r in range(n)]
    b = list(labels)
    try:
        _pivot(M, b, col)
    except JetDomainError:
        return None
    return np.array([v.coeffs[0] for v in b])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pivot_is_pythons_max_at_every_point(n):
    rng = np.random.default_rng(n)
    cases = rng.choice(PIVOT_VALUES, size=(2000, n))
    for col in range(n):
        want = [_max_pivot(case.tolist(), col) for case in cases]
        # one point at a time: the row brought up, or the singular error
        for case, piv in zip(cases, want):
            got = _pivoted(case, col)
            assert (got is None) == (piv is None), (case, col)
            if piv is not None:
                assert got[col] == piv and got[piv] == col, (case, col)
        # a block of the cases the rule finds a pivot in: each point's
        # rows col and pivot swapped, the others in place
        ok = [p for p, piv in enumerate(want) if piv is not None]
        got = _pivoted(cases[ok].T, col)
        expect = np.tile(np.arange(n, dtype=float)[:, None], len(ok))
        for k, p in enumerate(ok):
            expect[[col, want[p]], k] = expect[[want[p], col], k]
        assert got.tobytes() == expect.tobytes(), col
        # and a block with one singular point raises
        if len(ok) < len(cases):
            assert _pivoted(cases.T, col) is None


def test_truncation_is_prefix():
    x, y = lift([1.3, 0.2], order=4)
    f = (x * y + x).exp()
    low = f.truncated(2)
    assert low.order == 2
    assert np.allclose(low.coeffs, f.coeffs[: low.coeffs.size])


def test_mixed_orders_raise_and_truncation_commutes():
    x, y = lift([1.3, 0.2], order=3)
    f = x * y + x
    g3 = y * y - x
    g = g3.truncated(2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match=r"different spaces \(2v3, 2v2\)"):
            op(f, g)
        with pytest.raises(ValueError, match=r"different spaces \(2v2, 2v3\)"):
            op(g, f)
        got = op(f.truncated(2), g)
        assert got.order == 2
        assert got.coeffs.tobytes() == op(f, g3).truncated(2).coeffs.tobytes()
    (z,) = lift([0.5], order=2)
    with pytest.raises(ValueError, match=r"different spaces \(2v2, 1v2\)"):
        g * z


def _mul_table_by_loops(sp):
    """Reference product table: the double loop over coefficient pairs."""
    ia, ib, io = [], [], []
    for i, ma in enumerate(sp.monomials):
        for j, mb in enumerate(sp.monomials):
            if sum(ma) + sum(mb) > sp.order:
                continue
            ia.append(i)
            ib.append(j)
            io.append(sp.position[tuple(a + b for a, b in zip(ma, mb))])
    return ia, ib, io


@pytest.mark.parametrize("nvars, order", [(0, 3), (1, 3), (2, 2), (4, 4),
                                          (3, 6), (6, 2), (6, 4)])
def test_mul_table_matches_double_loop(nvars, order):
    sp = _space(nvars, order)
    for got, want in zip(sp.mul_table(), _mul_table_by_loops(sp)):
        assert got.dtype == np.intp
        assert got.tolist() == want


def test_partials_are_symmetric_and_bit_equal_to_hand_derivatives():
    # p = x^2 y + 3 y z^2 + x z / 2 at a dyadic point: every step is exact
    x0, y0, z0 = 1.5, -0.5, 2.0
    x, y, z = lift([x0, y0, z0], order=4)
    p = x * x * y + 3.0 * y * z * z + 0.5 * x * z
    assert p.partials(0) == p.value
    assert p.partials(1).tobytes() == np.array(
        [2 * x0 * y0 + 0.5 * z0, x0 * x0 + 3 * z0 * z0,
         6 * y0 * z0 + 0.5 * x0]).tobytes()
    assert p.partials(2).tobytes() == np.array(
        [[2 * y0, 2 * x0, 0.5],
         [2 * x0, 0.0, 6 * z0],
         [0.5, 6 * z0, 6 * y0]]).tobytes()
    d3 = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations((0, 0, 1)):
        d3[i, j, k] = 2.0
    for i, j, k in itertools.permutations((1, 2, 2)):
        d3[i, j, k] = 6.0
    assert p.partials(3).tobytes() == d3.tobytes()
    d4 = p.partials(4)
    assert d4.shape == (3,) * 4 and not d4.any()
    # symmetric in the variable indices for a generic jet
    q = (x * y + z).exp() * (y - z).sin()
    for k in (2, 3, 4):
        d = q.partials(k)
        for perm in itertools.permutations(range(k)):
            assert np.array_equal(d, d.transpose(perm))
    with pytest.raises(JetOrderError):
        p.partials(5)


def test_lift_seeds_values_and_unit_slots_in_separate_rows():
    jets = lift([0.5, -2.0, 3.0], order=2)
    for v, (j, val) in enumerate(zip(jets, [0.5, -2.0, 3.0])):
        assert j.value == val
        assert j.partials(1).tolist() == [float(w == v) for w in range(3)]
        assert not j.partials(2).any()
    a, b, _ = jets
    assert not np.shares_memory(a.coeffs, b.coeffs)
    a.coeffs[1] = 9.0
    assert b.coeffs[1] == 0.0 and lift([0.5], order=2)[0].coeffs[1] == 1.0
    (c,) = lift([4.0], order=0)
    assert c.coeffs.tolist() == [4.0]


def _every_operation(a, b, c, d):
    """Jets built with every ring operation, analytic function and a
    pivoting linear solve, from four seed jets; a jet exponent varies
    above order 0 and is constant at it."""
    e = ((a * b + c).sqrt() * (d - a).exp() + (b * c).log() / (a + 1.5)
         + a ** 3 + b ** 2.5 + c ** -2 - 1.0 / d + a ** b
         + (a * d).sin() * (b - c).cos() - 2.0 + 0.5 * d)
    # |d a| beats |a b + 1| at some points and not at others
    x = jet_linear_solve([[a * b + 1.0, c - d * 0.3], [d * a, b * b + c]],
                         [e, a * c])
    out = [e, *x]
    if a.order:
        out.append(e.deriv(1) * a.truncated(a.order - 1))
    return out


@pytest.mark.parametrize("points", [1, 2, 5, 15, 70, 90, 256])
@pytest.mark.parametrize("order", [0, 2, 4])
def test_block_jets_equal_point_jets_bit_for_bit(points, order):
    # order 4 in 4 variables has 70 coefficients: from 70 points a block
    # is at least as wide as the space, and 256 is a sampled chunk
    values = np.random.default_rng([points, order]).uniform(
        0.2, 2.0, size=(4, points))
    block = _every_operation(*lift(values, order))
    pivots = set()
    for p in range(points):
        a, b, c, d = values[:, p]
        pivots.add(abs(d * a) > abs(a * b + 1.0))
        alone = _every_operation(*lift([a, b, c, d], order))
        for got, want in zip(block, alone):
            assert got.coeffs.shape == (want.coeffs.size, points)
            assert got.coeffs[:, p].tobytes() == want.coeffs.tobytes()
    if points >= 15:
        assert pivots == {True, False}


@pytest.mark.parametrize("args", [
    (4, 2), (6, 2), (6, 4), (4, 2, 1), (4, 3, 2), (4, 4, 2), (6, 2, 0),
    (6, 3, 2), (6, 4, 2)], ids=lambda args: "-".join(map(str, args)))
def test_block_products_equal_point_products_bit_for_bit(args):
    # the spaces of point blocks, capped as blocks cap them, up to a
    # sampled chunk and on both sides of the first and second boundary of
    # the product's slices of the point axis; signed zeros in both factors
    # must survive the sums
    sp = _space(*args)
    rng = np.random.default_rng(args)
    width = PRODUCT_BUDGET // sp.mul_table()[0].size
    for points in (1, 2, 5, sp.size - 1, sp.size, BLOCK_SIZE, width,
                   width + 1, 2 * width, 2 * width + 1):
        a = _random_coeffs(rng, sp.size, points)
        b = _random_coeffs(rng, sp.size, points)
        block = Jet(sp, a) * Jet(sp, b)
        assert block.coeffs.shape == (sp.size, points)
        for p in range(points):
            alone = Jet(sp, a[:, p].copy()) * Jet(sp, b[:, p].copy())
            assert block.coeffs[:, p].tobytes() == alone.coeffs.tobytes()


def _full_table_products(sp, a, b):
    """The product of each column of ``a`` and ``b`` by the one-point
    product, which multiplies every pair of ``mul_table``."""
    return [(Jet(sp, a[:, p].copy()) * Jet(sp, b[:, p].copy())).coeffs
            for p in range(a.shape[1])]


def _sparse_factors(rng, sp, points, zero_rows):
    """Two coefficient arrays with ``zero_rows`` zero at every point (+0.0
    in one factor, -0.0 in the other), other rows zero at some points,
    and signed zeros scattered elsewhere."""
    a = _random_coeffs(rng, sp.size, points)
    b = _random_coeffs(rng, sp.size, points)
    a[zero_rows] = 0.0
    b[zero_rows] = -0.0
    some = rng.choice(sp.size, size=sp.size // 3, replace=False)
    a[some, ::3] = 0.0
    b[some, 1::2] = -0.0
    return a, b


@pytest.mark.parametrize("args", [(4, 2), (4, 3, 2), (4, 4, 2), (6, 4, 2)],
                         ids=lambda args: "-".join(map(str, args)))
def test_products_that_skip_zero_rows_equal_full_table_products(args):
    # rows zero at every point leave their pairs out of a product wider
    # than one budget slice; the pairs left, P of them per slice, decide
    # the slices, so the widths sit at, below and above one slice
    sp = _space(*args)
    rng = np.random.default_rng(args)
    ia, ib, _ = sp.mul_table()
    zero_rows = np.flatnonzero(rng.uniform(size=sp.size) < 0.6)
    zero_rows = zero_rows[zero_rows > 0]
    nonzero = np.ones(sp.size, dtype=bool)
    nonzero[zero_rows] = False
    kept = int(np.count_nonzero(nonzero[ia] & nonzero[ib]))
    assert 0 < kept < ia.size
    width = PRODUCT_BUDGET // kept
    assert width > PRODUCT_BUDGET // ia.size
    for points in (PRODUCT_BUDGET // ia.size + 1, width - 1, width,
                   width + 1, 2 * width + 1):
        a, b = _sparse_factors(rng, sp, points, zero_rows)
        assert sp._pairs(a, b)[0].size == kept
        block = (Jet(sp, a) * Jet(sp, b)).coeffs
        assert block.shape == (sp.size, points)
        for p, alone in enumerate(_full_table_products(sp, a, b)):
            assert block[:, p].tobytes() == alone.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_product_with_a_non_finite_factor_keeps_every_pair(bad):
    # an inf or a NaN that a zero row faces makes the full table's NaN of
    # 0 * inf (or carries the NaN); skipping the pair would give 0.0
    sp = _space(4, 4, 2)
    ia, ib, io = sp.mul_table()
    points = PRODUCT_BUDGET // ia.size + 5
    rng = np.random.default_rng(7)
    i, j = 1, 2
    assert np.any((ia == i) & (ib == j))
    for inf_side in (0, 1):
        a, b = _sparse_factors(rng, sp, points, [i])
        (b if inf_side == 0 else a)[i] = 0.0
        (b if inf_side == 0 else a)[j, 3] = bad
        with np.errstate(invalid="ignore"):
            block = (Jet(sp, a) * Jet(sp, b)).coeffs
            want = _full_table_products(sp, a, b)
        assert np.isnan(block[io[(ia == i) & (ib == j)][0], 3])
        for p, alone in enumerate(want):
            assert block[:, p].tobytes() == alone.tobytes()


def test_product_of_an_all_zero_factor_is_float_zeros():
    # no pair left: +0.0 floats, as the full table's sums from +0.0
    sp = _space(6, 4, 2)
    points = PRODUCT_BUDGET // sp.mul_table()[0].size + 1
    b = _random_coeffs(np.random.default_rng(3), sp.size, points)
    for zero in (np.zeros((sp.size, points)), np.full((sp.size, points), -0.0)):
        for a, c in ((zero, b), (b, zero)):
            block = (Jet(sp, a) * Jet(sp, c)).coeffs
            assert block.dtype == np.float64
            assert block.tobytes() == np.zeros((sp.size, points)).tobytes()
            for p, alone in enumerate(_full_table_products(sp, a, c)):
                assert block[:, p].tobytes() == alone.tobytes()


# The analytic functions of jets: name, exponent, domain, values near the
# largest or smallest floats whose series up to order 4 are finite, and
# values whose series at order 2 raise (outside the domain, overflow, or
# a power that underflows to a zero divisor).
ANALYTIC = [
    ("reciprocal", (), (-3.0, 3.0), [1e-61, -1e-61, 1e61],
     [0.0, -0.0, 1e-110]),
    ("sqrt", (), (0.01, 4.0), [1e-87, 1e300], [0.0, -1.0, 1e-300]),
    ("exp", (), (-5.0, 5.0), [709.0, -745.0], [710.0, 1e300]),
    ("log", (), (0.01, 4.0), [1e-77, 1e76], [0.0, -1.0, 1e-170]),
    ("sin", (), (-7.0, 7.0), [1e300, -1e300], [np.inf, -np.inf]),
    ("cos", (), (-7.0, 7.0), [1e300, 5e-324], [-np.inf, np.inf]),
    ("powf", (2.7,), (0.01, 4.0), [1e-57, 1e113], [0.0, -2.0, 1e300]),
    ("powf", (-1.3,), (0.01, 4.0), [1e-57, 1e113], [0.0, -2.0, 1e-300]),
]


def _series_of(name, args, values, order):
    """The jet ``name(*args)`` of the seed jet at ``values``: a block of
    points for a list, one point for a float."""
    (jet,) = lift([values], order)
    with np.errstate(over="ignore", invalid="ignore"):
        return getattr(jet, name)(*args).coeffs


def _analytic_id(case):
    return case[0] + "".join(f"-{a}" for a in case[1])


@pytest.mark.parametrize("case", ANALYTIC, ids=_analytic_id)
def test_block_series_by_columns_equal_point_series_bit_for_bit(case):
    # 400 values find any column whose series rounds unlike its point's
    # (numpy's exp and power differ from math's in a few percent of them)
    name, args, domain, near, _ = case
    rng = np.random.default_rng(len(name))
    values = np.concatenate([rng.uniform(*domain, size=400), near])
    for order in (0, 2, 4):
        block = _series_of(name, args, values, order)
        for p, v in enumerate(values.tolist()):
            alone = _series_of(name, args, v, order)
            assert block[:, p].tobytes() == alone.tobytes(), (order, v)


@pytest.mark.parametrize("case", ANALYTIC, ids=_analytic_id)
def test_block_series_raise_the_first_failing_points_error(case):
    name, args, domain, _, raising = case
    good = np.random.default_rng(1).uniform(*domain, size=5).tolist()
    for bad in raising:
        later = raising[-1] if bad != raising[-1] else raising[0]
        with pytest.raises(JetDomainError) as alone:
            _series_of(name, args, bad, 2)
        with pytest.raises(JetDomainError) as block:
            _series_of(name, args, good[:2] + [bad] + good[2:] + [later], 2)
        assert str(block.value) == str(alone.value)
        assert type(block.value.__cause__) is type(alone.value.__cause__)


def test_one_point_and_block_jets_do_not_combine():
    (one,) = lift([0.5], order=2)
    (block,) = lift([[0.5, 0.7, 0.9]], order=2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="one point and of a block"):
            op(one, block)
        with pytest.raises(ValueError, match="one point and of a block"):
            op(block, one)
    for base, exponent in ((one, block), (block, one)):
        with pytest.raises(ValueError, match="one point and of a block"):
            base ** exponent
    (zero_at_one,) = lift([[0.5, 0.0]], order=2)
    with pytest.raises(JetDomainError, match="division by a jet with zero"):
        zero_at_one.reciprocal()


def _kept(full, capped):
    """The coefficients of ``full`` at the monomials of ``capped``'s
    space, gathered by monomial."""
    pos = [full.space.position[m] for m in capped.space.monomials]
    return np.take(full.coeffs, pos, axis=0)


def _assert_kept(got, full, xcap):
    """``got`` is ``full`` in its space capped at ``xcap``, bit for bit."""
    assert got.space is _space(full.nvars, full.order, xcap)
    assert got.coeffs.tobytes() == _kept(full, got).tobytes()


def _random_coeffs(rng, size, points=None, value=None):
    """Normal coefficients with signed zeros mixed in; ``value`` gives
    the value coefficients a range."""
    shape = (size,) if points is None else (size, points)
    c = rng.normal(size=shape)
    c[rng.uniform(size=shape) < 0.2] = -0.0
    c[rng.uniform(size=shape) < 0.1] = 0.0
    if value is not None:
        c[0] = rng.uniform(*value, size=shape[1:])
    return c


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from([4, 6]), st.integers(2, 6), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_capped_jets_equal_uncapped_jets_at_their_monomials(nvars, order,
                                                            xcap, seed):
    rng = np.random.default_rng(seed)
    full = _space(nvars, order)

    def pair(points=None, value=None):
        f = Jet(full, _random_coeffs(rng, full.size, points, value))
        capped = f.truncated(order, xcap)
        _assert_kept(capped, f, xcap)
        return capped, f

    (a, fa), (b, fb) = pair(), pair()
    _assert_kept(a * b, fa * fb, xcap)
    # x1 is capped, y1 is not; x-degree 0 has no x-derivative
    x1, y1 = 0, nvars // 2
    if xcap:
        _assert_kept(a.deriv(x1), fa.deriv(x1), xcap - 1)
    else:
        with pytest.raises(JetOrderError, match="x-derivative"):
            a.deriv(x1)
    _assert_kept(a.deriv(y1), fa.deriv(y1), xcap)
    # blocks of 2 points and as wide as the capped space
    for points in (2, _space(nvars, order, xcap).size):
        (a, fa), (b, fb) = pair(points), pair(points)
        _assert_kept(a * b, fa * fb, xcap)
    # analytic functions at positive values
    p, fp = pair(value=(0.5, 2.0))
    for f in (Jet.sqrt, Jet.exp, Jet.reciprocal, lambda j: j.powf(1.5),
              lambda j: j.powf(-3)):
        _assert_kept(f(p), f(fp), xcap)
    # a 3x3 solve, whose pivots follow the random values
    A = [[pair(value=(-2.0, 2.0)) for _ in range(3)] for _ in range(3)]
    r = [pair() for _ in range(3)]
    got = jet_linear_solve([[c for c, _ in row] for row in A],
                           [c for c, _ in r])
    want = jet_linear_solve([[f for _, f in row] for row in A],
                            [f for _, f in r])
    for g, w in zip(got, want):
        _assert_kept(g, w, xcap)


def test_jets_of_different_caps_raise_and_name_the_cap():
    values = [0.5, -1.0, 2.0, 0.25]
    a = lift(values, 4, xcap=1)[2]
    b = lift(values, 4, xcap=2)[2]
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match=r"different spaces \(4v4 capped "
                           r"at x-degree 1, 4v4 capped at x-degree 2\)"):
            op(a, b)
        with pytest.raises(ValueError, match=r"\(4v4 capped at x-degree 2, "
                           r"4v4\)"):
            op(b, lift(values, 4)[2])
    assert (a * b.truncated(4, 1)).space is a.space
    with pytest.raises(JetOrderError, match="x-degree 2"):
        a.truncated(4, 2)
    # a cap at or above the order is the uncapped space itself
    assert lift(values, 2, xcap=2)[0].space is lift(values, 2)[0].space
    assert a.truncated(1).space is _space(4, 1)


def test_partials_the_space_drops_are_nan():
    x1, x2, y1, y2 = lift([0.5, -1.0, 2.0, 0.25], 3, xcap=1)
    f = x1 * x2 * y1 + x1 * y1 * y2 + y1 * y1 * y2
    d2 = f.partials(2)
    # x1 x2 and x1^2 have x-degree 2
    assert np.isnan(d2[0, 1]) and np.isnan(d2[1, 0]) and np.isnan(d2[0, 0])
    assert d2[0, 2] == -0.75 and d2[2, 2] == 0.5
    d3 = f.partials(3)
    assert np.isnan(d3[0, 1, 2]) and d3[0, 2, 3] == 1.0 and d3[2, 2, 3] == 2.0
    # ordered triples with two x's (3 * 4 * 2) or three (8)
    assert np.isnan(d3).sum() == 32
    (x1,) = lift([0.5, -1.0, 2.0, 0.25], 2, xcap=0)[:1]
    assert x1.value == 0.5 and np.isnan(x1.partials(1)[:2]).all()



def _horner(jet, series):
    """``Jet.compose`` with every term of the series: the reference for
    the series that stops at the x-cap."""
    h = Jet(jet.space, jet.coeffs.copy())
    h.coeffs[0] = 0.0
    out = jet._like(series[-1])
    for k in range(len(series) - 2, -1, -1):
        out = out * h
        out.coeffs[0] += series[k]
    return out


# sin's series at 0 in exact terms, with signed zeros
SIGNED_SERIES = [0.0, 1.0, -0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0, -0.0]


@pytest.mark.parametrize("order", [3, 4, 5, 6])
@pytest.mark.parametrize("xcap", [1, 2])
@pytest.mark.parametrize("points", [None, 3])
def test_compose_of_an_x_only_argument_stops_at_the_cap(monkeypatch, order,
                                                        xcap, points):
    products = []
    mul = Jet.__mul__

    def counting(a, b):
        products.append(a.space)
        return mul(a, b)

    # x1 = 0 in the first point, so that u is 0 there
    values = [[0.0, 0.4, -0.3], [0.5, -1.0, 0.8], [2.0, 0.25, -1.5],
              [0.7, 1.1, 0.2]]
    if points is None:
        values = [v[0] for v in values]
    x1, x2, y1, _ = lift(values, order, xcap)
    u = x1 + x1 * x2
    p = 1.5 + u * 0.5 + x2 * x2
    # a y part in the middle point of a block, or in the one point
    y_part = u + Jet(y1.space, y1.coeffs * (1.0 if points is None
                                            else np.array([0.0, 1.0, 0.0])))
    cases = [(Jet.sin, u), (Jet.cos, u), (Jet.exp, u), (Jet.log, p),
             (Jet.sqrt, p), (Jet.reciprocal, p),
             (lambda j: j.powf(1.5), p), (lambda j: j.powf(-0.5), p),
             (lambda j: j.compose(series), u), (Jet.sin, y_part)]
    series = np.array(SIGNED_SERIES[:order + 1])
    if points is not None:
        series = np.repeat(series[:, None], points, axis=1)
    with monkeypatch.context() as m:
        m.setattr(Jet, "compose", _horner)
        want = [f(arg) for f, arg in cases]
    monkeypatch.setattr(Jet, "__mul__", counting)
    for (f, arg), ref in zip(cases, want):
        products.clear()
        got = f(arg)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
        # u^(xcap + 1) = 0: the series stops after its term xcap; an
        # argument with a y part anywhere takes every term
        assert len(products) == (order if arg is y_part else xcap)


def test_straight_line_cuts_series_at_the_cap():
    # capped at x-degree 1, a series of an argument without y part stops
    # after its term 1, as Jet.compose's does
    names = ["x1", "x2", "y1", "y2"]

    def cut(env):
        return ((env["x1"] * 2.0 + 0.5).sqrt() * env["y1"]
                + (env["x2"] - 3.0).reciprocal() * env["y2"] ** 2)

    def uncut(env):
        # a constant y part: the series runs to its end
        return (env["x1"] + env["y1"]).exp()

    def steep(env):
        # at x1 = 2 the series' term 3 is inf, and the cut leaves it out
        return env["x1"] ** 1000.5 * env["y1"]

    points = [([0.3, -0.2], [1.0, 0.5]), ([0.0, 0.7], [-0.0, 2.0])]
    for fn, xys in ((cut, points), (uncut, points),
                    (steep, [([2.0, 0.1], [1e-300, 1.0])])):
        program, space = straight_line(fn, names, 3, 1)
        for x, y in xys:
            want = fn(lift_env(3, 1, x=x, y=y))
            assert want.space is space and space.xcap == 1
            assert np.isfinite(want.coeffs).all()
            got = np.array(program(*x, *y))
            assert got.tobytes() == want.coeffs.tobytes()
    # a y part whose values decide whether the jets cut
    with pytest.raises(JetError):
        straight_line(lambda env: (env["x1"] * env["y1"]).exp(), names, 3, 1)
