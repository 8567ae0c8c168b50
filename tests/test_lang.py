import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerchange.jets import (Jet, JetDomainError, JetError, lift, lift_env,
                                straight_line)
from finslerchange.lang import (
    ChangeSpec,
    HypersurfaceSpec,
    MetricSpec,
    SpecError,
    canonical_text,
    evaluate,
    format_expression,
    free_vars,
    parse_expression,
    parse_spec_text,
    spec_kind,
)


def ev(text, **env):
    return evaluate(parse_expression(text), env)


def test_arithmetic_precedence():
    assert ev("2 + 3 * 4") == 14
    assert ev("(2 + 3) * 4") == 20
    assert ev("2 - 3 - 4") == -5
    assert ev("12 / 3 / 2") == 2
    assert ev("-2^2") == -4
    assert ev("2^3^2") == 512
    assert ev("2 * -3") == -6


def test_functions_and_constants():
    assert ev("sqrt(2) * sqrt(2)") == pytest.approx(2.0)
    assert ev("exp(log(7))") == pytest.approx(7.0)
    assert ev("sin(pi / 2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("log(e)") == pytest.approx(1.0)


def test_variables_from_env():
    assert ev("x1 * y2 + 1", x1=3.0, y2=4.0) == 13.0
    with pytest.raises(SpecError):
        ev("x1 + nope", x1=1.0)


def test_free_vars():
    node = parse_expression("x1 * sin(y2) + pi - b3")
    assert free_vars(node) == {"x1", "y2", "b3"}


def test_eval_over_jets_matches_hand_derivative():
    node = parse_expression("exp(x1) * y1^2 / x2")
    x1, x2, y1 = lift([0.5, 2.0, 3.0], order=2)
    j = evaluate(node, {"x1": x1, "x2": x2, "y1": y1})
    assert j.value == pytest.approx(math.exp(0.5) * 9 / 2)
    assert j.partials(1)[0] == pytest.approx(math.exp(0.5) * 9 / 2)
    assert j.partials(1)[1] == pytest.approx(-math.exp(0.5) * 9 / 4)
    assert j.partials(1)[2] == pytest.approx(math.exp(0.5) * 6 / 2)


def test_domain_errors_at_eval():
    with pytest.raises(JetDomainError):
        ev("sqrt(x1)", x1=-1.0)
    with pytest.raises(JetDomainError):
        ev("1 / x1", x1=0.0)
    with pytest.raises(JetDomainError):
        ev("x1 ^ 0.5", x1=-2.0)


def test_compiled_floats_are_bit_equal_to_hand_computation():
    x1, x2, y1 = 0.7, 1.3, -2.1
    env = {"x1": x1, "x2": x2, "y1": y1}
    cases = [
        ("x1 * y1 + 2 / x2 - x1^2", x1 * y1 + 2.0 / x2 - x1 ** 2.0),
        ("-(x1 - y1) * exp(x2) / 3", -(x1 - y1) * math.exp(x2) / 3.0),
        ("sqrt(x1^2 + y1^2) + log(x2) * sin(pi * x1)",
         math.sqrt(x1 ** 2.0 + y1 ** 2.0)
         + math.log(x2) * math.sin(math.pi * x1)),
        ("2^x1 - cos(e / x2)", 2.0 ** x1 - math.cos(math.e / x2)),
    ]
    for text, want in cases:
        node = parse_expression(text)
        assert evaluate(node, env) == want, text
        assert evaluate(node, env) == want, text     # from the compiled cache
    node = parse_expression("x1 * y1")
    assert evaluate(node, {"x1": 2.0, "y1": 3.0}) == 6.0
    assert evaluate(node, {"x1": 5.0, "y1": 3.0}) == 15.0


def test_compiled_jets_are_bit_equal_to_hand_computation():
    x1, x2, y1 = lift([0.5, 2.0, 3.0], order=3)
    env = {"x1": x1, "x2": x2, "y1": y1}
    cases = [
        ("exp(x1) * y1^2 / x2", x1.exp() * y1.powf(2.0) / x2),
        ("1 / x2 - sqrt(y1) * 0.5", x2.reciprocal() * 1.0 - y1.sqrt() * 0.5),
        ("-log(x2) + 2^x1", -x2.log() + Jet.constant(2.0, 3, 3).powf(x1)),
        ("x1^y1 - cos(x1) * sin(x2)", x1.powf(y1) - x1.cos() * x2.sin()),
    ]
    for text, want in cases:
        got = evaluate(parse_expression(text), env)
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), text


def test_number_to_a_capped_jet_power_stays_in_its_space():
    # the base becomes a constant of the exponent's space, cap included
    values = [0.5, -0.25, 1.5, 2.0]
    expr = parse_expression("2^(x1 * y1 + x2)")
    names = ("x1", "x2", "y1", "y2")
    capped = lift(values, order=3, xcap=1)
    got = evaluate(expr, dict(zip(names, capped)))
    want = evaluate(expr, dict(zip(names, lift(values, order=3))))
    assert got.space is capped[0].space
    assert got.coeffs.tobytes() == want.truncated(3, 1).coeffs.tobytes()


def test_compiled_unknown_variable_keeps_its_position():
    node = parse_expression("x1 + 2 * nope", line_no=4)
    for _ in range(2):          # compiling, then the cached closure
        with pytest.raises(SpecError) as err:
            evaluate(node, {"x1": 1.0})
        assert (err.value.line, err.value.col) == (4, 10)
        assert "unknown variable 'nope'" in str(err.value)


def test_compiled_domain_errors_over_floats_and_jets():
    (zero,) = lift([0.0], order=2)
    (neg,) = lift([-1.0], order=2)
    for text, value in [("1 / x1", 0.0), ("1 / x1", zero),
                        ("x2 / x1", zero), ("log(x1)", 0.0),
                        ("log(x1)", -1.0), ("log(x1)", zero),
                        ("sqrt(x1)", -1.0), ("sqrt(x1)", neg),
                        ("sqrt(x1)", zero)]:
        with pytest.raises(JetDomainError):
            evaluate(parse_expression(text), {"x1": value, "x2": 1.0})


def test_env_entry_overrides_constant():
    assert ev("pi * 2", pi=3.0) == 6.0
    assert ev("pi * 2") == math.pi * 2.0
    assert ev("e + 1", e=0.5) == 1.5


def test_parse_errors_carry_positions():
    with pytest.raises(SpecError) as err:
        parse_expression("2 + * 3")
    assert "line 1" in str(err.value)
    with pytest.raises(SpecError):
        parse_expression("sin(1, 2)")
    with pytest.raises(SpecError):
        parse_expression("tanh(1)")
    with pytest.raises(SpecError):
        parse_expression("(1 + 2")
    with pytest.raises(SpecError):
        parse_expression("")


METRIC_TEXT = """
# a warped product
dim = 2
a_11 = 1
a_22 = x1^2
x_box = 0.5 2 -1 1
y_annulus = 0.5 1.5
"""


def test_metric_spec_from_quadratic_entries():
    spec = parse_spec_text(METRIC_TEXT, name="diag2")
    assert isinstance(spec, MetricSpec)
    assert spec.dim == 2
    assert spec.is_quadratic
    assert spec.x_box.shape == (2, 2)
    assert spec.x_box[0, 0] == 0.5
    # L2 = 1*y1^2 + x1^2*y2^2
    val = evaluate(spec.L2_expr, {"x1": 1.5, "y1": 2.0, "y2": 3.0})
    assert val == pytest.approx(4.0 + 2.25 * 9.0)
    assert spec.eval_l2({"x1": 1.5, "y1": 2.0, "y2": 3.0}) == pytest.approx(24.25)


def test_metric_spec_from_l():
    text = "dim 2\nL = sqrt(y1^2 + y2^2) + 0.1 * (x1 * y2 - x2 * y1)\n"
    spec = parse_spec_text(text)
    assert not spec.is_quadratic
    env = {"x1": 0.3, "x2": -0.2, "y1": 3.0, "y2": 4.0}
    want = (5.0 + 0.1 * (0.3 * 4.0 + 0.2 * 3.0)) ** 2
    assert spec.eval_l2(env) == pytest.approx(want)
    # defaults
    assert np.allclose(spec.x_box, [[-1, 1], [-1, 1]])
    assert spec.y_annulus == (0.5, 1.5)


def test_metric_offdiagonal_symmetrised():
    text = "dim 2\na_11 = 2\na_12 = x2\na_22 = 3\n"
    spec = parse_spec_text(text)
    val = spec.eval_l2({"x1": 0.0, "x2": 0.5, "y1": 1.0, "y2": 1.0})
    assert val == pytest.approx(2.0 + 2 * 0.5 + 3.0)


def test_metric_scope_enforced():
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\na_11 = y1\na_22 = 1\n")
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = x3 + y1\n")
    # a metric depends on y
    for key, expr in (("L2", "4"), ("L", "2"), ("L", "1 + x1^2")):
        with pytest.raises(SpecError, match=f"metric: {key} uses no y "):
            parse_spec_text(f"dim 2\n{key} = {expr}\n", name="metric")
    assert parse_spec_text("dim 2\nL = x1 + 0 * y2\n").L_expr is not None


def test_metric_key_conflicts():
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nL2 = y1^2\n")
    # metric-marked file with no L at all
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nx_box = 0 1 0 1\n")
    # a dim-only file is the identity change, not an error
    assert parse_spec_text("dim 2\n").is_identity
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\na_11 = 1\na_21 = 0\na_22 = 1\n")
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nsigma = x1\n")
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nL = y2\n")


def test_change_spec_and_binding():
    spec = parse_spec_text("sigma = 0.3\nb1 = 0.1 * x2\n", name="c")
    assert isinstance(spec, ChangeSpec)
    assert spec.dim is None
    assert not spec.is_identity
    bl = spec.b_list(3)
    assert len(bl) == 3
    assert evaluate(bl[0], {"x2": 2.0}) == pytest.approx(0.2)
    assert evaluate(bl[2], {}) == 0.0


def test_identity_change_detection():
    assert parse_spec_text("sigma = 0\n").is_identity
    assert parse_spec_text("dim = 3\nsigma = 0\n").is_identity
    assert not parse_spec_text("b2 = x1\n").is_identity


def test_change_dim_mismatch():
    spec = parse_spec_text("dim = 3\nsigma = x3\n")
    with pytest.raises(SpecError):
        spec.b_list(2)
    wide = parse_spec_text("b3 = 1\n")
    with pytest.raises(SpecError):
        wide.b_list(2)
    uses_x4 = parse_spec_text("sigma = x4\n")
    with pytest.raises(SpecError):
        uses_x4.b_list(3)


HYPER_TEXT = """
dim = 2
x1 = cos(u1)
x2 = sin(u1)
u_box = 0 6.28
normal_ref = 1 0
"""


def test_hypersurface_spec():
    spec = parse_spec_text(HYPER_TEXT, name="circle")
    assert isinstance(spec, HypersurfaceSpec)
    assert spec.pdim == 1
    assert evaluate(spec.embed_exprs[0], {"u1": 0.0}) == 1.0
    assert np.allclose(spec.normal_ref, [1.0, 0.0])
    assert spec.u_box.shape == (1, 2)


def test_hypersurface_requires_all_components():
    with pytest.raises(SpecError):
        parse_spec_text("dim = 3\nx1 = u1\nx2 = u2\nu_box = 0 1 0 1\n")
    with pytest.raises(SpecError):
        parse_spec_text("dim = 2\nx1 = u1\nx2 = v1\n")


def test_unknown_keys_rejected():
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nbanana = 3\n")
    with pytest.raises(SpecError):
        parse_spec_text("sigma = 1\nq_box = 0 1\n")


def test_spec_kind_names():
    assert spec_kind(parse_spec_text(METRIC_TEXT)) == "metric"
    assert spec_kind(parse_spec_text(HYPER_TEXT)) == "hypersurface"
    assert spec_kind(parse_spec_text("sigma = 1\n")) == "change"


@pytest.mark.parametrize("text", [
    "x1 + x2 * y1",
    "-(x1 + 1)^2 / sqrt(y1)",
    "sin(x1) * cos(x2) - exp(-x1 * x2)",
    "2^3^x1",
    "1 - (2 - 3)",
    "x1 / (x2 / 2)",
    "-x1^2",
    "1.5e-3 * x1 + 0.25",
])
def test_canonical_form_is_stable(text):
    once = format_expression(parse_expression(text))
    twice = format_expression(parse_expression(once))
    assert once == twice
    # and the value is preserved
    env = {"x1": 0.7, "x2": 1.3, "y1": 2.0}
    assert evaluate(parse_expression(text), env) == pytest.approx(
        evaluate(parse_expression(once), env), rel=1e-14)


def test_canonical_file_roundtrip():
    spec = parse_spec_text(METRIC_TEXT, name="diag2")
    canon = canonical_text(spec)
    again = canonical_text(parse_spec_text(canon, name="diag2"))
    assert canon == again
    assert "dim = 2" in canon
    assert "x_box = 0.5 2 -1 1" in canon


def test_vector_key_validation():
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nx_box = 1 0 0 1\n")   # lo >= hi
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\ny_annulus = -1 1\n")
    with pytest.raises(SpecError):
        parse_spec_text("dim 2\nL = y1\nx_box = 0 1\n")       # wrong length


def test_overflow_in_evaluation_is_a_domain_error():
    (big,) = lift([800.0], order=2)
    (tiny,) = lift([1e-250], order=2)
    inf, nan = "(1e300 * 1e300)", "(1e300 * 1e300 - 1e300 * 1e300)"
    for text, value in [("exp(x1)", 800.0), ("exp(x1)", big),
                        ("exp(800 * x1)^0", 1.0), (f"x1^{inf}", -0.5),
                        (f"x1^{inf}", big), (f"x1^{nan}", big),
                        ("10^x1", 800.0), ("1 / x1", tiny),
                        ("sqrt(x1)", tiny), ("log(x1)", tiny)]:
        with pytest.raises(JetDomainError):
            evaluate(parse_expression(text), {"x1": value})
    with pytest.raises(JetDomainError):
        Jet.constant(math.inf, 1, 2).sin()


def test_number_literals_must_be_finite():
    with pytest.raises(SpecError) as err:
        parse_expression("x1 * 1e400", line_no=3)
    assert (err.value.line, err.value.col) == (3, 6)
    for text, where in [("dim 2\nL = y1 * 2e308\n", (2, 10)),
                        ("dim = 1e400\nL = y1\n", (1, 7)),
                        ("dim 2\nL = y1\nx_box = 0 1 -1e999 1\n", (3, 14))]:
        with pytest.raises(SpecError) as err:
            parse_spec_text(text)
        assert (err.value.line, err.value.col) == where, text


_LEAVES = st.sampled_from(["x1", "x2", "y1", "y2"] * 3
                          + ["pi", "e", "0", "0.5", "2", "3"])
_UNARY = st.sampled_from(["-({})", "({})^2", "({})^3", "({})^-1",
                          "({})^0.5", "sqrt({})", "exp({})", "log({})",
                          "sin({})", "cos({})", "-2.5 * ({})",
                          "({}) * -0.75", "({}) / -4"])
_BINARY = st.sampled_from(["({}) + ({})", "({}) - ({})", "({}) * ({})",
                           "({}) / ({})"])
_EXPRESSIONS = st.recursive(
    _LEAVES, lambda inner: st.one_of(
        st.builds(str.format, _UNARY, inner),
        st.builds(str.format, _BINARY, inner, inner)), max_leaves=10)
# large coordinates overflow some coefficients, and some values
_COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e154,
                                         -1e300]),
                        st.floats(-3.0, 3.0))


def _outcome(fn):
    """(result, None) of ``fn()``, or (None, (type, text)) of its error."""
    try:
        with np.errstate(all="ignore"):
            return fn(), None
    except JetDomainError as exc:
        return None, (type(exc), str(exc))


def _l2_program(spec):
    """The straight-line program of the order-2 jet of ``spec``'s L^2
    over ``(x1, x2, y1, y2)``, capped at x-degree 2, which gives its
    coefficient list; None where it cannot replay the jets."""
    try:
        program, _ = straight_line(spec.eval_l2, ["x1", "x2", "y1", "y2"],
                                   2, 2)
    except (JetError, SpecError):
        return None
    return program


@settings(max_examples=300, deadline=None, database=None)
@given(_EXPRESSIONS, st.lists(_COORDINATE, min_size=4, max_size=4))
def test_l2_program_replays_the_jets(text, coords):
    # signed zeros count: coefficients are compared by their bytes
    spec = MetricSpec(dim=2, L2_expr=parse_expression(text))
    program = _l2_program(spec)
    if program is None:
        return
    want, want_error = _outcome(lambda: spec.eval_l2(
        lift_env(2, 2, x=coords[:2], y=coords[2:])))
    got, got_error = _outcome(lambda: program(*coords))
    assert got_error == want_error, text
    if want is None or got is None:
        return
    got = np.array(got)
    if np.isfinite(want.coeffs).all():
        assert got.tobytes() == want.coeffs.tobytes(), text
    else:
        # where a skipped structural zero meets a coefficient that is not
        # finite the jets make NaN; the program's list is not finite
        # either, and its value is the jets'
        assert not np.isfinite(got).all(), text
        assert got[:1].tobytes() == want.coeffs[:1].tobytes(), text


# -2 * (x1 * y1) has a coefficient -0.0 where y1 = 0; y1^2 + y2^2 has
# structural zeros +0.0 there, and its negative -0.0
SIGNED = ["-2 * (x1 * y1) + (y1^2 + y2^2)", "(y1^2 + y2^2) + -2 * (x1 * y1)",
          "-2 * (x1 * y1) - (y1^2 + y2^2)",
          "-2 * (x1 * y1) - -(y1^2 + y2^2)",
          "-(y1^2 + y2^2) + -2 * (x1 * y1)",
          "-(y1^2 + y2^2) - -2 * (x1 * y1)", "2 - x1 * y1 * -0.5",
          "-(x1 * y2) * (x2 - y1)"]


@pytest.mark.parametrize("text", SIGNED)
def test_l2_program_keeps_signed_zeros(text):
    spec = MetricSpec(dim=2, L2_expr=parse_expression(text))
    program = _l2_program(spec)
    for coords in itertools.product([0.0, -0.0, 1.5], repeat=4):
        want = spec.eval_l2(lift_env(2, 2, x=coords[:2], y=coords[2:]))
        got = np.array(program(*coords))
        assert got.tobytes() == want.coeffs.tobytes(), (text, coords)
