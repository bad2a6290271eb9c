import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import expr as ex
from poisson3d.errors import DomainEvalError, FieldValidationError, OutOfRangeError
from poisson3d.scalar_fields import (
    ZERO_FLOOR,
    DomainBox,
    Field3,
    build_scalar_field,
    first_vanishing,
    psi_inverse,
)


def make_field(phi: str, psi: str, zeta: str | None, interval):
    return build_scalar_field(
        ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None, interval
    )


def test_identity_axis_accepted():
    fld = make_field("1", "u", "u", (0.0, 10.0))
    assert fld.psi_fn(3.5) == 3.5


def test_quadratic_axis_accepted():
    a = 0.75
    fld = make_field(f"2*{a}*u", f"{a}*u^2", None, (1.0, 2.0))
    assert fld.psi_fn(1.5) == pytest.approx(a * 2.25)


def test_vanishing_density_rejected():
    with pytest.raises(FieldValidationError):
        make_field("u", "u^2/2", None, (-1.0, 1.0))


def test_primitive_mismatch_rejected():
    with pytest.raises(FieldValidationError):
        make_field("u", "u^2", None, (1.0, 2.0))  # psi' = 2u, not u


def test_bad_zeta_rejected():
    with pytest.raises(FieldValidationError):
        make_field("1", "u", "u + 0.001", (0.0, 1.0))


def test_field_expressions_must_use_u_only():
    with pytest.raises(FieldValidationError):
        make_field("1", "x1", None, (0.0, 1.0))


def test_psi_inverse_identity():
    fld = make_field("1", "u", "u", (0.0, 10.0))
    assert psi_inverse(fld, 3.7) == 3.7


def test_psi_inverse_cubic_root_finder():
    fld = make_field("3*u^2 + 1", "u^3 + u", None, (0.0, 2.0))
    target = 1.2**3 + 1.2
    assert target == pytest.approx(2.928)
    assert psi_inverse(fld, target) == pytest.approx(1.2, abs=1e-10)


def test_psi_inverse_out_of_range():
    fld = make_field("2*u", "u^2", None, (1.0, 2.0))
    with pytest.raises(OutOfRangeError):
        psi_inverse(fld, 0.5)


def test_psi_inverse_decreasing_primitive():
    fld = make_field("0 - 2*u", "0 - u^2", None, (0.5, 2.0))
    target = -(1.3**2)
    assert psi_inverse(fld, target) == pytest.approx(1.3, abs=1e-10)


def test_psi_inverse_sloppy_zeta_gets_polished():
    # zeta is valid to ~1e-10 (passes construction) but short of 1e-12
    fld = make_field("3*u^2", "u^3", "u^(1/3) * (1 + 0.0000000001)", (0.5, 2.0))
    x = psi_inverse(fld, 1.5**3)
    assert abs(fld.psi_fn(x) - 1.5**3) <= 1e-12 * max(1.0, 1.5**3)


@pytest.mark.parametrize(
    "source, interval, ok",
    [
        ("u", (1.0, 2.0), True),
        ("u", (-1.0, 1.0), False),
        ("cos(u)", (0.0, 3.0), False),  # root near 1.5708
        ("exp(u)", (-5.0, 5.0), True),
    ],
)
def test_first_vanishing(source, interval, ok):
    fn = ex.compile_expr(ex.parse(source), ("u",))
    assert (first_vanishing(fn, (np.linspace(*interval, 100),), ZERO_FLOOR, True) is None) is ok


def test_first_vanishing_reports_the_first_failure_in_sample_order():
    u = np.array([1.0, 2.0, -3.0, 0.5, 4.0])
    fn = ex.compile_expr(ex.parse("sqrt(u)"), ("u",))  # faults at -3 only
    assert first_vanishing(lambda v: v, (u,), 0.1, True) == (2, "sign")
    assert first_vanishing(lambda v: v, (u,), 0.1, False) is None
    assert first_vanishing(lambda v: v, (u,), np.array([0.0, 0.0, 0.0, 0.5, 0.0]), False) == (3, "zero")
    # a fault replays the points in order: a failure before it is reported, else it raises at its point
    assert first_vanishing(fn, (u,), 1.2, False) == (0, "zero")
    with pytest.raises(DomainEvalError):
        first_vanishing(fn, (u,), 0.1, False)
    # a floor of -inf exempts a point
    assert first_vanishing(lambda v: v, (np.array([0.0, 2.0]),), np.array([-np.inf, 0.1]), False) is None


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=9.95))
def test_psi_inverse_round_trip_property(x):
    fld = make_field("3*u^2 + 1", "u^3 + u", None, (0.0, 10.0))
    assert psi_inverse(fld, fld.psi_fn(x)) == pytest.approx(x, abs=1e-9)


def test_monotonicity_of_accepted_fields():
    rng = random.Random(7)
    for _ in range(20):
        a = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        fld = make_field(f"exp({a}*u)", f"exp({a}*u)/{a}", None, (-1.0, 1.0))
        xs = np.linspace(-1.0, 1.0, 256)
        diffs = np.diff([fld.psi_fn(float(x)) for x in xs])
        assert np.all(diffs > 0) or np.all(diffs < 0)


def test_domain_box_membership_and_predicate():
    box = DomainBox(
        ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        ex.parse("(x1 - x2)*(x2 - x3)*(x3 - x1)"),
    )
    assert box.contains((0.1, 0.5, 0.9))
    assert not box.contains((0.5, 0.5, 0.9))  # predicate vanishes
    assert not box.contains((1.5, 0.5, 0.9))  # outside box


def test_domain_box_sampling_is_deterministic():
    box = DomainBox(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), ex.parse("(x1 - x2)*(x2 - x3)*(x3 - x1)"))
    a = box.sample(50, seed=42)
    b = box.sample(50, seed=42)
    np.testing.assert_array_equal(a, b)
    assert all(box.contains(x) for x in a)
    c = box.sample(50, seed=43)
    assert not np.array_equal(a, c)


def test_domain_box_sampling_rejects_empty():
    from poisson3d.errors import DomainSamplingError

    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("x1 - x1"))  # predicate always 0
    with pytest.raises(DomainSamplingError):
        box.sample(10, seed=1)
    # admits only x1 < 0.005: too few of the 100 * 100 draws for 100 points
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("(0.005 - x1) + abs(0.005 - x1)"))
    with pytest.raises(DomainSamplingError):
        box.sample(100, seed=0)


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        DomainBox(((1.0, 1.0), (0.0, 1.0), (0.0, 1.0)))


def test_field3_mixed_derivative_sources():
    f = ex.parse("x1^2 * x2 + sin(x3)")
    # the supplied d/dx1 is deliberately not the true partial 2 x1 x2
    mixed = Field3(f, partials=(ex.parse("7 + x2"), None, None))
    plain = Field3(lambda x1, x2, x3: x1**2 * x2 + math.sin(x3))
    assert mixed.symbolic() and not plain.symbolic()
    for x1, x2, x3 in ((0.5, -1.25, 2.0), (1.5, 0.75, -0.3)):
        for scheme in ("analytic", "auto"):
            assert mixed.partial(1, x1, x2, x3, scheme) == 7.0 + x2
            assert mixed.partial(2, x1, x2, x3, scheme) == pytest.approx(x1**2, rel=1e-15)
            assert mixed.partial(3, x1, x2, x3, scheme) == pytest.approx(math.cos(x3), rel=1e-15)
        exact = (2.0 * x1 * x2, x1**2, math.cos(x3))
        for got in (plain.gradient(x1, x2, x3, "fd"), plain.gradient(x1, x2, x3)):
            assert np.max(np.abs(np.subtract(got, exact))) <= 1e-6
        with pytest.raises(ValueError):
            plain.partial(2, x1, x2, x3, "analytic")


@pytest.mark.parametrize("phi, psi, want", [("3*u^2", "u^3", (1.0, 8.0)), ("-3*u^2", "-u^3", (-8.0, -1.0))])
def test_psi_range_is_computed_once(phi, psi, want):
    fld = make_field(phi, psi, None, (1.0, 2.0))
    a, b = fld.psi_fn(1.0), fld.psi_fn(2.0)
    assert fld.psi_range() == ((a, b) if a <= b else (b, a)) == want
    target = 0.5 * (want[0] + want[1])
    assert fld.psi_fn(psi_inverse(fld, target)) == pytest.approx(target, rel=1e-12)
    assert fld.psi_range() is fld.psi_range()
