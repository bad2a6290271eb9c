"""Hand-assembled reference systems used across the suite.

These are built directly from the library primitives (not via the builtin
catalog) so that builtin constructors can be checked against independent
assemblies of the same structures.
"""

import sys
from pathlib import Path

import pytest

# appended, not prepended: an explicit PYTHONPATH=<other checkout>/src tests that checkout
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from poisson3d import expr as ex
from poisson3d.family import make_family_spec, make_kappa
from poisson3d.scalar_fields import DomainBox, build_scalar_field

HALPHEN_PREDICATE = "(x1 - x2)*(x2 - x3)*(x3 - x1)"
HALPHEN_ETA = "1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))"

# boxes with pairwise-separated axis intervals keep every chi bounded away
# from zero, which chart and finite-difference tests rely on
ORDERED_BOX = ((0.05, 0.45), (0.55, 0.95), (1.05, 1.45))
WIDE_BOX = ((0.0, 5.0), (0.0, 5.0), (0.0, 5.0))
UNIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
TOP_BOX = ((0.4, 2.0), (0.4, 2.0), (0.4, 2.0))


def make_halphen(box=UNIT_BOX, name="halphen-hand"):
    domain = DomainBox(tuple(box), ex.parse(HALPHEN_PREDICATE))
    fields = tuple(
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in box
    )
    return make_family_spec(ex.parse(HALPHEN_ETA), fields, make_kappa(0.0, 0.0), domain, name)


def euler_alphas(I):
    I1, I2, I3 = I
    return ((I2 - I3) / (I2 * I3), (I3 - I1) / (I1 * I3), (I1 - I2) / (I1 * I2))


def make_euler_top(I=(1.0, 2.0, 3.0), box=TOP_BOX, name="euler-top-hand"):
    a1, a2, a3 = euler_alphas(I)
    coeffs = (a2 * a3, a1 * a3, a1 * a2)
    domain = DomainBox(tuple(box), None)
    fields = tuple(
        build_scalar_field(
            ex.lit(2.0 * c) * ex.var("u"),
            ex.lit(c) * ex.pow_(ex.var("u"), ex.lit(2.0)),
            ex.call("sqrt", ex.var("u") / c),
            iv,
        )
        for c, iv in zip(coeffs, box)
    )
    eta = ex.lit(1.0 / (2.0 * a1 * a2 * a3))
    return make_family_spec(eta, fields, make_kappa(0.0, 0.0), domain, name)


def make_flat_spec(box=((-1.0, 1.0),) * 3, name="flat"):
    """eta = 1, phi_i = 1, psi_i = x_i, kappa = 0; rank drops to 0 at the origin."""
    domain = DomainBox(tuple(box), None)
    fields = tuple(
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in box
    )
    return make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), domain, name)


@pytest.fixture(scope="session")
def halphen_unit():
    return make_halphen(UNIT_BOX)


@pytest.fixture(scope="session")
def halphen_wide():
    return make_halphen(WIDE_BOX)


@pytest.fixture(scope="session")
def halphen_ordered():
    return make_halphen(ORDERED_BOX)


@pytest.fixture(scope="session")
def euler_top_123():
    return make_euler_top((1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def flat_spec():
    return make_flat_spec()
