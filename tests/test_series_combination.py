"""Laws of the shared sparse container, run over each of its four users."""

from fractions import Fraction

import pytest

from uhsl2.reps import Matrix
from uhsl2.scalar import HSeries
from uhsl2.slh2 import osc_algebra, plane_algebra
from uhsl2.weyl import OscElement, WeylElement

H = 3


def _poly(cls):
    def build(order):
        h = HSeries.h_power(1, order)
        x = cls({(1, 0): 1, (0, 1): h, (2, 2): Fraction(1, 3)}, order)
        y = cls({(0, 1): 2, (1, 1): -h, (0, 0): 5}, order)
        return x, y, cls({(1, 0): 1}, order + 1)
    return build


def _nc(order):
    pres = osc_algebra(order)
    a, ab = pres.gen("a"), pres.gen("abar")
    h = HSeries.h_power(1, order)
    x = a + ab.scale(h) + (a * a * ab).scale(Fraction(1, 3))
    y = ab.scale(2) - (a * ab).scale(h) + 5
    return x, y, plane_algebra(order).gen("xi")


def _matrix(order):
    h = HSeries.h_power(1, order)
    x = Matrix(2, 2, order, {(0, 0): 1, (0, 1): h, (1, 1): Fraction(1, 3)})
    y = Matrix(2, 2, order, {(1, 0): 2, (0, 1): -h, (1, 1): 5})
    return x, y, Matrix(2, 2, order + 1, {(0, 0): 1})


FACTORIES = {"weyl": _poly(WeylElement), "osc": _poly(OscElement),
             "nc": _nc, "matrix": _matrix}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_shared_laws(kind):
    x, y, foreign = FACTORIES[kind](H)
    h = HSeries.h_power(1, H)
    assert x == x and x != y and y != x
    assert (x + y) - y == x and y + x == x + y
    assert x - y == x + (-y) and -(-x) == x
    assert x + 3 - 3 == x and 3 + x == x + 3 and 3 - x == -(x - 3)
    assert x.scale(2) == x + x == 2 * x == x * 2
    assert x.scale(h) == h * x == x * h
    assert x ** 0 == 1 and x ** 0 == x.constant(1) and x ** 1 == x
    assert x ** 2 == x * x
    assert x.commutator(y) == -y.commutator(x)
    assert x.commutator(x).is_zero()
    assert x + 0 == x and (x - x) == 0

    # zero coefficients never survive, whether by cancellation or truncation
    assert (x - x).terms == {} and (x + y - x - y).terms == {}
    assert set(((x + y) - y).terms) == set(x.terms)
    for el in (x + y - y, x.scale(HSeries.h_power(H, H)), x * y, x ** 3):
        assert all(not c.is_zero() for c in el.terms.values())
    assert len(x.scale(HSeries.h_power(H, H)).terms) < len(x.terms)

    # elements of another space (order or presentation) are rejected
    for op in (lambda: x + foreign, lambda: x - foreign, lambda: x * foreign,
               lambda: x.commutator(foreign)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        x ** -1
