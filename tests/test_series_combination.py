"""Laws of the shared sparse container, run over each of its four users."""

from fractions import Fraction

import pytest

from uhsl2.reps import Matrix
from uhsl2.scalar import HSeries, RadicalSum, combine, sqrt_ratio
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
    r2 = sqrt_ratio(2)  # a constant lifts to the element's order
    assert x.scale(r2) == r2 * x == x * r2 == x.scale(HSeries.constant(r2, H))
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


def _naive_sum(pairs, zero):
    out = zero
    for c, x in pairs:
        out = out + x.scale(c)
    return out


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_combine_is_the_weighted_sum(kind):
    order = 8
    x, y, _ = FACTORIES[kind](order)
    zero = x - x

    def h(k, c=1):
        return HSeries.h_power(k, order, c)

    cases = {
        "ints": [(3, x), (-2, y)],
        "fractions": [(Fraction(2, 3), x), (Fraction(-5, 7), y), (Fraction(1, 6), x * y)],
        "radicals": [(sqrt_ratio(2), x), (RadicalSum({3: Fraction(1, 5), 1: 2}), y)],
        "series": [(h(1, Fraction(1, 6)) + h(2, Fraction(3, 10)), x),
                   (h(0, Fraction(2, 9)) - h(3, sqrt_ratio(1, 8)), y)],
        "zero coefficients": [(0, x), (Fraction(0), y), (HSeries.zero(order), x * y)],
        "cancelling": [(2, x), (-1, x), (-1, x), (Fraction(1, 2), y), (h(1), zero)],
        "truncated": [(h(5), x.scale(h(5))), (h(5, 3), y.scale(h(5)))],
    }
    for name, pairs in cases.items():
        got = combine(pairs, zero)
        assert got == _naive_sum(pairs, zero), name
        assert all(not c.is_zero() for c in got.terms.values()), name
    # h^5 * h^5 lies past h^8 and x, y start at h^0 and h^1
    assert combine(cases["truncated"], zero).is_zero()
    assert combine(cases["cancelling"], zero) == y.scale(Fraction(1, 2))


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_combine_matches_the_naive_sum_hypothesis(kind):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    x, y, _ = FACTORIES[kind](H)
    zero = x - x
    pool = [x, y, x * y, zero, y.scale(HSeries.h_power(H, H))]
    fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 9))
    radicals = st.dictionaries(st.sampled_from((1, 2, 3, 6)), fractions, max_size=2).map(RadicalSum)
    series = st.lists(radicals, min_size=H + 1, max_size=H + 1).map(lambda cs: HSeries(cs, H))
    coeffs = st.one_of(st.integers(-3, 3), fractions, radicals, series)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(st.tuples(coeffs, st.sampled_from(pool)), max_size=5))
    def law(pairs):
        assert combine(pairs, zero) == _naive_sum(pairs, zero)

    law()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_combine_of_nothing_is_zero(kind):
    x, _, _ = FACTORIES[kind](H)
    assert combine([], x).is_zero() and combine(iter(()), x) == x - x


def test_combine_rejects_another_type_or_space():
    weyl, osc = WeylElement.one(H), OscElement.one(H)
    # another type, a scalar, another order, another shape, another presentation
    cases = [(weyl, osc), (weyl, 1), (weyl, WeylElement.one(H + 1)),
             (Matrix(2, 2, H), Matrix(2, 3, H, {(0, 2): 1})),
             (osc_algebra(H).one(), plane_algebra(H).one())]
    for like, x in cases:
        with pytest.raises(ValueError):
            combine([(1, x)], like)
        with pytest.raises(ValueError):
            combine([(1, like), (0, x)], like)
