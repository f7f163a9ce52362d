"""Scalar layer: radicals, truncated h-series, half-integers."""

import random
from fractions import Fraction

import pytest

from uhsl2.scalar import (HalfInt, HSeries, RadicalSum, half_range,
                          radical_normalize, spins_up_to, sqrt_fraction,
                          weights)


def test_radical_normalize_examples():
    assert radical_normalize(8) == RadicalSum({2: 2})
    assert radical_normalize(1) == RadicalSum({1: 1})
    assert radical_normalize(12) == RadicalSum({3: 2})
    assert radical_normalize(49) == RadicalSum({1: 7})
    assert radical_normalize(2, Fraction(1, 2)) == RadicalSum({2: Fraction(1, 2)})


def test_radical_normalize_squares_back():
    # q*sqrt(r) squared must reproduce n*q^2 for every n up to 1000
    for n in range(1, 1001):
        s = radical_normalize(n)
        assert s * s == RadicalSum({1: n}), f"sqrt({n}) normalized wrong"


def test_radical_products():
    r2, r3 = radical_normalize(2), radical_normalize(3)
    assert r2 * r3 == radical_normalize(6)
    assert r2 * r2 == RadicalSum({1: 2})
    assert (1 + r2) * (1 - r2) == RadicalSum({1: -1})
    r6 = radical_normalize(6)
    assert r2 * r6 == RadicalSum({3: 2})  # sqrt(2)*sqrt(6) = 2*sqrt(3)


def test_radical_inversion():
    x = radical_normalize(2, Fraction(3, 4))  # (3/4)*sqrt(2)
    assert x * x.invert() == RadicalSum.one()
    with pytest.raises(ValueError):
        (1 + radical_normalize(2)).invert()
    assert sqrt_fraction(Fraction(1, 2)) * sqrt_fraction(Fraction(1, 2)) == RadicalSum({1: Fraction(1, 2)})


def test_radical_ring_properties():
    rng = random.Random(20260825)

    def rand_rad():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            r = rng.choice([1, 2, 3, 5, 6, 7, 10])
            terms[r] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return RadicalSum(terms)

    for _ in range(200):
        a, b, c = rand_rad(), rand_rad(), rand_rad()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + RadicalSum.zero() == a
        assert a * RadicalSum.one() == a
        assert (a - a).is_zero()


def test_radical_str_and_json():
    x = RadicalSum({1: Fraction(1, 2), 2: -1})
    assert str(x) == "1/2 - sqrt(2)"
    assert x.to_json() == [[1, 2, 1], [-1, 1, 2]]
    assert str(RadicalSum.zero()) == "0"


def test_series_basic_products():
    H = 2
    one = HSeries.one(H)
    h = HSeries.h_power(1, H)
    a = one - h                      # 1 - h
    b = one + h + HSeries.h_power(2, H)  # 1 + h + h^2
    assert a * b == one, "(1-h)(1+h+h^2) should collapse to 1 at order 2"
    # truncation drops the cross term
    assert HSeries.h_power(1, 1) * HSeries.h_power(1, 1) == HSeries.zero(1)


def test_series_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        HSeries.one(2) + HSeries.one(3)
    with pytest.raises(ValueError):
        HSeries.one(2) * HSeries.one(3)


def test_series_divide_exact():
    H = 3
    x = HSeries.h_power(1, H) + HSeries.h_power(2, H)  # h + h^2
    q = x.divide_exact(1)
    assert q.order == H - 1
    assert q == HSeries.one(H - 1) + HSeries.h_power(1, H - 1)
    with pytest.raises(ValueError):
        (HSeries.one(H) + HSeries.h_power(1, H)).divide_exact(1)


def test_series_invert_unit():
    H = 5
    s = HSeries.one(H) - HSeries.h_power(1, H, 2)  # 1 - 2h
    inv = s.invert_unit()
    assert s * inv == HSeries.one(H)
    t = HSeries.constant(radical_normalize(2), H) + HSeries.h_power(1, H)
    assert t * t.invert_unit() == HSeries.one(H)


def test_series_ring_properties():
    rng = random.Random(77)
    H = 4

    def rand_series():
        coeffs = []
        for _ in range(H + 1):
            r = rng.choice([1, 1, 2, 3])
            coeffs.append(RadicalSum({r: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}))
        return HSeries(coeffs, H)

    for _ in range(100):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * HSeries.one(H) == a


def test_series_str():
    s = HSeries.one(2) - HSeries.h_power(2, 2, radical_normalize(2))
    assert str(s) == "1 - sqrt(2)*h^2 (mod h^3)"


def test_half_int():
    j = HalfInt.parse("3/2")
    assert j.twice == 3
    assert not j.is_integer()
    assert (j + HalfInt.parse("1/2")).as_int() == 2
    assert str(-j) == "-3/2"
    assert HalfInt.of(2) > j
    assert HalfInt.of(Fraction(1, 2)) == HalfInt(1)
    with pytest.raises(ValueError):
        HalfInt.of(Fraction(1, 3))
    with pytest.raises(ValueError):
        j.as_int()


def test_half_int_equality_with_non_half_integers():
    assert HalfInt(1) != Fraction(1, 3) and not HalfInt(1) == Fraction(1, 3)
    assert HalfInt(2) == Fraction(1) and HalfInt(2) == 1
    assert HalfInt(1) != 0 and HalfInt(1) != "1/2"


def test_half_int_ranges():
    assert [str(m) for m in weights(HalfInt(3))] == ["-3/2", "-1/2", "1/2", "3/2"]
    assert [m.twice for m in half_range(0, 2)] == [0, 2, 4]
    assert [s.twice for s in spins_up_to(Fraction(3, 2))] == [0, 1, 2, 3]
