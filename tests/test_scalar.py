"""Scalar layer: radicals, truncated h-series, half-integers."""

import random
from fractions import Fraction
from math import gcd

import pytest

from uhsl2.scalar import (HalfInt, HSeries, RadicalSum, half_range,
                          spins_up_to, sqrt_fraction, weights)
from radical_oracle import coeff_terms, rad, rad_add, rad_mul, rad_str, ref_mul, series


def test_radical_normalize_examples():
    assert sqrt_fraction(8) == RadicalSum({2: 2})
    assert sqrt_fraction(1) == RadicalSum({1: 1})
    assert sqrt_fraction(12) == RadicalSum({3: 2})
    assert sqrt_fraction(49) == RadicalSum({1: 7})
    assert sqrt_fraction(2) * Fraction(1, 2) == RadicalSum({2: Fraction(1, 2)})


def test_radical_normalize_squares_back():
    # q*sqrt(r) squared must reproduce n*q^2 for every n up to 1000
    for n in range(1, 1001):
        s = sqrt_fraction(n)
        assert s * s == RadicalSum({1: n}), f"sqrt({n}) normalized wrong"


def test_radical_products():
    r2, r3 = sqrt_fraction(2), sqrt_fraction(3)
    assert r2 * r3 == sqrt_fraction(6)
    assert r2 * r2 == RadicalSum({1: 2})
    assert (1 + r2) * (1 - r2) == RadicalSum({1: -1})
    r6 = sqrt_fraction(6)
    assert r2 * r6 == RadicalSum({3: 2})  # sqrt(2)*sqrt(6) = 2*sqrt(3)


def test_radical_inversion():
    x = sqrt_fraction(2) * Fraction(3, 4)
    assert x * x.invert() == RadicalSum.one()
    with pytest.raises(ValueError):
        (1 + sqrt_fraction(2)).invert()
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
    # an order-0 series that is not a RadicalSum is no constant: it does not lift
    with pytest.raises(ValueError):
        HSeries.one(0) + HSeries.one(8)
    with pytest.raises(ValueError):
        HSeries.one(8).truncate(0) == HSeries.one(8)


def test_constants_lift_to_the_series_they_meet():
    s = HSeries.one(8) + HSeries.h_power(3, 8, sqrt_fraction(3))
    c = sqrt_fraction(2) + Fraction(1, 3)
    lifted = HSeries.constant(c, 8)
    for got, want in ((s + c, s + lifted), (c + s, lifted + s), (s - c, s - lifted),
                      (c - s, lifted - s), (s * c, s * lifted), (c * s, lifted * s),
                      (s.scale(c), s * lifted), (c.scale(s), lifted * s)):
        assert type(got) is HSeries and got.order == 8 and got == want
    assert c == lifted and lifted == c and c != s and s != c
    assert (c + s) - s == lifted and c * s != s
    # two constants, or a constant and an int or Fraction, give a constant
    cc = RadicalSum({1: Fraction(19, 9), 2: Fraction(2, 3)})
    for got, want in ((c * c, cc), (c + c, 2 * c), (c - c, 0), (c + 1, 1 + c),
                      (1 - c, -(c - 1)), (c * Fraction(3, 2), Fraction(3, 2) * c),
                      (c.scale(c), cc), (c / 2, c * Fraction(1, 2)),
                      (sqrt_fraction(6) / sqrt_fraction(2), sqrt_fraction(3)),
                      (RadicalSum.zero() + 1, RadicalSum.one())):
        assert type(got) is RadicalSum and got == want
    assert str(c * c) == "19/9 + 2/3*sqrt(2)" and (c * c).to_json() == [[19, 9, 1], [2, 3, 2]]


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
    t = HSeries.constant(sqrt_fraction(2), H) + HSeries.h_power(1, H)
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
    s = HSeries.one(2) - HSeries.h_power(2, 2, sqrt_fraction(2))
    assert str(s) == "1 - sqrt(2)*h^2 (mod h^3)"


# Reference ring: a series is a plain list of radical coefficients, the
# layout HSeries had before it stored integer rows over one denominator.  The
# radicals are the dicts of radical_oracle, which multiply through gcd, not
# through the ring's square-free split, and share no code with RadicalSum.

RADICANDS = (1, 2, 3, 5, 6, 10, 15)


def ref_add(a, b, sign=1):
    return [rad_add(x, y, sign) for x, y in zip(a, b)]


def ref_invert_unit(a):
    [(r, q)] = a[0].items()
    c0inv = {r: 1 / (q * r)}
    out = [c0inv]
    for k in range(1, len(a)):
        acc = {}
        for i in range(1, k + 1):
            acc = rad_add(acc, rad_mul(a[i], out[k - i]))
        out.append(rad_mul(rad_add({}, acc, -1), c0inv))
    return out


def ref_json(a):
    return {"order": len(a) - 1,
            "coeffs": [[[c[r].numerator, c[r].denominator, r] for r in sorted(c)] for c in a]}


def ref_str(a):
    parts = []
    for k, c in enumerate(a):
        if not c:
            continue
        cs = rad_str(c)
        cs = f"({cs})" if " " in cs else cs
        hk = "" if k == 0 else "h" if k == 1 else f"h^{k}"
        if not hk:
            parts.append(cs)
        elif cs == "1":
            parts.append(hk)
        elif cs == "-1":
            parts.append(f"-{hk}")
        else:
            parts.append(f"{cs}*{hk}")
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    return f"{body} (mod h^{len(a)})"


def rand_coeff(rng, density):
    if rng.random() > density:
        return {}
    return rad({r: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for r in rng.sample(RADICANDS, rng.randint(1, 3))})


def rand_coeffs(rng, order, density):
    return [rand_coeff(rng, density) for _ in range(order + 1)]


def assert_canonical(x):
    assert x.den > 0
    assert all(a and 0 <= k <= x.order for (k, _), a in x.num.items())
    assert gcd(x.den, *x.num.values()) == 1
    assert x.is_zero() == (not x.num) and (x.num or x.den == 1)


@pytest.mark.parametrize("order", [0, 1, 8, 16])
@pytest.mark.parametrize("density", [1.0, 0.3])
def test_series_against_reference_ring(order, density):
    rng = random.Random(1000 * order + int(10 * density))
    for _ in range(12):
        ra, rb = rand_coeffs(rng, order, density), rand_coeffs(rng, order, density)
        a, b = series(ra, order), series(rb, order)
        assert coeff_terms(a) == ra and coeff_terms(b) == rb
        results = [(a + b, ref_add(ra, rb)), (a - b, ref_add(ra, rb, -1)),
                   (-a, ref_add([{}] * (order + 1), ra, -1)),
                   (a * b, ref_mul(ra, rb))]
        c = rand_coeff(rng, 1.0)
        results.append((a.scale(RadicalSum(c)), [rad_mul(x, c) for x in ra]))
        k = rng.randint(0, order)
        results.append((a.truncate(k), ra[:k + 1]))
        low = [{}] * k + ra[k:]
        results.append((series(low, order).divide_exact(k), ra[k:]))
        unit = [rad({rng.choice(RADICANDS): Fraction(rng.choice((-3, -1, 1, 2)),
                                                     rng.randint(1, 12))})] + ra[1:]
        results.append((series(unit, order).invert_unit(), ref_invert_unit(unit)))
        for got, want in results:
            assert_canonical(got)
            assert coeff_terms(got) == want
            assert got == series(want, got.order)
            assert got.to_json() == ref_json(want)
            assert str(got) == ref_str(want)


@pytest.mark.parametrize("order", [0, 1, 8, 16])
def test_series_canonical_form(order):
    rng = random.Random(order)
    for _ in range(20):
        a = series(rand_coeffs(rng, order, 0.6), order)
        b = series(rand_coeffs(rng, order, 0.6), order)
        back = (a + b) - b
        assert back == a and hash(back) == hash(a)
        assert (back.num, back.den) == (a.num, a.den)
        comm = a * b - b * a
        assert comm == HSeries.zero(order)
        assert (comm.num, comm.den) == ({}, 1)
    half = HSeries.constant(Fraction(1, 2), order)
    assert ((half + half).num, (half + half).den) == ({(0, 1): 1}, 1)


@pytest.mark.parametrize("order", [0, 1, 16])
def test_monomial_products_across_the_truncation_edge(order):
    # c1 h^i * c2 h^j with i + j = order survives; i + j = order + 1 is cut
    rng = random.Random(300 + order)
    for total in (order, order + 1):
        for i in range(max(0, total - order), min(total, order) + 1):
            ra = [{}] * (order + 1)
            rb = [{}] * (order + 1)
            for row, k in ((ra, i), (rb, total - i)):
                row[k] = rad({rng.choice(RADICANDS): Fraction(rng.choice((-7, -2, 1, 3)),
                                                              rng.randint(1, 12))})
            got = series(ra, order) * series(rb, order)
            assert_canonical(got)
            assert coeff_terms(got) == ref_mul(ra, rb)
            assert got.is_zero() == (total > order)


def test_series_unit_products():
    rng = random.Random(5)
    a = series(rand_coeffs(rng, 8, 1.0), 8)
    one = HSeries.one(8)
    for unit, want in ((one, a), (-one, -a), (1, a), (-1, -a)):
        assert a * unit == want and unit * a == want
    assert (a * -one).coeffs == [-c for c in a.coeffs]
    assert a * Fraction(-2, 3) == a.scale(Fraction(-2, 3))
    assert (a * -one + a).is_zero()


def test_series_coefficient_reads():
    s = HSeries.constant(sqrt_fraction(2), 3) + HSeries.h_power(2, 3, Fraction(1, 3))
    assert s.coeff(0) == sqrt_fraction(2) and s.coeff(1).is_zero()
    assert s.coeff(2) == RadicalSum({1: Fraction(1, 3)})
    assert not s.is_constant() and s.truncate(1).is_constant()
    assert HSeries.zero(3).is_constant()
    with pytest.raises(ValueError):
        s.coeff(4)
    with pytest.raises(AttributeError):
        s.coeffs = []


def test_series_ring_laws_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    order = 4
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
    coeff = st.dictionaries(st.sampled_from(RADICANDS), fractions, max_size=2).map(RadicalSum)
    series = st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HSeries(cs, order))
    unit_head = st.tuples(st.sampled_from(RADICANDS),
                          fractions.filter(bool)).map(lambda rq: RadicalSum({rq[0]: rq[1]}))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(series, series, series, unit_head)
    def laws(a, b, c, head):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        u = a + HSeries.constant(head - a.at_h0(), order)
        assert u * u.invert_unit() == HSeries.one(order)

    laws()


def test_half_int():
    j = HalfInt.parse("3/2")
    assert j.twice == 3
    assert j.as_fraction() == Fraction(3, 2)
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


def test_half_int_hash_matches_fraction():
    for t in range(-20, 21):
        assert hash(HalfInt(t)) == hash(Fraction(t, 2))


def test_half_int_agrees_with_fraction_hypothesis():
    # spin_rep's lru_cache and the spin-pair dicts of reps key on HalfInts
    # next to ints and Fractions, so == and hash must be those of Fraction
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    halves = st.integers(-40, 40)
    others = st.one_of(st.integers(-20, 20),
                       st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4)))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(halves, halves, others)
    def agree(s, t, q):
        a, b = HalfInt(s), HalfInt(t)
        fa, fb = Fraction(s, 2), Fraction(t, 2)
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (-a).as_fraction() == -fa
        assert (a * t).as_fraction() == fa * t == (t * a).as_fraction()
        assert (a < b) == (fa < fb) and (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb) and (a >= b) == (fa >= fb)
        assert (a == b) == (fa == fb) and hash(a) == hash(fa)
        assert (a == q) == (fa == q) and (a != q) == (fa != q)
        if a == q:
            assert hash(a) == hash(q) and len({a, q}) == 1
        if q.denominator in (1, 2):
            c = HalfInt.of(q)
            assert c == q and hash(c) == hash(q) and (a < c) == (fa < q)
            assert (a + q).as_fraction() == fa + q

    agree()


def test_half_int_ranges():
    assert [str(m) for m in weights(HalfInt(3))] == ["-3/2", "-1/2", "1/2", "3/2"]
    assert [m.twice for m in half_range(0, 2)] == [0, 2, 4]
    assert [s.twice for s in spins_up_to(Fraction(3, 2))] == [0, 1, 2, 3]
