"""Clebsch-Gordan, Racah and triangle coefficients."""

import itertools
import random
from fractions import Fraction

import pytest

from uhsl2.scalar import HalfInt, RadicalSum, half_range, spins_up_to, sqrt_ratio, weights
from uhsl2.su2data import (bracket_coeff, cgc, fact, nabla, racah_w, sixj,
                           triangle_ok, verify_racah_identity)

H12 = HalfInt(1)  # spin 1/2


def spins_from_zero(max_j):
    """Spins 0, 1/2, ..., max_j: the trivial spin is a case of every coefficient."""
    return [HalfInt(0), *spins_up_to(max_j)]


def test_cgc_known_values():
    assert cgc(H12, H12, 1, H12, -H12) == sqrt_ratio(1, 2)
    assert cgc(H12, H12, 0, -H12, H12) == -sqrt_ratio(1, 2)
    assert cgc(H12, H12, 1, H12, H12) == RadicalSum.one()
    assert cgc(1, 1, 0, 1, -1) == sqrt_ratio(1, 3)
    assert cgc(1, 1, 2, 0, 0) == sqrt_ratio(2, 3)
    # a broken triangle vanishes
    assert cgc(H12, H12, HalfInt(5), H12, H12).is_zero()


def test_cgc_stretched_and_sign_convention():
    # <j j, j' (j''-j) | j'' j''> is positive in the Condon-Shortley convention
    for j1 in spins_up_to(Fraction(3, 2)):
        for j2 in spins_up_to(Fraction(3, 2)):
            for j in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2):
                c = cgc(j1, j2, j, j1, j - j1)
                assert len(c.terms) == 1
                [(_, q)] = c.terms.items()
                assert q > 0, f"CS sign broken at {j1},{j2},{j}"


def test_cgc_pairing_with_spin_zero():
    # <j m; j -m | 0 0> = (-1)^(j-m) / sqrt(2j+1)
    for j in spins_up_to(2):
        for m in weights(j):
            sign = -1 if (j - m).as_int() % 2 else 1
            expect = sqrt_ratio(1, j.twice + 1) * sign
            assert cgc(j, j, 0, m, -m) == expect


def test_cgc_orthogonality():
    for j1 in spins_from_zero(2):
        for j2 in spins_from_zero(2):
            for j in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2):
                for jp in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2):
                    for m in weights(j):
                        if abs(m.twice) > jp.twice:
                            continue
                        total = RadicalSum.zero()
                        for m1 in weights(j1):
                            m2 = m - m1
                            if abs(m2.twice) > j2.twice:
                                continue
                            total = total + cgc(j1, j2, j, m1, m2) * cgc(j1, j2, jp, m1, m2)
                        expect = RadicalSum.one() if j == jp else RadicalSum.zero()
                        assert total == expect, f"orthogonality fails at {j1},{j2},{j},{jp},{m}"


def test_cgc_completeness():
    rng = random.Random(11)
    for _ in range(40):
        j1 = rng.choice(spins_from_zero(Fraction(3, 2)))
        j2 = rng.choice(spins_from_zero(Fraction(3, 2)))
        m1, m1p = rng.choice(weights(j1)), rng.choice(weights(j1))
        m2 = rng.choice(weights(j2))
        m2p = m1 + m2 - m1p
        if abs(m2p.twice) > j2.twice:
            continue
        total = RadicalSum.zero()
        for j in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2):
            total = total + cgc(j1, j2, j, m1, m2) * cgc(j1, j2, j, m1p, m2p)
        expect = RadicalSum.one() if (m1 == m1p and m2 == m2p) else RadicalSum.zero()
        assert total == expect


def test_cgc_against_sympy():
    # every label tuple with spins up to 2 and weights one step past the
    # range; sympy is an independent oracle, compared by square and sign
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import clebsch_gordan
    half = lambda t: sympy.Rational(t, 2)
    nonzero = 0
    for j1t, j2t, jt in itertools.product(range(5), repeat=3):
        for m1t in range(-j1t - 2, j1t + 3, 2):
            for m2t in range(-j2t - 2, j2t + 3, 2):
                want = clebsch_gordan(half(j1t), half(j2t), half(jt),
                                      half(m1t), half(m2t), half(m1t + m2t))
                got = cgc(HalfInt(j1t), HalfInt(j2t), HalfInt(jt), HalfInt(m1t), HalfInt(m2t))
                square = sympy.Rational(want ** 2)
                labels = (j1t, j2t, jt, m1t, m2t)
                if square == 0:
                    assert got.is_zero(), labels
                    continue
                nonzero += 1
                assert len(got.terms) == 1, labels
                [(r, q)] = got.terms.items()
                assert q * q * r == Fraction(int(square.p), int(square.q)), labels
                assert (q > 0) == bool(want > 0), labels
    assert nonzero == 293


def test_sixj_values():
    assert sixj(H12, H12, 0, H12, H12, 0) == RadicalSum({1: Fraction(-1, 2)})
    assert sixj(1, 1, 0, 1, 1, 0) == RadicalSum({1: Fraction(1, 3)})
    assert sixj(H12, H12, 1, H12, H12, 1) == RadicalSum({1: Fraction(1, 6)})
    assert sixj(2, 1, 1, 0, 1, 1).is_zero() is False
    assert sixj(1, 1, 1, 1, 1, 3).is_zero()  # broken triangle


def test_sixj_against_sympy():
    # every label set with spins up to 2 whose four triads couple; sympy is
    # an independent oracle, compared by square and sign
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_6j
    admissible = nonzero = 0
    for labels in itertools.product(range(5), repeat=6):
        a, b, c, d, e, f = (HalfInt(t) for t in labels)
        if not all(triangle_ok(*t) for t in ((a, b, c), (a, e, f), (d, b, f), (d, e, c))):
            continue
        admissible += 1
        want = wigner_6j(*(sympy.Rational(t, 2) for t in labels))
        got = sixj(a, b, c, d, e, f)
        square = sympy.Rational(want ** 2)
        if square == 0:
            assert got.is_zero(), labels
            continue
        nonzero += 1
        assert len(got.terms) == 1, labels
        [(r, q)] = got.terms.items()
        assert q * q * r == Fraction(int(square.p), int(square.q)), labels
        assert (q > 0) == bool(want > 0), labels
    assert (admissible, nonzero) == (570, 566)


def test_racah_w_is_zero_off_the_admissible_labels():
    # a + b + c + d need not be an integer when a triangle is broken
    assert racah_w(H12, H12, H12, 1, 1, 1).is_zero()
    spins = spins_from_zero(1)
    for labels in itertools.product(spins, repeat=6):
        a, b, c, d, e, f = labels
        w, v = racah_w(*labels), sixj(a, b, e, d, c, f)
        assert w == v or w == -v, f"racah_w{labels} is not +-6j"


def test_sixj_column_symmetry():
    rng = random.Random(3)
    spins = spins_from_zero(Fraction(3, 2))
    for _ in range(60):
        a, b, c, d, e, f = (rng.choice(spins) for _ in range(6))
        v = sixj(a, b, c, d, e, f)
        assert v == sixj(b, a, c, e, d, f)
        assert v == sixj(a, c, b, d, f, e)
        assert v == sixj(d, e, c, a, b, f)


def test_racah_recoupling_identity():
    spins = spins_from_zero(Fraction(3, 2))
    for a in spins:
        for b in spins:
            for c in spins:
                for e in spins:
                    ok, n = verify_racah_identity(a, b, c, e)
                    assert ok, f"recoupling identity fails at {a},{b},{c},{e}"


def test_nabla_values():
    assert nabla(1, H12, H12) == sqrt_ratio(6)
    for j in spins_from_zero(Fraction(5, 2)):
        assert nabla(0, j, j) == sqrt_ratio(j.twice + 1)
    assert nabla(1, H12, HalfInt(5)).is_zero()


def test_nabla_contraction_with_racah():
    # nabla(a c f) nabla(b d f) = (2f+1) sum_e W(abcd; ef) nabla(a b e) nabla(c d e)
    spins = spins_up_to(Fraction(3, 2))
    rng = random.Random(5)
    tried = 0
    for _ in range(200):
        a, b, c, d = (rng.choice(spins) for _ in range(4))
        for f in half_range(HalfInt(abs(a.twice - c.twice)), a + c):
            if not triangle_ok(b, d, f):
                continue
            lhs = nabla(a, c, f) * nabla(b, d, f)
            rhs = RadicalSum.zero()
            for e in half_range(HalfInt(abs(a.twice - b.twice)), a + b):
                if not triangle_ok(c, d, e):
                    continue
                rhs = rhs + racah_w(a, b, c, d, e, f) * nabla(a, b, e) * nabla(c, d, e)
            assert lhs == rhs * (f.twice + 1), f"contraction fails at {a},{b},{c},{d};{f}"
            tried += 1
    assert tried > 50


def test_bracket_coeff_values():
    assert bracket_coeff(0, H12, H12) == sqrt_ratio(1, 2)
    assert bracket_coeff(1, H12, H12) == sqrt_ratio(2)
    for j in spins_up_to(2):
        expect = sqrt_ratio(j.twice + 1, 4 ** j.twice)
        assert bracket_coeff(0, j, j) == expect
    assert bracket_coeff(H12, H12, H12).is_zero()


def test_fact_and_triangle():
    assert fact(HalfInt(6)) == 6
    assert fact(0) == 1
    assert fact(5) == 120
    for bad in (-1, HalfInt(1), HalfInt(-2)):
        with pytest.raises(ValueError):
            fact(bad)
    assert triangle_ok(H12, H12, 1)
    assert not triangle_ok(H12, H12, H12)  # half-integer perimeter
    assert not triangle_ok(0, 1, 2)
