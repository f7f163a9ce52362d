"""Weyl algebra, deformed oscillator, conversions, spin basis."""

import random
from fractions import Fraction

import pytest

from uhsl2.scalar import AlgebraMap, HalfInt, HSeries, RadicalSum, sqrt_ratio, weights
from uhsl2.su2data import fact
from uhsl2.reps import adjoint
from uhsl2.symplecton import decompose_twisted, tensor_operator_check
from uhsl2.weyl import (OscElement, WeylElement, WeylLetters, classical_symplecton,
                        exp_m_sigma, exp_m_sigma_osc, h_symplecton, ladder_coeff,
                        symplecton_pivot, to_oscillator)

H = 4


def sigma_weyl(order):
    """The nilpotent-free twist exponent s = -log(1 + h a^2) as a series."""
    terms = {}
    for k in range(1, order + 1):
        sign = Fraction(-1, k) if k % 2 else Fraction(1, k)
        terms[(2 * k, 0)] = HSeries.h_power(k, order, sign)
    return WeylElement(terms, order)


def from_oscillator(order):
    """The map rewriting an oscillator element back in the plain Weyl generators."""
    half = Fraction(1, 2)
    return AlgebraMap({0: WeylElement.monomial(1, 0, order) * exp_m_sigma(half, order),
                       1: WeylElement.monomial(0, 1, order) * exp_m_sigma(-half, order)})


def test_weyl_relation():
    a, ab = WeylElement.monomial(1, 0, H), WeylElement.monomial(0, 1, H)
    assert ab * a == a * ab + 1
    assert (ab * ab) * (a * a) == (a ** 2) * (ab ** 2) + (a * ab).scale(4) + 2


def test_weyl_associativity_random():
    rng = random.Random(9)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            terms[key] = HSeries.h_power(rng.randint(0, 2), H, Fraction(rng.randint(-3, 3)))
        return WeylElement(terms, H)

    for _ in range(40):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_osc_relation():
    A, Ab = OscElement.monomial(1, 0, H), OscElement.monomial(0, 1, H)
    h = HSeries.h_power(1, H)
    assert Ab * A - A * Ab == OscElement.one(H) - (A * A).scale(h)
    # [Abar, A^p] = p A^(p-1) (1 - h A^2)
    for p in range(1, 5):
        lhs = Ab * A ** p - A ** p * Ab
        rhs = (A ** (p - 1) - (A ** (p + 1)).scale(h)).scale(p)
        assert lhs == rhs


def test_osc_associativity_random():
    rng = random.Random(10)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            terms[key] = HSeries.h_power(rng.randint(0, 1), H, Fraction(rng.randint(-3, 3)))
        return OscElement(terms, H)

    for _ in range(40):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_exp_m_sigma_weyl():
    h = HSeries.h_power(1, H)
    assert exp_m_sigma(-1, H) == WeylElement.one(H) + WeylElement.monomial(2, 0, H).scale(h)
    geo = WeylElement.zero(H)
    for k in range(H + 1):
        geo = geo + WeylElement.monomial(2 * k, 0, H).scale(HSeries.h_power(k, H, Fraction(-1) ** k))
    assert exp_m_sigma(1, H) == geo
    # group law exp(m s) exp(m' s) = exp((m+m') s)
    for m in (Fraction(1, 2), 1, Fraction(-3, 2)):
        for mp in (Fraction(1, 2), -1):
            assert exp_m_sigma(m, H) * exp_m_sigma(mp, H) == exp_m_sigma(m + mp, H)


def test_exp_m_sigma_matches_exponential_series():
    for m in (1, Fraction(-1, 2), Fraction(3, 2)):
        s = sigma_weyl(H).scale(HSeries.constant(m, H))
        total = WeylElement.one(H)
        term = WeylElement.one(H)
        for k in range(1, H + 1):
            term = term * s.scale(HSeries.constant(Fraction(1, k), H))
            total = total + term
        assert total == exp_m_sigma(m, H), f"exp series mismatch at m={m}"


def test_exp_m_sigma_osc():
    h = HSeries.h_power(1, H)
    A = OscElement.monomial(1, 0, H)
    assert exp_m_sigma_osc(1, H) == OscElement.one(H) - (A * A).scale(h)
    for m in (Fraction(1, 2), 1, 2, Fraction(-1, 2)):
        for mp in (1, Fraction(-1, 2)):
            assert exp_m_sigma_osc(m, H) * exp_m_sigma_osc(mp, H) == exp_m_sigma_osc(m + mp, H)


def test_osc_twist_conjugation():
    # exp(m s) Abar exp(-m s) = Abar + 2 h m A
    A, Ab = OscElement.monomial(1, 0, H), OscElement.monomial(0, 1, H)
    for m in (Fraction(1, 2), 1, Fraction(-3, 2)):
        lhs = exp_m_sigma_osc(m, H) * Ab * exp_m_sigma_osc(-m, H)
        rhs = Ab + A.scale(HSeries.h_power(1, H, 2 * m))
        assert lhs == rhs, f"twist conjugation fails at m={m}"


def test_conversion_images_of_generators():
    a, ab = WeylElement.monomial(1, 0, H), WeylElement.monomial(0, 1, H)
    A, Ab = OscElement.monomial(1, 0, H), OscElement.monomial(0, 1, H)
    assert to_oscillator(H)(a) == A * exp_m_sigma_osc(Fraction(-1, 2), H)
    assert to_oscillator(H)(ab) == Ab * exp_m_sigma_osc(Fraction(1, 2), H)
    assert from_oscillator(H)(A) == a * exp_m_sigma(Fraction(1, 2), H)
    # the canonical commutator maps to 1; the deformed one maps to exp(s)
    assert to_oscillator(H)(ab * a - a * ab) == OscElement.one(H)
    assert from_oscillator(H)(Ab * A - A * Ab) == exp_m_sigma(1, H)


def test_conversion_roundtrip_random():
    rng = random.Random(21)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 2), rng.randint(0, 2))
            terms[key] = HSeries.h_power(rng.randint(0, 1), H, Fraction(rng.randint(-2, 2)))
        w = WeylElement(terms, H)
        assert from_oscillator(H)(to_oscillator(H)(w)) == w
        o = OscElement(terms, H)
        assert to_oscillator(H)(from_oscillator(H)(o)) == o


def test_conversion_is_multiplicative():
    rng = random.Random(22)
    osc = to_oscillator(H)
    for _ in range(10):
        x = WeylElement.monomial(rng.randint(0, 2), rng.randint(0, 2), H)
        y = WeylElement.monomial(rng.randint(0, 2), rng.randint(0, 2), H)
        assert osc(x * y) == osc(x) * osc(y)


def test_classical_symplecton_small():
    half = HalfInt(1)
    assert classical_symplecton(half, half, H) == WeylElement.monomial(1, 0, H)
    assert classical_symplecton(half, -half, H) == WeylElement.monomial(0, 1, H)
    assert classical_symplecton(1, 1, H) == WeylElement.monomial(2, 0, H)
    r2inv = sqrt_ratio(1, 2)
    p10 = WeylElement({(1, 1): HSeries.constant(sqrt_ratio(2), H),
                       (0, 0): HSeries.constant(r2inv, H)}, H)
    assert classical_symplecton(1, 0, H) == p10
    r6 = sqrt_ratio(6)
    p20 = WeylElement({(2, 2): HSeries.constant(r6, H),
                       (1, 1): HSeries.constant(r6 * 2, H),
                       (0, 0): HSeries.constant(r6 * Fraction(1, 2), H)}, H)
    assert classical_symplecton(2, 0, H) == p20


def test_classical_symplecton_two_forms_agree():
    for jt in range(1, 7):
        j = HalfInt(jt)
        for m in weights(j):
            assert classical_symplecton(j, m, 0, form="A") == classical_symplecton(j, m, 0, form="B"), \
                f"summation forms disagree at j={j}, m={m}"


def test_classical_ladder_action():
    # plain sl(2) ladder on the classical basis: [J+-, P_j^m] ~ P_j^(m+-1)
    letters = WeylLetters(0)
    jp, jm, j0 = letters.jp, letters.jm, letters.j0
    for jt in range(1, 5):
        j = HalfInt(jt)
        for m in weights(j):
            p = classical_symplecton(j, m, 0)
            assert j0.commutator(p) == p.scale(HSeries.constant((2 * m).as_int(), 0))
            up = jp.commutator(p)
            expect = (classical_symplecton(j, m + 1, 0).scale(HSeries.constant(ladder_coeff(j, m, +1), 0))
                      if m < j else WeylElement.zero(0))
            assert up == expect
            down = jm.commutator(p)
            expect = (classical_symplecton(j, m - 1, 0).scale(HSeries.constant(ladder_coeff(j, m, -1), 0))
                      if m > -j else WeylElement.zero(0))
            assert down == expect


def test_symplecton_pivot():
    assert symplecton_pivot(1, 0) == sqrt_ratio(2)
    assert symplecton_pivot(2, 2) == RadicalSum.one()
    half = HalfInt(1)
    assert symplecton_pivot(half, half) == RadicalSum.one()


def test_decompose_symplecton_basis():
    rng = random.Random(33)
    for _ in range(10):
        combo = WeylElement.zero(H)
        picks = {}
        for _ in range(rng.randint(1, 4)):
            jt = rng.randint(0, 4)
            j = HalfInt(jt)
            m = rng.choice(weights(j))
            c = HSeries.h_power(rng.randint(0, 1), H, Fraction(rng.randint(-3, 3)))
            if c.is_zero():
                continue
            picks[(j, m)] = picks.get((j, m), HSeries.zero(H)) + c
            combo = combo + classical_symplecton(j, m, H).scale(c)
        got = decompose_twisted(combo, classical_symplecton)
        picks = {k: v for k, v in picks.items() if not v.is_zero()}
        assert got == picks
    # and the reconstruction of an arbitrary element is exact
    w = WeylElement({(2, 1): HSeries.h_power(1, H), (0, 1): HSeries.one(H)}, H)
    parts = decompose_twisted(w, classical_symplecton)
    back = WeylElement.zero(H)
    for (j, m), c in parts.items():
        back = back + classical_symplecton(j, m, H).scale(c)
    assert back == w


def test_h_symplecton_oscillator_images():
    h = HSeries.h_power(1, H)
    A, Ab = OscElement.monomial(1, 0, H), OscElement.monomial(0, 1, H)
    assert to_oscillator(H)(h_symplecton(1, 1, H)) == A * A
    assert to_oscillator(H)(h_symplecton(1, -1, H)) == Ab * Ab + (Ab * A).scale(h)
    r2 = sqrt_ratio(2)
    expect = OscElement({(1, 1): HSeries.constant(r2, H),
                         (0, 0): HSeries.constant(sqrt_ratio(1, 2), H),
                         (2, 0): HSeries.constant(-r2, H) * h}, H)
    assert to_oscillator(H)(h_symplecton(1, 0, H)) == expect


def _generators(order):
    """J0 = a abar + 1/2, J+ = -a^2/2, J- = abar^2/2, written out as monomials."""
    j0 = WeylElement.monomial(1, 1, order) + WeylElement.monomial(0, 0, order, Fraction(1, 2))
    return (j0, WeylElement.monomial(2, 0, order, Fraction(-1, 2)),
            WeylElement.monomial(0, 2, order, Fraction(1, 2)))


def ref_ad_j0(t):
    """Deformed adjoint action of the weight generator: [J0, t] exp(-s)."""
    j0, _, _ = _generators(t.order)
    return j0.commutator(t) * exp_m_sigma(-1, t.order)


def ref_ad_jplus(t):
    """Deformed adjoint action of the raising generator: exp(-s) [J+ exp(s), t]."""
    order = t.order
    _, jp, _ = _generators(order)
    return exp_m_sigma(-1, order) * (jp * exp_m_sigma(1, order)).commutator(t)


def ref_ad_jminus(t):
    """Deformed adjoint action of the lowering generator, expanded by hand:
    [J- + h J0 + h J0^2/2, t] exp(-s) - h [J0, t] exp(-2s)
    - (h/2) [J0, [J0, t]] exp(-2s)."""
    order = t.order
    j0, _, jm = _generators(order)
    h1 = HSeries.h_power(1, order)
    half_h = HSeries.h_power(1, order, Fraction(1, 2))
    head = jm + j0.scale(h1) + (j0 * j0).scale(half_h)
    em1, em2 = exp_m_sigma(-1, order), exp_m_sigma(-2, order)
    out = head.commutator(t) * em1
    out = out - j0.commutator(t) * em2.scale(h1)
    return out - j0.commutator(j0.commutator(t)) * em2.scale(half_h)


def test_table_adjoint_matches_hand_written_formulas():
    letters = WeylLetters(H)
    assert (letters.j0, letters.jp, letters.jm) == _generators(H)
    for gen, ref in (("J0", ref_ad_j0), ("Jp", ref_ad_jplus), ("Jm", ref_ad_jminus)):
        ad = adjoint(letters, gen)
        for jt in (1, 2, 3):
            j = HalfInt(jt)
            for m in weights(j):
                p = h_symplecton(j, m, H)
                assert ad(p) == ref(p), f"ad_{gen} differs at j={j}, m={m}"


def test_adjoint_action_is_deformed_ladder():
    ok, detail = tensor_operator_check(HalfInt(3), 8)
    assert ok, detail


def test_str_rendering():
    assert str(classical_symplecton(1, 0, 2)) == "sqrt(2)*a*abar + 1/2*sqrt(2)"
    assert str(exp_m_sigma(-1, 2)) == "h*a^2 + 1"


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        WeylElement.monomial(1, 0, 2) * WeylElement.monomial(1, 0, 3)
    with pytest.raises(ValueError):
        WeylElement.monomial(1, 0, 2, HSeries.one(3))
