"""Acceptance suite: one test per top-level deliverable, in a fixed order.

Every comparison is exact; there are no tolerances anywhere.  Expected
values come from independent constructions (matrix exponentials, classical
coupling data, hand-entered low-spin forms), never from the code under test.
"""

from fractions import Fraction
from math import factorial
import random

from uhsl2.scalar import (HSeries, RadicalSum, HalfInt, half_range, weights,
                          spins_up_to, sqrt_ratio)
from uhsl2.su2data import verify_racah_identity
from uhsl2.weyl import (WeylElement, OscElement, classical_symplecton,
                        h_symplecton, to_oscillator, exp_m_sigma)
from uhsl2.reps import (Matrix, anti_transpose, cg_matrix, cocycle_check,
                        coupled_basis_suite, ohn_suite, qybe_check,
                        r_triangularity_check, twist_matrix_formula,
                        twist_matrix_oracle, twisted_hopf_suite)
from uhsl2.symplecton import (generating_function_check, h_symplecton_forms_check,
                              hypergeometric_form, product_law_suite,
                              symmetry_check, tensor_operator_check,
                              decompose_twisted)
from uhsl2.slh2 import (GROUP_GENS, covariance_check, dfunction,
                        dfunction_coalgebra_check, dfunction_routes_agree,
                        group_algebra, rtt_check, slh2_hopf_suite)

ORDER = 6
HALF = HalfInt(1)


def test_01_twist_closed_form_matches_oracle():
    spins = spins_up_to(HalfInt(5))
    for j1 in spins:
        for j2 in spins:
            assert twist_matrix_formula(j1, j2, ORDER) \
                == twist_matrix_oracle(j1, j2, ORDER), \
                f"twist closed form differs from the oracle at ({j1},{j2})"


def test_02_twist_inverse_by_weight_reversal():
    spins = spins_up_to(HalfInt(5))
    for j1 in spins:
        for j2 in spins:
            f = twist_matrix_oracle(j1, j2, ORDER)
            assert f * anti_transpose(f) == Matrix.identity(f.nrows, ORDER), \
                f"weight-reversal inverse symmetry fails at ({j1},{j2})"


def test_03_twisted_hopf_structure():
    for triple in ((HALF, HALF, HALF), (HalfInt(2), HALF, HALF)):
        for name, ok in twisted_hopf_suite(*triple, ORDER).items():
            assert ok, f"{name} fails on spins {triple}"
        assert cocycle_check(*triple, ORDER), f"cocycle fails on spins {triple}"


def test_04_twisted_coupled_bases():
    for j1, j2 in ((HALF, HALF), (HalfInt(2), HALF), (HalfInt(2), HalfInt(2))):
        for name, ok in coupled_basis_suite(j1, j2, ORDER).items():
            assert ok, f"{name} fails on the ({j1},{j2}) coupled basis"


def test_05_recoupling_with_racah_coefficients():
    spins = spins_up_to(HalfInt(3))
    total = 0
    for a in spins:
        for b in spins:
            for c in spins:
                for e in spins:
                    ok, ncases = verify_racah_identity(a, b, c, e)
                    assert ok, f"recoupling fails at ({a},{b},{c},{e})"
                    total += ncases
    assert total > 0, "no admissible recoupling cases were exercised"


def test_06_hyperbolic_presentation():
    for j in spins_up_to(HalfInt(4)):
        for name, ok in ohn_suite(j, ORDER).items():
            assert ok, f"{name} fails in the spin-{j} representation"


def test_07_classical_family_closed_forms():
    for j in spins_up_to(HalfInt(6)):
        for m in weights(j):
            assert classical_symplecton(j, m, 0, "A") \
                == classical_symplecton(j, m, 0, "B"), \
                f"the two summation forms differ at ({j},{m})"
    assert symmetry_check(HalfInt(6)), "weight reflection symmetry fails"
    for j in spins_up_to(HalfInt(4)):
        for m in weights(j):
            if m > 0:
                continue
            assert hypergeometric_form(j, m, 0) == classical_symplecton(j, m, 0), \
                f"hypergeometric form differs at ({j},{m})"
    # explicit anchors
    assert classical_symplecton(HALF, HALF, 0) == WeylElement.monomial(1, 0, 0)
    assert classical_symplecton(HALF, -HALF, 0) == WeylElement.monomial(0, 1, 0)
    assert classical_symplecton(1, 1, 0) == WeylElement.monomial(2, 0, 0)
    p10 = WeylElement({(1, 1): HSeries.constant(sqrt_ratio(2), 0),
                       (0, 0): HSeries.constant(sqrt_ratio(1, 2), 0)}, 0)
    assert classical_symplecton(1, 0, 0) == p10


def test_08_deformed_family_construction():
    ok, detail = tensor_operator_check(HalfInt(4), ORDER)
    assert ok, detail
    ok, detail = h_symplecton_forms_check(HalfInt(4), ORDER)
    assert ok, detail


def test_09_explicit_low_spin_examples():
    a = WeylElement.monomial(1, 0, ORDER)
    abar = WeylElement.monomial(0, 1, ORDER)
    h1 = HSeries.h_power(1, ORDER)

    # spin-1/2 pair; the raising member dresses a, never abar, since the
    # family is fixed by its classical top layer
    assert h_symplecton(HALF, -HALF, ORDER) \
        == abar * exp_m_sigma(Fraction(-1, 2), ORDER)
    assert h_symplecton(HALF, HALF, ORDER) \
        == a * exp_m_sigma(Fraction(1, 2), ORDER)
    assert h_symplecton(HALF, HALF, ORDER) \
        != abar * exp_m_sigma(Fraction(1, 2), ORDER)

    # the same pair in deformed letters is the letter pair itself
    big_a = OscElement.monomial(1, 0, ORDER)
    big_ab = OscElement.monomial(0, 1, ORDER)
    osc = to_oscillator(ORDER)
    assert osc(h_symplecton(HALF, -HALF, ORDER)) == big_ab
    assert osc(h_symplecton(HALF, HALF, ORDER)) == big_a

    # spin-1 triple in deformed letters
    assert osc(h_symplecton(1, -1, ORDER)) \
        == big_ab * big_ab + (big_ab * big_a).scale(h1)
    mid = (big_ab * big_a + big_a * big_ab - (big_a * big_a).scale(h1)) \
        .scale(sqrt_ratio(1, 2))
    assert osc(h_symplecton(1, 0, ORDER)) == mid
    assert osc(h_symplecton(1, 1, ORDER)) == big_a * big_a

    # the dressed pair closes on the deformed oscillator relation,
    # computed entirely in undeformed letters
    ah = a * exp_m_sigma(Fraction(1, 2), ORDER)
    abh = abar * exp_m_sigma(Fraction(-1, 2), ORDER)
    assert abh * ah - ah * abh == WeylElement.one(ORDER) - (ah * ah).scale(h1)

    # that relation is covariant under the matrix action, in the abstract
    # mixed algebra with no truncation shortcuts
    for name, (ok, detail) in covariance_check(ORDER).items():
        assert ok, f"covariance of the {name} relation fails: {detail}"

    # the twist exponential in deformed letters is a polynomial
    assert osc(exp_m_sigma(1, ORDER)) + (big_a * big_a).scale(h1) \
        == OscElement.one(ORDER)


def test_10_product_expansion_structure():
    # every triangle-admissible spin triple obeys the law, with the ratio
    # N(j, j', k) = sqrt((2j)! (2j')! / (2k)!) between the expansion and the
    # classical coupling convention
    for lim, order, ntriples in ((HalfInt(3), ORDER, 23), (HalfInt(5), 8, 80)):
        checks, table = product_law_suite(lim, order)
        for name, (ok, detail) in checks.items():
            assert ok, f"{name} at max spin {lim}: {detail}"
        spins = spins_up_to(lim)
        triples = [(j, jp_, k) for j in spins for jp_ in spins
                   for k in half_range(HalfInt(abs(j.twice - jp_.twice)), j + jp_)]
        assert len(triples) == ntriples and set(table) == set(triples)
        for j, jp_, k in triples:
            n = sqrt_ratio(factorial(j.twice) * factorial(jp_.twice),
                           factorial(k.twice))
            assert table[(j, jp_, k)] == (True, f"ratio = {n}"), \
                f"triple ({j},{jp_},{k}): {table[(j, jp_, k)]}"
    one = RadicalSum({1: Fraction(1)})
    assert table[(HALF, HALF, HalfInt(0))] == (True, f"ratio = {one}")
    assert table[(HALF, HALF, HalfInt(2))] == (True, f"ratio = {sqrt_ratio(1, 2)}")


def test_11_generating_functions():
    ok, detail = generating_function_check(HalfInt(4), 0)
    assert ok, f"classical expansion: {detail}"
    ok, detail = generating_function_check(HalfInt(3), ORDER)
    assert ok, f"deformed expansion: {detail}"


def test_12_function_algebra_hopf_and_exchange():
    for name, (ok, detail) in slh2_hopf_suite(ORDER).items():
        assert ok, f"{name}: {detail}"
    for name, (ok, detail) in rtt_check(ORDER).items():
        assert ok, f"{name}: {detail}"


def test_13_representation_matrix_elements():
    pres = group_algebra(ORDER, True)
    d = dfunction(HALF, ORDER)
    assert d[(HALF, HALF)] == pres.gen("x")
    assert d[(-HALF, HALF)] == pres.gen("v")
    assert d[(HALF, -HALF)] == pres.gen("u")
    assert d[(-HALF, -HALF)] == pres.gen("y")

    x, y, v, u = (pres.gen(g) for g in GROUP_GENS)
    h1 = HSeries.h_power(1, ORDER)
    rt2 = HSeries.constant(sqrt_ratio(2), ORDER)
    two = HSeries.constant(Fraction(2), ORDER)
    expected = {
        (1, 1): x * x + (x * v).scale(h1),
        (1, 0): (u * x + (u * v).scale(h1)).scale(rt2),
        (1, -1): u * u + (u * (x + y + v.scale(h1))).scale(h1),
        (0, 1): (x * v).scale(rt2),
        (0, 0): pres.one() + (u * v).scale(two),
        (0, -1): (u * y + (u * v).scale(h1)).scale(rt2),
        (-1, 1): v * v,
        (-1, 0): (y * v).scale(rt2),
        (-1, -1): y * y + (y * v).scale(h1),
    }
    d = dfunction(HalfInt(2), ORDER)
    for (n, m), want in expected.items():
        got = d[(HalfInt(2 * n), HalfInt(2 * m))]
        assert got == want, f"spin-1 matrix element ({n},{m}) is {got}, not {want}"

    for j in (HALF, HalfInt(2), HalfInt(3)):
        assert dfunction_routes_agree(j, ORDER), \
            f"plane and oscillator routes disagree at spin {j}"
    for j in (HALF, HalfInt(2)):
        ok, detail = dfunction_coalgebra_check(j, ORDER)
        assert ok, f"coalgebra property fails at spin {j}: {detail}"


def test_14_property_suites():
    spins = spins_up_to(HalfInt(6))
    for j1 in spins:
        for j2 in spins:
            mat = cg_matrix(j1, j2, 0)
            assert mat.transpose() * mat == Matrix.identity(mat.nrows, 0), \
                f"coupling matrix not orthogonal at ({j1},{j2})"

    assert qybe_check(HALF, HALF, HALF, ORDER), "Yang-Baxter fails at spin 1/2"
    assert r_triangularity_check(HALF, HALF, ORDER), "triangularity fails"

    rng = random.Random(20240820)
    labels = [(j, m) for j in spins_up_to(HalfInt(4)) for m in weights(j)]
    for trial in range(3):
        coeffs = {}
        target = WeylElement.zero(ORDER)
        for j, m in labels:
            c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            if c == 0:
                continue
            coeffs[(j, m)] = c
            target = target + h_symplecton(j, m, ORDER).scale(c)
        got = {k: v for k, v in decompose_twisted(target, h_symplecton).items()
               if not v.is_zero()}
        want = {k: HSeries.constant(v, ORDER) for k, v in coeffs.items()}
        assert got == want, f"decomposition round trip failed on trial {trial}"
