"""Tests for the spin-labelled polynomial families and their product law."""

import random
import re
import sys
from fractions import Fraction
from types import CodeType

import pytest

from uhsl2 import symplecton
from uhsl2.reps import adjoint, exp_sigma_entry
from uhsl2.scalar import (AlgebraMap, HSeries, HalfInt, RadicalSum, half_range,
                          spins_up_to, sqrt_ratio, weights)
from uhsl2.su2data import product_norm
from uhsl2.symplecton import (_twist_conjugation, decompose_twisted, examples_check,
                              generating_function_check, h_symplecton_forms_check,
                              hypergeometric_form, osc_symplecton_poly, product_law_suite,
                              symmetry_check, tensor_operator_check)
from uhsl2.weyl import (OscElement, WeylElement, WeylLetters, _NormalPoly,
                        classical_symplecton, exp_m_sigma, exp_m_sigma_osc, h_symplecton,
                        to_oscillator)


def test_reflection_symmetry():
    assert symmetry_check(HalfInt(4)), "reflection symmetry fails below spin 2"


def test_hypergeometric_form_matches_basis():
    for j in [HalfInt(0), *spins_up_to(HalfInt(4))]:
        for m in weights(j):
            if m > 0:
                continue
            got = hypergeometric_form(j, m, 0)
            want = classical_symplecton(j, m, 0)
            assert got == want, f"hypergeometric form differs at j={j}, m={m}"


def test_hypergeometric_form_rejects_positive_weight():
    with pytest.raises(ValueError):
        hypergeometric_form(HalfInt(2), HalfInt(2), 0)


def test_deformed_closed_forms():
    ok, detail = h_symplecton_forms_check(HalfInt(4), 4)
    assert ok, detail


_FORMS_MUTANTS = {
    # the dressing factor dropped on both sides, so only the forms can fail
    "dressing-dropped": (lambda m, order: WeylElement.one(order),
                         lambda m, order: OscElement.one(order)),
    # the dressing factor's sign flipped on both sides
    "dressing-flipped": (lambda m, order: exp_m_sigma(-m, order),
                         lambda m, order: exp_m_sigma_osc(-m, order)),
    "weyl-exp-is-one": (lambda m, order: WeylElement.one(order), exp_m_sigma_osc),
    "osc-dressing-flipped": (exp_m_sigma, lambda m, order: exp_m_sigma_osc(-m, order)),
}


@pytest.mark.parametrize("mutant", sorted(_FORMS_MUTANTS))
def test_forms_check_mutants_fail(monkeypatch, mutant):
    weyl_exp, osc_exp = _FORMS_MUTANTS[mutant]
    monkeypatch.setattr(symplecton, "exp_m_sigma", weyl_exp)
    monkeypatch.setattr(symplecton, "exp_m_sigma_osc", osc_exp)
    ok, detail = h_symplecton_forms_check(HalfInt(2), 4)
    assert not ok, mutant
    assert "differ" in detail


def test_tensor_operator_suite():
    ok, detail = tensor_operator_check(HalfInt(3), 4)
    assert ok, detail


def test_adjoint_action_never_multiplies_by_the_unit(monkeypatch):
    # Delta(J0) and Delta(J-) have terms with an empty left word; their leg
    # must act on t directly, not as 1 * t.  Products are attributed to the
    # action when they are made from the code of the function adjoint returns.
    action = adjoint(WeylLetters(0), "J0").__code__
    codes = {action, *(c for c in action.co_consts if isinstance(c, CodeType))}
    mul = _NormalPoly.__mul__
    unit_left = []  # one flag per product made by the action

    def counting(self, other):
        if sys._getframe(1).f_code in codes:
            unit_left.append(self == 1)
        return mul(self, other)

    monkeypatch.setattr(_NormalPoly, "__mul__", counting)
    ok, detail = tensor_operator_check(HalfInt(3), 8)
    assert ok, detail
    assert unit_left, "no product was attributed to the adjoint action"
    n = sum(unit_left)
    assert n == 0, f"{n} of {len(unit_left)} products have a unit left factor"


def test_decompose_twisted_roundtrip():
    rng = random.Random(20240817)
    H = 4
    labels = [(j, m) for j in spins_up_to(HalfInt(3)) for m in weights(j)]
    for _ in range(8):
        picks = rng.sample(labels, 3)
        want = {}
        total = WeylElement.zero(H)
        for (j, m) in picks:
            t = rng.randrange(0, 3)
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            if c == 0:
                continue
            coeff = HSeries.h_power(t, H, c)
            want[(j, m)] = want.get((j, m), HSeries.zero(H)) + coeff
            total = total + h_symplecton(j, m, H).scale(coeff)
        want = {k: v for k, v in want.items() if not v.is_zero()}
        got = decompose_twisted(total, h_symplecton)
        assert got == want, f"round trip failed for picks {picks}"


def _tilted(k, mu, order):
    """h_symplecton with an extra a^(k+mu+1) abar^(k-mu-1) when k - mu > 0."""
    p, q = (k + mu).as_int(), (k - mu).as_int()
    out = h_symplecton(k, mu, order)
    return out + WeylElement.monomial(p + 1, q - 1, order) if q else out


def _headless(k, mu, order):
    """h_symplecton without its top monomial a^(k+mu) abar^(k-mu)."""
    top = ((k + mu).as_int(), (k - mu).as_int())
    return WeylElement({key: c for key, c in h_symplecton(k, mu, order).terms.items()
                        if key != top}, order)


@pytest.mark.parametrize("family, message", [(_tilted, "did not lower"),
                                             (_headless, "lacks its top monomial")])
def test_decompose_twisted_rejects_a_malformed_family(family, message):
    # P_2^0 + P_1^1: the first step peels a^2 abar^2 with the member (2, 0)
    w = h_symplecton(2, 0, 3) + h_symplecton(1, 1, 3)
    with pytest.raises(RuntimeError, match=rf"member \(2, 0\) {message}"):
        decompose_twisted(w, family)


def test_oscillator_and_weyl_letters_agree():
    # the product law runs over the oscillator family; at max spin 3/2 its
    # expansions and dressed products are those of the Weyl letters
    H = 4
    osc = to_oscillator(H)
    labels = [(j, m) for j in spins_up_to(HalfInt(3)) for m in weights(j)]
    family = {}

    def member(j, m, order):
        if (j, m) not in family:
            family[(j, m)] = osc_symplecton_poly(j, m, order)
        return family[(j, m)]

    for j, m in labels:
        c_m = _twist_conjugation(m, H)
        for jp_, mp in labels:
            got = decompose_twisted(member(j, m, H) * member(jp_, mp, H), member)
            want = decompose_twisted(h_symplecton(j, m, H) * h_symplecton(jp_, mp, H),
                                     h_symplecton)
            assert got == want, f"expansions differ at ({j},{m};{jp_},{mp})"
            dressed = member(j, m, H) * c_m(member(jp_, mp, H))
            weyl = classical_symplecton(j, m, H) * classical_symplecton(jp_, mp, H) \
                * exp_m_sigma(m + mp, H)
            assert dressed == osc(weyl), f"dressed products differ at ({j},{m};{jp_},{mp})"


@pytest.fixture(scope="module")
def law_to_spin_one():
    """product_law_suite over the spin pairs of 1/2 and 1, at order 4."""
    return product_law_suite(HalfInt(2), 4)


def test_product_intermediate_identity(law_to_spin_one):
    # every (j, m; j', m') with j, j' in {1/2, 1}
    ok, detail = law_to_spin_one[0]["intermediate_identity"]
    assert ok, f"intermediate identity fails at {detail}"


def test_product_support(law_to_spin_one):
    ok, detail = law_to_spin_one[0]["support"]
    assert ok, detail
    # the pair (1/2, 3/2) needs the suite up to spin 3/2
    ok, detail = product_law_suite(HalfInt(3), 4)[0]["support"]
    assert ok, detail


def test_twisted_sum_collapse(law_to_spin_one):
    ok, detail = law_to_spin_one[0]["twisted_sum_collapse"]
    assert ok, detail


def _named_pair(detail):
    """The spin pair (j, j') that a detail names, in (j,m;j',m') or (j,j',k)."""
    label = r"[^,;()]+"
    found = (re.search(rf"\(({label}),{label};({label}),{label}\)", detail)
             or re.search(rf"\(({label}),({label}),{label}\)", detail))
    return found and found.groups()


def test_every_layer_names_its_first_failing_spin_pair(monkeypatch):
    # an h^2 error off the diagonal of every twist entry fails the pairs
    # (1/2, 1/2) and (1, 1) alike; each failing layer names (1/2, 1/2), the
    # first of them, and no row drops out of the report
    def perturbed(j, n, m, mp, order):
        entry = exp_sigma_entry(j, n, m, mp, order)
        return entry if n == mp else entry + HSeries.h_power(2, order)

    monkeypatch.setattr(symplecton, "exp_sigma_entry", perturbed)
    checks, _ = product_law_suite(HalfInt(2), 2)
    assert list(checks) == ["intermediate_identity", "support", "twisted_sum_collapse",
                            "ratio_table", "pairing", "pairing_normalization"]
    failing = {name: detail for name, (ok, detail) in checks.items() if not ok}
    assert set(failing) == {"intermediate_identity", "twisted_sum_collapse", "ratio_table",
                            "pairing"}
    for name, detail in failing.items():
        assert _named_pair(detail) == ("1/2", "1/2"), (name, detail)


def twist_conjugation_check(jp_, order):
    """Conjugating the family by exp(m s) shifts Abar by 2hm A, and that
    substitution re-expands over the family with exp(m s) matrix elements."""
    jp_ = HalfInt.of(jp_)
    A, Ab = OscElement.monomial(1, 0, order), OscElement.monomial(0, 1, order)
    for m in (HalfInt(1), HalfInt(-1), HalfInt(2), HalfInt(-3)):
        shift = HSeries.h_power(1, order, (2 * m).as_fraction())
        shifted = AlgebraMap({0: A, 1: Ab + A.scale(shift)})
        for mp in weights(jp_):
            poly = osc_symplecton_poly(jp_, mp, order)
            lhs = shifted(poly)
            conj = exp_m_sigma_osc(m.as_fraction(), order) * poly \
                * exp_m_sigma_osc(-m.as_fraction(), order)
            if lhs != conj:
                return False, f"substitution differs from conjugation at m={m}, m'={mp}"
            rhs = OscElement.zero(order)
            for np_ in half_range(mp, jp_):
                entry = exp_sigma_entry(jp_, np_, m, mp, order)
                if entry.is_zero():
                    continue
                rhs = rhs + osc_symplecton_poly(jp_, np_, order).scale(entry)
            if lhs != rhs:
                return False, f"re-expansion fails at m={m}, m'={mp}"
    return True, "twist conjugation acts by weight redistribution"


def test_twist_conjugation():
    ok, detail = twist_conjugation_check(HalfInt(2), 5)
    assert ok, detail
    ok, detail = twist_conjugation_check(HalfInt(3), 4)
    assert ok, detail


def test_ratio_table_values(law_to_spin_one):
    table = law_to_spin_one[1]
    half = HalfInt(1)
    one = HalfInt(2)
    assert product_norm(half, half, HalfInt(0)) == RadicalSum.one(), \
        "spin (1/2,1/2)->0 calibration should be 1"
    assert product_norm(half, half, one) == sqrt_ratio(1, 2), \
        "spin (1/2,1/2)->1 calibration should be 1/sqrt(2)"
    for j in (half, one):
        for jp in (half, one):
            lo = HalfInt(abs(j.twice - jp.twice))
            for k in half_range(lo, j + jp):
                assert table.get((j, jp, k)) == (True, f"ratio = {product_norm(j, jp, k)}"), \
                    f"calibration fails for ({j},{jp},{k})"


def test_scalar_pairing(law_to_spin_one):
    checks, _ = law_to_spin_one
    ok, detail = checks["pairing"]
    assert ok, detail
    # pairing_normalization passes exactly when c_j = (2j)!/4^j, which is
    # N(j, j, 0)/4^j: N(1/2,1/2,0) = 1 and N(1,1,0) = 2 give c_1/2 = c_1 = 1/2
    ok, detail = checks["pairing_normalization"]
    assert ok, detail
    assert product_norm(HalfInt(1), HalfInt(1), HalfInt(0)) == RadicalSum.one(), \
        "spin-1/2 pairing constant should be 1/2"
    assert product_norm(HalfInt(2), HalfInt(2), HalfInt(0)) \
        == RadicalSum({1: Fraction(2)}), "spin-1 pairing constant should be 1/2"


def test_weight_one_commutators():
    ok, detail = examples_check(5)["weight_one_commutators"]
    assert ok, detail


def test_generator_reconstruction_variants():
    got = {name: ok for name, (ok, _) in examples_check(6).items()}
    assert got["reconstruction_j0"], "weight generator reconstruction fails"
    assert got["reconstruction_jminus"], "lowering generator reconstruction fails"
    assert got["reconstruction_dressing_is_exp_sigma"], \
        "dressing factor is not the twist exponential"
    assert got["reconstruction_jplus_inverse_dressing"], \
        "raising generator needs the inverse dressing factor"
    # this verdict passes when the uninverted form fails
    assert got["reconstruction_jplus_direct_dressing"], \
        "direct dressing unexpectedly works for the raising generator"


def test_generating_functions():
    ok, detail = generating_function_check(HalfInt(2), 4)
    assert ok, detail


def test_product_law_suite_spin_half():
    out, _ = product_law_suite(HalfInt(1), 4)
    for check, (ok, detail) in sorted(out.items()):
        assert ok, f"{check}: {detail}"


def test_product_oracle_classical_limit():
    # a * abar = P(1,0)/sqrt(2) - 1/2 classically; the twisted correction
    # enters only at order h and the scalar piece stays put.
    half = HalfInt(1)
    decomp = decompose_twisted(h_symplecton(half, half, 3) * h_symplecton(half, -half, 3),
                               h_symplecton)
    c_one = decomp[(HalfInt(2), HalfInt(0))]
    c_zero = decomp[(HalfInt(0), HalfInt(0))]
    assert c_one == HSeries.constant(sqrt_ratio(1, 2), 3), \
        "spin-1 part wrong"
    assert c_zero == HSeries.constant(Fraction(-1, 2), 3), \
        "scalar part should stay -1/2"
