"""Spin-labelled polynomial families in the oscillator realization.

The classical family P_j^m spans an irreducible spin-j multiplet inside the
Weyl algebra.  Its twisted companion is P_j^m exp(m*s), which remains a
spin-j tensor operator for the deformed adjoint action and whose products
close with twist-dressed coupling coefficients.

This module builds both families, their closed forms, and the verification
suites for the structural statements: tensor-operator behaviour, the product
law with its twisted coupling matrix, reflection symmetry, hypergeometric
normal forms, and the two-variable generating functions.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from math import prod
from operator import mul

from .scalar import (AlgebraMap, HalfInt, HSeries, add_into, combine, half_range,
                     spin_pairs, spins_up_to, sqrt_ratio, weights)
from .su2data import bracket_coeff, cgc, fact, product_norm, triangle_ok
from .reps import adjoint, exp_sigma_entry
from .weyl import (OscElement, WeylElement, WeylLetters, classical_symplecton, exp_m_sigma,
                   exp_m_sigma_osc, h_symplecton, ladder_coeff, symplecton_pivot,
                   to_oscillator)


def symmetry_check(max_j):
    """Reflection a -> abar, abar -> -a sends P_j^m to (-1)^(j-m) P_j^(-m), at order 0."""
    reflect = AlgebraMap({0: WeylElement.monomial(0, 1, 0), 1: -WeylElement.monomial(1, 0, 0)})
    for j in spins_up_to(max_j):
        for m in weights(j):
            got = reflect(classical_symplecton(j, m, 0))
            want = classical_symplecton(j, -m, 0).scale(
                Fraction(-1) ** ((j - m).as_int()))
            if got != want:
                return False
    return True


def hypergeometric_form(j, m, order):
    """P_j^m for m <= 0 as (polynomial in a*abar) * abar^(-2m).

    Built from the terminating Gauss sum with unit negative argument.  The
    overall normalization is 2^(m-j) sqrt((2j)! / ((j+m)!(j-m)!)); the same
    expression with 2^(-j-m) misstates every m < 0 case by 2^(2m), which
    test_symplecton records explicitly.
    """
    j, m = HalfInt.of(j), HalfInt.of(m)
    if m > 0:
        raise ValueError("closed form applies to m <= 0; use the reflection "
                         "symmetry for positive weights")
    K = (j - m).as_int()
    JM = (j + m).as_int()
    ms = (2 * m).as_int()
    # polynomials in x = a*abar, as series of order 2j in x
    top = (2 * j).as_int()
    x = HSeries.h_power(1, top)
    prefactor = prod((x + (t - ms) for t in range(1, JM + 1)), start=HSeries.one(top))
    total = HSeries.zero(top)
    for k in range(K + 1):
        coeff = Fraction(-1) ** k / fact(k)
        for i in range(k):
            coeff *= Fraction(-K + i)  # rising factorial of the terminating slot
        term = HSeries.constant(coeff, top)
        for i in range(k):
            term = term * (ms + i - x)
        for i in range(k, K):
            term = term * (i - K - x)
        total = total + term
    denom = prod((i - K - x for i in range(K)), start=HSeries.one(top))
    # the constant term of denom is (-1)^K K!, a unit; prefactor * total has
    # degree at most 2j, so the division is exact iff the quotient stops at
    # degree j+m
    poly = prefactor * total * denom.invert_unit()
    if any(not poly.coeff(t).is_zero() for t in range(JM + 1, top + 1)):
        raise ValueError("polynomial division left a nonzero remainder; "
                         "the closed form does not normal-order as expected")

    npows = accumulate(repeat(WeylElement.monomial(1, 1, order), JM), mul,
                       initial=WeylElement.one(order))
    norm = symplecton_pivot(j, m) * Fraction(1, 2 ** K)
    return combine(((poly.coeff(t) * norm, npow) for t, npow in enumerate(npows)),
                   WeylElement.zero(order)) * WeylElement.monomial(0, -ms, order)


def osc_symplecton_poly(j, m, order, form="A"):
    """Closed-form twisted polynomial in the deformed oscillator generators,
    cached.

    Two independent summation forms; both must match the twist-dressed
    classical polynomial under the change of generators.
    """
    return _osc_symplecton_poly(HalfInt.of(j).twice, HalfInt.of(m).twice, order, form)


@lru_cache(maxsize=None)
def _osc_symplecton_poly(jt, mt, order, form):
    j, m = HalfInt(jt), HalfInt(mt)
    jm, jp = (j - m).as_int(), (j + m).as_int()
    ms = (2 * m).as_int()
    A = OscElement.monomial(1, 0, order)
    Ab = OscElement.monomial(0, 1, order)

    def shifted(k):
        # Abar + k h A
        return Ab + A.scale(HSeries.h_power(1, order, k))

    if form == "A":
        pre = sqrt_ratio(fact(2 * j) * fact(jm), fact(jp), 1, 2 ** jm)
        terms = ((pre / (fact(s) * fact(jm - s)),
                  reduce(mul, [*map(shifted, range(jm - s)), OscElement.monomial(jp, 0, order),
                               *(shifted(-i) for i in range(ms + s, ms, -1))]))
                 for s in range(jm + 1))
    elif form == "B":
        pre = sqrt_ratio(fact(2 * j) * fact(jp), fact(jm), 1, 2 ** jp)
        terms = ((pre / (fact(s) * fact(jp - s)),
                  reduce(mul, [OscElement.monomial(s, 0, order), *map(shifted, range(-s, jm - s)),
                               OscElement.monomial(jp - s, 0, order)]))
                 for s in range(jp + 1))
    else:
        raise ValueError(f"unknown form {form!r}")
    return combine(terms, OscElement.zero(order))


def h_symplecton_forms_check(max_j, order):
    """Both deformed closed forms equal the twist-dressed classical family.

    to_oscillator is an algebra map, so the image of P_j^m exp(m*s) is
    osc(P_j^m) (1 - h A^2)^m once osc(exp(m*s)) = (1 - h A^2)^m, which is
    checked once per weight.  P_j^m is free of h, so its image is cheap.
    """
    osc = to_oscillator(order)
    dressing = {}
    for j in spins_up_to(max_j):
        for m in weights(j):
            if m not in dressing:
                dressing[m] = exp_m_sigma_osc(m, order)
                if osc(exp_m_sigma(m, order)) != dressing[m]:
                    return False, f"exp({m} s) differs from (1 - h A^2)^{m}"
            ref = osc(classical_symplecton(j, m, order)) * dressing[m]
            if osc_symplecton_poly(j, m, order, "A") != ref:
                return False, f"form A differs at j={j}, m={m}"
            if osc_symplecton_poly(j, m, order, "B") != ref:
                return False, f"form B differs at j={j}, m={m}"
    return True, "forms A and B match the dressed classical family"


def tensor_operator_check(max_j, order):
    """The deformed adjoint action, read off the Hopf tables of reps in the
    Weyl letters, ladders through the twisted family."""
    letters = WeylLetters(order)
    ad_j0, ad_jplus, ad_jminus = (adjoint(letters, gen) for gen in ("J0", "Jp", "Jm"))
    for j in spins_up_to(max_j):
        for m in weights(j):
            p = h_symplecton(j, m, order)
            if ad_j0(p) != p.scale(HSeries.constant((2 * m).as_int(), order)):
                return False, f"weight action fails at j={j}, m={m}"
            up = (h_symplecton(j, m + 1, order).scale(HSeries.constant(ladder_coeff(j, m, +1), order))
                  if m < j else WeylElement.zero(order))
            if ad_jplus(p) != up:
                return False, f"raising fails at j={j}, m={m}"
            down = (h_symplecton(j, m - 1, order).scale(HSeries.constant(ladder_coeff(j, m, -1), order))
                    if m > -j else WeylElement.zero(order))
            if ad_jminus(p) != down:
                return False, f"lowering fails at j={j}, m={m}"
    return True, "adjoint ladder verified"


def _layer_top(w, t):
    """The top monomial (degree, p, q) of a^p abar^q among the coefficients of
    w with valuation t: highest degree, then highest power of the first
    letter; None when there is none."""
    return max(((p + q, p, q) for (p, q), c in w.terms.items() if c.valuation() == t),
               default=None)


def decompose_twisted(w, member):
    """Expand w over the family member(k, mu, order), order by order in h.

    Returns {(k, mu): HSeries}.  At h = 0 every family here is the classical
    one, so member (k, mu) has the single top monomial a^(k+mu) abar^(k-mu),
    with a constant coefficient, and its h^s part lands in h^(t+s) and above.
    For t = 0 .. order the residue's h^t layer is therefore cleared from its
    top monomial down, without touching a layer already cleared.  A member
    that lacks its top monomial, or a step that does not lower the layer's
    top monomial, raises RuntimeError.
    """
    order = w.order
    rest = w
    out = {}
    for t in range(order + 1):
        top = _layer_top(rest, t)
        while top is not None:
            _, p, q = top
            k, mu = HalfInt(p + q), HalfInt(p - q)
            m = member(k, mu, order)
            pivot = m.terms.get((p, q))
            if pivot is None or pivot.valuation() != 0:
                raise RuntimeError(f"member ({k}, {mu}) lacks its top monomial a^{p} abar^{q}")
            coeff = HSeries.h_power(t, order, rest.terms[(p, q)].coeff(t) * pivot.at_h0().invert())
            add_into(out, (k, mu), coeff)
            rest = rest - m.scale(coeff)
            below = _layer_top(rest, t)
            if below is not None and below >= top:
                raise RuntimeError(f"subtracting member ({k}, {mu}) did not lower the h^{t} "
                                   f"layer's top monomial a^{p} abar^{q}: a^{below[1]} "
                                   f"abar^{below[2]} is left")
            top = below
    return out


def _twist_conjugation(m, order):
    """c_m(X) = exp(-m s) X exp(m s) in the oscillator letters: as exp(m s) =
    (1 - h A^2)^m and [Abar, A] = 1 - h A^2, it sends Abar to Abar - 2m h A."""
    A = OscElement.monomial(1, 0, order)
    shift = A.scale(HSeries.h_power(1, order, (2 * m).as_int()))
    return AlgebraMap({0: A, 1: OscElement.monomial(0, 1, order) - shift})


def _pair_tables(j, jp_, order):
    """Every product P~_j^m P~_j'^m' of one spin pair, and every dressed
    classical product P_j^m P_j'^n' exp((m+n') s) = P~_j^m c_m(P~_j'^n'),
    both keyed by the weights."""
    products, dressed = {}, {}
    for m in weights(j):
        c_m = _twist_conjugation(m, order)
        left = osc_symplecton_poly(j, m, order)
        for mp in weights(jp_):
            right = osc_symplecton_poly(jp_, mp, order)
            products[(m, mp)] = left * right
            dressed[(m, mp)] = left * c_m(right)
    return products, dressed


def _twist_sum(jp_, sign, table, order):
    """sum_n' <j' n'|exp(sign m s)|j' m'> table[(m, n')] for every (m, m') of
    one spin pair; the twist entry vanishes unless m' <= n' <= j'.

    With sign = +1 on the dressed products it is the twist redistribution
    P~_j^m P~_j'^m' = sum_n' <j' n'|exp(m s)|j' m'> P_j^m P_j'^n' exp((m+n') s);
    with sign = -1 on the products it collapses them back to the dressed ones.
    """
    return {(m, mp): combine(((exp_sigma_entry(jp_, np_, sign * m, mp, order), table[(m, np_)])
                              for np_ in half_range(mp, jp_)), OscElement.zero(order))
            for m, mp in table}


def _first_miss(j, jp_, got, want, prefix=""):
    """The first weight pair of one spin pair where got differs from want,
    named as prefix(j,m;j',m'); None when they agree."""
    return next((f"{prefix}({j},{m};{jp_},{mp})"
                 for (m, mp), w in want.items() if got[(m, mp)] != w), None)


def _support(j, jp_, expansions):
    """Spin / weight support of every product of one spin pair, and of its
    classical limit; the first failure, or None.

    The spins that appear are confined to the coupling triangle; the weights
    to n' + m with m' <= n' <= j'; and at h^0 only the total weight m + m'
    survives.
    """
    for (m, mp), decomp in expansions.items():
        for (k, mu), c in decomp.items():
            if not triangle_ok(j, jp_, k):
                return f"spin {k} outside triangle at ({j},{m};{jp_},{mp})"
            np_ = mu - m
            if not (mp <= np_ <= jp_):
                return f"weight {mu} outside band at ({j},{m};{jp_},{mp})"
            if mu != m + mp and not c.at_h0().is_zero():
                return f"classical limit leaks to weight {mu} at ({j},{m};{jp_},{mp})"
    return None


def _pair_law(j, jp_, expansions, order):
    """The product law on one spin pair, {(j, j', k): (ok, detail)}.

    The (k, mu) coefficient of P~_j^m P~_j'^m' must equal
    N(j, j', k) <k|j|j'> <j' n'| exp(m s) |j' m'> C(j', j, k; n', m) with
    n' = mu - m, exactly; a zero prediction requires a zero coefficient.
    The detail is the ratio N, or the first (m, m', mu) that differs.
    """
    zero = HSeries.zero(order)

    def law(k, reduced, m, mp, mu):
        c = cgc(jp_, j, k, mu - m, m)
        return zero if c.is_zero() else \
            exp_sigma_entry(jp_, mu - m, m, mp, order).scale(reduced * c)

    table = {}
    for k in half_range(HalfInt(abs(j.twice - jp_.twice)), j + jp_):
        norm = product_norm(j, jp_, k)
        reduced = norm * bracket_coeff(k, j, jp_)
        bad = next((f"coefficient differs from ratio {norm} times the law at "
                    f"m={m}, m'={mp}, mu={mu}"
                    for (m, mp), decomp in expansions.items() for mu in weights(k)
                    if decomp.get((k, mu), zero) != law(k, reduced, m, mp, mu)), None)
        table[(j, jp_, k)] = _verdict(bad, f"ratio = {norm}")
    return table


def _pairing_constant(j):
    """(2j)!/4^j, the scalar pairing of the spin-j family."""
    return Fraction(fact(2 * j), 2 ** j.twice)


def _pairing_tables(j, jp_, expansions, order):
    """The scalar part of (-1)^(j-m) P~_j^(-m) P~_j'^m' and its closed form
    delta_jj' (2j)!/4^j <j m|exp(-m s)|j m'>, both keyed by (m, m').

    The scalar part of a reflected product is read off the expansion of the
    unreflected one, P~_j^(-m) P~_j'^m', which is exact because the
    expansion is linear.
    """
    zero = HSeries.zero(order)
    got, want = {}, {}
    for m in weights(j):
        for mp in weights(jp_):
            c = expansions[(-m, mp)].get((HalfInt(0), HalfInt(0)), zero)
            got[(m, mp)] = -c if (j - m).as_int() % 2 else c
            want[(m, mp)] = (exp_sigma_entry(j, m, -m, mp, order).scale(_pairing_constant(j))
                             if j == jp_ else zero)
    return got, want


def _normalization_failure(max_j):
    """The first spin whose product-law k = 0 coefficient,
    N(j, j, 0) <0|j|j> C(j, j, 0; j, -j), is not the pairing constant
    (2j)!/4^j; None when there is none."""
    k = HalfInt(0)
    for j in spins_up_to(max_j):
        c = product_norm(j, j, k) * bracket_coeff(k, j, j) * cgc(j, j, k, j, -j)
        if c != _pairing_constant(j):
            return f"constant at j={j} is {c}, (2j)!/4^j gives {_pairing_constant(j)}"
    return None


def _verdict(bad, good):
    return bad is None, bad or good


def product_law_suite(max_j, order):
    """All product-law layers for spins up to max_j, in one pass over spin pairs.

    Each pair's products, their exact expansions and its dressed classical
    products are built once, in the oscillator letters, where every table is
    a polynomial in h, and every layer is read off those three tables and
    compared with a closed form.  A failing layer names its first failure,
    in the first failing spin pair of spin_pairs.
    Returns ({check: (ok, detail)}, {(j, j', k): (ok, detail)}), the table
    holding the product law's verdict on each spin triple.
    """
    first, table = {}, {}
    for j, jp_ in spin_pairs(max_j):
        products, dressed = _pair_tables(j, jp_, order)
        expansions = {key: decompose_twisted(w, osc_symplecton_poly)
                      for key, w in products.items()}
        law = _pair_law(j, jp_, expansions, order)
        table.update(law)
        found = {
            "intermediate_identity": _first_miss(j, jp_, products,
                                                 _twist_sum(jp_, 1, dressed, order)),
            "support": _support(j, jp_, expansions),
            "twisted_sum_collapse": _first_miss(j, jp_, dressed,
                                                _twist_sum(jp_, -1, products, order),
                                                "collapse fails at "),
            "ratio_table": next((f"({j},{jp_},{k}): {detail}"
                                 for (_, _, k), (ok, detail) in law.items() if not ok), None),
            "pairing": _first_miss(j, jp_, *_pairing_tables(j, jp_, expansions, order),
                                   "pairing fails at ")}
        for name, bad in found.items():
            if bad is not None:
                first.setdefault(name, bad)

    passing = {"intermediate_identity": "twist redistribution identity holds",
               "support": "support confined",
               "twisted_sum_collapse": "twist-summed products collapse",
               "ratio_table": f"{len(table)} spin triples calibrated",
               "pairing": "scalar pairing is a spin constant times the twist entry"}
    out = {name: _verdict(first.get(name), good) for name, good in passing.items()}
    out["pairing_normalization"] = _verdict(
        _normalization_failure(max_j), "pairing constants match the product-law calibration")
    return out, table


def examples_check(order):
    """Verdicts of the explicit low-spin identities, {check: (ok, detail)}.

    The weight-one family T_1, T_0, T_-1 and its dressing factor 1 - h T_1
    are built once.  Their commutators close on the family.  The weight and
    lowering generators carry the dressing factor directly; for the raising
    generator only the inverse of that factor works, and the inverse equals
    exp(-s).  The uninverted form is checked to fail, so its failure stays
    visible.
    """
    t1, t0, tm = (osc_symplecton_poly(1, m, order) for m in (1, 0, -1))
    h1 = HSeries.h_power(1, order)
    one = OscElement.one(order)
    r8 = HSeries.constant(sqrt_ratio(8), order)
    dress = one - t1.scale(h1)
    osc = to_oscillator(order)
    letters = WeylLetters(order)
    jplus = osc(letters.jp)

    closes = (t0.commutator(t1) == (t1 * dress).scale(r8)
              and t0.commutator(tm) == -(tm * dress).scale(r8)
              and t1.commutator(tm) == -(dress * t0).scale(r8))
    return {
        "twist_exponential_in_oscillators": (
            osc(letters.exp_sigma(1)) == one - OscElement.monomial(2, 0, order, h1),
            "exp(s) = 1 - h a^2 in the deformed letters"),
        "weight_one_commutators": (
            closes, "weight-one commutators close" if closes else "weight-one commutators fail"),
        "reconstruction_j0": (
            osc(letters.j0) == t0.scale(sqrt_ratio(1, 2)), ""),
        "reconstruction_jminus": (
            osc(letters.jm) == (tm * dress).scale(Fraction(1, 2)), ""),
        "reconstruction_jplus_inverse_dressing": (
            jplus == (t1 * exp_m_sigma_osc(-1, order)).scale(Fraction(-1, 2)), ""),
        "reconstruction_dressing_is_exp_sigma": (dress == exp_m_sigma_osc(1, order), ""),
        "reconstruction_jplus_direct_dressing": (
            jplus != (t1 * dress).scale(Fraction(-1, 2)),
            "the raising generator needs the inverse dressing factor;"
            " the uninverted form provably fails"),
    }


def _graded_power(base, n, one):
    """n-th power of a two-variable-graded element, {(px, py): coefficient}."""
    out = {(0, 0): one}
    for _ in range(n):
        new = {}
        for (p1, q1), e1 in out.items():
            for (p2, q2), e2 in base.items():
                add_into(new, (p1 + p2, q1 + q2), e1 * e2)
        out = new
    return out


def generating_function_check(max_j, order):
    """Binomial powers of the linear forms expand over the two families.

    Classically (xi a + eta abar)^(2j) matches sqrt((2j)!) sum_m Phi_jm P_j^m.
    In the deformed oscillator the linear form uses the half-dressed
    generators and each term picks up exp(-m s) on the right.
    """
    for j in spins_up_to(max_j):
        tj = (2 * j).as_int()
        base = {(1, 0): WeylElement.monomial(1, 0, order),
                (0, 1): WeylElement.monomial(0, 1, order)}
        lhs = _graded_power(base, tj, WeylElement.one(order))
        rhs = {}
        for m in weights(j):
            key = ((j + m).as_int(), (j - m).as_int())
            rhs[key] = classical_symplecton(j, m, order).scale(symplecton_pivot(j, m))
        if lhs != rhs:
            return False, f"classical expansion fails at j={j}"

        a_half = OscElement.monomial(1, 0, order) * exp_m_sigma_osc(Fraction(-1, 2), order)
        ab_half = OscElement.monomial(0, 1, order) * exp_m_sigma_osc(Fraction(1, 2), order)
        lhs = _graded_power({(1, 0): a_half, (0, 1): ab_half}, tj, OscElement.one(order))
        rhs = {}
        for m in weights(j):
            key = ((j + m).as_int(), (j - m).as_int())
            rhs[key] = (osc_symplecton_poly(j, m, order)
                        * exp_m_sigma_osc(-m.as_fraction(), order)).scale(
                            symplecton_pivot(j, m))
        if lhs != rhs:
            return False, f"deformed expansion fails at j={j}"
    return True, "generating functions expand over both families"
