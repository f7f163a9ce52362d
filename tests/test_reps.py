"""Spin representations, twist matrices, R-matrices, Hopf checks."""

import random
from fractions import Fraction

import pytest

from uhsl2 import reps
from uhsl2.scalar import HalfInt, HSeries, sqrt_ratio, weights
from uhsl2.symplecton import tensor_operator_check
from uhsl2.reps import (Matrix, anti_transpose, cocycle_check, coupled_basis_suite,
                        exp_sigma_entry, flip_tensor, ohn_suite, qybe_check,
                        r_triangularity_check, spin_rep, twist_inverse,
                        twist_matrix_formula, twist_matrix_oracle,
                        twisted_hopf_suite, universal_r_rep, widx)
from radical_oracle import coeff_terms, ref_mul, series

H12 = HalfInt(1)
H32 = HalfInt(3)
ORD = 6


def twist_symmetry_check(f):
    """F R(F) = 1 on the whole twist, R(F) being F with every weight label
    negated and transposed; over a commutative ring a one-sided inverse is
    the inverse.  The twist suite checks the same identity block by block."""
    return f * anti_transpose(f) == Matrix.identity(f.nrows, f.order)


def test_spin_rep_relations():
    for jt in range(1, 6):
        r = spin_rep(HalfInt(jt), ORD)
        assert r.jp * r.jm - r.jm * r.jp == r.j0
        assert r.j0 * r.jp - r.jp * r.j0 == r.jp.scale(2)
        assert r.j0 * r.jm - r.jm * r.j0 == r.jm.scale(-2)


def test_sigma_rep_properties():
    r = spin_rep(H32, ORD)
    # strictly weight-raising, hence nilpotent
    assert all(i > j for (i, j) in r.sigma.terms)
    # exp(a s) exp(b s) = exp((a+b) s)
    for a in (Fraction(1, 2), -1, Fraction(3, 2)):
        for b in (Fraction(-1, 2), 1):
            assert r.exp_sigma(a) * r.exp_sigma(b) == r.exp_sigma(a + b)
    # exp(s) = 1 - 2h Jp exactly reversed: exp(-s) is the unipotent 1 - 2hJp
    assert r.exp_sigma(-1) == Matrix.identity(r.dim, ORD) - r.jp.scale(HSeries.h_power(1, ORD, 2))


def test_exp_sigma_entries_spin_half():
    assert exp_sigma_entry(H12, H12, Fraction(-1, 2), -H12, ORD) == HSeries.h_power(1, ORD, -1)
    assert exp_sigma_entry(H12, H12, Fraction(1, 2), -H12, ORD) == HSeries.h_power(1, ORD)
    assert exp_sigma_entry(H12, -H12, Fraction(1, 2), -H12, ORD) == HSeries.one(ORD)
    assert exp_sigma_entry(H12, -H12, Fraction(1, 2), H12, ORD).is_zero()


def test_twist_oracle_matches_direct_exponential():
    for j1, j2 in ((H12, H12), (HalfInt(2), H12), (H12, H32)):
        r1 = spin_rep(j1, ORD)
        r2 = spin_rep(j2, ORD)
        arg = r1.j0.kron(r2.sigma).scale(HSeries.constant(Fraction(-1, 2), ORD))
        assert twist_matrix_oracle(j1, j2, ORD) == arg.exp_nilpotent()


def test_twist_formula_matches_oracle():
    for j1 in (H12, HalfInt(2), H32):
        for j2 in (H12, HalfInt(2), H32):
            assert twist_matrix_formula(j1, j2, ORD) == twist_matrix_oracle(j1, j2, ORD), \
                f"closed form disagrees with oracle at ({j1},{j2})"


def test_twist_formula_matches_oracle_where_truncation_cuts():
    # at orders 0-3 the entries h^d with d > order are cut from the formula
    for order in range(4):
        for j1t in range(5):
            for j2t in range(5):
                assert (twist_matrix_formula(HalfInt(j1t), HalfInt(j2t), order)
                        == twist_matrix_oracle(HalfInt(j1t), HalfInt(j2t), order)), \
                    f"closed form disagrees with oracle at ({j1t}/2, {j2t}/2), order {order}"


def test_twist_explicit_spin_half_pair():
    f = twist_matrix_oracle(H12, H12, ORD)
    expect = Matrix.identity(4, ORD) + Matrix(4, 4, ORD, {
        (1, 0): HSeries.h_power(1, ORD),
        (3, 2): HSeries.h_power(1, ORD, -1)})
    assert f == expect


def test_twist_inverse_and_symmetry():
    for j1, j2 in ((H12, H12), (HalfInt(2), H12), (H12, H32), (H32, H32)):
        f = twist_matrix_oracle(j1, j2, ORD)
        finv = twist_inverse(j1, j2, ORD)
        n = f.nrows
        assert f * finv == Matrix.identity(n, ORD)
        assert twist_symmetry_check(f), f"weight-negation symmetry fails ({j1},{j2})"


def test_twist_entries_are_monomials():
    f = twist_matrix_formula(H32, HalfInt(2), ORD)
    for v in f.terms.values():
        assert sum(0 if c.is_zero() else 1 for c in v.coeffs) == 1


def test_universal_r_spin_half():
    h = HSeries.h_power(1, ORD)
    r = universal_r_rep(H12, H12, ORD)
    expect = Matrix.identity(4, ORD) + Matrix(4, 4, ORD, {
        (1, 0): -h, (2, 0): h, (3, 0): h * h, (3, 1): -h, (3, 2): h})
    assert r == expect


def test_universal_r_explicit_after_weight_reversal():
    # in the descending weight basis the same operator is the familiar
    # upper triangular constant
    h = HSeries.h_power(1, ORD)
    p = Matrix(4, 4, ORD, {(i, 3 - i): 1 for i in range(4)})
    r = universal_r_rep(H12, H12, ORD)
    expected = Matrix.identity(4, ORD) + Matrix(4, 4, ORD, {
        (0, 1): h, (0, 2): -h, (0, 3): h * h, (1, 3): h, (2, 3): -h})
    assert p * r * p == expected


def test_r_triangularity():
    for j1, j2 in ((H12, H12), (H12, 1), (1, H32)):
        assert r_triangularity_check(j1, j2, ORD)


def test_qybe():
    assert qybe_check(H12, H12, H12, ORD)
    assert qybe_check(H12, 1, H12, 4)


def test_r_checks_build_each_spin_pair_once(monkeypatch):
    from uhsl2 import reps
    built = []

    def counted(j1, j2, order):
        built.append((HalfInt.of(j1).twice, HalfInt.of(j2).twice))
        return universal_r_rep(j1, j2, order)

    monkeypatch.setattr(reps, "universal_r_rep", counted)
    assert qybe_check(H12, H12, H12, 4) and r_triangularity_check(H12, H12, 4)
    assert built == [(1, 1), (1, 1)]
    built.clear()
    # the spins 1/2 and 1, written as a HalfInt and as an int
    assert qybe_check(H12, 1, H12, 4) and r_triangularity_check(H12, HalfInt(2), 4)
    assert sorted(built) == [(1, 1), (1, 2), (1, 2), (2, 1), (2, 1)]


def test_twisted_hopf_suite():
    for triple in ((H12, H12, H12), (1, H12, H12)):
        results = twisted_hopf_suite(*triple, ORD)
        for name, ok in results.items():
            assert ok, f"{name} fails on {triple}"


def test_twisted_hopf_suite_evaluates_each_word_once(monkeypatch):
    # at (1, 1/2, 1/2) the coproducts, the counit and the antipode sums read
    # 31 distinct (representation, word) pairs
    words = []
    word = reps._word

    def counted(rep, atoms):
        words.append((id(rep), atoms))
        return word(rep, atoms)

    monkeypatch.setattr(reps, "_word", counted)
    assert all(twisted_hopf_suite(1, H12, H12, 8).values())
    assert len(words) == len(set(words)) == 31


_SIGN_FLIPS = [(gen, i) for gen, terms in reps._ANTIPODE.items() for i in range(len(terms))]


@pytest.mark.parametrize("mutant", [*_SIGN_FLIPS, "map"],
                         ids=[*(f"{gen}-{i}" for gen, i in _SIGN_FLIPS), "map"])
def test_antipode_mutants_fail_the_hopf_and_ladder_checks(monkeypatch, mutant):
    # a sign flipped in one term of the antipode table, or S applied as a map
    # (the atoms' images multiplied in word order), breaks the antipode axiom
    # on matrices and the adjoint ladder in the Weyl letters
    if mutant == "map":
        antipode_word = reps._antipode_word
        monkeypatch.setattr(reps, "_antipode_word",
                            lambda rep, atoms: antipode_word(rep, atoms[::-1]))
    else:
        gen, i = mutant
        terms = list(reps._ANTIPODE[gen])
        hpow, q, atoms = terms[i]
        terms[i] = (hpow, -q, atoms)
        monkeypatch.setitem(reps._ANTIPODE, gen, terms)
    for triple in ((H12, H12, H12), (1, H12, H12)):
        assert not twisted_hopf_suite(*triple, ORD)["antipode_axiom"], triple
    ok, _ = tensor_operator_check(H32, ORD)
    assert not ok


def test_antipode_of_sigma_reads_the_table(monkeypatch):
    hpow, q, atoms = reps._ANTIPODE["Jp"][0]
    monkeypatch.setitem(reps._ANTIPODE, "Jp", [(hpow, -q, atoms)])
    assert not twisted_hopf_suite(H12, H12, H12, ORD)["antipode_of_sigma"]


def test_cocycle():
    assert cocycle_check(H12, H12, H12, ORD)
    assert cocycle_check(1, H12, H12, 4)


def test_coupled_basis_suite():
    for j1, j2 in ((H12, H12), (1, H12), (1, 1)):
        results = coupled_basis_suite(j1, j2, ORD)
        for name, ok in results.items():
            assert ok, f"{name} fails on ({j1},{j2})"


def test_ohn_suite():
    for j in (H12, 1):
        results = ohn_suite(j, 10)
        for name, ok in results.items():
            assert ok, f"{name} fails at spin {j}"


def test_matrix_basics():
    rng = random.Random(14)
    n = 3
    for _ in range(10):
        entries = {}
        for i in range(n):
            for j in range(i + 1, n):
                entries[(i, j)] = HSeries.h_power(rng.randint(0, 1), 4, Fraction(rng.randint(-2, 2)))
        nil = Matrix(n, n, 4, entries)
        e = nil.exp_nilpotent()
        assert e.log_unipotent() == nil
        assert e * e.inverse_unipotent() == Matrix.identity(n, 4)
    a = Matrix(2, 2, 2, {(0, 1): 1})
    b = Matrix(2, 2, 2, {(1, 0): HSeries.h_power(1, 2)})
    assert a.kron(b).terms == {(1, 2): HSeries.h_power(1, 2)}
    assert flip_tensor(a.kron(b), 2, 2) == b.kron(a)


def test_widx_reflects_under_weight_negation():
    assert widx(H32, -H32) == 0
    assert widx(H32, H12) == 2
    for j in (H12, HalfInt(2), H32, HalfInt(4)):
        for m in weights(j):
            assert widx(j, -m) == j.twice - widx(j, m)


def test_twist_symmetry_fails_on_a_perturbed_oracle():
    f = twist_matrix_oracle(H12, HalfInt(2), ORD)
    assert twist_symmetry_check(f)
    # (1, 0) lies in the first weight block of F, (5, 0) off the block diagonal
    for pos in ((1, 0), (5, 0)):
        perturbed = f + Matrix(f.nrows, f.ncols, ORD, {pos: HSeries.h_power(2, ORD)})
        assert not twist_symmetry_check(perturbed), f"perturbed at {pos}"


def test_universal_r_at_larger_spins():
    # R = exp(-s (x) J0 / 2) exp(J0 (x) s / 2), built from the Kronecker
    # products directly rather than from twist blocks, flips or inverses
    order = 8
    for j1, j2 in ((1, H32), (2, H12), (H32, H32)):
        r1, r2 = spin_rep(j1, order), spin_rep(j2, order)
        half = HSeries.constant(Fraction(1, 2), order)
        f21 = r1.sigma.kron(r2.j0).scale(-half).exp_nilpotent()
        finv = r1.j0.kron(r2.sigma).scale(half).exp_nilpotent()
        assert universal_r_rep(j1, j2, order) == f21 * finv, f"R differs at ({j1},{j2})"


def test_each_exponential_is_built_once(monkeypatch):
    # every power table and every power sum of the run is recorded: the powers
    # of each s are multiplied once per representation, and each exp(alpha*s)
    # is one sum over that representation's table, once per alpha
    powered, sums = [], []
    nilpotent_powers, power_sum = Matrix.nilpotent_powers, reps.power_sum

    def recording_powers(self):
        powered.append(self)
        return nilpotent_powers(self)

    def recording_sum(powers, coeff):
        sums.append((powers, [coeff(k) for k in range(len(powers))]))
        return power_sum(powers, coeff)

    monkeypatch.setattr(Matrix, "nilpotent_powers", recording_powers)
    monkeypatch.setattr(reps, "power_sum", recording_sum)
    spin_rep.cache_clear()
    twisted_hopf_suite(1, H12, H12, 8)
    ohn_suite(1, 8)
    # by identity: at spin 1/2, s equals the 2h Jp that spin_rep builds it from
    repeats = [i for i, arg in enumerate(powered) if any(a is arg for a in powered[:i])]
    assert not repeats, f"{len(repeats)} of {len(powered)} power tables were built again"
    repeats = [i for i, (table, coeffs) in enumerate(sums)
               if any(t is table and c == coeffs for t, c in sums[:i])]
    assert not repeats, f"{len(repeats)} of {len(sums)} power sums were built again"
    # the tables of s are shared: the spin-1 table serves -1, -1/2, 1/2, 1 and 2
    per_table = [sum(t is table for t, _ in sums) for table, _ in sums]
    assert max(per_table) >= 5


def _series_product(a, b):
    """a*b by convolving the coefficient lists as test radicals, cut at the order."""
    return series(ref_mul(coeff_terms(a), coeff_terms(b)), a.order)


def _oracle_product(x, y):
    """The entries of x*y, each the sum over k of x[i, k]*y[k, j]; no zeros."""
    out = {}
    for i in range(x.nrows):
        for j in range(y.ncols):
            total = HSeries.zero(x.order)
            for k in range(x.ncols):
                total = total + _series_product(x.get(i, k), y.get(k, j))
            if not total.is_zero():
                out[(i, j)] = total
    return out


def _random_series(rng, order):
    """A sum of up to three terms q*sqrt(r)*h^k with mixed denominators."""
    out = HSeries.zero(order)
    for _ in range(rng.randint(1, 3)):
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 5, 6)))
        out = out + HSeries.h_power(rng.randint(0, order), order,
                                    q * sqrt_ratio(rng.choice((1, 2, 3, 5, 6))))
    return out


def _random_matrix(rng, nrows, ncols, order):
    """About half of the entries filled, so that rows and columns may be empty."""
    return Matrix(nrows, ncols, order, {(i, j): _random_series(rng, order)
                                        for i in range(nrows) for j in range(ncols)
                                        if rng.random() < 0.5})


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (4, 1, 3), (1, 5, 1), (3, 3, 3),
                                   (5, 2, 6)])
def test_matrix_product_matches_entrywise_series_products(shape):
    rows, inner, cols = shape
    rng = random.Random(sum(shape))
    for order in (0, 2, 5):
        for _ in range(6):
            x = _random_matrix(rng, rows, inner, order)
            y = _random_matrix(rng, inner, cols, order)
            product = x * y
            assert product.space == (rows, cols, order)
            assert product.terms == _oracle_product(x, y), f"{shape} at order {order}"
            assert all(not v.is_zero() for v in product.terms.values())


def test_matrix_product_drops_cancelled_and_truncated_entries():
    rng = random.Random(15)
    order = 4
    u, v, w = (_random_series(rng, order) for _ in range(3))
    # [u, u] [v, w; -v, -w] cancels to zero in both entries
    x = Matrix(1, 2, order, {(0, 0): u, (0, 1): u})
    y = Matrix(2, 2, order, {(0, 0): v, (1, 0): -v, (0, 1): w, (1, 1): -w})
    assert (x * y).terms == {}
    # h^3 * h^2 lies above h^4, so the product is cut to zero
    h3 = Matrix(2, 2, order, {(1, 0): HSeries.h_power(3, order, sqrt_ratio(2))})
    h2 = Matrix(2, 2, order, {(0, 1): HSeries.h_power(2, order, Fraction(1, 3))})
    assert (h3 * h2).is_zero()
    # one entry cancels, the other keeps only the terms below the cut
    a = HSeries.h_power(1, order, sqrt_ratio(3)) + HSeries.h_power(3, order, Fraction(1, 2))
    x = Matrix(2, 2, order, {(0, 0): a, (0, 1): a, (1, 0): a})
    y = Matrix(2, 1, order, {(0, 0): a, (1, 0): -a})
    assert (x * y).terms == _oracle_product(x, y) == {(1, 0): _series_product(a, a)}
    assert _series_product(a, a) == HSeries.h_power(2, order, 3) + HSeries.h_power(
        4, order, sqrt_ratio(3))


def test_twist_inverse_is_the_label_reversed_twist():
    # the Neumann inverse of F against F with every weight label negated
    for j1, j2 in ((4, 4), (HalfInt(7), H12), (H12, 4)):
        f = twist_matrix_oracle(j1, j2, 16)
        last = f.nrows - 1
        reversed_f = Matrix(f.nrows, f.ncols, 16, {(last - c, last - r): v
                                                   for (r, c), v in f.terms.items()})
        assert twist_inverse(j1, j2, 16) == reversed_f, f"at ({j1},{j2})"
