"""Spin representations, twist matrices, R-matrices, Hopf checks."""

import random
from fractions import Fraction

from uhsl2.scalar import HalfInt, HSeries, weights
from uhsl2.reps import (Matrix, cocycle_check, coupled_basis_suite,
                        exp_sigma_entry, flip_tensor, ohn_suite, qybe_check,
                        r_triangularity_check, spin_rep, twist_inverse,
                        twist_matrix_formula, twist_matrix_oracle, twist_symmetry_check,
                        twisted_hopf_suite, universal_r_rep, widx)

H12 = HalfInt(1)
H32 = HalfInt(3)
ORD = 6


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
        assert twist_symmetry_check(j1, j2, ORD), f"weight-negation symmetry fails ({j1},{j2})"


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


def test_twisted_hopf_suite():
    for triple in ((H12, H12, H12), (1, H12, H12)):
        results = twisted_hopf_suite(*triple, ORD)
        for name, ok in results.items():
            assert ok, f"{name} fails on {triple}"


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


def test_twist_symmetry_fails_on_a_perturbed_oracle(monkeypatch):
    from uhsl2 import reps

    oracle = reps.twist_matrix_oracle

    def perturbed(j1, j2, order):
        f = oracle(j1, j2, order)
        return f + Matrix(f.nrows, f.ncols, order, {(1, 0): HSeries.h_power(2, order)})

    assert twist_symmetry_check(H12, HalfInt(2), ORD)
    monkeypatch.setattr(reps, "twist_matrix_oracle", perturbed)
    assert not twist_symmetry_check(H12, HalfInt(2), ORD)


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
    built = []
    exp_nilpotent = Matrix.exp_nilpotent

    def recording(self):
        built.append(self)
        return exp_nilpotent(self)

    monkeypatch.setattr(Matrix, "exp_nilpotent", recording)
    spin_rep.cache_clear()
    twisted_hopf_suite(1, H12, H12, 8)
    ohn_suite(1, 8)
    assert built
    repeats = [i for i, arg in enumerate(built) if arg in built[:i]]
    assert not repeats, f"{len(repeats)} of {len(built)} exponentials were built again"
