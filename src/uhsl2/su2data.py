"""Classical sl(2) coupling data over exact scalars.

Clebsch-Gordan coefficients in the Condon-Shortley convention, Racah W and 6j
coefficients, and the triangle coefficient nabla used by the symplecton
product law.

All values are RadicalSum, the exact constants of the scalar layer (a single
term q*sqrt(r) for every individual coefficient here), computed from the
standard single-sum closed forms.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .scalar import HalfInt, RadicalSum, sqrt_fraction, sqrt_ratio


def fact(x):
    """Factorial of a nonnegative integer-valued HalfInt / int / Fraction."""
    if isinstance(x, int):
        n = x
    elif isinstance(x, HalfInt):
        n = x.as_int()
    else:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError(f"factorial of non-integer {x}")
        n = int(f)
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return factorial(n)


def triangle_ok(a, b, c):
    """Whether (a, b, c) can couple: |a-b| <= c <= a+b with integer perimeter."""
    a, b, c = HalfInt.of(a), HalfInt.of(b), HalfInt.of(c)
    if (a + b + c).twice % 2:
        return False
    return abs(a.twice - b.twice) <= c.twice <= a.twice + b.twice


def _delta2(a, b, c):
    """Square of the triangle factor: (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!."""
    return Fraction(fact(a + b - c) * fact(a - b + c) * fact(-a + b + c),
                    fact(a + b + c + 1))


@lru_cache(maxsize=None)
def _cgc_cached(j1t, j2t, jt, m1t, m2t):
    """The coefficient from twice-labels, in Python ints (Racah's single sum)."""
    mt = m1t + m2t
    if (j1t + j2t + jt) % 2 or not abs(j1t - j2t) <= jt <= j1t + j2t:
        return RadicalSum.zero()
    if abs(m1t) > j1t or abs(m2t) > j2t or abs(mt) > jt:
        return RadicalSum.zero()
    if (j1t + m1t) % 2 or (j2t + m2t) % 2:
        return RadicalSum.zero()
    # integer labels: a = j1 + j2 - j, and so on; j + m is then an integer too
    a, b, c = (j1t + j2t - jt) // 2, (j1t - j2t + jt) // 2, (jt - j1t + j2t) // 2
    j1p, j1m = (j1t + m1t) // 2, (j1t - m1t) // 2
    j2p, j2m = (j2t + m2t) // 2, (j2t - m2t) // 2
    jp, jm = (jt + mt) // 2, (jt - mt) // 2
    # a!b!c! times Racah's sum is a signed sum of binomial products; every
    # binomial has 0 <= lower <= upper exactly on this range of k
    total = 0
    for k in range(max(0, j1m - b, j2p - c), min(a, j1m, j2p) + 1):
        term = comb(a, k) * comb(b, j1m - k) * comb(c, j2p - k)
        total += -term if k % 2 else term
    if not total:
        return RadicalSum.zero()
    # Racah's prefactor, over the a!b!c! taken out of the sum
    num, den, r = sqrt_ratio(
        (jt + 1) * factorial(jp) * factorial(jm) * factorial(j1p) * factorial(j1m)
        * factorial(j2p) * factorial(j2m),
        factorial((j1t + j2t + jt) // 2 + 1) * factorial(a) * factorial(b) * factorial(c),
        total)
    return RadicalSum._new({(0, r): num}, den, 0)


def cgc(j1, j2, j, m1, m2, m=None):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j, m1+m2>, Condon-Shortley."""
    j1, j2, j = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j)
    m1, m2 = HalfInt.of(m1), HalfInt.of(m2)
    if m is not None and HalfInt.of(m) != m1 + m2:
        return RadicalSum.zero()
    return _cgc_cached(j1.twice, j2.twice, j.twice, m1.twice, m2.twice)


@lru_cache(maxsize=None)
def _sixj_cached(at, bt, ct, dt, et, ft):
    a, b, c = HalfInt(at), HalfInt(bt), HalfInt(ct)
    d, e, f = HalfInt(dt), HalfInt(et), HalfInt(ft)
    triads = [(a, b, c), (a, e, f), (d, b, f), (d, e, c)]
    if not all(triangle_ok(*t) for t in triads):
        return RadicalSum.zero()
    pre2 = Fraction(1)
    for t in triads:
        pre2 *= _delta2(*t)
    triad_sums = [(x + y + z).as_int() for x, y, z in triads]
    pair_sums = [(a + b + d + e).as_int(), (b + c + e + f).as_int(),
                 (c + a + f + d).as_int()]
    total = Fraction(0)
    for t in range(max(triad_sums), min(pair_sums) + 1):
        term = Fraction(fact(t + 1))
        for s in triad_sums:
            term /= fact(t - s)
        for s in pair_sums:
            term /= fact(s - t)
        total += -term if t % 2 else term
    return sqrt_fraction(pre2) * total


def sixj(a, b, c, d, e, f):
    """Wigner 6j symbol {a b c; d e f}."""
    vals = [HalfInt.of(x) for x in (a, b, c, d, e, f)]
    return _sixj_cached(*(v.twice for v in vals))


def racah_w(a, b, c, d, e, f):
    """Racah coefficient W(abcd; ef) = (-1)^(a+b+c+d) {a b e; d c f}."""
    a, b, c, d = HalfInt.of(a), HalfInt.of(b), HalfInt.of(c), HalfInt.of(d)
    w = sixj(a, b, e, d, c, f)
    # a + b + c + d is an integer whenever the labels are admissible
    return -w if not w.is_zero() and (a + b + c + d).as_int() % 2 else w


def nabla(a, b, c):
    """Triangle coefficient sqrt((a+b+c+1)! / ((a+b-c)!(a-b+c)!(-a+b+c)!))."""
    a, b, c = HalfInt.of(a), HalfInt.of(b), HalfInt.of(c)
    if not triangle_ok(a, b, c):
        return RadicalSum.zero()
    return sqrt_fraction(Fraction(1) / _delta2(a, b, c))


def bracket_coeff(k, j, jp):
    """Reduced product coefficient 2^(k-j-j') (2k+1)^(-1/2) nabla(k, j, j')."""
    k, j, jp = HalfInt.of(k), HalfInt.of(j), HalfInt.of(jp)
    if not triangle_ok(k, j, jp):
        return RadicalSum.zero()
    two_pow = Fraction(2) ** (k - j - jp).as_int()
    return nabla(k, j, jp) * sqrt_fraction(Fraction(1, k.twice + 1)) * two_pow


def verify_racah_identity(a, b, c, e):
    """Check the recoupling of three spins against Racah W, exactly.

    For every admissible intermediate spin d and all magnetic labels, the
    double-coupling through d must expand in the cross-couplings through f
    with coefficients sqrt((2d+1)(2f+1)) W(a, b, e, c; d, f).  Returns
    (ok, ncases) where ncases counts the (d, alpha, beta, gamma) tuples.
    """
    at, bt, ct, et = (HalfInt.of(x).twice for x in (a, b, c, e))
    ncases = 0
    ds = [dt for dt in range(abs(at - bt), at + bt + 1, 2) if triangle_ok(HalfInt(dt), c, e)]
    fs = [ft for ft in range(abs(bt - ct), bt + ct + 1, 2) if triangle_ok(a, HalfInt(ft), e)]
    for dt in ds:
        racah = [(ft, sqrt_fraction(Fraction((dt + 1) * (ft + 1)))
                  * racah_w(a, b, e, c, HalfInt(dt), HalfInt(ft))) for ft in fs]
        for alt, bet, gat in product(*(range(-t, t + 1, 2) for t in (at, bt, ct))):
            if abs(alt + bet + gat) > et:
                continue
            lhs = _cgc_cached(dt, ct, et, alt + bet, gat) * _cgc_cached(at, bt, dt, alt, bet)
            rhs = RadicalSum.zero()
            for ft, w in racah:
                rhs = rhs + (_cgc_cached(at, ft, et, alt, bet + gat)
                             * _cgc_cached(bt, ct, ft, bet, gat) * w)
            if lhs != rhs:
                return False, ncases
            ncases += 1
    return True, ncases
