"""Classical sl(2) coupling data over exact scalars.

Clebsch-Gordan coefficients in the Condon-Shortley convention, Racah W and 6j
coefficients, and the triangle coefficient nabla and the normalization N
used by the symplecton product law.

All values are RadicalSum, the exact constants of the scalar layer (a single
term q*sqrt(r) for every individual coefficient here), computed from the
standard single-sum closed forms.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial, prod

from .scalar import HalfInt, RadicalSum, sqrt_ratio


def fact(x):
    """Factorial of a nonnegative int or integer-valued HalfInt."""
    n = x.as_int() if isinstance(x, HalfInt) else x
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return factorial(n)


def _couples(at, bt, ct):
    """triangle_ok on twice-labels in Python ints."""
    return (at + bt + ct) % 2 == 0 and abs(at - bt) <= ct <= at + bt


def triangle_ok(a, b, c):
    """Whether (a, b, c) can couple: |a-b| <= c <= a+b with integer perimeter."""
    return _couples(*(HalfInt.of(x).twice for x in (a, b, c)))


@lru_cache(maxsize=None)
def _cgc_cached(j1t, j2t, jt, m1t, m2t):
    """The coefficient from twice-labels, in Python ints (Racah's single sum)."""
    mt = m1t + m2t
    if not _couples(j1t, j2t, jt):
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
    # Racah's prefactor, over the a!b!c! taken out of the sum
    return sqrt_ratio(
        (jt + 1) * factorial(jp) * factorial(jm) * factorial(j1p) * factorial(j1m)
        * factorial(j2p) * factorial(j2m),
        factorial((j1t + j2t + jt) // 2 + 1) * factorial(a) * factorial(b) * factorial(c),
        total)


def cgc(j1, j2, j, m1, m2):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j, m1+m2>, Condon-Shortley."""
    return _cgc_cached(*(HalfInt.of(x).twice for x in (j1, j2, j, m1, m2)))


def sixj(a, b, c, d, e, f):
    """Wigner 6j symbol {a b c; d e f}, from twice-labels in Python ints."""
    at, bt, ct, dt, et, ft = (HalfInt.of(x).twice for x in (a, b, c, d, e, f))
    triads = [(at, bt, ct), (at, et, ft), (dt, bt, ft), (dt, et, ct)]
    if not all(_couples(*triad) for triad in triads):
        return RadicalSum.zero()
    # each triangle factor squared is (x+y-z)!(x-y+z)!(-x+y+z)!/(x+y+z+1)!
    # in spins, the four multiplied into one ratio of integers
    pre_num = prod(factorial((x + y - z) // 2) * factorial((x - y + z) // 2)
                   * factorial((y + z - x) // 2) for x, y, z in triads)
    pre_den = prod(factorial((x + y + z) // 2 + 1) for x, y, z in triads)
    lows = [(x + y + z) // 2 for x, y, z in triads]
    highs = [(at + bt + dt + et) // 2, (bt + ct + et + ft) // 2, (ct + at + ft + dt) // 2]
    t0, t1 = max(lows), min(highs)
    # Racah's sum over t of (-1)^t (t+1)! / (prod (t-low)! prod (high-t)!),
    # over the one denominator prod (t1-low)! prod (high-t0)!
    total = 0
    for t in range(t0, t1 + 1):
        term = factorial(t + 1)
        for low in lows:
            term *= factorial(t1 - low) // factorial(t - low)
        for high in highs:
            term *= factorial(high - t0) // factorial(high - t)
        total += -term if t % 2 else term
    den = prod(factorial(t1 - low) for low in lows) * prod(factorial(high - t0) for high in highs)
    return sqrt_ratio(pre_num, pre_den, total, den)


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
    return sqrt_ratio(fact(a + b + c + 1), fact(a + b - c) * fact(a - b + c) * fact(-a + b + c))


def bracket_coeff(k, j, jp):
    """Reduced product coefficient 2^(k-j-j') (2k+1)^(-1/2) nabla(k, j, j')."""
    n = nabla(k, j, jp)
    k, j, jp = HalfInt.of(k), HalfInt.of(j), HalfInt.of(jp)
    # nabla is zero off a triangle; on one, j + j' - k is an integer
    return n if n.is_zero() else n * sqrt_ratio(1, k.twice + 1, 1, 2 ** (j + jp - k).as_int())


def product_norm(j, jp, k):
    """Product-law normalization N(j, j', k) = sqrt((2j)! (2j')! / (2k)!)."""
    j, jp, k = HalfInt.of(j), HalfInt.of(jp), HalfInt.of(k)
    return sqrt_ratio(factorial(j.twice) * factorial(jp.twice), factorial(k.twice))


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
    # the cross-couplings C(a f e) C(b c f) do not depend on d: build them once
    cross = [((alt, bet, gat), [_cgc_cached(at, ft, et, alt, bet + gat)
                                * _cgc_cached(bt, ct, ft, bet, gat) for ft in fs])
             for alt, bet, gat in product(*(range(-t, t + 1, 2) for t in (at, bt, ct)))
             if abs(alt + bet + gat) <= et]
    for dt in ds:
        racah = [sqrt_ratio((dt + 1) * (ft + 1))
                 * racah_w(a, b, e, c, HalfInt(dt), HalfInt(ft)) for ft in fs]
        for (alt, bet, gat), couplings in cross:
            lhs = _cgc_cached(dt, ct, et, alt + bet, gat) * _cgc_cached(at, bt, dt, alt, bet)
            rhs = RadicalSum.zero()
            for coupling, w in zip(couplings, racah):
                rhs = rhs + coupling * w
            if lhs != rhs:
                return False, ncases
            ncases += 1
    return True, ncases
