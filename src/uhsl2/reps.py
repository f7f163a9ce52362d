"""Finite-dimensional representations and the twist machinery.

Spin-j matrices act on the weight basis |j, -j>, ..., |j, j> (weights
ascending, index i = j + m).  The raising generator satisfies
Jp |j m> = sqrt((j-m)(j+m+1)) |j m+1>, the weight generator is diag(2m),
and the twist exponent is the nilpotent matrix s = -log(1 - 2h Jp).

On a tensor product the twist is F = exp(-J0 (x) s / 2).  Everything here
is an exact sparse matrix over HSeries, and every exponential or logarithm
terminates because its argument is nilpotent.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, gcd, prod
from operator import mul

from .scalar import (SCALARS, HalfInt, HSeries, SeriesCombination, _numerator_product,
                     _over_one_denominator, _series_of_sums, add_into, combine, half_range,
                     sqrt_ratio, weights)
from .su2data import cgc
from .weyl import ladder_coeff


class Matrix(SeriesCombination):
    """Sparse matrix {(row, col): HSeries}; its space is (nrows, ncols, order)."""

    __slots__ = ()

    def __init__(self, nrows, ncols, order, terms=None):
        super().__init__((nrows, ncols, order), terms)

    nrows = property(lambda self: self.space[0])
    ncols = property(lambda self: self.space[1])
    order = property(lambda self: self.space[2])

    @property
    def unit_keys(self):
        if self.nrows != self.ncols:
            raise ValueError(f"a {self.nrows}x{self.ncols} matrix space has no unit")
        return [(i, i) for i in range(self.nrows)]

    @staticmethod
    def zero(nrows, ncols, order):
        return Matrix(nrows, ncols, order)

    @staticmethod
    def identity(n, order):
        return Matrix.zero(n, n, order).constant(1)

    def get(self, i, j):
        return self.terms.get((i, j), HSeries.zero(self.order))

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.order != other.order or self.ncols != other.nrows:
            raise ValueError(f"cannot multiply a {self.space} by a {other.space} matrix"
                             " (rows, columns, order)")
        # each entry sums integer numerator products, then becomes one series
        nums1, den1 = _over_one_denominator(self.terms)
        nums2, den2 = _over_one_denominator(other.terms)
        by_row = {}
        for (k, j), b in nums2:
            by_row.setdefault(k, []).append((j, b))
        sums = {}
        for (i, k), a in nums1:
            for j, b in by_row.get(k, ()):
                _numerator_product(a, b, self.order, sums.setdefault((i, j), {}))
        return self._like(_series_of_sums(sums, den1 * den2, self.order),
                          (self.nrows, other.ncols, self.order))

    def kron(self, other):
        if self.order != other.order:
            raise ValueError(f"matrix order mismatch {self.order} vs {other.order}")
        out = {}
        for (i, j), v in self.terms.items():
            for (k, l), w in other.terms.items():
                add_into(out, (i * other.nrows + k, j * other.ncols + l), v * w)
        return self._like(out, (self.nrows * other.nrows, self.ncols * other.ncols,
                                self.order))

    def transpose(self):
        return self._like({(j, i): v for (i, j), v in self.terms.items()},
                          (self.ncols, self.nrows, self.order))

    def truncate(self, new_order):
        out = {}
        for key, v in self.terms.items():
            add_into(out, key, v.truncate(new_order))
        return self._like(out, (self.nrows, self.ncols, new_order))

    def divide_exact(self, k):
        """Divide every entry by h^k; the result carries order - k."""
        return Matrix(self.nrows, self.ncols, self.order - k,
                      {key: v.divide_exact(k) for key, v in self.terms.items()})

    def nilpotent_powers(self):
        """[I, N, N^2, ...] for this matrix N, up to its last nonzero power."""
        n, order = self.nrows, self.order
        if n != self.ncols:
            raise ValueError(f"power series of a non-square {n}x{self.ncols} matrix")
        powers = [Matrix.identity(n, order)]
        power = self
        for _ in range(n * (order + 2) + 1):
            if power.is_zero():
                return powers
            powers.append(power)
            power = power * self
        raise ValueError(f"{n}x{n} matrix is not nilpotent at order {order}")

    def exp_nilpotent(self):
        """exp of a nilpotent matrix; raises if powers fail to vanish."""
        return power_sum(self.nilpotent_powers(), lambda k: Fraction(1, factorial(k)))

    def log_unipotent(self):
        """log of I + N with N nilpotent."""
        n = self - Matrix.identity(self.nrows, self.order)
        return power_sum(n.nilpotent_powers(),
                         lambda k: Fraction((-1) ** (k + 1), k) if k else 0)

    def inverse_unipotent(self):
        """Exact inverse of I + N with N nilpotent (Neumann series)."""
        n = self - Matrix.identity(self.nrows, self.order)
        return power_sum(n.nilpotent_powers(), lambda k: (-1) ** k)

    def __str__(self):
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(self.ncols):
                v = self.get(i, j)
                row.append("0" if v.is_zero() else str(v).split(" (mod")[0])
            rows.append("[" + ", ".join(row) + "]")
        return "[" + ",\n ".join(rows) + "]"

    __repr__ = __str__

    def to_json(self):
        return {"shape": [self.nrows, self.ncols], "order": self.order,
                "entries": [{"pos": [i, j], "value": v.to_json()}
                            for (i, j), v in sorted(self.terms.items())]}


def power_sum(powers, coeff):
    """sum_k coeff(k) N^k from the table [I, N, N^2, ...] of nilpotent_powers."""
    return combine(((coeff(k), power) for k, power in enumerate(powers)), powers[0])


def _dim(j):
    return HalfInt.of(j).twice + 1


def widx(j, m):
    """Index of weight m in the ascending weight basis of spin j."""
    return (HalfInt.of(j) + HalfInt.of(m)).as_int()


class Rep:
    """A representation given by its generator matrices and twist exponent."""

    __slots__ = ("j0", "jp", "jm", "sigma", "dim", "order", "one", "_powers", "_exps")

    def __init__(self, j0, jp, jm, sigma, order):
        self.j0, self.jp, self.jm, self.sigma = j0, jp, jm, sigma
        self.dim = j0.nrows
        self.order = order
        self.one = Matrix.identity(self.dim, order)
        self._powers = None
        self._exps = {}

    def exp_sigma(self, alpha):
        """exp(alpha * s) = sum_k alpha^k/k! s^k for a rational alpha, built
        once per alpha from the one table of powers of s."""
        alpha = alpha.as_fraction() if isinstance(alpha, HalfInt) else Fraction(alpha)
        exp = self._exps.get(alpha)
        if exp is None:
            if self._powers is None:
                self._powers = self.sigma.nilpotent_powers()
            exp = self._exps[alpha] = power_sum(self._powers,
                                                lambda k: alpha ** k / factorial(k))
        return exp


@lru_cache(maxsize=None)
def spin_rep(j, order):
    """The spin-j representation with ascending weight basis, built once."""
    j = HalfInt.of(j)
    n = _dim(j)
    j0 = Matrix(n, n, order, {(widx(j, m), widx(j, m)): Fraction((2 * m).as_int())
                              for m in weights(j)})
    jp = Matrix(n, n, order, {(widx(j, m + 1), widx(j, m)):
                              HSeries.constant(ladder_coeff(j, m, +1), order)
                              for m in weights(j) if m < j})
    jm = Matrix(n, n, order, {(widx(j, m - 1), widx(j, m)):
                              HSeries.constant(ladder_coeff(j, m, -1), order)
                              for m in weights(j) if m > -j})
    # s = -log(1 - 2h Jp) = sum_k (2h Jp)^k / k, a finite sum by nilpotency
    sigma = power_sum(jp.scale(HSeries.h_power(1, order, 2)).nilpotent_powers(),
                      lambda k: Fraction(1, k) if k else 0)
    return Rep(j0, jp, jm, sigma, order)


def exp_sigma_entry(j, k, alpha, m, order):
    """Matrix element <j k| exp(alpha*s) |j m> as an HSeries."""
    return spin_rep(j, order).exp_sigma(alpha).get(widx(j, k), widx(j, m))


def direct_sum(blocks, order):
    """The block-diagonal matrix of the square blocks, the first one top left."""
    out, base = {}, 0
    for block in blocks:
        for (i, k), v in block.terms.items():
            out[(base + i, base + k)] = v
        base += block.nrows
    return Matrix.zero(base, base, order)._like(out)


def twist_matrix_oracle(j1, j2, order):
    """F = exp(-J0 (x) s / 2): the direct sum of the blocks exp(-m1*s) on spin
    j2 over the weights m1 of j1."""
    rep = spin_rep(j2, order)
    return direct_sum((rep.exp_sigma(-m1) for m1 in weights(j1)), order)


def _dfact(n):
    """Double factorial with n!! = 1 for n <= 0."""
    return prod(range(n, 0, -2))


def _twist_rational(m1t, d):
    """(qn, qd): the rational part qn/qd of a closed-form twist entry of
    weight m1 = m1t/2, m1t != 0, at h-degree d."""
    if m1t < 0:
        return _dfact(2 * d - m1t - 2), factorial(d) * _dfact(-m1t - 2)
    # the l-sum over its common denominator 2^d d! (m1t-2)!!
    qn = (-2) ** d * sum((-1) ** l * comb(m1t, d - l) * _dfact(2 * l + m1t - 2)
                         * 2 ** (d - l) * (factorial(d) // factorial(l))
                         for l in range(d + 1))
    return qn, 2 ** d * factorial(d) * _dfact(m1t - 2)


def twist_formula_blocks(j2, m1s, order):
    """The closed-form blocks exp(-m1*s) on spin j2, {m1: Matrix} for m1 in m1s.

    The entry at (k2, m2) is the monomial q*sqrt(ratio)*h^d with
    d = k2 - m2 >= 0.  With the basis indices a = j2 + m2 and b = j2 + k2,
    ratio = (2j2-a)! b! / (a! (2j2-b)!) depends on (a, b) alone, so each
    radical is factored once for all the blocks; the rational q depends on
    (m1, d) alone.  Entries with d > order are cut.  The m1 = 0 block is the
    identity (exp(0) = 1); the double-factorial product is empty there, so
    that case is handled separately.  Each entry is built in canonical form
    from one numerator over one denominator.
    """
    n2 = _dim(j2)
    top = n2 - 1
    degrees = range(min(top, order) + 1)
    roots = {(a, a + d): sqrt_ratio(factorial(top - a) * factorial(a + d),
                                    factorial(a) * factorial(top - a - d))
             for d in degrees for a in range(n2 - d)}
    blocks = {}
    for m1 in m1s:
        m1t = HalfInt.of(m1).twice
        if m1t == 0:
            blocks[m1] = Matrix.identity(n2, order)
            continue
        out = {}
        for d in degrees:
            qn, qd = _twist_rational(m1t, d)
            if not qn:
                continue
            for a in range(n2 - d):
                root = roots[(a, a + d)]
                [((_, r), rn)] = root.num.items()
                num, den = qn * rn, qd * root.den
                g = gcd(num, den)
                out[(a + d, a)] = HSeries._new({(d, r): num // g}, den // g, order)
        blocks[m1] = Matrix.zero(n2, n2, order)._like(out)
    return blocks


def twist_matrix_formula(j1, j2, order):
    """F from the closed form: the direct sum of its blocks over the weights of j1."""
    blocks = twist_formula_blocks(j2, weights(j1), order)
    return direct_sum(blocks.values(), order)


def twist_inverse(j1, j2, order):
    return twist_matrix_oracle(j1, j2, order).inverse_unipotent()


def anti_transpose(mat):
    """Mirror a square matrix in its antidiagonal: (r, c) -> (N-1-c, N-1-r).

    widx(j, -m) = 2j - widx(j, m), so on one spin, or on a spin pair with
    flat indices, this negates every weight label and transposes.  It
    reverses products: AT(X Y) = AT(Y) AT(X).
    """
    last = mat.nrows - 1
    return mat._like({(last - c, last - r): v for (r, c), v in mat.terms.items()})


def universal_r_rep(j1, j2, order):
    """R = F21 F^(-1) on the spin-(j1, j2) module; F21 is F of (j2, j1), legs swapped."""
    n1, n2 = _dim(HalfInt.of(j1)), _dim(HalfInt.of(j2))
    f21 = flip_tensor(twist_matrix_oracle(j2, j1, order), n2, n1)
    return f21 * twist_inverse(j1, j2, order)


def flip_tensor(mat, n1, n2):
    """Conjugate by the flip V1 (x) V2 -> V2 (x) V1."""
    out = {}
    for (i, j), v in mat.terms.items():
        a, b = divmod(i, n2)
        c, d = divmod(j, n2)
        out[(b * n1 + a, d * n1 + c)] = v
    return Matrix(n1 * n2, n1 * n2, mat.order, out)


def r_triangularity_check(j1, j2, order):
    """R21 R = 1, the triangularity of the universal R-matrix."""
    n1, n2 = _dim(HalfInt.of(j1)), _dim(HalfInt.of(j2))
    r = {pair: universal_r_rep(*pair, order) for pair in {(j1, j2), (j2, j1)}}
    r21 = flip_tensor(r[(j2, j1)], n2, n1)
    return r21 * r[(j1, j2)] == Matrix.identity(n1 * n2, order)


def _embed_13(mat, n1, n2, n3, order):
    """Lift a matrix on legs 1 and 3 to legs (1, 2, 3) with identity in the middle."""
    out = {}
    for (i, j), v in mat.terms.items():
        a, c = divmod(i, n3)
        ap, cp = divmod(j, n3)
        for b in range(n2):
            out[((a * n2 + b) * n3 + c, (ap * n2 + b) * n3 + cp)] = v
    return Matrix(n1 * n2 * n3, n1 * n2 * n3, order, out)


def qybe_check(j1, j2, j3, order):
    """Quantum Yang-Baxter equation R12 R13 R23 = R23 R13 R12."""
    n1, n2, n3 = (_dim(HalfInt.of(x)) for x in (j1, j2, j3))
    i1 = Matrix.identity(n1, order)
    i3 = Matrix.identity(n3, order)
    r = {pair: universal_r_rep(*pair, order) for pair in {(j1, j2), (j2, j3), (j1, j3)}}
    r12 = r[(j1, j2)].kron(i3)
    r23 = i1.kron(r[(j2, j3)])
    r13 = _embed_13(r[(j1, j3)], n1, n2, n3, order)
    return r12 * r13 * r23 == r23 * r13 * r12


# ---------------------------------------------------------------------------
# twisted Hopf structure
#
# Coproduct terms are stored symbolically as (hpow, rational, left atoms,
# right atoms) and antipode terms as (hpow, rational, atoms), so the same
# tables drive the coproduct matrices, the counit axiom, both antipode axioms
# and the adjoint action.  Atoms: "J0", "Jp", "Jm", ("E", alpha) for
# exp(alpha*s).  A realization of the algebra is anything with the
# generators j0, jp, jm, a unit one, an order and exp_sigma(alpha): a Rep
# or weyl.WeylLetters.


_DELTA = {
    "J0": [(0, 1, (), ("J0",)), (0, 1, ("J0",), (("E", 1),))],
    "Jp": [(0, 1, ("Jp",), ()), (0, 1, (("E", -1),), ("Jp",))],
    "Jm": [(0, 1, ("Jm",), (("E", 1),)),
           (0, 1, (), ("Jm",)),
           (1, -1, ("J0",), (("E", 1), "J0")),
           (1, Fraction(-1, 2), ("J0", "J0"), (("E", 2),)),
           (1, Fraction(1, 2), ("J0", "J0"), (("E", 1),)),
           (1, -1, ("J0",), (("E", 2),)),
           (1, 1, ("J0",), (("E", 1),))],
}

# S of each generator; S(E^alpha) = E^(-alpha) is the rule in _antipode_word
_ANTIPODE = {
    "J0": [(0, -1, ("J0", ("E", -1)))],
    "Jp": [(0, -1, ("Jp", ("E", 1)))],
    "Jm": [(0, -1, ("Jm", ("E", -1))),
           (1, Fraction(-1, 2), ("J0", "J0", ("E", -2))),
           (1, Fraction(-1, 2), ("J0", "J0", ("E", -1))),
           (1, 1, ("J0", ("E", -2))),
           (1, -1, ("J0", ("E", -1)))],
}


def _product(rep, factors):
    """The product of the factors, from the first one on; rep.one if none."""
    factors = list(factors)
    return reduce(mul, factors) if factors else rep.one


def _word(rep, atoms):
    """The product of the atoms in the realization rep."""
    return _product(rep, (getattr(rep, atom.lower()) if isinstance(atom, str)
                          else rep.exp_sigma(atom[1]) for atom in atoms))


def _combination(rep, terms, evaluate=_word):
    """sum of h^hpow * q * evaluate(rep, atoms) over (hpow, q, atoms) in terms."""
    return combine(((HSeries.h_power(hpow, rep.order, q), evaluate(rep, atoms))
                    for hpow, q, atoms in terms), rep.one)


def _antipode_word(rep, atoms):
    """S of a word: an antimap, so the images of the atoms multiply in reverse."""
    return _product(rep, (_combination(rep, _ANTIPODE[atom]) if isinstance(atom, str)
                          else rep.exp_sigma(-atom[1]) for atom in reversed(atoms)))


def adjoint(rep, gen):
    """The adjoint action t -> sum gen_(1) t S(gen_(2)) of a generator on rep.

    The terms of Delta(gen) that share a left word are summed into one right
    factor first, so each left word multiplies t once; the empty left word
    leaves t as it is.
    """
    right = {}
    for hpow, q, lw, rw in _DELTA[gen]:
        right.setdefault(lw, []).append((hpow, q, rw))
    legs = [(_word(rep, lw) if lw else None, _combination(rep, terms, _antipode_word))
            for lw, terms in right.items()]
    return lambda t: combine(((1, (t if left is None else left * t) * r) for left, r in legs),
                             rep.one)


def _counit_word(atoms, order):
    """Counit of a product of atoms: zero if any J appears, else one."""
    for atom in atoms:
        if atom in ("J0", "Jp", "Jm"):
            return HSeries.zero(order)
    return HSeries.one(order)


def coproduct_matrix(r1, r2, gen, word=_word):
    """Matrix of the twisted coproduct of a generator on r1 (x) r2."""
    return combine(((HSeries.h_power(hpow, r1.order, q), word(r1, left).kron(word(r2, right)))
                    for hpow, q, left, right in _DELTA[gen]),
                   Matrix.zero(r1.dim * r2.dim, r1.dim * r2.dim, r1.order))


def twisted_tensor(r1, r2, word=_word):
    """Tensor product representation through the twisted coproduct."""
    sigma = r1.sigma.kron(r2.one) + r1.one.kron(r2.sigma)
    return Rep(*(coproduct_matrix(r1, r2, gen, word) for gen in ("J0", "Jp", "Jm")),
               sigma, r1.order)


def _once(evaluate):
    """evaluate(rep, atoms) evaluated once per (rep, atoms); a Rep hashes by identity."""
    seen = {}

    def once(rep, atoms):
        key = (rep, atoms)
        if key not in seen:
            seen[key] = evaluate(rep, atoms)
        return seen[key]
    return once


def twisted_hopf_suite(j1, j2, j3, order):
    """All Hopf-algebra checks that live on representation matrices.

    Returns {check name: bool}.  Coassociativity is checked on the triple
    (j1, j2, j3); the other checks run on (j1, j2) and on j1 alone.  Each
    word and each antipode word of a representation is evaluated once.
    """
    r1 = spin_rep(j1, order)
    r2 = spin_rep(j2, order)
    r3 = spin_rep(j3, order)
    word, antipode_word = _once(_word), _once(_antipode_word)
    out = {}

    t12 = twisted_tensor(r1, r2, word)
    # the coproduct must again satisfy the defining relations
    out["coproduct_is_algebra_map"] = (
        t12.j0 * t12.jp - t12.jp * t12.j0 == t12.jp.scale(2)
        and t12.j0 * t12.jm - t12.jm * t12.j0 == t12.jm.scale(-2)
        and t12.jp * t12.jm - t12.jm * t12.jp == t12.j0)
    # the twist exponent is primitive for the twisted coproduct
    out["sigma_primitive"] = \
        (t12.one - t12.jp.scale(HSeries.h_power(1, order, 2))).log_unipotent() == -t12.sigma

    left = twisted_tensor(t12, r3, word)
    t23 = t12 if (j2, j3) == (j1, j2) else twisted_tensor(r2, r3, word)
    right = twisted_tensor(r1, t23, word)
    out["coassociativity"] = (left.j0 == right.j0 and left.jp == right.jp
                              and left.jm == right.jm and left.sigma == right.sigma)

    counit_ok = True
    antipode_ok = True
    for rep in dict.fromkeys((r1, r2)):
        for gen in ("J0", "Jp", "Jm"):
            # (counit (x) id) and (id (x) counit) applied to the coproduct
            terms = [(HSeries.h_power(hpow, order, q), lw, rw) for hpow, q, lw, rw in _DELTA[gen]]
            lsum = combine(((c * _counit_word(lw, order), word(rep, rw)) for c, lw, rw in terms),
                           rep.one)
            rsum = combine(((c * _counit_word(rw, order), word(rep, lw)) for c, lw, rw in terms),
                           rep.one)
            ssum = combine(((c, antipode_word(rep, lw) * word(rep, rw)) for c, lw, rw in terms),
                           rep.one)
            tsum = combine(((c, word(rep, lw) * antipode_word(rep, rw)) for c, lw, rw in terms),
                           rep.one)
            g = word(rep, (gen,))
            counit_ok = counit_ok and lsum == g and rsum == g
            # counit of every generator vanishes, so both antipode sums must too
            antipode_ok = antipode_ok and ssum.is_zero() and tsum.is_zero()
    out["counit_axiom"] = counit_ok
    out["antipode_axiom"] = antipode_ok

    # S(s) = -s: the anti-automorphism sends 1 - 2h Jp to 1 - 2h S(Jp),
    # whose log must come out as +s so that S(s) = -log(...) = -s
    dressed = antipode_word(r1, ("Jp",)).scale(HSeries.h_power(1, order, 2))
    out["antipode_of_sigma"] = (r1.one - dressed).log_unipotent() == r1.sigma

    return out


def ohn_suite(j, order):
    """Verify the hyperbolic-function presentation of the deformed algebra.

    With H = exp(-s/2) J0, X = s/(2h) and
    Y = exp(-s/2)(Jm + (h/2) J0^2) - (h/8) exp(s/2)(exp(-s) - 1),
    the relations are
        [X, Y] = H,
        [H, X] = 2 sinh(hX)/h,
        [H, Y] = -(Y cosh(hX) + cosh(hX) Y).
    X carries an explicit 1/h, so the first two relations are compared after
    exact division by h, at truncation order reduced by one.
    """
    rep = spin_rep(j, order)
    half = Fraction(1, 2)
    emh = rep.exp_sigma(-half)
    eph = rep.exp_sigma(half)
    em1 = rep.exp_sigma(-1)

    hmat = emh * rep.j0
    ymat = emh * (rep.jm + (rep.j0 * rep.j0).scale(HSeries.h_power(1, order, half))) \
        - (eph * (em1 - rep.one)).scale(HSeries.h_power(1, order, Fraction(1, 8)))
    # sinh and cosh of hX = s/2, finite sums by nilpotency
    sinh = (eph - emh).scale(half)
    cosh = (eph + emh).scale(half)

    out = {}
    lhs = (rep.sigma * ymat - ymat * rep.sigma).divide_exact(1).scale(half)
    out["xy_commutator"] = lhs == hmat.truncate(order - 1)
    lhs = (hmat * rep.sigma - rep.sigma * hmat).divide_exact(1).scale(half)
    out["hx_commutator"] = lhs == sinh.divide_exact(1).scale(2)
    out["hy_commutator"] = hmat * ymat - ymat * hmat == -(ymat * cosh + cosh * ymat)
    return out


def cocycle_check(j1, j2, j3, order):
    """The twist satisfies the cocycle identity on a triple product.

    F12 ((Delta (x) id) F) = F23 ((id (x) Delta) F) with the undeformed
    coproduct Delta.
    """
    r1 = spin_rep(j1, order)
    r2 = spin_rep(j2, order)
    r3 = spin_rep(j3, order)
    i1, i3 = r1.one, r3.one
    half = HSeries.constant(Fraction(-1, 2), order)

    f12 = twist_matrix_oracle(j1, j2, order).kron(i3)
    f23 = i1.kron(twist_matrix_oracle(j2, j3, order))
    dj0_12 = r1.j0.kron(r2.one) + i1.kron(r2.j0)
    lhs_arg = dj0_12.kron(r3.sigma).scale(half)
    djp_23 = r2.jp.kron(i3) + r2.one.kron(r3.jp)
    dsigma_23 = -(Matrix.identity(r2.dim * r3.dim, order)
                  - djp_23.scale(HSeries.h_power(1, order, 2))).log_unipotent()
    rhs_arg = r1.j0.kron(dsigma_23).scale(half)
    return f12 * lhs_arg.exp_nilpotent() == f23 * rhs_arg.exp_nilpotent()


def cg_matrix(j1, j2, order):
    """Columns are classical coupled states, ordered by (j, m) ascending."""
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    n1, n2 = _dim(j1), _dim(j2)
    cols = coupled_labels(j1, j2)
    out = {}
    for col, (j, m) in enumerate(cols):
        for m1 in weights(j1):
            m2 = m - m1
            if abs(m2.twice) > j2.twice:
                continue
            c = cgc(j1, j2, j, m1, m2)
            if not c.is_zero():
                out[(widx(j1, m1) * n2 + widx(j2, m2), col)] = HSeries.constant(c, order)
    return Matrix.zero(n1 * n2, n1 * n2, order)._like(out)


def coupled_labels(j1, j2):
    """(j, m) pairs labelling the coupled basis, spins then weights ascending."""
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    out = []
    for j in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2):
        out.extend((j, m) for m in weights(j))
    return out


def coupled_basis_suite(j1, j2, order):
    """The twisted coupled basis B = F C block-diagonalizes the coproduct.

    Checks that C is orthogonal, that B^(-1) (twisted coproduct) B equals the
    direct sum of the classical spin-k matrices, and that the twisted ladder
    action on B-columns has the undeformed matrix elements.
    """
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    r1 = spin_rep(j1, order)
    r2 = spin_rep(j2, order)
    n = r1.dim * r2.dim
    out = {}
    c = cg_matrix(j1, j2, order)
    out["cg_orthogonal"] = c.transpose() * c == Matrix.identity(n, order)
    f = twist_matrix_oracle(j1, j2, order)
    b = f * c
    binv = c.transpose() * f.inverse_unipotent()
    out["b_inverse"] = binv * b == Matrix.identity(n, order)

    # the coupled basis runs over the spins k ascending, weights ascending
    # within each, so the expected matrices are direct sums of spin-k blocks
    blocks = [spin_rep(k, order)
              for k in half_range(HalfInt(abs(j1.twice - j2.twice)), j1 + j2)]
    t12 = twisted_tensor(r1, r2)
    for gen in ("J0", "Jp", "Jm"):
        conj = binv * getattr(t12, gen.lower()) * b
        expect = direct_sum((getattr(block, gen.lower()) for block in blocks), order)
        out[f"block_{gen}"] = conj == expect
    return out
