"""The Weyl algebra [abar, a] = 1 and its h-deformed oscillator partner.

Two presentations of the same algebra:

  WeylElement  normal-ordered polynomials sum c_{pq} a^p abar^q with the
               undeformed relation abar a = a abar + 1.
  OscElement   normal-ordered polynomials in the dressed pair
               A = a exp(s/2), Abar = abar exp(-s/2) with
               [Abar, A] = 1 - h A^2, where s = -log(1 + h a^2).

Coefficients are HSeries, so every computation is exact modulo h^(order+1).
The twist exponentials exp(m*s) are (1 + h a^2)^(-m) on the Weyl side and
(1 - h A^2)^m on the oscillator side; both are computed from the generalized
binomial series and agree under the conversion maps below.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .scalar import (SCALARS, AlgebraMap, HalfInt, HSeries, SeriesCombination,
                     as_series, combine, normal_product, sqrt_ratio)
from .su2data import fact


def _gen_binom(alpha, k):
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-k+1)/k!."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    return Fraction(prod(p - i * q for i in range(k)), q ** k * fact(k))


def _scalar_of(m):
    if isinstance(m, HalfInt):
        return m.as_fraction()
    return Fraction(m)


class _NormalPoly(SeriesCombination):
    """Normal-ordered two-generator polynomial {(p, q): HSeries}; its space
    is the truncation order."""

    __slots__ = ()
    unit_keys = ((0, 0),)

    def __init__(self, terms, order):
        super().__init__(order, terms)

    order = property(lambda self: self.space)

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def one(cls, order):
        return cls({(0, 0): HSeries.one(order)}, order)

    @classmethod
    def monomial(cls, p, q, order, coeff=1):
        return cls({(p, q): as_series(coeff, order)}, order)

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._like(normal_product(self.terms, other.terms, self._reorder,
                                         self.order))

    @staticmethod
    def letters(key):
        return (0,) * key[0] + (1,) * key[1]

    def _str_names(self):
        raise NotImplementedError

    def __str__(self):
        if not self.terms:
            return "0"
        na, nb = self._str_names()
        parts = []
        for (p, q) in sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self.terms[(p, q)]
            body = str(c.at_h0()) if c.is_constant() else str(c).split(" (mod")[0]
            cs = f"({body})" if " " in body else body
            mono = "*".join(n if e == 1 else f"{n}^{e}"
                            for n, e in ((na, p), (nb, q)) if e)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        na, nb = self._str_names()
        return {"vars": [na, nb], "order": self.order,
                "terms": [{"powers": [p, q], "coeff": c.to_json()}
                          for (p, q), c in sorted(self.terms.items())]}


@lru_cache(maxsize=None)
def _weyl_reorder(q, p):
    """Normal ordering of abar^q a^p, as entries (p', q', hpower, int):
    abar^q a^p = sum_k k! C(q,k) C(p,k) a^(p-k) abar^(q-k)."""
    return tuple((p - k, q - k, 0, factorial(k) * comb(q, k) * comb(p, k))
                 for k in range(min(q, p) + 1))


@lru_cache(maxsize=None)
def _osc_reorder(q, p):
    """Normal ordering of Abar^q A^p, as entries (p', q', hpower, int).

    Uses [Abar, A^p] = p A^(p-1) (1 - h A^2), i.e.
    Abar A^p = A^p Abar + p A^(p-1) - p h A^(p+1).
    """
    if q == 0 or p == 0:
        return ((p, q, 0, 1),)
    out = {}
    for rest, dq, dt, f in ((_osc_reorder(q - 1, p), 1, 0, 1),
                            (_osc_reorder(q - 1, p - 1), 0, 0, p),
                            (_osc_reorder(q - 1, p + 1), 0, 1, -p)):
        for pp, qq, t, e in rest:
            key = (pp, qq + dq, t + dt)
            out[key] = out.get(key, 0) + e * f
    return tuple((*key, e) for key, e in out.items() if e)


class WeylElement(_NormalPoly):
    """Normal-ordered element of the Weyl algebra, abar a = a abar + 1."""

    _reorder = staticmethod(_weyl_reorder)

    def _str_names(self):
        return "a", "abar"


class OscElement(_NormalPoly):
    """Normal-ordered element of the deformed oscillator, [Abar, A] = 1 - h A^2."""

    _reorder = staticmethod(_osc_reorder)

    def _str_names(self):
        return "A", "Abar"


@lru_cache(maxsize=None)
def _binomial_in_square(cls, alpha, sign, order):
    """(1 + sign*h*x^2)^alpha with x the first generator of cls."""
    return cls({(2 * k, 0): HSeries.h_power(k, order, _gen_binom(alpha, k) * sign ** k)
                for k in range(order + 1)}, order)


def exp_m_sigma(m, order):
    """exp(m*s) = (1 + h a^2)^(-m) in the Weyl presentation."""
    return _binomial_in_square(WeylElement, -_scalar_of(m), 1, order)


def exp_m_sigma_osc(m, order):
    """exp(m*s) = (1 - h A^2)^m in the oscillator presentation."""
    return _binomial_in_square(OscElement, _scalar_of(m), -1, order)


class WeylLetters:
    """U_h(sl(2)) realized in the Weyl letters at one truncation order:
    J+ = -a^2/2, J- = abar^2/2, J0 = (a abar + abar a)/2 = a abar + 1/2,
    and exp(alpha*s) = (1 + h a^2)^(-alpha); a realization for the Hopf
    tables of reps."""

    __slots__ = ("order", "one", "j0", "jp", "jm")

    def __init__(self, order):
        self.order = order
        self.one = WeylElement.one(order)
        self.j0 = WeylElement({(1, 1): HSeries.one(order),
                               (0, 0): HSeries.constant(Fraction(1, 2), order)}, order)
        self.jp = WeylElement.monomial(2, 0, order, Fraction(-1, 2))
        self.jm = WeylElement.monomial(0, 2, order, Fraction(1, 2))

    def exp_sigma(self, alpha):
        return exp_m_sigma(alpha, self.order)


def to_oscillator(order):
    """The map rewriting a Weyl element in the dressed generators A, Abar.

    The inverse dressing is a = A exp(-s/2), abar = Abar exp(s/2).
    """
    half = Fraction(1, 2)
    return AlgebraMap({0: OscElement.monomial(1, 0, order) * exp_m_sigma_osc(-half, order),
                       1: OscElement.monomial(0, 1, order) * exp_m_sigma_osc(half, order)})


def classical_symplecton(j, m, order, form="A"):
    """The weight-2m spin-j polynomial in a, abar, in normal order, cached."""
    return _classical_symplecton(HalfInt.of(j).twice, HalfInt.of(m).twice, order, form)


@lru_cache(maxsize=None)
def _classical_symplecton(jt, mt, order, form):
    if order:
        # free of h: built once at order 0 and lifted
        base = _classical_symplecton(jt, mt, 0, form)
        return WeylElement({key: HSeries.constant(c.at_h0(), order)
                            for key, c in base.terms.items()}, order)
    j, m = HalfInt(jt), HalfInt(mt)
    jp, jm = (j + m).as_int(), (j - m).as_int()
    if jp < 0 or jm < 0:
        raise ValueError(f"|m| > j: j={j}, m={m}")
    mono = WeylElement.monomial
    if form == "A":
        pre = sqrt_ratio(fact(2 * j) * fact(jm), fact(jp), 1, 2 ** jm)
        terms = ((pre / (fact(s) * fact(jm - s)),
                  mono(0, jm - s, order) * mono(jp, 0, order) * mono(0, s, order))
                 for s in range(jm + 1))
    elif form == "B":
        pre = sqrt_ratio(fact(2 * j) * fact(jp), fact(jm), 1, 2 ** jp)
        terms = ((pre / (fact(s) * fact(jp - s)),
                  mono(s, 0, order) * mono(0, jm, order) * mono(jp - s, 0, order))
                 for s in range(jp + 1))
    else:
        raise ValueError(f"unknown form {form!r}")
    return combine(terms, WeylElement.zero(order))


def symplecton_pivot(j, m):
    """Coefficient of the top monomial a^(j+m) abar^(j-m), a single radical."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    return sqrt_ratio(fact(2 * j), fact(j + m) * fact(j - m))


def h_symplecton(j, m, order):
    """Twisted polynomial P_j^m exp(m*s) in the Weyl presentation, cached."""
    return _h_symplecton(HalfInt.of(j).twice, HalfInt.of(m).twice, order)


@lru_cache(maxsize=None)
def _h_symplecton(jt, mt, order):
    return classical_symplecton(HalfInt(jt), HalfInt(mt), order) * exp_m_sigma(HalfInt(mt), order)


def ladder_coeff(j, m, direction):
    """sqrt((j -+ m)(j +- m + 1)) for raising (+1) or lowering (-1)."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    if direction == +1:
        n = (j - m).as_int() * (j + m + 1).as_int()
    elif direction == -1:
        n = (j + m).as_int() * (j - m + 1).as_int()
    else:
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    return sqrt_ratio(n)
