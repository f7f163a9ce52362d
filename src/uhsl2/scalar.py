"""Exact scalar arithmetic, and the sparse container built on it.

Two number types, one layout:

  HSeries     polynomial in the deformation parameter h, truncated at a
              fixed order, stored sparse as integer numerators {(k, r): n}
              of n*sqrt(r)*h^k over one denominator (r square-free).
  RadicalSum  the order-0 HSeries: an exact constant sum_r q_r*sqrt(r),
              which lifts to the order of any series it meets.
  HalfInt     half-integer spin / weight labels, stored as twice the value.

SeriesCombination is the finite sum {key: HSeries} shared by the polynomial
algebras, the rewriting-engine elements and the matrices.

RadicalSum is an exact ring; general division is not defined, but a sum
consisting of a single term q*sqrt(r) has the exact inverse (1/(q*r))*sqrt(r).
That is the only inversion the rest of the package ever needs.
"""

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, lcm


def _square_free_split(n):
    """Return (s, r) with n = s*s*r and r square-free, for n >= 1."""
    if n <= 0:
        raise ValueError(f"need a positive integer under the square root, got {n}")
    s, r, m, d = 1, 1, n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * m


@lru_cache(maxsize=None)
def _radical_product(r1, r2):
    """(s, r) with sqrt(r1)*sqrt(r2) = s*sqrt(r), r square-free."""
    return _square_free_split(r1 * r2)


def sqrt_ratio(p, q=1, n=1, d=1):
    """The constant (n/d)*sqrt(p/q) as a canonical RadicalSum, for ints
    p >= 0 and q, d >= 1.  p/q need not be reduced, since
    sqrt(p/q) = sqrt(p*q)/q whatever factor they share."""
    if p < 0:
        raise ValueError(f"sqrt of negative rational {p}/{q}")
    if not n or not p:
        return RadicalSum.zero()
    s, r = _square_free_split(p * q)
    num, den = n * s, d * q
    g = gcd(num, den)
    return RadicalSum._new({(0, r): num // g}, den // g, 0)


def _over_lcm(terms):
    """(num, den) of {key: int or Fraction}: over the lcm of the reduced
    denominators the numerators are coprime to den already."""
    terms = {key: q for key, q in terms.items() if q}
    den = lcm(*(q.denominator for q in terms.values()))
    return {key: q.numerator * (den // q.denominator) for key, q in terms.items()}, den


def _numerator_product(num1, num2, order, out):
    """Add the sparse product of two numerator dicts {(k, r): int}, up to
    h^order, into the numerator dict out, and return out."""
    for (i, r1), a in num1.items():
        for (j, r2), b in num2.items():
            if i + j > order:
                continue
            s, r = _radical_product(r1, r2)
            key = (i + j, r)
            out[key] = out.get(key, 0) + a * b * s
    return out


def _radical_str(terms):
    """q1*sqrt(r1) + q2*sqrt(r2) + ... from [[n, d, r], ...]; "0" if empty."""
    parts = []
    for n, d, r in terms:
        q = str(n) if d == 1 else f"{n}/{d}"
        parts.append(q if r == 1 else f"sqrt({r})" if q == "1" else
                     f"-sqrt({r})" if q == "-1" else f"{q}*sqrt({r})")
    return " + ".join(parts).replace("+ -", "- ") or "0"


class HSeries:
    """Truncated polynomial sum_{k<=order} c_k*h^k with RadicalSum coefficients.

    Stored sparse over one denominator, like FLINT's fmpq_poly without the
    zeros: c_k = sum_r num[(k, r)]/den * sqrt(r), where num holds only the
    nonzero integer numerators and den > 0.  The form is canonical (no zero
    entry, 0 <= k <= order, den coprime to the numerators), so == and hash
    compare (order, den, num).  Series are immutable; num dicts may be shared
    and are never written to.

    Arithmetic requires both operands to carry the same truncation order;
    mixing orders silently would hide loss of precision, so it is an error.
    The exception is an exact constant, a RadicalSum, int or Fraction: it
    lifts to the order of the series it meets.
    """

    __slots__ = ("num", "den", "order")

    def __init__(self, coeffs, order):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.num, self.den = _over_lcm({(k, r): q for k, c in enumerate(coeffs)
                                        for r, q in _radical(c).terms.items()})
        self.order = order

    @classmethod
    def _new(cls, num, den, order):
        """Trusted constructor: num and den are already in canonical form."""
        out = object.__new__(cls)
        out.num, out.den, out.order = num, den, order
        return out

    @classmethod
    def _make(cls, num, den, order):
        """Canonical series from integer numerators over den > 0: reduce, drop zeros."""
        if 0 in num.values():
            num = {key: a for key, a in num.items() if a}
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: a // g for key, a in num.items()}
        return cls._new(num, den // g, order)

    @staticmethod
    def zero(order):
        return HSeries._new({}, 1, order)

    @staticmethod
    def one(order):
        return HSeries._new({(0, 1): 1}, 1, order)

    @staticmethod
    def constant(value, order):
        """An exact constant at the given order; its numerators sit at h^0 already."""
        value = _radical(value)
        return HSeries._new(value.num, value.den, order)

    @staticmethod
    def h_power(k, order, value=1):
        """value * h^k at the given truncation order."""
        if k > order:
            return HSeries.zero(order)
        value = _radical(value)
        return HSeries._new({(k, r): a for (_, r), a in value.num.items()}, value.den, order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def _coerced(self, other):
        """other at this order, a constant lifted to it; None for a non-scalar."""
        if type(other) is HSeries:
            return other
        if isinstance(other, (int, Fraction, RadicalSum)):
            return HSeries.constant(other, self.order)
        return None

    def is_zero(self):
        return not self.num

    def coeff(self, k):
        """The RadicalSum coefficient of h^k, for 0 <= k <= order."""
        if not 0 <= k <= self.order:
            raise ValueError(f"no h^{k} coefficient in an order-{self.order} series")
        return RadicalSum._make({(0, r): a for (i, r), a in self.num.items() if i == k},
                                self.den, 0)

    # all order + 1 coefficients as RadicalSums, built on each read
    coeffs = property(lambda self: [self.coeff(k) for k in range(self.order + 1)])

    def is_constant(self):
        """Whether every coefficient above h^0 vanishes."""
        return all(k == 0 for k, _ in self.num)

    def _plus(self, other, sign):
        """self + sign*other, over the lcm of the two denominators."""
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        g = gcd(self.den, other.den)
        m1, m2 = other.den // g, sign * (self.den // g)
        out = {key: a * m1 for key, a in self.num.items()}
        for key, b in other.num.items():
            out[key] = out.get(key, 0) + b * m2
        return self._make(out, self.den * m1, self.order)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -a for key, a in self.num.items()}, self.den, self.order)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _times(self, n, d):
        """self * n/d for integers n and d > 0."""
        if d == 1 and n in (1, -1):
            return self if n == 1 else -self
        return self._make({key: a * n for key, a in self.num.items()}, self.den * d, self.order)

    def __mul__(self, other):
        if type(other) is not HSeries:
            if isinstance(other, (int, Fraction)):
                return self._times(other.numerator, other.denominator)
            other = self._coerced(other)
            if other is None:
                return NotImplemented
        self._check(other)
        # a rational constant operand only rescales the other's numerators
        for a, b in ((self, other), (other, self)):
            if len(a.num) == 1 and (0, 1) in a.num:
                return b._times(a.num[(0, 1)], a.den)
        return HSeries._make(_numerator_product(self.num, other.num, self.order, {}),
                             self.den * other.den, self.order)

    __rmul__ = __mul__

    def scale(self, value):
        return self * value

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        self._check(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.order, self.den, frozenset(self.num.items())))

    def truncate(self, new_order):
        """Drop coefficients above new_order (new_order <= order)."""
        if new_order > self.order:
            raise ValueError(f"cannot raise truncation order {self.order} -> {new_order}")
        return HSeries._make({key: a for key, a in self.num.items() if key[0] <= new_order},
                             self.den, new_order)

    def divide_exact(self, k):
        """Exact division by h^k.  The result only carries order - k.

        The low coefficients must vanish; the information above order - k
        simply does not exist in the operand, so the result is shorter.
        """
        if k == 0:
            return self
        if k < 0 or k > self.order:
            raise ValueError(f"cannot divide order-{self.order} series by h^{k}")
        v = self.valuation()
        if v is not None and v < k:
            raise ValueError(f"series not divisible by h^{k}: h^{v} term is {self.coeff(v)}")
        return HSeries._new({(i - k, r): a for (i, r), a in self.num.items()},
                            self.den, self.order - k)

    def valuation(self):
        """Lowest k with a nonzero h^k coefficient, or None for the zero series."""
        return min((k for k, _ in self.num), default=None)

    def at_h0(self):
        return self.coeff(0)

    def invert_unit(self):
        """Exact inverse of a series whose constant term is a single radical term."""
        c0 = self.at_h0()
        c0inv = c0.invert()
        # Neumann series in the nilpotent part (self - c0)/c0
        step = (self - c0).scale(-c0inv)
        term = acc = HSeries.one(self.order)
        for _ in range(self.order):
            term = term * step
            if term.is_zero():
                break
            acc = acc + term
        return acc.scale(c0inv)

    def _rows(self):
        """{k: [[n, d, r], ...]}: the terms n/d*sqrt(r) of each nonzero h^k
        coefficient, n/d in lowest terms, sorted by (k, r)."""
        rows = {}
        for (k, r), a in sorted(self.num.items()):
            g = gcd(a, self.den)
            rows.setdefault(k, []).append([a // g, self.den // g, r])
        return rows

    def __str__(self):
        parts = []
        for k, terms in self._rows().items():
            cs = _radical_str(terms)
            if " " in cs:
                cs = f"({cs})"
            hk = "h" if k == 1 else f"h^{k}"
            parts.append(cs if k == 0 else hk if cs == "1" else
                         f"-{hk}" if cs == "-1" else f"{cs}*{hk}")
        body = " + ".join(parts).replace("+ -", "- ") or "0"
        return f"{body} (mod h^{self.order + 1})"

    __repr__ = __str__

    def to_json(self):
        rows = self._rows()
        return {"order": self.order, "coeffs": [rows.get(k, []) for k in range(self.order + 1)]}


class RadicalSum(HSeries):
    """Finite sum sum_r q_r*sqrt(r), r square-free positive, q_r rational:
    the order-0 HSeries {(0, r): num} over one den, an exact constant.

    Constants combine with constants, ints and Fractions into constants.
    Against any other series each operator returns NotImplemented (through
    _coerced), and the series lifts the constant to its own order.  The sums
    are the series' own methods, restated here because perfbench's tracer
    counts constant sums through this class's own entries; constant products
    multiply numerators directly.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.num, self.den = _over_lcm({(0, r): Fraction(q) for r, q in (terms or {}).items()})
        self.order = 0

    @staticmethod
    def zero():
        return RadicalSum._new({}, 1, 0)

    @staticmethod
    def one():
        return RadicalSum._new({(0, 1): 1}, 1, 0)

    # {radicand: Fraction}, built on each read
    terms = property(lambda self: {r: Fraction(a, self.den) for (_, r), a in self.num.items()})

    def _coerced(self, other):
        if type(other) is RadicalSum:
            return other
        return _radical(other) if isinstance(other, (int, Fraction)) else None

    __add__ = __radd__ = HSeries.__add__

    def __mul__(self, other):
        if type(other) is RadicalSum:
            return RadicalSum._make(_numerator_product(self.num, other.num, 0, {}),
                                    self.den * other.den, 0)
        if isinstance(other, (int, Fraction)):
            return self._times(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def invert(self):
        """Exact inverse; defined only when the sum has a single term:
        1/(a/den*sqrt(r)) = den/(a*r)*sqrt(r)."""
        if len(self.num) != 1:
            raise ValueError(f"cannot invert multi-term radical sum {self}")
        [((_, r), a)] = self.num.items()
        return RadicalSum._make({(0, r): self.den if a > 0 else -self.den}, abs(a) * r, 0)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("radical division by zero")
            return self * (1 / Fraction(other))
        if isinstance(other, RadicalSum):
            return self * other.invert()
        return NotImplemented

    def __str__(self):
        return _radical_str(self._rows().get(0, []))

    __repr__ = __str__

    def to_json(self):
        """List of [numerator, denominator, radicand] triples, sorted by radicand."""
        return self._rows().get(0, [])


def _radical(value):
    """An int, Fraction or RadicalSum as a RadicalSum."""
    if isinstance(value, RadicalSum):
        return value
    return RadicalSum._new({(0, 1): value.numerator} if value else {}, value.denominator, 0)


SCALARS = (int, Fraction, HSeries)


def _over_one_denominator(terms):
    """The numerator dicts of a {key: HSeries} sum over the lcm of its denominators."""
    den = lcm(*(c.den for c in terms.values()))
    return [(key, c.num if c.den == den else
             {k: a * (den // c.den) for k, a in c.num.items()})
            for key, c in terms.items()], den


def normal_product(terms1, terms2, reorder, order):
    """The product of two normal-ordered sums {(p, q): HSeries} of x^p y^q.

    reorder(q1, p2) lists y^q1 x^p2 in normal order as entries (dp, dq, t, e),
    each the term e*h^t x^dp y^dq with e an int.  Each pair of terms
    multiplies its numerators once; each output monomial collects its
    numerators in one dict over the product of the operands' denominators,
    and becomes one series at the end.
    """
    nums1, den1 = _over_one_denominator(terms1)
    nums2, den2 = _over_one_denominator(terms2)
    acc = {}
    for (p1, q1), a in nums1:
        for (p2, q2), b in nums2:
            num = _numerator_product(a, b, order, {})
            if not num:
                continue
            for dp, dq, t, e in reorder(q1, p2):
                if t > order:
                    continue
                sums = acc.setdefault((p1 + dp, dq + q2), {})
                for (k, r), c in num.items():
                    if k + t <= order:
                        key = (k + t, r)
                        sums[key] = sums.get(key, 0) + c * e
    return _series_of_sums(acc, den1 * den2, order)


def _series_of_sums(sums, den, order):
    """{key: HSeries} from {key: numerator dict} over den, dropping the zeros."""
    return {key: c for key, num in sums.items() if (c := HSeries._make(num, den, order)).num}


def as_series(c, order):
    """A scalar as an HSeries of the given order: a constant lifts to it, a
    series must already have it."""
    if type(c) is HSeries:
        if c.order != order:
            raise ValueError(f"coefficient order {c.order} != element order {order}")
        return c
    return HSeries.constant(c, order)


def add_into(acc, key, c):
    """acc[key] += c, dropping the key when the sum is zero."""
    old = acc.get(key)
    if old is not None:
        c = old + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


class SeriesCombination:
    """A finite sum {key: HSeries} in one space, at one truncation order.

    The linear and ring arithmetic lives here, once.  A subclass names its
    space in `space`; two elements combine only when their types and spaces
    are equal, and a space mismatch raises ValueError.  The subclass supplies
    `order`, `unit_keys` (where the unit element has coefficient 1) and
    `__mul__` for two elements.  Scalars act as multiples of the unit.
    `terms` never holds a zero coefficient.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = {}
        for key, c in (terms or {}).items():
            add_into(self.terms, key, as_series(c, self.order))

    def _like(self, terms, space=None):
        """Trusted constructor: terms are nonzero series of this order."""
        out = object.__new__(type(self))
        out.space = self.space if space is None else space
        out.terms = terms
        return out

    def _coerce(self, other):
        """other as an element of this space, or None if it cannot be one."""
        if isinstance(other, SCALARS):
            return self.constant(other)
        if type(other) is not type(self):
            return None
        if other.space != self.space:
            raise ValueError(f"cannot combine {type(self).__name__} elements of "
                             f"different spaces: {self.space!r} vs {other.space!r}")
        return other

    def constant(self, c):
        """c times the unit element of this space."""
        c = as_series(c, self.order)
        out = {}
        for key in self.unit_keys:
            add_into(out, key, c)
        return self._like(out)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_into(out, key, c)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = as_series(c, self.order)
        out = {}
        for key, v in self.terms.items():
            add_into(out, key, v * c)
        return self._like(out)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"bad power {n}")
        out = self.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = self.constant(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms


def combine(pairs, like):
    """sum c*x over the (c, x) pairs, each c a scalar and each x of like's
    type and space (else ValueError); like's zero when there are none.  The
    coefficients and the terms each go over one denominator, and each key's
    series is built once from its summed integer numerator products."""
    order = like.order
    kept = []
    for c, x in pairs:
        if type(x) is not type(like) or x.space != like.space:
            raise ValueError(f"cannot combine a {type(x).__name__} into the "
                             f"{type(like).__name__} space {like.space!r}")
        if (c := as_series(c, order)).num:
            kept.append((c, x))
    nums, den = _over_one_denominator(dict(enumerate(c for c, _ in kept)))
    terms, common = _over_one_denominator(
        {(i, key): v for i, (_, x) in enumerate(kept) for key, v in x.terms.items()})
    sums = {}
    for (i, key), num in terms:
        _numerator_product(nums[i][1], num, order, sums.setdefault(key, {}))
    return like._like(_series_of_sums(sums, den * common, order))


class AlgebraMap:
    """The algebra map sending letter i to images[i], or with reverse=True
    the antimap, which reads every word backwards.

    Calling the map on an element sums c * image(word) over its terms
    through combine; the element's type names the letters of each key.  The
    image of each word suffix is built once, as image(first letter) *
    image(rest), and kept for as long as the map lives, so a map built once
    serves a whole family.
    """

    def __init__(self, images, reverse=False):
        self.images = images
        self.reverse = reverse
        self._words = {(): next(iter(images.values())).constant(1)}

    def _word(self, letters):
        img = self._words.get(letters)
        if img is None:
            img = self.images[letters[0]] * self._word(letters[1:])
            self._words[letters] = img
        return img

    def __call__(self, el):
        step = -1 if self.reverse else 1
        return combine(((c, self._word(el.letters(key)[::step])) for key, c in el.terms.items()),
                       self._words[()])


@total_ordering
class HalfInt:
    """Half-integer stored as twice its value, so it hashes and compares exactly."""

    __slots__ = ("twice",)

    def __init__(self, twice):
        if not isinstance(twice, int):
            raise TypeError(f"HalfInt wants twice-the-value as an int, got {twice!r}")
        self.twice = twice

    @staticmethod
    def of(value):
        """Build from an int, a Fraction with denominator 1 or 2, or a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        f = Fraction(value)
        if f.denominator not in (1, 2):
            raise ValueError(f"{value} is not a half-integer")
        return HalfInt(int(f * 2))

    @staticmethod
    def parse(text):
        """Parse '2', '-1/2', '3/2'."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError(f"bad half-integer literal {text!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(text))

    def as_int(self):
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def as_fraction(self):
        return Fraction(self.twice, 2)

    def __add__(self, other):
        other = HalfInt.of(other)
        return HalfInt(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other):
        other = HalfInt.of(other)
        return HalfInt(self.twice - other.twice)

    def __rsub__(self, other):
        return HalfInt.of(other) - self

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other):
        return self.twice < HalfInt.of(other).twice

    def __hash__(self):
        # equal to hash(self.as_fraction()), since == holds with ints and Fractions
        t = self.twice
        return hash(t // 2) if t % 2 == 0 else hash(Fraction(t, 2))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    __repr__ = __str__


def half_range(lo, hi):
    """HalfInt values lo, lo+1, ..., hi (unit steps)."""
    lo, hi = HalfInt.of(lo), HalfInt.of(hi)
    return [HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2)]


def weights(j):
    """Weights -j, -j+1, ..., j of the spin-j module."""
    j = HalfInt.of(j)
    return [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]


def spins_up_to(max_j):
    """Spins 1/2, 1, ..., max_j."""
    return [HalfInt(t) for t in range(1, HalfInt.of(max_j).twice + 1)]


def spin_pairs(max_j):
    """Every ordered pair of spins up to max_j, the first spin varying slowest."""
    spins = spins_up_to(max_j)
    return [(j, jp) for j in spins for jp in spins]
