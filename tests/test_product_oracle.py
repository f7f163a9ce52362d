"""An oracle for the normal-ordered products of WeylElement and OscElement.

Both algebras act on polynomials in x: a and A as multiplication by x, abar
as d/dx and Abar as (1 - h x^2) d/dx.  A product is right when acting with it
equals acting with its two factors in turn.  The oracle keeps its own
coefficients, {(x_deg, h_deg, radicand): Fraction} truncated at the order,
and its own square-free radical product; it reads the package's elements only
through their terms and HSeries.coeff.
"""

from fractions import Fraction

import pytest

from uhsl2.scalar import HSeries, RadicalSum
from uhsl2.weyl import OscElement, WeylElement

ORDER = 3
RADICANDS = (1, 2, 3, 6)


def _sqrt_product(r1, r2):
    """(s, r) with sqrt(r1)*sqrt(r2) = s*sqrt(r) and r square-free."""
    n, s, d = r1 * r2, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        d += 1
    return s, n


def _add(acc, key, c):
    c += acc.get(key, 0)
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def _derivative(f, osc, order):
    """d/dx of f, or (1 - h x^2) d/dx of f on the oscillator side."""
    out = {}
    for (n, k, r), c in f.items():
        if n:
            _add(out, (n - 1, k, r), c * n)
            if osc and k < order:
                _add(out, (n + 1, k + 1, r), -c * n)
    return out


def act(element, f, order=ORDER):
    """The polynomial the element makes of f."""
    osc = isinstance(element, OscElement)
    out = {}
    for (p, q), series in element.terms.items():
        g = f
        for _ in range(q):
            g = _derivative(g, osc, order)
        coeffs = {(k, r): c for k in range(order + 1)
                  for r, c in series.coeff(k).terms.items()}
        for (k1, r1), c1 in coeffs.items():
            for (n, k2, r2), c2 in g.items():
                if k1 + k2 <= order:
                    s, r = _sqrt_product(r1, r2)
                    _add(out, (n + p, k1 + k2, r), c1 * c2 * s)
    return out


def element(cls, terms, order=ORDER):
    """An element from {(p, q): {(h_deg, radicand): Fraction}}."""
    return cls({key: HSeries([RadicalSum({r: c for (i, r), c in series.items() if i == k})
                              for k in range(order + 1)], order)
                for key, series in terms.items()}, order)


def assert_product_acts(x, y):
    xy = x * y
    for n in range(8):
        f = {(n, 0, 1): Fraction(1)}
        assert act(xy, f) == act(x, act(y, f)), n


@pytest.mark.parametrize("cls", [WeylElement, OscElement])
def test_products_act_as_composition_hypothesis(cls):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    series = st.dictionaries(st.tuples(st.integers(0, ORDER), st.sampled_from(RADICANDS)),
                             fractions, min_size=1, max_size=3)
    elements = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), series,
                               min_size=1, max_size=3).map(lambda t: element(cls, t))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(elements, elements)
    def law(x, y):
        assert_product_acts(x, y)

    law()


def test_oscillator_shift_past_the_order():
    # h^N Abar * A^2 = h^N (A^2 Abar + 2 A - 2h A^3); the h^(N+1) term drops
    x = OscElement.monomial(0, 1, ORDER, HSeries.h_power(ORDER, ORDER))
    y = OscElement.monomial(2, 0, ORDER)
    hn = HSeries.h_power(ORDER, ORDER)
    assert x * y == OscElement({(2, 1): hn, (1, 0): hn.scale(2)}, ORDER)
    assert_product_acts(x, y)
    # Abar^2 A^2 has h and h^2 terms, which h^(N-1) pushes past the order
    x = OscElement.monomial(0, 2, ORDER, HSeries.h_power(ORDER - 1, ORDER, Fraction(1, 3)))
    assert_product_acts(x, y)
    assert_product_acts(y, x)


@pytest.mark.parametrize("p", range(5))
def test_number_operator_commutes_with_diagonal_monomials(p):
    n = WeylElement.monomial(1, 1, ORDER)
    m = WeylElement.monomial(p, p, ORDER, HSeries.h_power(1, ORDER, 2))
    assert n.commutator(m).is_zero()
    assert_product_acts(n, m)
    assert_product_acts(m, n)
