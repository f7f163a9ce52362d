"""A radical type for the test oracles, written apart from uhsl2.scalar.

A radical is a dict {r: Fraction} standing for sum_r q_r*sqrt(r), with r
square-free and no zero entry; a series is a list of such dicts, one per
power of h.  Products go through gcd, not through the square-free split of
the package, so an oracle built on these shares no arithmetic with the ring
it checks.  `series` and `coeff_terms` only move values between the two
layouts.
"""

from fractions import Fraction
from math import gcd

from uhsl2.scalar import HSeries, RadicalSum


def rad(terms):
    """A radical from {r: int or Fraction}, zeros dropped."""
    return {r: Fraction(q) for r, q in terms.items() if q}


def rad_add(x, y, sign=1):
    out = dict(x)
    for r, q in y.items():
        out[r] = out.get(r, 0) + sign * q
    return rad(out)


def rad_mul(x, y):
    out = {}
    for r1, q1 in x.items():
        for r2, q2 in y.items():
            g = gcd(r1, r2)  # sqrt(r1 r2) = g sqrt(r1 r2 / g^2) for square-free r1, r2
            r = r1 * r2 // (g * g)
            out[r] = out.get(r, 0) + q1 * q2 * g
    return rad(out)


def rad_str(x):
    """The text of a radical: terms by radicand, '1/2 - sqrt(2)'; '0' if empty."""
    out = ""
    for r in sorted(x):
        q = x[r]
        text = (str(q) if r == 1 else f"sqrt({r})" if q == 1 else
                f"-sqrt({r})" if q == -1 else f"{q}*sqrt({r})")
        if not out:
            out = text
        elif text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out or "0"


def ref_mul(a, b):
    """The product of two coefficient lists, cut at their common length."""
    out = [{}] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:len(a) - i]):
            out[i + j] = rad_add(out[i + j], rad_mul(x, y))
    return out


def series(coeffs, order):
    """The HSeries with these radical coefficients."""
    return HSeries([RadicalSum(c) for c in coeffs], order)


def coeff_terms(s):
    """The coefficients of an HSeries as radicals."""
    return [c.terms for c in s.coeffs]
