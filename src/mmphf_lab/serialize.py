"""Serialization helpers: exact rationals as "p/q", huge integers as decimal.

All artifacts emit rationals as "p/q" strings (never floats) and
arbitrary-precision integers as decimal strings.  Monte-Carlo estimates
are the only sanctioned floats and always travel with their confidence
interval.
"""

import decimal
from contextlib import contextmanager
from fractions import Fraction

# Integers of at most this many bits go to Decimal(n) whole; wider ones are split.
_LEAF_BITS = 2048


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    """Exact rational from "p/q" or an integer; a zero denominator is a ValueError."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        try:
            return Fraction(int(p), int(q))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    return Fraction(int(s))


def int_str(x: int) -> str:
    """Decimal string of an arbitrary-precision integer, equal to `str(x)`.

    On Python 3.11 `str(int)` is quadratic; this is O(M(n) log n).  It never
    reads or sets the interpreter's int-to-str digit limit.
    """
    with exact_decimals() as to_decimal:
        return str(to_decimal(x))


@contextmanager
def exact_decimals():
    """Yield `to_decimal(x)`, the exact `Decimal` of an integer x.

    Divide and conquer through `decimal`, the method CPython 3.12 ships as
    `_pylong`: split x = hi * 2^h + lo at half its bit length and multiply
    hi by a cached Decimal(2)^h.  Up to `_LEAF_BITS` bits `Decimal(n)`
    converts directly.  Every call inside one `with` shares the cache of
    powers, and the block runs under `MAX_PREC` with `Inexact` trapped, so
    integer sums and products of the yielded values are exact as well.
    """
    D = decimal.Decimal
    pow2 = {}

    def power(h):
        if h not in pow2:
            pow2[h] = D(1 << h) if h <= _LEAF_BITS else power(h >> 1) * power(h - (h >> 1))
        return pow2[h]

    def convert(n, w):
        if w <= _LEAF_BITS:
            return D(n)
        h = w >> 1
        hi = n >> h
        return convert(hi, w - h) * power(h) + convert(n - (hi << h), h)

    def to_decimal(x: int) -> decimal.Decimal:
        d = convert(abs(x), x.bit_length())
        return d.copy_negate() if x < 0 else d

    exact = decimal.Context(
        prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact],
    )
    with decimal.localcontext(exact):
        yield to_decimal
