"""Serialization helpers: exact rationals as "p/q", huge integers as decimal.

All artifacts emit rationals as "p/q" strings (never floats) and
arbitrary-precision integers as decimal strings.  Monte-Carlo estimates
are the only sanctioned floats and always travel with their confidence
interval.
"""

import sys
from fractions import Fraction


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
    """Decimal string of an arbitrary-precision integer.

    Lifts the interpreter's int-to-str digit guard for this one conversion
    when the value is too wide for it, and puts the caller's limit back
    afterwards.  A limit of 0 already means unlimited.
    """
    limit_fn = getattr(sys, "get_int_max_str_digits", None)
    limit = limit_fn() if limit_fn is not None else 0
    # digits ~= bits * log10(2); pad generously
    need = int(x.bit_length() * 0.302) + 16
    if limit == 0 or need <= limit:
        return str(x)
    sys.set_int_max_str_digits(need)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)
