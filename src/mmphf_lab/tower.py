"""Exact iterated-exponential descriptors.

A tower value is either a plain Python int or `Pow2(e)` meaning 2^e,
where e is itself a tower value; nesting covers quantities such as
2^(2^(10^7)) that can never be materialized.  Comparisons are exact and
never materialize large powers: 2^e against an integer x reduces to
comparing e with bit lengths, and 2^a against 2^b recurses on the
exponents.

`ScaledPow2` represents c * 2^e for a plain integer mantissa c >= 1 and
integer exponent e >= 0, which is how derived universe sizes are kept
exact when c is not a power of two.  Its one comparison, `le`, asks
c * 2^e <= x for a tower value x: against 2^T it compares
e + bit_length(c - 1) with T, and against an int it builds c * 2^e
only once the bit lengths show it is no longer than x.
"""

from collections import namedtuple
from typing import NamedTuple, Union

from .serialize import int_str

_MATERIALIZE_BITS = 64


class Pow2(NamedTuple):
    exponent: Union[int, "Pow2"]

    def __str__(self) -> str:
        return tower_str(self)


TowerInt = Union[int, Pow2]


def pow2(exponent: TowerInt) -> TowerInt:
    """2^exponent, materialized when small enough to be an ordinary int."""
    if isinstance(exponent, int):
        if exponent < 0:
            raise ValueError("negative exponents are not representable")
        if exponent <= _MATERIALIZE_BITS:
            return 1 << exponent
    return Pow2(exponent)


def tower_cmp(a: TowerInt, b: TowerInt) -> int:
    """Three-way comparison of tower values; exact for any nesting depth."""
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    if isinstance(a, Pow2) and isinstance(b, Pow2):
        return tower_cmp(a.exponent, b.exponent)
    if isinstance(a, int):
        return -_cmp_pow2_int(b, a)
    return _cmp_pow2_int(a, b)


def _cmp_pow2_int(p: Pow2, x: int) -> int:
    """Compare 2^e against an ordinary integer without materializing."""
    if x < 1:
        return 1
    bits = x.bit_length()  # 2^(bits-1) <= x < 2^bits
    # on a tie 2^e = 2^(bits-1), equal exactly when x is that power of two
    return tower_cmp(p.exponent, bits - 1) or (0 if x == 1 << (bits - 1) else -1)


class ScaledPow2(namedtuple("ScaledPow2", "mantissa exponent")):
    """mantissa * 2^exponent with plain-int parts; mantissa >= 1."""

    __slots__ = ()
    mantissa: int
    exponent: int

    def __new__(cls, mantissa: int, exponent: int):
        if mantissa < 1 or exponent < 0:
            raise ValueError("need mantissa >= 1 and exponent >= 0")
        return super().__new__(cls, mantissa, exponent)

    def le(self, other: TowerInt) -> bool:
        """mantissa * 2^exponent <= other, never building a power larger than other."""
        m, e = self.mantissa, self.exponent
        if isinstance(other, Pow2):
            # 2^w with w = bit_length(m - 1) is the least power of two >= m
            return tower_cmp(e + (m - 1).bit_length(), other.exponent) <= 0
        return e + m.bit_length() <= other.bit_length() and m << e <= other

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{int_str(self.exponent)}"


def parse_tower(text: str) -> TowerInt:
    """Parse "12345" or right-associative "2^2^64" into a tower value."""
    text = text.strip()
    if "^" not in text:
        return int(text)
    base, rest = text.split("^", 1)
    if int(base) != 2:
        raise ValueError("only base-2 towers are supported")
    return pow2(parse_tower(rest))


def tower_str(t: TowerInt) -> str:
    if isinstance(t, int):
        return int_str(t)
    return f"2^{tower_str(t.exponent)}"
