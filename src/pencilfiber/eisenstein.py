"""Exact arithmetic in Q(w), the rationals with a primitive cube root of unity.

An element is stored as a + b*w with rational a, b, where w satisfies
w^2 + w + 1 = 0 (so w^3 = 1 and w^2 = -1 - w).  All arithmetic is exact;
nothing in this package ever touches floating point.

The canonical string form, which is also the wire format inside every JSON
payload, is

    "0", "7", "-3/4"            pure rationals
    "w", "-w", "5*w", "2/3*w"   pure w-multiples
    "1/2+3*w", "1/2-w"          mixed

i.e. an optional rational part followed by an optional signed w-term whose
coefficient omits "1*".  Rationals are always in lowest terms with a
positive denominator, so ``parse_eisenstein(str(x)) == x``.

Where only a line, a point, a rank or whether a wedge vanishes matters, a
row can be scaled into Z[w] and held as integer pairs (a, b) meaning
a + b*w; ``pair_mul``, ``pair_cross`` and ``pair_dot`` then compute without
fractions.  ``parse_parts`` is the one grammar of the string form and
yields integer numerators and denominators; ``parse_eisenstein`` wraps
them in Fractions.  There is one way into Z[w]: ``integer_row`` reads each
entry of a row once, an EisensteinNumber, a Fraction, an int or a string,
as those parts, so text reaches Z[w] without a Fraction, and returns the
row scaled by the lcm of its denominators together with that scale.
``canonical_pairs`` is the normal form of a projective Z[w] triple: first
nonzero entry a positive integer, integer content 1.  A projective point
is printed with no Q(w) object: ``normalized_strs`` prints the Q(w) triple
of the same point whose first nonzero entry is 1 from the canonical triple,
and it and any (a + b*w) / d over Z[w] are printed by ``quotient_str``,
which reduces each part by a gcd and hands it to ``format_parts``, the
formatter ``EisensteinNumber.__str__`` uses.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

# ASCII digits only: ``\d`` would also match other scripts' decimal digits.
# The groups are the signed numerator and the optional denominator.
_RAT = _re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# re_num/re_den + (wc_num/wc_den)*w as the integers (re_num, re_den, wc_num, wc_den)
Parts = tuple[int, int, int, int]


class ParseError(ValueError):
    """Malformed Eisenstein-number text; ``position`` is the failing offset."""

    def __init__(self, text: str, position: int, message: str) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class EisensteinNumber:
    """An element a + b*w of Q(w) with exact rational components."""

    __slots__ = ("re", "wc")

    def __init__(self, re: Fraction | int = 0, wc: Fraction | int = 0) -> None:
        # a Fraction is immutable, so it is kept rather than copied
        self.re = re if type(re) is Fraction else Fraction(re)
        self.wc = wc if type(wc) is Fraction else Fraction(wc)

    @classmethod
    def of(cls, value: "EisensteinNumber | Fraction | int | str") -> "EisensteinNumber":
        if isinstance(value, EisensteinNumber):
            return value
        if isinstance(value, str):
            return parse_eisenstein(value)
        if isinstance(value, (float, bool)):
            raise ValueError(f"{value!r} is not an exact field element")
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not an exact field element")
        return cls(value)

    @staticmethod
    def _coerce(other: object) -> "EisensteinNumber | None":
        if isinstance(other, EisensteinNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return EisensteinNumber(other)
        return None

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.wc)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.wc == o.wc

    def __hash__(self) -> int:
        # equal to the hash of the int or Fraction it equals, as __eq__ requires
        return hash((self.re, self.wc)) if self.wc else hash(self.re)

    def __neg__(self) -> "EisensteinNumber":
        return EisensteinNumber(-self.re, -self.wc)

    def __add__(self, other: object) -> "EisensteinNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinNumber(self.re + o.re, self.wc + o.wc)

    __radd__ = __add__

    def __sub__(self, other: object) -> "EisensteinNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinNumber(self.re - o.re, self.wc - o.wc)

    def __rsub__(self, other: object) -> "EisensteinNumber":
        return (-self) + other

    def __mul__(self, other: object) -> "EisensteinNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self.re, self.wc, o.re, o.wc
        return EisensteinNumber(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self) -> "EisensteinNumber":
        """Image under w -> w^2, i.e. (a - b) - b*w."""
        return EisensteinNumber(self.re - self.wc, -self.wc)

    def norm(self) -> Fraction:
        """Field norm a^2 - a*b + b^2; nonnegative, zero only at zero."""
        return self.re * self.re - self.re * self.wc + self.wc * self.wc

    def inverse(self) -> "EisensteinNumber":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return EisensteinNumber(c.re / n, c.wc / n)

    def __truediv__(self, other: object) -> "EisensteinNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "EisensteinNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "EisensteinNumber":
        if exponent <= 0:
            return self.inverse() ** -exponent if exponent else EisensteinNumber(1)
        return _square_and_multiply(self, exponent)

    def __str__(self) -> str:
        re, wc = self.re, self.wc
        return format_parts(re.numerator, re.denominator, wc.numerator, wc.denominator)

    def __repr__(self) -> str:
        return f"EisensteinNumber({self.re!r}, {self.wc!r})"


def _square_and_multiply(base, n: int):
    """base ** n for n >= 1 by repeated squaring from the base, for any type
    with ``*``: a cube costs two products, base * base and base times that."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def format_parts(re_num: int, re_den: int, wc_num: int, wc_den: int) -> str:
    """The canonical string of re_num/re_den + (wc_num/wc_den)*w, each part
    in lowest terms with a positive denominator."""
    re = str(re_num) if re_den == 1 else f"{re_num}/{re_den}"
    if not wc_num:
        return re
    if wc_den != 1:
        term = f"{wc_num}/{wc_den}*w"
    elif wc_num == 1:
        term = "w"
    elif wc_num == -1:
        term = "-w"
    else:
        term = f"{wc_num}*w"
    if not re_num:
        return term
    return re + term if term[0] == "-" else f"{re}+{term}"


def parse_parts(text: str) -> Parts:
    """The canonical string form read as integers (re_num, re_den, wc_num, wc_den):
    each part as written, not reduced, with a positive denominator.

    Beyond what the printer writes, it accepts a leading '+', parts not in
    lowest terms and a w-coefficient without its '*' ("+3", "2/4", "1+2w").
    The w-coefficient after the sign that joins the two parts is unsigned,
    and a '*' follows only a coefficient.

    This is the one grammar: ``parse_eisenstein`` wraps its parts in
    Fractions, and ``integer_row`` scales them straight into Z[w].
    Raises ParseError with a position.
    """

    def rational(pos: int) -> tuple[tuple[int, int] | None, int]:
        m = _RAT.match(text, pos)
        if not m:
            return None, pos
        num, den = m.groups()
        # built from the matched digits, so they are not parsed a second time
        value = (int(num), int(den) if den else 1)
        if not value[1]:
            raise ParseError(text, pos, "zero denominator")
        return value, m.end()

    n = len(text)
    first, pos = rational(0)
    if first is not None:
        if pos == n:
            return (*first, 0, 1)
        ch = text[pos]
        if ch == "*":
            if text[pos + 1 : pos + 2] != "w":
                raise ParseError(text, pos + 1, "expected 'w'")
            pos += 2
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return (0, 1, *first)
        if ch == "w":
            pos += 1
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return (0, 1, *first)
        if ch in "+-":
            sign = 1 if ch == "+" else -1
            pos += 1
            if text[pos : pos + 1] == "w":
                coeff = (1, 1)
            else:
                # the sign above is the coefficient's: a second one, or a '*' with no coefficient, is an error
                coeff, after = rational(pos)
                if coeff is None or text[pos] in "+-":
                    raise ParseError(text, pos, "expected an unsigned coefficient or 'w'")
                pos = after
                if text[pos : pos + 1] == "*":
                    pos += 1
            if text[pos : pos + 1] != "w":
                raise ParseError(text, pos, "expected 'w'")
            pos += 1
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return (*first, sign * coeff[0], coeff[1])
        raise ParseError(text, pos, "unexpected character")
    # no leading rational: bare (possibly signed) w
    pos = 0
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = 1 if text[pos] == "+" else -1
        pos += 1
    if text[pos : pos + 1] == "w":
        pos += 1
        if pos != n:
            raise ParseError(text, pos, "trailing characters")
        return (0, 1, sign, 1)
    raise ParseError(text, pos, "expected a rational or 'w'")


def parse_eisenstein(text: str) -> EisensteinNumber:
    """Parse the canonical string form; raises ParseError with a position."""
    re_num, re_den, wc_num, wc_den = parse_parts(text)
    return EisensteinNumber(Fraction(re_num, re_den), Fraction(wc_num, wc_den))


def json_list(value: object, what: str) -> list:
    """``value`` itself if it is a JSON list; TypeError for anything else.

    Strings and objects are iterable too, so without this check a string
    would be read as a list of its characters and an object as its keys.
    """
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def json_object(value: object, what: str) -> dict:
    """``value`` itself if it is a JSON object; TypeError for anything else."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def json_int(value: object, what: str) -> int:
    """``value`` itself if it is a JSON integer; TypeError for anything else.

    ``int`` would truncate 1.9 to 1 and read true as 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


# An element a + b*w of Z[w], stored as the integer pair (a, b).
Pair = tuple[int, int]


def integer_row(row: Iterable[EisensteinNumber | Fraction | int | str]) -> tuple[list[Pair], int]:
    """The row scaled into Z[w], as pairs (a, b) meaning a + b*w, and its
    scale, the lcm of the denominators of its entries as read.

    Each entry is read once: a string by ``parse_parts``, so text reaches
    Z[w] with no Fraction, an int as itself, and anything else by
    ``EisensteinNumber.of``, so a float or a bool raises ValueError and a
    value that is no field element TypeError.  The scale is the least
    positive integer that takes the row into Z[w] when every entry is in
    lowest terms, as every EisensteinNumber, Fraction and int is and a
    string need not be.  It is nonzero, so the row spans the same line and
    any matrix built from such rows keeps its rank.
    """
    parts = [_entry_parts(x) for x in row]
    scale = math.lcm(*(p[1] for p in parts), *(p[3] for p in parts))
    return [(a * (scale // b), c * (scale // d)) for a, b, c, d in parts], scale


def _entry_parts(value: "EisensteinNumber | Fraction | int | str") -> Parts:
    """The parts of ``EisensteinNumber.of(value)``; a string or an int builds no Fraction."""
    if type(value) is str:
        return parse_parts(value)
    if type(value) is int:
        return (value, 1, 0, 1)
    x = EisensteinNumber.of(value)
    return (x.re.numerator, x.re.denominator, x.wc.numerator, x.wc.denominator)


def pair_mul(u: Pair, v: Pair) -> Pair:
    """(a + b*w)(c + d*w) in Z[w], with w^2 = -1 - w."""
    a, b = u
    c, d = v
    return (a * c - b * d, a * d + b * c - b * d)


def pair_cross(u: Sequence[Pair], v: Sequence[Pair]) -> tuple[Pair, Pair, Pair]:
    """u x v for triples over Z[w]; zero iff u and v are proportional.

    Entry i is u_j v_k - u_k v_j for (i, j, k) a cyclic shift of (0, 1, 2),
    with each product multiplied out as ``pair_mul`` does.
    """
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, d0), (c1, d1), (c2, d2) = v
    return (
        (a1 * c2 - b1 * d2 - a2 * c1 + b2 * d1, a1 * d2 + b1 * c2 - b1 * d2 - a2 * d1 - b2 * c1 + b2 * d1),
        (a2 * c0 - b2 * d0 - a0 * c2 + b0 * d2, a2 * d0 + b2 * c0 - b2 * d0 - a0 * d2 - b0 * c2 + b0 * d2),
        (a0 * c1 - b0 * d1 - a1 * c0 + b1 * d0, a0 * d1 + b0 * c1 - b0 * d1 - a1 * d0 - b1 * c0 + b1 * d0),
    )


def pair_dot(u: Sequence[Pair], v: Sequence[Pair]) -> Pair:
    """The bilinear dot product u0*v0 + u1*v1 + u2*v2 of two triples over Z[w],
    with each product multiplied out as ``pair_mul`` does."""
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, d0), (c1, d1), (c2, d2) = v
    bd = b0 * d0 + b1 * d1 + b2 * d2
    return (a0 * c0 + a1 * c1 + a2 * c2 - bd, a0 * d0 + a1 * d1 + a2 * d2 + b0 * c0 + b1 * c1 + b2 * c2 - bd)


def canonical_pairs(p: Sequence[Pair]) -> tuple[Pair, ...]:
    """The Z[w] triple proportional to the nonzero triple p whose first nonzero
    entry is a positive integer and whose integer content is 1.

    It is computed without fractions: multiplying by the conjugate
    (a - b) - b*w of the lead a + b*w makes the lead its norm a^2 - a*b + b^2
    (a lead with b = 0 needs only its sign), and dividing by the gcd of all
    the integers makes the content 1.  Two triples are proportional iff their
    canonical triples are equal.
    """
    a, b = next(v for v in p if v != (0, 0))
    if b:
        ca, cb = a - b, -b
        p = [(x * ca - y * cb, x * cb + y * ca - y * cb) for x, y in p]
    elif a < 0:
        p = [(-x, -y) for x, y in p]
    g = math.gcd(*chain.from_iterable(p))
    return tuple((x // g, y // g) for x, y in p)


def quotient_str(v: Pair, d: int) -> str:
    """The canonical string of (a + b*w) / d for v = (a, b) in Z[w] and a
    positive integer d: ``str`` of that element of Q(w), with no Fraction."""
    a, b = v
    ga, gb = math.gcd(a, d), math.gcd(b, d)
    return format_parts(a // ga, d // ga, b // gb, d // gb)


def normalized_strs(c: Sequence[Pair]) -> tuple[str, ...]:
    """The strings of the Q(w) triple proportional to the triple c from
    ``canonical_pairs`` whose first nonzero entry is 1, computed from
    integers: with lead the positive integer L, each entry v is v / L
    (``quotient_str``)."""
    lead = next(x for x, _ in c if x)
    return tuple(quotient_str(v, lead) for v in c)


ZERO = EisensteinNumber(0)
ONE = EisensteinNumber(1)
OMEGA = EisensteinNumber(0, 1)
OMEGA2 = EisensteinNumber(-1, -1)
MU3 = (ONE, OMEGA, OMEGA2)
