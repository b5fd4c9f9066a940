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
fractions.
``normalized`` is the way back: it turns a Z[w] triple into the Q(w) triple
of the same projective point whose first nonzero entry is 1.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Sequence

# ASCII digits only: ``\d`` would also match other scripts' decimal digits.
# The groups are the signed numerator and the optional denominator.
_RAT = _re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


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
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = EisensteinNumber(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.wc:
            if self.wc == 1:
                term = "w"
            elif self.wc == -1:
                term = "-w"
            else:
                term = f"{self.wc}*w"
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"EisensteinNumber({self.re!r}, {self.wc!r})"


def parse_eisenstein(text: str) -> EisensteinNumber:
    """Parse the canonical string form; raises ParseError with a position."""

    def rational(pos: int) -> tuple[Fraction | None, int]:
        m = _RAT.match(text, pos)
        if not m:
            return None, pos
        num, den = m.groups()
        try:
            # built from the matched digits, so they are not parsed a second time
            return Fraction(int(num), int(den)) if den else Fraction(int(num)), m.end()
        except ZeroDivisionError:
            raise ParseError(text, pos, "zero denominator") from None

    n = len(text)
    first, pos = rational(0)
    if first is not None:
        if pos == n:
            return EisensteinNumber(first)
        ch = text[pos]
        if ch == "*":
            if text[pos + 1 : pos + 2] != "w":
                raise ParseError(text, pos + 1, "expected 'w'")
            pos += 2
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return EisensteinNumber(0, first)
        if ch == "w":
            pos += 1
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return EisensteinNumber(0, first)
        if ch in "+-":
            sign = 1 if ch == "+" else -1
            pos += 1
            coeff, after = rational(pos)
            if coeff is None:
                coeff = Fraction(1)
            else:
                pos = after
            if pos < n and text[pos] == "*":
                pos += 1
            if text[pos : pos + 1] != "w":
                raise ParseError(text, pos, "expected 'w'")
            pos += 1
            if pos != n:
                raise ParseError(text, pos, "trailing characters")
            return EisensteinNumber(first, sign * coeff)
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
        return EisensteinNumber(0, sign)
    raise ParseError(text, pos, "expected a rational or 'w'")


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


def integer_scale(row: Sequence[EisensteinNumber]) -> int:
    """The lcm of the row's denominators: the least positive integer that scales it into Z[w]."""
    return math.lcm(*(x.re.denominator for x in row), *(x.wc.denominator for x in row))


def integer_pairs(row: Sequence[EisensteinNumber]) -> list[Pair]:
    """The row scaled by ``integer_scale``, as pairs (a, b) meaning a + b*w in Z[w].

    The scale is a nonzero rational, so the row spans the same line and any
    matrix built from such rows keeps its rank.
    """
    scale = integer_scale(row)
    return [
        (x.re.numerator * (scale // x.re.denominator), x.wc.numerator * (scale // x.wc.denominator)) for x in row
    ]


def pair_mul(u: Pair, v: Pair) -> Pair:
    """(a + b*w)(c + d*w) in Z[w], with w^2 = -1 - w."""
    a, b = u
    c, d = v
    return (a * c - b * d, a * d + b * c - b * d)


def pair_cross(u: Sequence[Pair], v: Sequence[Pair]) -> tuple[Pair, Pair, Pair]:
    """u x v for triples over Z[w]; zero iff u and v are proportional."""
    out = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        p, q = pair_mul(u[i], v[j]), pair_mul(u[j], v[i])
        out.append((p[0] - q[0], p[1] - q[1]))
    return tuple(out)


def pair_dot(u: Sequence[Pair], v: Sequence[Pair]) -> Pair:
    """The bilinear dot product u0*v0 + u1*v1 + u2*v2 of two triples over Z[w]."""
    p, q, r = pair_mul(u[0], v[0]), pair_mul(u[1], v[1]), pair_mul(u[2], v[2])
    return (p[0] + q[0] + r[0], p[1] + q[1] + r[1])


def normalized(p: Sequence[Pair]) -> tuple[EisensteinNumber, ...]:
    """The Q(w) triple proportional to the nonzero Z[w] triple p whose first nonzero entry is 1.

    Dividing by the lead a + b*w is multiplying by its conjugate (a - b) - b*w
    and dividing by its norm a^2 - a*b + b^2.  The lead itself becomes ``ONE``
    and a zero entry ``ZERO``, with no division.
    """
    lead = next(v for v in p if v != (0, 0))
    a, b = lead
    norm = a * a - a * b + b * b
    out = []
    for v in p:
        if v == lead:
            out.append(ONE)
        elif v == (0, 0):
            out.append(ZERO)
        else:
            x, y = pair_mul(v, (a - b, -b))
            out.append(EisensteinNumber(Fraction(x, norm), Fraction(y, norm)))
    return tuple(out)


ZERO = EisensteinNumber(0)
ONE = EisensteinNumber(1)
OMEGA = EisensteinNumber(0, 1)
OMEGA2 = EisensteinNumber(-1, -1)
MU3 = (ONE, OMEGA, OMEGA2)
