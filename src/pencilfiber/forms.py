"""Polynomial algebra over Q(w): homogeneous forms in x, y, z and univariate
polynomials in t.

A HomForm stores ``{(i, j, k): coefficient}`` with i + j + k equal to the
declared degree and no zero coefficients kept; the zero form keeps its
declared degree with an empty table.  A UniPoly stores coefficients lowest
degree first with a nonzero leading coefficient, ``[]`` being zero.

Both kinds share one interface through ``_Polynomial``: ``is_zero``,
``-``, ``+``, ``*`` (by a polynomial of the same kind or by a scalar),
``**``, ``==`` and ``str``.  The base class owns what does not depend on
storage; each kind keeps its own table, product loop, equality, division
and wire format.

A product of linear forms is multiplied over Z[w]: ``linear_product_pairs``
takes the lines as Z[w] triples and returns {exponent: (a, b)} with plain
int arithmetic, and ``product_of_linear_forms`` is its Q(w) view, the
integer product divided by the product of the lines' scales
(``HomForm.from_pairs``).  ``HomForm.json_from_pairs`` prints that view
from the integers without building it, and ``json_form_pairs`` reads the
wire format into such a table, its denominator and its degree, which
``HomForm.from_json`` turns into the view.

JSON wire formats:

    HomForm  {"degree": d, "terms": [{"exp": [i, j, k], "c": "<eis>"}, ...]}
    UniPoly  {"coeffs": ["<eis>", ...]}        # lowest degree first
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .eisenstein import (
    ONE,
    ZERO,
    EisensteinNumber,
    Pair,
    _square_and_multiply,
    integer_row,
    json_int,
    json_list,
    json_object,
    quotient_str,
)

Exponent = tuple[int, int, int]


class _Polynomial:
    """The arithmetic of HomForm and UniPoly that does not depend on storage.

    A subclass holds ``coeffs``, empty exactly for zero, and defines
    ``constant``, ``__neg__``, ``__add__``, ``__mul__`` (which also takes
    scalars) and ``_terms``.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other: object):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        """Repeated squaring from the base (``eisenstein._square_and_multiply``);
        ``** 0`` is the constant one."""
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        return _square_and_multiply(self, exponent) if exponent else self.constant(ONE)

    def __str__(self) -> str:
        chunks = [f"({c})*{mono}" if mono else f"({c})" for mono, c in self._terms()]
        return " + ".join(chunks) or "0"


class HomForm(_Polynomial):
    """Homogeneous form in x, y, z over Q(w)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[Exponent, EisensteinNumber] | None = None) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        table: dict[Exponent, EisensteinNumber] = {}
        for exp, c in (coeffs or {}).items():
            e0, e1, e2 = exp
            if type(e0) is not int or type(e1) is not int or type(e2) is not int:
                raise TypeError(f"exponent {exp} must hold three non-bool ints")  # int() would truncate 1.5
            exp = (e0, e1, e2)
            if min(exp) < 0 or sum(exp) != degree:
                raise ValueError(f"exponent {exp} does not have degree {degree}")
            value = EisensteinNumber.of(c)
            if value:
                table[exp] = value
        self.degree = degree
        self.coeffs = table

    @classmethod
    def zero(cls, degree: int = 0) -> "HomForm":
        return cls(degree, {})

    @classmethod
    def constant(cls, value: EisensteinNumber | int | str) -> "HomForm":
        return cls(0, {(0, 0, 0): EisensteinNumber.of(value)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff: EisensteinNumber | int | str = 1) -> "HomForm":
        return cls(sum(exp), {tuple(exp): EisensteinNumber.of(coeff)})

    @classmethod
    def linear(
        cls,
        a: EisensteinNumber | int | str,
        b: EisensteinNumber | int | str,
        c: EisensteinNumber | int | str,
    ) -> "HomForm":
        return cls(1, {(1, 0, 0): EisensteinNumber.of(a), (0, 1, 0): EisensteinNumber.of(b), (0, 0, 1): EisensteinNumber.of(c)})

    @classmethod
    def from_pairs(cls, degree: int, table: dict[Exponent, Pair], denominator: int) -> "HomForm":
        """The form whose coefficient at e is (a + b*w) / denominator, for each entry (a, b) = table[e] over Z[w]."""
        return cls(degree, {e: EisensteinNumber(Fraction(a, denominator), Fraction(b, denominator)) for e, (a, b) in table.items()})

    @staticmethod
    def json_from_pairs(degree: int, table: dict[Exponent, Pair], denominator: int) -> dict:
        """``from_pairs(degree, table, denominator).to_json()``, printed from the
        integers for a positive denominator, with no form built."""
        terms = [{"exp": list(e), "c": quotient_str(v, denominator)} for e, v in sorted(table.items(), reverse=True) if v != (0, 0)]
        return {"degree": degree, "terms": terms}

    def leading(self) -> EisensteinNumber:
        """The coefficient of the greatest exponent."""
        if self.is_zero:
            raise ValueError("zero form has no leading coefficient")
        return self.coeffs[max(self.coeffs)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomForm):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __neg__(self) -> "HomForm":
        return HomForm(self.degree, {e: -c for e, c in self.coeffs.items()})

    def __add__(self, other: "HomForm") -> "HomForm":
        if not isinstance(other, HomForm):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        table = dict(self.coeffs)
        for e, c in other.coeffs.items():
            table[e] = table.get(e, ZERO) + c
        return HomForm(self.degree, table)

    def __mul__(self, other: object) -> "HomForm":
        if isinstance(other, HomForm):
            table: dict[Exponent, EisensteinNumber] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    table[e] = table.get(e, ZERO) + c1 * c2
            return HomForm(self.degree + other.degree, table)
        scalar = EisensteinNumber._coerce(other)
        if scalar is None:
            return NotImplemented
        return HomForm(self.degree, {e: c * scalar for e, c in self.coeffs.items()})

    def terms_sorted(self) -> list[tuple[Exponent, EisensteinNumber]]:
        return sorted(self.coeffs.items(), key=lambda item: item[0], reverse=True)

    def _terms(self) -> Iterator[tuple[str, EisensteinNumber]]:
        for e, c in self.terms_sorted():
            yield "*".join(f"{v}^{n}" for v, n in zip("xyz", e) if n), c

    def __repr__(self) -> str:
        return f"HomForm(degree={self.degree}, {str(self)!r})"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [{"exp": list(e), "c": str(c)} for e, c in self.terms_sorted()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HomForm":
        return cls.from_pairs(*json_form_pairs(data))


X = HomForm.monomial((1, 0, 0))
Y = HomForm.monomial((0, 1, 0))
Z = HomForm.monomial((0, 0, 1))


class UniPoly(_Polynomial):
    """Univariate polynomial in t over Q(w), coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[EisensteinNumber | int | str] = ()) -> None:
        values = [EisensteinNumber.of(c) for c in coeffs]
        while values and not values[-1]:
            values.pop()
        self.coeffs = tuple(values)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((ONE,))

    @classmethod
    def constant(cls, value: EisensteinNumber | int | str) -> "UniPoly":
        return cls((EisensteinNumber.of(value),))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((ZERO, ONE))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> EisensteinNumber:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else ZERO

    def leading(self) -> EisensteinNumber:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading()
        return UniPoly(c / lc for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __mul__(self, other: object) -> "UniPoly":
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        scalar = EisensteinNumber._coerce(other)
        if scalar is None:
            return NotImplemented
        return UniPoly(c * scalar for c in self.coeffs)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [ZERO] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlc = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            factor = rem[-1] / dlc
            shift = len(rem) - 1 - dd
            quotient[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            while rem and not rem[-1]:
                rem.pop()
        return UniPoly(quotient), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(c * i for i, c in enumerate(self.coeffs) if i)

    def _terms(self) -> Iterator[tuple[str, EisensteinNumber]]:
        for i in range(self.degree, -1, -1):
            if self.coeffs[i]:
                yield "" if i == 0 else ("t" if i == 1 else f"t^{i}"), self.coeffs[i]

    def __repr__(self) -> str:
        return f"UniPoly({str(self)!r})"

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "UniPoly":
        return cls(json_list(json_object(data, "a polynomial")["coeffs"], "coeffs"))


def json_form_pairs(data: dict) -> tuple[int, dict[Exponent, Pair], int]:
    """A form's JSON read into Z[w]: (degree, table, denominator), the form
    ``HomForm.from_pairs`` builds, with no zero entry in the table.

    The one reader of the HomForm wire format; ``pencils`` reads its
    products through it with no form built.  ``eisenstein.integer_row``
    reads the coefficients, so text reaches Z[w] with no Fraction, each one
    as soon as its term is checked and before the next term is; then the
    degree is checked against each exponent, as ``HomForm`` checks a table.
    """
    exponents: dict[Exponent, None] = {}

    def coefficients() -> Iterator[object]:
        for t in json_list(json_object(data, "a form")["terms"], "terms"):
            t = json_object(t, "a term")
            exp = tuple(json_int(e, "an exponent") for e in json_list(t["exp"], "exp"))
            if len(exp) != 3:
                raise ValueError(f"exp must have three entries, not {len(exp)}")
            if exp in exponents:
                raise ValueError(f"exponent {exp} is listed twice")
            exponents[exp] = None
            yield t["c"]

    pairs, denominator = integer_row(coefficients())
    degree = json_int(data["degree"], "degree")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for exp in exponents:
        if min(exp) < 0 or sum(exp) != degree:
            raise ValueError(f"exponent {exp} does not have degree {degree}")
    return degree, {e: v for e, v in zip(exponents, pairs) if v != (0, 0)}, denominator


def linear_product_pairs(lines: Iterable[Sequence[Pair]]) -> dict[Exponent, Pair]:
    """The product over Z[w] of the linear forms whose x, y, z coefficients
    are the given Z[w] triples, as {exponent: (a, b)} with no zero entry;
    the empty product is {(0, 0, 0): (1, 0)}.

    Plain int arithmetic: the product (a + b*w)(c + d*w), with w^2 = -1 - w,
    is written out in the loop.
    """
    table = {(0, 0, 0): (1, 0)}
    for x, y, z in lines:
        out: dict[Exponent, Pair] = {}
        for (i, j, k), (a, b) in table.items():
            for e, (c, d) in (((i + 1, j, k), x), ((i, j + 1, k), y), ((i, j, k + 1), z)):
                if c or d:
                    s, t = out.get(e, (0, 0))
                    out[e] = (s + a * c - b * d, t + a * d + b * c - b * d)
        table = {e: v for e, v in out.items() if v != (0, 0)}
    return table


def product_of_linear_forms(lines: Iterable[HomForm]) -> HomForm:
    """Exact product of degree-1 forms; the empty product is the constant 1.

    The Q(w) view of ``linear_product_pairs``: each line is scaled once into
    Z[w] by ``integer_row``, and the integer product is divided by the
    product of those scales.
    """
    triples = []
    denominator = 1
    for line in lines:
        if line.degree != 1 or line.is_zero:
            raise ValueError("all factors must be nonzero linear forms")
        triple, scale = integer_row([line.coeffs.get(e, ZERO) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        triples.append(triple)
        denominator *= scale
    return HomForm.from_pairs(len(triples), linear_product_pairs(triples), denominator)


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(p, 0) is monic(p)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: monic p splits as prod f_i^i with f_i squarefree,
    pairwise coprime and monic.  Returns the (f_i, i) with deg f_i > 0."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    w = p.monic()
    if w.degree == 0:
        return []
    g = uni_gcd(w, w.derivative())
    b = w // g
    c = w.derivative() // g
    factors: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        a = uni_gcd(b, d)
        if a.degree > 0:
            factors.append((a, i))
        b = b // a
        c = d // a
        i += 1
    return factors


def squarefree_cube_split(p: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Split p = v^3 * A with v monic and A free of cube factors.

    Constants, signs and sub-cube multiplicities all live in A.
    """
    if p.is_zero:
        raise ValueError("cannot split the zero polynomial")
    v = UniPoly.one()
    for factor, mult in squarefree_decomposition(p):
        v = v * factor ** (mult // 3)
    remainder = p // v**3
    return v, remainder


def root_multiplicity(p: UniPoly, factor: UniPoly) -> tuple[UniPoly, int]:
    """Divide out ``factor`` as often as it exactly divides p."""
    if factor.is_constant:
        raise ValueError("factor must be nonconstant")
    count = 0
    current = p
    while not current.is_zero:
        q, r = divmod(current, factor)
        if not r.is_zero:
            break
        current = q
        count += 1
    return current, count
