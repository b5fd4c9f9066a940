"""Detection of arrangements composed of a reduced pencil.

An arrangement of r = 3k lines is composed of a reduced pencil when its
lines split into three disjoint classes of k lines each whose products
F1, F2, F3 satisfy a dependence l1*F1 + l2*F2 + l3*F3 = 0 with all l_i
nonzero.  Equal class sizes are forced (a linear dependence needs equal
degrees) and the products are automatically reduced because the lines are
pairwise distinct.

The candidates are read off one linear system over F3.  The pencils of a
line arrangement are its 3-nets (Falk and Yuzvinsky, "Multinets, resonance
varieties, and pencils of plane curves", Compositio Math. 2007): if a in one
class and b in another meet at p, the dependence forces F3(p) = 0, so with
multiplicities <= 3 the point p is a triple point with one line from each
class.  With tau_i in F3 the class label of line i, this says tau_i = tau_j
at each double point {i, j} and tau_i + tau_j + tau_k = 0 at each triple
point {i, j, k}.  Those are the mod-3 cocycles of Papadima and Suciu ("The
Milnor fibration of a hyperplane arrangement: from modular resonance to
algebraic monodromy", Proc. LMS 2017).  They include sigma = (1, ..., 1),
and beta_3 is their dimension modulo sigma, at most 2.  A cocycle tau and
+-tau + c*sigma have the same level sets, with their labels permuted, and
every permutation of F3 is such a map x -> +-x + c; so the search tries one
cocycle per class modulo sigma and sign, at most (3^beta_3 - 1)/2 = 4 of
them, and each whose level sets are three classes of k lines is a
candidate, found once.  The kernel's basis is solved once per arrangement,
on its incidence record (``arrangement.Incidence.cocycles``): the double
points join their lines into classes in a union-find, ``linalg.nullspace_f3``
solves one row per triple point over those classes, and ``beta3`` and the
search both read the basis expanded back to the lines.

The search runs over Z[w].  Each line carries its Z[w] triple, scaled from
its normalized coefficients by the positive integer s (``Line.pairs`` and
``Line.scale``), and each class product is multiplied out as integer pairs
(``forms.linear_product_pairs``): G_i = c_i * F_i, with c_i the product of
the scales s of the class's lines.  A candidate is a pencil iff the
coefficient matrix of G1, G2, G3, one row per monomial that one of them
contains and one column per class, has rank 2 and its kernel vector has no
zero entry; scaling a column by the positive integer c_i changes neither,
and a monomial that none of them contains would only add a zero row.  With
three columns no elimination is needed (``_dependence``): the cross product
``pair_cross`` lambda of two rows that are not proportional is nonzero, and
the rank is 2 iff ``pair_dot`` gives lambda . row = 0 on every row.  Those
zero dots are the exact certificate of the dependence.  A nonzero dot means
rank 3, no nonzero cross means rank 1, and either candidate is skipped.

A pencil is its Z[w] certificate, however it was made.  ``find_pencils``
stores G1, G2, G3 with the scales c_i, so F_i = G_i / c_i, and the kernel
vector times (c1, c2, c3) in canonical form (``canonical_pairs``) over its
positive integer lead, so l1 = 1.  ``from_json`` reads the lambdas into
Z[w] the way lines are read (``integer_row``) and each product through the
form reader (``forms.json_form_pairs``), so a parsed pencil keeps the
lambdas it was given.  ``to_json`` prints from the integers
(``quotient_str`` and ``HomForm.json_from_pairs``), and only
``scaled_products``, the members l_i * F_i that Catalan doubling starts
from, builds Q(w) forms.  So the search, parsing and printing build no Q(w)
object and no Fraction.
``find_pencils`` is the one answer: whether an arrangement is composed of
a reduced pencil is its truth value, and the number of pencils its length.

Pencil JSON: {"classes": [[i, ...], [i, ...], [i, ...]],
              "lambdas": ["<eis>", ...],
              "products": [<HomForm JSON>, ...]}   # 0-based line indices
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterator

from .arrangement import Arrangement, require_multiplicities_ok
from .eisenstein import (
    Pair,
    canonical_pairs,
    integer_row,
    json_int,
    json_list,
    json_object,
    pair_cross,
    pair_dot,
    pair_mul,
    quotient_str,
)
from .forms import Exponent, HomForm, json_form_pairs, linear_product_pairs


@dataclass(frozen=True, eq=False)
class PencilDecomposition:
    """Unordered 3-partition of the line indices with its dependence, held as
    its Z[w] certificate.

    ``tables`` are the class products over Z[w] as {exponent: (a, b)}, with
    F_i = tables[i] / scales[i] for positive integers ``scales``, and
    l_i = lam[i] / lam_scale for a positive integer ``lam_scale``, so that
    l1*F1 + l2*F2 + l3*F3 vanishes identically.  ``to_json`` prints from
    the integers.  The certificate need not be in lowest terms,
    so equality is Q(w) equality: two pencils are equal iff they print the
    same JSON.  A found pencil has l1 = 1; a parsed one keeps the lambdas it
    was given.
    """

    classes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    tables: tuple[dict[Exponent, Pair], dict[Exponent, Pair], dict[Exponent, Pair]]
    scales: tuple[int, int, int]
    lam: tuple[Pair, Pair, Pair]
    lam_scale: int

    def scaled_products(self) -> tuple[HomForm, HomForm, HomForm]:
        """The three members l_i * F_i, which sum to zero exactly: lam[i] times
        G_i over Z[w], over lam_scale * scales[i]."""
        degree = len(self.classes[0])
        return tuple(
            HomForm.from_pairs(degree, {e: pair_mul(lam, v) for e, v in table.items()}, self.lam_scale * scale)
            for lam, table, scale in zip(self.lam, self.tables, self.scales)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PencilDecomposition) and self.to_json() == other.to_json()

    def to_json(self) -> dict:
        degree = len(self.classes[0])
        lambdas = [quotient_str(v, self.lam_scale) for v in self.lam]
        products = [HomForm.json_from_pairs(degree, table, c) for table, c in zip(self.tables, self.scales)]
        return {"classes": [list(c) for c in self.classes], "lambdas": lambdas, "products": products}

    @classmethod
    def from_json(cls, data: dict) -> "PencilDecomposition":
        json_object(data, "a pencil")
        classes = tuple(
            tuple(json_int(i, "a line index") for i in json_list(c, "a class")) for c in json_list(data["classes"], "classes")
        )
        lam, lam_scale = integer_row(json_list(data["lambdas"], "lambdas"))
        products = [json_form_pairs(f) for f in json_list(data["products"], "products")]
        if len(classes) != 3 or len(lam) != 3 or len(products) != 3:
            raise ValueError("a pencil has three classes, lambdas and products")
        if (0, 0) in lam:
            raise ValueError("every lambda of a pencil is nonzero")
        degrees, tables, scales = zip(*products)
        if not all(tables):
            raise ValueError("every product of a pencil is nonzero")
        if 0 in degrees:
            raise ValueError("every product of a pencil has positive degree")
        if len(set(degrees)) != 1:
            raise ValueError("the products of a pencil have one degree")
        if any(len(c) != d for c, d in zip(classes, degrees)):
            raise ValueError("every class of a pencil has as many lines as its product's degree")
        indices = [i for c in classes for i in c]
        if min(indices) < 0 or len(set(indices)) != len(indices):
            raise ValueError("the classes of a pencil hold distinct nonnegative line indices")
        return cls(classes, tables, scales, tuple(lam), lam_scale)


def find_pencils(arr: Arrangement) -> list[PencilDecomposition]:
    """All pencil decompositions, in canonical class order.

    Three classes of r/3 lines need 3 | r, so otherwise the answer is empty
    and the cocycles are not solved; a multiplicity above 3 still raises.
    """
    if arr.r % 3:
        require_multiplicities_ok(arr)
        return []
    lines = [line.pairs for line in arr.lines]
    line_scales = [line.scale for line in arr.lines]
    found: list[PencilDecomposition] = []
    for triple in _cocycle_partitions(arr):
        prods = tuple(linear_product_pairs(lines[i] for i in c) for c in triple)
        kernel = _dependence([[p.get(e, (0, 0)) for p in prods] for e in {**prods[0], **prods[1], **prods[2]}])
        if kernel is not None:
            scales = tuple(math.prod(line_scales[i] for i in c) for c in triple)
            # F_i = G_i / c_i, so l_i F_i sum to zero with l_i proportional to kernel_i * c_i
            lam = canonical_pairs([(a * c, b * c) for (a, b), c in zip(kernel, scales)])
            found.append(PencilDecomposition(triple, prods, scales, lam, lam[0][0]))
    return found


def _dependence(rows: list[list[Pair]]) -> tuple[Pair, Pair, Pair] | None:
    """The kernel vector of the m x 3 Z[w] matrix ``rows`` when the matrix has
    rank 2 and that vector no zero entry; None otherwise.

    Cross and dot products decide it: for rows u and v, u x v is orthogonal
    to both, and (u x v) . x = det(u, v, x) for every row x.  The first
    nonzero row u crossed with each later row gives a nonzero lambda at the
    first row not proportional to u, and there is none when the rank is at
    most 1.  Then the rank is 2 iff lambda . x = 0 for every row x, which
    makes lambda the kernel vector and certifies it; a nonzero dot means
    rank 3.  A zero entry of lambda means two columns are proportional.
    """
    nonzero = (row for row in rows if any(v != (0, 0) for v in row))
    u = next(nonzero, None)
    lam = next((c for c in (pair_cross(u, v) for v in nonzero) if c != ((0, 0),) * 3), None)
    if lam is None or (0, 0) in lam or any(pair_dot(lam, row) != (0, 0) for row in rows):
        return None
    return lam


def beta3(arr: Arrangement) -> int:
    """Dimension over F3 of the cocycles modulo sigma = (1, ..., 1); at most 2.
    MultiplicityError above multiplicity 3, where the cocycle rows would not
    state the 3-net rules."""
    return len(require_multiplicities_ok(arr).cocycles) - 1


def _cocycle_classes(basis: list[list[int]]) -> Iterator[list[int]]:
    """One cocycle from each class of the cocycles modulo sigma and sign,
    except the class of 0: (3^beta_3 - 1)/2 of them.

    Each basis vector from ``nullspace_f3`` is 1 at its own free column and
    0 at the other free columns, so sigma, which is 1 at every column, is
    the sum of the basis, and all vectors but the last span a complement of
    sigma.  A class is named by its coefficient vector on that complement
    whose first nonzero entry is 1.
    """
    if [sum(column) % 3 for column in zip(*basis)] != [1] * len(basis[0]):
        raise AssertionError("sigma is not the sum of the cocycle basis")
    columns = list(zip(*basis[:-1]))
    for coeffs in product(range(3), repeat=len(basis) - 1):
        if next((c for c in coeffs if c), 0) == 1:
            yield [sum(map(mul, coeffs, column)) % 3 for column in columns]


def _cocycle_partitions(arr: Arrangement) -> list[tuple[tuple[int, ...], ...]]:
    """The level sets of the cocycles that are three classes of r/3 lines.

    These are the partitions that obey the 3-net rules, sorted by least
    line.  Two cocycles have the same level sets iff they are in one class
    modulo sigma and sign, so each partition is found once.
    """
    k = arr.r // 3
    found = []
    for tau in _cocycle_classes(require_multiplicities_ok(arr).cocycles):
        classes: tuple[list[int], ...] = ([], [], [])
        for i, t in enumerate(tau):
            classes[t].append(i)
        if all(len(c) == k for c in classes):
            found.append(tuple(sorted(tuple(c) for c in classes)))
    return sorted(found)
