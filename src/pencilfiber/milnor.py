"""Monodromy invariants of the Milnor fiber of a line arrangement.

For r lines with only double and triple points, the superabundance s is the
failure of the triple points to impose independent conditions on curves of
degree 2r/3 - 3: s = |S| - rank of the evaluation matrix of all such
monomials at the triple points.  Each point is evaluated at the Z[w] triple
that the incidence record keeps for it, so the matrix and its Bareiss rank
stay exact and in Z[w].  The rank is first taken modulo a prime
p = 1 (mod 3), with w sent to a cube root of unity mod p
(``linalg.rank_mod_p``): that map is a ring homomorphism, so the rank mod p
is a lower bound, and full rank mod p on either side -- min(T, M) for T
triple points and M monomials -- is a nonzero maximal minor over Z[w] and
gives s = T - min(T, M) exactly.  Only a lower rank mod p falls back to
Bareiss.
For r = 3 the degree is negative, the matrix has no columns and s = |S|;
with no triple points it has no rows and s = 0.  When r is not divisible by
3 the cube-root eigenvalues cannot occur and s is reported as 0.

``milnor_report`` is the one source of every invariant derived from s,
the characteristic polynomial included (``MilnorReport.char_poly``).
Two bookkeeping conventions coexist for the eigenvalue-1 part and both are
reported: the characteristic polynomial is printed with exponent r - 2
(0 for r <= 2, where it is 1), while the first Betti number of the fiber
uses multiplicity r - 1, which is what independent Euler-characteristic
counts give on small cases (e.g. the 6-line braid arrangement has
b1 = 7 = 5 + 2).  See MilnorReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .arrangement import Arrangement, IncidencePoint, require_multiplicities_ok
from .eisenstein import Pair, pair_mul
from .forms import Exponent
from .linalg import PRIME, rank_mod_p, rank_pairs, residue

T = TypeVar("T")


def monomial_exponents(degree: int) -> list[Exponent]:
    """All exponent triples of the given total degree; empty when negative."""
    if degree < 0:
        return []
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return out


def _evaluation_rows(points: list[Sequence[T]], degree: int, one: T, mul: Callable[[T, T], T]) -> list[list[T]]:
    """Rows of the degree-``degree`` monomials at each coordinate triple, in a
    ring given by its one and its product."""
    monomials = monomial_exponents(degree)
    rows = []
    for coords in points:
        powers = []
        for coord in coords:
            column = [one]
            for _ in range(degree):
                column.append(mul(column[-1], coord))
            powers.append(column)
        x, y, z = powers
        rows.append([mul(mul(x[i], y[j]), z[k]) for (i, j, k) in monomials])
    return rows


def _evaluation_matrix(points: list[IncidencePoint], degree: int) -> list[list[Pair]]:
    """Rows of monomial values at the Z[w] triple of each point.

    Scaling a point by a nonzero scalar scales its row by that scalar to the
    power ``degree``, so the rank does not depend on the representative.
    """
    return _evaluation_rows([pt.pairs for pt in points], degree, (1, 0), pair_mul)


def _evaluation_residues(points: list[IncidencePoint], degree: int) -> list[list[int]]:
    """The image of ``_evaluation_matrix`` under w -> ZETA mod PRIME,
    computed from the residues of the coordinates."""
    coords = [[residue(v) for v in pt.pairs] for pt in points]
    return _evaluation_rows(coords, degree, 1, lambda u, v: u * v % PRIME)


def superabundance(arr: Arrangement) -> int:
    """s = |triple points| - rank of the degree-(2r/3 - 3) evaluation matrix.

    The rank mod PRIME is taken first.  With T triple points and M
    monomials the rank over Z[w] is at most min(T, M), and the rank mod p is
    at most the rank over Z[w]; so a rank mod p of min(T, M) is the rank,
    and s = T - min(T, M) exactly.  Only a lower rank mod p falls back to
    the Bareiss rank over Z[w].
    """
    points = require_multiplicities_ok(arr).points
    r = arr.r
    if r % 3 != 0:
        return 0
    triple = [pt for pt in points if pt.multiplicity == 3]
    degree = 2 * r // 3 - 3
    full = min(len(triple), len(monomial_exponents(degree)))
    if rank_mod_p(_evaluation_residues(triple, degree)) == full:
        return len(triple) - full
    return len(triple) - rank_pairs(_evaluation_matrix(triple, degree))


def char_poly_string(exp_t1: int, exp_cyc: int) -> str:
    parts = []
    if exp_t1:
        parts.append(f"(t-1)^{exp_t1}")
    if exp_cyc:
        parts.append(f"(t^2+t+1)^{exp_cyc}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MilnorReport:
    """Summary of the monodromy action on first cohomology; every field
    but r and s is a function of them.

    ``char_t1_exponent`` repeats the classical Alexander-polynomial
    normalization r - 2, which is 0 for r <= 2, where that polynomial is 1;
    ``b1_milnor_fiber`` uses eigenvalue-1 multiplicity r - 1 (the two
    conventions differ by one and both are surfaced).
    """

    r: int
    s: int

    @property
    def char_t1_exponent(self) -> int:
        return max(self.r - 2, 0)

    @property
    def b1_milnor_fiber(self) -> int:
        return (self.r - 1) + 2 * self.s

    @property
    def eigenspace_dim_1(self) -> int:
        return self.r - 1

    @property
    def eigenspace_dim_w(self) -> int:
        return self.s

    # the w^2-eigenspace is the conjugate of the w-eigenspace, and each
    # contributes one factor t^2 + t + 1 per dimension
    eigenspace_dim_w2 = char_cyclotomic_exponent = eigenspace_dim_w

    @property
    def mw_rank(self) -> int:
        return 2 * self.s

    @property
    def char_poly(self) -> str:
        return char_poly_string(self.char_t1_exponent, self.char_cyclotomic_exponent)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "char_poly": self.char_poly,
            "char_poly_exponents": {
                "t-1": self.char_t1_exponent,
                "t^2+t+1": self.char_cyclotomic_exponent,
            },
            "b1_milnor_fiber": self.b1_milnor_fiber,
            "eigenspace_dims": {
                "1": self.eigenspace_dim_1,
                "w": self.eigenspace_dim_w,
                "w2": self.eigenspace_dim_w2,
            },
            "mw_rank": self.mw_rank,
        }


def milnor_report(arr: Arrangement) -> MilnorReport:
    return MilnorReport(arr.r, superabundance(arr))
