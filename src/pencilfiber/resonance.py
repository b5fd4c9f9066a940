"""Degree-two Orlik-Solomon quotient and resonance probes.

The degree-2 algebra of the cone is the exterior square on one generator
per line modulo one relation e_i e_j - e_i e_k + e_j e_k for each triple
point with lines i < j < k (double points impose nothing).  Weight vectors
a with sum zero are probed through the wedge map b -> class of
sum_{i<j} w_ij e_i e_j with w_ij = a_i b_j - a_j b_i; a lies in the
resonance variety iff the kernel of that map is at least 2-dimensional (it
always contains a).

Every pair of lines meets at exactly one incidence point, so the quotient
splits over the points (Brieskorn's lemma, Orlik and Terao 1992, ch. 3):
A^2 is the direct sum of the A^2_p, spanned by the pairs of lines through p.
At a double point {i, j} the summand is free on e_i e_j, so the class
vanishes iff w_ij = 0; at a triple point {i < j < k} the one relation
spans it, so the class vanishes iff w_ij + w_ik = 0 and w_jk - w_ij = 0.
These local conditions are stated once, as linear forms in b with Z[w]
coefficients, and answer both questions: a ^ b = 0 iff every form vanishes
at b, and the kernel of the wedge map by a is their null space, an r-column
matrix with one row per double point and two per triple point whose rank
comes from ``linalg.rank_pairs``.  At a point where a has one support line,
the conditions involve b at the point's other lines only: at a double point
one row with one nonzero entry, at a triple point one such row and one that
has a single entry left once ``rank_pairs`` deletes the first row's column.
``rank_pairs`` takes these rows as pivots without elimination.  For a local
candidate that is every point but its own triple point, so only points with
two or more support lines reach the Bareiss loop.  The premise, that the
points' pairs cover every pair of lines once, is checked when the quotient
is built.

The quotient keeps the line -> points index of the arrangement's incidence
record (``arrangement.Incidence``), and both questions visit only the points
it lists for the support lines.  The conditions of a are zero at a point
with no line of a's support, so the kernel's rows come from the points on
a's support lines: for a local candidate at most 3(r - 1) points, where r
lines may meet in up to r(r - 1)/2.  w_ij is zero unless lines i and j both
lie in the support {l : a_l != 0 or b_l != 0}, so ``wedge_vanishes``
evaluates the forms only at the points the index lists for two or more
support lines: one point for a local basis, every point for a pencil basis.

Each weight vector is scaled once into Z[w] (``weight_pairs``): a vector of
ints has scale 1 and its entries become pairs directly, any other is scaled
by the lcm of its denominators (``eisenstein.integer_pairs``).  The scale
is a positive integer, so it changes no answer: a coordinate sum is zero, a
basis is independent, a wedge vanishes and a wedge kernel has its dimension
exactly when the same holds before scaling, because (s a) ^ (t b) =
s t (a ^ b) for nonzero scalars s and t.

Candidate 2-dimensional components come from two sources and are checked,
not assumed: a triple point {i, j, k} spans e_i - e_j, e_j - e_k ("local"),
and a pencil decomposition (R1, R2, R3) spans chi_R1 - chi_R2,
chi_R2 - chi_R3 ("global").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .arrangement import Arrangement, IncidencePoint, incidence, require_multiplicities_ok
from .eisenstein import EisensteinNumber, Pair, integer_pairs, pair_mul
from .linalg import rank_pairs
from .pencils import PencilDecomposition

Weights = Sequence[EisensteinNumber | int]  # a weight vector: one entry per line


@dataclass
class OSDegree2:
    """Degree-2 quotient as the sum of one summand per incidence point.

    ``points`` holds the sorted line tuples of the points; each triple point
    carries one relation, and the relations have disjoint supports.
    ``on_line[l]`` lists the indices in ``points`` of the points on line l.
    """

    r: int
    points: tuple[tuple[int, ...], ...]
    on_line: tuple[tuple[int, ...], ...]

    @property
    def n_pairs(self) -> int:
        return self.r * (self.r - 1) // 2

    @property
    def relation_rank(self) -> int:
        return sum(1 for p in self.points if len(p) == 3)

    @property
    def quotient_rank(self) -> int:
        return self.n_pairs - self.relation_rank


def build_os2(arr: Arrangement) -> OSDegree2:
    require_multiplicities_ok(arr)
    record = incidence(arr)
    points = tuple(pt.lines for pt in record.points)
    pairs = sorted(pair for p in points for pair in combinations(p, 2))
    if pairs != list(combinations(range(arr.r), 2)):
        raise AssertionError("the incidence points do not cover each pair of lines exactly once")
    return OSDegree2(arr.r, points, record.on_line)


def weight_pairs(a: Weights) -> list[Pair]:
    """a scaled once into Z[w]; a vector of ints has scale 1, so each entry x is the pair (x, 0)."""
    if all(type(v) is int for v in a):
        return [(v, 0) for v in a]
    return integer_pairs([EisensteinNumber.of(v) for v in a])


def _check_weight(os: OSDegree2, a: Weights) -> list[Pair]:
    vec = weight_pairs(a)
    if len(vec) != os.r:
        raise ValueError(f"weight vector must have length {os.r}")
    return vec


def _local_conditions(
    points: Iterable[tuple[int, ...]], a: list[Pair]
) -> Iterator[tuple[tuple[int, Pair], ...]]:
    """The linear forms in b, as (line, Z[w] coefficient) terms, whose joint
    vanishing at the given points is a ^ b = 0 there: w_ij at a double point
    {i, j}, and w_ij + w_ik and w_jk - w_ij at a triple point {i < j < k}."""
    for p in points:
        i, j = p[0], p[1]
        if len(p) == 2:
            yield ((i, (-a[j][0], -a[j][1])), (j, a[i]))
        else:
            k = p[2]
            yield ((i, (-a[j][0] - a[k][0], -a[j][1] - a[k][1])), (j, a[i]), (k, a[i]))
            yield ((i, a[j]), (j, (-a[k][0] - a[i][0], -a[k][1] - a[i][1])), (k, a[j]))


def _wedge_vanishes(os: OSDegree2, a: list[Pair], b: list[Pair]) -> bool:
    """a ^ b = 0 for Z[w] weights: every condition of a, at the points with
    two support lines, vanishes at b.  A point is listed once for each of
    its support lines, so those points are the ones listed twice or more."""
    listed = Counter(n for l, (x, y) in enumerate(zip(a, b)) if x != (0, 0) or y != (0, 0) for n in os.on_line[l])
    points = (os.points[n] for n, count in listed.items() if count >= 2)
    for cond in _local_conditions(points, a):
        x = y = 0
        for l, c in cond:
            p, q = pair_mul(c, b[l])
            x, y = x + p, y + q
        if x or y:
            return False
    return True


def wedge_vanishes(os: OSDegree2, a: Weights, b: Weights) -> bool:
    """True iff a ^ b is zero in the quotient, checked only at the points
    that carry two lines of the support of a and b.

    w_ij is zero unless lines i and j both lie in the support, so a point
    with at most one support line imposes nothing.  a and b are each scaled
    once into Z[w]; a nonzero scale multiplies the wedge by a nonzero
    scalar, so whether it vanishes does not change.
    """
    return _wedge_vanishes(os, _check_weight(os, a), _check_weight(os, b))


def resonance_kernel_dim(os: OSDegree2, a: Weights) -> int:
    """dim { b : a ^ b = 0 in the quotient }; >= 2 means a is resonant.

    a is scaled once into Z[w], which leaves the kernel unchanged.  Only a
    point on a line of a's support has a nonzero condition, so the nonzero
    conditions at the points the index lists for those lines, in point
    order, are the rows of a ``rank_pairs`` call.
    """
    vec = _check_weight(os, a)
    support = [l for l, v in enumerate(vec) if v != (0, 0)]
    if not support:
        raise ValueError("the zero weight vector is not probed")
    visited = sorted({n for l in support for n in os.on_line[l]})
    rows = []
    for cond in _local_conditions((os.points[n] for n in visited), vec):
        if any(c != (0, 0) for _, c in cond):
            row = [(0, 0)] * os.r
            for l, c in cond:
                row[l] = c
            rows.append(row)
    return os.r - rank_pairs(rows)


def component_isotropy_check(os: OSDegree2, basis: list[Weights]) -> bool:
    """True iff all pairwise wedges of an independent sum-zero basis vanish.

    Each vector is scaled once into Z[w]; a positive integer scale keeps its
    coordinate sum zero or nonzero, the basis independent or dependent, and
    every wedge vanishing or not.
    """
    vectors = [_check_weight(os, v) for v in basis]
    for v in vectors:
        if sum(x for x, _ in v) or sum(y for _, y in v):
            raise ValueError("basis vectors must have coordinate sum zero")
    if rank_pairs(vectors) != len(vectors):
        raise ValueError("basis vectors are linearly dependent")
    return all(_wedge_vanishes(os, u, v) for u, v in combinations(vectors, 2))


def triple_point_basis(point: IncidencePoint, r: int) -> list[Weights]:
    """Local candidate component at a triple point, as integer vectors."""
    if point.multiplicity != 3:
        raise ValueError("local components come from triple points")
    i, j, k = point.lines
    u = [0] * r
    v = [0] * r
    u[i], u[j] = 1, -1
    v[j], v[k] = 1, -1
    return [u, v]


def pencil_basis(pencil: PencilDecomposition, r: int) -> list[Weights]:
    """Global candidate component spanned by class-indicator differences, as integer vectors."""
    chi = []
    for cls in pencil.classes:
        vec = [0] * r
        for i in cls:
            vec[i] = 1
        chi.append(vec)
    u = [a - b for a, b in zip(chi[0], chi[1])]
    v = [a - b for a, b in zip(chi[1], chi[2])]
    return [u, v]


def generic_member(basis: list[Weights]) -> Weights:
    """A fixed nonzero combination u + 2 v used for spot checks."""
    u, v = basis
    return [a + 2 * b for a, b in zip(u, v)]
