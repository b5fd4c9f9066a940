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
At a double point {i, j} the summand is free on e_i e_j; at a triple point
{i < j < k} it is Lambda^2 of the point's three lines modulo the relation
e_ij - e_ik + e_jk = (e_i - e_j) ^ (e_j - e_k), which spans Lambda^2 of the
sum-zero plane.  So whether a ^ b vanishes at q depends only on the
restrictions a|q and b|q, by one rule:

- a|q = 0: nothing is imposed;
- q is a Sigma-point, a triple point with a|q != 0 and sum a|q = 0: a ^ b
  vanishes at q iff sum b|q = 0;
- any other point: iff b|q is parallel to a|q.

The rule is stated once (``_point_rules``), and both kinds of question
read it.  Membership needs nothing global: ``wedge_vanishes`` and
``component_isotropy_check`` test a given b by applying the rule at each
point, a sum at a Sigma-point and a cross-multiplication against a|q at
any other.  Only ``resonance_kernel_dim`` solves the rule for every b:
parallelism forces b_l = 0 at each line with a_l = 0 and joins the lines
with a_l != 0 in a union-find, with b_l = a_l t_class; the Sigma-points
leave one linear row each in the class unknowns and the unforced
zero-weight lines, and the dimension is the number of unknowns minus the
``linalg.rank_pairs`` of those rows.  The premise, that the points' pairs
cover every pair of lines once, is checked when the quotient is built.

The quotient keeps the line -> points index of the arrangement's incidence
record (``arrangement.Incidence``), and every pass visits only the points
it lists for the support lines.  a|q = 0 at a point with no line of a's
support, so the kernel reads the points on a's support lines: for a local
candidate at most 3(r - 1) points, where r lines may meet in up to
r(r - 1)/2.  w_ij is zero unless lines i and j both lie in the support
{l : a_l != 0 or b_l != 0}, so a membership test alone (``wedge_vanishes``,
``component_isotropy_check``) passes only over the points the index lists
for two or more support lines: one point for a local basis, every point for
a pencil basis.

Each weight vector is read once, by the one weight scaler ``_weights``,
into its Z[w] pairs and its support lines: a vector of ints has scale 1 and
its nonzero entries become pairs directly, any other is scaled by the lcm
of its denominators (``eisenstein.integer_row``), and its support is read
from the pairs.  Everything after that reads only the support: coordinate
sums, the independence of a basis on its support columns (for two vectors,
a nonzero 2 x 2 minor, with no elimination), the wedge at the points
carrying two support lines, and the kernel at the points on the support
lines, which counts the zero-weight lines without listing them.  The scale
is a positive integer, so it changes no answer: a coordinate sum is zero, a
basis is independent, a wedge vanishes and a wedge kernel has its dimension
exactly when the same holds before scaling, because
(s a) ^ (t b) = s t (a ^ b) for nonzero scalars s and t.

Candidate 2-dimensional components come from two sources: a triple point
{i, j, k} spans e_i - e_j, e_j - e_k ("local"), and a pencil decomposition
(R1, R2, R3) spans chi_R1 - chi_R2, chi_R2 - chi_R3 ("global").  Both are
decided by the rule alone, so ``analyze`` prints their fields with no pass;
``crosscheck`` still tests each basis by ``component_isotropy_check``.

A local generic member a = e_i + e_j - 2 e_k is nonzero on exactly i, j
and k.  The point p of multiplicity exactly 3 is the only point with two
of those lines, so every other line l meets line i at a point q != p where
a|q has one nonzero entry; b|q parallel to a|q forces b_l = 0.  At p, b|p
must sum to zero, and nothing else binds.  So ker(a ^ .) is the
2-dimensional space of weights on i, j, k that sum to zero, which holds
e_i - e_j and e_j - e_k: the candidate is isotropic with kernel
dimension 2.

A pencil's classes are the level sets of an F3 cocycle, so two lines of
one class meet at a point that holds only lines of that class, and lines
of two classes meet only at a triple point with one line of each class.
The generic member a = u + 2v = chi_R1 + chi_R2 - 2 chi_R3 is nonzero on
every line, so no line is forced.  At a point of one class a|q is constant
and nonzero, so b is parallel to a there and each class is one class of
the union-find, with b = a t_n on R_n.  Every other point holds one line
of each class, so it is a Sigma-point with a|q = (1, 1, -2) up to order,
and each gives the same row t_1 + t_2 - 2 t_3 = 0: the kernel has
dimension 3 - 1 = 2.  v is t = (0, 1, 1/2), which satisfies the row, so
the basis is isotropic.

``distinct_planes`` counts the distinct planes that candidate bases span,
from the same scaled vectors, by Cramer's rule against one nonzero 2 x 2
minor of each plane counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

from .arrangement import Arrangement, IncidencePoint, incidence, require_multiplicities_ok
from .eisenstein import EisensteinNumber, Pair, integer_row, pair_mul
from .linalg import find, rank_pairs
from .pencils import PencilDecomposition

Weights = Sequence[EisensteinNumber | int | str]  # a weight vector: one entry per line
_INT = frozenset({int})


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


def _weights(r: int, a: Weights) -> tuple[list[Pair], list[int]]:
    """a scaled once into Z[w], with its support, the increasing lines l
    with a_l != 0; ValueError unless a has length r.

    A vector of ints has scale 1: its entries become the pairs (x, 0), and
    its support is found without a Python loop.  Any other vector is read by
    ``eisenstein.integer_row``, scaled by the lcm of its denominators, and
    its support is read from the pairs.
    """
    if len(a) != r:
        raise ValueError(f"weight vector must have length {r}")
    if set(map(type, a)) == _INT:
        return [(x, 0) for x in a], list(compress(range(r), a))
    vec, _ = integer_row(a)
    return vec, [l for l, pair in enumerate(vec) if pair != (0, 0)]


def _point_rules(points: Iterable[tuple[int, ...]], a: list[Pair]) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Each given point q where a|q != 0, with True when q is a Sigma-point
    (a triple point with sum a|q = 0): there a ^ b vanishes iff sum b|q = 0,
    and at the others iff b|q is parallel to a|q."""
    for p in points:
        if len(p) == 2:
            if a[p[0]] != (0, 0) or a[p[1]] != (0, 0):
                yield p, False
        else:
            (x, y), (u, v), (s, t) = a[p[0]], a[p[1]], a[p[2]]
            if x or y or u or v or s or t:
                yield p, not (x + u + s or y + v + t)


def _points_with_two(os: OSDegree2, support: Iterable[int]) -> list[tuple[int, ...]]:
    """The points that carry two or more of the support lines: a point is
    listed once for each of its support lines, so those listed twice or
    more."""
    listed = Counter(n for l in support for n in os.on_line[l])
    return [os.points[n] for n, count in listed.items() if count >= 2]


def _wedge_zero(a: list[Pair], b: list[Pair], points: Iterable[tuple[int, ...]]) -> bool:
    """Whether a ^ b = 0 at the given points, by the rule at each point q
    where a|q != 0: at a Sigma-point b|q sums to zero, and at any other
    point b|q is parallel to a|q, cross-multiplied against the first line m
    of q with a_m != 0 (so b_l = 0 where a_l = 0)."""
    for p, sigma in _point_rules(points, a):
        if sigma:
            i, j, k = p
            if b[i][0] + b[j][0] + b[k][0] or b[i][1] + b[j][1] + b[k][1]:
                return False
            continue
        m = next(l for l in p if a[l] != (0, 0))
        if any(pair_mul(a[m], b[l]) != pair_mul(a[l], b[m]) for l in p):
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
    (u, support_u), (v, support_v) = _weights(os.r, a), _weights(os.r, b)
    return _wedge_zero(u, v, _points_with_two(os, set(support_u).union(support_v)))


def resonance_kernel_dim(os: OSDegree2, a: Weights) -> int:
    """dim { b : a ^ b = 0 in the quotient }; >= 2 means a is resonant.

    a is scaled once into Z[w], which leaves the kernel unchanged.  Only the
    points the index lists for a's support lines have a|q != 0, and one
    rule pass over them, in the quotient's order, builds the kernel: a
    union-find joins the support lines that share a point other than a
    Sigma-point, where b|q is parallel to a|q, so b_l = a_l t with one t per
    class; the zero-weight lines on those points are forced to b_l = 0; and
    each Sigma-point leaves the row sum b|q = 0.

    The unknowns are one t per class and one b_l per zero-weight line that
    is not forced; a Sigma-point's row adds a_l to the column of l's class
    and 1 to the column of each such line on it.  The zero-weight lines are
    counted, not listed: one on no Sigma-point is an unknown with an empty
    column, so it gets no column.  The dimension is the number of unknowns
    minus the ``linalg.rank_pairs`` of the rows.
    """
    vec, support = _weights(os.r, a)
    if not support:
        raise ValueError("the zero weight vector is not probed")
    parent = list(range(os.r))
    forced, sigma_points = set(), []
    for p, sigma in _point_rules([os.points[n] for n in sorted({n for l in support for n in os.on_line[l]})], vec):
        if sigma:
            sigma_points.append(p)
            continue
        root = None
        for l in p:
            if vec[l] == (0, 0):
                forced.add(l)
            elif root is None:
                root = find(parent, l)
            else:
                parent[find(parent, l)] = root
    classes = {l: find(parent, l) for l in support}
    # one column per class root, then one per unforced zero-weight line on a Sigma-point
    columns = {root: n for n, root in enumerate(dict.fromkeys(classes.values()))}
    unknowns = len(columns) + os.r - len(classes) - len(forced)
    for l in dict.fromkeys(l for p in sigma_points for l in p if l not in classes and l not in forced):
        columns[l] = len(columns)
    rows = []
    for p in sigma_points:
        row = [(0, 0)] * len(columns)
        for l in p:
            if l not in forced:
                n, (x, y) = (columns[classes[l]], vec[l]) if l in classes else (columns[l], (1, 0))
                row[n] = (row[n][0] + x, row[n][1] + y)
        rows.append(row)
    return unknowns - rank_pairs(rows)


def _det(u: list[Pair], v: list[Pair], l: int, m: int) -> Pair:
    """The 2 x 2 minor u_l v_m - u_m v_l over Z[w]."""
    (a, b), (c, d) = pair_mul(u[l], v[m]), pair_mul(u[m], v[l])
    return (a - c, b - d)


def _minor(u: list[Pair], v: list[Pair], support: list[int]) -> tuple[int, int] | None:
    """Columns (l, m) in the support with u_l v_m - u_m v_l != 0, or None when
    u and v are dependent.

    No elimination is needed: when u != 0 with first nonzero column l, v is
    the multiple (v_l / u_l) u exactly when every minor u_l v_m - u_m v_l is
    zero.
    """
    lead = next((l for l in support if u[l] != (0, 0)), None)
    if lead is None:
        return None
    return next(((lead, m) for m in support if _det(u, v, lead, m) != (0, 0)), None)


def _independent(vectors: list[list[Pair]], support: list[int]) -> bool:
    """Whether Z[w] vectors, read on their support columns, are linearly
    independent: for two, whether they have a nonzero 2 x 2 minor
    (``_minor``); any other number goes to ``linalg.rank_pairs``."""
    if len(vectors) != 2:
        return rank_pairs([[vec[l] for l in support] for vec in vectors]) == len(vectors)
    return _minor(*vectors, support) is not None


def component_isotropy_check(os: OSDegree2, basis: list[Weights]) -> bool:
    """True iff all pairwise wedges of an independent sum-zero basis vanish;
    ValueError unless each vector has coordinate sum zero and they are
    independent.

    Each vector is scaled once into Z[w], which keeps every coordinate sum
    zero or nonzero, the basis independent or dependent and every wedge
    vanishing or not.  The check reads only the support S, the lines where
    some basis vector is nonzero: for each pair (u, v), one rule pass of u
    over the points with two lines of S tests v for membership in
    ker(u ^ .).  A point with fewer than two lines of its own pair's support
    satisfies that pair's rule, so reading it there changes nothing.
    """
    weights = [_weights(os.r, v) for v in basis]
    if any(sum(vec[l][0] for l in support) or sum(vec[l][1] for l in support) for vec, support in weights):
        raise ValueError("basis vectors must have coordinate sum zero")
    support = sorted(set().union(*(support for _, support in weights)))
    if not _independent([vec for vec, _ in weights], support):
        raise ValueError("basis vectors are linearly dependent")
    points = _points_with_two(os, support)
    return all(_wedge_zero(u, v, points) for (u, _), (v, _) in combinations(weights, 2))


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


# a counted basis (u, v): its joint support, the columns l, m of a nonzero minor, and that minor
_Plane = tuple[list[Pair], list[Pair], set[int], int, int, Pair]


def distinct_planes(r: int, bases: list[list[Weights]]) -> int:
    """How many distinct planes the two-vector bases of weights on r lines
    span: an independent basis counts unless both its vectors lie in the
    plane of one counted before; a dependent one spans no plane.

    Each vector is scaled once into Z[w], which keeps every span.  A counted
    basis (u, v) keeps one nonzero minor D = u_l v_m - u_m v_l (``_minor``),
    and x lies in its plane iff x = (A u + B v) / D with Cramer's numerators
    A = x_l v_m - x_m v_l and B = u_l x_m - u_m x_l, that is iff
    D x_c = A u_c + B v_c at every column c where u, v or x is nonzero.
    There is no division and no elimination.
    """
    counted: list[_Plane] = []
    for basis in bases:
        (u, support_u), (v, support_v) = (_weights(r, vec) for vec in basis)
        support = set(support_u).union(support_v)
        minor = _minor(u, v, sorted(support))
        if minor is None or any(_in_plane(plane, u, support_u) and _in_plane(plane, v, support_v) for plane in counted):
            continue
        l, m = minor
        counted.append((u, v, support, l, m, _det(u, v, l, m)))
    return len(counted)


def _in_plane(plane: _Plane, x: list[Pair], support_x: list[int]) -> bool:
    """Whether x lies in the plane of a basis counted by ``distinct_planes``, by Cramer's rule."""
    u, v, support, l, m, det = plane
    a, b = _det(x, v, l, m), _det(u, x, l, m)
    for c in support.union(support_x):
        (p, q), (s, t) = pair_mul(a, u[c]), pair_mul(b, v[c])
        if pair_mul(det, x[c]) != (p + s, q + t):
            return False
    return True

