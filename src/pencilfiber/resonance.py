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
cover every pair of lines once, is checked once per arrangement, when its
incidence record (``arrangement.Incidence``) is built.

Every question takes the arrangement and reads that record through
``require_multiplicities_ok``, so a point on more than three lines raises
MultiplicityError; no other view of the quotient is built.  The relations
have disjoint supports, so the quotient's rank, which ``cli`` prints, is
C(r, 2) - t_3 for t_3 triple points.  Every pass visits only the points
that the record's line -> points index lists for the support lines.
a|q = 0 at a point with no line of a's support, so the kernel reads the
points on a's support lines: for a local candidate at most 3(r - 1)
points, where r lines may meet in up to r(r - 1)/2.  w_ij is zero unless
lines i and j both lie in the support {l : a_l != 0 or b_l != 0}, so a
membership test alone (``wedge_vanishes``, ``component_isotropy_check``)
passes only over the points the index lists for two or more support
lines: one point for a local basis, every point for a pencil basis.

A weight vector is a list of r Z[w] pairs, (x, y) meaning x + y*w; text
and Q(w) values are read into pairs before they get here
(``eisenstein.integer_row``, as ``cli`` reads ``--vector``), and a wrong
length raises ValueError.  The support, the lines l with a_l != 0, is read
from the pairs, and everything after that reads only the support:
coordinate sums, the independence of a basis on its support columns (for
two vectors, a nonzero 2 x 2 minor, with no elimination), the wedge at the
points carrying two support lines, and the kernel at the points on the
support lines, which counts the zero-weight lines without listing them.
Vectors scaled from Q(w) by a positive integer give the same answers: a
coordinate sum is zero, a basis is independent, a wedge vanishes and a
wedge kernel has its dimension exactly when the same holds before scaling,
because (s a) ^ (t b) = s t (a ^ b) for nonzero scalars s and t.

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
from the same pairs, by Cramer's rule against one nonzero 2 x 2
minor of each plane counted.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .arrangement import Arrangement, Incidence, IncidencePoint, require_multiplicities_ok
from .eisenstein import Pair, pair_mul
from .linalg import find, rank_pairs
from .pencils import PencilDecomposition


def _support(r: int, vec: Sequence[Pair]) -> list[int]:
    """The increasing lines l with vec_l != 0; ValueError unless vec has length r."""
    if len(vec) != r:
        raise ValueError(f"weight vector must have length {r}")
    return [l for l, pair in enumerate(vec) if pair != (0, 0)]


def _point_rules(points: Iterable[tuple[int, ...]], a: Sequence[Pair]) -> Iterator[tuple[tuple[int, ...], bool]]:
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


def _points_with_two(record: Incidence, support: Iterable[int]) -> list[tuple[int, ...]]:
    """The lines of the points that carry two or more of the support lines:
    a point is listed once for each of its support lines, so those listed
    twice or more."""
    listed = Counter(n for l in support for n in record.on_line[l])
    return [record.points[n].lines for n, count in listed.items() if count >= 2]


def _wedge_zero(a: Sequence[Pair], b: Sequence[Pair], points: Iterable[tuple[int, ...]]) -> bool:
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


def wedge_vanishes(arr: Arrangement, a: Sequence[Pair], b: Sequence[Pair]) -> bool:
    """True iff a ^ b is zero in the quotient, checked only at the points
    that carry two lines of the support of a and b.

    w_ij is zero unless lines i and j both lie in the support, so a point
    with at most one support line imposes nothing.
    """
    record = require_multiplicities_ok(arr)
    support = set(_support(arr.r, a)).union(_support(arr.r, b))
    return _wedge_zero(a, b, _points_with_two(record, support))


def resonance_kernel_dim(arr: Arrangement, a: Sequence[Pair]) -> int:
    """dim { b : a ^ b = 0 in the quotient }; >= 2 means a is resonant.

    Only the points the index lists for a's support lines have a|q != 0,
    and one rule pass over them, in the record's order, builds the kernel:
    a union-find joins the support lines that share a point other than a
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
    record = require_multiplicities_ok(arr)
    support = _support(arr.r, a)
    if not support:
        raise ValueError("the zero weight vector is not probed")
    parent = list(range(arr.r))
    forced, sigma_points = set(), []
    visited = sorted({n for l in support for n in record.on_line[l]})
    for p, sigma in _point_rules([record.points[n].lines for n in visited], a):
        if sigma:
            sigma_points.append(p)
            continue
        root = None
        for l in p:
            if a[l] == (0, 0):
                forced.add(l)
            elif root is None:
                root = find(parent, l)
            else:
                parent[find(parent, l)] = root
    classes = {l: find(parent, l) for l in support}
    # one column per class root, then one per unforced zero-weight line on a Sigma-point
    columns = {root: n for n, root in enumerate(dict.fromkeys(classes.values()))}
    unknowns = len(columns) + arr.r - len(classes) - len(forced)
    for l in dict.fromkeys(l for p in sigma_points for l in p if l not in classes and l not in forced):
        columns[l] = len(columns)
    rows = []
    for p in sigma_points:
        row = [(0, 0)] * len(columns)
        for l in p:
            if l not in forced:
                n, (x, y) = (columns[classes[l]], a[l]) if l in classes else (columns[l], (1, 0))
                row[n] = (row[n][0] + x, row[n][1] + y)
        rows.append(row)
    return unknowns - rank_pairs(rows)


def _det(u: Sequence[Pair], v: Sequence[Pair], l: int, m: int) -> Pair:
    """The 2 x 2 minor u_l v_m - u_m v_l over Z[w]."""
    (a, b), (c, d) = pair_mul(u[l], v[m]), pair_mul(u[m], v[l])
    return (a - c, b - d)


def _minor(u: Sequence[Pair], v: Sequence[Pair], support: list[int]) -> tuple[int, int] | None:
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


def _independent(vectors: Sequence[Sequence[Pair]], support: list[int]) -> bool:
    """Whether Z[w] vectors, read on their support columns, are linearly
    independent: for two, whether they have a nonzero 2 x 2 minor
    (``_minor``); any other number goes to ``linalg.rank_pairs``."""
    if len(vectors) != 2:
        return rank_pairs([[vec[l] for l in support] for vec in vectors]) == len(vectors)
    return _minor(*vectors, support) is not None


def component_isotropy_check(arr: Arrangement, basis: Sequence[Sequence[Pair]]) -> bool:
    """True iff all pairwise wedges of an independent sum-zero basis vanish;
    ValueError unless each vector has coordinate sum zero and they are
    independent.

    The check reads only the support S, the lines where some basis vector
    is nonzero: for each pair (u, v), one rule pass of u over the points
    with two lines of S tests v for membership in ker(u ^ .).  A point with
    fewer than two lines of its own pair's support satisfies that pair's
    rule, so reading it there changes nothing.
    """
    record = require_multiplicities_ok(arr)
    supports = [_support(arr.r, vec) for vec in basis]
    if any(sum(vec[l][0] for l in s) or sum(vec[l][1] for l in s) for vec, s in zip(basis, supports)):
        raise ValueError("basis vectors must have coordinate sum zero")
    support = sorted(set().union(*supports))
    if not _independent(basis, support):
        raise ValueError("basis vectors are linearly dependent")
    points = _points_with_two(record, support)
    return all(_wedge_zero(u, v, points) for u, v in combinations(basis, 2))


def triple_point_basis(point: IncidencePoint, r: int) -> list[list[Pair]]:
    """Local candidate component at a triple point {i, j, k}: e_i - e_j and e_j - e_k."""
    if point.multiplicity != 3:
        raise ValueError("local components come from triple points")
    i, j, k = point.lines
    u = [(0, 0)] * r
    v = [(0, 0)] * r
    u[i], u[j] = (1, 0), (-1, 0)
    v[j], v[k] = (1, 0), (-1, 0)
    return [u, v]


def pencil_basis(pencil: PencilDecomposition, r: int) -> list[list[Pair]]:
    """Global candidate component of a pencil (R1, R2, R3): chi_R1 - chi_R2 and chi_R2 - chi_R3."""
    first, second, third = pencil.classes
    u = [(0, 0)] * r
    v = [(0, 0)] * r
    for l in first:
        u[l] = (1, 0)
    for l in second:
        u[l], v[l] = (-1, 0), (1, 0)
    for l in third:
        v[l] = (-1, 0)
    return [u, v]


# a counted basis (u, v): its joint support, the columns l, m of a nonzero minor, and that minor
_Plane = tuple[Sequence[Pair], Sequence[Pair], set[int], int, int, Pair]


def distinct_planes(bases: Sequence[Sequence[Sequence[Pair]]]) -> int:
    """How many distinct planes the two-vector bases of weights span: an
    independent basis counts unless both its vectors lie in the plane of one
    counted before; a dependent one spans no plane.  Every vector must have
    the length of the first.

    A counted basis (u, v) keeps one nonzero minor D = u_l v_m - u_m v_l
    (``_minor``), and x lies in its plane iff x = (A u + B v) / D with
    Cramer's numerators A = x_l v_m - x_m v_l and B = u_l x_m - u_m x_l,
    that is iff D x_c = A u_c + B v_c at every column c where u, v or x is
    nonzero.  There is no division and no elimination.
    """
    counted: list[_Plane] = []
    r = len(bases[0][0]) if bases else 0
    for u, v in bases:
        support_u, support_v = _support(r, u), _support(r, v)
        support = set(support_u).union(support_v)
        minor = _minor(u, v, sorted(support))
        if minor is None or any(_in_plane(plane, u, support_u) and _in_plane(plane, v, support_v) for plane in counted):
            continue
        l, m = minor
        counted.append((u, v, support, l, m, _det(u, v, l, m)))
    return len(counted)


def _in_plane(plane: _Plane, x: Sequence[Pair], support_x: list[int]) -> bool:
    """Whether x lies in the plane of a basis counted by ``distinct_planes``, by Cramer's rule."""
    u, v, support, l, m, det = plane
    a, b = _det(x, v, l, m), _det(u, x, l, m)
    for c in support.union(support_x):
        (p, q), (s, t) = pair_mul(a, u[c]), pair_mul(b, v[c])
        if pair_mul(det, x[c]) != (p + s, q + t):
            return False
    return True
