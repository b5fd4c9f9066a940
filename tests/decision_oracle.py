"""The pencil and resonance-candidate decisions as they were made before the
certificates alone decided them, kept as oracles.

``bareiss_dependence`` asks ``rank_pairs`` whether the m x 3 matrix of class
products has rank 2 and only then takes the cross product of two rows,
re-verified by dots.  ``two_call_fields`` is the isotropy check by pairwise
wedges, each tested point by point, with independence by ``rank_pairs``,
followed by a separate kernel solve, by a union-find and the Sigma-rows, of
the generic member (``generic_member``, u + 2v).  Neither shares code with
``pencils._dependence`` or with ``resonance``, where membership likewise
applies the rule at each point and only the kernel uses a union-find.  The
oracle reads each Z[w] weight vector on its own, through Q(w)
(``_weights``), and finds the points with support lines by scanning every
point of the arrangement, not through the record's line -> points index.
``rank_distinct_planes`` counts distinct planes by ``rank_pairs`` of
stacked bases, where ``resonance.distinct_planes`` uses Cramer's rule.
"""

from __future__ import annotations

from itertools import combinations

from pencilfiber.arrangement import intersection_points
from pencilfiber.eisenstein import EisensteinNumber, integer_row, pair_cross, pair_dot, pair_mul
from pencilfiber.linalg import find, rank_pairs


def bareiss_dependence(rows):
    """The kernel vector when the rows have rank 2 and it has no zero entry, else None."""
    if rank_pairs(rows) != 2:
        return None
    first = next(row for row in rows if any(v != (0, 0) for v in row))
    lam = next(c for c in (pair_cross(first, row) for row in rows) if any(v != (0, 0) for v in c))
    if (0, 0) in lam:
        return None
    if any(pair_dot(lam, row) != (0, 0) for row in rows):
        raise AssertionError("dependence failed exact re-verification")
    return lam


def _weights(r, a):
    """The Z[w] pairs of a weight vector and its support, read through Q(w):
    each pair becomes an EisensteinNumber, its support is read from those,
    and the values on it are scaled back into Z[w] by ``integer_row``."""
    if len(a) != r:
        raise ValueError(f"weight vector must have length {r}")
    values = [EisensteinNumber(*pair) for pair in a]
    support = [l for l, v in enumerate(values) if v]
    vec = [(0, 0)] * r
    for l, pair in zip(support, integer_row([values[l] for l in support])[0]):
        vec[l] = pair
    return vec, support


def _point_rules(points, a):
    for p in points:
        if any(a[l] != (0, 0) for l in p):
            sigma = len(p) == 3 and not (sum(a[l][0] for l in p) or sum(a[l][1] for l in p))
            yield p, sigma


def _points(arr):
    return [pt.lines for pt in intersection_points(arr)]


def _wedge_vanishes(arr, a, b, support):
    points = (p for p in _points(arr) if len(support.intersection(p)) >= 2)
    for p, sigma in _point_rules(points, a):
        if sigma:
            if sum(b[l][0] for l in p) or sum(b[l][1] for l in p):
                return False
            continue
        lead = next(l for l in p if a[l] != (0, 0))
        if any(pair_mul(a[lead], b[l]) != pair_mul(a[l], b[lead]) for l in p):
            return False
    return True


def wedge(arr, a, b):
    """a ^ b = 0, by the rule of a at the points with two lines of the joint support."""
    (u, support_u), (v, support_v) = _weights(arr.r, a), _weights(arr.r, b)
    return _wedge_vanishes(arr, u, v, set(support_u).union(support_v))


def isotropy(arr, basis):
    """All pairwise wedges vanish; ValueError for a basis that is not sum-zero or not independent."""
    weights = [_weights(arr.r, v) for v in basis]
    for vec, support in weights:
        if sum(vec[l][0] for l in support) or sum(vec[l][1] for l in support):
            raise ValueError("basis vectors must have coordinate sum zero")
    support = sorted(set().union(*(support for _, support in weights)))
    vectors = [vec for vec, _ in weights]
    if rank_pairs([[vec[l] for l in support] for vec in vectors]) != len(vectors):
        raise ValueError("basis vectors are linearly dependent")
    return all(_wedge_vanishes(arr, u, v, set(support)) for u, v in combinations(vectors, 2))


def kernel_dim(arr, a):
    """dim ker(a ^ .) by the union-find and Sigma-rows, read at the points on a's support lines."""
    vec, support = _weights(arr.r, a)
    if not support:
        raise ValueError("the zero weight vector is not probed")
    visited = [p for p in _points(arr) if any(vec[l] != (0, 0) for l in p)]
    parent = list(range(arr.r))
    forced = set()
    sigma_points = []
    for p, sigma in _point_rules(visited, vec):
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
    columns = {root: n for n, root in enumerate(dict.fromkeys(classes.values()))}
    unknowns = len(columns) + arr.r - len(support) - len(forced)
    for p in sigma_points:
        for l in p:
            if vec[l] == (0, 0) and l not in forced:
                columns.setdefault(l, len(columns))
    rows = []
    for p in sigma_points:
        row = [(0, 0)] * len(columns)
        for l in p:
            if vec[l] != (0, 0):
                n, (x, y) = columns[classes[l]], vec[l]
            elif l not in forced:
                n, (x, y) = columns[l], (1, 0)
            else:
                continue
            u, v = row[n]
            row[n] = (u + x, v + y)
        rows.append(row)
    return unknowns - rank_pairs(rows)


def generic_member(basis):
    """A fixed nonzero combination u + 2 v of a two-vector basis of Z[w] pairs, used for spot checks."""
    u, v = basis
    return [(a + 2 * c, b + 2 * d) for (a, b), (c, d) in zip(u, v)]


def two_call_fields(arr, basis):
    """(isotropic, kernel_dim of the generic member) by two separate calls."""
    return isotropy(arr, basis), kernel_dim(arr, generic_member(basis))


def rank_distinct_planes(r, bases):
    """How many distinct planes the two-vector bases span: a basis counts
    unless, stacked with one counted before, it still has rank 2."""
    counted = []
    for basis in bases:
        rows = [_weights(r, v)[0] for v in basis]
        if all(rank_pairs(rows + other) > 2 for other in counted):
            counted.append(rows)
    return len(counted)
