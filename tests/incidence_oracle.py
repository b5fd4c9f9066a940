"""Q(w) incidence points and evaluation matrices: the tests' reference for both.

The package finds incidence points by exact tests over Z[w] and evaluates
monomials at Z[w] representatives of the triple points.  The tests check
those answers against this normalise-and-group code over Q(w), which shares
no code with them beyond ``EisensteinNumber``: its points are its own
records of Q(w) coordinates and lines.  It reads a package line or point
only through its Z[w] triple ``pairs`` (``normalize_pairs``, ``of_point``).
"""

from typing import NamedTuple

from linalg_oracle import cross
from pencilfiber.eisenstein import EisensteinNumber
from pencilfiber.milnor import monomial_exponents


class OraclePoint(NamedTuple):
    point: tuple
    lines: tuple

    @property
    def multiplicity(self):
        return len(self.lines)


def normalize_point(p):
    lead = next((v for v in p if v), None)
    if lead is None:
        raise ValueError("cannot normalize the zero triple")
    inv = lead.inverse()
    return tuple(v * inv for v in p)


def normalize_pairs(p):
    """The Q(w) triple proportional to the Z[w] triple p whose first nonzero entry is 1."""
    return normalize_point([EisensteinNumber(a, b) for a, b in p])


def of_point(pt):
    """A package incidence point as an oracle point, at its normalized coordinates."""
    return OraclePoint(normalize_pairs(pt.pairs), pt.lines)


def line_intersection(l1, l2):
    """Cross product of coefficient triples, normalized."""
    return normalize_point(cross(normalize_pairs(l1.pairs), normalize_pairs(l2.pairs)))


def intersection_points(arr):
    """All pairwise intersections, grouped by their normalized triples."""
    groups = {}
    n = arr.r
    for i in range(n):
        for j in range(i + 1, n):
            p = line_intersection(arr.lines[i], arr.lines[j])
            groups.setdefault(p, set()).update((i, j))
    points = [OraclePoint(p, tuple(sorted(idx))) for p, idx in groups.items()]
    points.sort(key=lambda ip: (-ip.multiplicity, tuple(str(c) for c in ip.point)))
    return tuple(points)


def evaluation_matrix(points, degree):
    """Rows of the degree-``degree`` monomials evaluated at the normalized points."""
    monomials = monomial_exponents(degree)
    rows = []
    for pt in points:
        x, y, z = pt.point
        rows.append([x**i * y**j * z**k for (i, j, k) in monomials])
    return rows
