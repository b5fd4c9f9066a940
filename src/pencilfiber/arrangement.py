"""Line arrangements in the complex projective plane over Q(w).

Lines are coefficient triples (a, b, c) of a*x + b*y + c*z, normalized so
the first nonzero coefficient is 1; an arrangement is an ordered list of
pairwise distinct lines.  Intersection data is grouped by exact projective
coordinates, so two points are equal iff their normalized triples agree
field-by-field.

Combinatorial equivalence is incidence-structure isomorphism of the triple
points; double points are determined by r and those.  The canonical form is
exact at every size: colour refinement plus individualization (McKay and
Piperno, "Practical graph isomorphism II", 2014) over the lines through
triple points, keeping the least relabelled encoding over all discrete
leaves of the search tree.  The search prunes by the automorphisms it
finds: it jumps back from a leaf whose code equals the first leaf's, and
skips a child in the orbit of a searched sibling under the automorphisms
that fix the node.  Both skip only subtrees whose leaf codes are images of
codes already seen, so the least code is the one the full tree gives.
Like every other invariant here it requires multiplicities <= 3.

Arrangement JSON: {"label": "...", "lines": [["<eis>", "<eis>", "<eis>"], ...]}
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .eisenstein import EisensteinNumber, json_list
from .forms import HomForm
from .linalg import Matrix, cross

Point = tuple[EisensteinNumber, EisensteinNumber, EisensteinNumber]


class MultiplicityError(ValueError):
    """An intersection point has more than three lines through it."""

    def __init__(self, point: "IncidencePoint") -> None:
        super().__init__(
            f"point {point.point_str()} lies on {point.multiplicity} lines "
            f"(indices {list(point.lines)}); only multiplicities <= 3 are supported"
        )
        self.point = point


class Line:
    """A projective line, normalized so the first nonzero coefficient is 1."""

    __slots__ = ("coeffs",)

    def __init__(
        self,
        a: EisensteinNumber | int | str,
        b: EisensteinNumber | int | str,
        c: EisensteinNumber | int | str,
    ) -> None:
        coeffs = (EisensteinNumber.of(a), EisensteinNumber.of(b), EisensteinNumber.of(c))
        lead = next((v for v in coeffs if v), None)
        if lead is None:
            raise ValueError("a line needs a nonzero coefficient")
        inv = lead.inverse()
        self.coeffs = tuple(v * inv for v in coeffs)

    @property
    def form(self) -> HomForm:
        return HomForm.linear(*self.coeffs)

    def eval_at(self, point: Point) -> EisensteinNumber:
        a, b, c = self.coeffs
        return a * point[0] + b * point[1] + c * point[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Line({', '.join(str(c) for c in self.coeffs)})"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Line":
        if len(json_list(data, "a line")) != 3:
            raise ValueError("a line is a triple of coefficients")
        return cls(*data)


class Arrangement:
    """Nonempty ordered list of pairwise distinct lines with a label."""

    __slots__ = ("lines", "label", "_points")

    def __init__(self, lines: Iterable[Line], label: str = "") -> None:
        self.lines = tuple(lines)
        if not self.lines:
            raise ValueError("an arrangement needs at least one line")
        self.label = label
        self._points: tuple[IncidencePoint, ...] | None = None
        seen: dict[Line, int] = {}
        for idx, line in enumerate(self.lines):
            if not isinstance(line, Line):
                raise TypeError("expected Line instances")
            if line in seen:
                raise ValueError(f"lines {seen[line]} and {idx} are proportional")
            seen[line] = idx

    @property
    def r(self) -> int:
        return len(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def reordered(self, order: Sequence[int], label: str | None = None) -> "Arrangement":
        return Arrangement([self.lines[i] for i in order], self.label if label is None else label)

    def to_json(self) -> dict:
        return {"label": self.label, "lines": [line.to_json() for line in self.lines]}

    @classmethod
    def from_json(cls, data: dict) -> "Arrangement":
        label = data.get("label", "")
        if not isinstance(label, str):
            raise TypeError(f"label must be a JSON string, not {type(label).__name__}")
        return cls([Line.from_json(entry) for entry in json_list(data["lines"], "lines")], label)

    def __repr__(self) -> str:
        return f"Arrangement({self.label!r}, r={self.r})"


def normalize_point(p: Point) -> Point:
    lead = next((v for v in p if v), None)
    if lead is None:
        raise ValueError("cannot normalize the zero triple")
    inv = lead.inverse()
    return tuple(v * inv for v in p)


def line_intersection(l1: Line, l2: Line) -> Point:
    """Cross product of coefficient triples, normalized."""
    return normalize_point(cross(l1.coeffs, l2.coeffs))


@dataclass(frozen=True)
class IncidencePoint:
    point: Point
    lines: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.lines)

    def point_str(self) -> str:
        return "[" + ":".join(str(c) for c in self.point) + "]"

    def to_json(self) -> dict:
        return {
            "point": [str(c) for c in self.point],
            "lines": list(self.lines),
            "multiplicity": self.multiplicity,
        }


def intersection_points(arr: Arrangement) -> tuple[IncidencePoint, ...]:
    """All pairwise intersections, grouped exactly into incidence points.

    Computed once per arrangement and kept on it.
    """
    if arr._points is None:
        groups: dict[Point, set[int]] = {}
        n = arr.r
        for i in range(n):
            for j in range(i + 1, n):
                p = line_intersection(arr.lines[i], arr.lines[j])
                groups.setdefault(p, set()).update((i, j))
        points = [IncidencePoint(p, tuple(sorted(idx))) for p, idx in groups.items()]
        points.sort(key=lambda ip: (-ip.multiplicity, tuple(str(c) for c in ip.point)))
        arr._points = tuple(points)
    return arr._points


def point_census(points: Iterable[IncidencePoint]) -> dict[int, int]:
    census: dict[int, int] = {}
    for pt in points:
        census[pt.multiplicity] = census.get(pt.multiplicity, 0) + 1
    return census


def validate_multiplicities(arr: Arrangement) -> IncidencePoint | None:
    """None when every point has multiplicity <= 3, else a violating point."""
    for pt in intersection_points(arr):
        if pt.multiplicity > 3:
            return pt
    return None


def require_multiplicities_ok(arr: Arrangement) -> tuple[IncidencePoint, ...]:
    points = intersection_points(arr)
    for pt in points:
        if pt.multiplicity > 3:
            raise MultiplicityError(pt)
    return points


@dataclass(frozen=True)
class CombinatorialType:
    """Canonical certificate of the rank-2 incidence structure.

    ``canonical`` is the least relabelled encoding of the triple points over
    the lines they cover, so two arrangements have equal types iff their
    intersection lattices are isomorphic.
    """

    r: int
    census: tuple[tuple[int, int], ...]
    canonical: tuple[tuple[int, int, int], ...]


def _refine(colour: list[int], incident: list[list[tuple[int, int]]]) -> list[int]:
    """Coarsest equitable refinement of an ordered vertex colouring.

    A vertex's signature is its colour followed by the sorted colour pairs of
    its partners at each triple; ranking the distinct signatures splits cells
    in place, so colours depend on the incidence structure, never on labels.
    The unordered pair {x, y} is encoded as 2**x + 2**y, which is injective.
    """
    cells = len(set(colour))
    while True:
        signatures = [
            (colour[v], tuple(sorted((1 << colour[a]) + (1 << colour[b]) for a, b in pairs)))
            for v, pairs in enumerate(incident)
        ]
        rank = {sig: n for n, sig in enumerate(sorted(set(signatures)))}
        colour = [rank[sig] for sig in signatures]
        if len(rank) == cells:
            return colour
        cells = len(rank)


def _canonical_encoding(triples: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Least relabelled encoding of a set of triples over the lines they cover.

    Search tree: refine, then branch by individualizing each vertex of the
    first non-singleton cell.  Every discrete leaf is a relabelling chosen
    by incidence alone, so the minimum over all leaves is canonical.

    The search is depth first and prunes by the automorphisms it finds.  A
    leaf whose code equals the first leaf's gives the automorphism
    g(v) = first^-1(colour(v)), which fixes every vertex individualized above
    the deepest node the two paths share and maps this leaf's branch there
    onto the first leaf's, already searched; so the search jumps back to
    that node.  At every node a child is skipped when it lies in the orbit
    of a searched sibling under the found automorphisms that fix the node's
    individualized vertices.  Refinement commutes with automorphisms, so a
    skipped subtree's leaf codes are the codes of a searched one: the
    minimum, and so the type, is the same as over the whole tree.
    """
    index = {v: n for n, v in enumerate(sorted({v for t in triples for v in t}))}
    triples = [tuple(index[v] for v in t) for t in triples]
    incident: list[list[tuple[int, int]]] = [[] for _ in index]
    for a, b, c in triples:
        incident[a].append((b, c))
        incident[b].append((a, c))
        incident[c].append((a, b))
    automorphisms: list[list[int]] = []
    first_code, first_path, first_vertex = None, [], []
    best = None
    # one frame per node on the current path: its colouring, the cell it
    # branches on, the children not yet tried and those searched; the last
    # searched child is the one on the path
    frames: list[tuple[list[int], int, list[int], list[int]]] = []
    colour = [0] * len(index)
    while True:
        colour = _refine(colour, incident)
        target = min((c for c, n in Counter(colour).items() if n > 1), default=None)
        if target is not None:
            frames.append((colour, target, [v for v, c in enumerate(colour) if c == target], []))
        else:
            code = tuple(sorted(tuple(sorted(colour[v] for v in t)) for t in triples))
            path = [frame[3][-1] for frame in frames]
            if first_code is None:
                first_code = best = code
                first_path = path
                first_vertex = sorted(range(len(colour)), key=colour.__getitem__)
            elif code == first_code:
                automorphisms.append([first_vertex[c] for c in colour])
                shared = next(k for k, (u, v) in enumerate(zip(path, first_path)) if u != v)
                del frames[shared + 1 :]
            elif code < best:
                best = code
        while frames:
            node, target, untried, searched = frames[-1]
            fixed = [frame[3][-1] for frame in frames[:-1]]
            orbit = _orbit(searched, [g for g in automorphisms if all(g[v] == v for v in fixed)])
            while untried and untried[0] in orbit:
                untried.pop(0)
            if untried:
                v = untried.pop(0)
                searched.append(v)
                # v keeps the front of its cell; the rest of the cell follows it
                colour = [2 * d + (d == target and u != v) for u, d in enumerate(node)]
                break
            frames.pop()
        else:
            return best


def _orbit(seeds: list[int], maps: list[list[int]]) -> set[int]:
    """The union of the orbits of ``seeds`` under the group the maps generate."""
    orbit = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for g in maps:
            if g[v] not in orbit:
                orbit.add(g[v])
                frontier.append(g[v])
    return orbit


def combinatorial_type(arr: Arrangement) -> CombinatorialType:
    """Exact combinatorial type; MultiplicityError above multiplicity 3."""
    points = require_multiplicities_ok(arr)
    census = tuple(sorted(point_census(points).items()))
    triples = [pt.lines for pt in points if pt.multiplicity == 3]
    return CombinatorialType(arr.r, census, _canonical_encoding(triples))


def proj_transform(arr: Arrangement, matrix: Matrix) -> Arrangement:
    """The image of every line under the point map p -> M p.

    A line a goes to a * M^-1, which ``Line`` normalisation makes a * adj(M).
    The columns of adj(M) are the cross products of pairs of rows of M, and
    the first row's dot product with the first column is det(M).  A matrix
    that is not 3x3 or has det(M) = 0 raises ValueError.
    """
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix):
        raise ValueError("a projective transform is a 3x3 matrix")
    r0, r1, r2 = ([EisensteinNumber.of(v) for v in row] for row in matrix)
    columns = (cross(r1, r2), cross(r2, r0), cross(r0, r1))
    if not _dot(r0, columns[0]):
        raise ValueError("matrix is singular")
    return Arrangement([Line(*(_dot(line.coeffs, col) for col in columns)) for line in arr.lines], arr.label)


def _dot(u: Sequence[EisensteinNumber], v: Sequence[EisensteinNumber]) -> EisensteinNumber:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
