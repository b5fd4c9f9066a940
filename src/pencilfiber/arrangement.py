"""Line arrangements in the complex projective plane over Q(w).

Lines are coefficient triples (a, b, c) of a*x + b*y + c*z; an arrangement
is an ordered list of pairwise distinct lines.  All projective work is over
Z[w], and Q(w) appears only as printed text.  A line's coefficients, text
or numbers, go straight into Z[w] by ``eisenstein.integer_row``, the one
way in, which the matrix of a projective transform also takes, and from
there to the line's canonical triple (``canonical_pairs``: first nonzero
coefficient a positive integer, integer content 1).  The point of two lines
is their cross product, and two crossings are one point iff the canonical
triples of their cross products are equal.  So one dict keyed by that
triple groups the r(r - 1)/2 crossings exactly in O(r^2) steps, with no
check after it, and each point stores only that canonical triple and its
lines.  Lines and points store no Q(w) form, and build none to be printed:
the strings of their Q(w) coordinates, lead coordinate 1, are printed from
the integers by ``eisenstein.normalized_strs``, and the points are sorted
by those strings.

The incidence data is built once per arrangement and kept on it as one
``Incidence`` record that every layer reads: the sorted points, the index of
the points on each line, the first point on more than three lines, if any,
and, on first use, the F3 basis of the mod-3 cocycles that ``pencils``
reads for beta_3 and the candidate partitions.  A double point only says
that its two lines carry one label, so a union-find joins them into
classes, and ``linalg.nullspace_f3`` receives one row per triple point over
one column per class; the basis is expanded back to the lines by class.

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
from itertools import combinations
from typing import Iterable, Sequence

from .eisenstein import (
    EisensteinNumber,
    Pair,
    canonical_pairs,
    integer_row,
    json_list,
    json_object,
    normalized_strs,
    pair_cross,
    pair_dot,
)
from .linalg import find, nullspace_f3


class MultiplicityError(ValueError):
    """An intersection point has more than three lines through it."""

    def __init__(self, point: "IncidencePoint") -> None:
        super().__init__(
            f"point {point.point_str()} lies on {point.multiplicity} lines "
            f"(indices {list(point.lines)}); only multiplicities <= 3 are supported"
        )
        self.point = point


class Line:
    """A projective line a*x + b*y + c*z.

    ``pairs`` is its canonical Z[w] triple (``eisenstein.canonical_pairs``):
    the first nonzero coefficient is the positive integer ``scale`` and the
    integer content is 1.  Equality and hashing read ``pairs``.  ``to_json``
    prints pairs / scale, the Q(w) triple whose first nonzero coefficient is
    1, from the integers, by ``eisenstein.normalized_strs``.
    """

    __slots__ = ("pairs", "scale")

    def __init__(
        self,
        a: EisensteinNumber | int | str,
        b: EisensteinNumber | int | str,
        c: EisensteinNumber | int | str,
    ) -> None:
        self._set(integer_row((a, b, c))[0])

    @classmethod
    def from_pairs(cls, triple: Sequence[Pair]) -> "Line":
        """The line with coefficients the Z[w] triple, up to scale."""
        line = cls.__new__(cls)
        line._set(triple)
        return line

    def _set(self, triple: Sequence[Pair]) -> None:
        if all(v == (0, 0) for v in triple):
            raise ValueError("a line needs a nonzero coefficient")
        self.pairs = canonical_pairs(triple)
        self.scale = next(a for a, _ in self.pairs if a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Line({', '.join(self.to_json())})"

    def to_json(self) -> list[str]:
        return list(normalized_strs(self.pairs))

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Line":
        if len(json_list(data, "a line")) != 3:
            raise ValueError("a line is a triple of coefficients")
        return cls(*data)


class Arrangement:
    """Nonempty ordered list of pairwise distinct lines with a label."""

    __slots__ = ("lines", "label", "_incidence")

    def __init__(self, lines: Iterable[Line], label: str = "") -> None:
        self.lines = tuple(lines)
        if not self.lines:
            raise ValueError("an arrangement needs at least one line")
        self.label = label
        self._incidence: Incidence | None = None
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
        label = json_object(data, "an arrangement").get("label", "")
        if not isinstance(label, str):
            raise TypeError(f"label must be a JSON string, not {type(label).__name__}")
        return cls([Line.from_json(entry) for entry in json_list(data["lines"], "lines")], label)

    def __repr__(self) -> str:
        return f"Arrangement({self.label!r}, r={self.r})"


@dataclass(frozen=True)
class IncidencePoint:
    """A point and the increasing indices of the lines through it.

    ``pairs`` is a Z[w] triple of the point; ``incidence`` stores its
    canonical triple (``eisenstein.canonical_pairs``), so equality and
    hashing, which read ``pairs`` and ``lines``, compare points exactly.
    ``point_str`` and ``to_json`` print the Q(w) triple of the point whose
    first nonzero coordinate is 1 from the integers, by
    ``eisenstein.normalized_strs``.
    """

    pairs: tuple[Pair, ...]
    lines: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.lines)

    def _strs(self) -> tuple[str, ...]:
        # pairs need not be canonical when the point is built by hand
        return normalized_strs(canonical_pairs(self.pairs))

    def point_str(self) -> str:
        return "[" + ":".join(self._strs()) + "]"

    def to_json(self) -> dict:
        return {
            "point": list(self._strs()),
            "lines": list(self.lines),
            "multiplicity": self.multiplicity,
        }


class Incidence:
    """The incidence data of an arrangement of r lines, read by every layer.

    ``points`` are the incidence points, ``on_line[l]`` the increasing
    indices in ``points`` of the points on line l, and ``violation`` the
    first point on more than three lines, or None.  ``cocycles`` is built
    on first use.

    Every layer relies on each pair of lines meeting at exactly one listed
    point, so the one pass that indexes the points also marks each point's
    pairs of lines in an r x r table: a pair marked twice, or a table that
    is not exactly the pairs i < j once the pass is done, raises
    AssertionError.  ``incidence`` groups every crossing into one point,
    so only a record built by hand can fail.
    """

    __slots__ = ("points", "on_line", "violation", "_cocycles")

    def __init__(self, points: Iterable[IncidencePoint], r: int) -> None:
        self.points = tuple(points)
        self.violation: IncidencePoint | None = None
        on_line: list[list[int]] = [[] for _ in range(r)]
        covered = bytearray(r * r)
        for n, pt in enumerate(self.points):
            for l in pt.lines:
                on_line[l].append(n)
            for i, j in combinations(pt.lines, 2):
                if covered[i * r + j]:
                    raise AssertionError(f"lines {i} and {j} meet at two incidence points")
                covered[i * r + j] = 1
            if self.violation is None and len(pt.lines) > 3:
                self.violation = pt
        if covered != b"".join(bytes(i + 1) + b"\1" * (r - i - 1) for i in range(r)):
            raise AssertionError("the incidence points do not cover each pair of lines exactly once")
        self.on_line = tuple(tuple(ns) for ns in on_line)
        self._cocycles: list[list[int]] | None = None

    @property
    def cocycles(self) -> list[list[int]]:
        """F3 basis of the tau with tau_i = tau_j at each double point {i, j}
        and tau_i + tau_j + tau_k = 0 at each triple point {i, j, k}.

        The double points are solved without elimination: a union-find joins
        their lines into classes, each rooted at its largest line, and tau
        is constant on a class.  ``nullspace_f3`` gets one row per triple
        point over one column per class, in the order of the roots, with
        the point's lines added into their classes' columns (two lines of
        one class give 2, three give 0 mod 3), and each basis vector is
        expanded back to the lines by class.  A kernel vector that is 1 at
        line j and 0 past it is constant on classes, so j is the largest
        line of its class; the free columns are therefore roots, in the
        same order in both systems, and the expansion is the basis that
        Gauss-Jordan elimination gives on one row per point.

        The rows state these conditions only when every multiplicity is at
        most 3, which callers check first.
        """
        if self._cocycles is None:
            r = len(self.on_line)
            parent = list(range(r))
            triples = []
            for pt in self.points:
                if pt.multiplicity == 2:
                    i, j = find(parent, pt.lines[0]), find(parent, pt.lines[1])
                    parent[min(i, j)] = max(i, j)
                else:
                    triples.append(pt.lines)
            roots = [find(parent, l) for l in range(r)]
            column = {root: n for n, root in enumerate(sorted(set(roots)))}
            of_line = [column[root] for root in roots]
            rows = []
            for lines in triples:
                row = [0] * len(column)
                for l in lines:
                    row[of_line[l]] += 1
                rows.append(row)
            basis = nullspace_f3(rows, len(column))
            self._cocycles = [[vec[n] for n in of_line] for vec in basis]
        return self._cocycles


def incidence(arr: Arrangement) -> Incidence:
    """The arrangement's incidence record, built on first use and kept on it.

    Its points are all pairwise intersections, grouped exactly in one pass
    over the pairs i < j.  The key of a crossing is the canonical triple
    (``eisenstein.canonical_pairs``) of the Z[w] cross product l_i x l_j,
    and two crossings are one point iff their keys are equal.  The pairs are
    read in order, so the first pair with a new key is the point's two least
    lines, and the row of the least line finds every other line j of the
    point: j joins the group, and the pairs (k, j) for the lines k already
    in the group past its least, the same point, are marked and skipped
    unread in their rows later.  Each point keeps its key; the points are
    sorted by multiplicity, highest first, then by the strings of their
    normalized coordinates, which ``eisenstein.normalized_strs`` prints from
    the integers.
    """
    if arr._incidence is None:
        lines = [line.pairs for line in arr.lines]
        r = len(lines)
        groups: dict[tuple[Pair, ...], list[int]] = {}
        covered = [bytearray(r) for _ in range(r)]
        for i, line in enumerate(lines):
            skip = covered[i]
            for j in range(i + 1, r):
                if skip[j]:
                    continue
                key = canonical_pairs(pair_cross(line, lines[j]))
                group = groups.get(key)
                if group is None:
                    groups[key] = [i, j]
                    continue
                for k in group[1:]:
                    covered[k][j] = 1
                group.append(j)
        keyed = [
            ((-len(through), normalized_strs(c)), IncidencePoint(c, tuple(through))) for c, through in groups.items()
        ]
        keyed.sort(key=lambda entry: entry[0])
        arr._incidence = Incidence((pt for _, pt in keyed), r)
    return arr._incidence


def intersection_points(arr: Arrangement) -> tuple[IncidencePoint, ...]:
    """All pairwise intersections, grouped exactly into incidence points: the
    points of ``incidence(arr)``, computed once per arrangement."""
    return incidence(arr).points


def point_census(points: Iterable[IncidencePoint]) -> dict[int, int]:
    census: dict[int, int] = {}
    for pt in points:
        census[pt.multiplicity] = census.get(pt.multiplicity, 0) + 1
    return census


def require_multiplicities_ok(arr: Arrangement) -> Incidence:
    """The incidence record; MultiplicityError at its first point on more than
    three lines, which the record notes when it is built."""
    record = incidence(arr)
    if record.violation is not None:
        raise MultiplicityError(record.violation)
    return record


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
    points = require_multiplicities_ok(arr).points
    census = tuple(sorted(point_census(points).items()))
    triples = [pt.lines for pt in points if pt.multiplicity == 3]
    return CombinatorialType(arr.r, census, _canonical_encoding(triples))


def proj_transform(arr: Arrangement, matrix: Sequence[Sequence[EisensteinNumber]]) -> Arrangement:
    """The image of every line under the point map p -> M p, computed over Z[w].

    A line a goes to a * M^-1, which ``Line`` normalisation makes a * adj(M).
    The nine entries of M are scaled into Z[w] by one common factor, which
    scales the map only as a whole; a factor per row would change it.  The
    columns of adj(M) are the cross products of pairs of rows of M, and the
    first row's dot product with the first column is det(M).  A matrix that
    is not 3x3 or has det(M) = 0 raises ValueError.
    """
    if len(matrix) != 3 or any(len(row) != 3 for row in matrix):
        raise ValueError("a projective transform is a 3x3 matrix")
    entries, _ = integer_row([v for row in matrix for v in row])
    r0, r1, r2 = entries[0:3], entries[3:6], entries[6:9]
    columns = (pair_cross(r1, r2), pair_cross(r2, r0), pair_cross(r0, r1))
    if pair_dot(r0, columns[0]) == (0, 0):
        raise ValueError("matrix is singular")
    return Arrangement([Line.from_pairs([pair_dot(line.pairs, col) for col in columns]) for line in arr.lines], arr.label)
