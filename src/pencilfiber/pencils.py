"""Detection of arrangements composed of a reduced pencil.

An arrangement of r = 3k lines is composed of a reduced pencil when its
lines split into three disjoint classes of k lines each whose products
F1, F2, F3 satisfy a dependence l1*F1 + l2*F2 + l3*F3 = 0 with all l_i
nonzero.  Equal class sizes are forced (a linear dependence needs equal
degrees) and the products are automatically reduced because the lines are
pairwise distinct.

The search reads candidates off the incidence data, following Falk and
Yuzvinsky ("Multinets, resonance varieties, and pencils of plane curves",
Compositio Math. 2007): the pencils of a line arrangement are its 3-nets.
If a in one class and b in another meet at p, then F1(p) = F2(p) = 0 in
the dependence forces F3(p) = 0, so with multiplicities <= 3 the point p
is a triple point with exactly one line from each class.  Hence the two
lines of a double point share a class, and every triple point lies inside
one class or meets all three.  Lines are merged into components by those
rules, and the components are 3-coloured by backtracking with k lines per
colour.  For every surviving partition the dependences (l1, l2, l3) are the
null space (``linalg.nullspace``) of the coefficient matrix, one row per
monomial of degree k; the partition is a pencil iff that null space is one
vector with no zero entry.  The colouring leaves only a handful of
candidates, so each gets the full null space with no early exit.  Each
accepted dependence is re-verified by polynomial multiplication before
being returned.

Pencil JSON: {"classes": [[i, ...], [i, ...], [i, ...]],
              "lambdas": ["<eis>", ...],
              "products": [<HomForm JSON>, ...]}   # 0-based line indices
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Iterator

from .arrangement import Arrangement, IncidencePoint, require_multiplicities_ok
from .eisenstein import ZERO, EisensteinNumber, json_list
from .forms import HomForm
from .linalg import nullspace
from .milnor import monomial_exponents


@dataclass(frozen=True)
class PencilDecomposition:
    """Unordered 3-partition of the line indices with its dependence.

    ``lambdas`` is normalized so the first class carries coefficient 1, and
    lambdas[0]*products[0] + lambdas[1]*products[1] + lambdas[2]*products[2]
    vanishes identically.
    """

    classes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    lambdas: tuple[EisensteinNumber, EisensteinNumber, EisensteinNumber]
    products: tuple[HomForm, HomForm, HomForm]

    def scaled_products(self) -> tuple[HomForm, HomForm, HomForm]:
        """The three members l_i * F_i, which sum to zero exactly."""
        return tuple(f.scale(l) for l, f in zip(self.lambdas, self.products))

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "lambdas": [str(l) for l in self.lambdas],
            "products": [f.to_json() for f in self.products],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PencilDecomposition":
        classes = tuple(tuple(int(i) for i in json_list(c, "a class")) for c in json_list(data["classes"], "classes"))
        lambdas = tuple(EisensteinNumber.of(l) for l in json_list(data["lambdas"], "lambdas"))
        products = tuple(HomForm.from_json(f) for f in json_list(data["products"], "products"))
        if len(classes) != 3 or len(lambdas) != 3 or len(products) != 3:
            raise ValueError("a pencil has three classes, lambdas and products")
        return cls(classes, lambdas, products)


def find_pencils(arr: Arrangement) -> list[PencilDecomposition]:
    """All pencil decompositions, in canonical class order."""
    points = require_multiplicities_ok(arr)
    if arr.r % 3 != 0:
        return []
    k = arr.r // 3
    monomials = monomial_exponents(k)
    forms = [line.form for line in arr.lines]
    found: list[PencilDecomposition] = []
    for triple in _net_partitions(arr.r, points):
        prods = tuple(reduce(mul, (forms[i] for i in c), HomForm.constant(1)) for c in triple)
        kernel = nullspace([[f.coeffs.get(e, ZERO) for f in prods] for e in monomials], 3)
        if len(kernel) != 1 or not all(kernel[0]):
            continue  # rank 3, a proportional pair, or a vanishing coefficient
        lam = kernel[0]
        inv = lam[0].inverse()
        lam = tuple(l * inv for l in lam)
        combo = prods[0].scale(lam[0]) + prods[1].scale(lam[1]) + prods[2].scale(lam[2])
        if not combo.is_zero:
            raise AssertionError("dependence failed exact re-verification")
        found.append(PencilDecomposition(triple, lam, prods))
    found.sort(key=lambda p: p.classes)
    return found


def _net_partitions(r: int, points: tuple[IncidencePoint, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every partition of range(r) into three classes of r/3 lines that obeys
    the 3-net rules: both lines of a double point share a class, and each
    triple point is monochrome or rainbow.  Classes are sorted by least line.
    """
    k = r // 3
    parent = list(range(r))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for pt in points:
        if pt.multiplicity == 2:
            parent[find(pt.lines[0])] = find(pt.lines[1])
    triples = [pt.lines for pt in points if pt.multiplicity == 3]
    merged = True
    while merged:  # two lines of a triple point in one class pull in the third
        merged = False
        for t in triples:
            roots = {find(v) for v in t}
            if len(roots) == 2:
                a, b = roots
                parent[a] = b
                merged = True

    by_root: dict[int, list[int]] = {}
    for v in range(r):
        by_root.setdefault(find(v), []).append(v)
    members = list(by_root.values())  # components in order of their least line
    number = {root: c for c, root in enumerate(by_root)}
    if any(len(m) > k for m in members):
        return
    n = len(members)
    watch: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for t in triples:
        a, b, c = (number[find(v)] for v in t)
        if a != b:  # a rainbow candidate: three distinct components
            watch[a].append((b, c))
            watch[b].append((a, c))
            watch[c].append((a, b))
    colour = [-1] * n
    load = [0, 0, 0]

    def assign(c: int, col: int, trail: list[int]) -> bool:
        """Colour c and everything the triple points force; False on a clash."""
        todo = [(c, col)]
        while todo:
            c, col = todo.pop()
            if colour[c] >= 0:
                if colour[c] != col:
                    return False
                continue
            colour[c] = col
            trail.append(c)
            load[col] += len(members[c])
            if load[col] > k:
                return False
            for x, y in watch[c]:
                cx, cy = colour[x], colour[y]
                if cx >= 0 and cy >= 0:
                    if len({cx, cy, col}) == 2:
                        return False
                elif cx >= 0 or cy >= 0:
                    known, other = (cx, y) if cx >= 0 else (cy, x)
                    todo.append((other, col if known == col else 3 - col - known))
        return True

    def search(c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        while c < n and colour[c] >= 0:
            c += 1
        if c == n:  # all loads are k, since none exceeds k and they sum to r
            classes = [[], [], []]
            for comp, col in zip(members, colour):
                classes[col] += comp
            yield tuple(sorted(tuple(sorted(cl)) for cl in classes))
            return
        # colours in use are 0..max; one fresh colour stands for all unused ones
        for col in range(min(max(colour) + 2, 3)):
            trail: list[int] = []
            if assign(c, col, trail):
                yield from search(c + 1)
            for d in trail:
                load[colour[d]] -= len(members[d])
                colour[d] = -1

    yield from search(0)


def is_composed_of_reduced_pencil(arr: Arrangement) -> bool:
    return bool(find_pencils(arr))


def pencil_count(arr: Arrangement) -> int:
    return len(find_pencils(arr))
