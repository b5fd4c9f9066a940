"""Degree-two Orlik-Solomon quotient and resonance probes.

The degree-2 algebra of the cone is the exterior square on one generator
per line modulo one relation e_i e_j - e_i e_k + e_j e_k for each triple
point with lines i < j < k (double points impose nothing).  Weight vectors
a with sum zero are probed through the wedge map b -> class of
sum_{i<j} (a_i b_j - a_j b_i) e_i e_j; a lies in the resonance variety iff
the kernel of that map is at least 2-dimensional (it always contains a).

Every answer is an exact rank from ``linalg.rank``.  With R the relation
rows, vectors V span a subspace of the quotient of dimension
rank(R with V appended) - rank(R).  So the wedge map by a has kernel
dimension r minus that dimension for V = (a ^ e_l for each line l), and
a ^ b vanishes in the quotient iff appending it leaves rank(R) unchanged.

Candidate 2-dimensional components come from two sources and are checked,
not assumed: a triple point {i, j, k} spans e_i - e_j, e_j - e_k ("local"),
and a pencil decomposition (R1, R2, R3) spans chi_R1 - chi_R2,
chi_R2 - chi_R3 ("global").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, IncidencePoint, require_multiplicities_ok
from .eisenstein import ONE, ZERO, EisensteinNumber
from .linalg import Matrix, Vector, rank
from .pencils import PencilDecomposition


@dataclass
class OSDegree2:
    """Exterior square with triple-point relations and the rank they span."""

    r: int
    pair_index: dict[tuple[int, int], int]
    relations: Matrix
    relation_rank: int

    @property
    def n_pairs(self) -> int:
        return len(self.pair_index)

    @property
    def quotient_rank(self) -> int:
        return self.n_pairs - self.relation_rank


def build_os2(arr: Arrangement) -> OSDegree2:
    points = require_multiplicities_ok(arr)
    r = arr.r
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    pair_index = {p: n for n, p in enumerate(pairs)}
    relations: Matrix = []
    for pt in points:
        if pt.multiplicity != 3:
            continue
        i, j, k = pt.lines
        row = [ZERO] * len(pairs)
        row[pair_index[(i, j)]] = ONE
        row[pair_index[(i, k)]] = -ONE
        row[pair_index[(j, k)]] = ONE
        relations.append(row)
    return OSDegree2(r, pair_index, relations, rank(relations))


def _check_weight(os: OSDegree2, a: Vector) -> list[EisensteinNumber]:
    vec = [EisensteinNumber.of(v) for v in a]
    if len(vec) != os.r:
        raise ValueError(f"weight vector must have length {os.r}")
    return vec


def raw_wedge(os: OSDegree2, a: Vector, b: Vector) -> Vector:
    out = [ZERO] * os.n_pairs
    for (i, j), n in os.pair_index.items():
        out[n] = a[i] * b[j] - a[j] * b[i]
    return out


def wedge_vanishes(os: OSDegree2, a: Vector, b: Vector) -> bool:
    """True iff a ^ b is zero in the quotient, i.e. lies in the relation span."""
    a = _check_weight(os, a)
    b = _check_weight(os, b)
    return rank(os.relations + [raw_wedge(os, a, b)]) == os.relation_rank


def resonance_kernel_dim(os: OSDegree2, a: Vector) -> int:
    """dim { b : a ^ b = 0 in the quotient }; >= 2 means a is resonant."""
    a = _check_weight(os, a)
    if not any(a):
        raise ValueError("the zero weight vector is not probed")
    columns: Matrix = []
    for l in range(os.r):
        col = [ZERO] * os.n_pairs
        for (i, j), n in os.pair_index.items():
            if j == l:
                col[n] = a[i]
            elif i == l:
                col[n] = -a[j]
        columns.append(col)
    return os.r - (rank(os.relations + columns) - os.relation_rank)


def component_isotropy_check(os: OSDegree2, basis: list[Vector]) -> bool:
    """True iff all pairwise wedges of an independent sum-zero basis vanish."""
    vectors = [_check_weight(os, v) for v in basis]
    for v in vectors:
        if sum(v, ZERO):
            raise ValueError("basis vectors must have coordinate sum zero")
    if rank(vectors) != len(vectors):
        raise ValueError("basis vectors are linearly dependent")
    return all(wedge_vanishes(os, u, v) for u, v in combinations(vectors, 2))


def triple_point_basis(point: IncidencePoint, r: int) -> list[Vector]:
    """Local candidate component at a triple point."""
    if point.multiplicity != 3:
        raise ValueError("local components come from triple points")
    i, j, k = point.lines
    u = [ZERO] * r
    v = [ZERO] * r
    u[i], u[j] = ONE, -ONE
    v[j], v[k] = ONE, -ONE
    return [u, v]


def pencil_basis(pencil: PencilDecomposition, r: int) -> list[Vector]:
    """Global candidate component spanned by class-indicator differences."""
    chi = []
    for cls in pencil.classes:
        vec = [ZERO] * r
        for i in cls:
            vec[i] = ONE
        chi.append(vec)
    u = [a - b for a, b in zip(chi[0], chi[1])]
    v = [a - b for a, b in zip(chi[1], chi[2])]
    return [u, v]


def generic_member(basis: list[Vector]) -> Vector:
    """A fixed nonzero combination u + 2 v used for spot checks."""
    u, v = basis
    return [a + EisensteinNumber(2) * b for a, b in zip(u, v)]
