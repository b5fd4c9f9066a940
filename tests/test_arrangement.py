import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_oracle import canonical_encoding
from pencilfiber import arrangement
from pencilfiber.arrangement import (
    Arrangement,
    Line,
    MultiplicityError,
    combinatorial_type,
    intersection_points,
    point_census,
    proj_transform,
    require_multiplicities_ok,
    validate_multiplicities,
)
from pencilfiber.eisenstein import EisensteinNumber
from pencilfiber.fixtures import (
    braid,
    ceva_two,
    concurrent_triple,
    conic_dual_lines,
    dual_hesse,
    dual_hesse_pgl,
    four_concurrent,
    generic_six,
    near_pencil_six,
    triangle,
)

ALL_FIXTURES = [dual_hesse, braid, ceva_two, triangle, concurrent_triple, generic_six, near_pencil_six]


def test_line_normalization():
    assert Line(2, 4, 6) == Line(1, 2, 3)
    with pytest.raises(ValueError):
        Line(0, 0, 0)


def test_proportional_lines_rejected():
    with pytest.raises(ValueError):
        Arrangement([Line(1, 0, 0), Line(3, 0, 0)])


def test_dual_hesse_census():
    census = point_census(intersection_points(dual_hesse()))
    assert census == {3: 12}


def test_triangle_census():
    assert point_census(intersection_points(triangle())) == {2: 3}


def test_concurrent_triple_point():
    arr = concurrent_triple()
    points = intersection_points(arr)
    assert intersection_points(arr) is points  # computed once per arrangement
    assert len(points) == 1
    pt = points[0]
    assert pt.multiplicity == 3
    assert pt.point == (EisensteinNumber(0), EisensteinNumber(0), EisensteinNumber(1))


def test_braid_census():
    assert point_census(intersection_points(braid())) == {3: 4, 2: 3}


@pytest.mark.parametrize("builder", ALL_FIXTURES)
def test_pair_count_identity(builder):
    arr = builder()
    points = intersection_points(arr)
    assert sum(comb(p.multiplicity, 2) for p in points) == comb(arr.r, 2)


def test_points_do_not_depend_on_line_order():
    arr = dual_hesse()
    rng = random.Random(11)
    order = list(range(arr.r))
    rng.shuffle(order)
    shuffled = arr.reordered(order)
    original = {p.point for p in intersection_points(arr)}
    permuted = {p.point for p in intersection_points(shuffled)}
    assert original == permuted


def test_validate_multiplicities():
    assert validate_multiplicities(dual_hesse()) is None
    assert validate_multiplicities(triangle()) is None
    violation = validate_multiplicities(four_concurrent())
    assert violation is not None
    assert violation.multiplicity == 4
    assert violation.point == (EisensteinNumber(0), EisensteinNumber(0), EisensteinNumber(1))
    with pytest.raises(MultiplicityError):
        require_multiplicities_ok(four_concurrent())


def test_combinatorial_type_examples():
    assert combinatorial_type(triangle()) == combinatorial_type(conic_dual_lines([2, 5, 9], "generic_3"))
    assert combinatorial_type(triangle()) != combinatorial_type(concurrent_triple())
    assert combinatorial_type(dual_hesse()) != combinatorial_type(triangle())
    assert combinatorial_type(braid()) == combinatorial_type(ceva_two())
    assert combinatorial_type(dual_hesse()) == combinatorial_type(dual_hesse_pgl())


def test_combinatorial_type_invariant_under_relabeling():
    rng = random.Random(5)
    for builder in (dual_hesse, braid, near_pencil_six):
        arr = builder()
        reference = combinatorial_type(arr)
        for _ in range(3):
            order = list(range(arr.r))
            rng.shuffle(order)
            assert combinatorial_type(arr.reordered(order)) == reference


def _random_invertible(rng):
    while True:
        m = [[EisensteinNumber(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        try:
            proj_transform(triangle(), m)
            return m
        except ValueError:
            continue


def test_proj_transform_identity_and_permutation():
    arr = triangle()
    same = proj_transform(arr, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert [l.coeffs for l in same.lines] == [l.coeffs for l in arr.lines]
    swapped = proj_transform(arr, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert combinatorial_type(swapped) == combinatorial_type(arr)


def test_proj_transform_rejects_singular():
    with pytest.raises(ValueError):
        proj_transform(triangle(), [[1, 0, 0], [2, 0, 0], [0, 0, 1]])


def test_proj_transform_moves_lines_with_their_points():
    # a line through p goes to a line through M p, for generic M and every incidence
    rng = random.Random(31)
    for arr in (braid(), dual_hesse()):
        points = intersection_points(arr)
        for _ in range(4):
            m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            try:
                image = proj_transform(arr, m)
            except ValueError:
                continue
            for pt in points:
                moved = [sum((m[i][j] * pt.point[j] for j in range(3)), EisensteinNumber(0)) for i in range(3)]
                for index in pt.lines:
                    assert not image.lines[index].eval_at(moved)
    # det = 0 with nonzero rows, and shapes that are not 3x3
    for m in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            proj_transform(triangle(), m)


def test_proj_transform_preserves_multiplicity_profile():
    rng = random.Random(23)
    arr = dual_hesse()
    reference = point_census(intersection_points(arr))
    for _ in range(3):
        image = proj_transform(arr, _random_invertible(rng))
        assert point_census(intersection_points(image)) == reference
        assert combinatorial_type(image) == combinatorial_type(arr)


def test_arrangement_json_roundtrip():
    arr = dual_hesse()
    again = Arrangement.from_json(arr.to_json())
    assert again.label == arr.label
    assert [l.coeffs for l in again.lines] == [l.coeffs for l in arr.lines]


def _eleven_concurrent_plus_generic():
    lines = [Line(1, -k, 0) for k in range(1, 12)]
    lines.append(Line(0, 0, 1))
    return Arrangement(lines, "eleven_concurrent")


def test_combinatorial_type_rejects_multiplicity_above_three():
    with pytest.raises(MultiplicityError):
        combinatorial_type(_eleven_concurrent_plus_generic())


# Two cubic graphs on 8 vertices: the cube Q3 (bipartite) and the Moebius
# ladder M8 (not bipartite).  Drawing each edge as the line through its two
# endpoints gives 12 lines, every vertex a triple point and every line on two
# of them, so colour refinement alone cannot tell the two arrangements apart.
CUBE_EDGES = [(0, 1), (1, 3), (3, 2), (2, 0), (4, 5), (5, 7), (7, 6), (6, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
MOEBIUS_EDGES = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]


def _edge_lines(edges, points, label):
    lines = []
    for u, v in edges:
        (x1, y1), (x2, y2) = points[u], points[v]
        lines.append(Line(y1 - y2, x2 - x1, x1 * y2 - x2 * y1))
    return Arrangement(lines, label)


def test_combinatorial_type_is_exact_beyond_ten_lines():
    rng = random.Random(1)
    points = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(8)]
    cube = _edge_lines(CUBE_EDGES, points, "cube_q3")
    moebius = _edge_lines(MOEBIUS_EDGES, points, "moebius_m8")
    for arr in (cube, moebius):
        assert point_census(intersection_points(arr)) == {3: 8, 2: 42}
    assert combinatorial_type(cube) != combinatorial_type(moebius)
    matrix = [[2, 1, 0], [1, 1, 0], [0, 1, 1]]
    for arr in (cube, moebius):
        reference = combinatorial_type(arr)
        for _ in range(3):
            order = list(range(arr.r))
            rng.shuffle(order)
            assert combinatorial_type(arr.reordered(order)) == reference
        assert combinatorial_type(proj_transform(arr, matrix)) == reference


def _triples(arr):
    return [pt.lines for pt in intersection_points(arr) if pt.multiplicity == 3]


def test_pruned_search_matches_unpruned_oracle(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        triples = _triples(Arrangement.from_json(json.loads(path.read_text())))
        assert arrangement._canonical_encoding(triples) == canonical_encoding(triples), path.name
    # every sub-arrangement of dual_hesse keeps the triple points of its lines
    triples = _triples(dual_hesse())
    for k in range(1, 10):
        for lines in combinations(range(9), k):
            sub = [t for t in triples if set(t) <= set(lines)]
            assert arrangement._canonical_encoding(sub) == canonical_encoding(sub), lines
    # the cube and the Moebius ladder side by side: refinement leaves all 24
    # edges in one cell that is not an orbit, so skipping a child that is not
    # an image of a searched one loses the least code
    union = _edge_triples(CUBE_EDGES) + [tuple(12 + e for e in t) for t in _edge_triples(MOEBIUS_EDGES)]
    reference = canonical_encoding(union)
    rng = random.Random(7)
    for _ in range(5):
        relabel = list(range(24))
        rng.shuffle(relabel)
        assert arrangement._canonical_encoding([tuple(relabel[e] for e in t) for t in union]) == reference


def _edge_triples(edges):
    """One triple per vertex of a cubic graph: the indices of its three edges."""
    return [tuple(k for k, edge in enumerate(edges) if v in edge) for v in range(8)]


@st.composite
def relabelled_partial_linear_spaces(draw):
    """Triples on at most 10 points, any two points in at most one triple, and a relabelling."""
    n = draw(st.integers(min_value=3, max_value=10))
    candidates = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True), max_size=25))
    triples, covered = [], set()
    for t in candidates:
        pairs = set(combinations(sorted(t), 2))
        if not pairs & covered:
            covered |= pairs
            triples.append(tuple(t))
    return triples, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(relabelled_partial_linear_spaces())
def test_canonical_encoding_is_a_relabelling_invariant(space):
    triples, relabel = space
    code = arrangement._canonical_encoding(triples)
    assert arrangement._canonical_encoding([tuple(relabel[v] for v in t) for t in triples]) == code
    assert code == canonical_encoding(triples)


# The points of PG(3, 2) are the nonzero vectors of F_2^4, and {a, b, a + b}
# are its 35 lines: a triple system with 20160 automorphisms.
PG32_TRIPLES = sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(1, 16) if a != b})


def test_canonical_search_is_pruned_by_automorphisms(monkeypatch):
    calls = []
    refine = arrangement._refine

    def counted(colour, incident):
        calls.append(1)
        return refine(colour, incident)

    monkeypatch.setattr(arrangement, "_refine", counted)
    arrangement._canonical_encoding(_triples(dual_hesse()))
    assert len(calls) <= 32  # the unpruned search refines 514 times, one leaf per automorphism
    rng = random.Random(3)
    calls.clear()
    reference = arrangement._canonical_encoding(PG32_TRIPLES)
    assert len(calls) <= 64
    for _ in range(3):
        relabel = list(range(16))
        rng.shuffle(relabel)
        assert arrangement._canonical_encoding([tuple(relabel[v] for v in t) for t in PG32_TRIPLES]) == reference
