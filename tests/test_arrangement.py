import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import incidence_oracle
import linalg_oracle
from canonical_oracle import canonical_encoding
from pencilfiber import arrangement
from pencilfiber.arrangement import (
    Arrangement,
    Incidence,
    IncidencePoint,
    Line,
    MultiplicityError,
    combinatorial_type,
    incidence,
    intersection_points,
    point_census,
    proj_transform,
    require_multiplicities_ok,
)
from pencilfiber.eisenstein import (
    EisensteinNumber,
    ParseError,
    canonical_pairs,
    integer_row,
    normalized_strs,
    pair_dot,
    parse_eisenstein,
    parse_parts,
)
from pencilfiber.fixtures import (
    braid,
    braid_pgl,
    ceva_two,
    concurrent_triple,
    conic_dual_lines,
    cuspidal_dual,
    dual_hesse,
    dual_hesse_pgl,
    four_concurrent,
    generic_nine,
    generic_six,
    near_pencil_six,
    triangle,
)
from pencilfiber.linalg import PRIME, ZETA

ALL_FIXTURES = [dual_hesse, braid, ceva_two, triangle, concurrent_triple, generic_six, near_pencil_six]


def test_line_normalization():
    assert Line(2, 4, 6) == Line(1, 2, 3)
    with pytest.raises(ValueError):
        Line(0, 0, 0)


qw_entries = st.builds(
    EisensteinNumber,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(qw_entries, min_size=3, max_size=3).filter(any))
def test_normalized_matches_qw_oracle(triple):
    # the printed line against division by the lead in Q(w)
    expected = incidence_oracle.normalize_point(triple)
    assert _printed(Line(*triple).to_json()) == expected
    assert expected[next(i for i, v in enumerate(triple) if v)] == 1
    # the line keeps its normalized triple scaled into Z[w]
    pairs, scale = integer_row(expected)
    assert (Line(*triple).pairs, Line(*triple).scale) == (tuple(pairs), scale)


def _printed(strings):
    """The Q(w) triple a line or point prints, read back."""
    return tuple(map(parse_eisenstein, strings))


_digits = st.integers(0, 60).map(str)
_signed = st.builds(lambda sign, n: sign + n, st.sampled_from(["", "+", "-"]), _digits)
_rational = st.one_of(_signed, st.builds(lambda n, d: f"{n}/{d}", _signed, st.integers(1, 60).map(str)))
_w_coeff = st.one_of(st.just(""), _digits, st.builds(lambda n, d: f"{n}/{d}", _digits, st.integers(1, 60).map(str)))
# every form of the grammar, with parts not in lowest terms: "r", "r*w", "rw", "r+c*w", "r-cw", "+w", "-w"
coefficient_text = st.one_of(
    _rational,
    st.builds(lambda r, star: f"{r}{star}w", _rational, st.sampled_from(["*", ""])),
    st.builds(
        lambda r, sign, c, star: f"{r}{sign}{c}{star if c else ''}w",
        _rational,
        st.sampled_from(["+", "-"]),
        _w_coeff,
        st.sampled_from(["*", ""]),
    ),
    st.sampled_from(["w", "+w", "-w"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficient_text, min_size=3, max_size=3))
def test_line_from_text_equals_line_from_parsed_numbers(texts):
    """The integer parse core takes text straight into Z[w]; the line is the
    one built from the same strings parsed into Q(w)."""
    numbers = [EisensteinNumber.of(t) for t in texts]
    if not any(numbers):
        for args in (texts, numbers):
            with pytest.raises(ValueError, match="nonzero coefficient"):
                Line(*args)
        return
    line, reference = Line(*texts), Line(*numbers)
    assert (line.pairs, line.scale, line.to_json()) == (reference.pairs, reference.scale, reference.to_json())
    assert _printed(line.to_json()) == incidence_oracle.normalize_point(numbers)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(coefficient_text, qw_entries.map(str)), min_size=3, max_size=3), st.integers(0, 7))
@example(["2/4", "+3", "1+2w"], 0)
@example(["0", "-6/4*w", "1/3"], 5)
def test_text_enters_z_w_as_its_parsed_numbers_do(texts, mask):
    """``integer_row`` reads printed and other spellings, and rows that mix
    them with numbers, into the Z[w] triple of the parsed numbers, up to
    scale; ``Line`` keeps that triple's canonical form."""
    numbers = [parse_eisenstein(t) for t in texts]
    assume(any(numbers))
    mixed = [x if mask >> i & 1 else t for i, (t, x) in enumerate(zip(texts, numbers))]
    expected = canonical_pairs(integer_row(numbers)[0])
    assert canonical_pairs(integer_row(texts)[0]) == canonical_pairs(integer_row(mixed)[0]) == expected
    assert Line(*texts).pairs == canonical_pairs(integer_row(texts)[0])


@pytest.mark.parametrize("text, position", [("1/0", 0), ("2+1/0w", 2), ("9" * 5000, None)], ids=["1/0", "2+1/0w", "5000 digits"])
def test_integer_parse_core_keeps_parse_errors(text, position):
    """The same exception, message and position from the integer core, from
    ``parse_eisenstein`` and from a line; past the int-string conversion
    limit the digits raise a plain ValueError."""
    raised = []
    for parse in (parse_parts, parse_eisenstein, lambda t: Line(t, "1", "0")):
        with pytest.raises(ValueError) as err:
            parse(text)
        raised.append((type(err.value), str(err.value), getattr(err.value, "position", None)))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][0] is (ValueError if position is None else ParseError)
    assert raised[0][2] == position


def test_integer_sort_key_prints_the_normalized_point():
    """``normalized_strs`` of the canonical triple, the key ``incidence``
    sorts by, is the printed normalized point, on seeded Z[w] triples whose
    lead has a w-part or is negative."""
    rng = random.Random(24)
    w_leads = negative_leads = 0
    for _ in range(3000):
        p = [(rng.randint(-40, 40) * (rng.random() < 0.8), rng.randint(-40, 40) * (rng.random() < 0.5)) for _ in range(3)]
        if all(v == (0, 0) for v in p):
            continue
        a, b = next(v for v in p if v != (0, 0))
        w_leads += b != 0
        negative_leads += b == 0 and a < 0
        c, q = canonical_pairs(p), incidence_oracle.normalize_pairs(p)
        assert c == tuple(integer_row(q)[0])
        assert normalized_strs(c) == tuple(str(x) for x in q)
    assert min(w_leads, negative_leads) > 300


def test_lines_and_points_print_their_qw_view_from_integers(incidence_inputs):
    """``Line.to_json``, ``IncidencePoint.to_json`` and ``point_str`` print
    the strings of the Q(w) triple of ``pairs`` with lead entry 1, also for
    a point built by hand from a triple that is not canonical."""
    for arr in incidence_inputs:
        for line in arr.lines:
            assert line.to_json() == [str(c) for c in incidence_oracle.normalize_pairs(line.pairs)]
        for pt in intersection_points(arr):
            assert pt.to_json()["point"] == [str(c) for c in incidence_oracle.normalize_pairs(pt.pairs)]
    pt = IncidencePoint(((0, 2), (-4, 6), (0, 0)), (0, 1, 2, 3))
    expected = incidence_oracle.normalize_pairs(pt.pairs)
    assert pt.point_str() == "[" + ":".join(str(c) for c in expected) + "]" == "[1:5+2*w:0]"


class _Unscannable(tuple):
    def __iter__(self):
        raise AssertionError("the points were scanned again")


@pytest.mark.parametrize("make", [four_concurrent, dual_hesse], ids=["violation", "none"])
def test_multiplicities_are_checked_once_per_arrangement(make):
    """The record notes its first point on more than three lines when it is
    built; every later check raises from that note, or passes, without
    reading the points."""
    arr = make()
    record = incidence(arr)
    expected = next((pt for pt in record.points if pt.multiplicity > 3), None)
    assert record.violation is expected
    record.points = _Unscannable(record.points)
    for _ in range(3):
        if expected is None:
            assert require_multiplicities_ok(arr) is record
            continue
        with pytest.raises(MultiplicityError) as err:
            require_multiplicities_ok(arr)
        assert err.value.point is expected
        assert err.value.point.to_json() == {"point": ["0", "0", "1"], "lines": [0, 1, 2, 3], "multiplicity": 4}


@pytest.mark.parametrize("arr", [braid(), dual_hesse_pgl(), near_pencil_six(), cuspidal_dual(7)], ids=lambda a: a.label)
def test_incidence_record_indexes_points_by_line(arr):
    record = incidence(arr)
    assert incidence(arr) is record and intersection_points(arr) is record.points
    assert len(record.on_line) == arr.r
    for line in range(arr.r):
        assert record.on_line[line] == tuple(n for n, pt in enumerate(record.points) if line in pt.lines)


@pytest.mark.parametrize("arr", [braid(), dual_hesse_pgl(), cuspidal_dual(7)], ids=lambda a: a.label)
def test_incidence_points_store_their_canonical_triple(arr):
    # equality of points compares pairs, and every printed form is read from them
    for pt in intersection_points(arr):
        assert canonical_pairs(pt.pairs) == pt.pairs
        assert pt.to_json()["point"] == list(normalized_strs(pt.pairs))


def _dense_cocycles(points, r):
    """The Gauss-Jordan F3 basis of one dense cocycle row per point."""
    return linalg_oracle.nullspace_f3(linalg_oracle.cocycle_rows(points, r), r)


def test_cocycles_on_line_classes_are_the_dense_basis(corpus_dir):
    """The union-find solve gives the basis of one dense row per point: on
    the corpus, every fixture, seeded line orders of both, the 511
    sub-arrangements of dual_hesse and cuspidal_dual at r = 7, 11, 21, 61."""
    corpus = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    builders = [*ALL_FIXTURES, generic_nine, four_concurrent, dual_hesse_pgl, braid_pgl]
    fixtures = [b() for b in builders] + [cuspidal_dual(n) for n in (3, 5, 10, 30)]
    rng = random.Random(28)
    orders = []
    for arr in corpus + fixtures[:-1]:
        for _ in range(3):
            order = list(range(arr.r))
            rng.shuffle(order)
            orders.append(arr.reordered(order))
    hesse = dual_hesse()
    subs = [hesse.reordered(subset) for n in range(1, 10) for subset in combinations(range(9), n)]
    assert len(subs) == 511
    for arr in corpus + fixtures + orders + subs:
        record = incidence(arr)
        assert record.cocycles == _dense_cocycles(record.points, arr.r), arr.label


@st.composite
def incidence_records(draw):
    """Synthetic incidence records on r lines: triple points, any two lines on
    at most one, and a double point for each pair left, in a drawn order.
    Only the lines of a point are read, so no coordinates are drawn.  Most
    pairs are double points, so chains of them often join two or three
    lines of one triple point into one class."""
    r = draw(st.integers(min_value=1, max_value=10))
    lines = st.lists(st.integers(0, r - 1), min_size=3, max_size=3, unique=True)
    candidates = draw(st.lists(lines, max_size=12)) if r >= 3 else []
    triples, covered = [], set()
    for t in map(sorted, candidates):
        pairs = set(combinations(t, 2))
        if not pairs & covered:
            covered |= pairs
            triples.append(tuple(t))
    doubles = [pair for pair in combinations(range(r), 2) if pair not in covered]
    points = draw(st.permutations([IncidencePoint((), lines) for lines in triples + doubles]))
    return points, r


@settings(max_examples=300, deadline=None)
@given(incidence_records())
# lines 0, 1, 2 of the triple point all meet line 3 at double points: one class
@example(([IncidencePoint((), (0, 1, 2))] + [IncidencePoint((), (l, 3)) for l in range(3)], 4))
# lines 1 and 2 of the triple point {0, 1, 2} meet at double points 1-3-2
@example(([IncidencePoint((), p) for p in [(0, 1, 2), (0, 3, 4), (1, 3), (1, 4), (2, 3), (2, 4)]], 5))
# the braid on the edges of K4, with classes {0, 5}, {1, 2}, {3, 4}: ordered by
# their largest line they come in another order than by their least
@example(([IncidencePoint((), p) for p in [(0, 1, 3), (0, 2, 4), (1, 4, 5), (2, 3, 5), (0, 5), (1, 2), (3, 4)]], 6))
@example(([], 1))
def test_cocycles_of_synthetic_records_are_the_dense_basis(record):
    points, r = record
    assert Incidence(points, r).cocycles == _dense_cocycles(points, r)


@pytest.mark.parametrize(
    "points, r",
    [
        # two triple points sharing the pair {0, 1}; their C(3, 2) + C(3, 2) = 6
        # pairs equal C(4, 2), but {2, 3} is never covered
        ([(0, 1, 2), (0, 1, 3)], 4),
        # no pair twice, but {2, 3} is never covered
        ([(0, 1, 2), (0, 3), (1, 3)], 4),
        # every pair once, and one more point on a pair already covered
        ([(0, 1), (0, 2), (1, 2), (1, 2)], 3),
    ],
    ids=["shared pair", "missing pair", "extra point"],
)
def test_incidence_requires_each_pair_at_one_point(points, r):
    """A record is built only when its points cover each pair of lines
    exactly once, the premise of every layer that reads it."""
    with pytest.raises(AssertionError):
        Incidence([IncidencePoint((), lines) for lines in points], r)


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
    assert _printed(pt.to_json()["point"]) == (EisensteinNumber(0), EisensteinNumber(0), EisensteinNumber(1))


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
    original = {p.pairs for p in intersection_points(arr)}
    permuted = {p.pairs for p in intersection_points(shuffled)}
    assert original == permuted


def _violation(arr):
    """The point ``require_multiplicities_ok`` rejects, or None."""
    try:
        require_multiplicities_ok(arr)
    except MultiplicityError as exc:
        return exc.point
    return None


def _assert_oracle_points(arr):
    """The oracle's points of ``arr``, after checking that the package finds them."""
    expected = incidence_oracle.intersection_points(arr)
    found = [(_printed(pt.to_json()["point"]), pt.lines) for pt in intersection_points(arr)]
    assert found == [(pt.point, pt.lines) for pt in expected], arr.label
    return expected


def test_intersection_points_match_qw_oracle(incidence_inputs):
    for arr in incidence_inputs:
        expected = _assert_oracle_points(arr)
        violation = _violation(arr)
        if violation is not None:
            reference = next(pt for pt in expected if pt.multiplicity > 3)
            point = [str(c) for c in reference.point]
            assert violation.to_json() == {"point": point, "lines": list(reference.lines), "multiplicity": reference.multiplicity}
    assert sum(_violation(arr) is not None for arr in incidence_inputs) == 7


def test_intersection_points_match_qw_oracle_on_fixtures_and_cuspidal_lines(corpus_dir):
    """The corpus, every fixture and cuspidal_dual at r = 7 and 61."""
    corpus = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    builders = [*ALL_FIXTURES, generic_nine, four_concurrent, dual_hesse_pgl, braid_pgl]
    for arr in corpus + [b() for b in builders] + [cuspidal_dual(3), cuspidal_dual(30)]:
        _assert_oracle_points(arr)


@pytest.mark.parametrize(
    "coefficients",
    [
        # x = 0 and x + PRIME y = 0 are congruent mod PRIME: their crossing's residues all vanish
        [(1, 0, 0), (1, PRIME, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        # w - ZETA maps to zero, so x + (w - ZETA) y = 0 is congruent to x = 0 too
        [(1, 0, 0), (1, EisensteinNumber(-ZETA, 1), 0), (0, 1, 1), (2, 1, 3)],
        # x + y + PRIME z = 0 passes through (0 : 0 : 1) mod PRIME only, so its
        # crossings with x = 0 and y = 0 have equal residues but are two points
        [(1, 0, 0), (0, 1, 0), (1, 1, PRIME), (1, 2, 3)],
    ],
    ids=["congruent lines", "congruent by w", "incident mod PRIME"],
)
def test_exact_scan_decides_what_residues_cannot(coefficients):
    """Lines that the residues mod ``linalg.PRIME`` cannot tell apart are
    grouped by their exact points, equal to the Q(w) oracle's."""
    _assert_oracle_points(Arrangement([Line(*c) for c in coefficients]))


# entries a + b*w with |a|, |b| <= 2; one branch in three draws 0 and one a
# unit, so lines often share an entry pattern and meet in points of three,
# four or more lines
dense_entries = st.one_of(
    st.just(EisensteinNumber(0)),
    st.sampled_from([EisensteinNumber(a, b) for a, b in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]]),
    st.builds(EisensteinNumber, st.integers(-2, 2), st.integers(-2, 2)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda r: st.lists(
            st.tuples(dense_entries, dense_entries, dense_entries).filter(any),
            min_size=r,
            max_size=r,
            unique_by=incidence_oracle.normalize_point,
        )
    )
)
# five lines through (0 : 0 : 1), and z = 0 meeting each of them at a double point
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 2, 0), (0, 0, 1)])
# eight lines of the dual Hesse arrangement: eight triple points and four double points
@example([line.to_json() for line in dual_hesse().lines[:8]])
def test_intersection_points_of_dense_arrangements_match_qw_oracle(coefficients):
    """Lines with entries a + b*w, |a|, |b| <= 2, meet in many points of
    three or more lines: the points, the multiplicity check and the count
    of pairs all agree with the Q(w) oracle."""
    arr = Arrangement([Line(*c) for c in coefficients])
    expected = _assert_oracle_points(arr)
    assert (_violation(arr) is not None) == any(pt.multiplicity > 3 for pt in expected)
    assert sum(comb(pt.multiplicity, 2) for pt in intersection_points(arr)) == comb(arr.r, 2)


def test_validate_multiplicities():
    assert _violation(dual_hesse()) is None
    assert _violation(triangle()) is None
    violation = _violation(four_concurrent())
    assert violation is not None
    assert violation.multiplicity == 4
    assert _printed(violation.to_json()["point"]) == (EisensteinNumber(0), EisensteinNumber(0), EisensteinNumber(1))
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
    assert same.lines == arr.lines
    swapped = proj_transform(arr, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert combinatorial_type(swapped) == combinatorial_type(arr)


def test_proj_transform_rejects_singular():
    with pytest.raises(ValueError):
        proj_transform(triangle(), [[1, 0, 0], [2, 0, 0], [0, 0, 1]])


def test_proj_transform_moves_lines_with_their_points():
    # a line through p goes to a line through M p, for generic M and every incidence; the
    # Q(w) matrices have w-parts and unequal row denominators, so the map is M, not M scaled per row
    rng, qw_rng = random.Random(31), random.Random(37)
    for arr in (braid(), dual_hesse()):
        points = intersection_points(arr)
        for _ in range(4):
            m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            qw_m = [
                [
                    EisensteinNumber(qw_rng.randint(-6, 6), qw_rng.randint(-6, 6)) / qw_rng.randint(1, 9)
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
            for matrix in (m, qw_m):
                try:
                    image = proj_transform(arr, matrix)
                except ValueError:
                    continue
                for pt in points:
                    point = incidence_oracle.normalize_pairs(pt.pairs)
                    moved = [sum((matrix[i][j] * point[j] for j in range(3)), EisensteinNumber(0)) for i in range(3)]
                    for index in pt.lines:
                        assert pair_dot(image.lines[index].pairs, integer_row(moved)[0]) == (0, 0)
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
    assert again.lines == arr.lines


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
