import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incidence_oracle
from linalg_oracle import package_rank
from pencilfiber import milnor
from pencilfiber.arrangement import IncidencePoint, MultiplicityError, proj_transform
from pencilfiber.eisenstein import EisensteinNumber, integer_row
from pencilfiber.fixtures import (
    braid,
    concurrent_triple,
    conic_dual_lines,
    dual_hesse,
    four_concurrent,
    generic_six,
    near_pencil_six,
    triangle,
)
from pencilfiber.milnor import (
    char_poly_string,
    milnor_report,
    monomial_exponents,
    superabundance,
)
from pencilfiber.linalg import rank_pairs, residue


def _fraction_rank(rows):
    # plain rational elimination, independent of the package's linalg
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_monomial_exponents():
    assert monomial_exponents(-1) == []
    assert monomial_exponents(0) == [(0, 0, 0)]
    assert len(monomial_exponents(3)) == 10


def test_braid_superabundance_against_oracle():
    # the four triple points of the braid arrangement in rational coordinates
    points = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    rows = [[x, y, z] for (x, y, z) in points]  # degree-1 monomials x, y, z
    expected = len(points) - _fraction_rank(rows)
    assert expected == 1
    assert superabundance(braid()) == expected


def test_dual_hesse_superabundance():
    assert superabundance(dual_hesse()) == 2


def test_concurrent_triple_superabundance():
    # degree 2*3/3 - 3 = -1: no monomials at all, so s equals the point count
    assert superabundance(concurrent_triple()) == 1


def test_no_triple_points_means_zero():
    assert superabundance(generic_six()) == 0
    assert superabundance(triangle()) == 0


def test_r_not_divisible_by_three():
    arr = conic_dual_lines([1, 2, 3, 4], "generic_4")
    assert superabundance(arr) == 0
    report = milnor_report(arr)
    assert report.eigenspace_dim_w == 0 and report.eigenspace_dim_w2 == 0
    assert report.b1_milnor_fiber == 3


def test_multiplicity_violation_propagates():
    with pytest.raises(MultiplicityError):
        superabundance(four_concurrent())
    with pytest.raises(MultiplicityError):
        milnor_report(four_concurrent())


def test_char_poly_strings():
    assert milnor_report(dual_hesse()).char_poly == "(t-1)^7*(t^2+t+1)^2"
    assert milnor_report(triangle()).char_poly == "(t-1)^1"
    assert milnor_report(braid()).char_poly == "(t-1)^4*(t^2+t+1)^1"
    assert char_poly_string(0, 0) == "1"


def test_dual_hesse_report():
    report = milnor_report(dual_hesse())
    assert report.r == 9
    assert report.s == 2
    assert report.b1_milnor_fiber == 12
    assert report.mw_rank == 4
    assert report.eigenspace_dim_1 == 8
    assert report.eigenspace_dim_w == 2 and report.eigenspace_dim_w2 == 2
    assert report.char_t1_exponent == 7


def test_braid_report():
    report = milnor_report(braid())
    assert report.r == 6 and report.s == 1
    assert report.b1_milnor_fiber == 7
    assert report.mw_rank == 2


def test_generic_six_report():
    report = milnor_report(generic_six())
    assert report.s == 0 and report.b1_milnor_fiber == 5 and report.mw_rank == 0


def test_report_json_shape():
    data = milnor_report(dual_hesse()).to_json()
    assert data["char_poly"] == "(t-1)^7*(t^2+t+1)^2"
    assert data["eigenspace_dims"] == {"1": 8, "w": 2, "w2": 2}
    assert data["char_poly_exponents"] == {"t-1": 7, "t^2+t+1": 2}


def test_mw_rank_is_twice_s_everywhere():
    for builder in (dual_hesse, braid, triangle, concurrent_triple, generic_six):
        report = milnor_report(builder())
        assert report.mw_rank == 2 * report.s
        assert report.b1_milnor_fiber == report.eigenspace_dim_1 + 2 * report.s


def test_s_stays_between_zero_and_triple_count():
    from pencilfiber.arrangement import intersection_points

    for builder in (dual_hesse, braid, triangle, concurrent_triple, generic_six):
        arr = builder()
        s = superabundance(arr)
        triples = sum(1 for p in intersection_points(arr) if p.multiplicity == 3)
        assert 0 <= s <= triples


def test_superabundance_invariance():
    rng = random.Random(3)
    for builder in (dual_hesse, braid, concurrent_triple):
        arr = builder()
        s = superabundance(arr)
        order = list(range(arr.r))
        for _ in range(3):
            rng.shuffle(order)
            assert superabundance(arr.reordered(order)) == s
        for _ in range(3):
            matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            try:
                image = proj_transform(arr, matrix)
            except ValueError:
                continue
            assert superabundance(image) == s


def _oracle_s(r, points):
    """|T| - rank of the Q(w) evaluation matrix at the normalized triple points T."""
    triple = [pt for pt in points if pt.multiplicity == 3]
    degree = 2 * r // 3 - 3
    if r % 3 or not triple:
        return 0
    if degree < 0:
        return len(triple)
    return len(triple) - package_rank(incidence_oracle.evaluation_matrix(triple, degree))


def test_superabundance_matches_qw_oracle(incidence_inputs):
    checked = 0
    for arr in incidence_inputs:
        points = incidence_oracle.intersection_points(arr)
        if any(pt.multiplicity > 3 for pt in points):
            continue
        assert superabundance(arr) == _oracle_s(arr.r, points), arr.label
        checked += 1
    assert checked == len(incidence_inputs) - 7


_big = st.integers(-(10**12), 10**12)
_denominator = st.integers(1, 10**12)
_qw = st.builds(
    lambda a, p, b, q: EisensteinNumber(Fraction(a, p), Fraction(b, q)), _big, _denominator, _big, _denominator
)


@st.composite
def points_with_scaled_copies(draw):
    """Points at nonzero Q(w) triples with large denominators, some repeated
    under a nonzero scalar.  Each keeps ``integer_row`` of its triple, not
    canonicalised, so a scaled copy keeps its own representative."""
    points = draw(st.lists(st.tuples(_qw, _qw, _qw).filter(any), min_size=1, max_size=6))
    for index in draw(st.lists(st.integers(0, len(points) - 1), max_size=3)):
        scale = draw(_qw.filter(bool))
        points.append(tuple(scale * v for v in points[index]))
    return [IncidencePoint(tuple(integer_row(p)[0]), (0, 1, 2)) for p in points]


@settings(max_examples=40, deadline=None)
@given(points_with_scaled_copies(), st.integers(0, 3))
def test_evaluation_rank_at_zw_representatives(points, degree):
    # a representative scales each row by a nonzero scalar to the power degree
    expected = package_rank(incidence_oracle.evaluation_matrix(map(incidence_oracle.of_point, points), degree))
    assert rank_pairs(milnor._evaluation_matrix(points, degree)) == expected


@settings(max_examples=40, deadline=None)
@given(points_with_scaled_copies(), st.integers(0, 3))
def test_evaluation_residues_are_the_image_of_the_zw_matrix(points, degree):
    expected = [[residue(v) for v in row] for row in milnor._evaluation_matrix(points, degree)]
    assert milnor._evaluation_residues(points, degree) == expected


def test_superabundance_certifies_full_row_rank_mod_p(monkeypatch):
    """A rank mod p of min(T, M), for T triple points and M monomials, is
    the rank: braid (T = 4 against M = 3, rank 3) gives s = 1 and
    near_pencil_6 (T = 1 against M = 3, rank 1) gives s = 0, neither with
    Bareiss.  A rank mod p below min(T, M) decides nothing: Bareiss runs and
    gives the same s."""
    bareiss = []

    def counted(rows):
        bareiss.append(rows)
        return rank_pairs(rows)

    monkeypatch.setattr(milnor, "rank_pairs", counted)
    assert superabundance(braid()) == 1
    assert superabundance(near_pencil_six()) == 0
    assert bareiss == []
    monkeypatch.setattr(milnor, "rank_mod_p", lambda rows: min(len(rows), len(rows[0])) - 1)
    assert superabundance(braid()) == 1
    assert superabundance(near_pencil_six()) == 0
    assert len(bareiss) == 2
