import json
import math
import random
import shutil
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from decision_oracle import bareiss_dependence
from pencilfiber import cli, linalg
from pencilfiber import pencils as pencils_module
from pencilfiber.arrangement import Arrangement, Line, MultiplicityError, incidence, intersection_points, proj_transform
from pencilfiber.eisenstein import ZERO, EisensteinNumber, parse_eisenstein
from pencilfiber.fixtures import (
    braid,
    ceva_two,
    concurrent_triple,
    conic_dual_lines,
    cuspidal_dual,
    dual_hesse,
    four_concurrent,
    generic_nine,
    generic_six,
    near_pencil_six,
    triangle,
)
from pencilfiber.forms import HomForm, linear_product_pairs
from pencilfiber.milnor import monomial_exponents, superabundance
from pencilfiber.pencils import PencilDecomposition, beta3, find_pencils


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _rank_le_2_by_minors(rows):
    """Independent rank <= 2 test: every 3x3 minor vanishes."""
    ncols = len(rows[0])
    for cols in combinations(range(ncols), 3):
        sub = [[row[c] for c in cols] for row in rows]
        if _det3(sub):
            return False
    return True


def _exhaustive_pencil_oracle(arr):
    """Re-run the search with an independent partition enumeration and an
    independent (all-3x3-minors) rank test."""
    r = arr.r
    k = r // 3
    monomials = monomial_exponents(k)
    forms = [HomForm.linear(*line.to_json()) for line in arr.lines]
    accepted = set()
    indices = list(range(r))
    for class_a in combinations(indices[1:], k - 1):
        a = (0,) + class_a
        rest = [i for i in indices[1:] if i not in class_a]
        for class_b in combinations(rest[1:], k - 1):
            b = (rest[0],) + class_b
            c = tuple(i for i in rest[1:] if i not in class_b)
            prods = []
            for cls in (a, b, c):
                p = HomForm.constant(1)
                for i in cls:
                    p = p * forms[i]
                prods.append(p)
            rows = [[p.coeffs.get(e, EisensteinNumber(0)) for e in monomials] for p in prods]
            if not _rank_le_2_by_minors(rows):
                continue
            # pencil also needs pairwise non-proportional products, which holds
            # automatically for disjoint classes; record the partition
            accepted.add((a, b, c))
    return accepted


def _qw_view(pencil):
    """The lambdas l_i = lam[i] / lam_scale and products F_i = tables[i] / scales[i]
    of a pencil's Z[w] certificate, divided out in Q(w)."""
    lambdas = tuple(EisensteinNumber(Fraction(a, pencil.lam_scale), Fraction(b, pencil.lam_scale)) for a, b in pencil.lam)
    degree = len(pencil.classes[0])
    products = tuple(
        HomForm(degree, {e: EisensteinNumber(Fraction(a, scale), Fraction(b, scale)) for e, (a, b) in table.items()})
        for table, scale in zip(pencil.tables, pencil.scales)
    )
    return lambdas, products


def test_dual_hesse_has_four_pencils():
    pencils = find_pencils(dual_hesse())
    assert len(pencils) == 4
    classes = {p.classes for p in pencils}
    assert ((0, 1, 2), (3, 4, 5), (6, 7, 8)) in classes
    cubic = next(p for p in pencils if p.classes == ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    assert _qw_view(cubic)[0] == (EisensteinNumber(1), EisensteinNumber(-1), EisensteinNumber(1))
    assert cubic.to_json()["lambdas"] == ["1", "-1", "1"]


def test_braid_unique_pencil_vs_oracle():
    arr = braid()
    pencils = find_pencils(arr)
    assert len(pencils) == 1
    assert _exhaustive_pencil_oracle(arr) == {p.classes for p in pencils}
    assert pencils[0].classes == ((0, 5), (1, 4), (2, 3))


def test_generic_six_has_no_pencils_vs_oracle():
    arr = generic_six()
    assert find_pencils(arr) == []
    assert _exhaustive_pencil_oracle(arr) == set()


def test_generic_nine_has_no_pencils():
    assert find_pencils(generic_nine()) == []


def test_triangle_has_no_pencil():
    assert len(find_pencils(triangle())) == 0


def test_concurrent_triple_pencil():
    pencils = find_pencils(concurrent_triple())
    assert len(pencils) == 1
    p = pencils[0]
    assert p.classes == ((0,), (1,), (2,))
    assert _qw_view(p)[0] == (EisensteinNumber(1), EisensteinNumber(1), EisensteinNumber(-1))


def test_returned_identity_always_verifies():
    for builder in (dual_hesse, braid, ceva_two, concurrent_triple):
        for pencil in find_pencils(builder()):
            lambdas, products = _qw_view(pencil)
            total = None
            for lam, form in zip(lambdas, products):
                term = form * lam
                total = term if total is None else total + term
            assert total.is_zero
            assert all(lam for lam in lambdas)
            assert pencil.scaled_products() == tuple(form * lam for lam, form in zip(lambdas, products))


def test_r_not_divisible_by_three_is_empty():
    assert find_pencils(conic_dual_lines([1, 2, 3, 4], "g4")) == []


def test_multiplicity_violation_propagates():
    with pytest.raises(MultiplicityError):
        find_pencils(four_concurrent())
    # r = 7 has no pencil, but the quadruple point still raises
    seven = Arrangement([*four_concurrent().lines, Line(1, 2, 5), Line(3, -1, 7), Line(2, 5, -3)], "seven")
    with pytest.raises(MultiplicityError):
        find_pencils(seven)


def test_no_line_cap():
    for count in (18, 30):
        assert find_pencils(conic_dual_lines(list(range(1, count + 1)), f"generic_{count}")) == []


def test_search_agrees_with_exhaustive_oracle():
    """The 3-net pruning never drops a real pencil."""
    hesse = dual_hesse()
    for subset in combinations(range(9), 6):
        sub = hesse.reordered(subset)
        assert any(pt.multiplicity == 3 for pt in intersection_points(sub))
        assert find_pencils(sub) == []
        assert _exhaustive_pencil_oracle(sub) == set()
    pencils = find_pencils(hesse)
    assert len(pencils) == 4
    assert _exhaustive_pencil_oracle(hesse) == {p.classes for p in pencils}
    rng = random.Random(2024)
    for builder in (braid, ceva_two, near_pencil_six):
        arr = builder()
        for _ in range(2):
            matrix = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            try:
                image = proj_transform(arr, matrix)
            except ValueError:
                continue  # singular matrix
            order = list(range(arr.r))
            rng.shuffle(order)
            for variant in (image, arr.reordered(order)):
                assert _exhaustive_pencil_oracle(variant) == {p.classes for p in find_pencils(variant)}


def test_is_composed_examples():
    assert bool(find_pencils(dual_hesse()))
    assert bool(find_pencils(concurrent_triple()))
    assert not bool(find_pencils(generic_nine()))


def test_invariance_under_relabeling_and_transform():
    rng = random.Random(17)
    for builder in (dual_hesse, braid):
        arr = builder()
        reference = {frozenset(frozenset(c) for c in p.classes) for p in find_pencils(arr)}
        order = list(range(arr.r))
        rng.shuffle(order)
        relabeled = arr.reordered(order)
        image = {
            frozenset(frozenset(order[i] for i in c) for c in p.classes)
            for p in find_pencils(relabeled)
        }
        assert image == reference
        matrix = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
        transformed = proj_transform(arr, matrix)
        assert {p.classes for p in find_pencils(transformed)} == {p.classes for p in find_pencils(arr)}


def test_pencil_json_roundtrip():
    pencil = find_pencils(dual_hesse())[0]
    again = PencilDecomposition.from_json(pencil.to_json())
    assert again.classes == pencil.classes
    assert _qw_view(again) == _qw_view(pencil)


def test_pencil_json_requires_lists():
    data = find_pencils(dual_hesse())[0].to_json()
    as_strings = dict(data, classes=["".join(map(str, c)) for c in data["classes"]])
    with pytest.raises(TypeError):
        PencilDecomposition.from_json(as_strings)
    with pytest.raises(TypeError):
        PencilDecomposition.from_json(dict(data, lambdas="".join(data["lambdas"])))


@pytest.mark.parametrize("index", [0.5, 0.0, True])
def test_pencil_json_requires_integer_indices(index):
    data = find_pencils(concurrent_triple())[0].to_json()
    with pytest.raises(TypeError):
        PencilDecomposition.from_json(dict(data, classes=[[index], [1], [2]]))


def test_beta3_examples():
    assert [beta3(b()) for b in (triangle, generic_six, near_pencil_six)] == [0, 0, 0]
    assert [beta3(b()) for b in (concurrent_triple, braid, ceva_two)] == [1, 1, 1]
    assert beta3(dual_hesse()) == 2
    with pytest.raises(MultiplicityError):
        beta3(four_concurrent())


def _count_nullspace_f3(monkeypatch):
    """The list of arguments of every later ``nullspace_f3`` call, in any module."""
    calls = []
    original = linalg.nullspace_f3

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("pencilfiber") and getattr(module, "nullspace_f3", None) is original:
            monkeypatch.setattr(module, "nullspace_f3", counting)
    return calls


def test_cocycle_kernel_is_solved_once_per_arrangement(monkeypatch):
    """find_pencils and beta3 read one F3 cocycle basis, kept on the arrangement."""
    calls = _count_nullspace_f3(monkeypatch)
    arr = dual_hesse()
    assert len(find_pencils(arr)) == 4
    assert beta3(arr) == 2
    assert len(calls) == 1


def test_beta3_at_151_lines_solves_only_the_triple_point_rows():
    """The double points join classes without elimination: beta3 at r = 151,
    with the incidence record built first, takes milliseconds."""
    arr = cuspidal_dual(75)
    incidence(arr)
    start = time.perf_counter()
    assert beta3(arr) == 0
    assert time.perf_counter() - start < 0.25


def test_analyze_of_seven_lines_skips_the_cocycle_kernel(monkeypatch, capsys, tmp_path):
    """Three classes of r/3 lines need 3 | r: analyze on r = 7 never solves the cocycles."""
    calls = _count_nullspace_f3(monkeypatch)
    path = tmp_path / "cuspidal_dual_7.json"
    path.write_text(json.dumps(cuspidal_dual(3).to_json()))
    assert cli.main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["r"], report["pencil_count"]) == (7, 0)
    assert calls == []


def test_beta3_is_superabundance_and_counts_pencils(corpus_dir):
    """beta3 from incidence alone against s from coordinates, and the
    pencil count (3^beta3 - 1)/2, on the corpus and every sub-arrangement
    of dual_hesse."""
    arrangements = [Arrangement.from_json(json.loads(path.read_text())) for path in sorted(corpus_dir.glob("*.json"))]
    hesse = dual_hesse()
    arrangements += [hesse.reordered(subset) for n in range(1, 10) for subset in combinations(range(9), n)]
    assert len(arrangements) >= 12 + 511
    for arr in arrangements:
        b = beta3(arr)
        assert b == superabundance(arr), arr.label
        assert len(find_pencils(arr)) == (3**b - 1) // 2, arr.label


def _pgl_images(builders, count, seed):
    """``count`` images of each arrangement under matrices whose entries have
    w-parts and unequal denominators, each with its lines shuffled."""
    rng = random.Random(seed)
    images = []
    for builder in builders:
        arr = builder()
        made = 0
        while made < count:
            m = [
                [EisensteinNumber(rng.randint(-4, 4), rng.randint(-4, 4)) / rng.randint(1, 7) for _ in range(3)]
                for _ in range(3)
            ]
            try:
                image = proj_transform(arr, m)
            except ValueError:
                continue  # singular matrix
            order = list(range(arr.r))
            rng.shuffle(order)
            images.append(image.reordered(order))
            made += 1
    return images


class FieldArithmeticCalled(Exception):
    pass


def test_find_pencils_does_no_field_arithmetic(corpus_dir, monkeypatch):
    # class products are multiplied as Z[w] pairs; the Q(w) products and
    # lambdas of an accepted pencil are built, not computed
    def refuse(*args):
        raise FieldArithmeticCalled

    arrangements = [Arrangement.from_json(json.loads(path.read_text())) for path in sorted(corpus_dir.glob("*.json"))]
    arrangements += _pgl_images((dual_hesse, braid, ceva_two), 2, 31)
    assert sum(len(find_pencils(arr)) for arr in arrangements) > len(arrangements)
    for arr in arrangements:
        expected = find_pencils(arr)
        fresh = arr.reordered(range(arr.r))  # no cached incidence points
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            monkeypatch.setattr(EisensteinNumber, name, refuse)
        assert find_pencils(fresh) == expected, arr.label
        monkeypatch.undo()


def _qw_pencil_oracle(arr):
    """Classes from the exhaustive search, products by ``HomForm.__mul__``, and
    l2, l3 of the Q(w) identity F1 + l2*F2 + l3*F3 = 0 by Cramer's rule on two
    monomials where F2 and F3 are independent."""
    forms = [HomForm.linear(*line.to_json()) for line in arr.lines]
    found = []
    for classes in sorted(_exhaustive_pencil_oracle(arr)):
        prods = []
        for cls in classes:
            p = HomForm.constant(1)
            for i in cls:
                p = p * forms[i]
            prods.append(p)
        f1, f2, f3 = ([f.coeffs.get(e, ZERO) for e in monomial_exponents(len(classes[0]))] for f in prods)
        for e, g in combinations(range(len(f1)), 2):
            det = f2[e] * f3[g] - f3[e] * f2[g]
            if det:
                break
        l2 = (f3[e] * f1[g] - f1[e] * f3[g]) / det
        l3 = (f1[e] * f2[g] - f2[e] * f1[g]) / det
        assert (prods[0] + prods[1] * l2 + prods[2] * l3).is_zero
        found.append((classes, (EisensteinNumber(1), l2, l3), tuple(prods)))
    return found


def _denominator_lcm(coeffs):
    return math.lcm(*(x.re.denominator for x in coeffs), *(x.wc.denominator for x in coeffs))


def test_pencils_match_qw_product_oracle():
    images = _pgl_images((concurrent_triple, braid, ceva_two), 2, 7) + _pgl_images((dual_hesse,), 1, 7)
    unequal_scales = 0
    for arr in images:
        pencils = find_pencils(arr)
        assert [(p.classes, *_qw_view(p)) for p in pencils] == _qw_pencil_oracle(arr), arr.label
        coeffs = [tuple(map(parse_eisenstein, line.to_json())) for line in arr.lines]
        for p in pencils:
            scales = [math.prod(_denominator_lcm(coeffs[i]) for i in cls) for cls in p.classes]
            unequal_scales += len(set(scales)) > 1
    assert unequal_scales >= len(images)  # the per-class scales c_i differ


def test_permuted_lambda_fails_reverification(monkeypatch, tmp_path, capsys):
    cross = pencils_module.pair_cross

    def permuted(u, v):
        a, b, c = cross(u, v)
        return (b, a, c)

    # the zero dots are the certificate: a wrong lambda fails them, so every
    # candidate is skipped, and crosscheck sees s = 2 with no pencil
    monkeypatch.setattr(pencils_module, "pair_cross", permuted)
    assert find_pencils(dual_hesse()) == []
    (tmp_path / "dual_hesse.json").write_text(json.dumps(dual_hesse().to_json()))
    assert cli.main(["crosscheck", str(tmp_path)]) == 3
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert {"file": "dual_hesse.json", "check": "eigenvalue_vs_pencil"} in failures


def _product_rows(arr, classes):
    """The monomial-by-class matrix of the Z[w] class products, as ``find_pencils`` builds it."""
    prods = [linear_product_pairs(arr.lines[i].pairs for i in c) for c in classes]
    return [[p.get(e, (0, 0)) for p in prods] for e in monomial_exponents(len(classes[0]))]


def _decision_sample(corpus_dir):
    """The corpus, the fixtures with 3 | r, seeded PGL images with shuffled
    lines, every sub-arrangement of dual_hesse with 3 | r, and the cuspidal
    duals with 3 | r that tier 1 builds (r = 15, 21, 63)."""
    arrangements = [Arrangement.from_json(json.loads(path.read_text())) for path in sorted(corpus_dir.glob("*.json"))]
    arrangements += [f() for f in (braid, ceva_two, concurrent_triple, dual_hesse, generic_nine, generic_six, near_pencil_six)]
    arrangements += _pgl_images((dual_hesse, braid, ceva_two, concurrent_triple), 3, 83)
    hesse = dual_hesse()
    for k in (3, 6, 9):
        arrangements += [Arrangement([hesse.lines[i] for i in keep]) for keep in combinations(range(9), k)]
    arrangements += [cuspidal_dual(m) for m in (7, 10, 31)]
    return [arr for arr in arrangements if arr.r % 3 == 0]


def test_dependence_matches_the_bareiss_decision(corpus_dir):
    """The cross-and-dot decision gives the kernel vector, or None, exactly when
    the rank-first decision does: on every cocycle candidate, and on two
    seeded partitions of each arrangement into three classes of r/3 lines,
    which are rarely pencils."""
    rng = random.Random(89)
    decided = Counter()
    for arr in _decision_sample(corpus_dir):
        cocycle = pencils_module._cocycle_partitions(arr)
        k = arr.r // 3
        seeded = [rng.sample(range(arr.r), arr.r) for _ in range(2)]
        seeded = [tuple(tuple(sorted(order[n : n + k])) for n in range(0, arr.r, k)) for order in seeded]
        accepted = []
        for classes in cocycle + seeded:
            rows = _product_rows(arr, classes)
            lam = pencils_module._dependence(rows)
            assert lam == bareiss_dependence(rows), (arr.label, classes)
            decided[lam is not None, linalg.rank_pairs(rows)] += 1
            if lam is not None and classes in cocycle:
                accepted.append(classes)
        assert [p.classes for p in find_pencils(arr)] == sorted(set(accepted)), arr.label
    assert set(decided) == {(True, 2), (False, 3)}, decided


def test_dependence_skips_rank_one_and_rank_three_rows():
    """Synthetic m x 3 rows with w-parts: rank 0, 1 and 3, and rank 2 with a
    zero kernel entry, are skipped with no StopIteration; rank 2 with a
    kernel vector of nonzero entries gives that vector."""
    p, q, z = (2, -1), (0, 3), (0, 0)
    cases = {
        "empty": [],
        "zero": [[z, z, z], [z, z, z]],
        "rank 1": [[z, z, z], [p, q, z], [(-2, 1), (0, -3), z], [(0, 2), (-3, -3), z]],
        "rank 1, one row": [[p, p, q]],
        "rank 3": [[p, z, z], [z, q, z], [z, z, p], [p, q, p]],
        "rank 3, late": [[p, q, p], [(4, -2), (0, 6), (4, -2)], [(1, 0), (0, 0), (1, 0)], [z, (1, 1), z]],
        "rank 2, zero entry": [[p, z, z], [z, q, z], [p, q, z]],
    }
    for name, rows in cases.items():
        assert pencils_module._dependence(rows) is None, name
        assert bareiss_dependence(rows) is None, name
    rows = [[p, (-2, 1), z], [z, q, (0, -3)], [p, z, (-2, 1)], [z, z, z]]
    lam = pencils_module._dependence(rows)
    assert lam == bareiss_dependence(rows) and (0, 0) not in lam
    assert linalg.rank_pairs(rows) == 2


def test_find_pencils_asks_no_rank(corpus_dir, monkeypatch):
    """No ``rank_pairs`` call in ``find_pencils`` over the corpus, which has pencils."""
    calls = []
    rank = linalg.rank_pairs

    def counted(rows):
        calls.append(len(rows))
        return rank(rows)

    for module in [m for name, m in sys.modules.items() if name.startswith("pencilfiber")]:
        if getattr(module, "rank_pairs", None) is rank:
            monkeypatch.setattr(module, "rank_pairs", counted)
    assert not hasattr(pencils_module, "rank_pairs")
    found = sum(len(find_pencils(Arrangement.from_json(json.loads(p.read_text())))) for p in sorted(corpus_dir.glob("*.json")))
    assert (found, calls) == (12, [])


def _cocycle_partitions_oracle(arr):
    """The level sets of all 3^(beta_3 + 1) cocycles that are three classes of
    r/3 lines, each kept once: the search before it tried one cocycle per
    class modulo sigma and sign."""
    k = arr.r // 3
    basis = incidence(arr).cocycles
    found = set()
    for coeffs in product(range(3), repeat=len(basis)):
        tau = [sum(c * v for c, v in zip(coeffs, column)) % 3 for column in zip(*basis)]
        classes = tuple(tuple(i for i, t in enumerate(tau) if t == v) for v in range(3))
        if all(len(c) == k for c in classes):
            found.add(tuple(sorted(classes)))
    return sorted(found)


def _criterion_10_variants(corpus):
    """The 120 variants of ``test_criterion_10_invariance``: per corpus file,
    five seeded projective images, then five seeded reorderings."""
    rng = random.Random(777)
    variants = []
    for _, arr in sorted(corpus.items()):
        made = 0
        while made < 5:
            matrix = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            try:
                variants.append(proj_transform(arr, matrix))
            except ValueError:
                continue
            made += 1
        for _ in range(5):
            order = list(range(arr.r))
            rng.shuffle(order)
            variants.append(arr.reordered(order))
    return variants


def test_one_cocycle_per_class_matches_the_full_enumeration(corpus_dir):
    corpus = {p.name: Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))}
    fixtures = [b() for b in (dual_hesse, braid, ceva_two, triangle, concurrent_triple, generic_six, generic_nine, near_pencil_six)]
    variants = _criterion_10_variants(corpus)
    hesse = dual_hesse()
    subs = [hesse.reordered(subset) for n in range(1, 10) for subset in combinations(range(9), n)]
    assert (len(variants), len(subs)) == (120, 511)
    candidates = 0
    for arr in [*corpus.values(), *fixtures, *variants, *subs]:
        expected = _cocycle_partitions_oracle(arr)
        assert pencils_module._cocycle_partitions(arr) == expected, arr.label
        tried = list(pencils_module._cocycle_classes(incidence(arr).cocycles))
        assert len(tried) == (3 ** beta3(arr) - 1) // 2, arr.label
        candidates += len(expected)
    assert candidates > len(corpus) + len(variants)


def test_cocycle_classes_check_that_sigma_is_the_sum_of_the_basis():
    basis = incidence(dual_hesse()).cocycles
    assert list(pencils_module._cocycle_classes(basis))
    with pytest.raises(AssertionError, match="sigma"):
        list(pencils_module._cocycle_classes(basis[:-1]))


def _count_constructions(monkeypatch):
    """A counter of later Fraction and EisensteinNumber constructions."""
    counts = {"Fraction": 0, "EisensteinNumber": 0}

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counting("Fraction", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # the arithmetic's constructor from Python 3.12
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting("Fraction", Fraction._from_coprime_ints.__func__)))
    monkeypatch.setattr(EisensteinNumber, "__init__", counting("EisensteinNumber", EisensteinNumber.__init__))
    return counts


def test_arrangement_commands_build_no_field_element(corpus_dir, tmp_path, monkeypatch, capsys):
    """analyze, pencils, resonance and crosscheck compute over Z[w] and print
    from the integers, pencils and a multiplicity violation included."""
    for path in corpus_dir.glob("*.json"):
        shutil.copy(path, tmp_path)
    (tmp_path / "four_concurrent.json").write_text(json.dumps(four_concurrent().to_json()))
    files = sorted(str(p) for p in tmp_path.glob("*.json"))
    counts = _count_constructions(monkeypatch)
    EisensteinNumber(Fraction(1, 2))
    seen = dict(counts)
    assert seen["Fraction"] >= 1 and seen["EisensteinNumber"] == 1  # the counters see both
    codes = [cli.main([command, path]) for command in ("analyze", "pencils", "resonance") for path in files]
    codes.append(cli.main(["crosscheck", str(tmp_path)]))
    out = capsys.readouterr().out
    assert codes.count(2) == 3 and '"pencils": [\n    {' in out
    assert counts == seen


def test_pencil_json_from_certificate_is_the_json_of_its_qw_view(corpus_dir):
    arrangements = [Arrangement.from_json(json.loads(path.read_text())) for path in sorted(corpus_dir.glob("*.json"))]
    arrangements += _pgl_images((concurrent_triple, braid, ceva_two, dual_hesse), 2, 13)
    found = 0
    for arr in arrangements:
        for pencil in find_pencils(arr):
            before = pencil.to_json()
            lambdas, products = _qw_view(pencil)
            view = {
                "classes": [list(c) for c in pencil.classes],
                "lambdas": [str(l) for l in lambdas],
                "products": [f.to_json() for f in products],
            }
            assert json.dumps(before) == json.dumps(view) == json.dumps(pencil.to_json()), arr.label
            found += 1
    assert found > len(arrangements)


def _scaled_lambdas(pencil, scale):
    """The pencil's JSON with every lambda multiplied by ``scale``."""
    data = pencil.to_json()
    data["lambdas"] = [str(EisensteinNumber.of(l) * scale) for l in data["lambdas"]]
    return data


def test_parsed_pencil_prints_its_fields():
    """A parsed pencil keeps the lambdas it was given: its l1 need not be 1."""
    data = _scaled_lambdas(find_pencils(braid())[0], EisensteinNumber(2, 3))
    assert data["lambdas"][0] == "2+3*w"
    text = json.dumps(data, indent=2, sort_keys=True)
    assert json.dumps(PencilDecomposition.from_json(json.loads(text)).to_json(), indent=2, sort_keys=True) == text


def test_parsed_pencil_prints_from_its_integers(monkeypatch):
    """A parsed pencil, l1 != 1 included, prints with no str of a field element."""
    texts = []
    for arr in (braid(), dual_hesse(), ceva_two()):
        for pencil in find_pencils(arr):
            data = _scaled_lambdas(pencil, EisensteinNumber(2, 3))
            texts.append((PencilDecomposition.from_json(data), json.dumps(data, sort_keys=True)))

    def refuse(self):
        raise AssertionError("str of a field element")

    monkeypatch.setattr(EisensteinNumber, "__str__", refuse)
    for parsed, text in texts:
        assert json.dumps(parsed.to_json(), sort_keys=True) == text


def _reducible(pencil):
    """Whether some class table and its scale share a factor."""
    return any(
        math.gcd(scale, *(x for v in table.values() for x in v)) > 1 for table, scale in zip(pencil.tables, pencil.scales)
    )


def test_pencil_equality_is_qw_equality():
    """A found certificate need not be in lowest terms, and a parsed one is,
    so the reprint of a found pencil holds other integers; it is still equal."""
    reducible = 0
    for arr in _pgl_images((dual_hesse, braid, ceva_two), 3, 31):
        for pencil in find_pencils(arr):
            again = PencilDecomposition.from_json(pencil.to_json())
            assert again == pencil and pencil == again, arr.label
            reducible += _reducible(pencil)
            assert not _reducible(again)
    assert reducible >= 3


@pytest.mark.parametrize("spelling, printed", [("2/2", "1"), ("2/4", "1/2")])
def test_parsed_pencil_in_other_terms_equals_its_reprint(spelling, printed):
    pencil = find_pencils(braid())[0]
    data = pencil.to_json()
    data["lambdas"][0] = spelling
    term = data["products"][0]["terms"][0]
    assert term["c"] == "1"
    term["c"] = "2/2"
    parsed = PencilDecomposition.from_json(data)
    reprint = parsed.to_json()
    assert reprint["lambdas"][0] == printed and reprint["products"][0]["terms"][0]["c"] == "1"
    assert PencilDecomposition.from_json(reprint) == parsed
    assert (parsed == pencil) == (spelling == "2/2")


def test_changing_one_lambda_breaks_equality():
    for pencil in find_pencils(dual_hesse()):
        assert PencilDecomposition.from_json(pencil.to_json()) == pencil
        for i in range(3):
            data = pencil.to_json()
            data["lambdas"][i] = str(EisensteinNumber.of(data["lambdas"][i]) * 2)
            changed = PencilDecomposition.from_json(data)
            assert changed != pencil and pencil != changed


@pytest.mark.parametrize(
    "classes, message",
    [
        ([[-1], [0], [0]], "distinct nonnegative"),
        ([[0, 1, 2, 3], [], [5]], "as many lines"),
        ([[0], [0], [0]], "distinct nonnegative"),
        ([[0, 1], [2], [3]], "as many lines"),
    ],
)
def test_pencil_classes_must_hold_their_products_lines(classes, message, tmp_path, capsys):
    data = find_pencils(concurrent_triple())[0].to_json()
    with pytest.raises(ValueError, match=message):
        PencilDecomposition.from_json(dict(data, classes=classes))
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dict(data, classes=classes)))
    assert cli.main(["catalan", "generate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in json.loads(captured.err)["error"]


def test_pencil_products_must_have_one_degree(tmp_path, capsys):
    # classes of 1, 2 and 1 lines fit their products, but no pencil has them
    line = {"degree": 1, "terms": [{"exp": [1, 0, 0], "c": "1"}]}
    conic = {"degree": 2, "terms": [{"exp": [2, 0, 0], "c": "1"}]}
    data = {"classes": [[0], [1, 2], [3]], "lambdas": ["1", "1", "-1"], "products": [line, conic, line]}
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(data))
    assert cli.main(["catalan", "generate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "one degree" in json.loads(captured.err)["error"]
