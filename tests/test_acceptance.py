"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison below is equality at
zero tolerance; the only numeric bounds are wall-clock limits.
"""

import json
import random
import time

from decision_oracle import generic_member
from linalg_oracle import nullspace
from pencilfiber.arrangement import (
    combinatorial_type,
    intersection_points,
    point_census,
    proj_transform,
)
from pencilfiber.catalan import (
    QuasiToricRelation,
    descend_step,
    generate_solutions,
    relations_equivalent,
    verify_relation,
)
from pencilfiber.eisenstein import OMEGA, OMEGA2, ZERO, EisensteinNumber
from pencilfiber.fixtures import concurrent_triple, triangle
from pencilfiber.forms import HomForm, UniPoly
from pencilfiber.milnor import milnor_report
from pencilfiber.pencils import find_pencils
from pencilfiber.resonance import (
    component_isotropy_check,
    pencil_basis,
    resonance_kernel_dim,
    triple_point_basis,
)

from pencilfiber.arrangement import Arrangement


def _load_corpus(corpus_dir):
    out = {}
    for path in sorted(corpus_dir.glob("*.json")):
        out[path.name] = Arrangement.from_json(json.loads(path.read_text()))
    return out


def _passed(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_01_dual_hesse(corpus_dir):
    start = time.monotonic()
    arr = _load_corpus(corpus_dir)["dual_hesse.json"]
    census = point_census(intersection_points(arr))
    report = milnor_report(arr)
    pencils = find_pencils(arr)
    elapsed = time.monotonic() - start
    assert census == {3: 12}
    assert census.get(2, 0) == 0
    assert report.s == 2
    assert report.char_poly == "(t-1)^7*(t^2+t+1)^2"
    assert report.mw_rank == 4
    assert len(pencils) == 4
    assert elapsed < 2.0
    _passed(1, f"dual Hesse: 12 triple points, s=2, {report.char_poly}, MW rank 4, 4 pencils ({elapsed:.2f}s)")


def test_criterion_02_braid(corpus_dir):
    start = time.monotonic()
    arr = _load_corpus(corpus_dir)["braid.json"]
    census = point_census(intersection_points(arr))
    report = milnor_report(arr)
    pencils = find_pencils(arr)
    elapsed = time.monotonic() - start
    assert census == {3: 4, 2: 3}
    assert report.s == 1
    assert len(pencils) == 1
    assert report.b1_milnor_fiber == 7
    assert elapsed < 2.0
    _passed(2, f"braid: 4 triple + 3 double points, s=1, 1 pencil, b1=7 ({elapsed:.2f}s)")


def test_criterion_03_eigenvalue_pencil_equivalence(corpus_dir):
    start = time.monotonic()
    corpus = _load_corpus(corpus_dir)
    assert len(corpus) >= 10
    for name, arr in corpus.items():
        census = point_census(intersection_points(arr))
        if any(m > 3 for m in census):
            continue
        s = milnor_report(arr).s
        has_pencil = bool(find_pencils(arr))
        assert (s > 0) == has_pencil, f"{name}: s={s} but pencil={has_pencil}"
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    _passed(3, f"(s > 0) <=> composed of a reduced pencil on {len(corpus)} arrangements ({elapsed:.2f}s)")


def test_criterion_04_combinatorial_surrogate(corpus_dir):
    corpus = _load_corpus(corpus_dir)
    types = {name: combinatorial_type(arr) for name, arr in corpus.items()}
    reports = {name: milnor_report(arr) for name, arr in corpus.items()}
    counts = {name: len(find_pencils(arr)) for name, arr in corpus.items()}
    names = sorted(corpus)
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if types[a] != types[b]:
                continue
            pairs += 1
            assert reports[a].s == reports[b].s, (a, b)
            assert counts[a] == counts[b], (a, b)
    assert pairs >= 3  # the PGL twins and the braid/ceva pair at minimum
    _passed(4, f"equal combinatorial type implies equal s and pencil count ({pairs} pairs)")


def _displayed_relation():
    t = UniPoly.t()
    one = UniPoly.one()
    w = UniPoly.constant(OMEGA)
    w2 = UniPoly.constant(OMEGA2)
    F1 = (t - w) ** 2 * (t - w2) ** 2
    F2 = -((t - one) ** 2 * (t - w2) ** 2 * (EisensteinNumber(1) + OMEGA2))
    F3 = (t - w) ** 2 * (t - one) ** 2 * OMEGA2
    return QuasiToricRelation((F1, F2, F3), (t - one, t - w, t - w2), univariate=True)


def test_criterion_05_displayed_relation_and_sensitivity():
    rel = _displayed_relation()
    assert verify_relation(rel)
    perturbed = 0
    for which in range(3):
        for position in range(len(rel.F[which].coeffs)):
            bumped = list(rel.F[which].coeffs)
            bumped[position] = bumped[position] + 1
            F = list(rel.F)
            F[which] = UniPoly(bumped)
            assert not verify_relation(QuasiToricRelation(tuple(F), rel.sol, True))
            perturbed += 1
    _passed(5, f"displayed cube relation verifies; all {perturbed} single +1 perturbations fail")


def test_criterion_06_doubling_identities():
    X = HomForm.monomial((1, 0, 0))
    Y = HomForm.monomial((0, 1, 0))
    lhs = -(X * (X + Y * 2) ** 3) + Y * (X * 2 + Y) ** 3 + (X + Y) * (X - Y) ** 3
    assert lhs.is_zero
    t = UniPoly.t()
    one = UniPoly.one()
    coord = -(t * (t - UniPoly.constant(2)) ** 3) + (t - one) * (t + one) ** 3
    assert coord == (t * 2 - one) ** 3
    _passed(6, "duplication identities hold with symbolic indeterminates")


def test_criterion_07_constructive_infinitude():
    start = time.monotonic()
    pencil = find_pencils(concurrent_triple())[0]
    relations = generate_solutions(pencil, 4)
    assert len(relations) == 4
    degrees = [max(p.degree for p in rel.sol) for rel in relations]
    assert all(verify_relation(rel) for rel in relations)
    assert all(a < b for a, b in zip(degrees, degrees[1:]))
    for i in range(4):
        for j in range(i + 1, 4):
            assert not relations_equivalent(relations[i], relations[j])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(7, f"4 doublings verify with degrees {degrees}, pairwise inequivalent ({elapsed:.2f}s)")


def test_criterion_08_descent():
    t = UniPoly.t()
    one = UniPoly.one()
    f = -(t * (t**3 + UniPoly.constant(2)))
    g = t**3 * 2 + one
    h = -(t**3 - one)
    rel = QuasiToricRelation((one, one, -(one + t**3)), (f, g, h), univariate=True)
    assert verify_relation(rel)
    known = [one + t, one + t * OMEGA, one + t * OMEGA2]
    out = descend_step(rel, known)
    assert verify_relation(out)
    # the three returned coefficients admit a nowhere-zero linear dependence
    ncols = max(F.degree for F in out.F) + 1
    matrix = [[out.F[j].coeffs[m] if m <= out.F[j].degree else ZERO for j in range(3)] for m in range(ncols)]
    kernel = nullspace(matrix, ncols=3)
    assert len(kernel) == 1 and all(kernel[0])
    assert max(v.degree for v in out.sol) < h.degree
    _passed(8, "descent yields a verifying pencil relation with smaller solution degree")


def test_criterion_09_resonance_components(corpus_dir):
    start = time.monotonic()
    corpus = _load_corpus(corpus_dir)
    checked = 0
    for arr in corpus.values():
        census = point_census(intersection_points(arr))
        if any(m > 3 for m in census):
            continue
        for pt in intersection_points(arr):
            if pt.multiplicity != 3:
                continue
            basis = triple_point_basis(pt, arr.r)
            assert component_isotropy_check(arr, basis)
            assert resonance_kernel_dim(arr, generic_member(basis)) >= 2
            checked += 1
        for pencil in find_pencils(arr):
            basis = pencil_basis(pencil, arr.r)
            assert component_isotropy_check(arr, basis)
            assert resonance_kernel_dim(arr, generic_member(basis)) >= 2
            checked += 1
    rng = random.Random(123)
    arr = triangle()
    probes = 0
    while probes < 20:
        values = [rng.randint(-6, 6) for _ in range(2)]
        if not any(values):
            continue
        assert resonance_kernel_dim(arr, [(values[0], 0), (values[1], 0), (-values[0] - values[1], 0)]) == 1
        probes += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passed(
        9,
        f"{checked} candidate components isotropic with resonant generic members; triangle kernel always 1 ({elapsed:.2f}s)",
    )


def test_criterion_10_invariance(corpus_dir):
    start = time.monotonic()
    rng = random.Random(777)
    corpus = _load_corpus(corpus_dir)
    for name, arr in sorted(corpus.items()):
        reference_s = milnor_report(arr).s
        reference_count = len(find_pencils(arr))
        reference_type = combinatorial_type(arr)
        variants = []
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
        for variant in variants:
            assert milnor_report(variant).s == reference_s, name
            assert len(find_pencils(variant)) == reference_count, name
            assert combinatorial_type(variant) == reference_type, name
    elapsed = time.monotonic() - start
    assert elapsed < 3.0
    _passed(
        10,
        f"s, pencil count and combinatorial type invariant under 5 transforms + 5 reorders per fixture ({elapsed:.2f}s)",
    )
