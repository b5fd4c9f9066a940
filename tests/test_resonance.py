import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decision_oracle
from decision_oracle import generic_member
from linalg_oracle import peeled_rank, rref
from pencilfiber import cli, resonance
from pencilfiber.arrangement import Arrangement, intersection_points, proj_transform
from pencilfiber.eisenstein import OMEGA, ONE, ZERO, EisensteinNumber, ParseError, integer_row, pair_mul
from pencilfiber.fixtures import (
    braid,
    ceva_two,
    concurrent_triple,
    cuspidal_dual,
    dual_hesse,
    generic_six,
    near_pencil_six,
    triangle,
)
from pencilfiber.pencils import find_pencils
from pencilfiber.resonance import (
    component_isotropy_check,
    distinct_planes,
    pencil_basis,
    resonance_kernel_dim,
    triple_point_basis,
    wedge_vanishes,
)


def E(*values):
    return [EisensteinNumber.of(v) for v in values]


def zw(a):
    """A weight vector of Q(w) values, ints or text as the Z[w] pairs that
    ``integer_row`` scales it into, the form ``resonance`` reads.  A positive
    integer scale changes no answer, so every test builds its Q(w) weights
    and reads them through this one helper."""
    return integer_row(a)[0]


def qw(vec):
    """A vector of Z[w] pairs as Q(w) values, for arithmetic and the dense oracles."""
    return [EisensteinNumber(*pair) for pair in vec]


# The oracle works on the whole exterior square: C(r, 2)-wide vectors modulo
# the dense relation rows, with ranks from Gaussian RREF.  It shares no code
# with the point-by-point path in ``resonance``.


def _pairs(r):
    return list(combinations(range(r), 2))


def _dense_relations(arr):
    """One row e_ij - e_ik + e_jk per triple point {i < j < k}."""
    index = {pair: n for n, pair in enumerate(_pairs(arr.r))}
    rows = []
    for pt in intersection_points(arr):
        if pt.multiplicity == 3:
            i, j, k = pt.lines
            row = [ZERO] * len(index)
            row[index[i, j]], row[index[i, k]], row[index[j, k]] = ONE, -ONE, ONE
            rows.append(row)
    return rows


def raw_wedge(r, a, b):
    return [a[i] * b[j] - a[j] * b[i] for i, j in _pairs(r)]


def _wedge_oracle(relations, r, a, b):
    """a ^ b, for Z[w] pairs a and b, vanishes iff appending it to the
    relations keeps their rank."""
    return len(rref(relations + [raw_wedge(r, qw(a), qw(b))])[1]) == len(rref(relations)[1])


def _kernel_dim_oracle(relations, r, a):
    """Independent kernel dimension: for each standard basis vector compute the
    raw wedge column, then count solutions of 'column combination lies in the
    relation row span' by an augmented-rank computation.  a is a vector of
    Z[w] pairs."""
    a = qw(a)
    cols = []
    for l in range(r):
        b = [ZERO] * r
        b[l] = ONE
        cols.append(raw_wedge(r, a, b))
    # solutions b with raw_wedge(a, b) = sum_j c_j * relation_j, i.e. the
    # nullspace of [columns | -relations^T] projected to the b block
    nrel = len(relations)
    rows = []
    for m in range(len(_pairs(r))):
        row = [cols[l][m] for l in range(r)]
        row += [-relations[j][m] for j in range(nrel)]
        rows.append(row)
    total_nullity = (r + nrel) - len(rref(rows)[1])
    relation_nullity = nrel - len(rref(relations)[1]) if nrel else 0
    return total_nullity - relation_nullity


def _oracle_sample():
    """The named fixtures plus a seeded sample of dual_hesse sub-arrangements."""
    hesse = dual_hesse()
    rng = random.Random(71)
    subs = []
    for n in range(8):
        keep = sorted(rng.sample(range(hesse.r), 4 + n % 5))
        subs.append(Arrangement([hesse.lines[i] for i in keep], f"dual_hesse{keep}"))
    return [braid(), hesse, near_pencil_six(), generic_six(), triangle()] + subs


def _component_bases(arr):
    """Two local components (when there are triple points) and every pencil component."""
    local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
    return local[:2] + [pencil_basis(p, arr.r) for p in find_pencils(arr)]


def _random_weight(rng, r):
    return [(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(r)]


def test_quotient_ranks_against_the_dense_relations():
    """The ranks printed from the incidence record: one independent relation
    per triple point, and C(r, 2) minus those for the quotient."""

    def ranks(arr):
        payload = cli._resonance_payload(arr, [])
        return payload["relation_count"], payload["quotient_rank"]

    assert ranks(triangle()) == (0, 3)
    assert ranks(concurrent_triple()) == (1, 2)
    assert ranks(dual_hesse()) == (12, 36 - 12)
    for arr in _oracle_sample():
        relations = _dense_relations(arr)
        rank = len(rref(relations)[1])
        assert ranks(arr) == (rank, len(_pairs(arr.r)) - rank) and rank == len(relations)


def _sparse_pairs(rng, arr):
    """Weights on 2 to 4 lines whose wedge is decided at a point carrying
    exactly two support lines.

    x e_i ^ y e_j for two lines of a double or triple point is nonzero there
    and nowhere else.  A local component (u, v) at a triple point T, with
    c e_l added to v for a line l off T, has a ^ b = c (e_i - e_j) ^ e_l for
    u = e_i - e_j: T still vanishes, and the wedge is nonzero only at the
    points of i, l and of j, l, which carry two support lines each, and a
    carries just one of them.  Scalars include pure w-multiples, whose wedge
    lies wholly in the w-part, and a multiple of each pair, which vanishes.
    """
    scalars = [ONE, EisensteinNumber(-2), OMEGA, EisensteinNumber(0, -3), EisensteinNumber(1, 2)]
    points = intersection_points(arr)
    doubles = [pt for pt in points if pt.multiplicity == 2]
    triples = [pt for pt in points if pt.multiplicity == 3]
    pairs = []
    for pt in rng.sample(doubles, min(2, len(doubles))) + rng.sample(triples, min(2, len(triples))):
        i, j = rng.sample(pt.lines, 2)
        a, b = [ZERO] * arr.r, [ZERO] * arr.r
        a[i], b[j] = rng.choice(scalars), rng.choice(scalars)
        c = rng.choice(scalars)
        pairs += [(a, b), ([x + y for x, y in zip(a, b)], [c * (x + y) for x, y in zip(a, b)])]
        off = [l for l in range(arr.r) if l not in pt.lines]
        if pt.multiplicity == 3 and off:
            u, v = (qw(vec) for vec in triple_point_basis(pt, arr.r))
            v[rng.choice(off)] = rng.choice(scalars)
            pairs.append((u, v))
    return [(zw(a), zw(b)) for a, b in pairs]


def _fractional_weight(rng, r):
    """Entries whose rational parts have denominators up to 6 and w-parts fifths."""
    return [
        EisensteinNumber(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), Fraction(rng.randint(-2, 2), 5))
        for _ in range(r)
    ]


def _fractional_pairs(rng, arr):
    """Weights with denominators: scaled and sheared component bases, a
    multiple of a random weight, and random pairs."""
    pairs = []
    for u, v in (map(qw, basis) for basis in _component_bases(arr)):
        s, t = Fraction(rng.randint(1, 5), rng.randint(2, 7)), Fraction(rng.randint(1, 5), rng.randint(2, 7))
        pairs.append(([s * x for x in u], [t * y + EisensteinNumber(0, s) * x for x, y in zip(u, v)]))
    a = _fractional_weight(rng, arr.r)
    lam = EisensteinNumber(Fraction(rng.randint(1, 3), rng.randint(2, 5)), Fraction(1, 3))
    pairs.append((a, [lam * x for x in a]))
    pairs += [(_fractional_weight(rng, arr.r), _fractional_weight(rng, arr.r)) for _ in range(2)]
    return [(zw(a), zw(b)) for a, b in pairs]


def test_wedge_vanishes_against_oracle():
    """Point-by-point vanishing equals the dense rank test, on component pairs,
    their multiples and shears, random pairs with w-parts, sparse weights
    decided at a point with two support lines, and weights with denominators."""
    rng = random.Random(29)
    sparse_rng, fractional_rng = random.Random(43), random.Random(47)
    seen = {"dense": set(), "sparse": set(), "fractional": set()}
    for arr in _oracle_sample():
        relations = _dense_relations(arr)
        pairs = []
        for u, v in _component_bases(arr):
            pairs += [(u, v), (v, u), (u, _plus_twice(v, u))]
        a = _random_weight(rng, arr.r)
        lam = (rng.randint(1, 3), rng.randint(-2, 2))
        pairs.append((a, [pair_mul(lam, x) for x in a]))
        pairs += [(_random_weight(rng, arr.r), _random_weight(rng, arr.r)) for _ in range(3)]
        kinds = [("dense", pairs), ("sparse", _sparse_pairs(sparse_rng, arr))]
        kinds.append(("fractional", _fractional_pairs(fractional_rng, arr)))
        for kind, drawn in kinds:
            for a, b in drawn:
                vanishes = wedge_vanishes(arr, a, b)
                assert vanishes == _wedge_oracle(relations, arr.r, a, b), (kind, arr.label)
                assert vanishes == wedge_vanishes(arr, a, _plus_twice(b, a))
                seen[kind].add(vanishes)
    assert all(values == {True, False} for values in seen.values()), seen


def _plus_twice(u, v):
    """u + 2 v for vectors of Z[w] pairs."""
    return [(a + 2 * c, b + 2 * d) for (a, b), (c, d) in zip(u, v)]


def test_wedge_needs_the_sigma_rows():
    """Pairs that only a Sigma-point's row rejects: b is zero on the forced
    lines and proportional to a on each class, but sum b|q != 0 at a
    Sigma-point q.  For a = e_i - e_j at a triple point {i, j, k} these are
    e_i + e_j and e_k; for the generic member of a pencil basis, each class
    indicator.  The dense rank test agrees."""
    seen = []
    for arr in (braid(), dual_hesse(), ceva_two()):
        relations = _dense_relations(arr)
        pairs = []
        for pt in intersection_points(arr):
            if pt.multiplicity == 3:
                i, j, k = pt.lines
                a, b, c = (_supported(arr.r, weights) for weights in ({i: 1, j: -1}, {i: 1, j: 1}, {k: 1}))
                pairs += [(a, b, False), (a, c, False), (a, triple_point_basis(pt, arr.r)[1], True)]
        for pencil in find_pencils(arr):
            basis = pencil_basis(pencil, arr.r)
            a = generic_member(basis)
            for cls in pencil.classes:
                pairs.append((a, _supported(arr.r, dict.fromkeys(cls, 1)), False))
            pairs += [(a, basis[0], True), (a, basis[1], True)]
        for a, b, expected in pairs:
            assert wedge_vanishes(arr, a, b) == _wedge_oracle(relations, arr.r, a, b) == expected, arr.label
            seen.append(expected)
    assert seen.count(False) > 30 and seen.count(True) > 20


def test_wedge_at_a_sigma_point_needs_the_sum(corpus_dir):
    """At each triple point q = {i, j, k}, the local generic member
    a = e_i + e_j - 2e_k sums to zero on q, and q is the only point with two
    lines of its support: the Sigma-point rule alone decides.  e_l sums to 1
    on q for each line l of q, so a ^ e_l != 0; e_i - e_j and e_j - e_k sum
    to 0, so their wedges with a vanish."""
    arrangements = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    arrangements += [cuspidal_dual(7), cuspidal_dual(10)]  # the fixtures with triple points not in the corpus
    points = 0
    for arr in arrangements:
        for pt in intersection_points(arr):
            if pt.multiplicity == 3:
                i, j, k = pt.lines
                a = _supported(arr.r, {i: 1, j: 1, k: -2})
                assert not any(wedge_vanishes(arr, a, _supported(arr.r, {l: 1})) for l in pt.lines), arr.label
                for b in ({i: 1, j: -1}, {j: 1, k: -1}):
                    assert wedge_vanishes(arr, a, _supported(arr.r, b)), arr.label
                points += 1
    assert points > 100


def _supported(r, weights):
    """The Z[w] weight vector on r lines that is the integer ``weights[l]`` at
    each line l it lists and 0 elsewhere."""
    return [(weights.get(l, 0), 0) for l in range(r)]


def test_wedge_alternating():
    arr = braid()
    rng = random.Random(2)
    for _ in range(10):
        a = zw([rng.randint(-3, 3) for _ in range(6)])
        assert wedge_vanishes(arr, a, a)


def test_wedge_bilinear():
    """Vanishing of a ^ b is unchanged by b -> b + 2a and by swapping a and b,
    as bilinearity and alternation require; probed on vanishing and
    non-vanishing pairs."""
    arr = braid()
    rng = random.Random(3)
    local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
    seen = set()
    for _ in range(12):
        if rng.random() < 0.5:
            u, v = (qw(vec) for vec in rng.choice(local))
            s, t = rng.randint(1, 3), rng.randint(-3, -1)
            a = zw([s * x for x in u])
            b = zw([x + t * y for x, y in zip(u, v)])
        else:
            a = zw([rng.randint(-3, 3) for _ in range(6)])
            b = zw([rng.randint(-3, 3) for _ in range(6)])
        vanishes = wedge_vanishes(arr, a, b)
        assert vanishes == wedge_vanishes(arr, a, _plus_twice(b, a)) == wedge_vanishes(arr, b, a)
        seen.add(vanishes)
    assert seen == {True, False}


def test_wedge_concurrent_relation_kills():
    assert wedge_vanishes(concurrent_triple(), zw([1, -1, 0]), zw([0, 1, -1]))


def test_wedge_triangle_nonzero():
    assert not wedge_vanishes(triangle(), zw([1, -1, 0]), zw([0, 1, -1]))


def test_kernel_dims_against_oracle():
    relations = _dense_relations(concurrent_triple())
    for a in (zw([1, -1, 0]), zw(["1", "w", "-1-w"])):
        assert resonance_kernel_dim(concurrent_triple(), a) == _kernel_dim_oracle(relations, 3, a) == 2
        assert resonance_kernel_dim(triangle(), a) == _kernel_dim_oracle([], 3, a) == 1
    rng = random.Random(17)
    fractional_rng, scalar_rng = random.Random(53), random.Random(59)
    all_dims = set()
    for arr in _oracle_sample():
        relations = _dense_relations(arr)
        probes = [qw(generic_member(basis)) for basis in _component_bases(arr)]
        for n in range(4):  # seeded sum-zero weights, the odd ones with w-parts
            vals = [EisensteinNumber(rng.randint(-3, 3), rng.randint(-2, 2) if n % 2 else 0) for _ in range(arr.r - 1)]
            probes.append(vals + [-sum(vals, ZERO)])
        probes += [_fractional_weight(fractional_rng, arr.r) for _ in range(2)]
        dims = []
        for a in probes:
            if any(a):
                dims.append(resonance_kernel_dim(arr, zw(a)))
                assert dims[-1] == _kernel_dim_oracle(relations, arr.r, zw(a)), arr.label
                # a nonzero scalar with a w-part and denominators keeps the kernel
                c = EisensteinNumber(
                    Fraction(scalar_rng.randint(-5, 5), scalar_rng.randint(2, 7)),
                    Fraction(scalar_rng.choice((-1, 1)) * scalar_rng.randint(1, 4), scalar_rng.randint(2, 7)),
                )
                assert resonance_kernel_dim(arr, zw([c * x for x in a])) == dims[-1], arr.label
        all_dims.update(dims)
        if arr.label in ("braid", "dual_hesse"):
            assert min(dims) == 1 and max(dims) >= 2
    assert {1, 2} <= all_dims


def _rule_cases(arr, a):
    """The cases of the per-point rule that the weight a meets, read from a
    alone: a Sigma-point (a triple point where a is nonzero and sums to
    zero) with a zero entry, two support lines joined at a double point, a
    zero-weight line that meets the support only at Sigma-points, and
    entries with w-parts or denominators."""
    points = [pt.lines for pt in intersection_points(arr)]

    def sigma(p):
        return len(p) == 3 and any(a[l] for l in p) and not sum((a[l] for l in p), ZERO)

    cases = set()
    if any(sigma(p) and not all(a[l] for l in p) for p in points):
        cases.add("sigma point with a zero entry")
    if any(len(p) == 2 and all(a[l] for l in p) for p in points):
        cases.add("class joined at a double point")
    for m in range(arr.r):
        if not a[m] and all(sigma(p) for p in points if m in p and any(a[l] for l in p)):
            cases.add("zero line under Sigma-rows only")
    if any(v.wc for v in a):
        cases.add("w-part")
    if any(v.re.denominator > 1 or v.wc.denominator > 1 for v in a):
        cases.add("denominator")
    return cases


def test_kernel_rule_edge_cases_against_oracle():
    """Weights built to meet each case of the rule, with w-parts and
    denominators: x (e_i - e_j) at a triple point {i, j, k}, alone and with
    a line added; x e_i + y e_j - (x + y) e_m at a double point {i, j}; x
    times a pencil's class difference, whose third class is zero and meets
    the other two only at Sigma-points; and sparse weights on two to four
    lines.  Every kernel equals the dense oracle's."""
    rng = random.Random(61)
    seen = set()
    hesse = dual_hesse()
    keeps = ([0, 1, 2, 3, 4, 5, 6], [0, 2, 4, 5, 7, 8])
    subs = [Arrangement([hesse.lines[i] for i in keep], f"dual_hesse{keep}") for keep in keeps]
    for arr in [braid(), hesse, near_pencil_six(), *subs]:
        relations = _dense_relations(arr)
        points = intersection_points(arr)
        triples = [pt.lines for pt in points if pt.multiplicity == 3]
        doubles = [pt.lines for pt in points if pt.multiplicity == 2]
        probes = []
        for i, j, k in rng.sample(triples, min(2, len(triples))):
            a = [ZERO] * arr.r
            x = _nonzero_scalar(rng)
            a[i], a[j] = x, -x
            probes.append(a)
            b = list(a)
            m = rng.choice([l for l in range(arr.r) if l not in (i, j, k)])
            b[m] = _nonzero_scalar(rng)
            probes.append(b)
        for i, j in rng.sample(doubles, min(2, len(doubles))):
            a = [ZERO] * arr.r
            x, y = _nonzero_scalar(rng), _nonzero_scalar(rng)
            a[i], a[j], a[rng.choice([l for l in range(arr.r) if l not in (i, j)])] = x, y, -(x + y)
            probes.append(a)
        for pencil in find_pencils(arr)[:2]:
            x = _nonzero_scalar(rng)
            probes.append([x * v for v in qw(pencil_basis(pencil, arr.r)[0])])
        for size in (2, 3, 4):
            a = [ZERO] * arr.r
            for l in rng.sample(range(arr.r), size):
                a[l] = _nonzero_scalar(rng) if rng.random() < 0.5 else EisensteinNumber(rng.randint(-3, 3))
            if any(a):
                probes.append(a)
        for a in probes:
            assert resonance_kernel_dim(arr, zw(a)) == _kernel_dim_oracle(relations, arr.r, zw(a)), arr.label
            seen |= _rule_cases(arr, a)
    assert seen == {
        "sigma point with a zero entry",
        "class joined at a double point",
        "zero line under Sigma-rows only",
        "w-part",
        "denominator",
    }


def test_kernel_dim_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero weight vector"):
        resonance_kernel_dim(triangle(), zw([0, 0, 0]))


def test_kernel_contains_the_vector():
    # kernel dim is at least 1 since a ^ a = 0
    rng = random.Random(9)
    arr = braid()
    for _ in range(10):
        a = zw([rng.randint(-2, 2) for _ in range(6)])
        if all(x == (0, 0) for x in a):
            continue
        assert resonance_kernel_dim(arr, a) >= 1


def test_dual_hesse_pencil_vector_is_resonant():
    arr = dual_hesse()
    for pencil in find_pencils(arr):
        u, v = pencil_basis(pencil, arr.r)
        assert resonance_kernel_dim(arr, u) >= 2
        assert resonance_kernel_dim(arr, generic_member([u, v])) >= 2


def test_triple_point_components_isotropic():
    for builder in (braid, dual_hesse, concurrent_triple):
        arr = builder()
        for pt in intersection_points(arr):
            if pt.multiplicity != 3:
                continue
            assert component_isotropy_check(arr, triple_point_basis(pt, arr.r))


def test_pencil_components_isotropic():
    for builder in (braid, dual_hesse, concurrent_triple):
        arr = builder()
        pencils = find_pencils(arr)
        for pencil in pencils:
            assert component_isotropy_check(arr, pencil_basis(pencil, arr.r))
        # component census: one verified global component per pencil
        assert len(pencils) == sum(
            1 for pencil in pencils if component_isotropy_check(arr, pencil_basis(pencil, arr.r))
        )


def test_triangle_candidate_fails_isotropy():
    assert not component_isotropy_check(triangle(), [zw([1, -1, 0]), zw([0, 1, -1])])


def test_isotropy_checks_every_pair():
    # (u, v) is a local component of braid, so only the later pairs with w fail
    arr = braid()
    pt = next(pt for pt in intersection_points(arr) if pt.multiplicity == 3)
    u, v = triple_point_basis(pt, arr.r)
    free = [l for l in range(arr.r) if l not in pt.lines]
    w = _supported(arr.r, {pt.lines[0]: 1, free[0]: -1})
    assert component_isotropy_check(arr, [u, v])
    assert not wedge_vanishes(arr, u, w) and not wedge_vanishes(arr, v, w)
    assert not component_isotropy_check(arr, [u, v, w])


def test_isotropy_rejects_bad_bases():
    arr = triangle()
    with pytest.raises(ValueError, match="linearly dependent"):
        component_isotropy_check(arr, [zw([1, -1, 0]), zw([2, -2, 0])])
    with pytest.raises(ValueError, match="coordinate sum zero"):
        component_isotropy_check(arr, [zw([1, 1, 0]), zw([0, 1, -1])])
    # the sum is w: its rational part is zero
    with pytest.raises(ValueError, match="coordinate sum zero"):
        component_isotropy_check(arr, [zw(["1", "-1+w", "0"]), zw([0, 1, -1])])
    u = E(1, -1, 0)
    s = EisensteinNumber(Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="linearly dependent"):
        component_isotropy_check(arr, [zw(u), zw([s * x for x in u])])
    with pytest.raises(ValueError, match="length 3"):
        component_isotropy_check(arr, [zw([1, -1, 0]), zw([0, 1, -1, 0])])


def test_distinct_planes_of_weights_with_w_parts_and_denominators():
    # crosscheck passes integer pencil bases; these reach the scaling of Q(w) weights
    u = E("1/2", "-w", "-1/3+w", "0", "2")
    v = E("0", "1", "-1/5", "3w", "1+w")
    s, t = EisensteinNumber(Fraction(2, 3), -1), EisensteinNumber(Fraction(-1, 4), Fraction(5, 7))
    changed = [[a + s * b for a, b in zip(u, v)], [t * a - b for a, b in zip(u, v)]]
    other = [u, E("0", "0", "1/7", "1/2w", "0")]
    dependent = [v, [t * b for b in v]]
    for bases, count in [
        ([[u, v], changed], 1),
        ([[u, v], other], 2),
        ([[u, v], dependent], 1),
        ([[u, v], other, changed, dependent], 2),
        ([changed, [u, v], other, [other[1], other[0]]], 2),
    ]:
        bases = [[zw(x) for x in basis] for basis in bases]
        assert distinct_planes(bases) == decision_oracle.rank_distinct_planes(5, bases) == count
    # a dependent basis spans no plane
    assert distinct_planes([[zw(x) for x in basis] for basis in (dependent, [u, v])]) == 1
    with pytest.raises(ValueError, match="length 5"):
        distinct_planes([[zw(u), zw(v[:4])]])


def _scaled_bases(rng, basis):
    """The basis as given, each vector times a nonzero Q(w) scalar, and the
    bases (u + s v, t u - v) of the same plane with s, t in Q(w), t != 0."""
    u, v = map(qw, basis)
    p, q, s, t = (_nonzero_scalar(rng) for _ in range(4))
    return [
        basis,
        [zw([p * x for x in u]), zw([q * x for x in v])],
        [zw([a + s * b for a, b in zip(u, v)]), zw([t * a - b for a, b in zip(u, v)])],
    ]


def test_distinct_planes_by_cramer_match_the_rank_oracle(corpus_dir):
    """On every corpus file's pencil bases, alone, with Q(w)-scaled copies and
    rewritten bases of the same planes, and with two local bases, the
    Cramer count equals the count by ``rank_pairs`` of stacked bases, and
    it equals the pencil count."""
    rng = random.Random(37)
    seen = set()
    for path in sorted(corpus_dir.glob("*.json")):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        pencils = [pencil_basis(p, arr.r) for p in find_pencils(arr)]
        local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3][:2]
        copies = [copy for basis in pencils for copy in _scaled_bases(rng, basis)]
        rng.shuffle(copies)
        for bases in (pencils, copies, local + copies, pencils[:1] + local):
            count = distinct_planes(bases)
            assert count == decision_oracle.rank_distinct_planes(arr.r, bases), path.name
            seen.add(count)
        assert distinct_planes(copies) == len(pencils), path.name
    assert seen == {0, 1, 3, 4, 6}


def test_distinct_planes_make_no_rank_call(corpus_dir, monkeypatch):
    def refuse(rows):
        raise AssertionError("rank_pairs called")

    monkeypatch.setattr(resonance, "rank_pairs", refuse)
    arr = dual_hesse()
    assert distinct_planes([pencil_basis(p, arr.r) for p in find_pencils(arr)]) == 4


def test_kernel_dim_invariant_under_relabeling():
    arr = braid()
    a = zw([1, -1, 0, 2, -2, 0])
    rng = random.Random(31)
    order = list(range(6))
    rng.shuffle(order)
    relabeled = arr.reordered(order)
    b = [a[old_idx] for old_idx in order]
    assert resonance_kernel_dim(arr, a) == resonance_kernel_dim(relabeled, b)


def test_generic_arrangement_kernel_is_trivial():
    arr = generic_six()
    rng = random.Random(41)
    for _ in range(5):
        vals = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        vals.append(-sum(vals))
        if not any(vals):
            continue
        assert resonance_kernel_dim(arr, zw(vals)) == 1


def test_isotropic_basis_puts_the_generic_member_in_resonance(corpus_dir):
    # a = u + 2v gives a ^ u = 2 v ^ u and a ^ v = u ^ v, so an isotropic
    # basis leaves two independent vectors in the kernel of a; crosscheck
    # relies on this to skip the kernel dimensions analyze prints
    checked = 0
    for path in sorted(corpus_dir.glob("*.json")):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
        for basis in local + [pencil_basis(p, arr.r) for p in find_pencils(arr)]:
            if not component_isotropy_check(arr, basis):
                continue
            u, v = basis
            a = generic_member(basis)
            assert wedge_vanishes(arr, a, u) and wedge_vanishes(arr, a, v)
            assert resonance_kernel_dim(arr, a) >= 2
            checked += 1
    assert checked == 50  # 38 triple points and 12 pencils over the corpus


def _nonzero_scalar(rng):
    """A Q(w) scalar with nonzero rational and w-parts, both with denominators."""
    re = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(2, 7))
    wc = Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(2, 7))
    return EisensteinNumber(re, wc)


def test_isotropy_is_unchanged_by_scaling_the_basis(corpus_dir):
    """[s u, t v] is isotropic iff [u, v] is, for the corpus candidate bases and
    for pairs taken from two different local components, which all fail."""
    rng = random.Random(53)
    seen = set()
    for path in sorted(corpus_dir.glob("*.json")):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
        mixed = [[first[0], second[1]] for first, second in zip(local, local[1:])]
        for u, v in local + [pencil_basis(p, arr.r) for p in find_pencils(arr)] + mixed:
            isotropic = component_isotropy_check(arr, [u, v])
            s, t = _nonzero_scalar(rng), _nonzero_scalar(rng)
            scaled = [zw([s * x for x in qw(u)]), zw([t * y for y in qw(v)])]
            assert component_isotropy_check(arr, scaled) == isotropic, arr.label
            seen.add(isotropic)
    assert seen == {True, False}


# --- scale: the cuspidal duals against the all-points path ----------------------
#
# The index lets the kernel and the wedge visit only the points on support
# lines, and the rule decides each point from a|q.  The all-points versions
# below state Brieskorn's local conditions as linear forms in b instead, at
# every point of the quotient: w_ij at a double point {i, j}, and w_ij + w_ik
# and w_jk - w_ij at a triple point {i < j < k}.


def _local_conditions(points, a):
    """Each condition as (line, Z[w] coefficient) terms of a linear form in b."""
    for p in points:
        i, j = p[0], p[1]
        if len(p) == 2:
            yield ((i, (-a[j][0], -a[j][1])), (j, a[i]))
        else:
            k = p[2]
            yield ((i, (-a[j][0] - a[k][0], -a[j][1] - a[k][1])), (j, a[i]), (k, a[i]))
            yield ((i, a[j]), (j, (-a[k][0] - a[i][0], -a[k][1] - a[i][1])), (k, a[j]))


def _all_points_kernel_dim(arr, a):
    rows = []
    for cond in _local_conditions([pt.lines for pt in intersection_points(arr)], a):
        if any(c != (0, 0) for _, c in cond):
            row = [(0, 0)] * arr.r
            for l, c in cond:
                row[l] = c
            rows.append(row)
    return arr.r - peeled_rank(rows)


def _all_points_wedge(arr, a, b):
    for cond in _local_conditions([pt.lines for pt in intersection_points(arr)], a):
        x = y = 0
        for l, c in cond:
            p, q = pair_mul(c, b[l])
            x, y = x + p, y + q
        if x or y:
            return False
    return True


def _sum_zero_weight(rng, r, size):
    """A nonzero Z[w] weight with w-parts and coordinate sum zero on ``size`` random lines."""
    while True:
        first, *rest = rng.sample(range(r), size)
        a = [(0, 0)] * r
        for l in rest:
            a[l] = (rng.randint(-4, 4), rng.randint(-3, 3))
        a[first] = (-sum(x for x, _ in a), -sum(y for _, y in a))
        if any(x != (0, 0) for x in a):
            return a


@pytest.mark.parametrize("m", [7, 12, 20], ids=lambda m: f"r={2 * m + 1}")
def test_cuspidal_kernels_and_wedges_against_all_points(m):
    """Every local generic member's kernel and every local basis's wedge, on
    r = 15, 25 and 41 lines, plus seeded sum-zero weights on two to ten lines
    and on all of them, equal the all-points answers."""
    arr = cuspidal_dual(m)
    rng = random.Random(m)
    bases = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
    seen = set()
    for (u, v), (_, other) in zip(bases, bases[1:] + bases[:1]):
        a = generic_member([u, v])
        assert resonance_kernel_dim(arr, a) == _all_points_kernel_dim(arr, a)
        for b in (v, other):
            vanishes = wedge_vanishes(arr, u, b)
            assert vanishes == _all_points_wedge(arr, u, b)
            seen.add(vanishes)
    for size in (2, 3, 4, 6, 10) * 4 + (arr.r,):
        a, b = _sum_zero_weight(rng, arr.r, size), _sum_zero_weight(rng, arr.r, size)
        assert resonance_kernel_dim(arr, a) == _all_points_kernel_dim(arr, a)
        lam = (rng.randint(1, 3), rng.randint(-2, 2))
        for b in (b, [pair_mul(lam, x) for x in a]):
            vanishes = wedge_vanishes(arr, a, b)
            assert vanishes == _all_points_wedge(arr, a, b)
            seen.add(vanishes)
    assert seen == {True, False}


def test_local_candidate_reads_only_points_on_its_support_lines(monkeypatch):
    """On the 41 cuspidal lines, a local candidate's kernel and isotropy
    check read the points on its three lines, 60 of the 420."""
    arr = cuspidal_dual(20)
    points = [pt.lines for pt in intersection_points(arr)]
    read = []
    rules = resonance._point_rules

    def recording(points, a):
        points = list(points)
        read.extend(points)
        return rules(points, a)

    monkeypatch.setattr(resonance, "_point_rules", recording)
    pt = next(pt for pt in intersection_points(arr) if pt.multiplicity == 3)
    on_support = [p for p in points if set(p) & set(pt.lines)]
    assert (len(points), len(on_support)) == (420, 60)
    basis = triple_point_basis(pt, arr.r)
    assert resonance_kernel_dim(arr, generic_member(basis)) == 2
    assert read == on_support
    read.clear()
    assert component_isotropy_check(arr, basis)
    assert read == [pt.lines]


# --- the one rule pass against the old two-call path --------------------------


def _outcome(check, *args):
    """The check's answer, or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return ("ValueError", type(exc), str(exc))


def _decision_sample(corpus_dir):
    """The corpus, the fixtures, two seeded PGL images with shuffled lines of
    each of braid, ceva_two and dual_hesse (matrix entries with w-parts and
    denominators), every sub-arrangement of dual_hesse, and the cuspidal
    duals on 15, 25 and 41 lines."""
    arrangements = [Arrangement.from_json(json.loads(path.read_text())) for path in sorted(corpus_dir.glob("*.json"))]
    arrangements += [f() for f in (braid, ceva_two, concurrent_triple, dual_hesse, generic_six, near_pencil_six, triangle)]
    rng = random.Random(97)
    for builder in (braid, ceva_two, dual_hesse):
        made = 0
        while made < 2:
            m = [[EisensteinNumber(rng.randint(-4, 4), rng.randint(-4, 4)) / rng.randint(1, 7) for _ in range(3)] for _ in range(3)]
            try:
                image = proj_transform(builder(), m)
            except ValueError:
                continue  # singular matrix
            arrangements.append(image.reordered(rng.sample(range(image.r), image.r)))
            made += 1
    hesse = dual_hesse()
    for k in range(2, 10):
        arrangements += [Arrangement([hesse.lines[i] for i in keep]) for keep in combinations(range(9), k)]
    return arrangements + [cuspidal_dual(m) for m in (7, 12, 20)]


def _fields(arr, basis):
    """(isotropic, kernel_dim of the generic member u + 2v) from the public
    isotropy check and kernel solve."""
    return component_isotropy_check(arr, basis), resonance_kernel_dim(arr, generic_member(basis))


def test_one_pass_per_candidate_matches_the_two_call_path(corpus_dir):
    """Both fields of every candidate component, its isotropy check and its
    generic member's kernel, equal the oracle's pairwise-wedge isotropy and
    separate kernel solve; so do pairs taken from two local components,
    which are not isotropic, and the kernels and wedges of the basis
    vectors."""
    seen = Counter()
    for arr in _decision_sample(corpus_dir):
        local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
        mixed = [[first[0], second[1]] for first, second in zip(local, local[1:])][:3]
        for basis in local + [pencil_basis(p, arr.r) for p in find_pencils(arr)] + mixed:
            fields = _fields(arr, basis)
            assert fields == decision_oracle.two_call_fields(arr, basis), arr.label
            u, v = basis
            assert resonance_kernel_dim(arr, u) == decision_oracle.kernel_dim(arr, u), arr.label
            assert wedge_vanishes(arr, u, v) == decision_oracle.wedge(arr, u, v) == fields[0], arr.label
            seen[fields] += 1
    assert {isotropic for isotropic, _ in seen} == {True, False}
    assert {dim for _, dim in seen} == {1, 2}, seen


_ORACLE_ARRANGEMENTS = [braid(), ceva_two(), dual_hesse(), near_pencil_six(), Arrangement(dual_hesse().lines[:7])]


@st.composite
def _integer_bases(draw):
    """An arrangement and an integer basis on its lines: random vectors, made
    sum-zero or not, dependent or not, or a candidate component's basis
    sheared; sometimes with a third vector."""
    arr = draw(st.sampled_from(_ORACLE_ARRANGEMENTS))
    entries = st.lists(st.integers(-3, 3), min_size=arr.r, max_size=arr.r)
    if draw(st.booleans()):
        pt = draw(st.sampled_from([pt for pt in intersection_points(arr) if pt.multiplicity == 3]))
        u, v = ([x for x, _ in vec] for vec in triple_point_basis(pt, arr.r))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        basis = [[x + s * y for x, y in zip(u, v)], [t * x + y for x, y in zip(u, v)]]
    else:
        basis = [draw(entries), draw(entries)]
    extra = draw(st.one_of(st.none(), entries))
    for vec in basis + [extra or []]:
        if vec and draw(st.booleans()):
            vec[-1] -= sum(vec)
    if draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        basis[1] = [c * x for x in basis[0]]
    return arr, [zw(vec) for vec in basis], extra and zw(extra)


@settings(max_examples=300, deadline=None)
@given(_integer_bases())
def test_integer_bases_against_the_two_call_path(drawn):
    arr, basis, extra = drawn
    u, v = basis
    assert _outcome(_fields, arr, basis) == _outcome(decision_oracle.two_call_fields, arr, basis)
    assert _outcome(component_isotropy_check, arr, basis) == _outcome(decision_oracle.isotropy, arr, basis)
    assert wedge_vanishes(arr, u, v) == decision_oracle.wedge(arr, u, v)
    if any(x != (0, 0) for x in u):
        assert resonance_kernel_dim(arr, u) == decision_oracle.kernel_dim(arr, u)
    if extra is not None:
        three = basis + [extra]
        assert _outcome(component_isotropy_check, arr, three) == _outcome(decision_oracle.isotropy, arr, three)


@pytest.mark.parametrize(
    "bad, error",
    [(1.0, ValueError), (True, ValueError), ("1+", ParseError), ("x", ParseError), ("1/0", ParseError)],
    ids=["float", "bool", "dangling sign", "no number", "zero denominator"],
)
def test_weights_reject_floats_bools_and_malformed_strings(capsys, corpus_dir, bad, error):
    """Weights reach ``resonance`` as Z[w] pairs, read by ``integer_row``, the
    one reader: a float or a bool is a ValueError that is no ParseError, and
    malformed text a ParseError; through ``--vector`` either is an input
    error."""
    with pytest.raises(error) as caught:
        integer_row([bad, -1, "0", Fraction(1, 2), EisensteinNumber(0, 1), 0])
    if error is ValueError:
        assert not isinstance(caught.value, ParseError)
    code = cli.main(["resonance", str(corpus_dir / "braid.json"), "--vector", json.dumps([bad, -1, "0", "1/2", "w", 0])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err)["error"].startswith("--vector is not a list of field elements: ")


def test_string_weights_build_no_field_element(monkeypatch):
    """A weight vector of strings is read into Z[w] pairs without an
    EisensteinNumber per entry; "0/3" is zero, off the support, and its
    denominator joins the scale 6.  The kernel of those pairs is that of the
    Q(w) vector."""
    a = ["1/2", "-w", "0", "0/3", "-1/2+w", "0"]
    expected = resonance_kernel_dim(braid(), zw(E(*a)))

    def refuse(*args):
        raise AssertionError("an EisensteinNumber was built")

    monkeypatch.setattr(EisensteinNumber, "__init__", refuse)
    assert integer_row(a) == ([(3, 0), (0, -6), (0, 0), (0, 0), (-3, 6), (0, 0)], 6)
    assert resonance_kernel_dim(braid(), zw(a)) == expected
