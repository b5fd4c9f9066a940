import random
from fractions import Fraction

import pytest

from pencilfiber.eisenstein import ZERO, EisensteinNumber
from pencilfiber.fixtures import braid, concurrent_triple, dual_hesse, generic_six, triangle
from pencilfiber.linalg import rref
from pencilfiber.pencils import find_pencils
from pencilfiber.resonance import (
    build_os2,
    component_isotropy_check,
    generic_member,
    pencil_basis,
    raw_wedge,
    resonance_kernel_dim,
    triple_point_basis,
    wedge_vanishes,
)
from pencilfiber.arrangement import intersection_points


def E(*values):
    return [EisensteinNumber.of(v) for v in values]


def _kernel_dim_oracle(os, a):
    """Independent kernel dimension: for each standard basis vector compute the
    raw wedge column, then count solutions of 'column combination lies in the
    relation row span' by an augmented-rank computation."""
    cols = []
    for l in range(os.r):
        b = [ZERO] * os.r
        b[l] = EisensteinNumber(1)
        cols.append(raw_wedge(os, a, b))
    # solutions b with raw_wedge(a, b) = sum_j c_j * relation_j, i.e. the
    # nullspace of [columns | -relations^T] projected to the b block
    npairs = os.n_pairs
    nrel = len(os.relations)
    rows = []
    for m in range(npairs):
        row = [cols[l][m] for l in range(os.r)]
        row += [-os.relations[j][m] for j in range(nrel)]
        rows.append(row)
    # ranks by Gaussian RREF, not by the elimination behind linalg.rank
    total_nullity = (os.r + nrel) - len(rref(rows)[1])
    relation_nullity = nrel - len(rref(os.relations)[1]) if nrel else 0
    return total_nullity - relation_nullity


def test_build_os2_counts():
    os_triangle = build_os2(triangle())
    assert len(os_triangle.relations) == 0
    assert os_triangle.quotient_rank == 3

    os_concurrent = build_os2(concurrent_triple())
    assert len(os_concurrent.relations) == 1
    assert os_concurrent.quotient_rank == 2

    os_hesse = build_os2(dual_hesse())
    assert len(os_hesse.relations) == 12
    assert os_hesse.relation_rank == 12
    assert os_hesse.quotient_rank == 36 - 12


def test_wedge_alternating():
    os2 = build_os2(braid())
    rng = random.Random(2)
    for _ in range(10):
        a = E(*[rng.randint(-3, 3) for _ in range(6)])
        assert wedge_vanishes(os2, a, a)


def test_wedge_bilinear():
    """Vanishing of a ^ b is unchanged by b -> b + 2a and by swapping a and b,
    as bilinearity and alternation require; probed on vanishing and
    non-vanishing pairs."""
    arr = braid()
    os2 = build_os2(arr)
    rng = random.Random(3)
    local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
    seen = set()
    for _ in range(12):
        if rng.random() < 0.5:
            u, v = rng.choice(local)
            s, t = rng.randint(1, 3), rng.randint(-3, -1)
            a = [s * x for x in u]
            b = [x + t * y for x, y in zip(u, v)]
        else:
            a = E(*[rng.randint(-3, 3) for _ in range(6)])
            b = E(*[rng.randint(-3, 3) for _ in range(6)])
        b_plus_2a = [y + 2 * x for x, y in zip(a, b)]
        vanishes = wedge_vanishes(os2, a, b)
        assert vanishes == wedge_vanishes(os2, a, b_plus_2a) == wedge_vanishes(os2, b, a)
        seen.add(vanishes)
    assert seen == {True, False}


def test_wedge_concurrent_relation_kills():
    os2 = build_os2(concurrent_triple())
    assert wedge_vanishes(os2, E(1, -1, 0), E(0, 1, -1))


def test_wedge_triangle_nonzero():
    os2 = build_os2(triangle())
    assert not wedge_vanishes(os2, E(1, -1, 0), E(0, 1, -1))


def test_kernel_dims_against_oracle():
    os2 = build_os2(concurrent_triple())
    os2t = build_os2(triangle())
    for a in (E(1, -1, 0), E("1", "w", "-1-w")):
        assert resonance_kernel_dim(os2, a) == _kernel_dim_oracle(os2, a) == 2
        assert resonance_kernel_dim(os2t, a) == _kernel_dim_oracle(os2t, a) == 1
    rng = random.Random(17)
    for arr in (braid(), dual_hesse()):
        os2 = build_os2(arr)
        probes = [generic_member(pencil_basis(p, arr.r)) for p in find_pencils(arr)]
        triples = [pt for pt in intersection_points(arr) if pt.multiplicity == 3]
        probes += [generic_member(triple_point_basis(pt, arr.r)) for pt in triples[:2]]
        for n in range(6):  # seeded sum-zero weights, the odd ones with w-parts
            vals = [EisensteinNumber(rng.randint(-3, 3), rng.randint(-2, 2) if n % 2 else 0) for _ in range(arr.r - 1)]
            probes.append(vals + [-sum(vals, ZERO)])
        dims = []
        for a in probes:
            if any(a):
                dims.append(resonance_kernel_dim(os2, a))
                assert dims[-1] == _kernel_dim_oracle(os2, a)
        assert min(dims) == 1 and max(dims) >= 2


def test_kernel_dim_rejects_zero_vector():
    os2 = build_os2(triangle())
    with pytest.raises(ValueError):
        resonance_kernel_dim(os2, E(0, 0, 0))


def test_kernel_contains_the_vector():
    # kernel dim is at least 1 since a ^ a = 0
    rng = random.Random(9)
    os2 = build_os2(braid())
    for _ in range(10):
        a = E(*[rng.randint(-2, 2) for _ in range(6)])
        if not any(a):
            continue
        assert resonance_kernel_dim(os2, a) >= 1


def test_dual_hesse_pencil_vector_is_resonant():
    arr = dual_hesse()
    os2 = build_os2(arr)
    for pencil in find_pencils(arr):
        u, v = pencil_basis(pencil, arr.r)
        assert resonance_kernel_dim(os2, u) >= 2
        assert resonance_kernel_dim(os2, generic_member([u, v])) >= 2


def test_triple_point_components_isotropic():
    for builder in (braid, dual_hesse, concurrent_triple):
        arr = builder()
        os2 = build_os2(arr)
        for pt in intersection_points(arr):
            if pt.multiplicity != 3:
                continue
            assert component_isotropy_check(os2, triple_point_basis(pt, arr.r))


def test_pencil_components_isotropic():
    for builder in (braid, dual_hesse, concurrent_triple):
        arr = builder()
        os2 = build_os2(arr)
        pencils = find_pencils(arr)
        for pencil in pencils:
            assert component_isotropy_check(os2, pencil_basis(pencil, arr.r))
        # component census: one verified global component per pencil
        assert len(pencils) == sum(
            1 for pencil in pencils if component_isotropy_check(os2, pencil_basis(pencil, arr.r))
        )


def test_triangle_candidate_fails_isotropy():
    os2 = build_os2(triangle())
    assert not component_isotropy_check(os2, [E(1, -1, 0), E(0, 1, -1)])


def test_isotropy_checks_every_pair():
    # (u, v) is a local component of braid, so only the later pairs with w fail
    arr = braid()
    os2 = build_os2(arr)
    pt = next(pt for pt in intersection_points(arr) if pt.multiplicity == 3)
    u, v = triple_point_basis(pt, arr.r)
    w = [ZERO] * arr.r
    free = [l for l in range(arr.r) if l not in pt.lines]
    w[pt.lines[0]], w[free[0]] = EisensteinNumber(1), EisensteinNumber(-1)
    assert component_isotropy_check(os2, [u, v])
    assert not wedge_vanishes(os2, u, w) and not wedge_vanishes(os2, v, w)
    assert not component_isotropy_check(os2, [u, v, w])


def test_isotropy_rejects_bad_bases():
    os2 = build_os2(triangle())
    with pytest.raises(ValueError):
        component_isotropy_check(os2, [E(1, -1, 0), E(2, -2, 0)])  # dependent
    with pytest.raises(ValueError):
        component_isotropy_check(os2, [E(1, 1, 0), E(0, 1, -1)])  # sum nonzero


def test_kernel_dim_invariant_under_relabeling():
    arr = braid()
    os2 = build_os2(arr)
    a = E(1, -1, 0, 2, -2, 0)
    rng = random.Random(31)
    order = list(range(6))
    rng.shuffle(order)
    relabeled = arr.reordered(order)
    os2b = build_os2(relabeled)
    b = [ZERO] * 6
    for new_idx, old_idx in enumerate(order):
        b[new_idx] = a[old_idx]
    assert resonance_kernel_dim(os2, a) == resonance_kernel_dim(os2b, b)


def test_generic_arrangement_kernel_is_trivial():
    arr = generic_six()
    os2 = build_os2(arr)
    rng = random.Random(41)
    for _ in range(5):
        vals = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        vals.append(-sum(vals))
        a = E(*vals)
        if not any(a):
            continue
        assert resonance_kernel_dim(os2, a) == 1
