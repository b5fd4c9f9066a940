import random
from itertools import product

import pytest

from pencilfiber import catalan
from pencilfiber.catalan import (
    DescentObstruction,
    QuasiToricRelation,
    base_solution,
    descend_step,
    generate_solutions,
    pullback_solution,
    relations_equivalent,
    verify_relation,
)
from pencilfiber.arrangement import proj_transform
from pencilfiber.eisenstein import MU3, OMEGA, OMEGA2, EisensteinNumber
from pencilfiber.fixtures import braid, concurrent_triple, dual_hesse
from pencilfiber.forms import HomForm, UniPoly
from pencilfiber.pencils import PencilDecomposition, find_pencils

T = UniPoly.t()
ONE_P = UniPoly.one()
X = HomForm.monomial((1, 0, 0))
Y = HomForm.monomial((0, 1, 0))
W_P = UniPoly.constant(OMEGA)
W2_P = UniPoly.constant(OMEGA2)


def root_difference_relation():
    """The nonconstant solution (t-1, t-w, t-w^2) of the cube equation whose
    coefficients are the squared pairwise differences of the roots of t^3-1."""
    F1 = (T - W_P) ** 2 * (T - W2_P) ** 2
    F2 = -((T - ONE_P) ** 2 * (T - W2_P) ** 2 * (EisensteinNumber(1) + OMEGA2))
    F3 = (T - W_P) ** 2 * (T - ONE_P) ** 2 * OMEGA2
    return QuasiToricRelation((F1, F2, F3), (T - ONE_P, T - W_P, T - W2_P), univariate=True)


# --- verification -----------------------------------------------------------


def test_root_difference_relation_verifies():
    assert verify_relation(root_difference_relation())


def test_linear_pencil_relation_verifies():
    one = HomForm.constant(1)
    rel = QuasiToricRelation((X, Y, X + Y), (one, one, -one), univariate=False)
    assert verify_relation(rel)


def test_constant_counterexample():
    one = HomForm.constant(1)
    rel = QuasiToricRelation((one, one, one), (one, one, one), univariate=False)
    assert not verify_relation(rel)


def test_single_coefficient_perturbations_break_it():
    rel = root_difference_relation()
    for which in range(3):
        coeffs = rel.F[which].coeffs
        for position in range(len(coeffs)):
            bumped = list(coeffs)
            bumped[position] = bumped[position] + 1
            F = list(rel.F)
            F[which] = UniPoly(bumped)
            assert not verify_relation(QuasiToricRelation(tuple(F), rel.sol, True))


def test_solution_perturbations_break_it():
    rel = root_difference_relation()
    for which in range(3):
        coeffs = rel.sol[which].coeffs
        for position in range(len(coeffs)):
            bumped = list(coeffs)
            bumped[position] = bumped[position] + 1
            sol = list(rel.sol)
            sol[which] = UniPoly(bumped)
            assert not verify_relation(QuasiToricRelation(rel.F, tuple(sol), True))


# --- equivalence -------------------------------------------------------------


def test_relation_equivalent_to_itself():
    rel = root_difference_relation()
    assert relations_equivalent(rel, rel)


def _scaled_solution(rel, lf, lg, lh):
    f, g, h = rel.sol
    return QuasiToricRelation(rel.F, (f * lf, g * lg, h * lh), rel.univariate)


def test_uniform_omega_scaling_is_equivalent():
    rel = root_difference_relation()
    assert relations_equivalent(rel, _scaled_solution(rel, OMEGA, OMEGA, OMEGA))


def test_mixed_omega_scaling_is_equivalent():
    # lf/lh = w, lg/lh = w^2 and lf*lg = 1 = lh^2
    rel = root_difference_relation()
    assert relations_equivalent(rel, _scaled_solution(rel, OMEGA, OMEGA2, EisensteinNumber(1)))


def test_non_unit_scaling_is_not_equivalent():
    # compensating F1 by 1/8 keeps the identity but breaks the common F ratio
    rel = root_difference_relation()
    scaled = QuasiToricRelation(
        (rel.F[0] * EisensteinNumber.of("1/8"), rel.F[1], rel.F[2]),
        (rel.sol[0] * 2, rel.sol[1], rel.sol[2]),
        True,
    )
    assert verify_relation(scaled)
    assert not relations_equivalent(rel, scaled)


def test_omega_scaling_violating_cocycle_is_not_equivalent():
    # (w, 1, 1) keeps the identity (w^3 = 1) but lf*lg = w differs from lh^2 = 1
    rel = root_difference_relation()
    scaled = _scaled_solution(rel, OMEGA, EisensteinNumber(1), EisensteinNumber(1))
    assert verify_relation(scaled)
    assert not relations_equivalent(rel, scaled)


def test_equivalence_requires_verified_inputs():
    one = HomForm.constant(1)
    bad = QuasiToricRelation((one, one, one), (one, one, one), univariate=False)
    with pytest.raises(ValueError):
        relations_equivalent(bad, bad)
    # a True answer verifies: an unverified relation against its own w-scaling
    with pytest.raises(ValueError):
        relations_equivalent(bad, _scaled_solution(bad, OMEGA, OMEGA, OMEGA))
    # a False answer needs no verification
    good = QuasiToricRelation((X, Y, -(X + Y)), (one, one, one), univariate=False)
    assert verify_relation(good)
    assert not relations_equivalent(bad, good)


# --- base solutions from pencils ----------------------------------------------


def test_concurrent_base_solution():
    pencil = find_pencils(concurrent_triple())[0]
    rel = base_solution(pencil)
    assert verify_relation(rel)
    assert rel.F == (X, Y, -(X + Y))
    assert all(s == HomForm.constant(1) for s in rel.sol)


def test_dual_hesse_cubic_base_solution():
    pencils = find_pencils(dual_hesse())
    cubic = next(p for p in pencils if p.classes == ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    rel = base_solution(cubic)
    assert verify_relation(rel)
    x3, y3, z3 = (HomForm.monomial((3, 0, 0)), HomForm.monomial((0, 3, 0)), HomForm.monomial((0, 0, 3)))
    assert rel.F == (x3 - y3, -(x3 - z3), y3 - z3)


def test_base_solution_rejects_members_not_summing_to_zero():
    data = find_pencils(concurrent_triple())[0].to_json()
    data["lambdas"] = ["1", "1", "1"]
    with pytest.raises(ValueError, match="doubling needs G1 \\+ G2 = G3 exactly"):
        base_solution(PencilDecomposition.from_json(data))


# --- doubling -------------------------------------------------------------------


def reference_doubling(G):
    """The doubling formula (f', g', h') = (-(G2 + G3), G1 + G3, 2 G1 - G3)
    for G1 + G2 = G3, written out here apart from ``catalan``, with each
    output checked by ``verify_relation``."""
    G1, G2, G3 = G
    if not (G1 + G2 - G3).is_zero:
        raise ValueError("doubling needs G1 + G2 = G3 exactly")
    f2, g2, h2 = -(G2 + G3), G1 + G3, G1 * 2 - G3
    assert verify_relation(QuasiToricRelation(tuple(G), (f2, g2, h2), isinstance(G1, UniPoly)))
    return f2, g2, h2


def test_doubling_on_affine_parameter():
    f2, g2, h2 = reference_doubling((T, ONE_P - T, ONE_P))
    assert catalan._double((T, ONE_P - T, ONE_P)) == (f2, g2, h2)
    assert f2 == T - UniPoly.constant(2)
    assert g2 == T + ONE_P
    assert h2 == T * 2 - ONE_P


def test_doubling_on_linear_forms():
    f2, g2, h2 = reference_doubling((X, Y, X + Y))
    assert catalan._double((X, Y, X + Y)) == (f2, g2, h2)
    assert f2 == -(X + Y * 2)
    assert g2 == X * 2 + Y
    assert h2 == X - Y


def test_doubling_requires_exact_sum():
    with pytest.raises(ValueError):
        reference_doubling((X, Y, X - Y))
    with pytest.raises(ValueError):
        catalan._double((X, Y, X - Y))


def test_doubling_identity_on_indeterminates():
    # -G1 (G1 + 2 G2)^3 + G2 (2 G1 + G2)^3 + (G1 + G2)(G1 - G2)^3 = 0
    # with G1, G2 independent variables: the strongest, fully symbolic form.
    G1, G2 = X, Y
    expanded = (
        -(G1 * (G1 + G2 * 2) ** 3)
        + G2 * (G1 * 2 + G2) ** 3
        + (G1 + G2) * (G1 - G2) ** 3
    )
    assert expanded.is_zero


def test_duplication_coordinate_identity():
    # (-F (F - 2)^3 + (F - 1)(F + 1)^3) = (2 F - 1)^3 symbolically in F
    F = T
    lhs = -(F * (F - UniPoly.constant(2)) ** 3) + (F - ONE_P) * (F + ONE_P) ** 3
    assert lhs == (F * 2 - ONE_P) ** 3


# --- iterated generation ---------------------------------------------------------


def test_generate_first_step_exact_values():
    pencil = find_pencils(concurrent_triple())[0]
    rel = generate_solutions(pencil, 1)[0]
    assert rel.F == (X, Y, -(X + Y))
    assert rel.sol == (-(X + Y * 2), X * 2 + Y, -(X - Y))
    assert verify_relation(rel)


def test_generate_degrees_strictly_increase():
    pencil = find_pencils(concurrent_triple())[0]
    relations = generate_solutions(pencil, 3)
    degrees = [max(p.degree for p in rel.sol) for rel in relations]
    assert degrees[0] == 1
    assert degrees == sorted(set(degrees))
    assert degrees[1] >= 4 and degrees[2] >= 16
    for rel in relations:
        assert verify_relation(rel)


def test_generate_outputs_pairwise_inequivalent():
    pencil = find_pencils(concurrent_triple())[0]
    relations = generate_solutions(pencil, 3)
    for i in range(len(relations)):
        for j in range(i + 1, len(relations)):
            assert not relations_equivalent(relations[i], relations[j])


def reference_generate(members, steps):
    """Doubling from the solution (1, 1, 1) of three members that sum to
    zero, with the cubes rebuilt at every step, ``reference_doubling`` and a
    separate ``verify_relation`` of each output."""
    P1, P2, P3 = members
    one = P1**0
    f, g, h = one, one, one
    out = []
    for _ in range(steps):
        H = (P1 * f**3, P2 * g**3, -(P3 * h**3))
        f2, g2, h2 = reference_doubling(H)
        f, g, h = f * f2, g * g2, -(h * h2)
        rel = QuasiToricRelation((P1, P2, P3), (f, g, h), univariate=isinstance(P1, UniPoly))
        assert verify_relation(rel)
        out.append(rel)
    return out


@pytest.mark.parametrize("fixture, steps", [(concurrent_triple, 3), (braid, 2)])
def test_generate_matches_reference_doubling(fixture, steps):
    pencil = find_pencils(fixture())[0]
    expected = reference_generate(pencil.scaled_products(), steps)
    for n in range(1, steps + 1):
        relations = generate_solutions(pencil, n)
        assert [rel.F for rel in relations] == [rel.F for rel in expected[:n]]
        assert [rel.sol for rel in relations] == [rel.sol for rel in expected[:n]]


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_generate_verifies_every_relation(monkeypatch, steps):
    # h' off by a constant factor breaks each relation; none may be returned
    double = catalan._double

    def wrong_h(G):
        f2, g2, h2 = double(G)
        return f2, g2, h2 * 2

    monkeypatch.setattr(catalan, "_double", wrong_h)
    pencil = find_pencils(concurrent_triple())[0]
    with pytest.raises(AssertionError):
        generate_solutions(pencil, steps)


def test_generate_rejects_zero_steps():
    pencil = find_pencils(concurrent_triple())[0]
    with pytest.raises(ValueError):
        generate_solutions(pencil, 0)


def reference_equivalent(r1, r2):
    """The equivalence rule as a search: the coefficient ratios other than
    "any" agree, and some cube root z has lf = z*lh and lg = z^2*lh, where a
    ratio that is "any" adapts freely."""
    ratios = [catalan._proportionality(a, b) for a, b in zip(r1.F, r2.F)]
    if None in ratios or len({r for r in ratios if r != "any"}) > 1:
        return False
    lf, lg, lh = (catalan._proportionality(a, b) for a, b in zip(r1.sol, r2.sol))
    if None in (lf, lg, lh):
        return False
    for zeta in MU3:
        if lh != "any":
            base = lh
        elif lf != "any":
            base = lf / zeta
        elif lg != "any":
            base = lg / (zeta * zeta)
        else:
            return True
        if (lf == "any" or lf == zeta * base) and (lg == "any" or lg == zeta * zeta * base):
            return True
    return False


def relations_with_zero_components():
    """Verified relations in which some coefficient or solution is zero, so
    that a ratio against a rescaled copy is "any"."""
    zero = UniPoly.zero()
    cases = [
        ((ONE_P, -ONE_P, T), (ONE_P, ONE_P, zero)),
        ((T, -T, zero), (ONE_P, ONE_P, T)),
        ((ONE_P, zero, -ONE_P), (T, zero, T)),
        ((ONE_P, ONE_P, T), (zero, zero, zero)),
    ]
    out = [QuasiToricRelation(F, sol, univariate=True) for F, sol in cases]
    assert all(verify_relation(rel) for rel in out)
    return out


def test_equivalence_matches_cube_root_search():
    # the coefficient and solution rules are checked apart, the other side scaled by (1, 1, 1)
    scalars = [EisensteinNumber(1), OMEGA, OMEGA2, EisensteinNumber(-1), EisensteinNumber(2), OMEGA * 2]
    ones = (1, 1, 1)
    scalings = [(cs, ones) for cs in product(scalars[::2], repeat=3)]
    scalings += [(ones, ls) for ls in product(scalars, repeat=3)]
    answers = set()
    for rel in relations_with_zero_components():
        for cs, ls in scalings:
            other = QuasiToricRelation(
                tuple(F * c for F, c in zip(rel.F, cs)),
                tuple(s * l for s, l in zip(rel.sol, ls)),
                univariate=True,
            )
            expected = reference_equivalent(rel, other)
            assert relations_equivalent(rel, other) == expected, (rel.to_json(), cs, ls)
            answers.add(expected)
    assert answers == {True, False}


# --- pullback ---------------------------------------------------------------------


def doubling_relation():
    rel = QuasiToricRelation(
        (T, ONE_P - T, ONE_P),
        (T - UniPoly.constant(2), T + ONE_P, T * 2 - ONE_P),
        univariate=True,
    )
    assert verify_relation(rel)
    return rel


def test_pullback_to_plane():
    plane = pullback_solution(doubling_relation(), X, Y)
    assert not plane.univariate
    assert verify_relation(plane)
    # hand-substituted values: t -> x/y cleared by y
    assert plane.F[0] == X
    assert plane.F[1] == Y - X
    assert plane.F[2] == Y
    assert plane.sol == (X - Y * 2, X + Y, X * 2 - Y)


def test_pullback_identity_substitution():
    rel = doubling_relation()
    again = pullback_solution(rel, T, ONE_P)
    assert verify_relation(again)
    assert relations_equivalent(rel, again)


def test_pullback_of_root_difference_relation():
    Z = HomForm.monomial((0, 0, 1))
    plane = pullback_solution(root_difference_relation(), X, Z)
    assert verify_relation(plane)
    # every coefficient only involves x and z: lines through [0:1:0]
    for F in plane.F:
        assert all(e[1] == 0 for e in F.coeffs)


def omega_image_of_concurrent_triple():
    """A seeded PGL image of ``concurrent_triple`` whose matrix has w-parts."""
    rng = random.Random(5)
    matrix = [[EisensteinNumber(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(3)] for _ in range(3)]
    assert sum(1 for row in matrix for v in row if v.wc) >= 3
    return proj_transform(concurrent_triple(), matrix)


@pytest.mark.parametrize(
    "fixture, steps", [(concurrent_triple, 3), (braid, 2), (omega_image_of_concurrent_triple, 2)]
)
def test_generate_is_pullback_of_universal_relation(fixture, steps):
    # U_n: n doublings of (1, 1, 1) on (t, 1, -(t + 1)); t = G1/G2 carries it to the pencil
    universal = reference_generate((T, ONE_P, -(T + ONE_P)), steps)
    pencil = find_pencils(fixture())[0]
    G1, G2, _ = pencil.scaled_products()
    for U, rel in zip(universal, generate_solutions(pencil, steps), strict=True):
        pulled = pullback_solution(U, G1, G2)
        assert pulled.F == rel.F
        assert pulled.sol == rel.sol


def test_pullback_degree_mismatch():
    with pytest.raises(ValueError):
        pullback_solution(doubling_relation(), X * X, Y)


# --- descent ------------------------------------------------------------------------


def cube_sum_instance():
    # f = 1, g = t, h = 1 against F3 = -(1 + t^3)
    F3 = -(ONE_P + T**3)
    return QuasiToricRelation((ONE_P, ONE_P, F3), (ONE_P, T, ONE_P), univariate=True)


KNOWN = [ONE_P + T, ONE_P + T * OMEGA, ONE_P + T * OMEGA2]


def test_descend_simple_instance():
    out = descend_step(cube_sum_instance(), KNOWN)
    assert verify_relation(out)
    assert all(v == ONE_P for v in out.sol)
    # returned coefficients are (1+t), w(1+wt), w^2(1+w^2 t) and sum to zero
    assert out.F[0] == ONE_P + T
    assert out.F[1] == (ONE_P + T * OMEGA) * OMEGA
    assert out.F[2] == (ONE_P + T * OMEGA2) * OMEGA2
    assert (out.F[0] + out.F[1] + out.F[2]).is_zero


def doubled_cube_sum_instance():
    # one doubling of the simple instance: solution degrees (4, 3, 3), h = 1 - t^3
    f = -(T * (T**3 + UniPoly.constant(2)))
    g = T**3 * 2 + ONE_P
    h = -(T**3 - ONE_P)
    rel = QuasiToricRelation((ONE_P, ONE_P, -(ONE_P + T**3)), (f, g, h), univariate=True)
    assert verify_relation(rel)
    return rel


def test_descend_doubled_instance():
    rel = doubled_cube_sum_instance()
    out = descend_step(rel, KNOWN)
    assert verify_relation(out)
    degrees = [v.degree for v in out.sol]
    assert max(degrees) < rel.sol[2].degree
    # the three coefficients are linear, hence linearly dependent but pairwise
    # independent: a genuine pencil of lines on the parameter line
    assert all(F.degree == 1 for F in out.F)


def test_descend_reports_obstruction():
    with pytest.raises(DescentObstruction) as err:
        descend_step(cube_sum_instance(), [ONE_P + T])  # missing two known factors
    assert err.value.factor_index == 0
    assert not err.value.leftover.is_constant


def test_descend_rejects_degenerate():
    rel = QuasiToricRelation((ONE_P, ONE_P, UniPoly.zero()), (ONE_P, -ONE_P, T), univariate=True)
    assert verify_relation(rel)  # 1 - 1 + 0 = 0
    with pytest.raises(ValueError):
        descend_step(rel, KNOWN)


def test_descend_requires_constant_leading_coefficients():
    rel = root_difference_relation()
    with pytest.raises(ValueError):
        descend_step(rel, KNOWN)


# --- JSON -------------------------------------------------------------------------------


def test_relation_json_roundtrip():
    rel = root_difference_relation()
    again = QuasiToricRelation.from_json(rel.to_json())
    assert again.univariate
    assert all(a == b for a, b in zip(again.F, rel.F))
    assert all(a == b for a, b in zip(again.sol, rel.sol))


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_relation_json_requires_a_bool_flag(flag):
    data = dict(root_difference_relation().to_json(), univariate=flag)
    with pytest.raises(TypeError):
        QuasiToricRelation.from_json(data)


def test_pullback_multiplies_each_power_once(monkeypatch):
    # powers of num and den are built once per substitution, each from the one before
    products = []
    multiply = HomForm.__mul__

    def counting(self, other):
        if isinstance(other, HomForm):
            products.append((self.degree, other.degree))
        return multiply(self, other)

    monkeypatch.setattr(HomForm, "__mul__", counting)
    plane = pullback_solution(root_difference_relation(), X, HomForm.monomial((0, 0, 1)))
    monkeypatch.undo()
    assert verify_relation(plane)
    assert len(products) <= 27  # Horner: 6 products per quartic coefficient, 3 per term in the check
    assert all(a and b for a, b in products)  # no product by a constant form


def test_zeroth_power_is_the_constant_one():
    assert X**0 == HomForm.constant(1) and (X**0).degree == 0
    assert T**0 == ONE_P
    assert X**1 == X and T**3 == T * T * T
