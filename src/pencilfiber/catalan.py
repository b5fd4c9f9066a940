"""Cube relations F1*f^3 + F2*g^3 + F3*h^3 = 0 over Q(w)[t] and Q(w)[x,y,z].

A relation is the data (F1, F2, F3, f, g, h) with the identity holding
exactly.  Every relation returned from this module is verified once before
being handed back: the base solution (1, 1, 1) of a pencil by the sum of
its members, every other relation by multiplication.  In doubling, the
terms that verify one relation are the coefficients of the next step.

Two relations with the same coefficients up to one scalar are identified
when their solutions differ by scalars (lf, lg, lh) with lf/lh and lg/lh
cube roots of unity and lf*lg = lh^2 (a zero component on both sides leaves
its ratio free); that is exactly the ambiguity left by the curve model c^3 = s(1-s), whose points a = -F1 f^3 / (F3 h^3),
b = -F2 g^3 / (F3 h^3) satisfy a + b = 1.

New solutions come from doubling: when G1 + G2 = G3,

    (f', g', h') = (-(G2 + G3), G1 + G3, 2*G1 - G3)

satisfies G1 f'^3 + G2 g'^3 + G3 h'^3 = 0 identically, and iterating it on
the scaled members of a pencil yields solutions of strictly growing degree.
Descent runs the other way: for f^3 + g^3 + F3 h^3 = 0 with F3 a product of
known linear factors, each of the three factors f + g, f + w g, f + w^2 g
splits once as (cube) * (cube-free part), the cube-free part must be
(scalar) * (known factors), and the cube roots solve a new cube relation
with coefficients of smaller total content.  Pullback substitutes t = num/den
into a univariate relation and clears denominators by Horner's rule.

HomForm and UniPoly share one arithmetic interface, so nothing here
branches on the kind of polynomial except ``pullback_solution``, whose
numerator's kind decides whether the result lives on a line or the plane.

Relation JSON: {"univariate": bool, "F": [poly, poly, poly],
                "sol": [poly, poly, poly]}  with the forms encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Union

from .eisenstein import OMEGA, OMEGA2, ONE, EisensteinNumber, json_list, json_object
from .forms import HomForm, UniPoly, root_multiplicity, squarefree_cube_split, uni_gcd
from .pencils import PencilDecomposition

Poly = Union[HomForm, UniPoly]


class DescentObstruction(ValueError):
    """The input was not a genuine descent instance.

    ``factor_index`` is 1..3 when a factor of f^3 + g^3 refused to split as
    scalar * known * cube, or 0 when F3 itself is not a product of the
    supplied known factors; ``leftover`` is the obstructing polynomial.
    """

    def __init__(self, factor_index: int, leftover: UniPoly, message: str) -> None:
        super().__init__(f"{message} (factor {factor_index}, leftover {leftover})")
        self.factor_index = factor_index
        self.leftover = leftover


@dataclass(frozen=True)
class QuasiToricRelation:
    F: tuple[Poly, Poly, Poly]
    sol: tuple[Poly, Poly, Poly]
    univariate: bool

    def to_json(self) -> dict:
        return {
            "univariate": self.univariate,
            "F": [p.to_json() for p in self.F],
            "sol": [p.to_json() for p in self.sol],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuasiToricRelation":
        univariate = json_object(data, "a relation")["univariate"]
        if not isinstance(univariate, bool):
            raise TypeError(f"univariate must be a JSON bool, not {type(univariate).__name__}")
        kind = UniPoly if univariate else HomForm
        F = json_list(data["F"], "F")
        sol = json_list(data["sol"], "sol")
        if len(F) != 3 or len(sol) != 3:
            raise ValueError("a relation has three coefficients F and three solutions sol")
        return cls(tuple(map(kind.from_json, F)), tuple(map(kind.from_json, sol)), univariate)


def _terms(rel: QuasiToricRelation) -> list[Poly]:
    return [F * s**3 for F, s in zip(rel.F, rel.sol)]


def verify_relation(rel: QuasiToricRelation) -> bool:
    """Exact check of F1 f^3 + F2 g^3 + F3 h^3 = 0."""
    terms = [t for t in _terms(rel) if not t.is_zero]
    if not rel.univariate and len({t.degree for t in terms}) > 1:
        return False  # nonzero forms of different degrees cannot cancel
    return not terms or sum(terms[1:], terms[0]).is_zero


def _proportionality(p: Poly, q: Poly) -> EisensteinNumber | None | str:
    """Scalar c with p == c * q, None when not proportional, "any" when both zero."""
    if p.is_zero and q.is_zero:
        return "any"
    if p.is_zero or q.is_zero:
        return None
    if p.degree != q.degree:
        return None
    c = p.leading() / q.leading()
    return c if p == q * c else None


def relations_equivalent(r1: QuasiToricRelation, r2: QuasiToricRelation) -> bool:
    """Identify relations that differ by the curve-model scalar ambiguity.

    The coefficient ratios F_a / F_b other than "any" share one value.  The
    solution ratios lf, lg, lh other than "any" differ pairwise by cube roots
    of unity, and when all three are known, lf * lg = lh^2.

    Only a True answer verifies r1 (ValueError if it fails): equivalence
    scales every term F_i s_i^3 of r2 by the one scalar c * lh^3, so r2 then
    verifies too.  An unverified relation may be answered False.
    """
    if r1.univariate != r2.univariate:
        return False
    coeff_ratios = [_proportionality(Fa, Fb) for Fa, Fb in zip(r1.F, r2.F)]
    sol_ratios = [_proportionality(sa, sb) for sa, sb in zip(r1.sol, r2.sol)]
    if None in coeff_ratios or None in sol_ratios:
        return False
    if len({r for r in coeff_ratios if r != "any"}) > 1:
        return False
    known = [r for r in sol_ratios if r != "any"]
    if any((a / b) ** 3 != 1 for a, b in combinations(known, 2)):
        return False
    lf, lg, lh = sol_ratios
    if len(known) == 3 and lf * lg != lh * lh:
        return False
    if not verify_relation(r1):
        raise ValueError("equivalence is only defined for verified relations")
    return True


def base_solution(pencil: PencilDecomposition) -> QuasiToricRelation:
    """The (1, 1, 1) solution carried by the scaled members of a pencil.

    For that solution the relation is the sum of the members, so the check
    needs no product; a pencil whose members do not sum to zero is bad input
    (ValueError).
    """
    G1, G2, G3 = pencil.scaled_products()
    if not (G1 + G2 + G3).is_zero:
        raise ValueError("doubling needs G1 + G2 = G3 exactly")
    one = HomForm.constant(1)
    return QuasiToricRelation((G1, G2, G3), (one, one, one), univariate=False)


def _double(G: Sequence[Poly]) -> tuple[Poly, Poly, Poly]:
    """The doubling formula and its precondition G1 + G2 = G3 (ValueError)."""
    G1, G2, G3 = G
    if not (G1 + G2 - G3).is_zero:
        raise ValueError("doubling needs G1 + G2 = G3 exactly")
    return -(G2 + G3), G1 + G3, G1 * 2 - G3


def generate_solutions(pencil: PencilDecomposition, steps: int) -> list[QuasiToricRelation]:
    """``steps`` successive doublings of the base solution of a pencil.

    Solution degrees strictly increase, and consecutive outputs are pairwise
    non-equivalent.  Each output is verified once: the sum of its terms is the
    next doubling's precondition, and the terms seed that doubling.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rel = base_solution(pencil)
    T1, T2, T3 = rel.F  # the terms of the base solution
    out: list[QuasiToricRelation] = []
    while True:
        try:
            f2, g2, h2 = _double((T1, T2, -T3))  # G1 + G2 - G3 = T1 + T2 + T3
        except ValueError:
            raise AssertionError("generated relation failed verification") from None
        if len(out) == steps:
            return out
        f, g, h = rel.sol
        rel = QuasiToricRelation(rel.F, (f * f2, g * g2, -(h * h2)), univariate=False)
        if out and max(p.degree for p in rel.sol) <= max(p.degree for p in out[-1].sol):
            raise AssertionError("solution degrees must strictly increase")
        out.append(rel)
        T1, T2, T3 = _terms(rel)


def _compose(p: UniPoly, num: Poly, den: Poly) -> Poly:
    """p(num/den) * den^deg(p), the homogeneous clearing of one substitution.

    Horner's rule in num: acc <- acc * num + c_j * den^(d-j) for j from d-1
    down to 0, starting from the scalar c_d, each power of den one product
    from the one before.  No product has a constant factor.
    """
    if p.is_zero:
        return num * 0
    acc, power = p.leading(), ONE
    for c in reversed(p.coeffs[:-1]):
        power = den * power
        acc = num * acc + power * c
    return acc if p.degree else den**0 * acc


def pullback_solution(rel: QuasiToricRelation, num: Poly, den: Poly) -> QuasiToricRelation:
    """Substitute t = num/den and clear denominators homogeneously."""
    if not rel.univariate:
        raise ValueError("only univariate relations can be pulled back")
    if den.is_zero:
        raise ValueError("denominator must be nonzero")
    plane = isinstance(num, HomForm)
    if plane:
        if num.is_zero:
            raise ValueError("numerator must be nonzero")
        if num.degree != den.degree:
            raise ValueError("numerator and denominator degrees must match")
    degrees = []
    for F, s in zip(rel.F, rel.sol):
        if F.is_zero or s.is_zero:
            degrees.append(None)
        else:
            degrees.append(F.degree + 3 * s.degree)
    top = max((d for d in degrees if d is not None), default=0)
    new_F = []
    new_sol = []
    for F, s, d in zip(rel.F, rel.sol, degrees):
        Fh = _compose(F, num, den)
        if d is not None and d < top:
            Fh = Fh * den ** (top - d)
        new_F.append(Fh)
        new_sol.append(_compose(s, num, den))
    out = QuasiToricRelation(tuple(new_F), tuple(new_sol), univariate=not plane)
    if not verify_relation(out):
        raise AssertionError("pullback failed verification")
    return out


def descend_step(rel: QuasiToricRelation, known_factors: Sequence[UniPoly]) -> QuasiToricRelation:
    """One descent of f^3 + g^3 + F3 h^3 = 0 along the factorization of F3.

    The products u1 = f + g, u2 = f + w g, u3 = f + w^2 g multiply to
    -F3 h^3 and satisfy u1 + w u2 + w^2 u3 = 0.  Each u splits once as
    cube * (cube-free part); with the known factors stripped, that part must
    be a scalar.  The cube roots then solve the returned relation, whose
    coefficients absorb the w-weights.
    """
    if not rel.univariate:
        raise ValueError("descent runs over univariate relations")
    if not verify_relation(rel):
        raise ValueError("descent needs a verified relation")
    F1, F2, F3 = rel.F
    if not (F1.is_constant and F2.is_constant):
        raise ValueError("descent needs constant first and second coefficients")
    c = F1.constant_value()
    if not c or F2.constant_value() != c:
        raise ValueError("descent needs F1 == F2 == a common nonzero constant")
    F3 = F3 * c.inverse()
    if F3.is_zero:
        raise ValueError("degenerate relation: F3 = 0")

    factors = []
    for raw in known_factors:
        if raw.degree != 1:
            raise ValueError("known factors must be linear")
        monic = raw.monic()
        if monic not in factors:
            factors.append(monic)
    residual = F3
    for ell in factors:
        residual, mult = root_multiplicity(residual, ell)
        if mult > 2:
            raise ValueError(f"known factor {ell} has multiplicity {mult} > 2 in F3")
    if not residual.is_constant:
        raise DescentObstruction(0, residual, "F3 is not a product of the known factors")

    f, g, h = rel.sol
    common = uni_gcd(uni_gcd(f, g), h)
    if common.degree > 0:
        f, g, h = f // common, g // common, h // common
    if (f**3 + g**3).is_zero:
        raise ValueError("degenerate relation: f^3 + g^3 = 0")

    u = (f + g, f + OMEGA * g, f + OMEGA2 * g)
    scaled_coeffs: list[UniPoly] = []
    solutions: list[UniPoly] = []
    weights = (EisensteinNumber(1), OMEGA, OMEGA2)  # from u1 + w u2 + w^2 u3 = 0
    for idx, (u_i, weight) in enumerate(zip(u, weights), start=1):
        if u_i.is_zero:
            raise DescentObstruction(idx, u_i, "degenerate zero factor")
        cube_root, leftover = squarefree_cube_split(u_i)
        known_part = UniPoly.one()
        for ell in factors:
            leftover, mult = root_multiplicity(leftover, ell)
            known_part = known_part * ell**mult
        if not leftover.is_constant:
            raise DescentObstruction(idx, leftover, "factor does not split as known * cube")
        scalar = leftover.constant_value()
        rebuilt = known_part * cube_root**3 * scalar
        if rebuilt != u_i:
            raise AssertionError("descent split failed exact reassembly")
        scaled_coeffs.append(known_part * (weight * scalar))
        solutions.append(cube_root)

    out = QuasiToricRelation(tuple(scaled_coeffs), tuple(solutions), univariate=True)
    if not verify_relation(out):
        raise AssertionError("descended relation failed verification")
    new_top = max(v.degree for v in solutions)
    if not (new_top < h.degree or new_top <= 0):
        raise AssertionError("descent did not decrease the solution degree")
    return out
