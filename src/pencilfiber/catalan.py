"""Cube relations F1*f^3 + F2*g^3 + F3*h^3 = 0 over Q(w)[t] and Q(w)[x,y,z].

A relation is the data (F1, F2, F3, f, g, h) with the identity holding
exactly.  Every relation returned from this module is verified once, by
multiplication, before being handed back; in doubling, the terms that
verify one relation are the coefficients of the next step.

Two relations with the same coefficients up to one scalar are identified
when their solutions differ by scalars (lf, lg, lh) with lf/lh and lg/lh
cube roots of unity and lf*lg = lh^2; that is exactly the ambiguity left by
the curve model c^3 = s(1-s), whose points a = -F1 f^3 / (F3 h^3),
b = -F2 g^3 / (F3 h^3) satisfy a + b = 1.

New solutions come from doubling: when G1 + G2 = G3,

    (f', g', h') = (-(G2 + G3), G1 + G3, 2*G1 - G3)

satisfies G1 f'^3 + G2 g'^3 + G3 h'^3 = 0 identically, and iterating it on
the scaled members of a pencil yields solutions of strictly growing degree.
Descent runs the other way: for f^3 + g^3 + F3 h^3 = 0 with F3 a product of
known linear factors, the three factors f + g, f + w g, f + w^2 g split as
(scalar) * (known factors) * (cube), and the cube roots solve a new cube
relation with coefficients of smaller total content.

HomForm and UniPoly share one arithmetic interface, so nothing here
branches on the kind of polynomial except ``pullback_solution``, whose
numerator's kind decides whether the result lives on a line or the plane.

Relation JSON: {"univariate": bool, "F": [poly, poly, poly],
                "sol": [poly, poly, poly]}  with the forms encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .eisenstein import MU3, OMEGA, OMEGA2, EisensteinNumber, json_list, json_object
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

    Only a True answer verifies r1 (ValueError if it fails): equivalence
    scales every term F_i s_i^3 of r2 by the one scalar c * lh^3, so r2 then
    verifies too.  An unverified relation may be answered False.
    """
    if r1.univariate != r2.univariate:
        return False
    common: EisensteinNumber | None = None
    for Fa, Fb in zip(r1.F, r2.F):
        ratio = _proportionality(Fa, Fb)
        if ratio is None:
            return False
        if ratio == "any":
            continue
        if common is None:
            common = ratio
        elif common != ratio:
            return False
    lf, lg, lh = (_proportionality(sa, sb) for sa, sb in zip(r1.sol, r2.sol))
    if None in (lf, lg, lh):
        return False
    # need some cube root z with lf = z*lh and lg = z^2*lh ("any" adapts freely)
    for zeta in MU3:
        if lh != "any":
            base = lh
        elif lf != "any":
            base = lf / zeta
        elif lg != "any":
            base = lg / (zeta * zeta)
        else:
            break
        if (lf == "any" or lf == zeta * base) and (lg == "any" or lg == zeta * zeta * base):
            break
    else:
        return False
    if not verify_relation(r1):
        raise ValueError("equivalence is only defined for verified relations")
    return True


def base_solution(pencil: PencilDecomposition) -> QuasiToricRelation:
    """The (1, 1, 1) solution carried by the scaled members of a pencil."""
    members = pencil.scaled_products()
    one = HomForm.constant(1)
    rel = QuasiToricRelation(members, (one, one, one), univariate=False)
    if not verify_relation(rel):
        raise AssertionError("pencil members do not sum to zero")
    return rel


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
    one = HomForm.constant(1)
    rel = QuasiToricRelation(pencil.scaled_products(), (one, one, one), univariate=False)
    T1, T2, T3 = rel.F  # the terms of the base solution
    out: list[QuasiToricRelation] = []
    while True:
        try:
            f2, g2, h2 = _double((T1, T2, -T3))  # G1 + G2 - G3 = T1 + T2 + T3
        except ValueError:
            if not out:
                raise
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
    """p(num/den) * den^deg(p), the homogeneous clearing of one substitution."""
    if p.is_zero:
        return num * 0
    d = p.degree
    nums, dens = _powers(num, d), _powers(den, d)
    total = None
    for j, c in enumerate(p.coeffs):
        # nums[0] and dens[0] are the constant one: multiply only when both factors are not
        term = (nums[j] * dens[d - j] if 0 < j < d else nums[d] if j else dens[d]) * c
        total = term if total is None else total + term
    return total


def _powers(base: Poly, d: int) -> list[Poly]:
    """[base**0, base, ..., base**d], each power one product from the one before."""
    out = [base**0, base]
    for _ in range(d - 1):
        out.append(out[-1] * base)
    return out[: d + 1]


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
    -F3 h^3 and satisfy u1 + w u2 + w^2 u3 = 0.  Each u must split as
    scalar * (known factors, multiplicity <= 2) * cube; the cube roots then
    solve the returned relation, whose coefficients absorb the w-weights.
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
        known_part = UniPoly.one()
        cube_root = UniPoly.one()
        stripped = u_i
        for ell in factors:
            stripped, mult = root_multiplicity(stripped, ell)
            known_part = known_part * ell ** (mult % 3)
            cube_root = cube_root * ell ** (mult // 3)
        extra_root, leftover = squarefree_cube_split(stripped)
        if not leftover.is_constant:
            raise DescentObstruction(idx, leftover, "factor does not split as known * cube")
        cube_root = cube_root * extra_root
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
