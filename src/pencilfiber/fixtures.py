"""Built-in arrangements: the classical fixtures, their projective images,
and seeded generic families.

Generic arrangements are built from lines x + a*y + a^2*z with pairwise
distinct rational a: their coefficient vectors lie on a conic in the dual
plane, so no three are ever concurrent and every intersection point is
double.
"""

from __future__ import annotations

import random

from .arrangement import Arrangement, Line, incidence, proj_transform
from .eisenstein import OMEGA, OMEGA2, EisensteinNumber


def dual_hesse() -> Arrangement:
    """Nine lines splitting (x^3-y^3)(x^3-z^3)(y^3-z^3); 12 triple points."""
    lines = []
    for zeta in (EisensteinNumber(1), OMEGA, OMEGA2):
        lines.append(Line(1, -zeta, 0))
    for zeta in (EisensteinNumber(1), OMEGA, OMEGA2):
        lines.append(Line(1, 0, -zeta))
    for zeta in (EisensteinNumber(1), OMEGA, OMEGA2):
        lines.append(Line(0, 1, -zeta))
    return Arrangement(lines, "dual_hesse")


def braid() -> Arrangement:
    """x, y, z, x-y, x-z, y-z; four triple and three double points."""
    return Arrangement(
        [Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1), Line(1, -1, 0), Line(1, 0, -1), Line(0, 1, -1)],
        "braid",
    )


def ceva_two() -> Arrangement:
    """x+-y, x+-z, y+-z: same combinatorics as the braid arrangement."""
    return Arrangement(
        [Line(1, -1, 0), Line(1, 1, 0), Line(1, 0, -1), Line(1, 0, 1), Line(0, 1, -1), Line(0, 1, 1)],
        "ceva_2",
    )


def triangle() -> Arrangement:
    return Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(0, 0, 1)], "triangle")


def concurrent_triple() -> Arrangement:
    return Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0)], "concurrent_triple")


def four_concurrent() -> Arrangement:
    """Invalid input fixture: four lines through [0:0:1]."""
    return Arrangement(
        [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0), Line(1, -1, 0)],
        "four_concurrent",
    )


def conic_dual_lines(params: list[EisensteinNumber | int], label: str) -> Arrangement:
    if len(set(params)) != len(params):
        raise ValueError("parameters must be pairwise distinct")
    lines = [Line(1, a, a * a) for a in params]
    arr = Arrangement(lines, label)
    if incidence(arr).triples:
        raise AssertionError(f"conic-dual construction produced {incidence(arr).triples[0]}")
    return arr


def generic_six() -> Arrangement:
    return conic_dual_lines([1, 2, 3, 4, 5, 6], "generic_6")


def generic_nine() -> Arrangement:
    return conic_dual_lines([-4, -3, -2, -1, 1, 2, 3, 4, 5], "generic_9")


def near_pencil_six() -> Arrangement:
    """x, y, x+y plus three conic-dual lines: one triple point, s = 0."""
    lines = [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0)]
    lines += [Line(1, a, a * a) for a in (1, 2, 3)]
    arr = Arrangement(lines, "near_pencil_6")
    if [pt.lines for pt in incidence(arr).triples] != [(0, 1, 2)]:
        raise AssertionError(f"unexpected triple points {incidence(arr).triples}")
    return arr


def seeded_generic(count: int, seed: int, label: str) -> Arrangement:
    """Deterministic generic family: distinct conic parameters from one seed."""
    rng = random.Random(seed)
    # the distinct n/d with d in (1, 2, 3) and |n| <= 12, in increasing order, as k/6
    sixths = sorted({n * (6 // d) for d in (1, 2, 3) for n in range(-12, 13)})
    return conic_dual_lines([EisensteinNumber(k) / 6 for k in rng.sample(sixths, count)], label)


def cuspidal_dual(m: int) -> Arrangement:
    """The 2m + 1 lines Line(t, t^3, 1) for t = -m..m, a family that grows.

    They are dual to the points (t, t^3, 1) of the cuspidal cubic y z^2 = x^3,
    and three such points are collinear iff t1 + t2 + t3 = 0; so three of the
    lines meet iff their parameters sum to zero, no four are concurrent, and
    s = 0.  Not part of the corpus: at r = 61 it has 450 triple points.
    """
    return Arrangement([Line(t, t**3, 1) for t in range(-m, m + 1)], f"cuspidal_dual_{2 * m + 1}")


STANDARD_MATRIX = [[2, 1, 0], [1, 1, 0], [0, 1, 1]]  # determinant 1


def dual_hesse_pgl() -> Arrangement:
    arr = proj_transform(dual_hesse(), STANDARD_MATRIX)
    return Arrangement(arr.lines, "dual_hesse_pgl")


def braid_pgl() -> Arrangement:
    arr = proj_transform(braid(), [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    return Arrangement(arr.lines, "braid_pgl")


CORPUS_BUILDERS = {
    "dual_hesse": dual_hesse,
    "dual_hesse_pgl": dual_hesse_pgl,
    "braid": braid,
    "braid_pgl": braid_pgl,
    "ceva_2": ceva_two,
    "triangle": triangle,
    "concurrent_triple": concurrent_triple,
    "near_pencil_6": near_pencil_six,
    "generic_6": generic_six,
    "generic_9": generic_nine,
    "seeded_generic_7": lambda: seeded_generic(7, seed=20240521, label="seeded_generic_7"),
    "seeded_generic_12": lambda: seeded_generic(12, seed=7459, label="seeded_generic_12"),
}


def build_corpus() -> dict[str, Arrangement]:
    return {name: builder() for name, builder in CORPUS_BUILDERS.items()}
