"""Correctness oracle for every benchmark op, applied after timing.

The reference values are the paper's invariants of each source fixture,
written out here rather than taken from a run of the program.  They are
invariant under the permutations and projective images the generator
applies, so one row per source covers every seeded input built from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from pencilfiber.catalan import QuasiToricRelation, verify_relation


@dataclass(frozen=True)
class Reference:
    r: int
    census: dict[str, int]  # multiplicity -> number of points, keyed as in the JSON
    s: int
    pencil_count: int


REFERENCE = {
    "braid": Reference(6, {"3": 4, "2": 3}, 1, 1),
    "braid_pgl": Reference(6, {"3": 4, "2": 3}, 1, 1),
    "ceva_2": Reference(6, {"3": 4, "2": 3}, 1, 1),
    "concurrent_triple": Reference(3, {"3": 1}, 1, 1),
    "dual_hesse": Reference(9, {"3": 12}, 2, 4),
    "dual_hesse_pgl": Reference(9, {"3": 12}, 2, 4),
    "generic_6": Reference(6, {"2": 15}, 0, 0),
    "generic_9": Reference(9, {"2": 36}, 0, 0),
    "near_pencil_6": Reference(6, {"3": 1, "2": 12}, 0, 0),
    "seeded_generic_12": Reference(12, {"2": 66}, 0, 0),
    "seeded_generic_7": Reference(7, {"2": 21}, 0, 0),
    "triangle": Reference(3, {"2": 3}, 0, 0),
}

# Pairs of corpus files with equal combinatorial type: braid, braid_pgl and
# ceva_2 pairwise, plus dual_hesse with its PGL image.
EQUAL_TYPE_PAIRS = 4

# Solution degrees of `catalan generate`: (4^n - 1)/3 on the binary pencil,
# 2 * (4^n - 1)/3 on the braid pencil.
SOLUTION_DEGREES = {"concurrent_triple": [1, 5, 21, 85], "braid": [2, 10]}

DESCENT_INPUT_DEGREE = 3  # degree of h in the criterion-8 instance


class Mismatch(Exception):
    """An op's output disagrees with the reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _check_crosscheck(payload: dict) -> None:
    _expect(payload["all_consistent"] is True, "crosscheck reports an inconsistency")
    _expect(payload["failures"] == [], f"crosscheck failures: {payload['failures']}")
    _expect(payload["equal_type_pairs_checked"] == EQUAL_TYPE_PAIRS, "wrong number of equal-type pairs")
    rows = {row["file"]: row for row in payload["rows"]}
    _expect(sorted(rows) == sorted(f"{name}.json" for name in REFERENCE), f"unexpected files {sorted(rows)}")
    for name, ref in REFERENCE.items():
        row = rows[f"{name}.json"]
        _expect("error" not in row, f"{name}: {row.get('error')}")
        got = (row["r"], row["s"], row["pencil_count"], row["resonance_pencil_components"])
        _expect(got == (ref.r, ref.s, ref.pencil_count, ref.pencil_count), f"{name}: r, s, pencils = {got}")
        _expect(row["isotropy_all_ok"] is True, f"{name}: a component is not isotropic")


def _check_analyze(payload: dict, source: str) -> None:
    ref = REFERENCE[source]
    _expect(payload["r"] == ref.r, f"r = {payload['r']}")
    _expect(payload["point_census"] == ref.census, f"census = {payload['point_census']}")
    _expect(payload["milnor"]["s"] == ref.s, f"s = {payload['milnor']['s']}")
    _expect(payload["pencil_count"] == ref.pencil_count == len(payload["pencils"]), "wrong pencil count")
    _expect(payload["pencil_eigenvalue_consistent"] is True, "eigenvalue and pencil disagree")
    for pencil in payload["pencils"]:
        lines = sorted(i for cls in pencil["classes"] for i in cls)
        _expect(lines == list(range(ref.r)), f"pencil classes {pencil['classes']} do not partition the lines")
    resonance = payload["resonance"]
    components = resonance["local_components"] + resonance["pencil_components"]
    _expect(len(resonance["pencil_components"]) == ref.pencil_count, "wrong number of pencil components")
    _expect(all(c["isotropic"] and c["kernel_dim"] >= 2 for c in components), "a component is not resonant")


def _check_generate(payload: dict, source: str) -> None:
    degrees = SOLUTION_DEGREES[source]
    _expect(payload["solution_degrees"] == degrees, f"solution degrees {payload['solution_degrees']}")
    _expect(len(payload["relations"]) == len(degrees), "wrong number of relations")
    for n, data in enumerate(payload["relations"]):
        _expect(verify_relation(QuasiToricRelation.from_json(data)), f"relation {n} does not verify")


def _check_descend(payload: dict) -> None:
    rel = QuasiToricRelation.from_json(payload["relation"])
    _expect(verify_relation(rel), "descended relation does not verify")
    _expect(max(p.degree for p in rel.sol) < DESCENT_INPUT_DEGREE, "descent did not lower the degree")


def check(kind: str, source: str, exit_code: int | None, stdout: str) -> str | None:
    """None when the op's exit code and stdout are right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
        if kind == "crosscheck":
            _check_crosscheck(payload)
        elif kind == "analyze":
            _check_analyze(payload, source)
        elif kind == "generate":
            _check_generate(payload, source)
        elif kind == "descend":
            _check_descend(payload)
        else:
            return f"no oracle for {kind!r}"
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # includes malformed JSON
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
