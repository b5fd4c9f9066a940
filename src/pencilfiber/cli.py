"""Command-line front end.

Commands (all payloads are the module-level JSON formats, output is
deterministic: sorted keys, canonical polynomial strings, no timestamps):

    pencilfiber analyze <arrangement.json>
    pencilfiber pencils <arrangement.json>
    pencilfiber resonance <arrangement.json> [--vector '<json list>']
    pencilfiber catalan verify <relation.json>
    pencilfiber catalan generate <pencil.json> [--steps K]
    pencilfiber catalan descend <descent.json>
    pencilfiber crosscheck <directory>

Exit codes: 0 success, 1 input error, 2 domain validation failure,
3 consistency failure in crosscheck.  Usage errors are input errors too.

Every input file goes through ``_parse_file``: a file that cannot be read,
is not UTF-8, nests too deeply or is not JSON, and one its ``from_json``
parser rejects, is an input error.  ``_load_arrangement`` then applies the
one multiplicity gate, ``require_multiplicities_ok``; ``main`` turns its
``MultiplicityError`` into the ``multiplicity_violation`` payload and
``crosscheck`` into that file's row.

Stdout is exactly ``json.dumps(payload, indent=2, sort_keys=True)`` and a
newline.  ``_write`` puts those bytes into one list of chunks, quoting
strings with the stdlib's C quoter, because ``json.dumps`` with an
``indent`` runs the stdlib's pure-Python encoder; ``_emit`` joins and writes
them once.  ``main`` may be called any number of times in one process; the
argument parser is built on the first call and reused.
``python -m pencilfiber`` and the console script run ``main`` once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

from .arrangement import (
    Arrangement,
    IncidencePoint,
    MultiplicityError,
    combinatorial_type,
    intersection_points,
    point_census,
    require_multiplicities_ok,
)
from .catalan import (
    DescentObstruction,
    QuasiToricRelation,
    descend_step,
    generate_solutions,
    verify_relation,
)
from .eisenstein import ParseError, integer_row, json_list, json_object, quotient_str
from .forms import UniPoly
from .milnor import milnor_report
from .pencils import PencilDecomposition, beta3, find_pencils
from .resonance import (
    component_isotropy_check,
    distinct_planes,
    pencil_basis,
    resonance_kernel_dim,
    triple_point_basis,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_INCONSISTENT = 3

T = TypeVar("T")


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises InputError on a usage error; ``add_subparsers`` gives subcommands this class too."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: {message}")


_quote = json.encoder.encode_basestring_ascii  # the C quoter json.dumps uses
_INT = frozenset({int})


def _write(value: object, indent: str, put: Callable[[str], object]) -> None:
    """Put ``value`` in chunks as ``json.dumps(value, indent=2, sort_keys=True)``
    writes it, nested ``indent`` deep.

    That call takes the stdlib's pure-Python encoder (only ``indent=None``
    reaches its C one), so the text is written here by type instead.  A list
    of plain ints, such as an exponent, is one chunk; a bool or another int
    subclass takes the general path.  An empty container puts only its
    brackets.  A key that is not a str, or a float, neither of which a
    payload holds, raises TypeError (the quoter takes only str).
    """
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            put(f"{sep}{_quote(key)}: ")
            sep = ",\n" + inner
            _write(item, inner, put)
        put(f"\n{indent}}}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        if set(map(type, value)) == _INT:
            put(f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, value)) + f"\n{indent}]")
            return
        sep = "[\n" + inner
        for item in value:
            put(sep)
            sep = ",\n" + inner
            _write(item, inner, put)
        put(f"\n{indent}]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    chunks: list[str] = []
    _write(payload, "", chunks.append)
    chunks.append("\n")
    sys.stdout.write("".join(chunks))


def _load_json(path: str) -> dict:
    """The JSON value in the file; unreadable, non-UTF-8, over-nested or otherwise unparsable input is an InputError.

    ``ValueError`` covers the decode errors and an integer literal too long to convert.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse_file(path: str, parse: Callable[[dict], T], what: str) -> T:
    """``parse`` applied to the file's JSON; a parser's rejection is an InputError."""
    data = _load_json(path)
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError(f"{path} is not a valid {what}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a valid {what}: {exc}") from exc


def _load_arrangement(path: str) -> Arrangement:
    """The arrangement in the file; MultiplicityError when a point has more than three lines."""
    arr = _parse_file(path, Arrangement.from_json, "arrangement")
    require_multiplicities_ok(arr)
    return arr


def _violation_payload(point: IncidencePoint) -> dict:
    return {"error": "multiplicity_violation", "point": point.to_json()}


def _descent_instance(data: dict) -> tuple[QuasiToricRelation, list[UniPoly]]:
    rel = QuasiToricRelation.from_json(json_object(data, "a descent instance")["relation"])
    return rel, [UniPoly.from_json(p) for p in json_list(data["known_factors"], "known_factors")]


def _resonance_payload(arr: Arrangement, pencils: list[PencilDecomposition]) -> dict:
    """The quotient's ranks and each candidate component with its two fields:
    one local candidate per triple point, then one per pencil.

    The ranks are read off the incidence record: the t_3 triple-point
    relations have disjoint supports, so they are independent and the
    quotient has rank C(r, 2) - t_3.  Every candidate's fields follow from
    Brieskorn's rule alone, with no pass (see ``resonance``): at a point of
    multiplicity exactly 3, which the multiplicity gate has certified, and
    for the level sets of a pencil's F3 cocycle, which ``find_pencils`` has
    certified, the basis is isotropic and its generic member's kernel is
    2-dimensional."""
    triples = [pt.lines for pt in intersection_points(arr) if pt.multiplicity == 3]
    return {
        "quotient_rank": arr.r * (arr.r - 1) // 2 - len(triples),
        "relation_count": len(triples),
        "local_components": [{"lines": list(lines), "isotropic": True, "kernel_dim": 2} for lines in triples],
        "pencil_components": [{"classes": [list(c) for c in p.classes], "isotropic": True, "kernel_dim": 2} for p in pencils],
    }


def _analysis_payload(arr: Arrangement) -> dict:
    report = milnor_report(arr)
    pencils = find_pencils(arr)
    return {
        "label": arr.label,
        "r": arr.r,
        "point_census": {str(m): n for m, n in point_census(intersection_points(arr)).items()},
        "milnor": report.to_json(),
        "pencils": [p.to_json() for p in pencils],
        "pencil_count": len(pencils),
        "combinatorial_type_exact": True,  # the canonical form is exact at every size
        "pencil_eigenvalue_consistent": (report.s > 0) == bool(pencils),
        "resonance": _resonance_payload(arr, pencils),
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    arr = _load_arrangement(args.path)
    _emit(_analysis_payload(arr))
    return EXIT_OK


def cmd_pencils(args: argparse.Namespace) -> int:
    arr = _load_arrangement(args.path)
    _emit({"label": arr.label, "pencils": [p.to_json() for p in find_pencils(arr)]})
    return EXIT_OK


def cmd_resonance(args: argparse.Namespace) -> int:
    arr = _load_arrangement(args.path)
    payload = _resonance_payload(arr, find_pencils(arr))
    if args.vector is not None:
        try:
            pairs, scale = integer_row(json_list(json.loads(args.vector), "--vector"))
        except (TypeError, ValueError, RecursionError) as exc:
            raise InputError(f"--vector is not a list of field elements: {exc}") from exc
        if len(pairs) != arr.r:
            raise InputError(f"--vector must have length {arr.r}")
        # the pairs are the vector times a positive integer, so these tests hold for both
        if any(sum(part) for part in zip(*pairs)):
            _emit({"error": "weight_vector_sum_nonzero"})
            return EXIT_DOMAIN
        if all(v == (0, 0) for v in pairs):
            _emit({"error": "weight_vector_zero"})
            return EXIT_DOMAIN
        dim = resonance_kernel_dim(arr, pairs)
        payload["probe"] = {"vector": [quotient_str(v, scale) for v in pairs], "kernel_dim": dim, "resonant": dim >= 2}
    _emit(payload)
    return EXIT_OK


def cmd_catalan(args: argparse.Namespace) -> int:
    if args.action == "verify":
        rel = _parse_file(args.path, QuasiToricRelation.from_json, "relation")
        _emit({"valid": verify_relation(rel)})
        return EXIT_OK
    if args.action == "generate":
        pencil = _parse_file(args.path, PencilDecomposition.from_json, "pencil")
        if args.steps < 1:
            raise InputError("--steps must be at least 1")
        relations = generate_solutions(pencil, args.steps)
        _emit(
            {
                "steps": args.steps,
                "relations": [rel.to_json() for rel in relations],
                "solution_degrees": [max(p.degree for p in rel.sol) for rel in relations],
            }
        )
        return EXIT_OK
    rel, factors = _parse_file(args.path, _descent_instance, "descent instance")
    try:
        descended = descend_step(rel, factors)
    except DescentObstruction as exc:
        _emit(
            {
                "error": "descent_obstruction",
                "factor_index": exc.factor_index,
                "leftover": exc.leftover.to_json(),
            }
        )
        return EXIT_DOMAIN
    except ValueError as exc:
        _emit({"error": "invalid_descent_input", "detail": str(exc)})
        return EXIT_DOMAIN
    _emit({"relation": descended.to_json()})
    return EXIT_OK


# crosscheck's checks, in the order they are reported: each file's row must
# satisfy the predicate, and two files of one combinatorial type must agree
# on the row key
_FILE_CHECKS = (
    ("eigenvalue_vs_pencil", lambda row: row["pencil_eigenvalue_consistent"]),
    ("component_isotropy", lambda row: row["isotropy_all_ok"]),
    ("pencil_component_census", lambda row: row["resonance_pencil_components"] == row["pencil_count"]),
    ("s_equals_beta3", lambda row: row["s"] == row["beta3"]),
    ("beta3_at_most_2", lambda row: row["beta3"] <= 2),
    ("pencil_count_equals_beta3_formula", lambda row: row["pencil_count"] == (3 ** row["beta3"] - 1) // 2),
)
_PAIR_CHECKS = (("equal_type_equal_s", "s"), ("equal_type_equal_pencil_count", "pencil_count"))


def cmd_crosscheck(args: argparse.Namespace) -> int:
    """One row per file, from s, the pencils and the isotropy of each
    candidate component.  ``analyze`` prints every candidate's fields from
    Brieskorn's rule without a pass; here each local and pencil basis is
    tested by a rule pass over the points with two lines of its support, so
    crosscheck checks those fields independently.  No kernel dimension is
    solved: isotropy already puts both basis vectors in the kernel of the
    generic member.  A combinatorial type includes r and the point census,
    so types are computed only for the files whose (r, census) another file
    shares; no other pair can have equal types."""
    directory = Path(args.directory)
    if not directory.is_dir():
        raise InputError(f"{args.directory} is not a directory")
    rows = []
    loaded: list[tuple[dict, Arrangement, tuple]] = []
    for path in sorted(directory.glob("*.json")):
        try:
            arr = _load_arrangement(str(path))
            s = milnor_report(arr).s
            pencils = find_pencils(arr)
            local = [triple_point_basis(pt, arr.r) for pt in intersection_points(arr) if pt.multiplicity == 3]
            from_pencils = [pencil_basis(pencil, arr.r) for pencil in pencils]
            isotropic = [component_isotropy_check(arr, basis) for basis in local + from_pencils]
            planes = distinct_planes(from_pencils)
        except MultiplicityError as exc:
            rows.append({"file": path.name, **_violation_payload(exc.point)})
            continue
        except (InputError, ValueError) as exc:
            rows.append({"file": path.name, "error": str(exc)})
            continue
        row = {
            "file": path.name,
            "label": arr.label,
            "r": arr.r,
            "s": s,
            "beta3": beta3(arr),
            "pencil_count": len(pencils),
            "resonance_pencil_components": planes,
            "pencil_eigenvalue_consistent": (s > 0) == bool(pencils),
            "isotropy_all_ok": all(isotropic),
        }
        rows.append(row)
        loaded.append((row, arr, (arr.r, tuple(sorted(point_census(intersection_points(arr)).items())))))
    shared = Counter(key for _, _, key in loaded)
    typed = [(row, combinatorial_type(arr)) for row, arr, key in loaded if shared[key] > 1]
    failures = [
        {"file": row["file"], "check": check}
        for row in rows
        if "error" not in row
        for check, holds in _FILE_CHECKS
        if not holds(row)
    ]
    pairs_checked = 0
    for (a, type_a), (b, type_b) in combinations(typed, 2):
        if type_a == type_b:
            pairs_checked += 1
            failures += ({"files": [a["file"], b["file"]], "check": check} for check, key in _PAIR_CHECKS if a[key] != b[key])
    _emit(
        {
            "rows": rows,
            "equal_type_pairs_checked": pairs_checked,
            "failures": failures,
            "all_consistent": not failures,
        }
    )
    return EXIT_OK if not failures else EXIT_INCONSISTENT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` keeps nothing from one call to the next: each returns a
    fresh namespace filled from the defaults.  The parser holds no command
    function: ``main`` looks ``cmd_<command>`` up when it runs, so a function
    later replaced on this module (a test's patch, a tracing wrapper) is the
    one called.
    """
    parser = _Parser(
        prog="pencilfiber",
        description="Exact arrangement invariants and cube Catalan equations over Q(w).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one arrangement")
    p.add_argument("path")

    p = sub.add_parser("pencils", help="pencil decompositions of one arrangement")
    p.add_argument("path")

    p = sub.add_parser("resonance", help="resonance components and optional weight probe")
    p.add_argument("path")
    p.add_argument("--vector", help="JSON list of field elements with sum zero")

    p = sub.add_parser("catalan", help="verify, generate or descend cube relations")
    p.add_argument("action", choices=["verify", "generate", "descend"])
    p.add_argument("path")
    p.add_argument("--steps", type=int, default=1)

    p = sub.add_parser("crosscheck", help="batch-run a directory and check consistency")
    p.add_argument("directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, ParseError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except MultiplicityError as exc:
        _emit(_violation_payload(exc.point))
        return EXIT_DOMAIN
    except ValueError as exc:
        # domain-level rejections (degenerate relations or pencils, ...)
        _emit({"error": "domain_error", "detail": str(exc)})
        return EXIT_DOMAIN


def run() -> None:
    """``main`` with its exit code.  A reader that closes stdout early gets
    Python's documented SIGPIPE handling: exit 1, and stdout pointed at
    devnull so the flush at interpreter exit stays silent."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    run()
