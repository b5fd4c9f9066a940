import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencilfiber
from decision_oracle import generic_member
from linalg_oracle import rref
from pencilfiber import cli, eisenstein, resonance
from pencilfiber.arrangement import (
    Arrangement,
    MultiplicityError,
    combinatorial_type,
    intersection_points,
    point_census,
    proj_transform,
)
from pencilfiber.cli import main
from pencilfiber.eisenstein import EisensteinNumber
from pencilfiber.fixtures import (
    braid,
    braid_pgl,
    ceva_two,
    concurrent_triple,
    conic_dual_lines,
    cuspidal_dual,
    dual_hesse,
    dual_hesse_pgl,
    four_concurrent,
    generic_nine,
    generic_six,
    near_pencil_six,
    triangle,
)
from pencilfiber.pencils import PencilDecomposition, beta3, find_pencils
from pencilfiber.resonance import (
    component_isotropy_check,
    pencil_basis,
    resonance_kernel_dim,
    triple_point_basis,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


@pytest.fixture()
def dual_hesse_file(tmp_path):
    return write_json(tmp_path / "dual_hesse.json", dual_hesse().to_json())


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_python(*args, stdout=subprocess.PIPE):
    """A fresh interpreter that imports this checkout's pencilfiber."""
    src = str(pathlib.Path(pencilfiber.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def run_entry_point(argv):
    """``python -m pencilfiber`` in a fresh interpreter, so ``run()`` sets the exit code."""
    return run_python("-m", "pencilfiber", *argv)


def test_analyze_dual_hesse(capsys, dual_hesse_file):
    code, out = run_cli(capsys, ["analyze", dual_hesse_file])
    assert code == 0
    report = json.loads(out)
    assert report["milnor"]["s"] == 2
    assert report["pencil_count"] == 4
    assert report["pencil_eigenvalue_consistent"] is True
    assert report["point_census"] == {"3": 12}
    assert report["milnor"]["char_poly"] == "(t-1)^7*(t^2+t+1)^2"


@pytest.mark.parametrize("lines", [[["1", "0", "0"]], [["1", "0", "0"], ["0", "1", "0"]]])
def test_analyze_one_or_two_lines_has_alexander_polynomial_one(capsys, tmp_path, lines):
    # r - 2 would print (t-1)^-1 for one line; the exponent is max(r - 2, 0)
    code, out = run_cli(capsys, ["analyze", write_json(tmp_path / "few.json", {"lines": lines})])
    assert code == 0
    milnor = json.loads(out)["milnor"]
    assert milnor["char_poly"] == "1"
    assert milnor["char_poly_exponents"] == {"t-1": 0, "t^2+t+1": 0}


def test_analyze_is_deterministic(capsys, dual_hesse_file):
    _, first = run_cli(capsys, ["analyze", dual_hesse_file])
    _, second = run_cli(capsys, ["analyze", dual_hesse_file])
    assert first == second


# stdout of analyze, pencils and resonance on four_concurrent, byte for byte
FOUR_CONCURRENT_VIOLATION = """{
  "error": "multiplicity_violation",
  "point": {
    "lines": [
      0,
      1,
      2,
      3
    ],
    "multiplicity": 4,
    "point": [
      "0",
      "0",
      "1"
    ]
  }
}
"""


@pytest.mark.parametrize("command", ["analyze", "pencils", "resonance"])
def test_analyze_multiplicity_violation(capsys, tmp_path, command):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = write_json(corpus / "bad.json", four_concurrent().to_json())
    code, out = run_cli(capsys, [command, path])
    assert code == 2
    assert out == FOUR_CONCURRENT_VIOLATION
    payload = json.loads(out)
    assert payload["error"] == "multiplicity_violation"
    assert payload["point"]["multiplicity"] == 4
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    assert json.loads(out)["rows"] == [{"file": "bad.json", **payload}]


NOT_UTF8 = b'{"label": "x\xff", "lines": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}'
OVER_NESTED = "[" * 100000


@pytest.mark.parametrize("content", [NOT_UTF8, OVER_NESTED.encode()], ids=["not_utf8", "over_nested"])
def test_unreadable_json_is_an_input_error(capsys, tmp_path, content):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    (corpus / "hostile.json").write_bytes(content)
    code = main(["analyze", str(corpus / "hostile.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "hostile.json is not valid JSON" in json.loads(captured.err)["error"]
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["file"] for row in rows] == ["concurrent.json", "hostile.json"]
    assert "error" not in rows[0]
    assert "hostile.json is not valid JSON" in rows[1]["error"]


@pytest.mark.parametrize(
    "argv", [["analyze"], ["pencils"], ["resonance"], ["catalan", "verify"]], ids=lambda argv: " ".join(argv)
)
def test_oversized_json_integer_is_an_input_error(capsys, tmp_path, argv):
    # json.load raises a plain ValueError for an integer literal past the
    # int-string conversion limit, not a JSONDecodeError
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "huge.json").write_text('{"lines": [[' + "1" * 5000 + ', 0, 0], [0, 1, 0], [0, 0, 1]]}')
    code = main([*argv, str(corpus / "huge.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert len(captured.err.splitlines()) == 1
    assert "huge.json is not valid JSON" in json.loads(captured.err)["error"]
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["file"] == "huge.json"
    assert "huge.json is not valid JSON" in row["error"]


def test_resonance_rejects_over_nested_vector(capsys, tmp_path):
    path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
    code, out = run_cli(capsys, ["resonance", path, "--vector", "[" * 5000])
    assert code == 1
    assert out == ""


def test_hostile_json_exits_without_a_traceback(tmp_path):
    path = tmp_path / "hostile.json"
    path.write_bytes(NOT_UTF8)
    proc = run_entry_point(["analyze", str(path)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "not valid JSON" in json.loads(proc.stderr)["error"]
    path.write_text(OVER_NESTED)
    proc = run_entry_point(["analyze", str(path)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "not valid JSON" in json.loads(proc.stderr)["error"]
    vector = str(write_json(tmp_path / "concurrent.json", concurrent_triple().to_json()))
    proc = run_entry_point(["resonance", vector, "--vector", "[" * 5000])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "--vector" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("digits", ["9" * 5000, "1/" + "7" * 5000], ids=["numerator", "denominator"])
def test_overlong_string_coefficient_exits_without_a_traceback(tmp_path, digits):
    # past the int-string conversion limit the digits raise ValueError, which
    # the arrangement parser reports like any other bad coefficient
    lines = [[digits, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    path = write_json(tmp_path / "long.json", {"label": "long", "lines": lines})
    proc = run_entry_point(["analyze", path])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "long.json is not a valid arrangement" in json.loads(proc.stderr)["error"]


def test_analyze_missing_file(capsys, tmp_path):
    code, _ = run_cli(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == 1
    proc = run_entry_point(["analyze", str(tmp_path / "nope.json")])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "nope.json" in json.loads(proc.stderr)["error"]


def test_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalan", "generate", "x.json", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        (["catalan", "frobnicate", "x.json"], "argument action: invalid choice: 'frobnicate'"),
        (["frobnicate", "x.json"], "argument command: invalid choice: 'frobnicate'"),
        (["analyze"], "the following arguments are required: path"),
        (["catalan", "verify"], "the following arguments are required: path"),
        ([], "the following arguments are required: command"),
        (["analyze", "x.json", "y.json"], "unrecognized arguments: y.json"),
    ],
    ids=["bad_steps", "unknown_action", "unknown_command", "missing_path", "missing_catalan_path", "no_command", "extra"],
)
def test_usage_error_is_an_input_error(argv, message):
    # an input error like any other: exit 1, no stdout, one JSON line on stderr
    proc = run_entry_point(argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert message in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("argv", [["--help"], ["catalan", "--help"]])
def test_help_exits_zero(argv):
    proc = run_entry_point(argv)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: pencilfiber")


def _relation_of(univariate, poly):
    return {"univariate": univariate, "F": [poly] * 3, "sol": [poly] * 3}


def _form(degree, *terms):
    return {"degree": degree, "terms": [{"exp": exp, "c": c} for exp, c in terms]}


def _relation_listing_an_exponent_twice():
    # 5x + x - x + 0 is not zero; reading only the last x term, x - x + 0 is
    one = _form(0, ([0, 0, 0], "1"))
    F = [_form(1, ([1, 0, 0], "5"), ([1, 0, 0], "1")), _form(1, ([1, 0, 0], "-1")), _form(1)]
    return {"univariate": False, "F": F, "sol": [one] * 3}


def _pencil_listing_an_exponent_twice():
    # x + y - (x + y) = 0 when only the last of the two x terms is read
    data = find_pencils(concurrent_triple())[0].to_json()
    data["products"][0] = _form(1, ([1, 0, 0], "7"), ([1, 0, 0], "1"))
    return data


@pytest.mark.parametrize(
    "command, what, payload, message",
    [
        ("verify", "relation", {"F": [[]], "sol": []}, "missing key 'univariate'"),
        ("verify", "relation", [], "a relation must be a JSON object, not list"),
        ("verify", "relation", _relation_of(True, []), "a polynomial must be a JSON object, not list"),
        ("verify", "relation", _relation_of(False, []), "a form must be a JSON object, not list"),
        ("verify", "relation", _relation_of(False, {"degree": 0, "terms": [[]]}), "a term must be a JSON object, not list"),
        ("descend", "descent instance", {"relation": [], "known_factors": []}, "a relation must be a JSON object, not list"),
        ("descend", "descent instance", [], "a descent instance must be a JSON object, not list"),
        ("descend", "descent instance", {"relation": _relation_of(True, {"coeffs": ["1"]})}, "missing key 'known_factors'"),
        ("generate", "pencil", [], "a pencil must be a JSON object, not list"),
        ("generate", "pencil", {"classes": []}, "missing key 'lambdas'"),
        ("verify", "relation", _relation_listing_an_exponent_twice(), "exponent (1, 0, 0) is listed twice"),
        ("verify", "relation", _relation_of(False, _form(1, ([1, 0], "1"))), "exp must have three entries, not 2"),
        ("verify", "relation", _relation_of(False, _form(1, ([1, 0, 0, 0], "1"))), "exp must have three entries, not 4"),
        ("generate", "pencil", _pencil_listing_an_exponent_twice(), "exponent (1, 0, 0) is listed twice"),
    ],
)
def test_catalan_loader_names_what_is_wrong(capsys, tmp_path, command, what, payload, message):
    path = write_json(tmp_path / "input.json", payload)
    code = main(["catalan", command, path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": f"{path} is not a valid {what}: {message}"}


@pytest.mark.parametrize("command", ["analyze", "pencils", "resonance"])
def test_empty_arrangement_is_an_input_error(capsys, tmp_path, command):
    path = write_json(tmp_path / "empty.json", {"label": "empty", "lines": []})
    code, out = run_cli(capsys, [command, path])
    assert code == 1
    assert out == ""


def test_pencils_command(capsys, dual_hesse_file):
    code, out = run_cli(capsys, ["pencils", dual_hesse_file])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pencils"]) == 4


def test_pencils_command_has_no_line_cap(capsys, tmp_path):
    path = write_json(tmp_path / "generic_18.json", conic_dual_lines(list(range(1, 19)), "generic_18").to_json())
    code, out = run_cli(capsys, ["pencils", path])
    assert code == 0
    assert json.loads(out)["pencils"] == []


@pytest.mark.parametrize("value", [0.1, True])
def test_analyze_rejects_inexact_coefficient(capsys, tmp_path, value):
    lines = [[value, 1, 0], ["0", "1", "0"], ["0", "0", "1"]]
    path = write_json(tmp_path / "inexact.json", {"label": "inexact", "lines": lines})
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 1
    assert out == ""


def test_analyze_rejects_lines_that_are_not_lists(capsys, tmp_path):
    path = write_json(tmp_path / "strings.json", {"label": "strings", "lines": ["100", "010", "001"]})
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("label", [["x"], None, 7, {"x": 1}])
def test_analyze_rejects_label_that_is_not_a_string(capsys, tmp_path, label):
    path = write_json(tmp_path / "labelled.json", dict(concurrent_triple().to_json(), label=label))
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 1
    assert out == ""


def test_crosscheck_records_label_that_is_not_a_string(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    write_json(corpus / "listed.json", dict(concurrent_triple().to_json(), label=["x"]))
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["file"] for row in rows] == ["concurrent.json", "listed.json"]
    assert "label must be a JSON string" in rows[1]["error"]


def test_analyze_label_may_be_absent(capsys, tmp_path):
    path = write_json(tmp_path / "unlabelled.json", {"lines": concurrent_triple().to_json()["lines"]})
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert json.loads(out)["label"] == ""


@pytest.mark.parametrize("command", ["analyze", "pencils", "resonance"])
@pytest.mark.parametrize("payload", [[], "x"])
def test_arrangement_must_be_a_json_object(capsys, tmp_path, command, payload):
    path = write_json(tmp_path / "not_an_object.json", payload)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "must be a JSON object" in json.loads(captured.err)["error"]


def test_crosscheck_records_arrangement_that_is_not_an_object(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    write_json(corpus / "list.json", [])
    write_json(corpus / "string.json", "x")
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["file"] for row in rows] == ["concurrent.json", "list.json", "string.json"]
    assert "error" not in rows[0]
    assert all("must be a JSON object" in row["error"] for row in rows[1:])


def test_resonance_vector_must_be_a_list(capsys, tmp_path):
    path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
    code, out = run_cli(capsys, ["resonance", path, "--vector", '{"1": 0, "-1": 0, "0": 0}'])
    assert code == 1
    assert out == ""


def test_resonance_rejects_float_vector(capsys, tmp_path):
    path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
    code, out = run_cli(capsys, ["resonance", path, "--vector", "[0.5, -0.5, 0]"])
    assert code == 1
    assert out == ""


def test_resonance_probe_vector(capsys, tmp_path):
    path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
    code, out = run_cli(capsys, ["resonance", path, "--vector", '["1", "-1", "0"]'])
    assert code == 0
    payload = json.loads(out)
    assert payload["probe"]["kernel_dim"] == 2
    assert payload["probe"]["resonant"] is True
    code, out = run_cli(capsys, ["resonance", path, "--vector", '["1", "w", "-1-w"]'])
    assert code == 0
    assert json.loads(out)["probe"]["kernel_dim"] == 2


def test_resonance_rejects_bad_vector(capsys, tmp_path):
    path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
    code, _ = run_cli(capsys, ["resonance", path, "--vector", '["1", "1", "0"]'])
    assert code == 2


def test_catalan_verify(capsys, tmp_path):
    pencil = find_pencils(concurrent_triple())[0]
    from pencilfiber.catalan import base_solution

    rel = base_solution(pencil)
    path = write_json(tmp_path / "rel.json", rel.to_json())
    code, out = run_cli(capsys, ["catalan", "verify", path])
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_catalan_verify_invalid(capsys, tmp_path):
    pencil = find_pencils(concurrent_triple())[0]
    from pencilfiber.catalan import base_solution

    rel = base_solution(pencil)
    broken = rel.to_json()
    broken["sol"][0]["terms"][0]["c"] = "2"
    path = write_json(tmp_path / "rel.json", broken)
    code, out = run_cli(capsys, ["catalan", "verify", path])
    assert code == 0
    assert json.loads(out) == {"valid": False}


def _univariate_relation_with_string_coeffs():
    # 1*1^3 + 1*1^3 - 2*1^3 = 0 would verify if the strings were read as lists
    F = [{"coeffs": "1"}, {"coeffs": "1"}, {"coeffs": ["-2"]}]
    return {"univariate": True, "F": F, "sol": [{"coeffs": ["1"]}] * 3}


def _plane_relation_with_string_exponent():
    from pencilfiber.catalan import base_solution

    broken = base_solution(find_pencils(concurrent_triple())[0]).to_json()
    term = broken["sol"][0]["terms"][0]
    term["exp"] = "".join(str(e) for e in term["exp"])
    return broken


@pytest.mark.parametrize("build", [_univariate_relation_with_string_coeffs, _plane_relation_with_string_exponent])
def test_catalan_verify_rejects_strings_for_lists(capsys, tmp_path, build):
    path = write_json(tmp_path / "rel.json", build())
    code, out = run_cli(capsys, ["catalan", "verify", path])
    assert code == 1
    assert out == ""


def _univariate_relation_labelled_false():
    # a relation that verifies as univariate, so reading "false" as true would pass it
    one = ["1"]
    F = [{"coeffs": one}, {"coeffs": one}, {"coeffs": ["-2"]}]
    return {"univariate": "false", "F": F, "sol": [{"coeffs": one}] * 3}


def _plane_relation_with_float_exponent():
    from pencilfiber.catalan import base_solution

    broken = base_solution(find_pencils(concurrent_triple())[0]).to_json()
    term = broken["sol"][0]["terms"][0]
    term["exp"] = [float(e) for e in term["exp"]]
    return broken


@pytest.mark.parametrize("build", [_univariate_relation_labelled_false, _plane_relation_with_float_exponent])
def test_catalan_verify_rejects_non_bool_and_non_integer_fields(capsys, tmp_path, build):
    path = write_json(tmp_path / "rel.json", build())
    code, out = run_cli(capsys, ["catalan", "verify", path])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("n_F, n_sol", [(2, 3), (3, 4), (3, 2)])
def test_catalan_verify_requires_three_coefficients_and_solutions(capsys, tmp_path, n_F, n_sol):
    # 1*1^3 - 1*1^3 = 0 would verify if the lists were zipped to the shorter length
    F = [{"coeffs": ["1"]}, {"coeffs": ["-1"]}, {"coeffs": ["0"]}, {"coeffs": ["0"]}][:n_F]
    rel = {"univariate": True, "F": F, "sol": [{"coeffs": ["1"]}] * n_sol}
    path = write_json(tmp_path / "rel.json", rel)
    code, out = run_cli(capsys, ["catalan", "verify", path])
    assert code == 1
    assert out == ""


def test_catalan_descend_requires_three_coefficients_and_solutions(capsys, tmp_path):
    from pencilfiber.forms import UniPoly

    one, t = UniPoly.one(), UniPoly.t()
    rel = {"univariate": True, "F": [one.to_json(), one.to_json()], "sol": [one.to_json(), t.to_json()]}
    path = write_json(tmp_path / "descend.json", {"relation": rel, "known_factors": [(one + t).to_json()]})
    code, out = run_cli(capsys, ["catalan", "descend", path])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("lambdas", [["0", "0", "0"], ["1", "0", "-1"]])
def test_catalan_generate_rejects_zero_lambda(capsys, tmp_path, lambdas):
    data = find_pencils(concurrent_triple())[0].to_json()
    data["lambdas"] = lambdas
    path = write_json(tmp_path / "pencil.json", data)
    code, out = run_cli(capsys, ["catalan", "generate", path])
    assert code == 1
    assert out == ""


def _pencil_with_zero_products(zeros, degree):
    data = find_pencils(concurrent_triple())[0].to_json()
    data["lambdas"] = ["1", "1", "1"]
    for i in zeros:
        data["products"][i] = {"degree": degree, "terms": []}
    return data


@pytest.mark.parametrize("steps", ["1", "2"])
@pytest.mark.parametrize(
    "data",
    [
        _pencil_with_zero_products([0, 1, 2], 0),
        _pencil_with_zero_products([0, 1, 2], 1),
        _pencil_with_zero_products([1], 1),
    ],
    ids=["all-zero-degree-0", "all-zero-degree-1", "one-zero"],
)
def test_pencil_with_a_zero_product_is_an_input_error(capsys, tmp_path, data, steps):
    path = write_json(tmp_path / "pencil.json", data)
    code = main(["catalan", "generate", path, "--steps", steps])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "every product of a pencil is nonzero" in json.loads(line)["error"]


@pytest.mark.parametrize("steps", ["1", "2"])
def test_pencil_with_constant_products_is_an_input_error(capsys, tmp_path, steps):
    # 1*2 + 1*(-1) - 1*1 = 0, but doubling constants cannot raise the
    # solution degree, so --steps 2 used to die on an uncaught AssertionError
    products = [{"degree": 0, "terms": [{"c": c, "exp": [0, 0, 0]}]} for c in ("2", "-1", "1")]
    data = {"classes": [[0], [1], [2]], "lambdas": ["1", "1", "-1"], "products": products}
    path = write_json(tmp_path / "pencil.json", data)
    code = main(["catalan", "generate", path, "--steps", steps])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "every product of a pencil has positive degree" in json.loads(line)["error"]


@pytest.mark.parametrize("index", [0.5, 0.0])
def test_catalan_generate_rejects_non_integer_class_index(capsys, tmp_path, index):
    data = find_pencils(concurrent_triple())[0].to_json()
    data["classes"][0] = [index]
    path = write_json(tmp_path / "pencil.json", data)
    code, out = run_cli(capsys, ["catalan", "generate", path])
    assert code == 1
    assert out == ""


def test_catalan_generate(capsys, tmp_path):
    pencil = find_pencils(concurrent_triple())[0]
    path = write_json(tmp_path / "pencil.json", pencil.to_json())
    code, out = run_cli(capsys, ["catalan", "generate", path, "--steps", "3"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["relations"]) == 3
    degrees = payload["solution_degrees"]
    assert degrees == sorted(degrees) and len(set(degrees)) == 3


def test_catalan_descend(capsys, tmp_path):
    from pencilfiber.eisenstein import OMEGA, OMEGA2
    from pencilfiber.forms import UniPoly

    one = UniPoly.one()
    t = UniPoly.t()
    rel = {
        "univariate": True,
        "F": [one.to_json(), one.to_json(), (-(one + t**3)).to_json()],
        "sol": [one.to_json(), t.to_json(), one.to_json()],
    }
    known = [(one + t).to_json(), (one + t * OMEGA).to_json(), (one + t * OMEGA2).to_json()]
    path = write_json(tmp_path / "descend.json", {"relation": rel, "known_factors": known})
    code, out = run_cli(capsys, ["catalan", "descend", path])
    assert code == 0
    payload = json.loads(out)
    assert all(sol == {"coeffs": ["1"]} for sol in payload["relation"]["sol"])


def test_catalan_descend_obstruction(capsys, tmp_path):
    from pencilfiber.forms import UniPoly

    one = UniPoly.one()
    t = UniPoly.t()
    rel = {
        "univariate": True,
        "F": [one.to_json(), one.to_json(), (-(one + t**3)).to_json()],
        "sol": [one.to_json(), t.to_json(), one.to_json()],
    }
    path = write_json(
        tmp_path / "descend.json", {"relation": rel, "known_factors": [(one + t).to_json()]}
    )
    code, out = run_cli(capsys, ["catalan", "descend", path])
    assert code == 2
    assert json.loads(out)["error"] == "descent_obstruction"


@pytest.mark.parametrize("known_factors", [{}, ""])
def test_catalan_descend_requires_a_list_of_known_factors(capsys, tmp_path, known_factors):
    # an object or a string is not "no factors": it is not a valid instance
    from pencilfiber.forms import UniPoly

    one, t = UniPoly.one(), UniPoly.t()
    rel = {
        "univariate": True,
        "F": [one.to_json(), one.to_json(), (-(one + t**3)).to_json()],
        "sol": [one.to_json(), t.to_json(), one.to_json()],
    }
    path = write_json(tmp_path / "descend.json", {"relation": rel, "known_factors": known_factors})
    code, out = run_cli(capsys, ["catalan", "descend", path])
    assert code == 1
    assert out == ""


def test_catalan_generate_needs_pencil_members_summing_to_zero(capsys, tmp_path):
    data = find_pencils(concurrent_triple())[0].to_json()
    data["lambdas"] = ["1", "1", "1"]
    path = write_json(tmp_path / "pencil.json", data)
    code, out = run_cli(capsys, ["catalan", "generate", path])
    assert code == 2
    assert json.loads(out) == {"error": "domain_error", "detail": "doubling needs G1 + G2 = G3 exactly"}


def test_crosscheck_on_small_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "dual_hesse.json", dual_hesse().to_json())
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    write_json(corpus / "bad.json", four_concurrent().to_json())
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0  # per-file domain errors are collected, not fatal
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    errors = [row for row in payload["rows"] if "error" in row]
    assert len(errors) == 1 and errors[0]["file"] == "bad.json"


def test_crosscheck_records_empty_arrangement(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    write_json(corpus / "empty.json", {"label": "empty", "lines": []})
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["file"] for row in rows] == ["concurrent.json", "empty.json"]
    assert "at least one line" in rows[1]["error"]


def test_crosscheck_empty_directory(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out = run_cli(capsys, ["crosscheck", str(empty)])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [] and payload["all_consistent"] is True


def test_crosscheck_shipped_corpus(capsys, corpus_dir):
    code, out = run_cli(capsys, ["crosscheck", str(corpus_dir)])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    assert len(payload["rows"]) >= 10
    assert payload["equal_type_pairs_checked"] >= 3
    assert all(row["beta3"] == row["s"] for row in payload["rows"])
    proc = run_entry_point(["crosscheck", str(corpus_dir)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_crosscheck_types_only_files_that_share_r_and_census(capsys, corpus_dir, monkeypatch):
    """A type fixes r and the number t_3 of triple points, and with them the
    census, so only files sharing (r, t_3) are typed."""
    typed = []
    original = cli.combinatorial_type

    def recording(arr):
        typed.append(arr.label)
        return original(arr)

    monkeypatch.setattr(cli, "combinatorial_type", recording)
    code, out = run_cli(capsys, ["crosscheck", str(corpus_dir)])
    assert code == 0
    assert sorted(typed) == ["braid", "braid_pgl", "ceva_2", "dual_hesse", "dual_hesse_pgl"]
    assert json.loads(out)["equal_type_pairs_checked"] == 4


def test_crosscheck_names_each_beta3_check(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    monkeypatch.setattr(cli, "beta3", lambda arr: 3)
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 3
    payload = json.loads(out)
    assert payload["rows"][0]["beta3"] == 3
    assert payload["all_consistent"] is False
    assert [f["check"] for f in payload["failures"]] == [
        "s_equals_beta3",
        "beta3_at_most_2",
        "pencil_count_equals_beta3_formula",
    ]


def test_crosscheck_counts_a_repeated_pencil_component_once(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "concurrent.json", concurrent_triple().to_json())
    pencils = cli.find_pencils

    def repeated(arr):
        (pencil,) = pencils(arr)
        order = (1, 2, 0)
        moved = dataclasses.replace(
            pencil,
            classes=tuple(pencil.classes[i] for i in order),
            tables=tuple(pencil.tables[i] for i in order),
            scales=tuple(pencil.scales[i] for i in order),
            lam=tuple(pencil.lam[i] for i in order),
        )
        return [pencil, moved]

    monkeypatch.setattr(cli, "find_pencils", repeated)
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 3
    assert out == _crosscheck_oracle(corpus)
    payload = json.loads(out)
    assert (payload["rows"][0]["pencil_count"], payload["rows"][0]["resonance_pencil_components"]) == (2, 1)
    assert "pencil_component_census" in [f["check"] for f in payload["failures"]]


@pytest.mark.parametrize("value", ["\u0661", "\uff11/\uff12", "\u0663*w"])
def test_analyze_rejects_digits_that_are_not_ascii(capsys, tmp_path, value):
    lines = [[value, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    path = write_json(tmp_path / "digits.json", {"label": "digits", "lines": lines})
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 1
    assert out == ""


# --- crosscheck against the full analysis ------------------------------------------


def _distinct_pencil_planes(r, components):
    """How many distinct planes the pencil components span; a plane is
    named by the RREF of any basis of it."""
    planes = set()
    for component in components:
        chi = [[int(l in cls) for l in range(r)] for cls in component["classes"]]
        basis = [[EisensteinNumber(x - y) for x, y in zip(chi[n], chi[n + 1])] for n in (0, 1)]
        planes.add(tuple(map(tuple, rref(basis)[0])))
    return len(planes)


def _crosscheck_oracle(directory):
    """crosscheck's stdout derived from the full ``analyze`` payload of each file."""
    rows, analyses, types = [], {}, {}
    for path in sorted(directory.glob("*.json")):
        try:
            arr = cli._load_arrangement(str(path))
            payload = cli._analysis_payload(arr)
        except MultiplicityError as exc:
            rows.append({"file": path.name, "error": "multiplicity_violation", "point": exc.point.to_json()})
            continue
        except (cli.InputError, ValueError) as exc:
            rows.append({"file": path.name, "error": str(exc)})
            continue
        analyses[path.name] = payload
        types[path.name] = combinatorial_type(arr)
        resonance = payload["resonance"]
        components = resonance["local_components"] + resonance["pencil_components"]
        rows.append(
            {
                "file": path.name,
                "label": payload["label"],
                "r": payload["r"],
                "s": payload["milnor"]["s"],
                "beta3": beta3(arr),
                "pencil_count": payload["pencil_count"],
                "resonance_pencil_components": _distinct_pencil_planes(arr.r, resonance["pencil_components"]),
                "pencil_eigenvalue_consistent": payload["pencil_eigenvalue_consistent"],
                "isotropy_all_ok": all(c["isotropic"] for c in components),
            }
        )
    failures = []
    for row in rows:
        if "error" in row:
            continue
        checks = [
            ("eigenvalue_vs_pencil", row["pencil_eigenvalue_consistent"]),
            ("component_isotropy", row["isotropy_all_ok"]),
            ("pencil_component_census", row["resonance_pencil_components"] == row["pencil_count"]),
            ("s_equals_beta3", row["s"] == row["beta3"]),
            ("beta3_at_most_2", row["beta3"] <= 2),
            ("pencil_count_equals_beta3_formula", row["pencil_count"] == (3 ** row["beta3"] - 1) // 2),
        ]
        failures += [{"file": row["file"], "check": check} for check, ok in checks if not ok]
    names = sorted(analyses)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if types[a] == types[b]]
    for a, b in pairs:
        if analyses[a]["milnor"]["s"] != analyses[b]["milnor"]["s"]:
            failures.append({"files": [a, b], "check": "equal_type_equal_s"})
        if analyses[a]["pencil_count"] != analyses[b]["pencil_count"]:
            failures.append({"files": [a, b], "check": "equal_type_equal_pencil_count"})
    payload = {"rows": rows, "equal_type_pairs_checked": len(pairs), "failures": failures, "all_consistent": not failures}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def moved_corpus(corpus_dir, tmp_path_factory):
    """Every corpus file with its lines permuted and moved by a seeded projective transform."""
    rng = random.Random(12)
    moved = tmp_path_factory.mktemp("moved")
    for path in sorted(corpus_dir.glob("*.json")):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        order = list(range(arr.r))
        rng.shuffle(order)
        while True:
            matrix = [[EisensteinNumber(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(3)] for _ in range(3)]
            try:
                image = proj_transform(arr.reordered(order), matrix)
            except ValueError:  # singular
                continue
            break
        write_json(moved / path.name, image.to_json())
    return moved


@pytest.mark.parametrize("which", ["shipped", "moved", "perturbed"])
def test_crosscheck_matches_the_full_analysis(capsys, corpus_dir, moved_corpus, monkeypatch, which):
    directory = moved_corpus if which == "moved" else corpus_dir
    if which == "perturbed":
        # s one higher on braid_pgl and one pencil fewer on dual_hesse_pgl make
        # per-file and equal-type pair checks fail, so failures are compared too
        report, pencils = cli.milnor_report, cli.find_pencils

        def bumped_report(arr):
            out = report(arr)
            return dataclasses.replace(out, s=out.s + (arr.label == "braid_pgl"))

        def fewer_pencils(arr):
            return pencils(arr)[: -1 if arr.label == "dual_hesse_pgl" else None]

        monkeypatch.setattr(cli, "milnor_report", bumped_report)
        monkeypatch.setattr(cli, "find_pencils", fewer_pencils)
    code, out = run_cli(capsys, ["crosscheck", str(directory)])
    assert out == _crosscheck_oracle(directory)
    checks = {f["check"] for f in json.loads(out)["failures"]}
    if which == "perturbed":
        assert code == 3 and {"equal_type_equal_s", "equal_type_equal_pencil_count"} <= checks
    else:
        assert code == 0 and not checks


def test_crosscheck_fails_each_file_with_a_component_that_is_not_isotropic(capsys, corpus_dir, monkeypatch):
    with_component, candidates = set(), 0
    for path in corpus_dir.glob("*.json"):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        count = sum(pt.multiplicity == 3 for pt in intersection_points(arr)) + len(find_pencils(arr))
        if count:
            with_component.add(path.name)
        candidates += count
    checked = []

    def not_isotropic(arr, basis):
        checked.append(basis)
        return False

    monkeypatch.setattr(cli, "component_isotropy_check", not_isotropic)
    code, out = run_cli(capsys, ["crosscheck", str(corpus_dir)])
    assert code == 3
    named = {f["file"] for f in json.loads(out)["failures"] if f["check"] == "component_isotropy"}
    assert named == with_component
    assert 0 < len(with_component) < len(list(corpus_dir.glob("*.json")))
    assert len(checked) == candidates  # every triple point and every pencil


class KernelEliminationCalled(Exception):
    pass


def test_crosscheck_computes_no_kernel_dimension(capsys, corpus_dir, dual_hesse_file, monkeypatch):
    _, expected = run_cli(capsys, ["crosscheck", str(corpus_dir)])
    _, analyzed = run_cli(capsys, ["analyze", dual_hesse_file])

    def refuse(rows):
        raise KernelEliminationCalled

    # every kernel dimension is solved by the elimination of the Sigma-rows
    # in ``resonance_kernel_dim``; crosscheck's isotropy checks only apply
    # the rule at each point, and analyze prints every candidate's kernel
    # dimension from the rule
    monkeypatch.setattr(resonance, "rank_pairs", refuse)
    assert run_cli(capsys, ["crosscheck", str(corpus_dir)]) == (0, expected)
    assert run_cli(capsys, ["analyze", dual_hesse_file]) == (0, analyzed)
    with pytest.raises(KernelEliminationCalled):
        resonance.resonance_kernel_dim(dual_hesse(), [(1, 0), (-1, 0)] + [(0, 0)] * 7)


def test_analyze_and_resonance_make_no_rule_pass(capsys, corpus_dir, monkeypatch):
    """Both printed fields of every candidate, local or pencil, come from
    Brieskorn's rule alone: no pass over any point."""
    passes = []
    rules = resonance._point_rules

    def counted(points, a):
        passes.append(a)
        return rules(points, a)

    monkeypatch.setattr(resonance, "_point_rules", counted)
    pencil = local = 0
    for path in sorted(corpus_dir.glob("*.json")):
        code, out = run_cli(capsys, ["analyze", str(path)])
        payload = json.loads(out)["resonance"]
        assert (code, passes) == (0, []), path.name
        assert run_cli(capsys, ["resonance", str(path)]) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert passes == [], path.name
        pencil += len(payload["pencil_components"])
        local += len(payload["local_components"])
    assert (pencil, local) == (12, 38)


def _payload_through_the_pass(arr, pencils):
    """The resonance payload with both fields of every candidate, local and
    pencil, from the public isotropy check and a kernel solve of the generic
    member; every candidate must give (True, 2)."""

    def fields(basis, what):
        found = (component_isotropy_check(arr, basis), resonance_kernel_dim(arr, generic_member(basis)))
        assert found == (True, 2), (arr.label, what)
        return {"isotropic": found[0], "kernel_dim": found[1]}

    relations = sum(pt.multiplicity == 3 for pt in intersection_points(arr))
    return {
        "quotient_rank": len(list(combinations(range(arr.r), 2))) - relations,
        "relation_count": relations,
        "local_components": [
            {"lines": list(pt.lines), **fields(triple_point_basis(pt, arr.r), pt.lines)}
            for pt in intersection_points(arr)
            if pt.multiplicity == 3
        ],
        "pencil_components": [
            {"classes": [list(c) for c in p.classes], **fields(pencil_basis(p, arr.r), p.classes)} for p in pencils
        ],
    }


def test_local_fields_from_the_rule_equal_one_pass_per_point(corpus_dir):
    """For every triple point and every pencil of the corpus, the fixtures,
    the 511 sub-arrangements of dual_hesse and cuspidal_dual at r = 3 to 91,
    the isotropy check and the generic member's kernel solve give
    (True, 2), and the payload printed from the rule equals the one built
    through those passes."""
    arrangements = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    builders = (braid, braid_pgl, ceva_two, concurrent_triple, dual_hesse, dual_hesse_pgl, generic_nine, generic_six, near_pencil_six, triangle)
    arrangements += [b() for b in builders]
    hesse = dual_hesse()
    arrangements += [Arrangement([hesse.lines[i] for i in keep]) for k in range(1, 10) for keep in combinations(range(9), k)]
    arrangements += [cuspidal_dual(m) for m in (1, 2, 3, 5, 7, 10, 15, 20, 30, 45)]
    local = pencil = 0
    for arr in arrangements:
        pencils = find_pencils(arr)
        payload = cli._resonance_payload(arr, pencils)
        assert payload == _payload_through_the_pass(arr, pencils), arr.label
        local += len(payload["local_components"])
        pencil += len(payload["pencil_components"])
    assert local == 38 + 38 + 768 + 1872  # corpus, fixtures, sub-arrangements, cuspidal duals
    assert pencil == 12 + 12 + 16 + 1  # the same four sources


def _swapped(pencil, r):
    """The pencil's basis with the first line of its first class and the
    first line of its second class exchanged."""
    first, second, third = [list(c) for c in pencil.classes]
    first[0], second[0] = second[0], first[0]
    return pencil_basis(dataclasses.replace(pencil, classes=(tuple(first), tuple(second), tuple(third))), r)


@pytest.mark.parametrize("build", [braid, dual_hesse], ids=["braid", "dual_hesse"])
def test_a_class_with_two_lines_swapped_is_not_isotropic(build):
    """The fields printed from the rule hold for a pencil's level sets only:
    the same partition with two lines swapped between classes is not
    isotropic through the pass, so the oracle above can fail."""
    arr = build()
    pencils = find_pencils(arr)
    assert pencils
    for pencil in pencils:
        assert component_isotropy_check(arr, pencil_basis(pencil, arr.r))
        assert not component_isotropy_check(arr, _swapped(pencil, arr.r)), pencil.classes


class FieldArithmeticCalled(Exception):
    pass


def test_resonance_payload_does_no_field_arithmetic(corpus_dir, monkeypatch):
    # the candidate bases and their generic members are integer vectors, and
    # every probe scales them into Z[w]: no Q(w) product, sum or negation
    def refuse(*args):
        raise FieldArithmeticCalled

    for path in sorted(corpus_dir.glob("*.json")):
        arr = Arrangement.from_json(json.loads(path.read_text()))
        pencils = find_pencils(arr)
        expected = cli._resonance_payload(arr, pencils)
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            monkeypatch.setattr(EisensteinNumber, name, refuse)
        assert cli._resonance_payload(arr, pencils) == expected, path.name
        monkeypatch.undo()


# --- scale ------------------------------------------------------------------------


def _timed_cuspidal_analyze(capsys, tmp_path, m):
    """The analyze report of ``cuspidal_dual(m)`` and its in-process wall time."""
    path = write_json(tmp_path / f"cuspidal_dual_{2 * m + 1}.json", cuspidal_dual(m).to_json())
    start = time.perf_counter()
    code, out = run_cli(capsys, ["analyze", path])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out)
    assert (report["milnor"]["s"], report["pencil_count"]) == (0, 0)
    return report, elapsed


def test_analyze_61_cuspidal_lines_within_its_gate(capsys, tmp_path):
    """450 triple points, each a local component whose two fields Brieskorn's
    rule gives with no pass, and 1830 crossings grouped by the canonical
    triples of their cross products.  About 0.04 s in this test, on a cold
    first call, on a shared 2-vCPU host (python 3.11.7); the gate leaves CI
    headroom."""
    report, elapsed = _timed_cuspidal_analyze(capsys, tmp_path, 30)
    assert report["point_census"] == {"3": 450, "2": 480}
    assert len(report["resonance"]["local_components"]) == 450
    assert elapsed < 2.0


def test_analyze_91_cuspidal_lines_within_its_gate(capsys, tmp_path):
    """1013 triple points, each a local component printed from the rule as
    isotropic with a 2-dimensional kernel, and 4095 crossings grouped by
    the canonical triples of their cross products.  About 0.03 s in this
    test on a shared 2-vCPU host (python 3.11.7); the gate leaves CI
    headroom."""
    report, elapsed = _timed_cuspidal_analyze(capsys, tmp_path, 45)
    assert report["point_census"] == {"3": 1013, "2": 1056}
    local = report["resonance"]["local_components"]
    assert len(local) == 1013
    assert {entry["kernel_dim"] for entry in local} == {2}
    assert elapsed < 3.0


def test_analyze_301_cuspidal_lines_within_its_gate(capsys, tmp_path):
    """45150 crossings in 22650 points, 11250 of them triple: incidence in
    one pass keyed by the canonical triples of the cross products, which
    reads two of the three pairs of each triple point, and no rule pass,
    since there is no pencil.  About 0.43 s in this test on a shared 2-vCPU
    host (python 3.11.7), 0.58-0.70 s before the canonical triple was
    written out and the sort key skipped the double points, and 12 s with
    an O(r^3) exact scan and a pass per local component."""
    report, elapsed = _timed_cuspidal_analyze(capsys, tmp_path, 150)
    assert report["point_census"] == {"3": 11250, "2": 11400}
    assert len(report["resonance"]["local_components"]) == 11250
    assert elapsed < 1.5


def test_analyze_601_cuspidal_lines_within_its_gate(capsys, tmp_path):
    """180300 crossings in 90300 points, 45000 of them triple, each a local
    component printed from the rule; the sort key prints coordinates only
    for the triple points, and the double points stay in the order of the
    pass.  About 1.9-2.05 s in this test on a shared 2-vCPU host (python
    3.11.7), against 2.76-2.96 s before; the gate is about 4 times that."""
    report, elapsed = _timed_cuspidal_analyze(capsys, tmp_path, 300)
    assert report["point_census"] == {"3": 45000, "2": 45300}
    assert len(report["resonance"]["local_components"]) == 45000
    assert elapsed < 8.0


@pytest.mark.parametrize("m, census", [(13, {"3": 85, "2": 96}), (16, {"3": 128, "2": 144})], ids=["r=27", "r=33"])
def test_analyze_cuspidal_lines_with_3_dividing_r_within_its_gate(capsys, tmp_path, m, census):
    """With 3 | r superabundance runs: 85 triple points against 136
    monomials of degree 15 at r = 27, 128 against 210 of degree 19 at
    r = 33.  Full row rank mod a prime certifies s = 0, where Bareiss over
    Z[w] took 17 to 22 s at r = 27 and did not finish in 200 s at r = 33.
    About 0.13 s and 0.33 s on a shared 2-vCPU host (python 3.11); the gate
    leaves CI headroom."""
    report, elapsed = _timed_cuspidal_analyze(capsys, tmp_path, m)
    assert report["point_census"] == census
    assert elapsed < 2.0


def test_printed_census_is_the_scanned_census(corpus_dir):
    """``analyze`` prints the census from r and the triple points alone; the
    public scan of every point is the reference, on the corpus, every
    fixture that passes the multiplicity gate and cuspidal_dual at r = 7
    and 61."""
    corpus = [Arrangement.from_json(json.loads(p.read_text())) for p in sorted(corpus_dir.glob("*.json"))]
    fixtures = [dual_hesse, dual_hesse_pgl, braid, braid_pgl, ceva_two, triangle, concurrent_triple]
    fixtures += [near_pencil_six, generic_six, generic_nine]
    for arr in corpus + [make() for make in fixtures] + [cuspidal_dual(3), cuspidal_dual(30)]:
        scanned = point_census(intersection_points(arr))
        assert cli._analysis_payload(arr)["point_census"] == {str(m): n for m, n in scanned.items()}, arr.label


# --- the stdout contract ----------------------------------------------------------

# sha256 of the stdout of each command, computed by running it in-process on
# the shipped corpus; any change to these bytes is a change of wire format.
# A key is (command and options, file): the file is a corpus file, the corpus
# directory, or one of the inputs ``PINNED_INPUTS`` builds.
README_PROBE = '["1","-1","0","0","1","-1"]'
STDOUT_SHA256 = {
    ("analyze", "braid.json"): "c42589e4d8b6b0ceea491d21c875e0ef63fa66ea2a1f30048f6ca10b1c90b164",
    ("resonance", "braid.json"): "4e019011de90efcd51bf94690d7c77cd9f51af40aa4ba5d899060f7cfeefb78c",
    ("analyze", "braid_pgl.json"): "b7225affaec0a1516f328648e7bd3fc6e4ac3da096f44b2630fb95d018b697c5",
    ("resonance", "braid_pgl.json"): "75dfc37bbeb5c77c54d7c142be30dfb419a13bb01519ebea1d57f3dc1820edd4",
    ("analyze", "ceva_2.json"): "d5e359690d410bf51aa7f1189eec14b0646f7c6983064f1eba5d35fd02e98493",
    ("resonance", "ceva_2.json"): "15a887ba9f32775dbe2b8976d9b7f8fd41e2e836dd2604eed72a4a8f8ebeb22d",
    ("analyze", "concurrent_triple.json"): "dbd1b41e3152fd0af980fdc23b395ac378ea120dfc28dca2b72390bb3f870f1f",
    ("resonance", "concurrent_triple.json"): "9e4e0c14fe58b41e47a25acf2d94e7edc953344fa70b79ba37bcc5b163aeb51c",
    ("analyze", "dual_hesse.json"): "c44847cef02bdf2caafbaac263bfde7d4963b828cd6a55af2ede9139ffabc672",
    ("resonance", "dual_hesse.json"): "96c6034b09b16427224c0588216fec716349074f19811405198df67674e04994",
    ("analyze", "dual_hesse_pgl.json"): "570540c4e4bc279852aab92639113450d6ed480a8ee859c80ac5fc6f80fd496e",
    ("resonance", "dual_hesse_pgl.json"): "cc33d43520979f77de3777573a5f9f402cc6e484b56d2bed5bb1256d4ae59000",
    ("analyze", "generic_6.json"): "dcca4d4edcd0a60d8ab6d3f860f3e3db9a32388b621b7cc950d9fb8574bcb626",
    ("resonance", "generic_6.json"): "2be17a87646a9a32f549fa844b3993631da6c8c3a4a66ef5f74bccee3be479fc",
    ("analyze", "generic_9.json"): "c60ec2eea31e31b3c01a6df714fa59abd597a52d70f00787c85031d8ee637c5a",
    ("resonance", "generic_9.json"): "2dced42d0d9a596e22703665713568b2a9ae0a72cab2024b40c4283e2feed70f",
    ("analyze", "near_pencil_6.json"): "63669548ad4bda35ccb819ccb89efcac5e157b63d46de2df7de12362787a2f49",
    ("resonance", "near_pencil_6.json"): "ba1db5e8609725d797e8d4d3bf764b251b70c77f6bbbbdc141a08eb35c7ed296",
    ("analyze", "seeded_generic_12.json"): "958a991ef1aa2fccd61f36aaee0b1a8f8d617e84902508bda7f72eb18618012e",
    ("resonance", "seeded_generic_12.json"): "94d9e14fdaffec7bd7471b013c2a49ac96909a548c41ec8ccd7b8cb969990b83",
    ("analyze", "seeded_generic_7.json"): "875e2e1c9b3208f5f8d273e5a062953bf89448fbb57fb48d4e684e1e6e2af2a1",
    ("resonance", "seeded_generic_7.json"): "e62d41568d39546384224ed83f1a605cab52a01b2bae23f278da02d7c3cef3e0",
    ("analyze", "triangle.json"): "b6455db5285c0ea9d81b643dfdf7e06101e9fafa2355eae04817f1b07c830ad6",
    ("resonance", "triangle.json"): "568ece28512e8919c13ae0c3a4fde4c099cb189de0dbc0f7f390e58c69ea3a10",
    ("crosscheck", "corpus"): "29a092a131edc62bcff76a1d8abfe779053f8e2c43468549f4687a5e8347ec95",
    ("pencils", "braid.json"): "9fb27313a350fd7e566ffeefde8b9ac600ec47730c983d89bc0bed324a5cd141",
    ("pencils", "braid_pgl.json"): "ac7ccac64c36608acb04a53976a358a09eae2865ef3c3d62d2e61ebe938de5e5",
    ("pencils", "ceva_2.json"): "5bd14073427a145e2749d487622fa03a2c46ccb1879a421ad8659a8d230201f3",
    ("pencils", "concurrent_triple.json"): "68bcd6debcaf7c09c1eafacc3f327ce1a73d13106d079c9366ffd4f0e4f6bdaa",
    ("pencils", "dual_hesse.json"): "477ea3dda1c11c59d0ca1adda2b529282395cdf20701b038f8bb2c5602e78979",
    ("pencils", "dual_hesse_pgl.json"): "8ab4e703e9964e7927206e431f4710f53313e5752105c719f12b137048a5ebb6",
    ("pencils", "generic_6.json"): "996fb57570a706f569a3bde704f41556718fe84734f15e9129acc9d65c22871b",
    ("pencils", "generic_9.json"): "6d3d7edbfb1e7330d93eff97f02811f56d1670d88172d9a94300552b9faee43b",
    ("pencils", "near_pencil_6.json"): "75ce6f38308e649250ba0a536ffe5978711cff590da6b93fbb18d2c14198a5d8",
    ("pencils", "seeded_generic_12.json"): "b10b17bafd320f245c66f891863793c1254d5f0ed23db8049e42a38f10518736",
    ("pencils", "seeded_generic_7.json"): "8a0fe8f93d5b5a613a0ade57fda6be77280b6f524d5662da9f358a1d7b7b147a",
    ("pencils", "triangle.json"): "449bc2c3a530fd19b24ac0d22da10549d17560d4743f66114e6329b72688e789",
    ("catalan generate --steps 3", "pencil.json"): "91cff2a8eb8608262852a01e15fd4fbff4f0a7e92b447acfc80c3c907aaf835c",
    ("catalan generate --steps 2", "braid_pencil.json"): "8f3af9588177b698042fe61f8384c4dc7d0a31991cea2f6704f0138e5cb2a164",
    ("catalan descend", "criterion_8.json"): "684a94fa267d863c348ba9413eaf5b8799be1def872fc8798433b3a1896b9b5c",
    ("resonance --vector " + README_PROBE, "braid.json"): "977d26ca93dc5165c62bc53994e6b99cb8f223f51b3756b290a4e487d49edc14",
    ("analyze", "cuspidal_dual_41.json"): "75eb0c564d4da4d6ae6f4707f24e7fa3f5331dae87f62bdef47dfcbf16d99ec6",
    ("analyze", "cuspidal_dual_91.json"): "f5bfb1287f25bd6ded753197f0cb9d7588ce6296b416b3b96f884402fda97a75",
    ("analyze", "cuspidal_dual_151.json"): "82a172c11771102d623eddfa4adcbbd52dce79a5e60de052c5a40b1ac42b483f",
}


def _criterion_8_descent():
    """The descent instance of acceptance criterion 8: one doubling of the
    solution (1, t, 1) of f^3 + g^3 = (1 + t^3) h^3, with the three linear
    factors of 1 + t^3 known."""
    from pencilfiber.eisenstein import OMEGA, OMEGA2
    from pencilfiber.forms import UniPoly

    t, one = UniPoly.t(), UniPoly.one()
    sol = (-(t * (t**3 + UniPoly.constant(2))), t**3 * 2 + one, -(t**3 - one))
    rel = {"univariate": True, "F": [one.to_json(), one.to_json(), (-(one + t**3)).to_json()], "sol": [p.to_json() for p in sol]}
    return {"relation": rel, "known_factors": [(one + t * w).to_json() for w in (1, OMEGA, OMEGA2)]}


PINNED_INPUTS = {
    "pencil.json": lambda: find_pencils(concurrent_triple())[0].to_json(),
    "braid_pencil.json": lambda: find_pencils(braid())[0].to_json(),
    "criterion_8.json": _criterion_8_descent,
    "cuspidal_dual_41.json": lambda: cuspidal_dual(20).to_json(),
    "cuspidal_dual_91.json": lambda: cuspidal_dual(45).to_json(),
    "cuspidal_dual_151.json": lambda: cuspidal_dual(75).to_json(),
}


@pytest.mark.parametrize("command, name", sorted(STDOUT_SHA256))
def test_stdout_bytes_are_pinned(capsys, corpus_dir, tmp_path, command, name):
    if name == "corpus":
        path = corpus_dir
    elif name in PINNED_INPUTS:
        path = write_json(tmp_path / name, PINNED_INPUTS[name]())
    else:
        path = corpus_dir / name
    code, out = run_cli(capsys, [*command.split(), str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command, name]


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
_AWKWARD = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "/", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"]
)
_TEXT = st.lists(st.one_of(_AWKWARD, st.characters(exclude_categories=())), max_size=8).map("".join)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


def _emitted(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_emit_matches_json_dumps(value):
    """The writer behind every stdout byte is the stdlib's indented encoder,
    on nested containers, empty ones, big ints, bools, None and strings with
    quotes, backslashes, control characters, non-ASCII text and lone
    surrogates."""
    assert _emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_emit_matches_json_dumps_on_error_payloads(capsys, tmp_path):
    with pytest.raises(MultiplicityError) as violation:
        cli._load_arrangement(write_json(tmp_path / "bad.json", four_concurrent().to_json()))
    unfactored = write_json(tmp_path / "descend.json", {**_criterion_8_descent(), "known_factors": []})
    code, obstruction = run_cli(capsys, ["catalan", "descend", unfactored])
    assert code == 2
    payloads = [
        cli._violation_payload(violation.value.point),
        json.loads(obstruction),
        {"error": "domain_error", "detail": 'cannot use "corpus/\u00fcber/\u03c0 \u2014 \U0001f600.json"'},
    ]
    assert payloads[1]["error"] == "descent_obstruction"
    for payload in payloads:
        assert _emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- loader fuzzing -------------------------------------------------------------


def _paths(value, path=()):
    """The key and index path to every node below the root of a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


# small values that the loaders accept somewhere, so a mutation often stays well formed
_NEAR = st.sampled_from(["0", "1", "-1", "2", "w", "-w", "1+w", "1/2", "0/1", 0, 1, -1, 2, 3, True, False, [], {}])


@st.composite
def _mutated(draw, base):
    """``base`` with one field replaced by a drawn value, or removed."""
    value = json.loads(json.dumps(base))
    *head, last = draw(st.sampled_from(list(_paths(value))))
    parent = value
    for key in head:
        parent = parent[key]
    if draw(st.booleans()):
        parent[last] = draw(st.one_of(_NEAR, _VALUES))
    else:
        del parent[last]
    return value


def _fuzz_bases():
    """A corpus arrangement, a corpus pencil, a relation that doubling makes
    and the descent instance of criterion 8, as JSON values."""
    from pencilfiber.catalan import generate_solutions

    pencil = find_pencils(braid())[0]
    relation = generate_solutions(pencil, 1)[0]
    return [braid().to_json(), pencil.to_json(), relation.to_json(), _criterion_8_descent()]


_LOADED = [["analyze"], ["catalan", "generate", "--steps", "1"], ["catalan", "verify"], ["catalan", "descend"]]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_VALUES, *map(_mutated, _fuzz_bases())))
def test_loaders_reject_fuzzed_files_cleanly(tmp_path_factory, value):
    """Every loader behind ``analyze``, ``catalan generate``, ``verify`` and
    ``descend`` meets arbitrary JSON values and single-field mutations of a
    valid input of each kind.  Nothing raises out of ``main``, the exit code
    is 0, 1 or 2, and an input error prints nothing on stdout and one JSON
    line on stderr."""
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(value))
    for argv in _LOADED:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv[:2], str(path), *argv[2:]])
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert isinstance(json.loads(line), dict)


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


@pytest.mark.parametrize(
    "value",
    [[1, True, 0], [True, False], (3, -2), [2**200, -(2**70)], [[]], [1, [2]], {"a": [1, 2]}, [_Level.HIGH, _Level.LOW]],
    ids=["int_and_bool", "bools", "tuple", "big_ints", "empty_in_list", "nested", "in_dict", "int_enum"],
)
def test_emit_matches_json_dumps_on_int_lists(value):
    """A list of plain ints is written in one chunk; bools and other int
    subclasses among ints, and lists nested in lists and dicts, are not."""
    assert _emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_closed_stdout_exits_one_without_a_traceback(corpus_dir):
    """The read end of stdout is closed before the child starts, so its first
    write fails; it exits 1 and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_python("-m", "pencilfiber", "analyze", str(corpus_dir / "dual_hesse.json"), stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, "")


@pytest.mark.parametrize(
    "value",
    [{"x": 0.5}, [1.0], {1: "x"}, {"x": 1, 2: "y"}, {"x": {1, 2}}],
    ids=["float", "float_in_list", "int_key", "mixed_keys", "set"],
)
def test_emit_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        _emitted(value)


def test_one_parser_serves_every_call_and_import_builds_none():
    proc = run_python(
        "-c",
        "from pencilfiber import cli\n"
        "assert cli.build_parser.cache_info().currsize == 0\n"
        "assert cli.main(['--steps', 'abc']) == 1\n"
        "assert cli.main(['analyze']) == 1\n"
        "print(cli.build_parser.cache_info().misses)\n",
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


def test_cached_parser_carries_nothing_between_calls(capsys, corpus_dir, tmp_path):
    """An option given to one call is gone from the next, and a usage error
    leaves the parser as it was."""
    braid_path = str(corpus_dir / "braid.json")
    pencil = write_json(tmp_path / "pencil.json", PINNED_INPUTS["pencil.json"]())

    def digest(argv):
        code, out = run_cli(capsys, argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest(), json.loads(out)

    probed, _ = digest(["resonance", "--vector", README_PROBE, braid_path])
    assert probed == STDOUT_SHA256["resonance --vector " + README_PROBE, "braid.json"]
    plain, payload = digest(["resonance", braid_path])
    assert plain == STDOUT_SHA256["resonance", "braid.json"] and "probe" not in payload
    stepped, payload = digest(["catalan", "generate", "--steps", "3", pencil])
    assert stepped == STDOUT_SHA256["catalan generate --steps 3", "pencil.json"]
    _, payload = digest(["catalan", "generate", pencil])
    assert payload["steps"] == 1 and len(payload["relations"]) == 1
    assert run_cli(capsys, ["catalan", "generate", pencil, "--steps", "abc"]) == (1, "")
    after, _ = digest(["catalan", "generate", "--steps", "3", pencil])
    assert after == stepped
    assert digest(["analyze", braid_path])[0] == STDOUT_SHA256["analyze", "braid.json"]


CORPUS_FILES = sorted(path.name for path in (pathlib.Path(__file__).resolve().parents[1] / "corpus").glob("*.json"))
# entries not in lowest terms and with w-parts; printed as ["1/2","-1/2","w","-w","0","0"]
FRACTIONAL_PROBE = '["1/2","-2/4","w","-w","0","0"]'


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["crosscheck", "."], id="crosscheck"),
        *(pytest.param([command, name], id=f"{command} {name}") for command in ("analyze", "pencils") for name in CORPUS_FILES),
        pytest.param(["resonance", "--vector", README_PROBE, "braid.json"], id="resonance --vector README"),
        pytest.param(["resonance", "--vector", FRACTIONAL_PROBE, "braid.json"], id="resonance --vector fractional"),
        pytest.param(["from_json", "."], id="PencilDecomposition.from_json"),
    ],
)
def test_crosscheck_builds_no_field_element(capsys, corpus_dir, monkeypatch, argv):
    """Lines, incidence points, pencils and weight vectors stay in Z[w] until
    printed: crosscheck, analyze and pencils on the corpus, a resonance probe
    and parsing every corpus pencil print the same bytes, or give the same
    pencil, with every ``EisensteinNumber`` construction refused."""

    def refuse(self, *args):
        raise AssertionError("an EisensteinNumber was built")

    *command, name = argv
    path = corpus_dir / name
    if command == ["from_json"]:
        pencils = [p for f in CORPUS_FILES for p in find_pencils(Arrangement.from_json(json.loads((path / f).read_text())))]
        assert len(pencils) > 6
        monkeypatch.setattr(EisensteinNumber, "__init__", refuse)
        assert all(PencilDecomposition.from_json(pencil.to_json()) == pencil for pencil in pencils)
        return
    expected = run_cli(capsys, [*command, str(path)])
    assert expected[0] == 0
    monkeypatch.setattr(EisensteinNumber, "__init__", refuse)
    assert run_cli(capsys, [*command, str(path)]) == expected


def test_probe_prints_its_vector_in_lowest_terms(capsys, corpus_dir):
    """Each entry of the probed vector prints in lowest terms, and the kernel
    is that of the vector scaled into Z[w]."""
    braid_path = str(corpus_dir / "braid.json")
    code, out = run_cli(capsys, ["resonance", "--vector", FRACTIONAL_PROBE, braid_path])
    assert code == 0
    probe = json.loads(out)["probe"]
    assert probe["vector"] == ["1/2", "-1/2", "w", "-w", "0", "0"]
    code, out = run_cli(capsys, ["resonance", "--vector", '["1","-1","2*w","-2*w","0","0"]', braid_path])
    assert code == 0
    assert json.loads(out)["probe"]["kernel_dim"] == probe["kernel_dim"]


def test_probe_reads_its_vector_once(capsys, corpus_dir, monkeypatch):
    """``--vector`` is read into Z[w] once, by ``integer_row`` in ``cli``, and
    the kernel solve takes those pairs: its six text entries are parsed six
    times beyond the 18 parses of braid's line coefficients."""
    parsed = []
    parse_parts = eisenstein.parse_parts

    def counted(text):
        parsed.append(text)
        return parse_parts(text)

    monkeypatch.setattr(eisenstein, "parse_parts", counted)
    braid_path = str(corpus_dir / "braid.json")
    assert run_cli(capsys, ["resonance", braid_path])[0] == 0
    assert len(parsed) == 18
    parsed.clear()
    assert run_cli(capsys, ["resonance", "--vector", FRACTIONAL_PROBE, braid_path])[0] == 0
    assert len(parsed) - 18 == 6


def _with_coefficient(where, value):
    """A command and its input with one coefficient replaced by ``value``."""
    if where == "line":
        return ["analyze"], "arrangement", {"lines": [[value, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    if where == "pencil":
        data = find_pencils(concurrent_triple())[0].to_json()
        data["products"][1]["terms"][0]["c"] = value
        return ["catalan", "generate"], "pencil", data
    from pencilfiber.catalan import base_solution

    data = base_solution(find_pencils(concurrent_triple())[0]).to_json()
    data["F"][2]["terms"][0]["c"] = value
    return ["catalan", "verify"], "relation", data


@pytest.mark.parametrize(
    "where, value",
    [("line", None), ("pencil", []), ("relation", {}), ("--vector", None)],
    ids=["line-null", "pencil-list", "relation-object", "--vector-null"],
)
def test_a_coefficient_that_is_no_field_element_is_named(capsys, tmp_path, where, value):
    """null, a list or an object as a coefficient is an input error whose
    message names the value."""
    if where == "--vector":
        path = write_json(tmp_path / "concurrent.json", concurrent_triple().to_json())
        code = main(["resonance", path, "--vector", json.dumps([value, 1, -1])])
        message = "--vector is not a list of field elements"
    else:
        command, what, data = _with_coefficient(where, value)
        path = write_json(tmp_path / "input.json", data)
        code = main([*command, path])
        message = f"{path} is not a valid {what}"
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": f"{message}: {value!r} is not an exact field element"}


@pytest.mark.parametrize("text, position", [("1/0", 0), ("2+1/0w", 2), ("9" * 5000, None)], ids=["1/0", "2+1/0w", "5000 digits"])
def test_bad_coefficient_text_is_an_input_error(capsys, tmp_path, text, position):
    """The integer parse core reports a bad coefficient as before: exit 1,
    nothing on stdout, one error line naming the position, and the file's
    row in crosscheck."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = write_json(corpus / "bad.json", {"label": "bad", "lines": [[text, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    code = main(["analyze", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    error = json.loads(captured.err)["error"]
    assert "bad.json is not a valid arrangement" in error
    if position is not None:
        assert f"at position {position} in {text!r}" in error
    code, out = run_cli(capsys, ["crosscheck", str(corpus)])
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["error"] == error
