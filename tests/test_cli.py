import json
import os
import pathlib
import subprocess
import sys

import pytest

import pencilfiber
from pencilfiber import cli
from pencilfiber.cli import main
from pencilfiber.fixtures import concurrent_triple, conic_dual_lines, dual_hesse, four_concurrent
from pencilfiber.pencils import find_pencils


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


def run_entry_point(argv):
    """``python -m pencilfiber`` in a fresh interpreter, so ``run()`` sets the exit code."""
    src = str(pathlib.Path(pencilfiber.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "pencilfiber", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_analyze_dual_hesse(capsys, dual_hesse_file):
    code, out = run_cli(capsys, ["analyze", dual_hesse_file])
    assert code == 0
    report = json.loads(out)
    assert report["milnor"]["s"] == 2
    assert report["pencil_count"] == 4
    assert report["pencil_eigenvalue_consistent"] is True
    assert report["point_census"] == {"3": 12}
    assert report["milnor"]["char_poly"] == "(t-1)^7*(t^2+t+1)^2"


def test_analyze_is_deterministic(capsys, dual_hesse_file):
    _, first = run_cli(capsys, ["analyze", dual_hesse_file])
    _, second = run_cli(capsys, ["analyze", dual_hesse_file])
    assert first == second


def test_analyze_multiplicity_violation(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", four_concurrent().to_json())
    code, out = run_cli(capsys, ["analyze", path])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "multiplicity_violation"
    assert payload["point"]["multiplicity"] == 4


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
