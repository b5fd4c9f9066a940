"""Tests for the benchmark's own code: generator, oracle, span recorder and speed probe.

Run with: python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from pencilfiber import cli  # noqa: E402
from pencilfiber.eisenstein import EisensteinNumber  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*.json"))}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    runs = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        out = tmp_path / name
        out.mkdir()
        ops = inputs.build(workload, seed, ROOT / "corpus", out)
        runs[name] = ([(op.label, op.kind, op.source) for op in ops], _files(out))
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]


def test_oracle_accepts_real_output_and_flags_corruption(tmp_path):
    ops = inputs.pencil_type(3, tmp_path)
    op = next(o for o in ops if o.source == "braid")
    code, stdout = _run(op.argv)
    assert oracle.check(op.kind, op.source, code, stdout) is None
    payload = json.loads(stdout)
    payload["milnor"]["s"] = 0
    assert "s = 0" in oracle.check(op.kind, op.source, code, json.dumps(payload))
    assert oracle.check(op.kind, op.source, code, stdout[: len(stdout) // 2]).startswith("unreadable")
    assert oracle.check(op.kind, op.source, 2, stdout) == "exit code 2"


def test_oracle_reverifies_catalan_relations(tmp_path):
    op = next(o for o in inputs.catalan_doubling(1, tmp_path) if o.source == "braid")
    code, stdout = _run(op.argv)
    assert oracle.check(op.kind, op.source, code, stdout) is None
    payload = json.loads(stdout)
    term = payload["relations"][1]["sol"][0]["terms"][0]
    term["c"] = str(EisensteinNumber.of(term["c"]) + 1)
    assert oracle.check(op.kind, op.source, code, json.dumps(payload)) == "relation 1 does not verify"


def test_oracle_checks_crosscheck_rows():
    rows = [
        {
            "file": f"{name}.json",
            "r": ref.r,
            "s": ref.s,
            "pencil_count": ref.pencil_count,
            "resonance_pencil_components": ref.pencil_count,
            "isotropy_all_ok": True,
        }
        for name, ref in oracle.REFERENCE.items()
    ]
    payload = {"rows": rows, "failures": [], "all_consistent": True, "equal_type_pairs_checked": 4}
    assert oracle.check("crosscheck", "corpus", 0, json.dumps(payload)) is None
    rows[4]["pencil_count"] = 3
    assert oracle.check("crosscheck", "corpus", 0, json.dumps(payload)).startswith("dual_hesse:")


def test_self_time_is_duration_minus_children():
    Span = spans.Span
    tree = [
        Span("cli.main", None, start=0.0, end=10.0, arith_start=0.0, arith_end=0.0),
        Span("pencils.find_pencils", 0, start=1.0, end=4.0, arith_start=0.0, arith_end=0.0),
        Span("resonance.build_os2", 0, start=5.0, end=9.0, arith_start=0.0, arith_end=0.0),
        Span("linalg.rref", 2, start=6.0, end=7.5, arith_start=0.0, arith_end=0.0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.5, 1.5]


def test_arithmetic_is_charged_as_a_child():
    Span = spans.Span
    tree = [
        Span("cli.main", None, start=0.0, end=10.0, arith_start=0.0, arith_end=4.0),
        Span("linalg.rref", 0, start=2.0, end=5.0, arith_start=1.0, arith_end=3.5),
    ]
    # rref: 3 s long, 2.5 s of it arithmetic; main: 10 - 3 - (4 - 2.5)
    assert spans.self_times(tree) == [5.5, 0.5]


def test_partition_count():
    assert [spans.partition_count(r) for r in (3, 6, 7, 9, 12)] == [1, 15, 0, 280, 5775]


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    op = next(o for o in inputs.pencil_type(2, tmp_path) if o.source == "braid")
    original = cli.intersection_points
    counts = []
    for _ in range(2):
        recorder = spans.Recorder()
        with spans.installed(recorder):
            code, _ = _run(op.argv)
        summary = spans.summarise(recorder.spans)
        counts.append(
            (recorder.arith_ops, dict(recorder.counts), {name: row["calls"] for name, row in summary.items()})
        )
        assert code == 0
    assert counts[0] == counts[1]
    calls = counts[0][2]
    assert calls["cli.main"] == 1
    assert calls["arrangement.intersection_points"] == 7
    assert counts[0][1]["pencils.search_space"] == 15
    assert cli.intersection_points is original
    assert EisensteinNumber.__mul__.__name__ == "__mul__"


def test_adjust_scales_to_the_reference_probe_time():
    assert speed.adjust(3.0, [speed.REFERENCE_S * 2] * 4) == pytest.approx(1.5)
    assert speed.adjust(3.0, [speed.REFERENCE_S / 2, speed.REFERENCE_S * 3 / 2]) == pytest.approx(3.0)


def test_probe_samples_around_and_during_a_region():
    with speed.Probe() as probe:
        start = perf_counter()
        while perf_counter() - start < 4 * speed.PERIOD_S:
            sum(range(1000))
        end = perf_counter()
    assert len(probe.samples) >= 4  # one before, at least two during, one after
    assert 0 < probe.inside(start, end) < sum(probe.samples)


def test_probed_op_reports_its_time_without_the_probes(tmp_path):
    op = next(o for o in inputs.pencil_type(4, tmp_path) if o.source == "dual_hesse")
    sample = run.run_op(cli, 0, op.argv, probed=True)
    plain = run.run_op(cli, 0, op.argv)
    assert sample.exit_code == plain.exit_code == 0
    assert sample.sha256 == plain.sha256
    assert sample.adjusted > 0 and plain.adjusted is None
