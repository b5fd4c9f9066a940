#!/usr/bin/env python3
"""pencilfiber benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the root of a pencilfiber checkout:

    python3 perfbench/run.py --workload corpus-crosscheck --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload drives ``pencilfiber.cli.main(argv)`` in-process with stdout
captured, on input files generated from the seed.  ``--trace 0`` repeats the
workload's ops for ``--seconds`` and reports end-to-end metrics, in seconds
adjusted to a reference host speed by the in-op probe of ``speed.py``;
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics in raw seconds.  Every op is checked against the oracle after timing.  A summary
and the path of a full JSON report go to stdout, and the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# The benchmark's own modules (inputs, oracle, spans) import pencilfiber, so
# functions import them locally, after main() has put src/ on sys.path.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("corpus-crosscheck", "pencil-type", "catalan-doubling")
MIN_ROUNDS = 3
SETUP_LAUNCHES = 11
SETUP_PROBES = 10  # probes before and after each set-up launch

END_TO_END = {
    "wall_s": "s",
    "slowest_op_s": "s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the span summary: name -> (span, field).
SPAN_METRICS = {
    "forms.homform_mul.calls": ("forms.homform_mul", "calls"),
    "forms.homform_mul.self_s": ("forms.homform_mul", "self_s"),
    "forms.unipoly_mul.calls": ("forms.unipoly_mul", "calls"),
    "linalg.rref.calls": ("linalg.rref", "calls"),
    "linalg.rref.self_s": ("linalg.rref", "self_s"),
    "arrangement.intersection_points.calls": ("arrangement.intersection_points", "calls"),
    "arrangement.intersection_points.self_s": ("arrangement.intersection_points", "self_s"),
    "arrangement.combinatorial_type.calls": ("arrangement.combinatorial_type", "calls"),
    "arrangement.combinatorial_type.self_s": ("arrangement.combinatorial_type", "self_s"),
    "milnor.superabundance.self_s": ("milnor.superabundance", "self_s"),
    "pencils.find_pencils.self_s": ("pencils.find_pencils", "self_s"),
    "pencils.find_pencils.incl_s": ("pencils.find_pencils", "incl_s"),
    "resonance.build_os2.self_s": ("resonance.build_os2", "self_s"),
    "resonance.kernel_dim.calls": ("resonance.resonance_kernel_dim", "calls"),
    "resonance.kernel_dim.self_s": ("resonance.resonance_kernel_dim", "self_s"),
    "resonance.isotropy.self_s": ("resonance.component_isotropy_check", "self_s"),
    "catalan.doubling_step.self_s": ("catalan.doubling_step", "self_s"),
    "catalan.verify.calls": ("catalan.verify_relation", "calls"),
    "catalan.verify.self_s": ("catalan.verify_relation", "self_s"),
    "catalan.descend.self_s": ("catalan.descend_step", "self_s"),
}
# Per-layer metrics counted by the spans.WORK hooks.
WORK_METRICS = (
    "forms.homform_mul.term_pairs",
    "linalg.rref.cells",
    "pencils.search_space",
    "pencils.found",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "eisenstein.us_per_op":
        return "us"
    if name == "cli.stdout_bytes":
        return "bytes"
    return "count"


@dataclass
class Sample:
    """One timed CLI call."""

    op: int  # index into the workload's ops
    seconds: float  # raw, without the probes that ran inside the call
    adjusted: float | None  # seconds on the reference host; None when not probed
    exit_code: int | None  # None when the call raised
    sha256: str
    stdout: str


def run_op(cli, index: int, argv: tuple[str, ...], probed: bool = False) -> Sample:
    """Time one ``cli.main`` call with stdout and stderr captured.

    With ``probed`` the host-speed probe samples before, during and after
    the call, and the sample carries the adjusted time as well.
    """
    import speed

    out = io.StringIO()
    gc.collect()
    probe = speed.Probe() if probed else contextlib.nullcontext()
    with probe:
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op failed; record it and keep measuring
            code = None
            out.write(traceback.format_exc())
        end = perf_counter()
    elapsed, adjusted = end - start, None
    if probed:
        elapsed -= probe.inside(start, end)
        adjusted = speed.adjust(elapsed, probe.samples)
    text = out.getvalue()
    return Sample(index, elapsed, adjusted, code, hashlib.sha256(text.encode()).hexdigest(), text)


def run_round(cli, ops, probed: bool = False) -> list[Sample]:
    return [run_op(cli, n, op.argv, probed) for n, op in enumerate(ops)]


def run_rounds(cli, ops, seconds: float, min_rounds: int, traced: bool = False):
    """Repeat the workload until another round would overrun ``seconds``.

    With ``traced`` every untraced round is followed by a traced one, so the
    pair sees the same host speed; without it every op is probed.  Returns
    the untraced rounds and a ``(recorder, samples)`` pair per traced round.
    """
    import spans as tracing

    rounds: list[list[Sample]] = []
    traced_rounds: list[tuple[tracing.Recorder, list[Sample]]] = []
    start = perf_counter()
    while True:
        begin = perf_counter()
        rounds.append(run_round(cli, ops, probed=not traced))
        if traced:
            recorder = tracing.Recorder()
            with tracing.installed(recorder):
                traced_rounds.append((recorder, run_round(cli, ops)))
        last = perf_counter() - begin
        if len(rounds) >= min_rounds and perf_counter() - start + last > seconds:
            return rounds, traced_rounds


def measure_setup(work: Path) -> list[float]:
    """Adjusted wall time of fresh interpreter launches that import the CLI and load every input.

    The probe cannot run inside a launch, so each launch is adjusted by
    probes taken just before and just after it on the same CPU.
    """
    import speed

    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(work)]
    times = []
    for n in range(SETUP_LAUNCHES + 1):
        probe = speed.Probe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        start = perf_counter()
        # No timeout: with one, Popen.wait polls and rounds the time up to 50 ms steps.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - start
        for _ in range(SETUP_PROBES):
            probe.sample()
        if n:  # the first launch warms the file cache and is not counted
            times.append(speed.adjust(elapsed, probe.samples))
    return times


def verdicts(ops, samples: list[Sample]) -> list[str | None]:
    """Oracle verdict per sample: None when correct, else the reason.

    Each distinct stdout of an op is checked once; a stdout that differs
    from the op's first one also fails, because output must be deterministic.
    """
    import oracle

    first: dict[int, str] = {}
    checked: dict[tuple[int, str], str | None] = {}
    out = []
    for s in samples:
        op = ops[s.op]
        key = (s.op, s.sha256)
        if key not in checked:
            checked[key] = oracle.check(op.kind, op.source, s.exit_code, s.stdout)
        reason = checked[key]
        if reason is None and first.setdefault(s.op, s.sha256) != s.sha256:
            reason = "stdout differs from the op's first run"
        out.append(reason)
    return out


def op_medians(ops, rounds: list[list[Sample]], field: str = "adjusted") -> list[float]:
    return [statistics.median(getattr(r[n], field) for r in rounds) for n in range(len(ops))]


def end_to_end(ops, rounds: list[list[Sample]], setup: list[float]) -> dict[str, float]:
    """Each op's time is its median adjusted time over the rounds."""
    medians = op_medians(ops, rounds)
    return {
        "wall_s": sum(medians),
        "slowest_op_s": max(medians),
        "op_p50_s": statistics.median(medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(recorder, traced: list[Sample], untraced: list[Sample]) -> dict[str, float]:
    """Per-layer metrics of one traced round, next to the untraced round before it."""
    import spans as tracing

    spans = tracing.summarise(recorder.spans)
    metrics: dict[str, float] = {
        "eisenstein.ops": recorder.arith_ops,
        "eisenstein.self_s": recorder.arith_s,
        "eisenstein.us_per_op": recorder.arith_s / recorder.arith_ops * 1e6 if recorder.arith_ops else 0.0,
    }
    for name, (span, field) in SPAN_METRICS.items():
        metrics[name] = spans.get(span, {}).get(field, 0)
    for name in WORK_METRICS:
        metrics[name] = recorder.counts.get(name, 0)
    metrics["cli.self_s"] = sum(row["self_s"] for name, row in spans.items() if name.startswith("cli."))
    metrics["cli.stdout_bytes"] = sum(len(s.stdout.encode()) for s in traced)
    metrics["trace.overhead_s"] = sum(s.seconds for s in traced) - sum(s.seconds for s in untraced)
    return metrics


def per_layer(rounds: list[list[Sample]], traced_rounds) -> dict[str, float]:
    """Times are medians over the traced rounds; counts come from the first."""
    values = [layer_values(rec, samples, plain) for (rec, samples), plain in zip(traced_rounds, rounds)]
    return {
        name: statistics.median(v[name] for v in values) if per_layer_unit(name) in ("s", "us") else first
        for name, first in values[0].items()
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Build inputs, measure, check; return the result line and the full report."""
    import inputs
    import spans as tracing
    from pencilfiber import cli

    # One CPU for the whole run, so each set-up launch runs where its probes ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        ops = inputs.build(workload, seed, ROOT / "corpus", work)
        setup = [] if traced else measure_setup(work)
        rounds, traced_rounds = run_rounds(cli, ops, seconds, 1 if traced else MIN_ROUNDS, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for r in rounds for s in r] + [s for _, r in traced_rounds for s in r]
    reasons = verdicts(ops, samples)
    failed = sum(reason is not None for reason in reasons)
    if traced:
        e2e = {}
        values = per_layer(rounds, traced_rounds)
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
    else:
        e2e = {name: {"value": v, "unit": END_TO_END[name]} for name, v in end_to_end(ops, rounds, setup).items()}
        metrics = e2e
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    first = {}
    for s in samples:
        first.setdefault(s.op, s)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "error_rate": failed / len(samples),
        "end_to_end": e2e,
        "raw_wall_s": sum(op_medians(ops, rounds, "seconds")),
        "op_samples": len(rounds) * len(ops),
        "setup_samples": setup,
        "ops": [
            {
                "label": op.label,
                "argv": [Path(a).name if a.startswith(str(work)) else a for a in op.argv],
                "median_raw_s": statistics.median(r[n].seconds for r in rounds),
                "samples_raw_s": [r[n].seconds for r in rounds],
                "samples_adjusted_s": [r[n].adjusted for r in rounds],
                "stdout_sha256": first[n].sha256,
                "stdout_bytes": len(first[n].stdout.encode()),
            }
            for n, op in enumerate(ops)
        ],
        "failures": [
            {"op": ops[s.op].label, "reason": reason} for s, reason in zip(samples, reasons) if reason is not None
        ],
        "metrics": metrics,
        "spans": tracing.summarise(traced_rounds[0][0].spans) if traced else {},
    }
    return result, report


def print_summary(report: dict) -> None:
    print(
        f"perfbench workload={report['workload']} seed={report['seed']} seconds={report['seconds']} "
        f"trace={report['trace']} python={report['python']}"
    )
    print(
        f"  rounds={report['rounds']} traced_rounds={report['traced_rounds']} "
        f"op_samples={report['op_samples']} setup_samples={len(report['setup_samples'])}"
    )
    for name, metric in report["end_to_end"].items():
        print(f"  {name:<14} {metric['value']:.6g} {metric['unit']}")
    if report["end_to_end"]:
        print(f"  {'raw_wall_s':<14} {report['raw_wall_s']:.6g} s (unadjusted)")
    failed = len(report["failures"])
    print(f"  {'error_rate':<14} {report['error_rate']:.6g} ({failed} failed)")
    if report["trace"]:
        for name, metric in report["metrics"].items():
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for op in report["ops"]:
        print(f"  op {op['label']:<36} raw {op['median_raw_s']:.4f} s  stdout sha256 {op['stdout_sha256']}")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure['op']}: {failure['reason']}")


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own interpreter, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "pencilfiber" / "cli.py", ROOT / "corpus") if not p.exists()]
    if missing:
        print(f"perfbench: {missing[0]} not found; run from a pencilfiber checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        path = OUT / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print_summary(report)
        print(f"  report {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
