#!/usr/bin/env python3
"""Benchmark for the `apparent` package: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload family_roundtrip --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports the package from that
checkout's src/.  Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
Run records and spans are written under .perfbench/ in the checkout.
Times are wall times at a fixed reference speed of the machine; see
speed.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 15
STARTUP_PROBES = 5


def import_package():
    """Import `apparent` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "apparent" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/apparent not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import apparent

    if Path(apparent.__file__).resolve().parent != (src / "apparent").resolve():
        sys.exit(f"perfbench: imported apparent from {apparent.__file__}, not from {src}")
    return apparent


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------------ context

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(apparent) -> dict:
    import mpmath

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "all_names": len(apparent.__all__),
    }


# ---------------------------------------------------------------- measuring


def child_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def probe_setup(args, probe: speed.SpeedProbe) -> list[float]:
    """Time from spawning a fresh process to its 'ready' line."""
    spans = []
    for _ in range(SETUP_PROBES):
        probe.start()
        proc = subprocess.Popen(child_cmd(args, "--probe-setup"), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        spans.append(probe.end())
        proc.communicate()  # the closing sample must not share the CPU with the child
        probe.sample()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return [probe.scale(span) for span in spans]


def probe_cli_startup(workloads, probe: speed.SpeedProbe) -> float:
    spans = []
    for _ in range(STARTUP_PROBES):
        probe.start()
        subprocess.run([sys.executable, "-c", "import apparent.cli"], cwd=ROOT,
                       env=workloads.cli_env(ROOT), check=True)
        spans.append(probe.stop())
    return statistics.median(probe.scale(span) for span in spans)


class Phase:
    """Latencies and failures of whole passes over a workload's op list."""

    def __init__(self):
        self.spans: list[list[speed.Span]] = []  # one list per pass
        self.rounds: list[list[float]] = []  # op latencies at the reference speed
        self.failures: list[str] = []
        self.done: list[tuple] = []  # (op, latency, output), kept when asked

    @property
    def raw_rounds(self) -> list[list[float]]:
        return [[raw for _open, _close, raw in spans] for spans in self.spans]

    @property
    def latencies(self) -> list[float]:
        return [lat for r in self.rounds for lat in r]

    @property
    def passes(self) -> int:
        return len(self.spans)

    def per_op(self) -> list[float]:
        """Each op's latency as the median of its repeats across passes."""
        return [statistics.median(lats) for lats in zip(*self.rounds)]

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_passes(work, phase: Phase, probe: speed.SpeedProbe, *, seconds=None, passes=None,
               tracer=None, keep=False):
    """Whole passes: a fixed count, or as many as fit in `seconds`.

    A new pass starts only while the time so far plus one average pass
    stays within `seconds`, and never before the workload's min_passes
    are done.
    """
    start = time.perf_counter()
    while True:
        spans: list[speed.Span] = []
        phase.spans.append(spans)
        for op in work.ops:
            if tracer is not None:
                tracer.op += 1
            probe.start()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # any exception is a failed op, not a crash
                out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            span = probe.stop()
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
            spans.append(span)
            if error is not None:
                phase.failures.append(error)
            elif keep:
                phase.done.append((op, span, out))
        if passes is not None:
            if phase.passes >= passes:
                break
            continue
        elapsed = time.perf_counter() - start
        if phase.passes >= work.min_passes and elapsed * (1 + 1 / phase.passes) > seconds:
            break
    phase.rounds = [[probe.scale(span) for span in spans] for spans in phase.spans]
    phase.done = [(op, probe.scale(span), out) for op, span, out in phase.done]


def tail(latencies: list[float], pct: float | None) -> tuple[float, str]:
    ordered = sorted(latencies)
    n = len(ordered)
    if pct is None:
        return ordered[-1], f"max of {n} ops"
    idx = max(math.ceil(pct / 100 * n) - 1, 0)
    return ordered[idx], f"p{pct:g} of {n} ops, {n - idx - 1} beyond it"


def end_to_end(work, phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    if work.cli_peak:
        peak_kib = max(work.cli_peak)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_op = phase.per_op()
    tail_ms, tail_label = tail(per_op, work.tail_pct)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(phase.latencies) / phase.busy,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": peak_kib / 1024,
    }
    notes = {
        "op_tail_ms": f"{tail_label}; each op the median of {phase.passes} repeats",
        "peak_rss_mb": "children's peak" if work.cli_peak else "this process",
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "speed": f"op time {phase.busy:.3f} s at the reference speed, "
                 f"{sum(map(sum, phase.raw_rounds)):.3f} s as measured",
    }
    return values, notes


def silent_boundaries(expected, values: dict) -> list[str]:
    """Expected boundaries with no call (in-process) or no timing (CLI)."""
    return [name for name in expected
            if values.get(f"{name}.calls", values.get(f"{name}_ms")) == 0]


def per_layer(args, work, workloads, tracer_mod, probe) -> tuple[dict, Phase, dict]:
    """One untraced pass, then the same pass traced."""
    plain = Phase()
    run_passes(work, plain, probe, passes=1)
    tracer = tracer_mod.Tracer()
    tracer.install()
    traced = Phase()
    try:
        run_passes(work, traced, probe, passes=1, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    values = {
        # zero means the boundary had no input on this workload
        "polyrat.rational_roots.max_bits": 0,
        "linalg.nullspace_basis.max_rows": 0,
        "linalg.nullspace_basis.max_cols": 0,
        "polymer.series_order": 0,
        "polymer.precision_bits": 0,
        "polymer.scan_points": 0,
        "polymer.wronskian_mismatch_ms": 0.0,
        **{f"cli.{sub}_ms": 0.0 for sub in workloads.SUBCOMMANDS},
        **layers,
        **work.layer_metrics(traced.done),
        "cli.startup_ms": probe_cli_startup(workloads, probe) * 1e3,
        "trace.untraced_ops_per_s": len(plain.latencies) / plain.busy,
        "trace.traced_ops_per_s": len(traced.latencies) / traced.busy,
        "trace.overhead_pct": (traced.busy / plain.busy - 1) * 100,
        "trace.spans": len(tracer.spans),
    }
    silent = silent_boundaries(work.expected, values)
    if silent:
        sys.exit(f"perfbench: traced boundaries never fired on {work.name}: {', '.join(silent)}")
    tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz")
    phase = Phase()
    phase.spans = plain.spans + traced.spans
    phase.rounds = plain.rounds + traced.rounds
    phase.failures = plain.failures + traced.failures
    return values, phase, layers


# -------------------------------------------------------------------- main

def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    spec = bench_spec()
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{w['name']}: exit code {proc.returncode}")
            return proc.returncode
        rows.append((w["name"], json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        frac = res["failed"] / res["attempted"]
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} fail_frac={frac:g}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return 0 if all(res["correct"] for _n, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    apparent = import_package()
    spec = bench_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)

    import tracer as tracer_mod
    import workloads

    speed.pin_to_one_cpu()
    probe = speed.SpeedProbe()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        work = workloads.build(args.workload, args.seed, workdir, ROOT)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        if args.trace:
            values, phase, all_layers = per_layer(args, work, workloads, tracer_mod, probe)
            notes = {}
            wanted = spec["per_layer"]
        else:
            setup_times = probe_setup(args, probe)
            phase = Phase()
            run_passes(work, phase, probe, seconds=args.seconds)
            values, notes = end_to_end(work, phase, setup_times)
            all_layers = {}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes["fail_frac"] = len(phase.failures) / len(phase.latencies)
    notes["passes"] = phase.passes
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context(apparent),
        "notes": notes, "metrics": metrics, "all_layers": all_layers,
        "failures": phase.failures[:20], "rounds": phase.rounds,
        "raw_rounds": phase.raw_rounds,
    }
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"context: {json.dumps(record['context'])}")
    for name, note in notes.items():
        print(f"note: {name}: {note}")
    for err in phase.failures[:20]:
        print(f"FAILED: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not phase.failures,
        "attempted": len(phase.latencies),
        "failed": len(phase.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
