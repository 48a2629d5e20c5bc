"""The benchmark's correctness gate must bite.

    python3 -m pytest -q perfbench/test_gate.py

Each test feeds one workload's check a corrupted reference and expects
the run loop to count a failed op, which is what sets ``correct`` to
false and raises the failed count in the result line.
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_once(ops):
    phase = run.Phase()
    work = workloads.Workload(name="gate", ops=ops, expected=(), tail_pct=None)
    run.run_passes(work, phase, run.speed.SpeedProbe(), passes=1)
    return phase


def corrupt(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def test_ladder_digest_gate():
    base = workloads.ladder_pool()[0]
    digests = workloads.load_reference()["deform_ladder"][0]
    good = run_once(workloads.ladder_chain(base, 0, digests))
    assert good.failures == []
    assert len(good.latencies) == workloads.LADDER_STAGES

    bad = list(digests)
    bad[1] = corrupt(bad[1])
    phase = run_once(workloads.ladder_chain(base, 0, bad))
    assert len(phase.failures) == 1
    assert "stage 2 digest differs" in phase.failures[0]


def test_polymer_eigenvalue_gate():
    reference = workloads.load_reference()
    reference["polymer_spectrum"]["b2_W1/4"][0] *= 1 + 1e-6
    work = workloads.polymer_spectrum(1, reference)
    phase = run_once([op for op in work.ops if op.kind == "b2_W1/4"])
    assert len(phase.failures) == 1
    assert "differs from reference" in phase.failures[0]


def test_family_roundtrip_gate():
    rng = random.Random(5)
    out = workloads.roundtrip("general", gen.heun_params(rng))
    assert workloads.check_roundtrip("general", out) is None
    other = workloads.ap.general_heun(gen.heun_params(rng))
    assert workloads.check_roundtrip("general", (other, *out[1:])) is not None


def test_cli_repeat_gate(tmp_path):
    path = tmp_path / "analyze.json"
    seen = {}
    body = {"schema": "apparent/v1", "command": "analyze", "fuchs": {"identity_holds": True}}
    path.write_text(json.dumps(body))
    assert workloads.check_cli((0, path), "analyze", "0/analyze", tmp_path, 0, seen, 1.0) is None
    path.write_text(json.dumps(body, indent=1))
    msg = workloads.check_cli((0, path), "analyze", "0/analyze", tmp_path, 0, seen, 1.0)
    assert msg is not None and "changed its JSON" in msg
    assert workloads.check_cli((1, path), "analyze", "0/analyze", tmp_path, 0, {}, 1.0) is not None


def test_renamed_boundary_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.BOUNDARIES, "polyrat", ("rational_roots_renamed",))
    t = tracer.Tracer()
    try:
        with pytest.raises(AttributeError):
            t.install()
    finally:
        t.uninstall()


def test_silent_boundary_is_reported():
    values = {"transform.deform.calls": 3, "transform.undeform.calls": 0, "cli.heun_ms": 0.0}
    expected = ("transform.deform", "transform.undeform", "cli.heun")
    assert run.silent_boundaries(expected, values) == ["transform.undeform", "cli.heun"]


def test_self_time_excludes_children():
    import apparent

    t = tracer.Tracer()
    t.install()
    try:
        apparent.deform(apparent.general_heun(gen.heun_params(random.Random(3))))
    finally:
        t.uninstall()
    spans = {s[0]: s for s in t.spans}
    (root,) = [s for s in t.spans if s[1] is None and s[3] == "heun.general_heun"]
    covered = sum(s[5] - s[4] for s in t.spans if s[1] == root[0])
    assert t.self_s["heun.general_heun"] == pytest.approx(root[5] - root[4] - covered)
    assert all(s[1] is None or s[1] in spans for s in t.spans)


def test_speed_probe_samples_inside_a_long_op():
    probe = speed.SpeedProbe()
    probe.start()
    t0, cpu0 = time.perf_counter(), time.process_time()
    while time.process_time() - cpu0 < 0.35:  # three SIGPROF intervals
        pass
    opening, closing, raw = probe.stop()
    wall = time.perf_counter() - t0
    assert closing - opening >= 3  # the opening sample and in-op ones
    assert len(probe.samples) == closing + 1
    assert raw < wall  # the in-op samples are not counted as op time
    mean = statistics.fmean(probe.samples[opening:closing + 1])
    assert probe.scale((opening, closing, raw)) == pytest.approx(raw * speed.REFERENCE_S / mean)
