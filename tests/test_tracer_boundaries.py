"""Every function the benchmark tracer wraps still exists in the package.

perfbench/tracer.py names its span boundaries in BOUNDARIES and refuses
to install when one is missing, so a refactor that inlines or renames
a traced function would otherwise only show up in a traced benchmark
run.  The tracer is loaded from its file without writing bytecode.

A traced benchmark run also stops when a boundary its workload expects
never fires, so one traced pass of each in-process workload runs here,
through the benchmark's own run loop and check; nothing under perfbench/
is edited.

The package namespace the tracer patches is checked here too: `import
apparent` loads no submodule, one public lookup loads the whole API,
and installing then uninstalling the tracer restores every binding.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import apparent

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(monkeypatch):
    boundaries = load_tracer(monkeypatch).BOUNDARIES
    missing = []
    for module_name, attrs in boundaries.items():
        module = importlib.import_module(f"apparent.{module_name}")
        for attr in attrs:
            if "." in attr:
                # a method, looked up on its class the way the tracer does
                cls_name, meth = attr.split(".")
                found = callable(vars(getattr(module, cls_name, object)).get(meth))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("name", ["family_roundtrip", "deform_ladder", "polymer_spectrum"])
def test_traced_pass_fires_every_expected_boundary(name, monkeypatch, tmp_path):
    tracer = load_tracer(monkeypatch).Tracer()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    work = importlib.import_module("workloads").build(name, 1, tmp_path, ROOT)
    phase = run.Phase()
    tracer.install()
    try:
        run.run_passes(work, phase, run.speed.SpeedProbe(), passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failures == []
    assert run.silent_boundaries(work.expected, tracer.metrics()) == []


API_MODULES = ("errors", "polyrat", "odemodel", "frobenius", "transform", "heun", "polymer")
# a fresh process: apparent modules loaded by the import, then by one lookup
NAMESPACE_PROBE = """
import json, sys
import apparent
before = [m for m in sys.modules if m.startswith("apparent.")]
apparent.INFINITY
print(json.dumps([before, [m for m in sys.modules if m.startswith("apparent.")]]))
"""


def test_first_public_lookup_loads_the_whole_api():
    proc = subprocess.run([sys.executable, "-c", NAMESPACE_PROBE], capture_output=True,
                          text=True, check=True)
    before, after = json.loads(proc.stdout)
    assert before == []
    assert {f"apparent.{m}" for m in API_MODULES} <= set(after)


def test_tracer_round_trip_restores_every_binding(monkeypatch):
    apparent.RatPoly  # loads the whole API, as the benchmark's workloads do
    modules = [m for n, m in sys.modules.items() if n == "apparent" or n.startswith("apparent.")]
    owners = [*modules, apparent.RatPoly]

    def bindings():
        return [{k: id(v) for k, v in vars(owner).items()} for owner in owners]

    before = bindings()
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        assert bindings() != before
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_package_namespace():
    namespace = {}
    exec("from apparent import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(apparent.__all__)
    assert len(apparent.__all__) == 65
    assert set(apparent.__all__) <= set(dir(apparent))
    with pytest.raises(AttributeError):
        apparent.no_such_name
