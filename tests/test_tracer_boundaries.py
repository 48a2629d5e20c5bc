"""Every function the benchmark tracer wraps still exists in the package.

perfbench/tracer.py names its span boundaries in BOUNDARIES and refuses
to install when one is missing, so a refactor that inlines or renames
a traced function would otherwise only show up in a traced benchmark
run.  The tracer is loaded from its file without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
