"""The traced benchmark run wraps functions by name; every name must resolve."""

import importlib
from pathlib import Path

import metastab
import metastab.cli  # noqa: F401  (the bench imports it before tracing)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workload")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in workload._trace_targets(metastab)
               if not callable(getattr(owner, attr, None))]
    assert missing == []
