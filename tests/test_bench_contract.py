"""What the benchmark under perfbench/ needs from the library.

The benchmark traces library functions by name and imports its workloads
from the library; a rename or deletion in src/ would otherwise surface only
when the benchmark runs.  perfbench/ is put on the import path for these
tests and nothing is written under it.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)


def test_every_traced_target_resolves(perfbench_path):
    bench_trace = importlib.import_module("bench_trace")
    assert bench_trace.TARGETS
    for module, attr, _ in bench_trace.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr} is not callable"


def test_kernel_backend_is_reported():
    from uavisac import _kernels

    assert callable(_kernels.backend)


def test_workloads_import(perfbench_path):
    bench_workloads = importlib.import_module("bench_workloads")
    assert set(bench_workloads.WORKLOADS) == {"dataset", "eval-opt"}
