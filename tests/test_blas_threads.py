"""The suite runs on one BLAS thread (tests/conftest.py sets it before numpy
loads); the golden outputs were recorded that way."""

import importlib.util
from pathlib import Path

MACHINE = Path(__file__).resolve().parents[1] / "perfbench" / "machine.py"


def test_loaded_blas_reports_one_thread():
    spec = importlib.util.spec_from_file_location("perfbench_machine", MACHINE)
    machine = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(machine)
    assert machine._blas_threads() == 1
