"""Pin the BLAS to one thread before numpy loads, as perfbench/run.py does.

OpenBLAS picks its GEMM kernel by size and by thread count, so the golden
bytes of training, transfer and eval hold at one thread count only; the
suite runs at the benchmark's one. The kernel itself follows the CPU, so the
report header names it with the numpy and scipy versions.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _openblas_info() -> str:
    """Core and build config of the OpenBLAS numpy loaded, read from the
    library itself (numpy's wheel prefixes its symbols with scipy_)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "openblas: not found"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            getters = [getattr(lib, f"{prefix}_get_{what}{suffix}", None)
                       for what in ("corename", "config")]
            if None not in getters:
                for fn in getters:
                    fn.restype = ctypes.c_char_p
                    fn.argtypes = []
                core, config = (fn().decode() for fn in getters)
                return f"openblas: core {core}; config {config}"
    return "openblas: not found"


def pytest_report_header(config):
    import numpy as np
    import scipy

    return [f"numpy {np.__version__}, scipy {scipy.__version__}", _openblas_info()]
