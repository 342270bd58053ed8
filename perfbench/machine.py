"""Facts about the machine, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

# What this benchmark cannot control on a host shared with other tenants.
LIMITS = {
    "cores": "shared with other tenants",
    "cpu_pinning": False,
    "cache_dropping": False,
    "note": "wall-clock scaling over workers is not measured",
}

_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the BLAS library numpy loaded, if it says."""
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh if len(line.split()) >= 6]
    except OSError:
        return None
    for path in sorted({p for p in paths if "blas" in p.lower() or "mkl" in p.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_model": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "limits": LIMITS,
    }
