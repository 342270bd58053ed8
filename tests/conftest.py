"""Pin the BLAS to one thread before numpy loads, as perfbench/run.py does.

OpenBLAS picks its GEMM kernel by size and by thread count, so the golden
bytes of training, transfer and eval hold at one thread count only; the
suite runs at the benchmark's one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
