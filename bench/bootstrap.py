"""Start-up shared by the benchmark's entry points.

Importing this module pins BLAS to one thread; it must come before anything
imports numpy.  ``require_sources`` puts the checkout's ``src/`` first on the
import path, or exits with an error when the sources are missing.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"


def require_sources():
    if not (SRC / "canonkit" / "__init__.py").is_file():
        sys.exit(f"canonkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
