"""The environment block recorded with every result.

BLAS threads are left as the user runs them; this module only records
them.  ``blas_key`` holds the fields that move small-matrix timings, and
``compare.py`` refuses to compare timings whose keys differ.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from typing import Any, Dict, Optional

_THREAD_SYMBOLS = ("openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _loaded_openblas() -> Optional[str]:
    """Path of the OpenBLAS shared library this process has mapped."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "openblas" in name and ".so" in name:
                    return path
    except OSError:
        return None
    return None


def openblas_threads() -> Dict[str, Any]:
    """Ask the loaded OpenBLAS for its thread count through ctypes."""
    path = _loaded_openblas()
    if path is None:
        return {"library": None, "symbol": None, "threads": None}
    library = ctypes.CDLL(path)
    for symbol in _THREAD_SYMBOLS:
        fn = getattr(library, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return {"library": os.path.basename(path), "symbol": symbol,
                    "threads": int(fn())}
    return {"library": os.path.basename(path), "symbol": None,
            "threads": None}


def environment() -> Dict[str, Any]:
    """BLAS/LAPACK build, BLAS threads, cores, start method and versions."""
    import numpy

    from repro.parallel import worker_context

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})

    def library(kind: str) -> Dict[str, Any]:
        entry = deps.get(kind, {})
        return {"name": entry.get("name"), "version": entry.get("version"),
                "config": entry.get("openblas configuration")}

    return {
        "blas": library("blas"),
        "lapack": library("lapack"),
        "blas_threads": {
            "env": {name: os.environ.get(name) for name in _THREAD_ENV},
            "probe": openblas_threads(),
        },
        "cpu_count": os.cpu_count(),
        "mp_start_method": worker_context().get_start_method(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def blas_key(env: Dict[str, Any]) -> Dict[str, Any]:
    """The part of ``environment()`` two timing results must share."""
    return {
        "blas": [env["blas"]["name"], env["blas"]["version"]],
        "lapack": [env["lapack"]["name"], env["lapack"]["version"]],
        "threads_env": env["blas_threads"]["env"],
        "threads": env["blas_threads"]["probe"]["threads"],
        "cpu_count": env["cpu_count"],
    }
