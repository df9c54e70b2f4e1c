"""Host, library and BLAS-thread provenance recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

#: environment variables that set BLAS/OpenMP thread counts; recorded,
#: never set, for measured operations
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")


def thread_env() -> dict:
    return {name: os.environ.get(name) for name in THREAD_ENV}


def _openblas_copy(package) -> dict:
    """Config string and thread count in effect of the OpenBLAS bundled
    in ``<package>.libs`` (numpy's is the 64-bit-integer build)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"library": os.path.basename(path),
                    "config": config().decode(errors="replace").strip(),
                    "num_threads": int(threads())}
    return {"library": None, "config": None, "num_threads": None}


def blas_threads() -> dict:
    """Thread count actually in effect in both bundled OpenBLAS copies.

    Call after numpy and scipy.linalg are imported, so the libraries
    queried are the ones the program uses.
    """
    import numpy
    import scipy
    return {"numpy_version": numpy.__version__,
            "scipy_version": scipy.__version__,
            "numpy": _openblas_copy(numpy), "scipy": _openblas_copy(scipy)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over the program's source files; identifies the revision
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def host_provenance(root: str) -> dict:
    """Host facts; the library versions and BLAS thread counts come
    from the measured interpreters themselves (:func:`blas_threads`)."""
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "thread_env": thread_env(),
            "git_revision": _git_revision(root),
            "source_sha256": source_digest(root)}
