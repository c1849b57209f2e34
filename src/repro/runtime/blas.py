"""Thread control for the OpenBLAS builds already loaded into this process.

Forked pool workers inherit the parent's multi-threaded OpenBLAS, so two
workers on two CPUs run up to four BLAS threads and oversubscribe the
machine.  :func:`pin_one_thread` caps a worker at one thread with no extra
package: it sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` for libraries
loaded later, and calls the setters of the OpenBLAS builds that numpy
(``scipy_openblas_set_num_threads64_``) and scipy
(``scipy_openblas_set_num_threads``) bundle, found through
``/proc/self/maps`` and ``ctypes``.  Where neither is present (another BLAS,
another platform) the setters are skipped.
"""

from __future__ import annotations

import ctypes
import os

#: (setter, getter) symbol pairs of the bundled numpy and scipy OpenBLAS builds
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _loaded_openblas() -> list[ctypes.CDLL]:
    """Handles to every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
    except OSError:
        return []
    paths = {p for p in paths if "openblas" in os.path.basename(p).lower() and ".so" in p}
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))  # already loaded: no second copy
        except OSError:
            pass
    return libs


def thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by getter symbol."""
    counts = {}
    for lib in _loaded_openblas():
        for _, getter in _SYMBOLS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                counts[getter] = int(fn())
    return counts


def pin_one_thread() -> None:
    """Run BLAS/OpenMP on one thread in this process from now on."""
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    for lib in _loaded_openblas():
        for setter, _ in _SYMBOLS:
            fn = getattr(lib, setter, None)
            if fn is not None:
                fn(ctypes.c_int(1))
