"""Thread control for the OpenBLAS builds already loaded into this process.

Forked worker processes inherit the parent's multi-threaded OpenBLAS, so two
workers on two CPUs run up to four BLAS threads and oversubscribe the
machine.  :func:`pin_one_thread` caps a worker at one thread with no extra
package: it sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` for libraries
loaded later, and calls the setters of the OpenBLAS builds that numpy
(``scipy_openblas_set_num_threads64_``) and scipy
(``scipy_openblas_set_num_threads``) bundle, found through
``/proc/self/maps`` and ``ctypes``.  Where neither is present (another BLAS,
another platform) the setters are skipped.

:func:`thread_budget` lowers the same loaded builds for the length of one
block — a Table II (model, group) unit — and restores their counts after
it.  It never raises a count, so a pinned worker stays on one thread.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

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


def _set_threads(count: Callable[[int], int]) -> list[tuple[str, Any, int, int]]:
    """Set each loaded OpenBLAS to ``count(current)`` threads, calling the
    setter only where that changes the count; one ``(getter, setter, old,
    new)`` row per build."""
    rows = []
    for lib in _loaded_openblas():
        for setter, getter in _SYMBOLS:
            set_fn, get_fn = getattr(lib, setter, None), getattr(lib, getter, None)
            if set_fn is not None and get_fn is not None:
                old = int(get_fn())
                new = count(old)
                if new != old:
                    set_fn(ctypes.c_int(new))
                rows.append((getter, set_fn, old, new))
    return rows


def thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by getter symbol."""
    return {getter: old for getter, _, old, _ in _set_threads(lambda n: n)}


def pin_one_thread() -> None:
    """Run BLAS/OpenMP on one thread in this process from now on."""
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    _set_threads(lambda _: 1)


@contextmanager
def thread_budget(n: int | None) -> Iterator[int | None]:
    """Run the block with every loaded OpenBLAS at ``min(n, current)`` threads.

    ``None`` keeps the current counts.  Yields the count the block runs with
    (the largest over the loaded builds; ``None`` when none is loaded) and
    restores the saved counts on exit, also when the block raises.  Only the
    loaded libraries are touched, not the environment.
    """
    rows = _set_threads(lambda cur: cur if n is None else max(1, min(n, cur)))
    try:
        yield max((new for _, _, _, new in rows), default=None)
    finally:
        for _, set_fn, old, new in rows:
            if new != old:
                set_fn(ctypes.c_int(old))
