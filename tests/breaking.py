"""Break a runner unit from the outside: raise, SIGKILL its worker, or hang.

The runner sends a unit function to its worker by reference, so a test
never patches the unit function itself.  It patches a function the unit
body calls (``pipeline.run_flow``, ``DecisionTreeClassifier.grow``, ...)
with :func:`breaking`; a forked worker inherits the patch.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import time


class UnitBroken(RuntimeError):
    """What :func:`fail` raises."""


def fail() -> None:
    raise UnitBroken("broken on purpose")


def crash(delay_s: float = 0.05) -> None:
    """SIGKILL this worker after ``delay_s``, as the OOM killer would."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("a crash would kill the test process, not a worker")
    time.sleep(delay_s)
    os.kill(os.getpid(), signal.SIGKILL)


def claim(marker) -> bool:
    """True for the first caller, in any process, to create the file ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def breaking(real, action=fail, when=None, once=None):
    """``real``, except that a call matching ``when`` runs ``action`` first.

    ``when(*args, **kwargs)`` picks the calls to break (default: every
    call); with ``once``, a marker file path, only the call that claims the
    marker breaks.
    """

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        if (when is None or when(*args, **kwargs)) and (once is None or claim(once)):
            action()
        return real(*args, **kwargs)

    return wrapper
