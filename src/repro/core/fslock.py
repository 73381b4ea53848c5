"""Advisory file locking for on-disk state shared between processes.

Two sweeps running on one machine share the run cache and (if pointed at
the same name) a checkpoint journal.  Individual record writes are
already atomic (temp file + ``os.replace``), but read-modify-write
sequences — journal appends, quarantine moves — need mutual exclusion.
:func:`file_lock` provides it with BSD ``flock``:

* the lock dies with its holder, so a SIGKILLed sweep can never leave
  the directory permanently locked — a leftover lock *file* is inert
  metadata, not a held lock (stale-lock recovery is automatic);
* the holder's pid is recorded in the lock file, only so that a
  :class:`LockTimeout` can name the live process that kept it;
* on platforms without ``fcntl`` (Windows) the lock degrades to a no-op
  rather than blocking the harness — single-machine POSIX clusters are
  the deployment target.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, Optional

try:  # POSIX only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(TimeoutError):
    """The lock stayed held by a *live* process for the whole timeout."""

    def __init__(self, path: str, timeout: float, holder: Optional[int]) -> None:
        self.path = path
        self.holder = holder
        who = f"pid {holder}" if holder else "an unknown process"
        super().__init__(
            f"could not lock {path} within {timeout:.1f}s (held by {who}); "
            "another sweep is writing here — wait for it or use a separate "
            "REPRO_CACHE_DIR/REPRO_CHECKPOINT_DIR"
        )


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists (any owner)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False


def lock_holder(path: os.PathLike) -> Optional[int]:
    """PID of the *live* process that last acquired the lock, else ``None``.

    The lock file records the holder's pid (lock files written by older
    versions add a second field, which is ignored).  This is advisory
    diagnostics only: with ``flock`` a dead process's lock is already
    released regardless of what the file says.
    """
    try:
        with open(path, "r") as fh:
            pid = int(fh.read().split()[0])
    except (OSError, IndexError, ValueError):
        return None
    return pid if pid_alive(pid) else None


@contextlib.contextmanager
def file_lock(path: os.PathLike, timeout: float = 30.0) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` for the ``with`` body.

    Non-blocking acquisition retried until ``timeout`` (seconds), then
    :class:`LockTimeout`.  The lock file itself is left in place after
    release — it is a rendezvous point, not a token, so its existence
    means nothing (see module docstring on stale locks).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        deadline = time.monotonic() + timeout
        delay = 0.005
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        os.fspath(path), timeout, lock_holder(path)
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.1)
        try:
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
