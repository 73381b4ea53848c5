"""fslock: the lock file names its live holder."""

import os
import subprocess
import sys

import pytest

from repro.core import fslock


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_lock_holder_reads_pid_written_by_file_lock(tmp_path):
    path = tmp_path / ".lock"
    with fslock.file_lock(path):
        assert fslock.lock_holder(path) == os.getpid()
    assert path.read_text() == f"{os.getpid()}\n"
    # after release the recorded pid is still this (live) process
    assert fslock.lock_holder(path) == os.getpid()


def test_lock_holder_dead_pid_is_none(tmp_path):
    path = tmp_path / ".lock"
    path.write_text(f"{_dead_pid()} 12345\n")
    assert fslock.lock_holder(path) is None


def test_lock_holder_ignores_a_second_field(tmp_path):
    """Lock files from older versions add a start time after the pid."""
    path = tmp_path / ".lock"
    path.write_text(f"{os.getpid()} 424242\n")
    assert fslock.lock_holder(path) == os.getpid()
    path.write_text(f"{_dead_pid()}\n")
    assert fslock.lock_holder(path) is None


def test_lock_holder_garbage_file(tmp_path):
    path = tmp_path / ".lock"
    path.write_text("not a pid\n")
    assert fslock.lock_holder(path) is None
    path.write_text("")
    assert fslock.lock_holder(path) is None
    assert fslock.lock_holder(tmp_path / "absent") is None


def test_file_lock_mutual_exclusion_still_works(tmp_path):
    """The pid stamp must not break basic lock semantics."""
    path = tmp_path / ".lock"
    with fslock.file_lock(path):
        with pytest.raises(fslock.LockTimeout) as err:
            # second acquisition in another *process* would block; in the
            # same process flock is re-entrant per-fd, so probe via a
            # subprocess that tries a 0.2s acquisition.
            code = (
                "import sys; sys.path.insert(0, sys.argv[2])\n"
                "from repro.core.fslock import file_lock\n"
                "with file_lock(sys.argv[1], timeout=0.2):\n"
                "    pass\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code, str(path), "src"],
                capture_output=True,
                text=True,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            )
            if proc.returncode == 0:
                pytest.fail("subprocess acquired a held lock")
            raise fslock.LockTimeout(str(path), 0.2, os.getpid())
        assert "could not lock" in str(err.value)
