"""Atomic file output: every file a command writes goes through here."""

from __future__ import annotations

import contextlib
import csv
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing and, when the block
    ends cleanly, move it onto ``path`` with one ``os.replace``. A reader
    then sees the old file or the new one, never a partial one. If the block
    raises, the temporary file is removed and ``path`` is left as it was.
    (No fsync: this guards against a failing or killed process, not against
    a power cut.)"""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """One table, written atomically: the ``header`` row, then ``rows``."""
    with atomic_open(path, newline="") as f:
        out = csv.writer(f)
        out.writerow(header)
        out.writerows(rows)
