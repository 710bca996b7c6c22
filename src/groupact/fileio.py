"""Small file helpers shared by the writers in this package."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def f17(x: float) -> str:
    """Shortest decimal form that round-trips a float64 exactly."""
    return format(float(x), ".17g")


def atomic_write(path, data: bytes) -> None:
    """Write bytes to a fresh temp file beside path and rename it into place.

    Readers never observe a partially written file, and a crash leaves the
    previous version (or nothing) behind. Every write has its own temp name,
    so writers to one path do not collide; a failed write removes it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            umask = os.umask(0)
            os.umask(umask)
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """atomic_write of text encoded as UTF-8."""
    atomic_write(path, text.encode("utf-8"))
