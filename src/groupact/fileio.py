"""Small file helpers shared by the readers and writers in this package."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError


def f17(x: float) -> str:
    """Shortest decimal form that round-trips a float64 exactly."""
    return format(float(x), ".17g")


def float_lines(block, sep: str = " ") -> str:
    """A (count, width) float block as count lines of sep-joined f17 values, in one
    % operation: "%.17g" % x equals f17(x) for every float64."""
    count, width = np.shape(block)
    return "\n".join([sep.join(["%.17g"] * width)] * count) % tuple(np.ravel(block).tolist())


@contextmanager
def atomic_writer(path):
    """A binary file that takes path's place only once the with-block completes.

    It is a fresh temp file beside path, renamed into place on success, so
    readers never observe a partially written file and a crash leaves the
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
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write(path, data: bytes) -> None:
    """Write bytes to path through atomic_writer."""
    with atomic_writer(path) as f:
        f.write(data)


def atomic_write_text(path, text: str) -> None:
    """atomic_write of text encoded as UTF-8."""
    atomic_write(path, text.encode("utf-8"))


@contextmanager
def reading(path):
    """path opened for reading bytes. An OSError while opening or reading it
    becomes a ParseError that names the file."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None


def read_text(path) -> str:
    """A file's UTF-8 text, or a ParseError that names the file (and the line
    of the first byte that is not UTF-8)."""
    with reading(path) as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
