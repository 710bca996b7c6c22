"""Small file helpers shared by the readers and writers in this package, and
the binary container that checkpoints and datasets are stored in.

Container layout, all integers little-endian:

    magic   4 bytes
    version u32
    u32 meta count, then per entry: u32 key length, key utf-8, u32 value
    length, value utf-8
    u32 record count, then per record: u32 name length, name utf-8, u32 ndim,
    ndim * u64 dims, raw float64 values
"""

from __future__ import annotations

import io
import itertools
import math
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError

_U32 = struct.Struct("<I")
# a new file, never an existing one; O_BINARY keeps Windows from translating bytes
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
_END = object()  # what next() gives for an exhausted iterator of chunks

# metadata value type -> (encode, decode). A value is read only from the one
# text its encoder writes, so a file loads only as what a save would write.
META_CODECS = {
    "int": (str, int),
    "float": (lambda v: repr(float(v)), float),
    "bool": (lambda v: str(int(v)), lambda text: bool(int(text))),
    "str": (str, str),
}


def f17(x: float) -> str:
    """x to 17 significant digits, which round-trip every float64 (0.1 -> 0.10000000000000001)."""
    return format(float(x), ".17g")


def float_lines(block) -> str:
    """A (count, width) float block as count lines of comma-joined f17 values, in
    one % operation: "%.17g" % x equals f17(x) for every float64."""
    count, width = np.shape(block)
    return "\n".join([",".join(["%.17g"] * width)] * count) % tuple(np.ravel(block).tolist())


@contextmanager
def atomic_writer(path, buffer_bytes: int = -1):
    """A binary file that takes path's place only once the with-block completes.

    It is a fresh temp file beside path, renamed into place on success, so
    readers never observe a partially written file and a crash leaves the
    previous version (or nothing) behind. Every write has its own random temp
    name, so writers to one path do not collide; a failed write removes it.
    The temp file is created with mode 0o666 and the kernel applies the
    umask, as open() would. buffer_bytes sizes the file's write buffer (-1:
    Python's default).
    """
    path = Path(path)
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp, _CREATE, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb", buffer_bytes) as f:
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


def check_lines(path, text: str, written: str) -> None:
    """A ParseError at the first line (by str.splitlines) where text, read from
    path, differs from written, the text its writer makes of what was read."""
    for no, pair in enumerate(itertools.zip_longest(text.splitlines(), written.splitlines()), 1):
        if pair[0] != pair[1]:
            got, want = ("end of file" if line is None else repr(line) for line in pair)
            raise ParseError(path, no, f"{got} disagrees with the written form {want}")


def meta_encode(kind: str, value) -> str:
    """value as the text META_CODECS[kind] writes for it."""
    return META_CODECS[kind][0](value)


def meta_decode(kind: str, text: str):
    """The value of a metadata text; ValueError unless the text is the one that
    meta_encode writes for that value (`1_0`, `+8`, `7` for a bool and
    `0.10` fail)."""
    encode, decode = META_CODECS[kind]
    value = decode(text)
    if encode(value) != text:
        raise ValueError(f"{text!r} is not a canonical {kind}")
    return value


def _string(text) -> bytes:
    data = str(text).encode()
    return _U32.pack(len(data)) + data


def _write_record(f, name, shape, chunks, block_bytes: int) -> int:
    """Write one record's chunks to f as write_container describes; returns
    the bytes written. Row blocks are joined into blocks of at most
    block_bytes, or of one chunk where that chunk is larger."""
    chunks = iter(chunks)
    first, second = next(chunks, _END), next(chunks, _END)
    if second is _END:
        # tobytes, not the array's buffer: exporting a buffer leaves numpy's
        # cached buffer info on the caller's array
        return 0 if first is _END else f.write(np.asarray(first, dtype="<f8").tobytes())
    trailing = tuple(shape[1:])
    bad = (f"record {name!r}: chunks are not row blocks of shape "
           f"({', '.join(['n', *map(str, trailing)])})")
    most = max(block_bytes // (8 * math.prod(trailing) or 1), 1)  # rows per block

    def write(group):
        try:
            block = np.concatenate(group, dtype="<f8")
        except ValueError:
            raise ShapeError(bad) from None
        if block.shape[1:] != trailing:
            raise ShapeError(bad)
        # a fresh array, so its own buffer is written without a copy
        return f.write(block)

    group, rows, written = [], 0, 0
    for chunk in itertools.chain((first, second), chunks):
        try:
            n = len(chunk)
        except TypeError:  # a 0-d chunk
            raise ShapeError(bad) from None
        if group and rows + n > most:
            written += write(group)
            group, rows = [], 0
        group.append(chunk)
        rows += n
    return written + write(group)


def write_container(path, magic: bytes, version: int, meta: dict, records,
                    buffer_bytes: int = -1) -> None:
    """Write a container through atomic_writer. records is a sequence of
    (name, shape, chunks): chunks is an iterable of arrays whose values, in
    order, fill a float64 array of that shape, so a record can be written a
    piece at a time without ever being held whole. A record of one chunk
    may give it any shape. The chunks of a record of several must be row
    blocks, arrays of shape (n, *shape[1:]) for any n, else ShapeError; they
    are written in blocks of at most buffer_bytes (of one chunk where a
    chunk is larger), so a save holds one block and the buffer. buffer_bytes
    sizes the write buffer: a writer that holds its records anyway saves
    system calls with a large one, and a streaming writer bounds its memory
    with a small one."""
    records = list(records)
    head = [magic, _U32.pack(version), _U32.pack(len(meta))]
    for key, value in meta.items():
        head += [_string(key), _string(value)]
    head.append(_U32.pack(len(records)))
    block_bytes = buffer_bytes if buffer_bytes > 0 else io.DEFAULT_BUFFER_SIZE
    with atomic_writer(path, buffer_bytes) as f:
        f.write(b"".join(head))
        for name, shape, chunks in records:
            f.write(_string(name) + struct.pack(f"<I{len(shape)}Q", len(shape), *shape))
            if _write_record(f, name, shape, chunks, block_bytes) != 8 * math.prod(shape):
                raise ShapeError(f"record {name!r}: chunks do not fill shape {tuple(shape)}")


def read_container(path, magic: bytes, version: int, kind: str, hint: str = ""):
    """(meta, [(name, float64 array)]) of a container that write_container wrote.

    kind names the file in errors. A file that does not start with magic and
    version fails at line 1, where a text file's header sits, with hint
    appended; every other error is reported at line 0. Every length read
    from the file is checked against the bytes left in it before anything
    is allocated for it, and each record is read straight into its array.
    """
    with reading(path) as f:
        left = os.fstat(f.fileno()).st_size

        def fail(msg, line_no=0):
            raise ParseError(path, line_no, msg)

        def take(n, what, *args):  # what.format(*args) names the bytes in an error
            nonlocal left
            if n > left:
                fail(f"truncated {kind}: {what.format(*args)} needs {n} bytes, {left} left")
            left -= n
            return f.read(n)

        def string(what, *args):
            data = take(_U32.unpack(take(4, what, *args))[0], what, *args)
            try:
                return data.decode()
            except UnicodeDecodeError:
                fail(f"{what.format(*args)} is not UTF-8: {data[:40]!r}")

        got = f.read(8)
        left -= len(got)
        if got[:4] != magic or len(got) < 8 or _U32.unpack(got[4:])[0] != version:
            fail(f"expected {kind} header {magic.decode()} v{version}, got {got!r}{hint}", 1)
        meta = {}
        for _ in range(_U32.unpack(take(4, "metadata count"))[0]):
            key = string("metadata key")
            if key in meta:
                fail(f"duplicate metadata key {key!r}")
            meta[key] = string("metadata value of {!r}", key)
        records = []
        for _ in range(_U32.unpack(take(4, "record count"))[0]):
            name = string("record name")
            ndim = _U32.unpack(take(4, "record {!r}", name))[0]
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, "record {!r}", name))
            # Python ints: a forged shape cannot overflow, and it fails here
            # instead of asking for the memory
            nbytes = 8 * math.prod(shape)
            if nbytes > left:
                fail(f"truncated {kind}: record {name!r} of shape {shape} needs {nbytes} "
                     f"bytes, {left} left")
            left -= nbytes
            arr = np.empty(shape, dtype="<f8")
            if f.readinto(arr) != nbytes:  # the file shrank while read
                fail(f"truncated {kind}: record {name!r}")
            records.append((name, arr))
        if left:
            fail(f"{left} trailing bytes after the {kind}'s last record")
    return meta, records
