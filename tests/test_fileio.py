"""fileio's container writer joins row blocks without changing a byte, and
its atomic writer creates files the way open() would."""

import os
import stat

import numpy as np
import pytest

from groupact.errors import ShapeError
from groupact.fileio import atomic_write, read_container, write_container

MAGIC, VERSION = b"TEST", 1


def _one_shot(path, name, arr):
    write_container(path, MAGIC, VERSION, {}, [(name, arr.shape, (arr,))])
    return path.read_bytes()


@pytest.mark.parametrize("buffer_bytes", [-1, 16, 48, 200, 1 << 15])
def test_row_blocks_write_the_bytes_of_one_chunk(tmp_path, buffer_bytes):
    # chunks of 1-9 rows against blocks smaller than one row, about one row,
    # several rows and all of them; integer chunks are stored as float64
    rng = np.random.default_rng(0)
    sizes = [3, 1, 9, 2, 2, 7, 1, 5]
    rows = [rng.normal(size=(n, 3)) for n in sizes]
    ints = [rng.integers(0, 9, size=n) for n in sizes]
    path = tmp_path / "blocks.bin"
    write_container(path, MAGIC, VERSION, {"k": "v"},
                    [("rows", (sum(sizes), 3), iter(rows)), ("ints", (sum(sizes),), ints)],
                    buffer_bytes=buffer_bytes)
    meta, records = read_container(path, MAGIC, VERSION, "test")
    assert meta == {"k": "v"}
    np.testing.assert_array_equal(records[0][1], np.concatenate(rows))
    np.testing.assert_array_equal(records[1][1], np.concatenate(ints))
    rows_only = tmp_path / "rows.bin"
    write_container(rows_only, MAGIC, VERSION, {}, [("rows", (sum(sizes), 3), rows)],
                    buffer_bytes=buffer_bytes)
    assert rows_only.read_bytes() == _one_shot(tmp_path / "one.bin", "rows", np.concatenate(rows))


@pytest.mark.parametrize("chunks", [
    [np.zeros((2, 3)), np.zeros((2, 4))],  # trailing widths differ
    [np.zeros((3, 2)), np.zeros((3, 2))],  # both are 2 wide, the record 3 wide
    [np.zeros((2, 3)), np.zeros(6)],  # a flat chunk among rows
    [np.zeros((2, 3)), np.zeros((1, 2, 3))],  # one dimension too many
    [np.zeros((2, 3)), np.float64(0.0)],  # a 0-d chunk
], ids=["widths", "record-width", "flat", "3-d", "0-d"])
def test_chunks_that_are_not_row_blocks_fail_naming_the_record(tmp_path, chunks):
    path = tmp_path / "bad.bin"
    with pytest.raises(ShapeError, match=r"record 'feat': chunks are not row blocks of shape "
                                         r"\(n, 3\)"):
        write_container(path, MAGIC, VERSION, {}, [("feat", (4, 3), chunks)])
    assert not list(tmp_path.iterdir())


def test_a_0d_record_of_several_chunks_fails(tmp_path):
    with pytest.raises(ShapeError, match=r"record 'step': chunks are not row blocks"):
        write_container(tmp_path / "bad.bin", MAGIC, VERSION, {},
                        [("step", (), [np.float64(1.0), np.float64(2.0)])])


def test_a_record_of_one_0d_chunk_keeps_its_bytes(tmp_path):
    # as Adam's optim/step is saved in a checkpoint
    path = tmp_path / "step.bin"
    write_container(path, MAGIC, VERSION, {}, [("step", (), (np.float64(7.0),)),
                                               ("empty", (0, 3), ())])
    _, records = read_container(path, MAGIC, VERSION, "test")
    assert [(name, arr.shape) for name, arr in records] == [("step", ()), ("empty", (0, 3))]
    assert records[0][1] == 7.0
    assert path.read_bytes().endswith(np.float64(7.0).tobytes() + b"\x05\x00\x00\x00empty"
                                      + bytes.fromhex("02000000") + (0).to_bytes(8, "little")
                                      + (3).to_bytes(8, "little"))


def test_a_record_of_one_chunk_may_have_any_shape(tmp_path):
    path = tmp_path / "flat.bin"
    write_container(path, MAGIC, VERSION, {}, [("grid", (2, 3), (np.arange(6),))])
    _, records = read_container(path, MAGIC, VERSION, "test")
    np.testing.assert_array_equal(records[0][1], np.arange(6.0).reshape(2, 3))


def test_short_row_blocks_still_fail_to_fill_the_shape(tmp_path):
    with pytest.raises(ShapeError, match=r"chunks do not fill shape \(5, 3\)"):
        write_container(tmp_path / "short.bin", MAGIC, VERSION, {},
                        [("feat", (5, 3), [np.zeros((2, 3)), np.zeros((2, 3))])])


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_atomic_write_leaves_the_umask_to_the_kernel(tmp_path, monkeypatch):
    # reading the umask means setting it, which races other threads' creates
    def no_umask(mask):
        raise AssertionError("atomic_write must not set the umask")

    real_umask = os.umask
    old = real_umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        path = tmp_path / "out.bin"
        atomic_write(path, b"data")
        atomic_write(path, b"again")
        monkeypatch.undo()
    finally:
        real_umask(old)
    assert path.read_bytes() == b"again"
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
