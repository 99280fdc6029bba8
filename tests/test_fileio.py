import tracemalloc

import numpy as np
import pytest

from duralign.attention import AlignmentMatrix, _csv_chunks
from duralign.fileio import atomic_write_bytes


def _failing_chunks():
    yield b"new head\n"
    raise RuntimeError("source failed")


def _leftovers(directory, name):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(f".{name}."))


class TestAtomicWriteBytes:
    @pytest.mark.parametrize("data", [b"a,b\n1,2\n", bytearray(b"a,b\n1,2\n"), [b"a,b\n", b"", b"1,2\n"]])
    def test_bytes_or_chunks(self, tmp_path, data):
        atomic_write_bytes(tmp_path / "out" / "x.csv", data)
        assert (tmp_path / "out" / "x.csv").read_bytes() == b"a,b\n1,2\n"
        assert _leftovers(tmp_path / "out", "x.csv") == []

    def test_failing_source_leaves_no_target(self, tmp_path):
        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_bytes(tmp_path / "x.csv", _failing_chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failing_source_keeps_the_old_target(self, tmp_path):
        target = tmp_path / "x.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_bytes(target, _failing_chunks())
        assert target.read_bytes() == b"old\n"
        assert _leftovers(tmp_path, "x.csv") == []


    def test_a_temporary_file_that_cannot_be_removed_leaves_the_first_error(self, tmp_path, monkeypatch):
        def failing_unlink(path):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr("duralign.fileio.os.unlink", failing_unlink)
        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_bytes(tmp_path / "x.csv", _failing_chunks())
        assert not (tmp_path / "x.csv").exists()
        assert [(tmp_path / name).read_bytes() for name in _leftovers(tmp_path, "x.csv")] == [b"new head\n"]


def _traced_peak(path, t_steps):
    """Peak traced allocation while streaming a dense (t_steps, 256) alignment's CSV."""
    alignment = AlignmentMatrix(probs=np.random.default_rng(t_steps).random((t_steps, 256)))
    tracemalloc.start()
    try:
        atomic_write_bytes(path, _csv_chunks(alignment))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_csv_memory_is_one_block(tmp_path):
    # Holding the text, even once, would peak above the CSV's length; a
    # streamed export holds one 128-row block, the same at every length.
    short = _traced_peak(tmp_path / "short.csv", 1024)
    long = _traced_peak(tmp_path / "long.csv", 4096)
    assert long <= 1.25 * short
    assert long < (tmp_path / "long.csv").stat().st_size / 2
