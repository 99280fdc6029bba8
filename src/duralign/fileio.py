"""Atomic file output helpers.

Everything is written via a temp file in the destination directory
followed by os.replace, so an interrupted run never leaves a partial
artifact behind.  ``atomic_write_bytes`` also takes an iterable of
chunks and writes each into the temp file as it comes: the CLI streams
its CSV exports this way, one 128-row block at a time, so export memory
is one block whatever the length of the alignment.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

__all__ = ["atomic_write_text", "atomic_write_bytes"]


def atomic_write_bytes(path: str | Path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data`` (one bytes-like object, or an iterable of them written
    in order) to ``path``; if the iterable raises, ``path`` is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines((data,) if isinstance(data, (bytes, bytearray, memoryview)) else data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
