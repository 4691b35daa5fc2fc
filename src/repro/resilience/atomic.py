"""Atomic file writes — crash-safe artifact persistence.

A sweep that is killed mid-write (OOM, timeout, Ctrl-C, power loss)
must never leave a truncated CSV or manifest behind: downstream plotting
and ``--resume`` both trust that an artifact which *exists* is
*complete*.  The standard POSIX recipe delivers that guarantee: write
to a temporary file **in the same directory** (so the final rename
never crosses a filesystem boundary), flush + fsync, then
``os.replace`` — which is atomic on POSIX and on modern Windows.

The persistent caches (result entries, rounding tables) store *sealed
records* on top of that: the payload, then a footer of a per-format
magic and the sha256 of the payload.  :func:`write_sealed` writes one
atomically and tolerates a full disk; :func:`unseal` verifies one
before any byte of it is trusted, so a truncated or bit-rotted file is
detected rather than inferred from a parse error.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import tempfile
from typing import IO, Iterable, Iterator

__all__ = ["atomic_open", "atomic_write_text", "write_sealed", "unseal"]

_DIGEST_LEN = hashlib.sha256().digest_size


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", encoding: str | None = None,
                newline: str | None = None) -> Iterator[IO]:
    """Open a temporary sibling of *path* for writing; publish on success.

    Yields a file handle backed by ``<path>.<random>.tmp`` in the same
    directory.  If the block completes, the temporary is fsynced and
    atomically renamed over *path*; if it raises (or the process dies),
    *path* is untouched and the temporary is removed (or left as
    ``*.tmp`` debris that never shadows a real artifact).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=encoding, newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> str:
    """Atomically replace *path* with *text*; returns *path*."""
    with atomic_open(path, "w", encoding=encoding) as fh:
        fh.write(text)
    return path


def write_sealed(path: str, chunks: Iterable[bytes], magic: bytes) -> bool:
    """Atomically write *chunks*, then *magic* + their sha256, to *path*.

    Returns ``False`` when the disk is full (``ENOSPC``/``EDQUOT``):
    *path* is left untouched and the caller picks its own policy.  Any
    other ``OSError`` propagates.
    """
    digest = hashlib.sha256()
    try:
        with atomic_open(path, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
            fh.write(magic + digest.digest())
    except OSError as exc:
        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            return False
        raise
    return True


def unseal(buf, magic: bytes) -> memoryview:
    """The payload of the sealed record in *buf* (bytes or an mmap).

    Raises ``ValueError`` unless *buf* ends in *magic* followed by the
    sha256 of everything before that footer.
    """
    footer = len(magic) + _DIGEST_LEN
    view = memoryview(buf)
    payload = view[:len(view) - footer]
    if (len(view) <= footer
            or view[-footer:-_DIGEST_LEN] != magic
            or hashlib.sha256(payload).digest() != view[-_DIGEST_LEN:]):
        raise ValueError("sealed record truncated or corrupt "
                         "(checksum footer mismatch)")
    return payload
