"""Crash-consistent file writes: temp file + fsync + atomic rename.

Every durable artefact of a long run -- checkpoints, campaign reports,
replay journals -- goes through :func:`atomic_write_text`, so a crash (or
a SIGKILL from the CI kill/resume job) at any instant leaves either the
previous complete file or the new complete file, never a truncated one.
The pattern is the standard POSIX one: write to a temporary file in the
*same directory* (rename is only atomic within a filesystem), flush and
fsync the data, ``os.replace`` over the destination, then fsync the
directory so the rename itself is durable.  The temporary file is
created with mode ``0o666`` less the umask, as ``open()`` would create
the destination, so reports and checkpoints are as readable as any
other file the process writes.
"""

from __future__ import annotations

import os
import secrets
from typing import Iterable, Union


def fsync_directory(path: str) -> None:
    """Fsync a directory so a rename inside it survives power loss.

    Best-effort: some platforms/filesystems refuse ``open(dir)``; losing
    the directory fsync degrades durability, not atomicity.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> str:
    """Atomically replace ``path`` with ``text``; returns ``path``.

    ``text`` is a string or an iterable of string pieces written in
    order, so a large document can be streamed without joining it.  The
    destination directory is created if missing.  Readers never see a
    partial file: they observe the old content until the atomic
    ``os.replace``, and the new content after it.  If writing fails --
    including the piece iterator raising -- the temporary file is removed
    and ``path`` is left untouched.
    """
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp_path = os.path.join(
            directory, f"{os.path.basename(path)}.{secrets.token_hex(6)}.tmp"
        )
        try:
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return path
