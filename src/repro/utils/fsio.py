"""Durable filesystem primitives for the shard journal's base and segments.

The crash-safety story of the service tier rests on two disciplines:

* **atomic publish** — new content lands in a same-directory temp file,
  is flushed and fsynced, and only then ``os.replace``-d over the target,
  so readers see either the old document or the new one, never a torn mix;
* **directory durability** — ``os.replace`` updates a directory entry, and
  that entry itself lives in the directory's data blocks: without an fsync
  of the *directory*, a power failure can silently undo the rename even
  though the file's bytes were synced.  :func:`fsync_dir` closes that gap.

POSIX filesystems accept ``os.open`` on a directory; platforms without
``O_DIRECTORY`` (Windows) refuse, which is why :func:`fsync_dir` degrades
to a no-op there and reports whether the sync actually happened.
"""

from __future__ import annotations

import os

__all__ = ["fsync_dir", "durable_replace"]


def fsync_dir(path: str) -> bool:
    """fsync the directory at ``path``; returns ``True`` if it happened.

    Guarded for platforms where directories cannot be opened (no
    ``O_DIRECTORY``, e.g. Windows): the rename is still atomic there, only
    the rename-survives-power-loss guarantee is weakened — callers treat a
    ``False`` return as best-effort, not as an error.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def durable_replace(tmp_path: str, target: str) -> None:
    """``os.replace`` then fsync the containing directory (best effort).

    The caller is responsible for having flushed and fsynced ``tmp_path``
    itself; this completes the publish by making the rename durable.
    """
    os.replace(tmp_path, target)
    fsync_dir(os.path.dirname(os.path.abspath(target)) or ".")
