"""Atomic output files: write a temporary file, then rename it into place."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Text file object whose content replaces `path` when the block ends.

    The content goes to a new temporary file in the same directory, which
    `os.replace` renames over `path` once the block finishes. If the block
    raises, `path` keeps its old content and the temporary file is removed.
    The file is created with the permissions `open(path, "w")` would give.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
