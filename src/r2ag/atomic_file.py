"""Atomic replacement of output files.

A writer fills a temporary file in the target's directory, and the target
is replaced with it by ``os.replace`` only once the writer has finished. A
write that raises part-way leaves the previous target untouched and removes
the temporary file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Yield a text file whose content replaces ``path`` when the block exits
    without an exception."""
    path = Path(path)
    # exclusive create keeps the umask-derived mode that open(path, "w") gives
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
