"""Atomic file writes for every artifact the runner produces."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` that replaces it on success.

    ``mode`` and ``kwargs`` go to :func:`open`. If the body raises, the
    temporary file is removed and any earlier file at ``path`` is left as it
    was, so a failed or interrupted write never leaves a truncated artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
