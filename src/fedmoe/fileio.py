"""Atomic file writes for every artifact the runner produces, and the one
bounded reader for every file it reads back: the IDX pair, checkpoints and
the JSON run files (``partition.json``, ``manifest_fedavg.json``)."""

from __future__ import annotations

import json
import os
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path

from .errors import ConfigError, DataFormatError


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


class BoundedReader(AbstractContextManager):
    """An input file, read as a context manager in parts of known length.

    A file that cannot be opened is a ``ConfigError("cannot read <what>
    <path>: <reason>")``. A part longer than the rest of the file (found
    before it is read), text that is not UTF-8, JSON that does not decode
    or nests too deeply, and bytes left after the ``with`` body are each a
    ``DataFormatError`` at their byte offset. ``hint`` ends every message.
    """

    def __init__(self, path, what: str, hint: str = ""):
        self.name, self.hint, self.part = f"{what} {path}", f"; {hint}" if hint else "", "nothing"
        try:
            self.file = open(path, "rb")
            self.size = os.fstat(self.file.fileno()).st_size
        except OSError as e:
            raise ConfigError(f"cannot read {self.name}: {e.strerror}{self.hint}") from None

    def __exit__(self, kind, *_):
        with self.file:
            if kind is None and self.file.read(1):
                offset = self.file.tell() - 1
                raise DataFormatError(f"{self.name}: trailing bytes after {self.part}{self.hint}", offset)

    def bytes(self, n: int, part: str) -> bytes:
        """Exactly the next ``n`` bytes of the file; ``part`` names them in errors."""
        offset, self.part = self.file.tell(), part
        if n > self.size - offset or len(buf := self.file.read(n)) != n:
            raise DataFormatError(f"truncated {self.name} while reading {part}{self.hint}", offset)
        return buf

    def text(self, n: int, part: str) -> str:
        start = self.file.tell()
        try:
            return self.bytes(n, part).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{self.name}: {part} is not UTF-8{self.hint}", start + e.start) from None

    def json(self, n: int, part: str):
        start, blob = self.file.tell(), self.text(n, part)
        try:
            return json.loads(blob)
        except json.JSONDecodeError as e:
            problem, start = f"is not JSON: {e.msg}", start + len(blob[: e.pos].encode())
        except ValueError as e:  # an integer literal too long to convert
            problem = f"is not JSON: {e}"
        except RecursionError:
            problem = "nests too deeply to read"
        raise DataFormatError(f"{self.name}: {part} {problem}{self.hint}", start)


def read_json(path, what: str, hint: str = ""):
    """The JSON value that is the whole of the file at ``path``."""
    with BoundedReader(path, what, hint) as reader:
        return reader.json(reader.size, "text")
