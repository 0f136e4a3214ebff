"""Whole-file replacement: a reader of a written path sees its old content or all of the new, never a part."""

from __future__ import annotations

import os
import secrets
from contextlib import suppress
from typing import Iterable


def write_atomic(path: str, chunks: Iterable[bytes]) -> int:
    """Writes the chunks to a new file beside `path`, then renames it over `path`; returns the bytes written.

    If anything fails before the rename, `path` keeps its previous content (or
    stays absent) and the temporary file is removed. This guards against a
    failing or interrupted process, not against power loss: nothing is fsynced.
    """
    folder, name = os.path.split(os.fspath(path))
    tmp = os.path.join(folder, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.writelines(chunks)
            written = f.tell()
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return written
