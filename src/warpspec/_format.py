"""Deterministic text serialization and atomic file output.

JSON comes from the standard library with sorted keys and a two-space
indent; CSV cells are str(int) for integers and repr(float) for every other
number.  Either way a float prints as the shortest string that reads back to
the same double (0.1, 2.0; NaN and Infinity in JSON, nan and inf in CSV), so
artifacts are exact and byte-identical across runs and platforms.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from collections.abc import Sequence

import numpy as np

__all__ = [
    "dumps_json",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
]


def _plain(obj):
    """json.dumps fallback: numpy scalars and arrays become Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def dumps_json(obj) -> str:
    """Serialize to indented JSON with sorted keys and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, default=_plain) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file + rename in the same directory.

    The temp file is created as open(path, "w") would create path, so the
    artifact's mode is 0666 less the process umask.
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(6)}~"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, dumps_json(obj))


def write_csv_atomic(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write columns of equal length as CSV: str(int) for integer cells, repr(float) for the rest."""
    if len(columns) != len(header):
        raise ValueError("header/column count mismatch")
    cols = [np.asarray(c) for c in columns]
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("ragged columns")
    # a float column's cells are its floats' reprs, formatted in one pass
    cells = [
        list(map(float.__repr__, c.tolist()))
        if c.dtype.kind == "f"
        else [str(int(v)) if isinstance(v, int) else repr(float(v)) for v in c.tolist()]
        for c in cols
    ]
    write_text_atomic(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")
