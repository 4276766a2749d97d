"""Deterministic file output: fixed float formatting, atomic writes, JSON.

Floats are printed with 17 significant digits so identical runs produce byte
identical files.  JSON never contains Infinity or NaN: non-finite values are
serialized as null (paired with an explicit flag where the distinction
matters).
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

__all__ = ["fmt", "atomic_write", "write_json", "write_csv", "jsonable"]


def fmt(x) -> str:
    """Fixed 17-significant-digit representation ('inf'/'nan' pass through)."""
    return f"{float(x):.17g}"


def atomic_write(path: str, data: str):
    """Write text through a temp file and rename, so readers never see partials;
    the file gets the mode a plain open() gives under the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f".tmp-{os.getpid()}-")
    for k in itertools.count():
        tmp = f"{stem}{k}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # another writer's temp file
            pass
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def jsonable(obj):
    """Recursively convert to JSON-safe values (non-finite floats become null)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, obj):
    atomic_write(path, json.dumps(jsonable(obj), indent=2) + "\n")


def write_csv(path: str, header, rows):
    """Comma-separated rows with fixed float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) and not
                              isinstance(v, bool) else str(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")
