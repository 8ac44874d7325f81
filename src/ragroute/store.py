"""Index files: how each is written, read back and checked (stdlib and numpy
only). Every file goes to a temp file beside it, then ``os.replace``s it;
with no fsync, that is safe against a failed or killed process, not power
loss. An array file (``.bin``) holds little-endian arrays back to back, sized
(and pinned by crc32, where it says so) by its JSON manifest, which is written
after it, and is read as views of one read-only mapping. Rewriting a mapped
file in place is outside the contract (the writers here only ``os.replace``):
a reader that touches a page past a truncation dies of SIGBUS."""

from __future__ import annotations

import json
import mmap
import os
import sys
import zlib
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable

import numpy as np


class InputError(RuntimeError):
    """An operator fault: a config, input file, index file or endpoint that
    is not what the program needs. The CLI exits 2 on every one."""


class IndexFileError(InputError):
    """A stored index file cannot be read back as what its writer wrote."""


class VectorFileError(IndexFileError):
    """An array file disagrees with its manifest (its size or crc32), or holds
    a zero or non-finite vector."""


def require_int(name: str, value) -> int:
    """``value``; TypeError naming ``name`` unless it is an int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def require_number(name: str, value) -> int | float:
    """``value``; TypeError naming ``name`` unless it is an int or float (a
    bool is not), ValueError unless it is a finite float or an int that
    converts to one."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # nan compares false
        raise ValueError(f"{name} must be finite, not {value!r:.40}")
    return value


def require_str(name: str, value, optional: bool = False) -> str | None:
    """``value``; TypeError naming ``name`` unless it is a string, or None
    when ``optional``."""
    if not isinstance(value, str) and not (optional and value is None):
        raise TypeError(f"{name} must be a string, not {value!r}")
    return value


def require_crc32(value) -> int:
    """``value``; TypeError unless it is an int that a crc32 can be."""
    if type(value) is not int or not 0 <= value < 2**32:
        raise TypeError(f"crc32 is {value!r:.40}, not a crc32")
    return value


def require_strings(name: str, value) -> list[str]:
    """``value``; TypeError naming ``name`` unless it is a list of strings."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise TypeError(f"{name} must be a list of strings, not {value!r:.40}")
    return value


def write_atomic(path: str | Path, data: bytes) -> int:
    """Write ``data`` over ``path`` through a temp file beside it, making the
    directory; its crc32. A write that fails leaves the previous file whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return zlib.crc32(data)


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=indent)
    write_atomic(path, text.encode("utf-8"))


def read_json(path: str | Path, parse: Callable, error: type[InputError] = IndexFileError):
    """``parse`` of a stored JSON file's payload. ``error`` (IndexFileError
    unless given) names the file when it is not UTF-8 JSON, nests too deeply
    to decode, or ``parse`` finds a field missing or of the wrong type."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(payload)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        shape = f"{type(exc).__name__}: {exc}"
        raise error(f"{path} is valid JSON of the wrong shape: {shape}") from exc


def write_arrays(path: Path, arrays: Iterable[tuple[str, np.ndarray]]) -> int:
    """Write each ``(dtype, array)`` to ``path`` as that dtype, back to back."""
    return write_atomic(path, b"".join(np.asarray(a, dt).tobytes() for dt, a in arrays))


def read_arrays(path: Path, layout: list[tuple[str, int]], crc=None) -> list[np.ndarray]:
    """The arrays of ``layout``'s ``(dtype, count)`` pairs, as views of one
    read-only mapping of ``path`` (a zero-byte file maps nothing and gives
    empty arrays); VectorFileError when its size does not fit, or its crc32
    is not ``crc`` when that is given. The mapping lives as long as the
    arrays do; the file may be replaced meanwhile."""
    sizes = [np.dtype(dt).itemsize * count for dt, count in layout]
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != sum(sizes):
            raise VectorFileError(f"{path} holds {size} bytes; its manifest needs {sum(sizes)}")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    if crc is not None and zlib.crc32(data) != crc:
        raise VectorFileError(f"{path} has crc32 {zlib.crc32(data)}, not {crc}")
    starts = accumulate(sizes, initial=0)
    return [np.frombuffer(data, dt, count, at) for (dt, count), at in zip(layout, starts)]


def save_vectors(base_path: str | Path, matrix: np.ndarray, ids: list[str]) -> None:
    """Write a matrix's rows as little-endian float32 to ``<base>.bin``,
    then ``<base>.manifest.json`` with ``{dim, count, chunk_ids}``."""
    base = Path(base_path)
    mat = np.asarray(matrix, dtype="<f4")
    if mat.ndim != 2 or mat.shape[0] != len(ids):
        raise ValueError("matrix must be 2-D, with one id per row")
    write_arrays(base.with_suffix(".bin"), [("<f4", mat)])
    manifest = {"dim": int(mat.shape[1]), "count": int(mat.shape[0]), "chunk_ids": list(ids)}
    write_json(base.with_suffix(".manifest.json"), manifest)


def load_vectors(base_path: str | Path) -> tuple[np.ndarray, list[str]]:
    """What ``save_vectors`` wrote: a read-only float32 array and the ids.
    IndexFileError names the manifest when a field is not of its type;
    VectorFileError when it lists other than ``count`` ids or a negative
    ``dim``, or the ``.bin`` is not ``count * dim`` floats."""
    base = Path(base_path)

    def parse(m) -> tuple[int, int, list[str]]:
        count, dim = require_int("count", m["count"]), require_int("dim", m["dim"])
        return count, dim, require_strings("chunk_ids", m["chunk_ids"])

    count, dim, ids = read_json(base.with_suffix(".manifest.json"), parse)
    bin_path = base.with_suffix(".bin")
    if len(ids) != count or dim < 0:
        raise VectorFileError(f"{bin_path}: manifest has {len(ids)} ids for {count} rows of {dim}")
    [flat] = read_arrays(bin_path, [("<f4", count * dim)])
    return flat.reshape(count, dim), ids
