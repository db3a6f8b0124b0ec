"""The byte format of every message body between the driver and its workers.

A body is a fixed sequence of flat arrays.  `pack` writes each one as its
8-byte big-endian element count, then its elements, big-endian; float64
values are raw IEEE-754 bytes, so a decoded value has the sender's bits on
any host.  `unpack` reads them back for the dtypes the receiver expects
and raises only `ValueError`: on a count that does not fit in the bytes
left, which it checks before it reads or allocates anything, and on
trailing bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack", "unpack"]

_COUNT_BYTES = 8


def pack(*arrays) -> bytes:
    """Each argument flattened, in C order, after its element count.  A
    list of arrays of one dtype is written as one array, their
    concatenation, without joining them in memory first; each array is
    copied once, to its C-ordered big-endian form, before the join."""
    parts = []
    for arr in arrays:
        chunks = [np.asarray(c) for c in (arr if isinstance(arr, list) else [arr])]
        parts.append(sum(c.size for c in chunks).to_bytes(_COUNT_BYTES, "big"))
        parts += [c.astype(c.dtype.newbyteorder(">"), order="C") for c in chunks]
    return b"".join(parts)


def unpack(buf: bytes, *dtypes) -> list[np.ndarray]:
    """The arrays `pack` wrote, flat, one per expected dtype: a copy in a
    native dtype, or a read-only view of `buf` in a big-endian one, which
    spares a copy to a decoder that converts the values onward itself."""
    out, at = [], 0
    for dtype in map(np.dtype, dtypes):
        if len(buf) - at < _COUNT_BYTES:
            raise ValueError(f"message ends inside the count of array {len(out)}")
        n = int.from_bytes(buf[at : at + _COUNT_BYTES], "big")
        at += _COUNT_BYTES
        if n > (len(buf) - at) // dtype.itemsize:
            raise ValueError(f"array {len(out)} of {n} elements overruns the {len(buf) - at} bytes left")
        out.append(np.frombuffer(buf, dtype.newbyteorder(">"), n, at).astype(dtype, copy=False))
        at += n * dtype.itemsize
    if at != len(buf):
        raise ValueError(f"{len(buf) - at} trailing bytes after {len(out)} arrays")
    return out
