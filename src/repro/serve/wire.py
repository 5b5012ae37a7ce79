"""The binary tensor wire of ``POST /predict``: one ``.npy`` array per body.

A body of media type :data:`NPY_MEDIA_TYPE` is a single ``.npy`` file
(format 1.0, 2.0 or 3.0) holding a C-ordered, little-endian float32 array
whose first axis is the batch.  :func:`encode` writes one.  :func:`decode`
reads one that came off the network, so it validates the header — magic,
dtype, order, shape, and the exact body length — before it touches the
payload, and then views the payload in place without copying it.

``numpy.lib.format.read_array`` is never used on a body: it allocates the
shape the header declares before it reads a byte of data, so a 3 kB body
declaring ``(10**11, 3, 16, 16)`` makes it raise ``MemoryError`` instead of
a clean rejection.  The header readers used here cap the header's size.
"""

from __future__ import annotations

import io
import math
from typing import Optional, Sequence

import numpy as np

NPY_MEDIA_TYPE = "application/x-npy"
JSON_MEDIA_TYPE = "application/json"

#: The one element type the wire carries: little-endian float32.
DTYPE = np.dtype("<f4")

# Format 3.0 differs from 2.0 only in the header's text encoding (UTF-8 for
# structured-dtype field names); a ``<f4`` header is ASCII in every version.
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
    (3, 0): np.lib.format.read_array_header_2_0,
}


class WireError(ValueError):
    """A body that is not a valid ``.npy`` batch."""


def accepts_npy(accept: str) -> bool:
    """Does an ``Accept`` header value list :data:`NPY_MEDIA_TYPE`?"""
    return any(item.split(";", 1)[0].strip().lower() == NPY_MEDIA_TYPE
               for item in accept.split(","))


def encode(array: np.ndarray) -> bytes:
    """The ``.npy`` bytes of ``array`` as C-ordered little-endian float32."""
    stream = io.BytesIO()
    np.lib.format.write_array(stream, np.ascontiguousarray(array, dtype=DTYPE),
                              allow_pickle=False)
    return stream.getvalue()


def decode(body: bytes, sample_shape: Optional[Sequence[int]] = None) -> np.ndarray:
    """The batch a ``.npy`` body holds, as a read-only view of ``body``.

    Raises :class:`WireError` unless the header declares dtype ``<f4``, C
    order and shape ``(n, *sample_shape)`` with ``n >= 1`` (any non-negative
    sample shape when ``sample_shape`` is None), and the body is exactly the
    header plus ``4 * prod(shape)`` payload bytes.
    """
    stream = io.BytesIO(body)
    try:
        version = np.lib.format.read_magic(stream)
        read_header = _HEADER_READERS.get(version)
        if read_header is None:
            raise ValueError(f"unsupported .npy format version {version[0]}.{version[1]}")
        shape, fortran_order, dtype = read_header(stream)
    except (ValueError, RecursionError) as error:
        # The header is a Python literal that numpy parses with
        # ast.literal_eval: deep nesting such as 4000 unary minus signs
        # raises RecursionError, not ValueError.
        raise WireError(f"not a .npy array: {error}") from None
    if dtype != DTYPE:
        raise WireError(f"dtype must be {DTYPE.str} (little-endian float32), got {dtype.str}")
    if fortran_order:
        raise WireError("array must be in C order, got Fortran order")
    if not shape or shape[0] < 1:
        raise WireError(f"array must hold at least one sample, got shape {list(shape)}")
    if sample_shape is not None and tuple(shape[1:]) != tuple(sample_shape):
        raise WireError(f"each sample must have shape {list(sample_shape)}, "
                        f"got {list(shape[1:])}")
    if min(shape) < 0:
        raise WireError(f"shape {list(shape)} has a negative dimension")
    offset = stream.tell()
    count = math.prod(shape)
    if len(body) - offset != DTYPE.itemsize * count:
        raise WireError(f"shape {list(shape)} needs {DTYPE.itemsize * count} payload bytes, "
                        f"the body holds {len(body) - offset}")
    return np.frombuffer(body, dtype=DTYPE, count=count, offset=offset).reshape(shape)


__all__ = ["DTYPE", "JSON_MEDIA_TYPE", "NPY_MEDIA_TYPE", "WireError", "accepts_npy",
           "decode", "encode"]
