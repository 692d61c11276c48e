"""The codecs of every measure and signal file.

Text: comma-separated rows, one ``repr`` per float so that values read back
exactly, parsed in one ``np.loadtxt`` call. Container: an 8-byte magic that
also names the kind of array (``LMFSIG01`` a signal, ``LMFMSR01`` a
measure's bin masses), a little-endian uint64 length n, then exactly n
little-endian float64 values, so the file holds 16 + 8n bytes. Readers
tell the two apart by the magic bytes, never by the file name.
"""

import os
import warnings

import numpy as np

_CHUNK = 1 << 16    # rows per formatted string

SIGNAL_MAGIC = b"LMFSIG01"
MEASURE_MAGIC = b"LMFMSR01"
_KINDS = {SIGNAL_MAGIC: "signal", MEASURE_MAGIC: "measure"}


def format_rows(*columns):
    """Yield the text of equal-length columns, one ``repr`` per cell, in
    chunks of 2^16 rows."""
    for lo in range(0, len(columns[0]), _CHUNK):
        cells = [map(repr, c[lo:lo + _CHUNK].tolist()) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def parse_rows(lines, dtype, error, where):
    """The non-blank ``lines`` (a text file or a list of lines) as one
    array, one field of the structured ``dtype`` per comma-separated
    column; a malformed row raises ``error``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body
            return np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)
    except ValueError as exc:
        raise error(f"{where}: unreadable row: {exc}") from exc


def write_container(path, magic: bytes, values) -> None:
    """Write the 1-D ``values`` as a container of the kind ``magic``."""
    x = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(x.size.to_bytes(8, "little"))
        x.tofile(fh)


def read_container(path, magic: bytes, error):
    """The float64 values of the container at ``path``, or None when the
    file does not start with a container magic (it is then text).

    A container of another kind, or a header length that does not fit the
    file size (a truncated payload or trailing bytes), raises ``error``
    before the payload is read; the payload is read into the returned
    array directly."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head not in _KINDS:
            return None
        if head != magic:
            raise error(f"{path} holds a {_KINDS[head]} container, not a "
                        f"{_KINDS[magic]}")
        n = int.from_bytes(fh.read(8), "little")
        size = os.fstat(fh.fileno()).st_size
        if 16 + 8 * n != size:
            raise error(f"{path}: {_KINDS[magic]} container header length {n} "
                        f"does not match the file's {size} bytes")
        return np.fromfile(fh, dtype="<f8", count=n).astype(float, copy=False)
