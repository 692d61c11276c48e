"""The row codec of every text file: comma-separated rows, one ``repr`` per
float so that values read back exactly, parsed in one ``np.loadtxt`` call."""

import warnings

import numpy as np

_CHUNK = 1 << 16    # rows per formatted string


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

