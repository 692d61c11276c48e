"""The row codec of every text file: comma-separated rows, one ``repr`` per
float so that values read back exactly, parsed in one ``np.loadtxt`` call."""

import warnings

import numpy as np

MAX_SCALE = 62      # the cube offsets of a scale must fit in int64
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


def place_cubes(j, k, scales, error, where):
    """One array of row numbers per ``(j, k_lo, k_hi)`` of ``scales`` (in
    ascending j), entry i holding the row of cube (j, k_lo + i). Raises
    ``error`` unless every cube has exactly one row; any order will do."""
    n = sum(k_hi - k_lo for _, k_lo, k_hi in scales)
    if n != j.size:     # before anything is allocated per cube
        raise error(f"{where}: {j.size} rows for {n} cubes")
    js, k_lo, k_hi = np.array(scales, dtype=np.int64).T
    s = np.searchsorted(js, j).clip(max=js.size - 1)
    bad = (js[s] != j) | (k < k_lo[s]) | (k >= k_hi[s])
    if bad.any():
        raise error(f"{where}: cube ({j[bad][0]}, {k[bad][0]}) is not stored")
    start = np.concatenate([[0], np.cumsum(k_hi - k_lo)])
    rows = np.full(n, -1)
    rows[start[s] + k - k_lo[s]] = np.arange(n)
    if (rows < 0).any():    # as many rows as cubes: some cube has two
        raise error(f"{where}: a cube is listed twice and another not at all")
    return np.split(rows, start[1:-1])
