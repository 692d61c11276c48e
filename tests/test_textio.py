"""The shared text row codec: writers match the row-by-row formatting they
replaced byte for byte, and readers reject malformed files with typed
errors."""

import warnings

import numpy as np
import pytest

from localmf import (
    BinnedMeasure,
    MarkovPath,
    SignalError,
    read_measure,
    read_signal,
    write_measure,
    write_signal,
)
from localmf.synth import write_jumps

# more rows than one formatting chunk of 2^16 rows, so a chunk seam is checked
N = (1 << 16) + 5
rng = np.random.default_rng(11)


# Row-by-row references: the formatting loops the codec replaced.

def ref_measure(m):
    return f"{m.J},{float(m.total_mass)!r}\n" + "".join(
        f"{float(v)!r}\n" for v in m.masses)


def ref_signal(x):
    return "".join(f"{float(v)!r}\n" for v in x)


def ref_jumps(path):
    rows = zip(path.times.tolist(), path.sizes.tolist())
    return "t,size\n" + "".join(f"{t!r},{s!r}\n" for t, s in rows)


def signal():
    x = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    x[:4] = [-0.0, 5e-324, 1e300, -1e-300]
    return x


def jumps():
    """A path with N jumps, more than 2^16 + 3, so both columns cross a
    chunk seam."""
    times = np.sort(rng.random(N))
    sizes = rng.random(N) * 10.0 ** rng.integers(-300, 0, N)
    return MarkovPath(T=1.0, eps_trunc=1e-3, times=times, sizes=sizes,
                      grid_t=times, grid_M=np.cumsum(sizes), drift_bound=0.0,
                      drift_rate_max=0.0)


CASES = {
    "measure": (lambda: BinnedMeasure(rng.random(1 << 17)), write_measure,
                ref_measure),
    "signal": (signal, write_signal, ref_signal),
    "jumps": (jumps, write_jumps, ref_jumps),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_writer_matches_row_by_row_reference(tmp_path, kind):
    make, write, reference = CASES[kind]
    obj = make()
    path = tmp_path / "out.txt"
    write(path, obj)
    assert path.read_text() == reference(obj)


@pytest.mark.parametrize("text", ["2,1.0\n", "2,1.0\n\n\n"])
def test_header_only_measure_is_signal_error(tmp_path, text):
    path = tmp_path / "measure.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SignalError):
            read_measure(path)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_empty_signal_is_signal_error(tmp_path, text):
    path = tmp_path / "sig.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SignalError):
            read_signal(path)


def test_extra_column_rejected(tmp_path):
    path = tmp_path / "measure.txt"
    path.write_text("1,1.0\n0.5,0.5\n")   # one row, two columns: two cells
    with pytest.raises(SignalError):
        read_measure(path)
