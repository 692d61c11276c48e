"""The shared text row codec: writers match the row-by-row formatting they
replaced byte for byte, readers accept rows in any order, and every cube
must have exactly one row."""

import warnings

import numpy as np
import pytest

from localmf import (
    BinnedMeasure,
    DyadicFamily,
    SignalError,
    Window,
    WindowError,
    read_family,
    read_measure,
    read_signal,
    write_family,
    write_measure,
    write_signal,
)

# more rows than one formatting chunk of 2^16 rows, so a chunk seam is checked
N = (1 << 16) + 5
rng = np.random.default_rng(11)


# Row-by-row references: the formatting loops the codec replaced.

def ref_measure(m):
    return f"{m.J},{float(m.total_mass)!r}\n" + "".join(
        f"{float(v)!r}\n" for v in m.masses)


def ref_signal(x):
    return "".join(f"{float(v)!r}\n" for v in x)


def ref_family(family):
    masked = family._valid is not None
    lines = ["j,k,value,valid" if masked else "j,k,value"]
    for j in family.scales:
        k0 = family.k_lo(j)
        vals = family.values_at(j)
        mask = family.valid_at(j)
        for i, v in enumerate(vals):
            if masked:
                lines.append(f"{j},{k0 + i},{float(v)!r},{int(mask[i])}")
            else:
                lines.append(f"{j},{k0 + i},{float(v)!r}")
    return "\n".join(lines) + "\n"


def masked_family():
    values = [rng.random(1 << j) for j in range(17)]
    valid = [rng.random(1 << j) < 0.9 for j in range(17)]
    return DyadicFamily(0, 16, Window(0.0, 1.0), values, valid=valid)


def windowed_family():
    w = Window(0.3, 0.7)          # no cube of scales 0 and 1 fits inside
    return DyadicFamily(0, 8, w, [rng.random(w.n_cubes(j)) for j in range(9)])


def signal():
    x = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
    x[:4] = [-0.0, 5e-324, 1e300, -1e-300]
    return x


CASES = {
    "measure": (lambda: BinnedMeasure(rng.random(1 << 17)), write_measure,
                ref_measure),
    "signal": (signal, write_signal, ref_signal),
    "masked-family": (masked_family, write_family, ref_family),
    "windowed-family": (windowed_family, write_family, ref_family),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_writer_matches_row_by_row_reference(tmp_path, kind):
    make, write, reference = CASES[kind]
    obj = make()
    path = tmp_path / "out.txt"
    write(path, obj)
    text = path.read_text()
    if kind.endswith("family"):
        text = text.split("\n", 1)[1]   # the header line is not a row
    assert text == reference(obj)


def shuffled(text, skip):
    lines = text.splitlines()
    body = lines[skip:]
    order = rng.permutation(len(body))
    return "\n".join(lines[:skip] + [body[i] for i in order]) + "\n"


def test_shuffled_family_reads_back_equal(tmp_path):
    for F in (masked_family(), windowed_family()):
        path = tmp_path / "fam.txt"
        write_family(path, F)
        path.write_text(shuffled(path.read_text(), 2))
        G = read_family(path)
        for j in F.scales:
            np.testing.assert_array_equal(G.values_at(j), F.values_at(j))
            if F.valid_at(j) is not None:
                np.testing.assert_array_equal(G.valid_at(j), F.valid_at(j))


# Edits that keep the row count, so only the per-cube checks can catch them.
SAME_COUNT_EDITS = {
    "unknown-scale": lambda rows: ["-2,0,1.0"] + rows[1:],
    "offset-past-scale": lambda rows: rows[:-1] + ["5,64,1.0"],
    "negative-offset": lambda rows: rows[:-1] + ["5,-1,1.0"],
    "offset-far-below-scale": lambda rows: rows[:-1] + ["5,-1000000,1.0"],
    "twice": lambda rows: rows[:-1] + [rows[0]],
}


@pytest.mark.parametrize("edit", sorted(SAME_COUNT_EDITS))
def test_family_rows_checked_cube_by_cube(tmp_path, edit):
    F = DyadicFamily(1, 5, Window(0.0, 1.0),
                     [np.full(1 << j, 0.5 ** j) for j in range(1, 6)])
    path = tmp_path / "fam.txt"
    write_family(path, F)
    header, columns, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, columns]
                              + SAME_COUNT_EDITS[edit](rows)) + "\n")
    with pytest.raises(WindowError):
        read_family(path)


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
