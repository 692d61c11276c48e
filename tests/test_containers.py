"""The binary float64 containers of measures and signals: exact round
trips, one typed error per malformed file, and CLI results that do not
depend on whether a measure was handed over as text or as a container."""

import numpy as np
import pytest

from localmf import (
    BinnedMeasure,
    DomainError,
    ModelSpec,
    SignalError,
    read_measure,
    read_signal,
    synthesize,
    write_measure,
    write_signal,
)
from localmf.cli import main


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def container(magic, n, values):
    return (magic + int(n).to_bytes(8, "little")
            + np.asarray(values, dtype="<f8").tobytes())


@pytest.mark.parametrize("J", [4, 20])
def test_measure_round_trip_is_bit_identical(tmp_path, J):
    masses = np.random.default_rng(J).random(1 << J)
    masses[:5] = [0.0, 5e-324, 2.0 ** -1074 * 3, 2.0 ** -1030, 0.0]
    m = BinnedMeasure(masses)
    path = tmp_path / "measure.txt"
    write_measure(path, m, binary=True)
    assert path.stat().st_size == 16 + 8 * (1 << J)
    assert path.read_bytes()[:8] == b"LMFMSR01"
    back = read_measure(path)
    assert np.array_equal(bits(back.masses), bits(m.masses))
    assert back.J == J and back.total_mass == m.total_mass


@pytest.mark.parametrize("J", [4, 20])
def test_signal_round_trip_is_bit_identical(tmp_path, J):
    x = np.random.default_rng(J).standard_normal(1 << J)
    x[:4] = [-0.0, 5e-324, -2.0 ** -1030, 0.0]
    path = tmp_path / "signal.bin"
    write_signal(path, x, binary=True)
    assert np.array_equal(bits(read_signal(path)), bits(x))


def test_text_and_container_read_equal(tmp_path):
    m = synthesize(ModelSpec("localized_bernoulli",
                             {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}))["measure"]
    write_measure(tmp_path / "text.txt", m)
    write_measure(tmp_path / "binary.txt", m, binary=True)
    text, binary = (read_measure(tmp_path / name)
                    for name in ("text.txt", "binary.txt"))
    assert np.array_equal(bits(text.masses), bits(binary.masses))
    assert text.total_mass == binary.total_mass


MSR = b"LMFMSR01"
MALFORMED = {
    "signal-as-measure": container(b"LMFSIG01", 16, np.ones(16)),
    "length-above-file": container(MSR, 32, np.ones(16)),
    "trailing-bytes": container(MSR, 16, np.ones(16)) + b"\0",
    "truncated-payload": container(MSR, 16, np.ones(16))[:-3],
    "truncated-header": MSR + b"\x10\0",
    "not-power-of-two": container(MSR, 12, np.ones(12)),
    "empty": container(MSR, 0, []),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_measure_container_is_signal_error(tmp_path, case):
    path = tmp_path / "measure.txt"
    path.write_bytes(MALFORMED[case])
    with pytest.raises(SignalError):
        read_measure(path)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_measure_container_exits_3(tmp_path, capsys, case):
    path = tmp_path / "measure.txt"
    path.write_bytes(MALFORMED[case])
    rc = main(["analyze", "--input", str(path), "--family", "plain-measure",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: runtime:") and err.count("\n") == 1


def test_other_kind_names_what_the_file_holds(tmp_path, capsys):
    sig, measure = tmp_path / "signal.bin", tmp_path / "measure.txt"
    write_signal(sig, np.ones(64), binary=True)
    write_measure(measure, BinnedMeasure(np.ones(64)), binary=True)
    with pytest.raises(SignalError, match="holds a signal container"):
        read_measure(sig)
    with pytest.raises(SignalError, match="holds a measure container"):
        read_signal(measure)
    for family, path, holds in [("oscillation", measure, "measure"),
                                ("plain-measure", sig, "signal")]:
        rc = main(["analyze", "--input", str(path), "--family", family,
                   "--out", str(tmp_path / family)])
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1
        assert err.startswith("error: runtime:")
        assert f"holds a {holds} container" in err


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_bad_masses_raise_what_the_text_reader_raises(tmp_path, bad):
    masses = np.ones(16)
    masses[5] = bad
    text, binary = tmp_path / "text.txt", tmp_path / "binary.txt"
    text.write_text("4,16.0\n" + "".join(f"{v!r}\n" for v in masses.tolist()))
    binary.write_bytes(container(MSR, 16, masses))
    with pytest.raises(DomainError) as from_text:
        read_measure(text)
    with pytest.raises(DomainError) as from_binary:
        read_measure(binary)
    assert str(from_binary.value) == str(from_text.value)


@pytest.mark.parametrize("command", ["analyze", "local"])
def test_cli_results_match_text_copy(tmp_path, command):
    spec = tmp_path / "spec.json"
    spec.write_text(ModelSpec("localized_bernoulli",
                              {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}).to_json())
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "synth"),
                 "--deterministic"]) == 0
    binary = tmp_path / "synth" / "measure.txt"
    assert binary.read_bytes()[:8] == b"LMFMSR01"
    text = tmp_path / "text.txt"
    write_measure(text, read_measure(binary), binary=False)
    extra = (["--x-grid", "auto:3", "--radii", "0.125,0.0625"]
             if command == "local" else ["--windows", "0,0.5;0.5,1"])
    for name, path in [("binary", binary), ("text", text)]:
        assert main([command, "--input", str(path), "--p-grid=-3:3:0.5",
                     *extra, "--deterministic",
                     "--out", str(tmp_path / name)]) == 0
    for f in ("tau_long.csv", "spectrum_long.csv"):
        assert ((tmp_path / "binary" / f).read_bytes()
                == (tmp_path / "text" / f).read_bytes())
