import json

import numpy as np

from localmf import ModelSpec, read_measure, synthesize
from localmf.cli import main
from localmf.synth import write_jumps


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidation:
    def test_nonpositive_pleaders_exits_2(self, tmp_path, capsys):
        sig = tmp_path / "sig.txt"
        sig.write_text("\n".join(str(v) for v in np.zeros(64)) + "\n")
        rc = main(["analyze", "--family", "p-leaders:-1", "--input", str(sig),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: validation:")

    def test_two_sources_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "m.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 8}})
        sig = tmp_path / "sig.txt"
        sig.write_text("0.0\n" * 64)
        rc = main(["analyze", "--spec", spec, "--input", str(sig),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # signal too short for a wavelet pyramid -> module error at run time
        sig = tmp_path / "sig.txt"
        sig.write_text("\n".join(str(float(i)) for i in range(32)) + "\n")
        rc = main(["analyze", "--family", "leaders", "--input", str(sig),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: runtime:") and "\n" not in err

    def test_unparsable_measure_exits_3(self, tmp_path, capsys):
        measure = tmp_path / "measure.txt"
        measure.write_text("4,1.0\n" + "0.0625\n" * 15 + "abc\n")
        rc = main(["analyze", "--input", str(measure), "--out",
                   str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: runtime:") and "\n" not in err


class TestCheckOracle:
    def test_binomial_exactness(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 14}})
        out = tmp_path / "out"
        rc = main(["check-oracle", "--spec", spec, "--p-grid=-5:5:1",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_abs_tau_deviation"] <= 1e-6
        table = (out / "oracle_vs_estimate.csv").read_text().splitlines()
        assert table[0] == "x,p,tau_hat,tau_oracle"
        assert len(table) == 12  # 11 q values

    def test_mbm_local_alpha_table(self, tmp_path):
        spec = write_spec(
            tmp_path, "mbm.json",
            {"kind": "mbm", "seed": 1,
             "params": {"H": [[0.0, 0.4], [0.5, 0.7], [1.0, 0.4]], "J": 14}})
        out = tmp_path / "out"
        rc = main(["check-oracle", "--spec", spec, "--mode", "local",
                   "--p-grid=-2:2:0.5", "--x-grid", "0.25,0.5,0.75",
                   "--radii", "0.0625,0.03125", "--out", str(out)])
        assert rc == 0
        rows = (out / "alpha.csv").read_text().splitlines()
        assert rows[0] == "x,alpha_hat,alpha_oracle"
        assert len(rows) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["median_alpha_deviation"] <= 0.15

    def test_markov_passthrough_and_summary(self, tmp_path):
        spec = write_spec(
            tmp_path, "markov.json",
            {"kind": "markov_jump", "seed": 3,
             "params": {"gamma": [[0.0, 0.5], [1.6, 0.9], [50.0, 0.9]],
                        "T": 1.0, "N": 4096, "eps_trunc": 2.0 ** -14}})
        out = tmp_path / "out"
        rc = main(["check-oracle", "--spec", spec, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monotone"] is True
        assert summary["drift_bound"] > 0
        # jumps.csv matches a direct regeneration bit for bit
        model = ModelSpec.from_json((tmp_path / "markov.json").read_text())
        path = synthesize(model)["path"]
        ref = tmp_path / "ref.csv"
        write_jumps(ref, path)
        assert (out / "jumps.csv").read_bytes() == ref.read_bytes()


class TestSynthCommand:
    def test_measure_artifacts(self, tmp_path):
        spec = write_spec(tmp_path, "lb.json",
                          {"kind": "localized_bernoulli", "seed": 0,
                           "params": {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 10}})
        out = tmp_path / "out"
        rc = main(["synth", "--spec", spec, "--out", str(out)])
        assert rc == 0
        m = read_measure(out / "measure.txt")
        assert m.J == 10
        meta = json.loads((out / "meta.json").read_text())
        assert meta["kind"] == "localized_bernoulli"
        # analyze the written file
        rc = main(["analyze", "--family", "plain-measure",
                   "--input", str(out / "measure.txt"), "--p-grid=-2:2:1",
                   "--out", str(out / "an")])
        assert rc == 0
        results = json.loads((out / "an" / "results.json").read_text())
        assert results["windows"][0]["p_grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_mbm_artifacts(self, tmp_path):
        spec = write_spec(tmp_path, "fbm.json",
                          {"kind": "fbm", "seed": 2,
                           "params": {"H": 0.6, "J": 10}})
        out = tmp_path / "out"
        rc = main(["synth", "--spec", spec, "--out", str(out)])
        assert rc == 0
        assert (out / "signal.bin").exists()
        assert (out / "pyramid.csv").read_text().startswith("j,k,c")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["analyze", "--spec", spec, "--family", "plain-measure",
                       "--p-grid=-3:3:0.5", "--deterministic",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("results.json", "tau_long.csv", "spectrum_long.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        results = json.loads((outs[0] / "results.json").read_text())
        assert "timestamp" not in results

    def test_infinities_serialized_as_strings(self, tmp_path):
        # localized Legendre spectra carry -inf entries
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        out = tmp_path / "out"
        rc = main(["analyze", "--spec", spec, "--family", "plain-measure",
                   "--p-grid=-3:3:0.5", "--h-grid", "0.1:2.5:0.05",
                   "--deterministic", "--out", str(out)])
        assert rc == 0
        text = (out / "results.json").read_text()
        assert "Infinity" not in text
        assert '"-inf"' in text
        json.loads(text)  # stays valid JSON


class TestReport:
    def test_global_rows_have_empty_x(self, tmp_path):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        out = tmp_path / "out"
        main(["analyze", "--spec", spec, "--family", "plain-measure",
              "--p-grid=-2:2:1", "--deterministic", "--out", str(out)])
        rows = (out / "tau_long.csv").read_text().splitlines()
        assert rows[0] == "window_lo,window_hi,x,p,tau"
        assert len(rows) == 6
        assert all(r.split(",")[2] == "" for r in rows[1:])

    def test_local_spectrum_row_count(self, tmp_path):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 14}})
        out = tmp_path / "out"
        rc = main(["local", "--spec", spec, "--family", "plain-measure",
                   "--p-grid=-2:2:0.5", "--h-grid", "0.2:2.1:0.1",
                   "--x-grid", "0.25,0.5,0.75", "--radii", "0.125,0.0625",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "spectrum_long.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 20
        xs = {r.split(",")[2] for r in rows[1:]}
        assert xs == {"0.25", "0.5", "0.75"}

    def test_report_command_round_trip(self, tmp_path):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        out = tmp_path / "out"
        main(["analyze", "--spec", spec, "--family", "plain-measure",
              "--p-grid=-2:2:1", "--deterministic", "--out", str(out)])
        rep = tmp_path / "rep"
        rc = main(["report", "--input", str(out / "results.json"),
                   "--out", str(rep)])
        assert rc == 0
        assert ((rep / "tau_long.csv").read_bytes()
                == (out / "tau_long.csv").read_bytes())

    def test_windows_option(self, tmp_path):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        out = tmp_path / "out"
        rc = main(["analyze", "--spec", spec, "--family", "plain-measure",
                   "--p-grid=-2:2:1", "--windows", "0,0.5;0.5,1",
                   "--deterministic", "--out", str(out)])
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        assert [w["window"] for w in results["windows"]] == [[0.0, 0.5],
                                                             [0.5, 1.0]]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        spec = {"kind": "binomial", "params": {"p": 0.4, "J": 12}}
        cfg.write_text(json.dumps({
            "model": spec, "family": "plain-measure",
            "p_grid": [-1.0, 0.0, 1.0], "out": str(tmp_path / "from_cfg"),
            "deterministic": True}))
        out = tmp_path / "flag_out"
        rc = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        assert results["windows"][0]["p_grid"] == [-1.0, 0.0, 1.0]
        assert not (tmp_path / "from_cfg").exists()


class TestWaveletFamilies:
    def test_p_leaders_with_frac_int(self, tmp_path):
        spec = write_spec(tmp_path, "fbm.json",
                          {"kind": "fbm", "seed": 4,
                           "params": {"H": 0.5, "J": 12}})
        out = tmp_path / "out"
        rc = main(["analyze", "--spec", spec, "--family", "p-leaders:2",
                   "--frac-int", "0.5", "--p-grid=0:2:0.5",
                   "--deterministic", "--out", str(out)])
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        tau = results["windows"][0]["tau"]
        # integration by 1/2 lifts the slope to about H + 0.5
        slope = (tau[-1] - tau[0]) / 2.0
        assert abs(slope - 1.0) <= 0.2

    def test_family_model_mismatch_is_validation_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 10}})
        rc = main(["analyze", "--spec", spec, "--family", "leaders",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: validation:")


class TestLocalValidation:
    def test_local_requires_grid_and_radii(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        rc = main(["local", "--spec", spec, "--family", "plain-measure",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "x-grid" in capsys.readouterr().err
