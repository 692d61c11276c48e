import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localmf import (ModelSpec, gen_mbm, lower_exponent, oscillation_family,
                     read_measure, read_signal, synthesize, write_measure)
from localmf.cli import _table, main
from localmf.synth import write_jumps


COMMANDS = ["synth", "analyze", "local", "check-oracle", "report"]
MARKOV_SPEC = {"kind": "markov_jump", "seed": 3,
               "params": {"gamma": [[0.0, 0.5], [1.6, 0.9], [50.0, 0.9]],
                          "T": 1.0, "N": 1024, "eps_trunc": 2.0 ** -12}}


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


    @pytest.mark.parametrize("option", [
        ["--fit", "3"], ["--fit", "3:x"], ["--windows", "0.5"],
        ["--windows", "0,0.5,1"], ["--p-grid", "abc"], ["--p-grid", "1:x:0.5"],
        ["--radii", "0.25,x"], ["--x-grid", "auto:-1"], ["--x-grid", "auto:1.5"],
        ["--x-grid", "auto:"], ["--p-grid="], ["--p-grid=,"], ["--h-grid="],
        ["--x-grid=", "--radii", "0.25"], ["--x-grid", "0.5", "--radii="],
    ], ids=lambda o: " ".join(o))
    def test_malformed_option_text_exits_2(self, tmp_path, capsys, option):
        measure = tmp_path / "measure.txt"
        measure.write_text("2,1.0\n" + "0.25\n" * 4)
        # a well-formed base run, so that only the option can fail
        rc = main(["local", "--input", str(measure), "--x-grid", "0.5",
                   "--radii", "0.25", "--out", str(tmp_path / "out")] + option)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("entry", [
        {"windows": [[0.5]]}, {"windows": [0.5]}, {"min_cubes": "abc"},
        {"p_grid": ["a"]}, {"p_grid": 2}, {"radii": ["x"]},
        {"x_grid": [["a"]]}, {"fit": [3]}, {"j_max": "x"},
        {"frac_int": "x"}, {"seed": [1]}, {"mode": "foo"},
        {"deterministic": "no"}, {"p-grid": "1:2:1"}, {"seed": 5.7},
        {"seed": True}, {"j_max": 9.9}, {"min_cubes": True},
        {"osc_order": 1.5}, {"fit": [3.5, 9]},
        {"p_grid": "nan,1,2"}, {"p_grid": "-1,inf"}, {"p_grid": [math.nan]},
        {"p_grid": "0:inf:1"}, {"x_grid": "nan"}, {"radii": "nan"},
        {"radii": "0.25,nan"}, {"radii": [math.inf]}, {"H_grid": "nan,0.5,1"},
        {"p_grid": []}, {"x_grid": ""}, {"p_grid": [1, 1, 2]},
        {"p_grid": "1,2,1"},
    ], ids=lambda e: json.dumps(e))
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, entry):
        measure = tmp_path / "measure.txt"
        measure.write_text("4,1.0\n" + "0.0625\n" * 16)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x_grid": [0.5], "radii": [0.25], **entry}))
        rc = main(["local", "--input", str(measure), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("option", [
        ["--bogus", "1"], ["--j-max", "abc"], ["--frac-int", "x"], ["--j-max"],
    ], ids=" ".join)
    def test_bad_flag_is_one_line(self, tmp_path, capsys, command, option):
        rc = main([command, "--out", str(tmp_path / "out")] + option)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_0(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert "--min-cubes" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        None, "{not json", '{"kind": "binomial", "seed": "abc"}',
        '{"kind": "binomial", "params": [1, 2]}',
    ], ids=["missing", "not-json", "seed", "params"])
    def test_bad_spec_file_exits_2(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("potential", [{"b": 0.6}, {"a": "x", "b": 0.6}],
                             ids=json.dumps)
    def test_birkhoff_potential_needs_numeric_digits(self, tmp_path, capsys,
                                                      potential):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 10}})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": potential}))
        rc = main(["analyze", "--spec", spec, "--family", "birkhoff",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "JSON object"), ("{not json", "cannot read"),
        ('{"windows": [1]}', "windows[0]"),
        ('{"windows": [GOOD, {"window": [0, 1], "tau": [0]}]}', "windows[1]"),
        ('{"windows": [GOOD, {"window": [0, 1], "p_grid": [1]}]}', "windows[1]"),
        ('{"windows": [GOOD, {"window": [0, 1], "p_grid": [1], "tau": [0], '
         '"local": [{"x": 0.5, "tau": [[0]]}]}]}', "windows[1]"),
    ], ids=["list", "not-json", "entry-not-object", "no-p_grid", "no-tau",
            "local-without-legendre"])
    def test_unparsable_report_input_exits_3(self, tmp_path, capsys, text,
                                             named):
        good = '{"window": [0, 1], "p_grid": [1], "tau": [0]}'
        results = tmp_path / "results.json"
        results.write_text(text.replace("GOOD", good))
        rc = main(["report", "--input", str(results),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: runtime:") and "\n" not in err
        assert named in err

    @pytest.mark.parametrize("source", ["--input", "--spec", "model"])
    def test_birkhoff_takes_no_input_source(self, tmp_path, capsys, source):
        spec = {"kind": "binomial", "params": {"p": 0.4, "J": 10}}
        cfg = {"potential": {"a": 0.4, "b": 1.1}}
        argv = ["analyze", "--family", "birkhoff", "--out", str(tmp_path / "out")]
        if source == "model":
            cfg["model"] = spec
        else:
            argv += [source, write_spec(tmp_path, "binom.json", spec)]
        rc = main(argv + ["--config", write_spec(tmp_path, "cfg.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("option", [
        ["--family", "oscillation", "--osc-order", "0"],
        ["--family", "oscillation", "--osc-order", "3"],
        ["--family", "leaders", "--osc-order", "2"],
        ["--family", "leaders", "--filter", "db9"],
        ["--family", "oscillation", "--filter", "db2"],
    ], ids=lambda o: " ".join(o))
    def test_unknown_order_or_filter_exits_2(self, tmp_path, capsys, option):
        sig = tmp_path / "sig.txt"
        sig.write_text("\n".join(str(float(i)) for i in range(64)) + "\n")
        rc = main(["analyze", "--input", str(sig), "--out",
                   str(tmp_path / "out")] + option)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("command", [["analyze", "--family", "leaders"],
                                         ["synth"]], ids=lambda c: c[0])
    def test_unknown_spec_filter_exits_2(self, tmp_path, capsys, command):
        spec = write_spec(tmp_path, "mbm.json",
                          {"kind": "mbm",
                           "params": {"H": 0.5, "J": 10, "filter": "db9"}})
        rc = main(command + ["--spec", spec, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("option", [
        ["--family", "leaders"], ["--osc-order", "2"],
        ["--mode", "local", "--x-grid", "0.5", "--radii", "0.25"],
        ["--x-grid", "0.5"], ["--radii", "0.25"], ["--windows", "0,0.5"],
        ["--p-grid=-1:1:1"], ["--h-grid", "0:1:0.5"], ["--min-cubes", "4"],
    ], ids=lambda o: " ".join(o))
    def test_markov_oracle_family_settings_exit_2(self, tmp_path, capsys,
                                                  option):
        spec = write_spec(tmp_path, "markov.json",
                          {"kind": "markov_jump",
                           "params": {"gamma": 0.5, "T": 1.0, "N": 1024}})
        rc = main(["check-oracle", "--spec", spec,
                   "--out", str(tmp_path / "out")] + option)
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--min-cubes", "1000"], ["analyze", "--x-grid", "0.5"],
        ["analyze", "--radii", "0.25"], ["check-oracle", "--x-grid", "0.5"],
        ["check-oracle", "--windows", "0.75,1;0,0.5"],
        ["check-oracle", "--mode", "local", "--x-grid", "0.5", "--radii",
         "0.25", "--windows", "0,0.5"],
    ], ids=" ".join)
    def test_option_the_run_does_not_read_exits_2(self, tmp_path, capsys,
                                                  argv):
        spec = write_spec(tmp_path, "bern.json", {
            "kind": "localized_bernoulli",
            "params": {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}})
        rc = main(argv + ["--spec", spec, "--p-grid=-1:1:1",
                          "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err
        assert argv[-2] in err      # the unread option

    def test_bad_binary_signal_header_exits_3(self, tmp_path, capsys):
        sig = tmp_path / "sig.bin"
        sig.write_bytes(b"LMFSIG01abc")
        rc = main(["analyze", "--family", "leaders", "--input", str(sig),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: runtime:") and "\n" not in err

    def test_negative_header_scale_exits_3(self, tmp_path, capsys):
        measure = tmp_path / "measure.txt"
        measure.write_text("-1,1.0\n1.0\n")
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

    def test_markov_estimates_are_the_one_point_exponents(self, tmp_path):
        # N = 2^J samples: order-1 oscillations up to scale J - 1, fitted
        # over (5, min(13, J - 2)) at 100 sorted times drawn with --seed 0
        payload = {"kind": "markov_jump", "seed": 3,
                   "params": {"gamma": [[0.0, 0.5], [1.6, 0.9], [50.0, 0.9]],
                              "T": 1.0, "N": 4096, "eps_trunc": 2.0 ** -14}}
        spec = write_spec(tmp_path, "markov.json", payload)
        out = tmp_path / "out"
        assert main(["check-oracle", "--spec", spec, "--out", str(out)]) == 0
        J, T = 12, 1.0
        path = synthesize(ModelSpec.from_json(json.dumps(payload)))["path"]
        family = oscillation_family(path.grid_M, 1, J - 1)
        ts = np.sort(np.random.default_rng(0).uniform(0.0, T, 100))
        rows = (out / "oracle_vs_estimate.csv").read_text().splitlines()
        assert rows[0] == "t,h_hat,h_oracle" and len(rows) == 101
        for t, row in zip(ts, rows[1:]):
            est = lower_exponent(family, t / T, "regression", (5, min(13, J - 2)))
            assert row.split(",")[:2] == [f"{t:.12g}", f"{est.value:.12g}"]

    @pytest.mark.parametrize("N, fit", [(64, (3, 4)), (128, (4, 5))])
    def test_markov_default_fit_keeps_two_scales(self, tmp_path, N, fit):
        # order-1 oscillations up to scale log2 N - 1: the default (5, 13)
        # is cut to the scales below the finest, and j1 lowered to keep 2
        payload = {**MARKOV_SPEC, "params": {**MARKOV_SPEC["params"], "N": N}}
        spec = write_spec(tmp_path, "markov.json", payload)
        out = tmp_path / "out"
        assert main(["check-oracle", "--spec", spec, "--out", str(out)]) == 0
        path = synthesize(ModelSpec.from_json(json.dumps(payload)))["path"]
        family = oscillation_family(path.grid_M, 1, N.bit_length() - 2)
        ts = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 100))
        rows = (out / "oracle_vs_estimate.csv").read_text().splitlines()[1:]
        for t, row in zip(ts, rows, strict=True):
            est = lower_exponent(family, t, "regression", fit)
            assert row.split(",")[:2] == [f"{t:.12g}", f"{est.value:.12g}"]

    def test_markov_path_too_short_for_a_fit(self, tmp_path, capsys):
        # N = 8 samples give oscillation scales 0 to 2: no 2 scales below 2
        payload = {**MARKOV_SPEC, "params": {**MARKOV_SPEC["params"], "N": 8}}
        spec = write_spec(tmp_path, "markov.json", payload)
        assert main(["check-oracle", "--spec", spec,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: runtime:")
        assert "N = 8" in err and "scales 0 to 2" in err


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
        assert not (out / "pyramid.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["outputs"] == ["signal.bin"]

    def test_seed_flag_replaces_spec_seed(self, tmp_path):
        params = {"H": 0.6, "J": 10}
        spec = write_spec(tmp_path, "mbm.json",
                          {"kind": "mbm", "seed": 1, "params": params})
        out = tmp_path / "out"
        assert main(["synth", "--spec", spec, "--seed", "5",
                     "--out", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["seed"] == 5
        signal, _ = gen_mbm(ModelSpec("mbm", params, seed=5))
        np.testing.assert_array_equal(read_signal(out / "signal.bin"), signal)

    def test_markov_artifacts(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "markov.json", MARKOV_SPEC)
        out = tmp_path / "out"
        assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
        path = synthesize(ModelSpec.from_json(json.dumps(MARKOV_SPEC)))["path"]
        np.testing.assert_array_equal(read_signal(out / "path.txt"), path.grid_M)
        ref = tmp_path / "ref.csv"
        write_jumps(ref, path)
        assert (out / "jumps.csv").read_bytes() == ref.read_bytes()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["outputs"] == ["path.txt", "jumps.csv"]
        assert meta["drift_bound"] == pytest.approx(path.drift_bound, rel=1e-11)
        assert meta["drift_rate_max"] == pytest.approx(path.drift_rate_max,
                                                       rel=1e-11)
        assert "truncation drift bound" in capsys.readouterr().out

    def test_markov_analysis_writes_the_same_jumps(self, tmp_path):
        spec = write_spec(tmp_path, "markov.json", MARKOV_SPEC)
        for command, extra in (("synth", []), ("analyze", [
                "--family", "oscillation", "--p-grid=-1:1:1"])):
            assert main([command, "--spec", spec, "--deterministic",
                         "--out", str(tmp_path / command)] + extra) == 0
        assert ((tmp_path / "analyze" / "jumps.csv").read_bytes()
                == (tmp_path / "synth" / "jumps.csv").read_bytes())


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

    def test_second_order_oscillation_reruns(self, tmp_path):
        walk = np.cumsum(np.random.default_rng(3).standard_normal(1 << 10))
        sig = tmp_path / "walk.txt"
        sig.write_text("\n".join(repr(float(v)) for v in walk) + "\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["analyze", "--input", str(sig), "--family", "oscillation",
                       "--osc-order", "2", "--j-max", "7",
                       "--deterministic", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("results.json", "tau_long.csv", "spectrum_long.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        window = json.loads((outs[0] / "results.json").read_text())["windows"][0]
        tau = np.array(window["tau"], dtype=float)
        p = np.array(window["p_grid"], dtype=float)
        assert np.all(np.isfinite(tau[p > 0]))

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


class TestBirkhoff:
    @pytest.mark.parametrize("command", ["analyze", "check-oracle"])
    def test_family_needs_only_its_potential(self, tmp_path, command):
        potential = {"a": 0.4, "b": 1.1}
        argv = [command, "--family", "birkhoff",
                "--deterministic", "--out", str(tmp_path / "out")]
        if command == "check-oracle":    # the spec gives family and oracle
            argv += ["--spec", write_spec(tmp_path, "birkhoff.json", {
                "kind": "birkhoff", "params": potential})]
        else:
            argv += ["--config", write_spec(tmp_path, "cfg.json",
                                            {"potential": potential})]
        assert main(argv) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert np.all(np.isfinite(results["windows"][0]["tau"]))
        if command == "check-oracle":
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["max_abs_tau_deviation"] < 1e-9

    def test_check_oracle_from_the_spec_alone(self, tmp_path):
        spec = write_spec(tmp_path, "birkhoff.json", {
            "kind": "birkhoff", "params": {"a": 0.4, "b": 1.1}})
        out = tmp_path / "out"
        assert main(["check-oracle", "--spec", spec, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_abs_tau_deviation"] < 1e-9

    @pytest.mark.parametrize("params, config, named", [
        ({"a": 0.4, "b": 1.1}, {"potential": {"a": 0.4, "b": 1.1}},
         "potential"),
        ({"a": "x", "b": 1.1}, {}, "'a'"),
    ], ids=["config-potential", "non-numeric-digit"])
    def test_check_oracle_rejects_a_potential_or_bad_spec_digit(
            self, tmp_path, capsys, params, config, named):
        spec = write_spec(tmp_path, "birkhoff.json",
                          {"kind": "birkhoff", "params": params})
        rc = main(["check-oracle", "--spec", spec, "--config",
                   write_spec(tmp_path, "cfg.json", config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err
        assert named in err


class TestFamilyTable:
    """Each family kind reads exactly the family options its table row
    names; any other one set away from its default exits 2."""

    READS = {"measure": {"--j-max"}, "plain-measure": {"--j-max"},
             "oscillation": {"--j-max", "--osc-order"},
             "leaders": {"--filter", "--frac-int"},
             "p-leaders:2": {"--filter", "--frac-int"},
             "birkhoff": {"--j-max"}}
    OPTIONS = {"--j-max": "8", "--osc-order": "2", "--filter": "haar",
               "--frac-int": "0.5"}

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("sources")
        write_measure(d / "measure.txt", synthesize(ModelSpec(
            "binomial", {"p": 0.4, "J": 10}))["measure"])
        walk = np.cumsum(np.random.default_rng(3).standard_normal(1 << 10))
        (d / "walk.txt").write_text("\n".join(repr(float(v)) for v in walk)
                                    + "\n")
        (d / "cfg.json").write_text(json.dumps({"potential": {"a": 0.4,
                                                              "b": 1.1}}))
        return {"measure": ["--input", str(d / "measure.txt")],
                "signal": ["--input", str(d / "walk.txt")],
                "potential": ["--config", str(d / "cfg.json")]}

    @pytest.mark.parametrize("option", list(OPTIONS))
    @pytest.mark.parametrize("family", list(READS))
    def test_family_reads_exactly_its_options(self, tmp_path, capsys, sources,
                                              family, option):
        source = sources[{"measure": "measure", "plain-measure": "measure",
                          "birkhoff": "potential"}.get(family, "signal")]
        argv = ["analyze", "--family", family, *source, "--p-grid=-2:2:1",
                "--deterministic"]
        rc = main(argv + [option, self.OPTIONS[option],
                          "--out", str(tmp_path / "set")])
        err = capsys.readouterr().err.strip()
        if option not in self.READS[family]:
            assert rc == 2
            assert err.startswith("error: validation:") and "\n" not in err
            assert option in err
            return
        assert rc == 0, err
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert ((tmp_path / "set" / "results.json").read_bytes()
                != (tmp_path / "default" / "results.json").read_bytes())

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--family", "leaders", "--input", "SIGNAL",
          "--j-max", "6"], "--j-max"),
        (["analyze", "--family", "p-leaders:2", "--input", "SIGNAL",
          "--j-max", "6"], "--j-max"),
        (["check-oracle", "--spec", "MBM", "--j-max", "8"], "--j-max"),
        (["analyze", "--family", "leaders", "--input", "SIGNAL",
          "--config", "POTENTIAL"], "potential"),
        (["analyze", "--spec", "BIRKHOFF", "--family", "leaders"], "signal"),
        (["synth", "--input", "SIGNAL"], "--spec"),
        (["report", "--spec", "MBM"], "--input"),
        (["check-oracle", "--input", "SIGNAL"], "--spec"),
        (["synth", "--spec", "MBM", "--j-max", "8", "--family", "oscillation",
          "--p-grid=-1:1:1"], "synth reads no --family, --j-max, --p-grid"),
        (["report", "--input", "RESULTS", "--x-grid", "0.5", "--filter",
          "haar"], "report reads no --filter, --x-grid"),
    ], ids=["leaders-j-max", "p-leaders-j-max", "check-oracle-mbm-j-max",
            "leaders-potential", "birkhoff-spec-leaders", "synth-input",
            "report-spec", "check-oracle-input", "synth-analysis-options",
            "report-analysis-options"])
    def test_unread_option_or_wrong_source_exits_2(self, tmp_path, capsys,
                                                   sources, argv, named):
        files = {
            "SIGNAL": sources["signal"][1],
            "POTENTIAL": sources["potential"][1],
            "MBM": write_spec(tmp_path, "mbm.json", {
                "kind": "mbm", "params": {"H": 0.5, "J": 10}}),
            "BIRKHOFF": write_spec(tmp_path, "birkhoff.json", {
                "kind": "birkhoff", "params": {"a": 0.4, "b": 1.1}}),
            "RESULTS": write_spec(tmp_path, "results.json", {"windows": []}),
        }
        rc = main([files.get(a, a) for a in argv]
                  + ["--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err
        assert named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "report"])
    def test_synth_and_report_take_every_option_they_read(self, tmp_path,
                                                          command):
        spec = write_spec(tmp_path, "mbm.json", {
            "kind": "mbm", "params": {"H": 0.5, "J": 10}})
        results = write_spec(tmp_path, "results.json", {"windows": []})
        argv = {"synth": ["--spec", spec, "--seed", "3"],
                "report": ["--input", results]}[command]
        assert main([command, *argv, "--out", str(tmp_path / "out"),
                     "--deterministic"]) == 0


class TestReport:
    def test_table_formats_each_cell_once(self):
        big = np.finfo(float).max
        edges = [0.0, -0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf, np.nan,
                 0.1 + 0.2, 123456789012.5, 1e16]
        bits = np.random.default_rng(3).integers(0, 2 ** 64, 2000, np.uint64)
        cells = edges + bits.view(float).tolist()

        def two_step(x):    # the rule it replaced: round to 12 digits, format
            return f"{float(f'{x:.12g}'):.12g}" if np.isfinite(x) else str(x)

        text = _table("h", [[None] + cells])
        assert text == "h\n" + ",".join([""] + [two_step(x) for x in cells]) + "\n"
        assert text.startswith("h\n,0,-0,4.94065645841e-324,-4.94065645841e-324,"
                               "1.79769313486e+308,-1.79769313486e+308,inf,-inf,"
                               "nan,0.3,123456789012,1e+16,")

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


class TestAutoXGrid:
    def run_local(self, tmp_path, name, x_grid):
        spec = write_spec(tmp_path, "bern.json", {
            "kind": "localized_bernoulli",
            "params": {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}})
        out = tmp_path / name
        rc = main(["local", "--spec", spec, "--family", "plain-measure",
                   "--p-grid=-2:2:0.5", "--x-grid", x_grid,
                   "--radii", "0.25,0.125,0.0625", "--fit", "3:11",
                   "--deterministic", "--out", str(out)])
        return rc, out

    def test_one_point_per_cube_and_byte_identical_rerun(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            rc, out = self.run_local(tmp_path, name, "auto:5")
            assert rc == 0
            outs.append(out)
        local = json.loads((outs[0] / "results.json").read_text())["windows"][0]["local"]
        assert [loc["x"] for loc in local] == [(k + 0.5) / 32 for k in range(32)]
        for fname in ("results.json", "tau_long.csv", "spectrum_long.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_scale_finer_than_family_exits_3(self, tmp_path, capsys):
        rc, _ = self.run_local(tmp_path, "a", "auto:13")
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: runtime:")


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

    @pytest.mark.parametrize("filter_id", ["db3", "haar"])
    def test_spec_analyzed_as_its_signal_file(self, tmp_path, filter_id):
        spec = write_spec(tmp_path, "mbm.json",
                          {"kind": "mbm", "seed": 1,
                           "params": {"H": [[0.0, 0.4], [1.0, 0.7]], "J": 10}})
        args = ["--family", "leaders", "--filter", filter_id,
                "--p-grid=-2:2:0.5", "--deterministic"]
        assert main(["analyze", "--spec", spec, "--out",
                     str(tmp_path / "spec")] + args) == 0
        assert main(["synth", "--spec", spec, "--out",
                     str(tmp_path / "synth")]) == 0
        assert main(["analyze", "--input", str(tmp_path / "synth" / "signal.bin"),
                     "--out", str(tmp_path / "file")] + args) == 0
        for fname in ("tau_long.csv", "spectrum_long.csv"):
            assert ((tmp_path / "spec" / fname).read_bytes()
                    == (tmp_path / "file" / fname).read_bytes())

    def test_family_model_mismatch_is_validation_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 10}})
        rc = main(["analyze", "--spec", spec, "--family", "leaders",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: validation:")


class TestOscillationScales:
    def analyze(self, tmp_path, n, *option):
        walk = np.cumsum(np.random.default_rng(n).standard_normal(n))
        sig = tmp_path / f"walk{n}.txt"
        sig.write_text("\n".join(repr(float(v)) for v in walk) + "\n")
        out = tmp_path / f"out{n}{''.join(option)}"
        rc = main(["analyze", "--input", str(sig), "--family", "oscillation",
                   "--deterministic", "--out", str(out), *option])
        return rc, out

    @pytest.mark.parametrize("n", [256, 512])
    def test_default_scales_fit_short_signals(self, tmp_path, n):
        rc, _ = self.analyze(tmp_path, n)
        assert rc == 0

    def test_too_short_signal_exits_3(self, tmp_path, capsys):
        rc, _ = self.analyze(tmp_path, 64)
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: runtime:") and "\n" not in err

    def test_default_j_max_is_J_minus_3_from_1024_samples(self, tmp_path):
        _, default = self.analyze(tmp_path, 1024)
        _, explicit = self.analyze(tmp_path, 1024, "--j-max", "7")
        for fname in ("tau_long.csv", "spectrum_long.csv"):
            assert ((default / fname).read_bytes()
                    == (explicit / fname).read_bytes())


class TestLocalValidation:
    def test_local_requires_grid_and_radii(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        rc = main(["local", "--spec", spec, "--family", "plain-measure",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "x-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, grid", [
        (["analyze", "--p-grid=-3:3:0.7"], "p_grid",
         [-3.0, -2.3, -1.6, -0.9, -0.2, 0.5, 1.2, 1.9, 2.6]),
        (["local", "--x-grid", "0:1:0.6", "--radii", "0.25"], "x_grid",
         [0.0, 0.6]),
    ], ids=["p-grid", "x-grid"])
    def test_step_grid_stops_at_b(self, tmp_path, argv, key, grid):
        spec = write_spec(tmp_path, "binom.json",
                          {"kind": "binomial", "params": {"p": 0.4, "J": 12}})
        out = tmp_path / "out"
        assert main(argv + ["--spec", spec, "--family", "plain-measure",
                            "--deterministic", "--out", str(out)]) == 0
        config = json.loads((out / "results.json").read_text())["config"]
        assert config[key] == grid


class TestLocalWindows:
    def run_local(self, tmp_path, name, *option):
        spec = write_spec(tmp_path, "bern.json", {
            "kind": "localized_bernoulli",
            "params": {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}})
        out = tmp_path / name
        rc = main(["local", "--spec", spec, "--family", "plain-measure",
                   "--p-grid=-2:2:0.5", "--radii", "0.25,0.125,0.0625",
                   "--fit", "3:11", "--deterministic", "--out", str(out),
                   *option])
        return rc, out

    def test_each_point_under_the_windows_holding_it(self, tmp_path):
        rc, out = self.run_local(tmp_path, "out", "--x-grid", "0.25,0.5,0.75",
                                 "--windows", "0,0.5;0.5,1;0.25,0.75")
        assert rc == 0
        windows = json.loads((out / "results.json").read_text())["windows"]
        assert [[loc["x"] for loc in w["local"]] for w in windows] == [
            [0.25], [0.5, 0.75], [0.25, 0.5]]
        tau = {}
        rows = [r.split(",") for r in
                (out / "spectrum_long.csv").read_text().splitlines()[1:]]
        for w in windows:
            H = w["legendre"]["H"]
            for loc in w["local"]:
                assert set(loc) == {"x", "tau", "legendre", "alpha"}
                assert set(loc["legendre"]) == {"L"}
                assert len(loc["legendre"]["L"]) == len(H)
                assert tau.setdefault(loc["x"], loc["tau"]) == loc["tau"]
                mine = [r for r in rows if [float(v) for v in r[:3]]
                        == [*w["window"], loc["x"]]]
                assert [float(r[3]) for r in mine] == H
        # the two halves' auto H grids differ, so each point used its own
        assert len(windows[0]["legendre"]["H"]) != len(windows[1]["legendre"]["H"])

    def test_point_outside_every_window_exits_2(self, tmp_path, capsys):
        rc, out = self.run_local(tmp_path, "out", "--x-grid", "0.75",
                                 "--windows", "0,0.5")
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: validation:") and "\n" not in err
        assert not out.exists()

    def test_auto_grid_keeps_the_centres_inside_the_windows(self, tmp_path):
        rc, out = self.run_local(tmp_path, "out", "--x-grid", "auto:3",
                                 "--windows", "0,0.5")
        assert rc == 0
        windows = json.loads((out / "results.json").read_text())["windows"]
        assert [loc["x"] for loc in windows[0]["local"]] == [
            0.0625, 0.1875, 0.3125, 0.4375]

    def test_report_reads_the_schema_with_per_point_H_and_radii(self, tmp_path):
        rc, out = self.run_local(tmp_path, "out", "--x-grid", "0.25,0.5,0.75")
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        for w in results["windows"]:
            for loc in w["local"]:
                loc["radii"] = results["config"]["radii"]
                loc["legendre"] = {"H": w["legendre"]["H"], **loc["legendre"]}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(results))
        rep = tmp_path / "rep"
        assert main(["report", "--input", str(old), "--out", str(rep)]) == 0
        for fname in ("tau_long.csv", "spectrum_long.csv"):
            assert (rep / fname).read_bytes() == (out / fname).read_bytes()


class TestProcess:
    """``python -m localmf`` as a user runs it: numpy warnings are not
    turned into errors, so only a real process shows every stderr line."""

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--p-grid=-1,inf", "--spec", "BINOM"], 2),
        (["analyze", "--help"], 0),
        (["synth", "--input", "SIGNAL"], 2),
        (["analyze", "--family", "leaders", "--j-max", "6", "--input",
          "SIGNAL"], 2),
        (["report", "--input", "SIGNAL", "--x-grid", "0.5"], 2),
        (["analyze", "--p-grid=", "--spec", "BINOM"], 2),
        (["analyze", "--p-grid", "1,1,2", "--spec", "BINOM"], 2),
        (["local", "--spec", "BINOM", "--x-grid", "0.5", "--radii",
          "0.125,0.25"], 2),
        (["local", "--spec", "BINOM", "--x-grid", "0.5", "--radii",
          "0.25,0.25"], 2),
        (["analyze", "--p-grid", "1e300,1", "--h-grid", "0.5,1", "--spec",
          "BINOM"], 0),
        (["analyze", "--spec", "UNDERFLOW"], 3),
        (["synth", "--spec", "FRACTIONAL_J"], 3),
        (["synth", "--spec", "MBM_N_NOT_2_TO_J"], 3),
        (["check-oracle", "--spec", "MARKOV_N_64"], 0),
        (["check-oracle", "--spec", "MARKOV_N_128"], 0),
        (["analyze", "--family", "oscillation", "--input", "HUGE"], 3),
        (["analyze", "--family", "oscillation", "--osc-order", "2", "--input",
          "HUGE"], 3),
    ], ids=["non-finite-p-grid", "help", "synth-input", "leaders-j-max",
            "report-x-grid", "empty-p-grid", "repeated-p-grid",
            "increasing-radii", "repeated-radii", "huge-p",
            "underflowing-cascade", "fractional-J", "mbm-N-not-2-to-J",
            "markov-N-64", "markov-N-128", "oscillation-overflow",
            "order-2-oscillation-overflow"])
    def test_exit_code_and_at_most_one_stderr_line(self, tmp_path, argv, code):
        files = {"BINOM": write_spec(tmp_path, "binom.json", {
            "kind": "binomial", "params": {"p": 0.4, "J": 10}})}
        files["UNDERFLOW"] = write_spec(tmp_path, "underflow.json", {
            "kind": "binomial", "params": {"p": 1e-30, "J": 14}})
        files["FRACTIONAL_J"] = write_spec(tmp_path, "fractional.json", {
            "kind": "binomial", "params": {"p": 0.4, "J": 12.5}})
        files["MBM_N_NOT_2_TO_J"] = write_spec(tmp_path, "mbm.json", {
            "kind": "mbm", "N": 4096, "params": {"H": 0.6, "J": 10}})
        for n in (64, 128):
            files[f"MARKOV_N_{n}"] = write_spec(tmp_path, f"markov{n}.json", {
                **MARKOV_SPEC, "params": {**MARKOV_SPEC["params"], "N": n}})
        files["SIGNAL"] = str(tmp_path / "sig.txt")
        Path(files["SIGNAL"]).write_text("0.0\n" * 1024)
        # +-1e308: every oscillation of 2e308 or 4e308 is beyond doubles
        files["HUGE"] = str(tmp_path / "huge.txt")
        Path(files["HUGE"]).write_text("1e308\n-1e308\n" * 32)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "localmf", *(files.get(a, a) for a in argv),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) <= 1
        assert code != 3 or proc.stderr.startswith("error: runtime:")
