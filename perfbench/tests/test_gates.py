"""Each benchmark gate accepts real outputs and rejects a perturbed one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np

import localmf as mf
from localmf import cli
from localmf.estimators import FitPolicy

import gates
import run
from spans import Tracer
from workloads import WORKLOADS, Checked, bernoulli_ab


def test_binomial_gate_rejects_tau_shifted_by_0_1():
    p, qs = 0.3, np.linspace(-10.0, 10.0, 41)
    spec = mf.ModelSpec("binomial", {"p": p, "J": 14})
    fam = mf.plain_measure_family(mf.synthesize(spec)["measure"], 14)
    tau = mf.scaling_function(fam, None, qs).tau
    assert gates.binomial_ok(gates.binomial_tau_dev(tau, p, qs))
    assert not gates.binomial_ok(gates.binomial_tau_dev(tau + 0.1, p, qs))


def test_local_gate_rejects_tau_shifted_by_0_1():
    a, b = bernoulli_ab(0.5, 0.5)
    spec = mf.ModelSpec("localized_bernoulli", {"p": [[0.0, a], [1.0, b]], "J": 18})
    fam = mf.plain_measure_family(mf.synthesize(spec)["measure"], 18)
    xs, qs = [0.25, 0.5, 0.75], np.linspace(-3.0, 3.0, 13)
    lp = mf.local_profile(fam, xs, [2.0 ** -2, 2.0 ** -3, 2.0 ** -4], qs,
                          FitPolicy(3, 17, 8))
    oracle_rows = [mf.oracle(spec).tau(x, qs) for x in xs]
    viol = lp.radius_monotone_violation()
    assert gates.local_ok(gates.local_tau_dev(lp.tau_local, oracle_rows), viol)
    shifted = gates.local_tau_dev(lp.tau_local + 0.1, oracle_rows)
    assert not gates.local_ok(shifted, viol)
    assert not gates.local_ok(0.0, 1e-6)


def test_bernoulli_tables_keep_criterion_3_slope():
    for u in (0.0, 0.5, 1.0):
        for v in (0.0, 0.5, 1.0):
            a, b = bernoulli_ab(u, v)
            assert 0.15 - 1e-12 <= a <= 0.25 + 1e-12
            assert 0.40 <= b <= 0.45 and b - a <= 0.25 + 1e-12


def test_hits_gate_rejects_59_of_100():
    h_or = np.full(100, 1.5)
    h_hat = h_or.copy()
    h_hat[59:] += 0.5
    assert gates.hits(h_hat, h_or) == 59
    assert not gates.hits_ok([59], 100)
    assert gates.hits_ok([60], 100)
    assert not gates.hits_ok([], 100)
    # pooled over a run: one short job is carried by the others
    assert gates.hits_ok([59, 75], 100)
    assert not gates.hits_ok([59, 60], 100)


def test_cli_gate_rejects_one_changed_byte(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(mf.ModelSpec("binomial", {"p": 0.3, "J": 10}).to_json())
    out = tmp_path / "job"

    def job():
        argv = ["synth", "--spec", str(spec), "--out", str(out / "synth"),
                "--deterministic"]
        rc1 = cli.main(argv)
        rc2 = cli.main(["analyze", "--input", str(out / "synth" / "measure.txt"),
                        "--out", str(out / "analyze"), "--deterministic"])
        return [rc1, rc2]

    assert gates.cli_ok(job(), 0.0)
    reference = gates.tree_digest(out)
    assert job() == [0, 0]
    assert gates.tree_digest(out) == reference

    results = out / "analyze" / "results.json"
    data = bytearray(results.read_bytes())
    data[len(data) // 2] ^= 0x01
    results.write_bytes(bytes(data))
    assert gates.tree_digest(out) != reference
    assert not gates.cli_ok([0, 2], 0.0)
    assert not gates.cli_ok([0, 0], 0.09)


def test_order2_gate_rejects_value_above_twice_order1():
    sig, _ = mf.gen_mbm(mf.ModelSpec("mbm", {"H": 0.5, "J": 10}, seed=1))
    o2 = mf.oscillation_family(sig, 2, 7)
    o1 = mf.oscillation_family(sig, 1, 7)
    v2 = [o2.values_at(j).copy() for j in o2.scales]
    v1 = [o1.values_at(j) for j in o1.scales]
    assert gates.osc_order2_ok(v2, v1)
    v2[5][3] = 2.0 * v1[5][3] * 1.001
    assert not gates.osc_order2_ok(v2, v1)


class _Flaky:
    """Job 1 fails its gate, job 2 raises, the others pass."""

    def pipeline(self, i, tr):
        if i == 2:
            raise RuntimeError("job 2 raises")
        return tr.call("synth.synthesize", lambda: i)

    def check(self, out):
        return Checked(out != 1, 0.0, 8, {"builders.cubes": 3})

    def run_ok(self):
        return True


def test_failed_jobs_are_counted_and_kept_in_the_timing_samples():
    records = run.run_jobs(_Flaky(), 0.05, Tracer(False), trace=False)
    assert len(records) >= 3
    assert [r["ok"] for r in records[:3]] == [True, False, False]
    assert records[2]["raised"] and not records[1]["raised"]
    assert all(r["wall"] >= 0.0 for r in records)
    e2e = run.end_to_end(records, [0.1])
    assert e2e["jobs_per_s"][0] > 0.0


def test_traced_run_pairs_each_input_and_records_spans():
    tr = Tracer(False)
    records = run.run_jobs(_Flaky(), 0.0, tr, trace=True)
    assert [(r["input"], r["traced"]) for r in records] == [(0, False), (0, True)]
    spans = tr.job_spans(1)
    assert [s[0] for s in spans] == ["synth.synthesize"]
    assert not tr.job_spans(0)
    assert set(tr.self_times(1)) == {"synth", "bench"}


def test_workloads_and_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    tr = Tracer(False)
    records = run.run_jobs(_Flaky(), 0.0, tr, trace=True)
    for kind, metrics in (("end_to_end", run.end_to_end(records, [0.1])),
                          ("per_layer", run.per_layer(records, tr, 0))):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert {k: u for k, (_, u) in metrics.items()} == units
