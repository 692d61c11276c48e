"""The four benchmark workloads.

A workload derives every job's inputs from the run's seed, runs one full
pipeline pass per job through localmf's public API (``pipeline``, timed),
and gates the outputs against the models' oracles (``check``, untimed).
Where a job's cost depends on a drawn parameter, successive jobs take the
parameter from a seeded low-discrepancy sequence, so every run covers the
parameter range evenly and its median job time does not hinge on one
draw.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import localmf as mf
from localmf import cli
from localmf.estimators import FitPolicy

import gates

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.324717957244746          # R2 sequence constant for 2-D draws


def _uniform(seed: int, stream: int) -> float:
    return float(np.random.default_rng([seed, stream]).random())


def _frac(x: float) -> float:
    return x - math.floor(x)


def bernoulli_ab(u: float, v: float) -> tuple[float, float]:
    """p table [[0, a], [1, b]] from two uniforms: b in [0.40, 0.45] and a
    in [0.15, 0.25] with b - a <= 0.25, the slope of acceptance criterion
    3. At J=20 a steeper table misses its 0.08 tolerance at x = 0.25
    (0.093 at a = 0.15, b = 0.45; see README)."""
    b = 0.40 + 0.05 * v
    return b - 0.25 + (0.50 - b) * u, b


@dataclass
class Checked:
    """Gate verdict, the gated deviation and the job's work counts."""

    ok: bool
    oracle_dev: float
    input_bytes: int
    counts: dict


def family_cubes(*families) -> int:
    """Values built: sum over scales of the cubes each family stores."""
    return sum(f.n_cubes(j) for f in families for j in f.scales)


def estimator_counts(sfs) -> dict:
    """Work and waste counts of a list of ScalingFunction results."""
    sum_terms = finite = slots = excluded = fits = 0
    for sf in sfs:
        n_p = sf.p_grid.size
        fits += n_p
        sum_terms += n_p * sum(sf.window.n_cubes(int(j)) for j in sf.scales)
        finite += int(np.count_nonzero(np.isfinite(sf.log2_S)))
        slots += sf.log2_S.size
        excluded += int(sf.excluded_counts.sum())
    return {"estimators.windows": len(sfs), "estimators.fits": fits,
            "estimators.sum_terms": sum_terms, "estimators.finite_S": finite,
            "estimators.S_slots": slots, "estimators.excluded_cubes": excluded}


class Workload:
    """Set-up happens in ``__init__``; ``run_ok`` holds gates that pool
    the jobs of a run."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def pipeline(self, i: int, tr):
        raise NotImplementedError

    def check(self, out) -> Checked:
        raise NotImplementedError

    def run_ok(self) -> bool:
        return True


class GlobalCascade(Workload):
    """Binomial cascade, J=22: one window over 2^23 cubes, global tau and
    its Legendre spectrum."""

    name = "global_cascade"
    J = 22
    Q_GRID = np.linspace(-10.0, 10.0, 41)
    H_GRID = np.round(np.arange(301) * 0.01, 10)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.u = _uniform(seed, 1)

    def p_of(self, i: int) -> float:
        return 0.2 + 0.25 * _frac(self.u + i * GOLDEN)

    def pipeline(self, i, tr):
        p = self.p_of(i)
        spec = mf.ModelSpec("binomial", {"p": p, "J": self.J})
        measure = tr.call("synth.synthesize", mf.synthesize, spec)["measure"]
        fam = tr.call("builders.plain_measure_family", mf.plain_measure_family,
                      measure, self.J)
        sf = tr.call("estimators.scaling_function", mf.scaling_function,
                     fam, None, self.Q_GRID)
        tr.call("estimators.legendre", mf.legendre, sf, self.H_GRID)
        return p, measure, fam, sf

    def check(self, out):
        p, measure, fam, sf = out
        dev = gates.binomial_tau_dev(sf.tau, p, self.Q_GRID)
        counts = {"builders.cubes": family_cubes(fam), **estimator_counts([sf])}
        return Checked(gates.binomial_ok(dev), dev, measure.masses.nbytes, counts)


class LocalDense(Workload):
    """Localized Bernoulli cascade, J=20: 32 base points x 3 radii of
    overlapping windows, 41 p values each."""

    name = "local_dense"
    J = 20
    X_GRID = np.arange(32) / 32.0
    RADII = np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4])
    Q_GRID = np.linspace(-3.0, 3.0, 41)
    H_GRID = np.round(np.arange(301) * 0.01, 10)
    GATE_X = (8, 16, 24)                 # x = 0.25, 0.5, 0.75

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.u = (_uniform(seed, 1), _uniform(seed, 2))

    def ab_of(self, i: int) -> tuple[float, float]:
        return bernoulli_ab(_frac(self.u[0] + i / PLASTIC),
                            _frac(self.u[1] + i / PLASTIC ** 2))

    def pipeline(self, i, tr):
        a, b = self.ab_of(i)
        spec = mf.ModelSpec("localized_bernoulli",
                            {"p": [[0.0, a], [1.0, b]], "J": self.J})
        measure = tr.call("synth.synthesize", mf.synthesize, spec)["measure"]
        fam = tr.call("builders.plain_measure_family", mf.plain_measure_family,
                      measure, self.J)
        lp = tr.call("estimators.local_profile", mf.local_profile, fam,
                     self.X_GRID, self.RADII, self.Q_GRID,
                     FitPolicy(3, self.J - 1, 8), H_grid=self.H_GRID)
        tr.call("estimators.monohoelder_detect", mf.monohoelder_detect, lp)
        return spec, measure, fam, lp

    def check(self, out):
        spec, measure, fam, lp = out
        orc = mf.oracle(spec)
        dev = gates.local_tau_dev(
            [lp.tau_local[ix] for ix in self.GATE_X],
            [orc.tau(float(self.X_GRID[ix]), self.Q_GRID) for ix in self.GATE_X])
        ok = gates.local_ok(dev, lp.radius_monotone_violation())
        sfs = [sf for per_x in lp.profiles for sf in per_x]
        counts = {"builders.cubes": family_cubes(fam), **estimator_counts(sfs)}
        return Checked(ok, dev, measure.masses.nbytes, counts)


def _mbm_H(x):
    return 0.5 + 0.2 * np.sin(2.0 * np.pi * x)


class SignalPointwise(Workload):
    """Markov jump path -> order-1 oscillations -> 100 pointwise exponents;
    mbm -> dwt -> leaders -> tau; order-2 oscillations of the mbm signal.

    Every job simulates the Markov path of acceptance criterion 6 (seed
    7): the number of jumps, and with it the job's cost and memory, varies
    by a factor of two between realizations (365k to 708k), which would
    make the run's median job time depend on the draws rather than on the
    code. The run's seed draws each job's 100 evaluation times and mbm
    realization."""

    name = "signal_pointwise"
    GAMMA = [[0.0, 0.5], [1.6, 0.9]]      # min(0.5 + y/4, 0.9) for y >= 0
    MARKOV_SEED = 7
    T, N, J_OSC = 3.0, 1 << 16, 15
    FIT = (5, 13)
    N_TIMES = 100
    J_MBM = 18
    P_GRID = np.linspace(-2.0, 2.0, 9)
    J_SUB, J_OSC2 = 12, 9

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.hit_counts: list[int] = []

    def inputs_of(self, i: int):
        rng = np.random.default_rng([self.seed, 3, i])
        return int(rng.integers(1 << 62)), rng.uniform(0.0, self.T, self.N_TIMES)

    def pipeline(self, i, tr):
        mbm_seed, ts = self.inputs_of(i)
        mspec = mf.ModelSpec("markov_jump", {"gamma": self.GAMMA, "T": self.T,
                                             "N": self.N}, seed=self.MARKOV_SEED)
        path = tr.call("synth.gen_markov_jump", mf.gen_markov_jump, mspec)
        osc = tr.call("builders.oscillation_family", mf.oscillation_family,
                      path.grid_M, 1, self.J_OSC)
        h_hat = [tr.call("dyadic.lower_exponent", mf.lower_exponent, osc,
                         float(t / self.T), method="regression",
                         fit_range=self.FIT).value for t in ts]

        spec = mf.ModelSpec("mbm", {"H": _mbm_H, "J": self.J_MBM}, seed=mbm_seed)
        signal, _ = tr.call("synth.gen_mbm", mf.gen_mbm, spec)
        pyr = tr.call("wavelet.dwt", mf.dwt, signal)
        lead = tr.call("wavelet.leaders", mf.leaders, pyr)
        sf = tr.call("estimators.scaling_function", mf.scaling_function,
                     lead, None, self.P_GRID)
        mono = tr.call("estimators.monohoelder_detect", mf.monohoelder_detect, sf)

        sub = signal[:: 1 << (self.J_MBM - self.J_SUB)]
        osc2 = tr.call("builders.oscillation_family", mf.oscillation_family,
                       sub, 2, self.J_OSC2)
        osc1 = tr.call("builders.oscillation_family", mf.oscillation_family,
                       sub, 1, self.J_OSC2)
        return mspec, path, ts, h_hat, osc, signal, pyr, sf, mono, osc2, osc1

    def check(self, out):
        mspec, path, ts, h_hat, osc, signal, pyr, sf, mono, osc2, osc1 = out
        orc = mf.oracle(mspec, realization=path)
        h_or = [orc.pointwise(float(t)) for t in ts]
        self.hit_counts.append(gates.hits(h_hat, h_or))
        ok = (gates.path_ok(path.grid_M)
              and gates.nonlinear_ok(mono.is_linear, mono.residual)
              and gates.osc_order2_ok([osc2.values_at(j) for j in osc2.scales],
                                      [osc1.values_at(j) for j in osc1.scales]))
        dev = float(np.median(np.abs(np.asarray(h_hat) - np.asarray(h_or))))
        counts = {
            "synth.jumps": int(path.times.size),
            "builders.cubes": family_cubes(osc, osc2, osc1),
            "wavelet.coeffs": sum(d.size for d in pyr.details),
            "dyadic.points": self.N_TIMES * (self.FIT[1] - self.FIT[0] + 1),
            **estimator_counts([sf]),
        }
        return Checked(ok, dev, max(signal.nbytes, path.grid_M.nbytes), counts)

    def run_ok(self):
        return gates.hits_ok(self.hit_counts, self.N_TIMES)


class CliFiles(Workload):
    """In-process ``localmf.cli.main --deterministic``: two synths, two
    analyses, a local profile, a report and a local oracle check. Every
    job of a run uses the run's seed, so every job writes the same bytes."""

    name = "cli_files"
    P_GRID = "-3:3:0.15"
    RADII = "0.25,0.125,0.0625"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 5])
        a, b = bernoulli_ab(rng.random(), rng.random())
        h0, h1 = rng.uniform(0.35, 0.65, size=2)
        self.bern = workdir / "bernoulli.json"
        self.bern.write_text(mf.ModelSpec(
            "localized_bernoulli", {"p": [[0.0, a], [1.0, b]], "J": 20}).to_json())
        self.mbm = workdir / "mbm.json"
        self.mbm.write_text(mf.ModelSpec(
            "mbm", {"H": [[0.0, h0], [1.0, h1]], "J": 18}, seed=seed).to_json())
        self.jobdir = workdir / "job"
        self.reference: dict | None = None

    def argvs(self):
        d = self.jobdir
        measure, signal = d / "bern" / "measure.txt", d / "mbm" / "signal.bin"
        p = f"--p-grid={self.P_GRID}"
        det = "--deterministic"
        return [
            (["synth", "--spec", self.bern, "--out", d / "bern", det], [self.bern]),
            (["synth", "--spec", self.mbm, "--out", d / "mbm", det], [self.mbm]),
            (["analyze", "--input", measure, "--family", "plain-measure", p,
              "--windows", "0,0.25;0.25,0.5;0.5,1", "--out", d / "analyze", det],
             [measure]),
            (["local", "--input", measure, "--family", "plain-measure", p,
              "--x-grid", ",".join(str((k + 0.5) / 8) for k in range(8)),
              "--radii", self.RADII, "--fit", "3:19", "--out", d / "local", det],
             [measure]),
            (["report", "--input", d / "local" / "results.json",
              "--out", d / "report", det], [d / "local" / "results.json"]),
            (["analyze", "--input", signal, "--family", "leaders",
              "--p-grid=-2:2:0.5", "--out", d / "leaders", det], [signal]),
            (["check-oracle", "--spec", self.bern, "--mode", "local", p,
              "--x-grid", "0.25,0.5,0.75", "--radii", self.RADII,
              "--fit", "3:19", "--out", d / "check", det], [self.bern]),
        ]

    def pipeline(self, i, tr):
        return [tr.call(f"cli.{argv[0]}", cli.main, [str(a) for a in argv])
                for argv, _ in self.argvs()]

    def check(self, codes):
        bytes_read = sum(p.stat().st_size for _, reads in self.argvs()
                         for p in reads if p.exists())
        summary = self.jobdir / "check" / "summary.json"
        dev = math.inf
        if summary.exists():
            value = json.loads(summary.read_text()).get("max_abs_tau_deviation")
            dev = float(value) if value is not None else math.inf
        digest = gates.tree_digest(self.jobdir)
        if self.reference is None:
            self.reference = digest
        ok = gates.cli_ok(codes, dev) and digest == self.reference
        written = sum(p.stat().st_size for p in self.jobdir.rglob("*") if p.is_file())
        measure = self.jobdir / "bern" / "measure.txt"
        largest = measure.stat().st_size if measure.exists() else 0
        # the next job must write every file anew
        shutil.rmtree(self.jobdir, ignore_errors=True)
        counts = {"cli.bytes_written": written, "cli.bytes_read": bytes_read}
        return Checked(ok, dev, largest, counts)


WORKLOADS = {w.name: w for w in (GlobalCascade, LocalDense, SignalPointwise,
                                 CliFiles)}
