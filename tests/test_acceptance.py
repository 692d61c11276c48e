"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time

import numpy as np
import pytest

from localmf import (
    DigitPotential,
    ModelSpec,
    Window,
    birkhoff_family,
    discrete_legendre,
    frac_integrate,
    gen_cantor_pair,
    gen_markov_jump,
    gen_mbm,
    leaders,
    legendre,
    local_profile,
    lower_exponent,
    monohoelder_detect,
    oracle,
    oscillation_family,
    p_leaders,
    plain_measure_family,
    scaling_function,
    structure_function,
    synthesize,
)
from localmf.estimators import FitPolicy
from localmf.wavelet import WaveletPyramid


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self, label, detail):
        elapsed = time.monotonic() - self.t0
        print(f"PASS {label}: {detail} [{elapsed:.1f}s / {self.seconds:.0f}s]")
        assert elapsed < self.seconds, f"{label} exceeded its runtime budget"


def test_criterion_1_binomial_exactness():
    budget = Budget(5.0)
    p = 0.4
    spec = ModelSpec("binomial", {"p": p, "J": 14})
    F = plain_measure_family(synthesize(spec)["measure"], 14)
    qs = np.arange(-5.0, 5.5, 1.0)
    sf = scaling_function(F, None, qs)
    target = -np.log2(p ** qs + (1 - p) ** qs)
    dev = float(np.abs(sf.tau - target).max())
    assert dev <= 1e-6
    budget.done("criterion 1 (binomial exactness)", f"max |tau dev| = {dev:.2e}")


def test_criterion_2_birkhoff_exactness():
    budget = Budget(5.0)
    a, b = 0.4, 1.1
    F = birkhoff_family(DigitPotential(a, b), 14)
    ps = np.arange(-4.0, 4.25, 0.25)
    sf = scaling_function(F, None, ps)
    target = -np.log2(np.exp(-ps * a) + np.exp(-ps * b))
    dev = float(np.abs(sf.tau - target).max())
    assert dev <= 1e-6
    budget.done("criterion 2 (Birkhoff exactness)", f"max |tau dev| = {dev:.2e}")


def test_criterion_3_localized_bernoulli_locality():
    budget = Budget(30.0)
    spec = ModelSpec("localized_bernoulli",
                     {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 18})
    F = plain_measure_family(synthesize(spec)["measure"], 18)
    qs = np.arange(-3.0, 3.5, 0.5)
    radii = np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4])
    xs = np.array([0.25, 0.5, 0.75])
    lp = local_profile(F, xs, radii, qs, FitPolicy(j1=3, j2=17, min_cubes=8))
    worst = 0.0
    for ix, x in enumerate(xs):
        p_x = 0.2 + 0.25 * x
        dev = float(np.abs(lp.tau_local[ix]
                           + np.log2(p_x ** qs + (1 - p_x) ** qs)).max())
        worst = max(worst, dev)
    assert worst <= 0.08
    # per-radius sequence of the liminf surrogate is monotone as r shrinks
    viol = lp.radius_monotone_violation()
    assert viol <= 1e-9
    budget.done("criterion 3 (localized Bernoulli locality)",
                f"max |tau dev| = {worst:.3f}, radius monotonicity "
                f"violation = {viol:.1e}")


def test_criterion_4_mbm_local_formalism():
    budget = Budget(120.0)
    H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
    x_grid = (np.arange(16) + 0.5) / 16
    ps = np.arange(-2.0, 2.25, 0.5)
    radii = np.array([2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
    medians = []
    nonlinear = []
    for seed in range(8):
        spec = ModelSpec("mbm", {"H": H_fn, "J": 16}, seed=seed)
        _, P = gen_mbm(spec)
        L = leaders(P)
        lp = local_profile(L, x_grid, radii, ps, FitPolicy(3, 15, 8))
        res = monohoelder_detect(lp)
        medians.append(float(np.median(np.abs(res.alpha - H_fn(x_grid)))))
        glob = monohoelder_detect(scaling_function(L, None, ps))
        nonlinear.append(not glob.is_linear and glob.residual > 0.02)
    avg_median = float(np.mean(medians))
    assert avg_median <= 0.1
    assert all(nonlinear), "global scaling function must be non-linear"
    budget.done("criterion 4 (MBM local formalism)",
                f"avg median |alpha - H| = {avg_median:.3f} over 8 seeds, "
                f"global non-linear on all seeds")


def test_criterion_5_cantor_pair_non_homogeneity():
    budget = Budget(30.0)
    F = plain_measure_family(gen_cantor_pair(18), 18)
    qs = np.arange(-4.0, 4.25, 0.5)
    Hs = np.arange(5, 121) / 100.0
    lp = local_profile(F, np.array([0.25, 0.75]), np.array([0.25]), qs,
                       FitPolicy(j1=5, j2=16, min_cubes=4), H_grid=Hs)
    (H_l, L_l) = lp.legendre_local[0].max_point()
    (H_r, L_r) = lp.legendre_local[1].max_point()
    assert abs(H_l - 0.5) <= 0.08 and abs(L_l - 0.5) <= 0.08
    assert abs(H_r - 0.25) <= 0.08 and abs(L_r - 0.25) <= 0.08
    sf_g = scaling_function(F, None, qs, fit_range=(5, 16))
    Lg = legendre(sf_g, Hs)
    mid = (Hs > 0.25) & (Hs < 0.5)
    locals_max = np.maximum(lp.legendre_local[0].L[mid],
                            lp.legendre_local[1].L[mid])
    exceeds = np.isfinite(Lg.L[mid]) & (Lg.L[mid] > locals_max)
    assert np.any(exceeds), "global Legendre must exceed the local max"
    budget.done("criterion 5 (Cantor pair non-homogeneity)",
                f"left max ({H_l:.2f}, {L_l:.2f}), right max ({H_r:.2f}, "
                f"{L_r:.2f}), global exceeds locals at "
                f"{int(exceeds.sum())}/{int(mid.sum())} mid-band H values")


def test_criterion_6_markov_ae_exponent():
    budget = Budget(60.0)
    gamma = lambda y: np.minimum(0.5 + y / 4.0, 0.9)
    spec = ModelSpec("markov_jump", {"gamma": gamma, "T": 3.0, "N": 1 << 16},
                     seed=7)
    path = gen_markov_jump(spec)
    assert path.grid_M[0] == 0.0
    assert np.all(np.diff(path.grid_M) >= 0), "path must be nondecreasing"
    assert path.drift_bound > 0  # truncation drift bound is reported
    F = oscillation_family(path.grid_M, 1, 15)
    orc = oracle(spec, realization=path)
    rng = np.random.default_rng(123)
    ts = rng.uniform(0.0, path.T, 100)
    hits = 0
    for t in ts:
        est = lower_exponent(F, float(t / path.T), method="regression",
                             fit_range=(5, 13))
        hits += abs(est.value - orc.pointwise(float(t))) <= 0.2
    assert hits >= 60
    budget.done("criterion 6 (Markov a.e. exponent)",
                f"{hits}/100 times within 0.2, drift bound "
                f"{path.drift_bound:.3g}")


def test_criterion_7_structural_properties():
    budget = Budget(30.0)
    notes = []

    # (a) structure-function additivity over dyadic partitions
    F = plain_measure_family(
        synthesize(ModelSpec("binomial", {"p": 0.4, "J": 14}))["measure"], 14)
    for q in (-2.0, 0.5, 2.0):
        S_full = structure_function(F, Window(0.0, 1.0), q)
        parts = [structure_function(F, Window(i / 4, (i + 1) / 4), q)
                 for i in range(4)]
        total = np.sum(parts, axis=0)
        np.testing.assert_allclose(total[2:], S_full[2:], rtol=1e-12)
    notes.append("additivity 1e-12")

    # (b) Legendre concavity and max L = -tau(0)
    qs = np.arange(-5.0, 5.5, 0.5)
    sf = scaling_function(F, None, qs)
    spec_l = legendre(sf, np.arange(30, 200) / 100.0)
    assert spec_l.max_convexity() <= 1e-9
    _, L_max = spec_l.max_point()
    assert abs(L_max - (-sf.tau[qs == 0.0][0])) <= 0.01
    notes.append("Legendre concave, max L = -tau(0)")

    # (c) double-Legendre idempotence on a concave grid
    p_grid = np.arange(-5.0, 5.25, 0.25)
    tau = -np.log2(0.3 ** p_grid + 0.7 ** p_grid)
    Hs = np.arange(0.2, 2.4, 0.002)
    Lv = discrete_legendre(p_grid, tau, Hs, floor=-math.inf)
    fin = np.isfinite(Lv)
    tau2 = discrete_legendre(Hs[fin], Lv[fin], p_grid, floor=-math.inf)
    np.testing.assert_allclose(tau2[1:-1], tau[1:-1], atol=1e-9)
    notes.append("double-Legendre idempotent")

    # (d) window monotonicity of the liminf surrogate
    FC = plain_measure_family(gen_cantor_pair(14), 14)
    for w1, w2 in ((Window(0.0, 0.25), Window(0.0, 0.5)),
                   (Window(0.0, 0.5), Window(0.0, 1.0)),
                   (Window(0.5, 0.75), Window(0.25, 1.0))):
        sf1 = scaling_function(FC, w1, qs, fit_range=(3, 13))
        sf2 = scaling_function(FC, w2, qs, fit_range=(3, 13))
        assert np.all(sf2.tau_tailmin <= sf1.tau_tailmin + 1e-12)
    notes.append("window monotonicity")

    # (e) leaders equal the brute-force subtree sup (J = 8, exhaustive)
    rng = np.random.default_rng(1)
    details = [rng.standard_normal(1 << j) for j in range(8)]
    P = WaveletPyramid(1 << 8, "db3", tuple(details), np.zeros(1))
    L = leaders(P, include_boundary=True)
    for j in L.scales:
        for k in range(1 << j):
            best = 0.0
            for jp in range(j, 8):
                for base in (k - 1, k, k + 1):
                    kk = (base % (1 << j)) << (jp - j)
                    best = max(best, np.abs(
                        details[jp][kk:kk + (1 << (jp - j))]).max())
            assert L.values_at(j)[k] == pytest.approx(best, rel=1e-13)
    notes.append("leaders = brute force")

    # (f) p-leaders at p = 64 agree with leaders within 5% per cube
    P64 = WaveletPyramid(1 << 8, "db3", tuple(details), np.zeros(1),
                         j_analysis_min=4)
    Linf = leaders(P64, include_boundary=True)
    E = p_leaders(P64, 64.0, include_boundary=True)
    for j in Linf.scales:
        ratio = E.values_at(j) / Linf.values_at(j)
        assert np.all(np.abs(ratio - 1.0) < 0.05)
    notes.append("p->inf within 5%")

    # (g) fractional integration shifts power-law exponents by exactly s
    details_p = [np.full(1 << j, 2.0 ** (-0.25 * j)) for j in range(12)]
    Pp = WaveletPyramid(1 << 12, "db3", tuple(details_p), np.zeros(1))
    for s in (0.25, 0.5, 1.0):
        base = lower_exponent(leaders(Pp, include_boundary=True), 0.3)
        shifted = lower_exponent(
            leaders(frac_integrate(Pp, s), include_boundary=True), 0.3)
        assert shifted.value - base.value == pytest.approx(s, abs=1e-12)
    notes.append("frac-integration shift exact")

    budget.done("criterion 7 (structural properties)", "; ".join(notes))


def _raw_legendre(p_grid, tau, Hs):
    """Unflagged discrete transform: the minimum over a finite p grid is
    always an upper bound of the true Legendre spectrum, so this is the
    faithful left-hand side for the d <= L inequality (the -inf flagging of
    the reporting path marks unbounded directions, which is a display
    convention, not part of the bound)."""
    return discrete_legendre(p_grid, tau, Hs, floor=-math.inf,
                             endpoint_slope_tol=math.inf)


def _upper_bound_gap(theory, estimate):
    """Largest amount by which the theory spectrum exceeds the estimate."""
    worst = -math.inf
    for d_t, L_e in zip(theory, estimate):
        if math.isinf(d_t) and d_t < 0:
            continue
        worst = max(worst, d_t - (L_e if math.isfinite(L_e) else -math.inf))
    return worst


def test_criterion_8_upper_bound_inequality():
    budget = Budget(120.0)
    qs = np.arange(-5.0, 5.5, 0.5)
    Hs = np.arange(5, 250) / 100.0
    gaps = {}

    # model 1: binomial
    spec1 = ModelSpec("binomial", {"p": 0.4, "J": 14})
    F1 = plain_measure_family(synthesize(spec1)["measure"], 14)
    sf1 = scaling_function(F1, None, qs)
    th1 = oracle(spec1).spectrum_global(Hs)
    gaps["binomial"] = _upper_bound_gap(th1, _raw_legendre(qs, sf1.tau, Hs))
    assert gaps["binomial"] <= 1e-5

    # model 2: Birkhoff digit potential
    spec2 = ModelSpec("birkhoff", {"a": 0.4, "b": 1.1})
    F2 = birkhoff_family(DigitPotential(0.4, 1.1), 14)
    ps2 = np.arange(-4.0, 4.25, 0.25)
    sf2 = scaling_function(F2, None, ps2)
    th2 = oracle(spec2).spectrum_global(Hs)
    gaps["birkhoff"] = _upper_bound_gap(th2, _raw_legendre(ps2, sf2.tau, Hs))
    assert gaps["birkhoff"] <= 1e-5

    # model 3: localized Bernoulli, local spectra
    spec3 = ModelSpec("localized_bernoulli",
                      {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 18})
    F3 = plain_measure_family(synthesize(spec3)["measure"], 18)
    orc3 = oracle(spec3)
    qs3 = np.arange(-3.0, 3.5, 0.5)
    lp3 = local_profile(F3, np.array([0.25, 0.5, 0.75]),
                        np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4]),
                        qs3, FitPolicy(3, 17, 8))
    worst3 = -math.inf
    for ix, x in enumerate((0.25, 0.5, 0.75)):
        th = orc3.spectrum(float(x), Hs)
        est = _raw_legendre(qs3, lp3.tau_local[ix], Hs)
        worst3 = max(worst3, _upper_bound_gap(th, est))
    gaps["localized_bernoulli"] = worst3
    assert worst3 <= 0.08

    # model 5: Cantor pair, local and global
    F5 = plain_measure_family(gen_cantor_pair(18), 18)
    orc5 = oracle(ModelSpec("cantor_pair", {"J": 18}))
    qs5 = np.arange(-4.0, 4.25, 0.5)
    lp5 = local_profile(F5, np.array([0.25, 0.75]), np.array([0.25]), qs5,
                        FitPolicy(5, 16, 4))
    worst5 = -math.inf
    for ix, x in enumerate((0.25, 0.75)):
        th = orc5.spectrum(float(x), Hs)
        est = _raw_legendre(qs5, lp5.tau_local[ix], Hs)
        worst5 = max(worst5, _upper_bound_gap(th, est))
    sf5 = scaling_function(F5, None, qs5, fit_range=(5, 16))
    worst5 = max(worst5, _upper_bound_gap(orc5.spectrum_global(Hs),
                                          _raw_legendre(qs5, sf5.tau, Hs)))
    gaps["cantor_pair"] = worst5
    assert worst5 <= 0.08

    budget.done("criterion 8 (upper-bound inequality)",
                ", ".join(f"{k}: gap {v:.3g}" for k, v in gaps.items()))
