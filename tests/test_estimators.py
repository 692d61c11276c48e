import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localmf import (
    AnalysisError,
    CoverageError,
    DyadicFamily,
    EmptyWindowError,
    ModelSpec,
    RadiusError,
    RangeError,
    ScaleError,
    Window,
    besov_membership,
    discrete_legendre,
    gen_cantor_pair,
    gen_mbm,
    global_from_local_check,
    leaders,
    legendre,
    local_profile,
    monohoelder_detect,
    plain_measure_family,
    scaling_function,
    structure_function,
    synthesize,
    uniform_exponent,
)
from localmf.estimators import (
    _BLOCK,
    FitPolicy,
    ScalingFunction,
    _p_walks,
    _scaling_functions,
    _walk_log2_sums,
    _window_sums,
)


def power_family(alpha, j_max=12):
    values = [np.full(1 << j, 2.0 ** (-alpha * j)) for j in range(j_max + 1)]
    return DyadicFamily(0, j_max, values)


def binomial_family(p=0.3, J=14):
    m = synthesize(ModelSpec("binomial", {"p": p, "J": J}))["measure"]
    return plain_measure_family(m, J)


BINOM = binomial_family()


def binom_tau(p_mass, q):
    q = np.asarray(q, dtype=float)
    return -np.log2(p_mass ** q + (1 - p_mass) ** q)


class TestStructureFunction:
    def test_power_law(self):
        F = power_family(1.0, 10)
        for p in (0.5, 1.0, 2.0):
            S = structure_function(F, None, p)
            for i, j in enumerate(F.scales):
                assert S[i] == pytest.approx(2.0 ** (j * (1 - p)), rel=1e-12)

    def test_zero_moment_counts_support(self):
        F = power_family(1.0, 8)
        S = structure_function(F, None, 0.0)
        np.testing.assert_array_equal(S, [1 << j for j in range(9)])

    def test_binomial_second_moment(self):
        S = structure_function(BINOM, None, 2.0)
        for i, j in enumerate(BINOM.scales):
            assert S[i] == pytest.approx(0.58 ** j, rel=1e-10)

    def test_additivity_over_dyadic_partition(self):
        S_full = structure_function(BINOM, Window(0.0, 1.0), 2.0)
        S_left = structure_function(BINOM, Window(0.0, 0.5), 2.0)
        S_right = structure_function(BINOM, Window(0.5, 1.0), 2.0)
        # parts are aligned from scale 1 on
        np.testing.assert_allclose(S_left[1:] + S_right[1:], S_full[1:],
                                   rtol=1e-12)

    def test_negative_p_excludes_zeros(self):
        values = [np.ones(1), np.array([1.0, 0.0]),
                  np.array([1.0, 0.0, 2.0, 4.0])]
        F = DyadicFamily(0, 2, values)
        S, excl = structure_function(F, None, -1.0, return_excluded=True)
        np.testing.assert_array_equal(excl, [0, 1, 1])
        assert S[2] == pytest.approx(1.0 + 0.5 + 0.25)

    def test_sum_beyond_double_range_raises(self):
        F = DyadicFamily(0, 3, [np.full(1 << j, 1e300) for j in range(4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="scale 0"):
                structure_function(F, None, 2.0)
            # 2^1023 at every scale: the largest power of two a double holds
            G = DyadicFamily(0, 3, [np.full(1 << j, 2.0 ** ((1023 - j) / 2))
                                    for j in range(4)])
            np.testing.assert_array_equal(structure_function(G, None, 2.0),
                                          np.full(4, 2.0 ** 1023))


class TestScalingFunction:
    def test_exact_power_law(self):
        F = power_family(0.8, 12)
        ps = np.arange(-3.0, 3.5, 0.5)
        sf = scaling_function(F, None, ps)
        np.testing.assert_allclose(sf.tau, 0.8 * ps - 1.0, atol=1e-12)
        np.testing.assert_allclose(sf.eta, sf.tau - 1.0, atol=0.0)

    def test_binomial_machine_precision(self):
        qs = np.arange(-5.0, 5.5, 1.0)
        sf = scaling_function(BINOM, None, qs)
        np.testing.assert_allclose(sf.tau, binom_tau(0.3, qs), atol=1e-9)
        np.testing.assert_allclose(sf.tau_tailmin, binom_tau(0.3, qs), atol=1e-9)
        assert sf.max_convexity() <= 1e-9

    def test_tau_zero_is_minus_one_on_full_support(self):
        sf = scaling_function(BINOM, None, np.array([0.0]))
        assert sf.tau[0] == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_all_zero_marks_inf(self):
        values = [np.zeros(1 << j) for j in range(9)]
        F = DyadicFamily(0, 8, values)
        sf = scaling_function(F, None, np.array([1.0, 2.0]))
        assert np.all(np.isinf(sf.tau))

    def test_window_monotonicity_tailmin(self):
        # tau(w2) <= tau(w1) for w1 inside w2, exactly for the chord estimate
        m = gen_cantor_pair(12)
        F = plain_measure_family(m, 12)
        qs = np.arange(-2.0, 3.5, 0.5)
        big = scaling_function(F, Window(0.0, 1.0), qs, fit_range=(3, 11))
        small = scaling_function(F, Window(0.0, 0.5), qs, fit_range=(3, 11))
        assert np.all(big.tau_tailmin <= small.tau_tailmin + 1e-12)
        nested = scaling_function(F, Window(0.0, 0.25), qs, fit_range=(3, 11))
        assert np.all(small.tau_tailmin <= nested.tau_tailmin + 1e-12)

    def test_large_negative_moment_keeps_every_scale(self):
        # 0.1^13 ** -30 overflows a float: the sums must stay finite
        F = binomial_family(0.1, 14)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sf = scaling_function(F, None, np.array([-30.0]))
        assert np.all(np.isfinite(sf.log2_S))
        assert sf.tau[0] == pytest.approx(binom_tau(0.1, -30.0), abs=1e-9)

    def test_huge_p_keeps_a_finite_residual(self):
        # log2 S_j(1e300) is about 5e299 j: squared residuals would overflow
        sf = scaling_function(BINOM, None, np.array([1e300, 1.0]))
        assert sf.tau[0] == pytest.approx(-1e300 * math.log2(0.7), rel=1e-12)
        assert np.all(np.isfinite(sf.residuals)) and sf.residuals[0] > 0

    def test_scale_zero_leaves_the_fit(self):
        # the chord log2 S_0 / -0 is undefined: (0, 10) must fit (1, 10)
        F = binomial_family(0.3, 12)
        qs = np.array([-1.0, 0.0, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sf = scaling_function(F, None, qs, fit_range=(0, 10))
        ref = scaling_function(F, None, qs, fit_range=(1, 10))
        assert sf.fit_range == ref.fit_range == (1, 10)
        np.testing.assert_array_equal(sf.tau, ref.tau)
        np.testing.assert_array_equal(sf.tau_tailmin, ref.tau_tailmin)
        np.testing.assert_array_equal(sf.residuals, ref.residuals)

    def test_homogeneous_window_independence(self):
        qs = np.arange(-2.0, 2.5, 0.5)
        sf_full = scaling_function(BINOM, None, qs)
        sf_half = scaling_function(BINOM, Window(0.25, 0.75), qs)
        assert np.abs(sf_full.tau - sf_half.tau).max() < 0.02


class TestUniformExponent:
    def test_power_law(self):
        F = power_family(0.6, 12)
        assert uniform_exponent(F).value == pytest.approx(0.6, abs=1e-12)

    def test_binomial(self):
        est = uniform_exponent(BINOM)
        assert est.value == pytest.approx(-math.log2(0.7), abs=1e-9)

    def test_mbm_window_minimum(self):
        H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
        w = Window(0.5, 0.875)
        estimates = []
        for seed in range(6):
            _, P = gen_mbm(ModelSpec("mbm", {"H": H_fn, "J": 16}, seed=seed))
            L = leaders(P)
            estimates.append(
                uniform_exponent(L, w, method="regression",
                                 fit_range=(8, 15)).value)
        assert abs(np.mean(estimates) - 0.3) <= 0.1


    def test_localized_bernoulli_h_min_on_balls(self):
        # h_min(x) = -log2(1 - p(x)) with p(x) = 0.2 + 0.25 x; the regression
        # slope meets it within 1.3e-4 at every ball below (1e-3 allowed)
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 20})
        F = plain_measure_family(synthesize(spec)["measure"], 20)
        for x in (0.25, 0.5, 0.75):
            h_min = -math.log2(1.0 - (0.2 + 0.25 * x))
            for r in (2.0 ** -4, 2.0 ** -6, 2.0 ** -8):
                est = uniform_exponent(F, Window.ball(x, r),
                                       method="regression", fit_range=(8, 20))
                assert abs(est.value - h_min) <= 1e-3

    @pytest.mark.parametrize("method", ["tail-min", "regression"])
    def test_scale_zero_leaves_the_fit(self, method):
        F = binomial_family(0.3, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = uniform_exponent(F, method=method, fit_range=(0, 10))
        assert est == uniform_exponent(F, method=method, fit_range=(1, 10))
        assert est.value == pytest.approx(-math.log2(0.7), abs=1e-9)


class TestLegendre:
    def test_discrete_example(self):
        L = discrete_legendre(np.array([0.0, 1.0, 2.0]),
                              np.array([-1.0, 0.0, 0.8]),
                              np.array([0.9]))
        assert L[0] == pytest.approx(0.9, abs=1e-12)

    def test_linear_tau_single_point_spectrum(self):
        ps = np.arange(-3.0, 3.5, 0.5)
        F = power_family(0.8, 12)
        sf = scaling_function(F, None, ps)
        Hs = np.arange(0.0, 2.0, 0.01)
        spec = legendre(sf, Hs)
        H_max, L_max = spec.max_point()
        assert abs(H_max - 0.8) <= 0.01
        assert L_max == pytest.approx(1.0, abs=0.05)
        far = np.abs(spec.H_grid - 0.8) > 0.05
        assert np.all(np.isneginf(spec.L[far]))

    def test_binomial_max_and_concavity(self):
        qs = np.arange(-5.0, 5.5, 0.5)
        sf = scaling_function(BINOM, None, qs)
        Hs = np.arange(0.3, 2.0, 0.005)
        spec = legendre(sf, Hs)
        H_star = -(math.log2(0.3) + math.log2(0.7)) / 2
        i = np.argmin(np.abs(Hs - H_star))
        assert spec.L[i] == pytest.approx(1.0, abs=0.01)
        H_max, L_max = spec.max_point()
        assert L_max == pytest.approx(-sf.tau[qs == 0.0][0], abs=0.01)
        assert spec.max_convexity() <= 1e-9

    def test_repeated_p_is_domain_error(self):
        from localmf import DomainError
        sf = scaling_function(BINOM, None, [1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            legendre(sf, np.arange(0.5, 1.5, 0.1))

    def test_double_transform_idempotent(self):
        p = np.arange(-5.0, 5.25, 0.25)
        tau = binom_tau(0.3, p)
        Hs = np.arange(0.2, 2.4, 0.002)
        L = discrete_legendre(p, tau, Hs, floor=-math.inf)
        fin = np.isfinite(L)
        tau2 = discrete_legendre(Hs[fin], L[fin], p, floor=-math.inf)
        interior = slice(1, -1)
        assert np.all(np.isfinite(tau2[interior]))
        np.testing.assert_allclose(tau2[interior], tau[interior], atol=1e-9)


class TestLocalProfile:
    def test_homogeneous_binomial(self):
        qs = np.arange(-2.0, 2.5, 0.5)
        F = binomial_family(0.3, 16)
        lp = local_profile(F, [0.2, 0.5, 0.8], np.array([2.0 ** -3]), qs,
                           FitPolicy(3, 15, 8))
        sf = scaling_function(F, None, qs)
        assert np.abs(lp.tau_local - sf.tau[None, :]).max() <= 0.02

    def test_localized_bernoulli_locality(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 16})
        F = plain_measure_family(synthesize(spec)["measure"], 16)
        qs = np.arange(-3.0, 3.5, 0.5)
        radii = np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4])
        lp = local_profile(F, [0.25, 0.5, 0.75], radii, qs,
                           FitPolicy(3, 15, 8))
        for ix, x in enumerate((0.25, 0.5, 0.75)):
            p_x = 0.2 + 0.25 * x
            assert np.abs(lp.tau_local[ix] - binom_tau(p_x, qs)).max() <= 0.08

    def test_radius_monotone_tailmin(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 16})
        F = plain_measure_family(synthesize(spec)["measure"], 16)
        qs = np.arange(-3.0, 3.5, 0.5)
        radii = np.array([2.0 ** -2, 2.0 ** -3, 2.0 ** -4])
        lp = local_profile(F, [0.25, 0.5, 0.75], radii, qs,
                           FitPolicy(3, 15, 8))
        assert lp.radius_monotone_violation() <= 1e-9

    def test_radius_monotone_violation_equals_the_per_point_loop(self):
        # balls at x = 0.25 and 0.75 of radius <= 1/8 lie in gaps of the
        # support and give +inf at every p, beside finite estimates
        F = plain_measure_family(gen_cantor_pair(12), 12)
        xs = [0.02, 0.0625, 0.25, 0.4, 0.51, 0.75, 0.99]
        lp = local_profile(F, xs, np.array([0.25, 0.125, 0.0625]),
                           np.arange(-3.0, 3.5, 0.5), FitPolicy(3, 11, 8))
        taus = np.array([[sf.tau_tailmin for sf in per_x]
                         for per_x in lp.profiles])
        assert np.isposinf(taus).all(axis=2).sum() == 4
        assert np.isfinite(taus).any()
        # the radii reversed turn every finite pair into a violation
        rev = dataclasses.replace(lp, radii=lp.radii[::-1],
                                  tau_tailmin=lp.tau_tailmin[:, ::-1])
        for prof, per_point in ((lp, taus), (rev, taus[:, ::-1])):
            worst = 0.0
            for t in per_point:
                fin = np.isfinite(t[:-1]) & np.isfinite(t[1:])
                if np.any(fin):
                    worst = max(worst, float((t[:-1] - t[1:])[fin].max()))
            assert prof.radius_monotone_violation() == worst
        assert rev.radius_monotone_violation() > 0.0

    def test_radius_monotone_violation_of_no_base_point(self):
        F = binomial_family(0.3, 10)
        lp = local_profile(F, [], np.array([0.25, 0.125]), np.array([1.0, 2.0]))
        assert lp.tau_local.shape == (0, 2)
        assert lp.radius_monotone_violation() == 0.0

    def test_radius_too_small(self):
        F = binomial_family(0.3, 10)
        with pytest.raises(RadiusError):
            local_profile(F, [0.5], np.array([2.0 ** -8]), np.array([1.0, 2.0]))

    def test_mbm_local_tau(self):
        H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
        _, P = gen_mbm(ModelSpec("mbm", {"H": H_fn, "J": 16}, seed=1))
        L = leaders(P)
        ps = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        lp = local_profile(L, [0.125, 0.625], np.array([2.0 ** -4, 2.0 ** -5]),
                           ps, FitPolicy(3, 15, 8))
        for ix, x in enumerate((0.125, 0.625)):
            target = H_fn(np.array(x)) * ps - 1.0
            assert np.abs(lp.tau_local[ix] - target).max() <= 0.25


class TestStackedProfile:
    """A local profile holds its fits as stacked arrays and builds one
    ScalingFunction per ball only when ``profiles`` is read."""

    @pytest.fixture
    def counted(self, monkeypatch):
        made = []
        init = ScalingFunction.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(ScalingFunction, "__init__", counting_init)
        return made

    def test_profiles_are_built_on_first_access(self, counted):
        # balls in gaps of the Cantor support (+inf) and clipped at both
        # ends (their own fit ranges), and zero cubes left out at p <= 0
        F = plain_measure_family(gen_cantor_pair(12), 12)
        xs = [0.0, 0.02, 0.25, 0.4, 0.51, 0.75, 0.99]
        radii = np.array([0.25, 0.125, 0.0625])
        qs = np.arange(-3.0, 3.5, 0.5)
        lp = local_profile(F, xs, radii, qs, FitPolicy(3, 11, 8))
        assert not counted
        assert lp.tau.shape == lp.tau_tailmin.shape == (7, 3, qs.size)
        np.testing.assert_array_equal(lp.tau_local, lp.tau[:, -1])
        profiles = lp.profiles
        assert len(counted) == 7 * 3 and lp.profiles is profiles
        fits = lp._fits
        assert len({tuple(r) for r in fits.fit_ranges.tolist()}) > 1
        assert fits.n_excluded.any()
        for ix, per_x in enumerate(profiles):
            assert len(per_x) == radii.size
            for ir, sf in enumerate(per_x):
                i = ix * radii.size + ir
                u = fits.use[i]
                np.testing.assert_array_equal(sf.tau, lp.tau[ix, ir])
                np.testing.assert_array_equal(sf.tau_tailmin,
                                              lp.tau_tailmin[ix, ir])
                # the fit range starts where the smallest ball first holds
                # min_cubes cubes, as a loop over scales finds it
                j1, ball = 3, Window.ball(xs[ix], radii[-1])
                while j1 < 11 and ball.n_cubes(j1) < 8:
                    j1 += 1
                assert sf.fit_range == tuple(fits.fit_ranges[i].tolist())
                assert sf.fit_range == (j1, 11)
                assert sf.window == Window.ball(xs[ix], radii[ir])
                np.testing.assert_array_equal(sf.scales, fits.scales[u])
                np.testing.assert_array_equal(sf.log2_S, fits.log2_S[i][:, u])
                np.testing.assert_array_equal(
                    sf.excluded_counts,
                    np.where((qs <= 0)[:, None], fits.n_excluded[i, u], 0))

    def test_cli_local_run_builds_no_scaling_function(self, counted, tmp_path):
        from localmf.cli import main
        spec = tmp_path / "spec.json"
        spec.write_text(ModelSpec("localized_bernoulli", {
            "p": [[0.0, 0.2], [1.0, 0.45]], "J": 12}).to_json())
        assert main(["local", "--spec", str(spec), "--x-grid", "auto:4",
                     "--radii", "0.125,0.0625", "--windows", "0,0.5;0.25,1",
                     "--deterministic", "--out", str(tmp_path / "out")]) == 0
        assert not counted

    def test_profile_keeps_only_its_stacked_arrays(self):
        # the arrays of the fits are all it keeps: no per-ball copies
        import tracemalloc
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 14})
        F = plain_measure_family(synthesize(spec)["measure"], 14)
        xs = (np.arange(256) + 0.5) / 256
        radii = np.array([2.0 ** -5, 2.0 ** -6, 2.0 ** -7])
        qs = np.linspace(-3.0, 3.0, 25)
        local_profile(F, xs[:4], radii, qs)               # warm numpy up
        tracemalloc.start()
        try:
            lp = local_profile(F, xs, radii, qs)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stacked = sum(a.nbytes for a in vars(lp._fits).values())
        assert kept <= 1.1 * stacked


class TestGlobalFromLocal:
    def test_homogeneous_discrepancy_small(self):
        qs = np.arange(-2.0, 2.5, 0.5)
        F = binomial_family(0.3, 16)
        xg = np.arange(0.125, 1.0, 0.125)
        lp = local_profile(F, xg, np.array([2.0 ** -3]), qs, FitPolicy(3, 15, 8))
        rep = global_from_local_check(lp, F, Window(0.0, 1.0))
        assert rep.max_discrepancy <= 0.05

    def test_cantor_global_is_min_of_halves(self):
        m = gen_cantor_pair(16)
        F = plain_measure_family(m, 16)
        qs = np.arange(-2.0, 3.5, 0.5)
        left = scaling_function(F, Window(0.0, 0.5), qs, fit_range=(5, 15))
        right = scaling_function(F, Window(0.5, 1.0), qs, fit_range=(5, 15))
        full = scaling_function(F, Window(0.0, 1.0), qs, fit_range=(5, 15))
        np.testing.assert_allclose(
            full.tau, np.minimum(left.tau, right.tau), atol=0.1)
        # chord estimates: the sum is dominated by the larger half
        assert np.all(full.tau_tailmin <= np.minimum(left.tau_tailmin,
                                                     right.tau_tailmin) + 1e-12)

    def test_argmin_at_window_edge(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 14})
        F = plain_measure_family(synthesize(spec)["measure"], 14)
        xg = np.arange(0.1, 0.95, 0.1)
        lp = local_profile(F, xg, np.array([2.0 ** -4]),
                           np.array([2.0, 3.0]), FitPolicy(3, 13, 8))
        # tau increases with p(x), so the infimum sits at the left edge
        assert np.argmin(lp.tau_local[:, 0]) == 0
        assert np.argmin(lp.tau_local[:, 1]) == 0

    def test_coverage_error(self):
        qs = np.array([1.0, 2.0])
        F = binomial_family(0.3, 12)
        lp = local_profile(F, [0.1], np.array([2.0 ** -4]), qs,
                           FitPolicy(3, 11, 8))
        with pytest.raises(CoverageError):
            global_from_local_check(lp, F, Window(0.0, 1.0))


class TestMonoHoelder:
    def test_linear_detected(self):
        F = power_family(0.8, 12)
        sf = scaling_function(F, None, np.arange(-2.0, 2.5, 0.5))
        res = monohoelder_detect(sf)
        assert res.is_linear
        assert res.alpha == pytest.approx(0.8, abs=1e-9)

    def test_binomial_not_linear(self):
        sf = scaling_function(BINOM, None, np.arange(-3.0, 3.5, 0.5))
        res = monohoelder_detect(sf)
        assert not res.is_linear
        assert res.residual > 0.02

    def test_fbm_leaders_linear(self):
        hits = []
        alphas = []
        for seed in range(4):
            _, P = gen_mbm(ModelSpec("fbm", {"H": 0.7, "J": 14}, seed=seed))
            sf = scaling_function(leaders(P), None, np.arange(-2.0, 2.25, 0.5))
            res = monohoelder_detect(sf)
            hits.append(res.is_linear)
            alphas.append(res.alpha)
        assert all(hits)
        assert abs(np.median(alphas) - 0.7) <= 0.05

    def test_mbm_global_nonlinear_local_linear(self):
        H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
        _, P = gen_mbm(ModelSpec("mbm", {"H": H_fn, "J": 16}, seed=0))
        L = leaders(P)
        ps = np.arange(-2.0, 2.25, 0.5)
        assert not monohoelder_detect(scaling_function(L, None, ps)).is_linear
        xg = (np.arange(8) + 0.5) / 8
        lp = local_profile(L, xg, np.array([2.0 ** -4, 2.0 ** -5]), ps,
                           FitPolicy(3, 15, 8))
        res = monohoelder_detect(lp)
        assert np.median(np.abs(res.alpha - H_fn(xg))) <= 0.1


class TestBesov:
    def test_power_law_sup_form(self):
        F = power_family(0.6, 12)
        assert besov_membership(F, 0.5, math.inf).member
        assert besov_membership(F, 0.6, math.inf).member
        res = besov_membership(F, 0.8, math.inf)
        assert not res.member
        assert res.growth_rate == pytest.approx(0.2, abs=1e-9)

    def test_binomial_below_eta(self):
        qs = np.array([2.0])
        sf = scaling_function(BINOM, None, qs)
        eta = sf.eta[0]
        assert besov_membership(BINOM, (eta - 0.3), 2.0).member
        assert besov_membership(BINOM, eta / 2.0 - 0.1, 2.0).member

    def test_zero_family_is_member(self):
        values = [np.zeros(1 << j) for j in range(9)]
        F = DyadicFamily(0, 8, values)
        res = besov_membership(F, 5.0, 2.0)
        assert res.member
        assert res.constant == 0.0


    def test_empty_scale_range_raises(self):
        F = binomial_family(0.3, 12)
        for fit_range in [(10, 5), (20, 30)]:
            with pytest.raises(ScaleError):
                besov_membership(F, 0.3, 2.0, fit_range=fit_range)
        # one scale still gives a bound, without growth
        res = besov_membership(F, 0.3, 2.0, fit_range=(12, 12))
        assert res.member and res.growth_rate == 0.0 and res.constant > 0


class TestSmallSurfaces:
    def test_besov_p_zero_rejected(self):
        import pytest as _pt
        from localmf import DomainError
        with _pt.raises(DomainError):
            besov_membership(BINOM, 0.1, 0.0)

    def test_neighborhood_family_scaling(self):
        # mu(3 lambda) carries the same scaling as mu(lambda) up to
        # finite-scale correlation effects
        from localmf import measure_family
        m = synthesize(ModelSpec("binomial", {"p": 0.3, "J": 16}))["measure"]
        F3 = measure_family(m, 16)
        qs = np.arange(-3.0, 3.5, 0.5)
        sf = scaling_function(F3, None, qs)
        assert np.abs(sf.tau - binom_tau(0.3, qs)).max() <= 0.1

    def test_neighborhood_family_pointwise_exponent(self):
        from localmf import lower_exponent, measure_family
        m = synthesize(ModelSpec("binomial", {"p": 0.3, "J": 16}))["measure"]
        F3 = measure_family(m, 16)
        est = lower_exponent(F3, 0.0, method="regression")
        assert est.value == pytest.approx(-math.log2(0.3), abs=1e-9)

    def test_upper_equals_lower_under_regression(self):
        from localmf import lower_exponent, upper_exponent
        lo = lower_exponent(BINOM, 0.3, method="regression")
        hi = upper_exponent(BINOM, 0.3, method="regression")
        assert lo.value == hi.value

    @pytest.mark.parametrize("call", [
        lambda: structure_function(BINOM, None, math.nan),
        lambda: scaling_function(BINOM, None, [0.0, math.inf]),
        lambda: besov_membership(BINOM, 0.5, math.nan),
        lambda: besov_membership(BINOM, 0.5, -math.inf),
        lambda: besov_membership(BINOM, math.nan, 2.0),
        lambda: besov_membership(BINOM, math.nan, math.inf),
        lambda: besov_membership(BINOM, math.inf, 2.0),
        lambda: local_profile(BINOM, [0.5], [0.25], [1.0, math.nan]),
        lambda: local_profile(BINOM, [math.nan], [0.25], [1.0]),
        lambda: local_profile(BINOM, [0.5], [math.nan], [1.0]),
        lambda: local_profile(BINOM, [0.5], [0.25, math.nan], [1.0]),
        lambda: local_profile(BINOM, [0.5], [math.inf], [1.0]),
        lambda: discrete_legendre([0.0, 1.0], [0.0, 1.0], [0.5, math.nan]),
    ], ids=["structure-p", "scaling-p", "besov-p", "besov-minus-inf-p",
            "besov-s", "besov-s-sup", "besov-inf-s", "local-p", "local-x",
            "local-radius", "local-second-radius", "local-inf-radius",
            "legendre-y"])
    def test_non_finite_input_is_domain_error(self, call):
        from localmf import DomainError
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: scaling_function(BINOM, None, []),
        lambda: scaling_function(BINOM, None, [[0.0, 1.0], [2.0, 3.0]]),
        lambda: structure_function(BINOM, None, [1.0, 2.0]),
        lambda: local_profile(BINOM, [0.5], [0.25], []),
        lambda: local_profile(BINOM, [[0.25, 0.5]], [0.25], [1.0]),
        lambda: local_profile(BINOM, [0.5], [[0.25], [0.125]], [1.0]),
    ], ids=["scaling-empty-p", "scaling-2d-p", "structure-p-list",
            "local-empty-p", "local-2d-x", "local-2d-radii"])
    def test_empty_or_non_1d_grid_is_domain_error(self, call):
        from localmf import DomainError
        with pytest.raises(DomainError):
            call()


class TestBoundaryBasePoints:
    def test_local_profile_near_domain_edges(self):
        F = binomial_family(0.3, 14)
        qs = np.array([0.0, 1.0, 2.0])
        lp = local_profile(F, [0.03, 0.97], np.array([2.0 ** -3]), qs,
                           FitPolicy(3, 13, 8))
        assert np.all(np.isfinite(lp.tau_local))
        # homogeneous cascade: clipped windows still see the global tau
        sf = scaling_function(F, None, qs)
        assert np.abs(lp.tau_local - sf.tau[None, :]).max() <= 0.05


# ---------------------------------------------------------------------------
# the shared-segment sum kernel against direct sums


P_EXTREME = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])


def rough_family(J=9, masked=False, seed=0, zeros=0.3):
    """Values in [0.5, 2] with a share ``zeros`` of the cubes zero, and with
    masked=True about a fifth of the cubes flagged invalid."""
    rng = np.random.default_rng(seed)
    values, valid = [], []
    for j in range(J + 1):
        v = rng.uniform(0.5, 2.0, 1 << j)
        v[rng.random(1 << j) < zeros] = 0.0
        values.append(v)
        valid.append(rng.random(1 << j) >= 0.2)
    return DyadicFamily(0, J, values, valid=valid if masked else None)


def one_scale_family(J, masked, seed, log2_range=None, zeros=0.3):
    """rough_family's values at scale J alone, or, given log2_range, values
    2^u with u uniform in [-log2_range, log2_range]; a share ``zeros`` of
    the cubes is zero."""
    rng = np.random.default_rng(seed)
    n = 1 << J
    v = (rng.uniform(0.5, 2.0, n) if log2_range is None
         else np.exp2(rng.uniform(-log2_range, log2_range, n)))
    v[rng.random(n) < zeros] = 0.0
    valid = rng.random(n) >= 0.2
    return DyadicFamily(J, J, [v], valid=[valid] if masked else None)


def leader_family():
    _, P = gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 10}, seed=4))
    return leaders(P)


def direct_sums(family, windows, p_grid):
    """log2 sum of v^p over each window's valid nonzero cubes, taken as it
    reads, with the zero and valid cube counts."""
    n_w, n_s = len(windows), family.n_scales()
    log2_S = np.full((n_w, p_grid.size, n_s), -np.inf)
    excluded = np.zeros((n_w, n_s), dtype=int)
    n_valid = np.zeros((n_w, n_s), dtype=int)
    for iw, w in enumerate(windows):
        for i, j in enumerate(family.scales):
            sl = slice(*w.cube_range(j))
            v = family.values_at(j)[sl]
            m = family.valid_at(j)
            v = v if m is None else v[m[sl]]
            n_valid[iw, i] = v.size
            excluded[iw, i] = int(np.sum(v == 0))
            if np.any(v > 0):
                for ip, p in enumerate(p_grid):
                    log2_S[iw, ip, i] = math.log2(np.sum(v[v > 0] ** p))
    return log2_S, excluded, n_valid


def block_family():
    """A masked rough family large enough that its top scale, cut at the
    edges of sample_windows, keeps segments of several kernel blocks."""
    return rough_family(J=_BLOCK.bit_length() + 3, masked=True)


def largest_top_segment(family, windows):
    """Positive valid cubes of the largest top-scale segment between the
    window edges."""
    j = family.j_max
    edges = np.unique([w.cube_range(j) for w in windows])
    keep = (family.values_at(j) > 0) & family.valid_at(j)
    return max(int(keep[a:b].sum()) for a, b in zip(edges[:-1], edges[1:]))


def masked_to(F, w):
    """F's values with every cube that w does not contain flagged invalid,
    on top of F's own flags."""
    valid = []
    for j in F.scales:
        m = np.zeros(F.n_cubes(j), dtype=bool)
        m[slice(*w.cube_range(j))] = True
        valid.append(m if F.valid_at(j) is None else m & F.valid_at(j))
    return DyadicFamily(F.j_min, F.j_max, [F.values_at(j) for j in F.scales],
                        valid)


def window_ends(windows):
    """The (lo, hi) rows the kernel and the batched fit take."""
    return [[w.lo, w.hi] for w in windows]


def sample_windows(J):
    cube = 2.0 ** -J
    return [
        Window.ball(0.02, 0.25), Window.ball(0.9, 0.25),        # clipped at 0, 1
        Window(0.0, 0.25), Window(0.25, 0.5), Window(0.0, 0.5),  # shared edges
        Window(0.25, 1.0), Window(0.1, 0.37), Window(0.0, 1.0),
        Window(5 * cube, 6 * cube), Window(1.0 - cube, 1.0),     # single cubes
    ]


class TestWindowSums:
    @pytest.mark.parametrize("make", [
        lambda: rough_family(), lambda: rough_family(masked=True),
        leader_family,
        lambda: masked_to(rough_family(masked=True), Window(0.125, 0.875)),
        block_family,
    ], ids=["zeros", "zeros-masked", "leaders", "restricted", "blocks"])
    def test_matches_direct_sums(self, make):
        from localmf.estimators import _window_sums
        F = make()
        windows = [w for w in sample_windows(F.j_max) if w.n_cubes(F.j_max)]
        if make is block_family:
            # two full blocks and a ragged one in a single segment
            n = largest_top_segment(F, windows)
            assert n > 2 * _BLOCK and n % _BLOCK
        ref, ref_excl, ref_valid = direct_sums(F, windows, P_EXTREME)
        assert np.all(np.isfinite(ref) | np.isneginf(ref))
        log2_S, excl, n_valid = _window_sums(F, window_ends(windows),
                                             F.scales, P_EXTREME)
        np.testing.assert_array_equal(np.isneginf(log2_S), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(log2_S[fin] - ref[fin])
                      <= 1e-12 * np.maximum(1.0, np.abs(ref[fin])))
        np.testing.assert_array_equal(excl, ref_excl)
        np.testing.assert_array_equal(n_valid, ref_valid)
        if make is not leader_family:
            assert ref_excl.any()

    @pytest.mark.parametrize("family", ["bernoulli", "cantor"])
    def test_local_profile_equals_per_window_scaling_function(self, family):
        if family == "cantor":
            F = plain_measure_family(gen_cantor_pair(12), 12)
        else:
            spec = ModelSpec("localized_bernoulli",
                             {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12})
            F = plain_measure_family(synthesize(spec)["measure"], 12)
        xs = [0.0, 0.03, 0.25, 0.5, 0.6, 0.97]
        radii = np.array([0.25, 0.125, 0.0625])
        qs = np.arange(-3.0, 3.5, 0.5)
        lp = local_profile(F, xs, radii, qs, FitPolicy(3, 11, 8))
        for ix, x in enumerate(xs):
            for ir, r in enumerate(radii):
                got = lp.profiles[ix][ir]
                want = scaling_function(F, Window.ball(x, r), qs,
                                        fit_range=got.fit_range, min_cubes=8)
                assert got.fit_range[1] == 11 and got.window == want.window
                np.testing.assert_array_equal(got.scales, want.scales)
                np.testing.assert_array_equal(got.excluded_counts,
                                              want.excluded_counts)
                for name in ("log2_S", "tau", "tau_tailmin", "residuals"):
                    a, b = getattr(got, name), getattr(want, name)
                    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        if family == "cantor":
            assert any(sf.excluded_counts.any() for per_x in lp.profiles
                       for sf in per_x)

    def test_extreme_dynamic_range_raises_no_warning(self):
        from localmf.estimators import _window_sums
        rng = np.random.default_rng(2)
        J = 10
        values = []
        for j in range(J + 1):
            v = 10.0 ** rng.uniform(-300.0, 300.0, 1 << j)
            v[rng.random(1 << j) < 0.2] = 0.0
            values.append(v)
        F = DyadicFamily(0, J, values)
        windows = sample_windows(J)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log2_S, _, _ = _window_sums(F, window_ends(windows), F.scales,
                                        P_EXTREME)
            sfs = [scaling_function(F, w, P_EXTREME, fit_range=(3, 9))
                   for w in windows[:8]]
            lp = local_profile(F, [0.1, 0.5, 0.9], np.array([0.25, 0.125]),
                               P_EXTREME, FitPolicy(3, 9, 8))
        for iw, w in enumerate(windows):
            for i, j in enumerate(F.scales):
                k_lo, k_hi = w.cube_range(j)
                v = F.values_at(j)[k_lo:k_hi]
                v = v[v > 0]
                ref = (np.logaddexp2.reduce(np.outer(P_EXTREME, np.log2(v)), axis=1)
                       if v.size else np.full(P_EXTREME.size, -np.inf))
                np.testing.assert_allclose(log2_S[iw, :, i], ref, rtol=1e-12)
        assert all(np.all(np.isfinite(sf.tau)) for sf in sfs)
        assert np.all(np.isfinite(lp.tau_local))

    @given(st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
                     st.integers(2 * _BLOCK + 1, 3 * _BLOCK - 1)),
           st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_segment_sums_across_block_boundaries(self, n, e1, e2, seed):
        # values 10^e spread over [10^min(e1, e2), 10^max(e1, e2)]
        rng = np.random.default_rng(seed)
        log2e = rng.uniform(min(e1, e2), max(e1, e2), n) * math.log2(10.0)
        ps = np.union1d(P_EXTREME, [0.0])
        d, t = np.empty(n), np.empty(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _walk_log2_sums(log2e, ps, _p_walks(ps), d, t, [0])[:, 0]
        ref = np.logaddexp2.reduce(np.outer(ps, log2e), axis=1)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert got[ps == 0] == np.log2(float(n))

    def test_wide_range_family_on_a_uniform_grid(self):
        # 1e+-300 values at every p of an even grid: one ratio row per sign
        from localmf.estimators import _window_sums
        rng = np.random.default_rng(5)
        J = 10
        values = [10.0 ** rng.uniform(-300.0, 300.0, 1 << j) for j in range(J + 1)]
        F = DyadicFamily(0, J, values)
        ps = np.arange(-40.0, 40.5, 0.5)
        windows = sample_windows(J)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log2_S, _, _ = _window_sums(F, window_ends(windows), F.scales, ps)
        for iw, w in enumerate(windows):
            for i, j in enumerate(F.scales):
                k_lo, k_hi = w.cube_range(j)
                if k_hi == k_lo:
                    assert np.all(np.isneginf(log2_S[iw, :, i]))
                    continue
                log2e = np.log2(F.values_at(j)[k_lo:k_hi])
                ref = np.logaddexp2.reduce(np.outer(ps, log2e), axis=1)
                assert np.all(np.abs(log2_S[iw, :, i] - ref)
                              <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @given(st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
           st.one_of(
               # linspace grids, whose steps differ at the ulp level
               st.builds(np.linspace, st.floats(-40.0, 40.0),
                         st.floats(-40.0, 40.0), st.integers(1, 41)),
               # irregular, unsorted grids with duplicates
               st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=24).map(
                   lambda ps: np.array(ps + ps[::3])),
               # one sign only
               st.lists(st.floats(0.0, 40.0), min_size=1, max_size=12).map(
                   lambda ps: np.array(ps)),
               st.lists(st.floats(-40.0, 0.0), min_size=1, max_size=12).map(
                   lambda ps: np.array(ps)),
           ),
           st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_segment_sums_on_any_p_grid(self, n, ps, e1, e2, seed):
        rng = np.random.default_rng(seed)
        log2e = rng.uniform(min(e1, e2), max(e1, e2), n) * math.log2(10.0)
        d, t = np.empty(n), np.empty(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _walk_log2_sums(log2e, ps, _p_walks(ps), d, t, [0])[:, 0]
        ref = np.logaddexp2.reduce(np.outer(ps, log2e), axis=1)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert np.all(got[ps == 0] == np.log2(float(n)))

    def test_irregular_grid_needs_no_scratch_beyond_d_and_t(self):
        # 400 p with no two equal steps: one run per p, so no ratio rows
        import tracemalloc
        log2e = np.random.default_rng(7).uniform(-50.0, 50.0, _BLOCK + 1)
        ps = np.r_[-np.geomspace(0.01, 40.0, 200), np.geomspace(0.01, 40.0, 200)]
        d, t = np.empty(log2e.size), np.empty(log2e.size)
        tracemalloc.start()
        try:
            got = _walk_log2_sums(log2e, ps, _p_walks(ps), d, t, [0])[:, 0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _BLOCK * 8 // 4
        ref = np.logaddexp2.reduce(np.outer(ps, log2e), axis=1)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def exact_step_walks(p_grid):
    """The walk of each sign with runs cut wherever two consecutive steps
    differ at all: the runs that grids of exactly equal steps keep."""
    walks = []
    for ips in (np.flatnonzero(p_grid > 0), np.flatnonzero(p_grid < 0)):
        ips = ips[np.argsort(np.abs(p_grid[ips]), kind="stable")]
        steps = np.diff(p_grid[ips], prepend=0.0)
        firsts = np.flatnonzero(np.diff(steps, prepend=np.nan) != 0)
        walks.append((ips, [(steps[a], ips[a:b].tolist()) for a, b
                            in zip(firsts, [*firsts[1:], ips.size])]))
    return walks


class TestPWalks:
    def test_linspace_grid_walks_in_one_run_per_sign(self):
        # its steps differ in the last bits: exact equality cut 25 runs
        ps = np.linspace(-3.0, 3.0, 41)
        assert sum(len(runs) for _, runs in exact_step_walks(ps)) == 25
        for ips, runs in _p_walks(ps):
            assert len(runs) == 1
            s, run = runs[0]
            assert run == ips.tolist() and len(run) == 20
            assert s == ps[ips[0]]          # the first step, taken from 0

    @pytest.mark.parametrize("ps", [
        np.arange(-5.0, 5.5, 0.5), np.linspace(-10.0, 10.0, 41),
        np.r_[-np.geomspace(0.01, 40.0, 20), np.geomspace(0.01, 40.0, 20)],
        np.array([0.5, 1.0, 1.5, 3.0, 4.5, 4.75, 5.0, -1.0, -3.0]),
    ], ids=["arange", "linspace-exact", "geometric", "mixed"])
    def test_other_grids_keep_the_exact_step_runs(self, ps):
        for (ips, runs), (ref_ips, ref_runs) in zip(_p_walks(ps),
                                                    exact_step_walks(ps)):
            np.testing.assert_array_equal(ips, ref_ips)
            assert [r for _, r in runs] == [r for _, r in ref_runs]
            assert all(s == ref_s for (s, _), (ref_s, _) in zip(runs, ref_runs))

    def test_multi_segment_scratch_stays_block_sized(self):
        # 300 leaves on one block: beyond d and t only one block of
        # repeated tops and arrays the size of the sums
        import tracemalloc
        rng = np.random.default_rng(8)
        n = _BLOCK
        log2e = rng.uniform(-50.0, 50.0, n)
        starts = np.r_[0, np.sort(rng.choice(np.arange(1, n), 299, replace=False))]
        ps = np.linspace(-3.0, 3.0, 41)
        walks = _p_walks(ps)
        d, t = np.empty(_BLOCK), np.empty(_BLOCK)
        _walk_log2_sums(log2e[:10], ps, walks, d, t, [0, 5])   # warm numpy up
        tracemalloc.start()
        try:
            got = _walk_log2_sums(log2e, ps, walks, d, t, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (ps.size, starts.size)
        assert peak < _BLOCK * 8 + 4 * got.nbytes
        for k, (a, b) in enumerate(zip(starts, [*starts[1:], n])):
            ref = np.logaddexp2.reduce(np.outer(ps, log2e[a:b]), axis=1)
            assert np.all(np.abs(got[:, k] - ref)
                          <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_window_sums_read_a_scale_in_groups(self):
        # 192 balls cut the top scale (2^20 cubes) into 8192-cube segments:
        # scratch stays far below the 16 blocks of the scale's log2 values
        import tracemalloc
        F = block_family()
        windows = [Window.ball(x, r) for x in (np.arange(64) + 0.5) / 64
                   for r in (1 / 8, 1 / 16, 1 / 32)]
        ps = np.linspace(-3.0, 3.0, 41)
        _window_sums(F, window_ends(windows[:2]), [F.j_max], ps)  # warm numpy up
        tracemalloc.start()
        try:
            _window_sums(F, window_ends(windows), [F.j_max], ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.n_cubes(F.j_max) == 16 * _BLOCK
        assert peak < 8 * _BLOCK * 8

    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
    def test_lone_window_scratch_stays_block_sized(self, masked):
        # [0, 1) on a scale of 16 blocks: its leaves are the blocks, so
        # scratch is d, t and one block of log2 values, not a copy of the
        # scale
        import tracemalloc
        J = _BLOCK.bit_length() + 3
        F = one_scale_family(J, masked, seed=9)
        ps = np.linspace(-3.0, 3.0, 41)
        _window_sums(F, [0.0, 2.0 ** -10], [J], ps)     # warm numpy up
        tracemalloc.start()
        try:
            _window_sums(F, [0.0, 1.0], [J], ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.n_cubes(J) == 16 * _BLOCK
        assert peak < 6 * _BLOCK * 8


@st.composite
def window_lists(draw):
    """Windows with random and dyadic ends, each maybe followed by a window
    nested in it and one beside it."""
    def end():
        return draw(st.one_of(st.floats(0.0, 1.0),
                              st.integers(0, 64).map(lambda k: k / 64)))
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = sorted([end(), end()])
        if a == b:
            continue
        windows.append(Window(a, b))
        quarter = (b - a) / 4
        if draw(st.booleans()) and a + quarter < b - quarter:
            windows.append(Window(a + quarter, b - quarter))
        beside = min(1.0, b + 2 * quarter)
        if draw(st.booleans()) and b < beside:
            windows.append(Window(b, beside))
    return windows or [Window(0.0, 1.0)]


P_GRIDS = st.one_of(
    st.builds(np.linspace, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
              st.integers(1, 41)),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12).map(np.array),
    st.builds(lambda k, n, step: (k + np.arange(n)) * step,
              st.integers(-20, 0), st.integers(1, 41),
              st.sampled_from([0.125, 0.25, 0.5, 1.0])),
)


class TestLeafCuts:
    @given(st.booleans(), st.sampled_from([0.0, 0.3]),
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(0, 4), st.sampled_from([-1, 0, 1])),
                    min_size=2, max_size=6),
           st.booleans(), P_GRIDS)
    # a lone window without zeros, whose leaves each fill a block of
    # scratch, and one-cube leaves in the blocks of block-long ones
    @example(False, 0.0, 0, [(0, 0), (4, 0)], False, np.linspace(-3.0, 3.0, 41))
    @example(True, 0.3, 0, [(1, -1), (1, 1), (3, 1), (2, -1)], True,
             np.array([-3.0, 0.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_window_ends_beside_block_multiples(self, masked, zeros, seed,
                                                ends, whole, ps):
        # ends one cube before, at and after k _BLOCK on a scale of 4
        # blocks cut one-cube leaves beside block-long ones, and [0, 1)
        # adds leaves that are whole blocks, each read in scratch of one
        # block; values 2^u, |u| |p| <= 1000 (as wide as the direct sums
        # stay finite), make a leaf's sum underflow if it is taken from
        # another leaf's top
        J = _BLOCK.bit_length() + 1
        n = 1 << J
        F = one_scale_family(J, masked, seed, zeros=zeros,
                             log2_range=1000.0 / max(3.0, np.abs(ps).max()))
        ks = [min(n, max(0, k * _BLOCK + e)) for k, e in ends]
        windows = [Window(min(a, b) / n, max(a, b) / n)
                   for a, b in zip(ks[::2], ks[1::2]) if a != b]
        if whole or not windows:
            windows.append(Window(0.0, 1.0))
        ref, ref_excl, ref_valid = direct_sums(F, windows, ps)
        log2_S, excl, n_valid = _window_sums(F, window_ends(windows),
                                             F.scales, ps)
        np.testing.assert_array_equal(np.isneginf(log2_S), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(log2_S[fin] - ref[fin])
                      <= 1e-12 * np.maximum(1.0, np.abs(ref[fin])))
        np.testing.assert_array_equal(excl, ref_excl)
        np.testing.assert_array_equal(n_valid, ref_valid)


class TestBatchedEqualsOneByOne:
    @given(st.integers(1, 10), st.booleans(), st.integers(0, 2 ** 32 - 1),
           window_lists(), P_GRIDS)
    @settings(max_examples=60, deadline=None)
    def test_window_sums_of_a_list(self, J, masked, seed, windows, ps):
        F = rough_family(J, masked, seed)
        log2_S, excl, n_valid = _window_sums(F, window_ends(windows),
                                             F.scales, ps)
        for iw, w in enumerate(windows):
            ref, ref_excl, ref_valid = _window_sums(F, [w.lo, w.hi], F.scales, ps)
            np.testing.assert_array_equal(np.isneginf(log2_S[iw]),
                                          np.isneginf(ref[0]))
            fin = np.isfinite(ref[0])
            assert np.all(np.abs(log2_S[iw][fin] - ref[0][fin])
                          <= 1e-12 * np.maximum(1.0, np.abs(ref[0][fin])))
            np.testing.assert_array_equal(excl[iw], ref_excl[0])
            np.testing.assert_array_equal(n_valid[iw], ref_valid[0])

    @given(st.integers(4, 10), st.booleans(), st.integers(0, 2 ** 32 - 1),
           window_lists(), P_GRIDS, st.sampled_from([1, 4, 8]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_scaling_functions_of_a_list(self, J, masked, seed, windows, ps,
                                         min_cubes, data):
        F = rough_family(J, masked, seed)
        # windows without a finest-scale cube fail before any sum is taken
        windows = [w for w in windows if w.n_cubes(J)] or [Window(0.0, 1.0)]
        # a fit range per window, of at least the 4 scales a fit needs
        ranges = st.integers(1, J - 3).flatmap(
            lambda j1: st.tuples(st.just(j1), st.integers(j1 + 3, J)))
        if J >= 7:                      # the default (3, J - 1) holds 4
            ranges = st.one_of(st.none(), ranges)
        fit_ranges = [data.draw(ranges) for _ in windows]
        singles = []
        for w, fr in zip(windows, fit_ranges):
            try:
                singles.append(scaling_function(F, w, ps, fr, min_cubes))
            except EmptyWindowError as exc:
                singles.append(exc)
        errors = [str(e) for e in singles if isinstance(e, EmptyWindowError)]
        if errors:
            # the list raises on its first window left with < 2 scales
            with pytest.raises(EmptyWindowError) as info:
                _scaling_functions(F, window_ends(windows), ps, fit_ranges,
                                   min_cubes)
            assert str(info.value) == errors[0]
            return
        batched = _scaling_functions(F, window_ends(windows), ps, fit_ranges,
                                     min_cubes)
        assert len(batched.tau) == len(singles)
        for i, want in enumerate(singles):
            got = batched.scaling_function(i)
            assert got.fit_range == want.fit_range and got.window == want.window
            np.testing.assert_array_equal(got.scales, want.scales)
            np.testing.assert_array_equal(got.excluded_counts,
                                          want.excluded_counts)
            for name in ("tau", "tau_tailmin", "residuals"):
                a, b = getattr(got, name), getattr(want, name)
                fin = np.isfinite(b)
                np.testing.assert_array_equal(a[~fin], b[~fin])
                assert np.all(np.abs(a[fin] - b[fin])
                              <= 1e-12 * np.maximum(1.0, np.abs(b[fin]))), name


def assert_same_fit(got, want):
    """Equal scales, fit ranges and excluded counts; tau, tau_tailmin and
    residuals within 1e-12 relative (1e-12 absolute near 0), with equal
    non-finite entries."""
    assert got.fit_range == want.fit_range
    np.testing.assert_array_equal(got.scales, want.scales)
    np.testing.assert_array_equal(got.excluded_counts, want.excluded_counts)
    for name in ("tau", "tau_tailmin", "residuals"):
        a, b = getattr(got, name), getattr(want, name)
        fin = np.isfinite(b)
        np.testing.assert_array_equal(a[~fin], b[~fin])
        assert np.all(np.abs(a[fin] - b[fin])
                      <= 1e-12 * np.maximum(1.0, np.abs(b[fin]))), name


class TestRelations:
    """Relations that follow from the definitions, on small random
    families: a wrong window edge or chain cube breaks them even where
    the batched and the one-by-one paths share it."""

    @given(st.integers(5, 10), st.booleans(), st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=6),
           st.integers(1, 3), st.sampled_from([1, 4]), P_GRIDS)
    @settings(max_examples=40, deadline=None)
    def test_local_profile_equals_one_point_calls(self, J, masked, seed, xs,
                                                  n_r, min_cubes, ps):
        # the smallest radius keeps the 64 cubes local_profile asks for
        F = rough_family(J, masked, seed, zeros=0.2)
        radii = 2.0 ** (5 - J) * 2.0 ** np.arange(n_r - 1, -1, -1)
        policy = FitPolicy(1, J, min_cubes)
        singles, errors = [], set()
        for x in xs:
            try:
                singles.append(local_profile(F, [x], radii, ps, policy))
            except (EmptyWindowError, ScaleError) as exc:
                errors.add(type(exc))
        if errors:
            # every window's fit range is checked before any sum is taken
            with pytest.raises(ScaleError if ScaleError in errors
                               else EmptyWindowError):
                local_profile(F, xs, radii, ps, policy)
            return
        lp = local_profile(F, xs, radii, ps, policy)
        for ix, one in enumerate(singles):
            for got, want in zip(lp.profiles[ix], one.profiles[0]):
                assert got.window == want.window
                assert_same_fit(got, want)

    @given(st.integers(5, 10), st.booleans(), st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True),
           P_GRIDS, st.sampled_from([1, 4, 8]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mirror_maps_a_window_to_its_reflection(self, J, masked, seed,
                                                    ends, ps, min_cubes, data):
        # cube k of scale j is cube 2^j - 1 - k of the reversed family,
        # and [a, b) holds it exactly when [1 - b, 1 - a) holds its mirror
        F = rough_family(J, masked, seed, zeros=0.2)
        R = DyadicFamily(0, J, [F.values_at(j)[::-1] for j in F.scales],
                         [F.valid_at(j)[::-1] for j in F.scales] if masked
                         else None)
        lo, hi = min(ends) / 16, max(ends) / 16
        # a fit range of at least the 4 scales a fit needs, up to the
        # finest scale, where a narrow window holds the cubes it needs
        ranges = st.integers(1, J - 3).map(lambda j1: (j1, J))
        if J >= 7:                      # the default (3, J - 1) holds 4
            ranges = st.one_of(st.none(), ranges)
        fit_range = data.draw(ranges)
        try:
            want = scaling_function(F, Window(lo, hi), ps, fit_range, min_cubes)
        except EmptyWindowError:
            with pytest.raises(EmptyWindowError):
                scaling_function(R, Window(1 - hi, 1 - lo), ps, fit_range,
                                 min_cubes)
            return
        got = scaling_function(R, Window(1 - hi, 1 - lo), ps, fit_range,
                               min_cubes)
        assert got.window == Window(1 - hi, 1 - lo)
        assert_same_fit(got, want)


def outcome(call):
    """The repr of call()'s result, exact for every float in it, or the
    type of the AnalysisError it raises."""
    try:
        return repr(call())
    except AnalysisError as exc:
        return type(exc)


def zero_family(J=9):
    return DyadicFamily(0, J, [np.zeros(1 << j) for j in range(J + 1)])




class TestWindowReads:
    """The sup-based estimators read a window's cubes in place and give,
    bit for bit and errors included, what they give on the whole family
    with every cube outside the window flagged invalid."""

    @pytest.mark.parametrize("make", [
        lambda: BINOM, lambda: rough_family(masked=True), leader_family,
        zero_family,
    ], ids=["plain", "masked-rough", "leaders", "all-zero"])
    def test_equal_to_the_family_on_the_window(self, make):
        F = make()
        J = F.j_max
        fit_ranges = [None, (1, J), (J - 1, J), (J + 1, J + 4)]
        outcomes = set()
        for w in sample_windows(J):
            for method in ("tail-min", "regression"):
                for fr in fit_ranges:
                    got = outcome(lambda: uniform_exponent(F, w, method, fr))
                    assert got == outcome(lambda: uniform_exponent(
                        masked_to(F, w), None, method, fr)), (w, method, fr)
                    outcomes.add(got if isinstance(got, type) else "value")
            for s in (0.3, 1.0):
                for fr in [None, (0, J)] + fit_ranges[2:]:
                    got = outcome(lambda: besov_membership(
                        F, s, math.inf, window=w, fit_range=fr))
                    assert got == outcome(lambda: besov_membership(
                        masked_to(F, w), s, math.inf, fit_range=fr)), (w, s, fr)
                    outcomes.add(got if isinstance(got, type) else "value")
        assert {"value", ScaleError} <= outcomes

    def test_invalid_cubes_never_enter_a_sup(self):
        # the same masked family with its invalid cubes raised above every
        # valid one: a read that kept them would change the sups
        F = rough_family(masked=True)
        masks = [F.valid_at(j) for j in F.scales]
        G = DyadicFamily(0, F.j_max, [np.where(m, F.values_at(j), 4.0)
                                      for j, m in zip(F.scales, masks)], masks)
        for w in sample_windows(F.j_max):
            for estimate in (
                    lambda F: uniform_exponent(F, w, "regression"),
                    lambda F: besov_membership(F, 0.5, math.inf, window=w)):
                assert outcome(lambda: estimate(F)) == outcome(
                    lambda: estimate(G)), w
