import math
import warnings

import numpy as np
import pytest

from localmf import (
    CoverageError,
    DyadicFamily,
    ModelSpec,
    RadiusError,
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
from localmf.estimators import FitPolicy


def power_family(alpha, j_max=12, window=Window(0.0, 1.0)):
    values = [np.full(window.n_cubes(j), 2.0 ** (-alpha * j))
              for j in range(j_max + 1)]
    return DyadicFamily(0, j_max, window, values)


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
        F = DyadicFamily(0, 2, Window(0.0, 1.0), values)
        S, excl = structure_function(F, None, -1.0, return_excluded=True)
        np.testing.assert_array_equal(excl, [0, 1, 1])
        assert S[2] == pytest.approx(1.0 + 0.5 + 0.25)


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
        F = DyadicFamily(0, 8, Window(0.0, 1.0), values)
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
        F = DyadicFamily(0, 8, Window(0.0, 1.0), values)
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
