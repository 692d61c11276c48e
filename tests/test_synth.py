import math

import numpy as np
import pytest
from scipy.integrate import quad

from localmf import (
    DomainError,
    ModelError,
    ModelSpec,
    RangeError,
    ScaleError,
    gen_cantor_pair,
    gen_localized_bernoulli,
    gen_markov_jump,
    gen_mbm,
    oracle,
    plain_measure_family,
    scaling_function,
    synthesize,
)
from localmf.synth import _CHUNK, _as_function, _substream, neglected_mass_rate, write_jumps


class TestModelSpec:
    def test_json_round_trip(self):
        spec = ModelSpec("binomial", {"p": 0.4, "J": 12}, seed=5)
        back = ModelSpec.from_json(spec.to_json())
        assert back == spec

    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            ModelSpec("levy_flight", {})

    def test_top_level_scale_keys_adopted(self):
        back = ModelSpec.from_json(
            '{"kind": "cantor_pair", "J": 10, "params": {}}')
        assert back.params["J"] == 10

    @pytest.mark.parametrize("text", [
        '{"kind": "binomial", "seed": "abc"}', '{"kind": "binomial", "seed": null}',
        '{"kind": "binomial", "params": [["p", 0.4]]}',
        '{"kind": "binomial", "params": "p"}',
        '{"kind": "binomial", "seed": 5.7}', '{"kind": "binomial", "seed": true}',
    ])
    def test_malformed_seed_or_params_is_model_error(self, text):
        with pytest.raises(ModelError):
            ModelSpec.from_json(text)


class TestModelParameters:
    """Every generator reads its parameters through one checked reader: a
    missing key, a non-integral or string integer and a non-numeric value
    raise ModelError instead of being truncated or failing untyped."""

    @pytest.mark.parametrize("kind, params", [
        ("binomial", {"p": 0.3, "J": 12.5}),
        ("binomial", {"p": 0.3, "J": "12"}),
        ("binomial", {"p": "abc", "J": 10}),
        ("localized_bernoulli", {"p": [[0.0, "a"], [1.0, 0.3]], "J": 10}),
        ("localized_bernoulli", {"J": 10}),
        ("cantor_pair", {"J": 10.9}),
        ("cantor_pair", {}),
        ("mbm", {"J": 10}),
        ("mbm", {"H": 0.6, "N": 1000}),
        ("mbm", {"H": 0.6, "N": 1024.5}),
        ("fbm", {"H": "abc", "J": 10}),
        ("markov_jump", {"gamma": 0.5, "N": 1000.5}),
        ("markov_jump", {"N": 1000}),
        ("markov_jump", {"gamma": 0.5, "T": "abc"}),
    ], ids=["float-J", "string-J", "string-p", "string-table", "missing-p",
            "cantor-float-J", "cantor-missing-J", "missing-H",
            "mbm-N-not-a-power-of-two", "mbm-float-N", "string-H",
            "markov-float-N", "missing-gamma", "string-T"])
    def test_malformed_parameter_is_model_error(self, kind, params):
        with pytest.raises(ModelError):
            synthesize(ModelSpec(kind, params))

    def test_cantor_pair_takes_an_integral_J_only(self):
        with pytest.raises(ModelError):
            gen_cantor_pair(10.9)
        np.testing.assert_array_equal(gen_cantor_pair(10.0).masses,
                                      gen_cantor_pair(10).masses)

    def test_mbm_N_is_its_sample_count(self):
        signal, _ = gen_mbm(ModelSpec("mbm", {"H": 0.6, "N": 1024}))
        assert signal.size == 1024
        with pytest.raises(ScaleError):
            gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 0}))

    def test_mbm_N_must_equal_two_to_the_J(self):
        # a spec file's top-level N joins the params beside J
        spec = ModelSpec.from_json(
            '{"kind": "mbm", "N": 4096, "params": {"H": 0.6, "J": 10}}')
        with pytest.raises(ModelError, match="N = 4096.*J = 10"):
            gen_mbm(spec)
        signal, _ = gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 10, "N": 1024}))
        assert signal.size == 1024

    @pytest.mark.parametrize("kind, params", [
        ("binomial", {"J": 10}), ("mbm", {"J": 10}),
        ("birkhoff", {"a": "abc", "b": 0.2}),
    ], ids=["missing-p", "missing-H", "string-a"])
    def test_oracle_of_a_malformed_spec_is_model_error(self, kind, params):
        with pytest.raises(ModelError):
            oracle(ModelSpec(kind, params))


class TestLocalizedBernoulli:
    def test_constant_p_is_binomial(self):
        spec = ModelSpec("localized_bernoulli", {"p": 0.3, "J": 10})
        m = gen_localized_bernoulli(spec)
        assert m.masses[0] == pytest.approx(0.3 ** 10, rel=1e-12)
        assert m.masses[-1] == pytest.approx(0.7 ** 10, rel=1e-12)
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_first_generation_split(self):
        p_fn = lambda x: 0.2 + 0.25 * x
        spec = ModelSpec("localized_bernoulli", {"p": p_fn, "J": 8})
        m = gen_localized_bernoulli(spec)
        left = m.masses[: 1 << 7].sum()
        assert left == pytest.approx(p_fn(0.5), abs=1e-12)

    def test_refinement_exact(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 12})
        m = gen_localized_bernoulli(spec)
        fine = m.masses
        for n in range(12, 4, -1):
            coarse = fine.reshape(-1, 2).sum(axis=1)
            np.testing.assert_allclose(
                fine[0::2] + fine[1::2], coarse, rtol=1e-14)
            fine = coarse

    def test_determinism(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": [[0.0, 0.1], [1.0, 0.48]], "J": 10})
        a = gen_localized_bernoulli(spec).masses
        b = gen_localized_bernoulli(spec).masses
        np.testing.assert_array_equal(a, b)

    def test_range_error(self):
        spec = ModelSpec("localized_bernoulli", {"p": 0.6, "J": 8})
        with pytest.raises(DomainError):
            gen_localized_bernoulli(spec)

    def test_scale_bounds(self):
        with pytest.raises(ScaleError):
            gen_localized_bernoulli(
                ModelSpec("localized_bernoulli", {"p": 0.3, "J": 25}))

    @pytest.mark.parametrize("p, J, generation", [
        (1e-30, 14, 11),        # p^11 = 1e-330 underflows to 0
        (1e-20, 18, 16),        # p^16 = 1e-320 is subnormal
    ])
    def test_masses_below_normal_doubles_raise_range_error(self, p, J,
                                                            generation):
        with pytest.raises(RangeError, match=f"generation {generation} "):
            gen_localized_bernoulli(
                ModelSpec("localized_bernoulli", {"p": p, "J": J}))

    def test_smallest_normal_masses_stay_exact(self):
        # p^22 = 1e-264 stays a normal double: tau matches the oracle
        spec = ModelSpec("binomial", {"p": 1e-12, "J": 22})
        m = synthesize(spec)["measure"]
        assert m.masses[0] == pytest.approx(1e-12 ** 22, rel=1e-12)
        qs = np.arange(-5.0, 5.5, 1.0)
        sf = scaling_function(plain_measure_family(m, 22), None, qs)
        np.testing.assert_allclose(sf.tau, oracle(spec).tau(0.5, qs),
                                   rtol=0.0, atol=1e-9)

    def test_dyadic_exponent_formula(self):
        # h at x with digit pattern 0111... (x = 1/8 side) matches the
        # zero-digit-frequency formula
        orc = oracle(ModelSpec("localized_bernoulli",
                               {"p": [[0.0, 0.2], [1.0, 0.45]]}))
        x = 0.5
        p_x = 0.325
        assert orc.pointwise(x, zero_digit_freq=1.0) == pytest.approx(
            -math.log2(p_x))
        assert orc.pointwise(x, zero_digit_freq=0.0) == pytest.approx(
            -math.log2(1 - p_x))


class TestCantorPair:
    def test_barycenter(self):
        m = gen_cantor_pair(12)
        half = m.masses.size // 2
        assert m.masses[:half].sum() == pytest.approx(0.5, abs=1e-12)
        assert m.masses[half:].sum() == pytest.approx(0.5, abs=1e-12)

    def test_minimum_scale(self):
        with pytest.raises(ScaleError):
            gen_cantor_pair(6)

    def test_cylinder_masses(self):
        # left component: depth-n cylinders carry 2^-n * 1/2, on dyadic
        # intervals of scale 2n+1
        m = gen_cantor_pair(14)
        from localmf.builders import _cube_masses
        mus = _cube_masses(m, 14)
        for n in (1, 2, 3):
            j = 2 * n + 1
            vals = mus[j][: 1 << (j - 1)]
            pos = vals[vals > 0]
            assert pos.size == 1 << n
            np.testing.assert_allclose(pos, 0.5 * 2.0 ** -n, rtol=1e-12)

    def test_oracle_point_spectra(self):
        orc = oracle(ModelSpec("cantor_pair", {"J": 12}))
        assert orc.spectrum(0.2, 0.5)[0] == pytest.approx(0.5)
        assert np.isneginf(orc.spectrum(0.2, 0.25)[0])
        assert orc.spectrum(0.8, 0.25)[0] == pytest.approx(0.25)
        assert orc.pointwise(0.2) == 0.5 and orc.pointwise(0.8) == 0.25
        g = orc.spectrum_global(np.array([0.25, 0.5, 0.4]))
        assert g[0] == 0.25 and g[1] == 0.5 and np.isneginf(g[2])


class TestMBM:
    def test_determinism(self):
        spec = ModelSpec("mbm", {"H": 0.6, "J": 10}, seed=9)
        s1, P1 = gen_mbm(spec)
        s2, P2 = gen_mbm(spec)
        np.testing.assert_array_equal(s1, s2)
        for j in range(P1.J):
            np.testing.assert_array_equal(P1.details[j], P2.details[j])

    def test_seed_changes_output(self):
        a, _ = gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 10}, seed=0))
        b, _ = gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 10}, seed=1))
        assert np.abs(a - b).max() > 0

    def test_hurst_range_enforced(self):
        with pytest.raises(DomainError):
            gen_mbm(ModelSpec("mbm", {"H": 1.2, "J": 10}))
        with pytest.raises(DomainError):
            gen_mbm(ModelSpec("mbm", {"H": [[0.0, 0.4], [1.0, -0.1]], "J": 10}))

    def test_coefficient_scale_normalization(self):
        H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
        _, P = gen_mbm(ModelSpec("mbm", {"H": H_fn, "J": 16}, seed=0))
        for j in range(9, 16):  # scales holding >= 512 coefficients
            x = np.arange(1 << j) * 2.0 ** -j
            z = P.details[j] * 2.0 ** (H_fn(x) * j)
            assert abs(np.std(z) - 1.0) <= 0.05

    def test_constant_H_pointwise_exponent(self):
        from localmf import leaders, lower_exponent
        errs = []
        for seed in range(4):
            _, P = gen_mbm(ModelSpec("fbm", {"H": 0.7, "J": 14}, seed=seed))
            L = leaders(P)
            for x in (0.2, 0.5, 0.8):
                est = lower_exponent(L, x, method="regression")
                errs.append(abs(est.value - 0.7))
        assert np.median(errs) <= 0.1


class TestMarkovJump:
    GAMMA = staticmethod(lambda y: np.minimum(0.5 + y / 4.0, 0.9))

    def make(self, seed=3, T=1.0, eps=2.0 ** -14):
        spec = ModelSpec("markov_jump",
                         {"gamma": self.GAMMA, "T": T, "N": 1 << 12,
                          "eps_trunc": eps}, seed=seed)
        return spec, gen_markov_jump(spec)

    def test_starts_at_zero_and_increases(self):
        _, path = self.make()
        assert path.grid_M[0] == 0.0
        assert np.all(np.diff(path.grid_M) >= 0)
        assert np.all(path.sizes > 0)

    def test_jump_sizes_within_truncation_band(self):
        _, path = self.make()
        assert path.sizes.min() >= path.eps_trunc
        assert path.sizes.max() <= 1.0

    def test_determinism(self):
        _, p1 = self.make(seed=11)
        _, p2 = self.make(seed=11)
        np.testing.assert_array_equal(p1.times, p2.times)
        np.testing.assert_array_equal(p1.sizes, p2.sizes)

    def test_neglected_mass_closed_form(self):
        for g in (0.3, 0.6, 0.85):
            for eps in (1e-3, 1e-5):
                num, _ = quad(lambda u: u * g * u ** (-1.0 - g), 0.0, eps)
                assert neglected_mass_rate(g, eps) == pytest.approx(num, rel=1e-8)

    def test_jump_count_matches_compensator(self):
        for seed in (3, 7):
            _, path = self.make(seed=seed)
            ts = np.concatenate([[0.0], path.times, [path.T]])
            ys = np.concatenate([[0.0], np.cumsum(path.sizes)])
            lam = path.eps_trunc ** (-self.GAMMA(ys)) - 1.0
            integral = float(np.sum(lam * np.diff(ts)))
            dev = abs(path.times.size - integral) / math.sqrt(integral)
            assert dev <= 3.0

    def test_drift_bound_reported(self):
        _, path = self.make()
        assert path.drift_bound > 0
        assert path.drift_rate_max == pytest.approx(
            neglected_mass_rate(self.GAMMA(path.grid_M[-1]), path.eps_trunc),
            rel=1e-6)

    def test_gamma_validation(self):
        with pytest.raises(DomainError):
            gen_markov_jump(ModelSpec(
                "markov_jump", {"gamma": 1.5, "T": 1.0, "N": 64}))
        with pytest.raises(DomainError):
            gen_markov_jump(ModelSpec(
                "markov_jump",
                {"gamma": lambda y: np.maximum(0.9 - y, 0.1), "T": 1.0,
                 "N": 64}))
        with pytest.raises(DomainError):
            gen_markov_jump(ModelSpec(
                "markov_jump", {"gamma": 0.5, "T": 1.0, "N": 64,
                                "eps_trunc": 2.0}))

    def test_oracle_conditional_on_path(self):
        spec, path = self.make()
        with pytest.raises(ModelError):
            oracle(spec)
        orc = oracle(spec, realization=path)
        t = 0.5
        g = float(self.GAMMA(path.value_at(t)))
        assert orc.pointwise(t) == pytest.approx(1.0 / g)
        s = orc.spectrum(t, np.array([0.5 / g, 1.0 / g, 1.2 / g]))
        assert s[0] == pytest.approx(0.5)
        assert s[1] == pytest.approx(1.0)
        assert np.isneginf(s[2])

    def test_oracle_global_values_are_extrema_over_its_t_grid(self):
        spec, path = self.make()
        orc = oracle(spec, realization=path)
        ts = np.linspace(0.0, path.T, 257, endpoint=False)[1:]
        ps = np.arange(0.0, 3.25, 0.25)
        hs = np.linspace(0.0, 2.5, 26)
        np.testing.assert_array_equal(
            orc.tau_global(ps), np.min([orc.tau(t, ps) for t in ts], axis=0))
        np.testing.assert_array_equal(
            orc.spectrum_global(hs),
            np.max([orc.spectrum(t, hs) for t in ts], axis=0))

    def test_jump_csv(self, tmp_path):
        _, path = self.make()
        f = tmp_path / "jumps.csv"
        write_jumps(f, path)
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "t,size"
        assert len(lines) == path.times.size + 1
        t0, s0 = (float(v) for v in lines[1].split(","))
        assert t0 == path.times[0] and s0 == path.sizes[0]
        assert lines[1:] == [f"{float(t)!r},{float(s)!r}"
                             for t, s in zip(path.times, path.sizes)]

    def test_value_at_matches_grid(self):
        _, path = self.make()
        np.testing.assert_array_equal(path.value_at(path.grid_t), path.grid_M)
        assert path.value_at(0.0) == 0.0
        assert path.value_at(path.T) == np.cumsum(path.sizes)[-1]


def scalar_markov(spec):
    """Reference simulation: one jump per step with float arithmetic.

    Jump i uses the i-th exponential and uniform variate of the pre-drawn
    epochs and the gamma of the state it starts from."""
    params = spec.params
    T = float(params.get("T", 1.0))
    eps = float(params.get("eps_trunc", 2.0 ** -20))
    gamma_fn = _as_function(params["gamma"])
    times, sizes = [], []
    t, y = 0.0, 0.0
    drift_int, drift_max = 0.0, 0.0
    epoch, pos = 0, _CHUNK
    while True:
        if pos >= _CHUNK:
            rng = _substream(spec.seed, 1000 + epoch)
            exp_buf = rng.exponential(size=_CHUNK)
            uni_buf = rng.random(size=_CHUNK)
            epoch += 1
            pos = 0
        g = float(gamma_fn(y))
        eg = eps ** -g
        lam = eg - 1.0
        rate = neglected_mass_rate(g, eps)
        dt = exp_buf[pos] / lam
        if t + dt >= T:
            drift_int += rate * (T - t)
            drift_max = max(drift_max, rate)
            break
        drift_int += rate * dt
        drift_max = max(drift_max, rate)
        t += dt
        u = (eg - uni_buf[pos] * lam) ** (-1.0 / g)
        y += u
        times.append(t)
        sizes.append(u)
        pos += 1
    return np.asarray(times), np.asarray(sizes), drift_int, drift_max


_STEPS = [[0.0, 0.3], [0.2, 0.3], [0.2001, 0.6], [0.5, 0.6], [0.5001, 0.8],
          [100.0, 0.8]]


class TestMarkovRuns:
    """The run-at-a-time generator against the one-jump reference."""

    @pytest.mark.parametrize("gamma,T,eps,seed,min_jumps", [
        ([[0.0, 0.5], [1.6, 0.9]], 2.0, 2.0 ** -16, 7, _CHUNK),
        (lambda y: np.minimum(0.5 + y / 4.0, 0.9), 2.0, 2.0 ** -16, 11, _CHUNK),
        (0.6, 10.0, 2.0 ** -20, 1, 2 * _CHUNK),
        (0.6, 0.03, 2.0 ** -20, 1, 100),       # T falls inside a run
        (lambda y: 0.5 + 0.4 * np.tanh(y), 0.7, 2.0 ** -20, 7, _CHUNK),
        (_STEPS, 2.0, 2.0 ** -16, 5, 1000),    # runs end at crossing jumps
    ], ids=["table", "criterion-6", "constant", "short-T", "tanh", "steps"])
    def test_matches_one_jump_reference(self, gamma, T, eps, seed, min_jumps):
        spec = ModelSpec("markov_jump", {"gamma": gamma, "T": T, "N": 1 << 10,
                                         "eps_trunc": eps}, seed=seed)
        path = gen_markov_jump(spec)
        times, sizes, drift_bound, drift_rate_max = scalar_markov(spec)
        assert path.times.size == times.size >= min_jumps
        np.testing.assert_array_equal(path.times, times)
        assert path.drift_bound == drift_bound
        assert path.drift_rate_max == drift_rate_max
        assert np.all(np.abs(path.sizes - sizes) <= np.spacing(sizes))
        cum = np.concatenate([[0.0], np.cumsum(sizes)])
        grid_M = cum[np.searchsorted(times, path.grid_t, side="right")]
        np.testing.assert_allclose(path.grid_M, grid_M, rtol=1e-12, atol=0.0)


class TestOracles:
    def test_binomial_normalization(self):
        orc = oracle(ModelSpec("binomial", {"p": 0.4}))
        assert orc.tau_global(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert orc.tau_global(np.array([0.0]))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_localized_bernoulli_local_spectrum_is_binomial(self):
        p_fn = [[0.0, 0.2], [1.0, 0.45]]
        orc = oracle(ModelSpec("localized_bernoulli", {"p": p_fn}))
        ref = oracle(ModelSpec("binomial", {"p": 0.325}))
        Hs = np.arange(0.8, 2.2, 0.1)
        np.testing.assert_allclose(orc.spectrum(0.5, Hs), ref.spectrum(0.0, Hs),
                                   atol=1e-9)

    def test_birkhoff_pressure(self):
        a, b = 0.4, 1.1
        orc = oracle(ModelSpec("birkhoff", {"a": a, "b": b}))
        ps = np.arange(-4.0, 4.5, 0.5)
        expected = -np.log2(np.exp(-ps * a) + np.exp(-ps * b))
        np.testing.assert_allclose(orc.tau(0.3, ps), expected, atol=1e-12)

    def test_mbm_local_tau(self):
        H_fn = lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)
        orc = oracle(ModelSpec("mbm", {"H": H_fn}))
        ps = np.array([-1.0, 0.0, 2.0])
        x = 0.22
        np.testing.assert_allclose(orc.tau(x, ps),
                                   H_fn(np.array(x)) * ps - 1.0, atol=1e-12)

    def test_mbm_global_values_are_extrema_of_the_local_ones(self):
        orc = oracle(ModelSpec("mbm", {"H": [[0.0, 0.4], [0.5, 0.7],
                                             [1.0, 0.45]]}))
        ps = np.arange(-3.0, 3.5, 0.5)
        per_x = [orc.tau(x, ps) for x in np.linspace(0.0, 1.0, 2049)]
        np.testing.assert_array_equal(orc.tau_global(ps),
                                      np.min(per_x, axis=0))
        lo, hi = 0.4, 0.7
        H = np.array([lo - 2e-9, lo - 1e-9, lo, 0.55, hi, hi + 1e-9,
                      hi + 2e-9])
        np.testing.assert_array_equal(orc.spectrum_global(H),
                                      [-np.inf, 1, 1, 1, 1, 1, -np.inf])
        np.testing.assert_array_equal(orc.spectrum(0.5, [0.7, 0.55]),
                                      [1.0, -np.inf])

    def test_cantor_pair_global_tau_is_the_smaller_component(self):
        orc = oracle(ModelSpec("cantor_pair", {"J": 12}))
        qs = np.arange(-4.0, 4.5, 0.5)
        np.testing.assert_array_equal(
            orc.tau_global(qs), np.minimum((qs - 1) / 2, (qs - 1) / 4))
        np.testing.assert_array_equal(orc.tau(0.8, qs), (qs - 1) / 4)

    def test_synthesize_dispatch(self):
        assert "measure" in synthesize(ModelSpec("binomial", {"p": 0.3, "J": 8}))
        assert "pyramid" in synthesize(ModelSpec("fbm", {"H": 0.5, "J": 8}))
        with pytest.raises(ModelError):
            synthesize(ModelSpec("birkhoff", {"a": 0.1, "b": 0.2}))


class TestCantorPointwise:
    def test_exponents_on_the_components(self):
        from localmf import lower_exponent, plain_measure_family

        m = gen_cantor_pair(18)
        F = plain_measure_family(m, 18)
        # x = 0 sits in the left component (all-left cylinders), x = 1/2 in
        # the right one
        left = lower_exponent(F, 0.0, method="regression", fit_range=(3, 16))
        right = lower_exponent(F, 0.5, method="regression", fit_range=(3, 13))
        assert abs(left.value - 0.5) <= 0.05
        assert abs(right.value - 0.25) <= 0.05


def test_seed_range_validated():
    with pytest.raises(ModelError):
        ModelSpec("binomial", {"p": 0.3, "J": 8}, seed=-1)
    with pytest.raises(ModelError):
        ModelSpec("binomial", {"p": 0.3, "J": 8}, seed=1 << 64)
