import hashlib
import math
import tracemalloc

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
from localmf.estimators import _legendre_rows, discrete_legendre
from localmf.synth import (_CHUNK, _SPLIT, OracleSpectrum, _as_function, _substream,
                           neglected_mass_rate, write_jumps)


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



def whole_generation_cascade(spec):
    """Reference cascade: each generation built whole in fresh arrays, as
    the generator did before it grew the masses in place."""
    J = int(spec.params["J"])
    p_fn = _as_function(spec.params["p"])
    masses = np.array([1.0])
    bound = 1.0
    for n in range(1, J + 1):
        width = 2.0 ** -(n - 1)
        mids = (np.arange(masses.size) + 0.5) * width
        ratios = p_fn(mids)
        r_min = ratios.min()
        if not (r_min > 0 and ratios.max() < 0.5):
            raise DomainError("the splitting map p(.) must take values in (0, 1/2)")
        children = np.empty(2 * masses.size)
        np.multiply(masses, ratios, out=children[0::2])
        np.multiply(masses, 1.0 - ratios, out=children[1::2])
        bound *= r_min
        if bound < 2.0 ** -1000 and (low := children[0::2].min()) < 2.0 ** -1022:
            raise RangeError(f"localized Bernoulli generation {n} has a mass of "
                             f"{low:.6g}, below the smallest normal double 2^-1022")
        masses = children
    return masses


# the p tables the local_dense and cli_files benchmark workloads draw at seed 1
_LOCAL_DENSE = [[0.0, 0.19816716604504578], [1.0, 0.42242075716661365]]
_CLI_FILES = [[0.0, 0.21674234351357782], [1.0, 0.44590009586385704]]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceCascade:
    """The cascade grown chunk by chunk in one buffer against the reference
    that builds each generation whole."""

    @pytest.mark.parametrize("kind, p", [
        ("binomial", 0.2), ("binomial", 0.3), ("binomial", 0.45),
        ("localized_bernoulli", _LOCAL_DENSE), ("localized_bernoulli", _CLI_FILES),
        ("localized_bernoulli", lambda x: 0.25 + 0.2 * np.sin(7.0 * x) ** 2),
    ], ids=["p0.2", "p0.3", "p0.45", "local_dense", "cli_files", "callable"])
    def test_bit_identical_at_J20(self, kind, p):
        spec = ModelSpec(kind, {"p": p, "J": 20})
        # generation 20 splits its 2^19 parents in several chunks
        assert 1 << 19 >= 4 * _SPLIT
        assert np.array_equal(gen_localized_bernoulli(spec).masses,
                              whole_generation_cascade(spec))

    @pytest.mark.parametrize("J", [*range(4, 21), 22])
    def test_bit_identical_at_every_J(self, J):
        for kind, p in (("binomial", 0.45), ("localized_bernoulli", _LOCAL_DENSE)):
            spec = ModelSpec(kind, {"p": p, "J": J})
            assert np.array_equal(gen_localized_bernoulli(spec).masses,
                                  whole_generation_cascade(spec))

    @pytest.mark.parametrize("kind, p, digest", [
        ("binomial", 0.3,
         "5f0a5962c97b5b212620617f0088bd7c6e214b14e2358a3f4484b6a0f41a3e1c"),
        ("localized_bernoulli", [[0.0, 0.2], [1.0, 0.45]],
         "9b0fbb4a87f94dd0965637c0782ebfc70c62ba51ef68fa2882d478a058fd78ed"),
    ], ids=["binomial", "bernoulli"])
    def test_J20_masses_keep_their_digest(self, kind, p, digest):
        # sha256 of the little-endian float64 masses of the whole-generation
        # generator
        masses = synthesize(ModelSpec(kind, {"p": p, "J": 20}))["measure"].masses
        assert hashlib.sha256(masses.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p, J", [
        (1e-30, 14), (1e-20, 18), (0.6, 8),
        # p is 0.3 up to x = 1/2, so every mass below 2^-1022 (from
        # generation 18 on) has a parent offset >= 2^16, outside the lowest
        # chunk
        (lambda x: np.where(x > 0.5, 1e-19, 0.3), 20),
    ], ids=["underflow", "subnormal", "p-above-half", "outside-lowest-chunk"])
    def test_errors_match_the_reference(self, p, J):
        assert 1 << 16 >= _SPLIT
        spec = ModelSpec("localized_bernoulli", {"p": p, "J": J})
        with pytest.raises((DomainError, RangeError)) as ref:
            whole_generation_cascade(spec)
        with pytest.raises(ref.type) as got:
            gen_localized_bernoulli(spec)
        assert str(got.value) == str(ref.value)

    def test_range_error_outside_the_lowest_chunk_names_generation_18(self):
        spec = ModelSpec("localized_bernoulli",
                         {"p": lambda x: np.where(x > 0.5, 1e-19, 0.3), "J": 20})
        with pytest.raises(RangeError, match="generation 18 has a mass of 4.94066e-324"):
            gen_localized_bernoulli(spec)

    def test_domain_error_at_the_same_generation(self):
        # p leaves (0, 1/2) only above x = 0.999, first reached by the
        # midpoint 1 - 2^-10 of generation 10; the midpoints (2k + 1) 2^-n
        # of generation n tell the generation the call reached
        def run(generator):
            seen = []

            def p(x):
                ticks = (np.asarray(x) * 2.0 ** 40).astype(np.int64)
                seen.append(40 - int(np.log2(ticks & -ticks).max()))
                return np.where(x > 0.999, 0.6, 0.3)

            with pytest.raises(DomainError) as err:
                generator(ModelSpec("localized_bernoulli", {"p": p, "J": 16}))
            return max(seen), str(err.value)

        assert run(gen_localized_bernoulli) == run(whole_generation_cascade)
        assert run(gen_localized_bernoulli)[0] == 10

    @pytest.mark.parametrize("p", [0.3, _LOCAL_DENSE], ids=["binomial", "table"])
    def test_traced_peak_at_J20(self, p):
        spec = ModelSpec("localized_bernoulli", {"p": p, "J": 20})
        finest = 8 << 20
        assert _traced_peak(lambda: synthesize(spec)) <= 1.25 * finest
        assert _traced_peak(lambda: plain_measure_family(
            synthesize(spec)["measure"], 20)) <= 2.2 * finest


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


@pytest.mark.parametrize("spec", [
    ModelSpec("localized_bernoulli", {"p": [[0.0, 0.2], [1.0, 0.45]], "J": 10}),
    ModelSpec("birkhoff", {"a": 0.3, "b": 0.8,
                           "gamma": [[0.0, 1.0], [1.0, 1.5]]}),
], ids=["localized_bernoulli", "birkhoff"])
def test_global_spectrum_is_the_max_of_the_local_ones(spec):
    # one batched transform over the 129 rows gives every local spectrum
    orc = oracle(spec)
    for H in (np.linspace(0.0, 3.0, 301), np.array([0.5]), 0.7):
        per_x = [orc.spectrum(x, H) for x in np.linspace(0.0, 1.0, 129)]
        assert np.array_equal(orc.spectrum_global(H), np.max(per_x, axis=0))


def parent_oracle(spec, realization=None):
    """Reference oracle: one branch of scalar-x closures per model kind, the
    global values taken by loops over x, as the oracle was before one
    builder made every kind's global values and spectra."""
    kind, params = spec.kind, spec.params
    fine_q = np.arange(-40.0, 40.0 + 1e-9, 0.05)
    ln2 = math.log(2.0)

    def binomial_tau(p_mass):
        lp, lq = math.log(p_mass), math.log(1.0 - p_mass)
        return lambda q: -np.logaddexp(np.asarray(q, dtype=float) * lp,
                                       np.asarray(q, dtype=float) * lq) / ln2

    def spectrum_max(taus, H):
        return _legendre_rows(fine_q, taus, np.atleast_1d(H), -math.inf,
                              1e-12).max(axis=0)

    def legendre_spectrum(tau):
        return lambda x, H: discrete_legendre(fine_q, tau(x, fine_q), np.atleast_1d(H),
                                              floor=-math.inf, endpoint_slope_tol=1e-12)

    if kind in ("binomial", "localized_bernoulli"):
        p_fn = _as_function(params["p"])

        def tau(x, q):
            return binomial_tau(float(p_fn(np.asarray(x, dtype=float))))(q)

        def pointwise(x, zero_digit_freq=0.5):
            px = float(p_fn(np.asarray(x, dtype=float)))
            return (-zero_digit_freq * math.log2(px)
                    - (1.0 - zero_digit_freq) * math.log2(1.0 - px))

        return OracleSpectrum(
            kind, tau, legendre_spectrum(tau),
            lambda q: np.array([tau(x, q) for x in np.linspace(0.0, 1.0, 513)]).min(axis=0),
            lambda H: spectrum_max([tau(x, fine_q) for x in np.linspace(0.0, 1.0, 129)], H),
            pointwise)

    if kind == "cantor_pair":
        def dim(x):
            return 0.5 if x < 0.5 else 0.25

        def tau(x, q):
            return (np.asarray(q, dtype=float) - 1.0) * dim(x)

        def spectrum(x, H):
            H = np.atleast_1d(np.asarray(H, dtype=float))
            return np.where(np.abs(H - dim(x)) <= 1e-12, dim(x), -math.inf)

        return OracleSpectrum(
            kind, tau, spectrum, lambda q: np.minimum(tau(0.25, q), tau(0.75, q)),
            lambda H: np.maximum(spectrum(0.25, H), spectrum(0.75, H)), dim)

    if kind in ("mbm", "fbm"):
        H_fn = _as_function(params["H"])
        H_vals = H_fn(np.linspace(0.0, 1.0, 2049))

        def Hx(x):
            return float(H_fn(np.asarray(x, dtype=float)))

        def spectrum(x, H):
            H = np.atleast_1d(np.asarray(H, dtype=float))
            return np.where(np.abs(H - Hx(x)) <= 1e-9, 1.0, -math.inf)

        def tau_global(p):
            p = np.asarray(p, dtype=float)
            return np.where(p >= 0, H_vals.min() * p, H_vals.max() * p) - 1.0

        def spectrum_global(H):
            H = np.atleast_1d(np.asarray(H, dtype=float))
            inside = (H >= H_vals.min() - 1e-9) & (H <= H_vals.max() + 1e-9)
            return np.where(inside, 1.0, -math.inf)

        return OracleSpectrum(
            kind, lambda x, p: Hx(x) * np.asarray(p, dtype=float) - 1.0, spectrum,
            tau_global, spectrum_global, Hx)

    if kind == "birkhoff":
        a, b = float(params["a"]), float(params["b"])
        gamma_fn = _as_function(params.get("gamma", 1.0))
        theta_fn = _as_function(params.get("theta", 0.0))

        def tau(x, p):
            p = np.asarray(p, dtype=float)
            g = float(gamma_fn(np.asarray(x, dtype=float)))
            th = float(theta_fn(np.asarray(x, dtype=float)))
            return (-np.logaddexp(-g * p * a, -g * p * b) + th * p) / ln2

        return OracleSpectrum(
            kind, tau, legendre_spectrum(tau),
            lambda p: np.array([tau(x, p) for x in np.linspace(0.0, 1.0, 513)]).min(axis=0),
            lambda H: spectrum_max([tau(x, fine_q) for x in np.linspace(0.0, 1.0, 129)], H))

    gamma_fn = _as_function(params["gamma"])
    path = realization
    ts = np.linspace(0.0, path.T, 257, endpoint=False)[1:]

    def gamma_at(t):
        return float(gamma_fn(path.value_at(t)))

    def spectrum(t, h):
        g = gamma_at(t)
        h = np.atleast_1d(np.asarray(h, dtype=float))
        return np.where((h >= 0) & (h <= 1.0 / g), h * g, -math.inf)

    def tau(t, p):
        return np.minimum(np.asarray(p, dtype=float) / gamma_at(t) - 1.0, 0.0)

    return OracleSpectrum(
        kind, tau, spectrum, lambda p: np.stack([tau(t, p) for t in ts]).min(axis=0),
        lambda h: np.stack([spectrum(t, h) for t in ts]).max(axis=0),
        lambda t: 1.0 / gamma_at(t))


_MARKOV_CI = ModelSpec("markov_jump", {
    "gamma": [[0.0, 0.5], [1.6, 0.9], [50.0, 0.9]], "T": 1.0, "N": 4096,
    "eps_trunc": 6.103515625e-05}, seed=3)
_ORACLE_SPECS = {
    "binomial-0.4": ModelSpec("binomial", {"p": 0.4}),
    "binomial-0.3": ModelSpec("binomial", {"p": 0.3}),
    "bernoulli": ModelSpec("localized_bernoulli", {"p": [[0.0, 0.2], [1.0, 0.45]]}),
    "local_dense": ModelSpec("localized_bernoulli", {"p": _LOCAL_DENSE}),
    "cli_files": ModelSpec("localized_bernoulli", {"p": _CLI_FILES}),
    "bernoulli-callable": ModelSpec("localized_bernoulli", {
        "p": lambda x: 0.25 + 0.2 * np.sin(7.0 * x) ** 2}),
    "cantor_pair": ModelSpec("cantor_pair", {"J": 18}),
    "mbm-0.6": ModelSpec("mbm", {"H": 0.6}),
    "fbm-0.5": ModelSpec("fbm", {"H": 0.5}),
    "mbm-table": ModelSpec("mbm", {"H": [[0.0, 0.4], [0.5, 0.7], [1.0, 0.45]]}),
    "mbm-callable": ModelSpec("mbm", {"H": lambda x: 0.5 + 0.2 * np.sin(2 * np.pi * x)}),
    "birkhoff": ModelSpec("birkhoff", {"a": 0.4, "b": 1.1}),
    "birkhoff-varying": ModelSpec("birkhoff", {
        "a": 0.3, "b": 0.8, "gamma": [[0.0, 1.0], [1.0, 1.5]],
        "theta": [[0.0, 0.1], [1.0, 0.3]]}),
    "markov_jump": _MARKOV_CI,
}
# the p and H grids of the acceptance tests, of the CLI (its default and
# -3:3:0.15) and of the perfbench gates, and x values of both
_P_GRIDS = [np.arange(-5.0, 5.5, 0.5), np.arange(-4.0, 4.25, 0.25),
            np.arange(-3.0, 3.5, 0.5), np.arange(-5.0, 5.5, 1.0),
            -3.0 + 0.15 * np.arange(41), np.linspace(-3.0, 3.0, 41),
            np.linspace(-10.0, 10.0, 41), np.arange(0.0, 3.25, 0.25)]
_H_GRIDS = [np.arange(5, 250) / 100.0, np.arange(5, 121) / 100.0,
            np.round(np.arange(301) * 0.01, 10)]
_ORACLE_XS = np.concatenate([np.arange(32) / 32.0, np.linspace(0.0, 1.0, 21),
                             [0.22, 0.3, 0.99]])


def _oracle_pair(name):
    spec = _ORACLE_SPECS[name]
    path = gen_markov_jump(spec) if spec.kind == "markov_jump" else None
    return oracle(spec, realization=path), parent_oracle(spec, path)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOracleBuilder:
    """One builder makes every kind's global values and Legendre spectra from
    its broadcast tau(x, p); each output equals the parent's bit for bit."""

    @pytest.mark.parametrize("name", _ORACLE_SPECS)
    def test_bit_identical_to_the_parent(self, name):
        new, old = _oracle_pair(name)
        assert (new.pointwise is None) == (old.pointwise is None)
        for p in _P_GRIDS:
            assert _same_bits(new.tau_global(p), old.tau_global(p))
            for x in _ORACLE_XS:
                assert _same_bits(new.tau(float(x), p), old.tau(float(x), p))
        for H in _H_GRIDS:
            for x in _ORACLE_XS[::6]:
                assert _same_bits(new.spectrum(float(x), H), old.spectrum(float(x), H))
        H = _H_GRIDS[0]
        assert _same_bits(new.spectrum_global(H), old.spectrum_global(H))
        if new.pointwise is not None:
            for x in _ORACLE_XS:
                assert new.pointwise(float(x)) == old.pointwise(float(x))
                assert math.copysign(1.0, new.pointwise(float(x))) == \
                    math.copysign(1.0, old.pointwise(float(x)))
        if _ORACLE_SPECS[name].kind in ("binomial", "localized_bernoulli"):
            for x in _ORACLE_XS[::5]:
                for freq in (0.0, 0.3, 1.0):
                    assert new.pointwise(float(x), zero_digit_freq=freq) == \
                        old.pointwise(float(x), zero_digit_freq=freq)
                    assert new.pointwise(float(x), freq) == old.pointwise(float(x), freq)

    @pytest.mark.parametrize("name", _ORACLE_SPECS)
    def test_broadcast_rows_equal_the_scalar_calls(self, name):
        orc, _ = _oracle_pair(name)
        xs, p, H = _ORACLE_XS, _P_GRIDS[5], _H_GRIDS[2]
        assert _same_bits(orc.tau(xs, p), np.stack([orc.tau(float(x), p) for x in xs]))
        assert _same_bits(orc.spectrum(xs[::4], H),
                          np.stack([orc.spectrum(float(x), H) for x in xs[::4]]))
        grid = xs[:12].reshape(3, 4)
        assert orc.tau(grid, p).shape == (3, 4, p.size)
        assert orc.spectrum(grid, H).shape == (3, 4, H.size)
        if orc.pointwise is not None:
            assert _same_bits(orc.pointwise(xs),
                              np.array([orc.pointwise(float(x)) for x in xs]))
            assert orc.pointwise(grid).shape == (3, 4)

    @pytest.mark.parametrize("p", [1.5, 0.0, 1.0, math.nan])
    def test_cascade_ratio_outside_the_unit_interval_is_domain_error(self, p):
        orc = oracle(ModelSpec("binomial", {"p": p}))
        for call in (lambda: orc.tau(0.5, np.array([1.0, 2.0])), lambda: orc.pointwise(0.5),
                     lambda: orc.tau_global(np.array([1.0]))):
            with pytest.raises(DomainError, match=r"\(0, 1\)"):
                call()

    def test_localized_ratio_leaving_the_unit_interval_is_domain_error(self):
        orc = oracle(ModelSpec("localized_bernoulli", {"p": [[0.0, 0.5], [1.0, 1.5]]}))
        orc.tau(0.2, np.array([1.0, 2.0]))            # p(0.2) = 0.7: tau is symmetric
        with pytest.raises(DomainError):
            orc.tau(np.array([0.2, 0.9]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            orc.tau_global(np.array([1.0, 2.0]))

    def test_binomial_oracle_needs_a_scalar_p(self):
        spec = ModelSpec("binomial", {"p": [[0, 0.2], [1, 0.4]], "J": 10})
        for build in (oracle, synthesize):
            with pytest.raises(ModelError, match="binomial needs a scalar splitting ratio p"):
                build(spec)
