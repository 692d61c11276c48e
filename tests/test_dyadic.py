import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmf import (
    AnalysisError,
    DomainError,
    DyadicFamily,
    EmptyWindowError,
    ModelSpec,
    OutOfWindowError,
    ScaleError,
    Window,
    WindowError,
    besov_membership,
    gen_mbm,
    leaders,
    lower_exponent,
    uniform_exponent,
    upper_exponent,
)
from localmf.dyadic import _chain_exponents, _line_fit


def power_law_family(alpha, j_max=12, c=1.0):
    values = [np.full(1 << j, c * 2.0 ** (-alpha * j))
              for j in range(j_max + 1)]
    return DyadicFamily(0, j_max, values)


def sup_besov(F, w):
    """Besov membership for p = infinity on the window w."""
    return besov_membership(F, 0.5, math.inf, window=w)


class TestRestrict:
    """Estimators restricted to a window that holds no cube of the finest
    scale raise EmptyWindowError."""

    def test_too_narrow(self):
        F = power_law_family(0.5, j_max=8)
        for estimate in (uniform_exponent, sup_besov):
            with pytest.raises(EmptyWindowError):
                estimate(F, Window(0.1, 0.1 + 2.0 ** -10))


class TestWindow:
    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=50)
    def test_partition_exactness(self, m, data):
        # dyadic split of a dyadic window: index sets are disjoint and
        # their union matches, at every scale at least as fine as the split
        denom = 1 << m
        a = data.draw(st.integers(min_value=0, max_value=denom - 2))
        b = data.draw(st.integers(min_value=a + 2, max_value=denom))
        c = data.draw(st.integers(min_value=a + 1, max_value=b - 1))
        w = Window(a / denom, b / denom)
        w1, w2 = Window(a / denom, c / denom), Window(c / denom, b / denom)
        for j in range(m, 10):
            k = set(range(*w.cube_range(j)))
            k1 = set(range(*w1.cube_range(j)))
            k2 = set(range(*w2.cube_range(j)))
            assert not (k1 & k2)
            assert k1 | k2 == k


class TestExponents:
    def test_exact_power_law_both_methods(self):
        F = power_law_family(0.7)
        for method in ("tail-min", "regression"):
            est = lower_exponent(F, 0.3, method=method)
            assert est.value == pytest.approx(0.7, abs=1e-12)
            est = upper_exponent(F, 0.3, method=method)
            assert est.value == pytest.approx(0.7, abs=1e-12)

    def test_power_law_with_prefactor(self):
        # regression is exact for any prefactor; the anchored tail chords
        # carry the documented log2(c)/j bias
        F = power_law_family(0.7, c=8.0)
        est = lower_exponent(F, 0.3, method="regression")
        assert est.value == pytest.approx(0.7, abs=1e-12)
        est = lower_exponent(F, 0.3, method="tail-min", fit_range=(3, 12))
        assert est.value == pytest.approx(0.7 - 3.0 / 3.0, abs=1e-12)

    def test_binomial_digit_chain(self):
        # e along the chain of x = 0 is p^j exactly
        p = 0.3
        j_max = 12
        values = []
        for j in range(j_max + 1):
            v = np.ones(1 << j)
            v[0] = p ** j
            values.append(v)
        F = DyadicFamily(0, j_max, values)
        lo = lower_exponent(F, 0.0)
        hi = upper_exponent(F, 0.0)
        assert lo.value == pytest.approx(-math.log2(p), abs=1e-12)
        assert hi.value == pytest.approx(-math.log2(p), abs=1e-12)

    def test_alternating_upper_lower(self):
        # e alternates 2^-j (even j) and 2^-2j (odd j): anchored chords are
        # exactly 1 and 2
        j_max = 13
        values = [np.full(1 << j, 2.0 ** (-j if j % 2 == 0 else -2 * j))
                  for j in range(j_max + 1)]
        F = DyadicFamily(0, j_max, values)
        assert lower_exponent(F, 0.4).value == pytest.approx(1.0, abs=1e-12)
        assert upper_exponent(F, 0.4).value == pytest.approx(2.0, abs=1e-12)

    def test_zero_family_is_plus_inf(self):
        j_max = 8
        values = [np.zeros(1 << j) for j in range(j_max + 1)]
        F = DyadicFamily(0, j_max, values)
        assert lower_exponent(F, 0.2).value == math.inf
        assert upper_exponent(F, 0.2).value == math.inf

    def test_out_of_window(self):
        F = power_law_family(0.5)
        for x in (1.0, math.nan):
            with pytest.raises(OutOfWindowError):
                lower_exponent(F, x)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=40)
    def test_lower_le_upper(self, x, seed):
        rng = np.random.default_rng(seed)
        j_max = 10
        values = [rng.random(1 << j) + 0.01 for j in range(j_max + 1)]
        F = DyadicFamily(0, j_max, values)
        lo = lower_exponent(F, x)
        hi = upper_exponent(F, x)
        assert lo.value <= hi.value + 1e-12

    def test_estimate_diagnostics(self):
        F = power_law_family(0.7)
        est = lower_exponent(F, 0.3)
        assert est.fit_range == (3, 12)
        assert est.residual == pytest.approx(0.0, abs=1e-10)
        assert est.slope_fit == pytest.approx(0.7, abs=1e-10)


class TestMaskedPointwise:
    """Pointwise exponents read only the valid cubes of the chain of x, as
    uniform exponents read only the valid cubes of a window."""

    def test_invalid_chain_raises_like_an_invalid_window(self):
        # right half invalid, with values whose chords (2) differ from the
        # valid left half's (1/2)
        J = 10
        values = [np.where(np.arange(1 << j) < (1 << j) / 2, 2.0 ** (-j / 2),
                           2.0 ** (-2 * j)) for j in range(J + 1)]
        valid = [np.arange(1 << j) < (1 << j) / 2 for j in range(J + 1)]
        F = DyadicFamily(0, J, values, valid)
        with pytest.raises(EmptyWindowError):
            uniform_exponent(F, Window(0.5, 1.0))
        for exponent in (lower_exponent, upper_exponent):
            with pytest.raises(EmptyWindowError):
                exponent(F, 0.75)
            assert exponent(F, 0.25).value == pytest.approx(0.5, abs=1e-12)

    def test_leader_edge_skips_wrap_around_cubes(self):
        # at x = 0.01 the chain cube is the wrap-around cube k = 0 up to
        # scale 6, so the masked family fits the interior scales 7..11
        _, P = gen_mbm(ModelSpec("mbm", {"H": 0.6, "J": 12}, seed=1))
        got = lower_exponent(leaders(P), 0.01)
        want = lower_exponent(leaders(P, include_boundary=True), 0.01,
                              fit_range=(7, 11))
        assert got.fit_range == (3, 11)
        assert (got.value, got.slope_fit) == (want.value, want.slope_fit)

    @given(st.integers(min_value=4, max_value=10),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0.1, 0.5, 0.9]),
           st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=80, deadline=None)
    def test_estimate_over_the_valid_chain(self, J, x, p_zero, p_valid, seed):
        rng = np.random.default_rng(seed)
        values = [np.where(rng.random(1 << j) < p_zero, 0.0,
                           rng.uniform(0.01, 1.0, 1 << j)) * 2.0 ** -j
                  for j in range(J + 1)]
        valid = [rng.random(1 << j) < p_valid for j in range(J + 1)]
        F = DyadicFamily(0, J, values, valid)
        chain = [(j, values[j][int(x * (1 << j))]) for j in range(3, J + 1)
                 if valid[j][int(x * (1 << j))]]
        nonzero = [(j, v) for j, v in chain if v > 0]
        chords = [math.log2(v) / -j for j, v in nonzero]
        for exponent, tail in ((lower_exponent, min), (upper_exponent, max)):
            for method in ("tail-min", "regression"):
                if not chain:
                    with pytest.raises(EmptyWindowError):
                        exponent(F, x, method)
                    continue
                value = exponent(F, x, method).value
                assert not math.isnan(value)
                if not nonzero:
                    assert value == math.inf
                elif method == "regression" and len(nonzero) >= 2:
                    js, vs = np.array(nonzero).T
                    slope = np.polyfit(-js, np.log2(vs), 1)[0]
                    assert value == pytest.approx(slope, rel=1e-9, abs=1e-9)
                else:
                    assert value == pytest.approx(tail(chords), rel=1e-12)


def random_family(J, masked, zeros, seed):
    """Values u 2^-j, u uniform in [0.01, 1], with a share ``zeros`` of them
    0; with ``masked`` about a fifth of the cubes flagged invalid."""
    rng = np.random.default_rng(seed)
    values = [np.where(rng.random(1 << j) < zeros, 0.0,
                       rng.uniform(0.01, 1.0, 1 << j)) * 2.0 ** -j
              for j in range(J + 1)]
    valid = [rng.random(1 << j) >= 0.2 for j in range(J + 1)]
    return DyadicFamily(0, J, values, valid if masked else None)


def outcome(call):
    """The repr of call()'s result, exact for every float in it, or the
    type of the AnalysisError it raises."""
    try:
        return repr(call())
    except AnalysisError as exc:
        return type(exc)


class TestChainBatch:
    """One batch of chains gives, row for row and bit for bit, what the
    one-point calls give."""

    @given(st.integers(4, 10), st.booleans(), st.sampled_from([0.0, 0.3]),
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=64),
           st.sampled_from(["tail-min", "regression"]), st.booleans(),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_one_point_calls(self, J, masked, zeros, seed, xs,
                                        method, upper, data):
        F = random_family(J, masked, zeros, seed)
        fit_range = data.draw(st.one_of(st.none(), st.integers(1, J - 1).flatmap(
            lambda j1: st.tuples(st.just(j1), st.integers(j1 + 1, J)))))
        one_point = upper_exponent if upper else lower_exponent
        singles = [outcome(lambda: one_point(F, x, method, fit_range))
                   for x in xs]
        if EmptyWindowError in singles:
            # a batch holding an empty chain raises; the others still fit
            with pytest.raises(EmptyWindowError):
                _chain_exponents(F, xs, method, fit_range, upper)
            xs = [x for x, s in zip(xs, singles) if s is not EmptyWindowError]
            singles = [s for s in singles if s is not EmptyWindowError]
        assert all(isinstance(s, str) for s in singles)
        if xs:
            batch = _chain_exponents(F, xs, method, fit_range, upper)
            assert [repr(batch.row(i)) for i in range(len(xs))] == singles

    def test_one_empty_chain_fails_the_batch(self):
        # the right half is invalid at every scale
        J = 8
        values = [np.full(1 << j, 2.0 ** -j) for j in range(J + 1)]
        valid = [np.arange(1 << j) < (1 << j) / 2 for j in range(J + 1)]
        F = DyadicFamily(0, J, values, valid)
        for method in ("tail-min", "regression"):
            assert _chain_exponents(F, [0.1, 0.3], method, None,
                                    False).value.shape == (2,)
            with pytest.raises(EmptyWindowError):
                _chain_exponents(F, [0.1, 0.75, 0.3], method, None, False)

    @pytest.mark.parametrize("x", [-2.0 ** -20, 1.0, 2.0, math.inf, math.nan])
    def test_point_outside_the_domain(self, x):
        F = power_law_family(0.5)
        with pytest.raises(OutOfWindowError):
            _chain_exponents(F, [0.25, x, 0.5], "tail-min", None, False)

    def test_three_scale_family_fits_its_two_chain_values(self):
        rng = np.random.default_rng(3)
        values = [rng.uniform(0.1, 1.0, 1 << j) for j in range(3)]
        F = DyadicFamily(0, 2, values)
        js = np.array([1.0, 2.0])
        for x in (0.1, 0.3, 0.6, 0.9):
            v = [values[j][int(x * (1 << j))] for j in (1, 2)]
            want = np.polyfit(-js, np.log2(v), 1)[0]
            est = lower_exponent(F, x, "regression", fit_range=(1, 2))
            assert est.fit_range == (1, 2)
            assert est.value == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestFamilyValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            DyadicFamily(0, 0, [np.array([-1.0])])

    def test_rejects_wrong_length(self):
        with pytest.raises(ScaleError):
            DyadicFamily(0, 1, [np.ones(1), np.ones(3)])

    @pytest.mark.parametrize("valid", [
        [np.ones(1 << j, dtype=bool) for j in range(3)],
        [np.ones(1 << j, dtype=bool) for j in range(3)] + [np.ones((2, 4), bool)],
    ], ids=["too-few-masks", "2-d-mask"])
    def test_rejects_misshapen_valid_masks(self, valid):
        with pytest.raises(ScaleError):
            DyadicFamily(0, 3, [np.ones(1 << j) for j in range(4)], valid)

    @pytest.mark.parametrize("method, j", [("n_cubes", 0), ("valid_at", 0),
                                           ("n_cubes", 6)])
    def test_scale_outside_range_raises(self, method, j):
        # scales 2..5: index j - j_min would wrap at 0 and overrun at 6
        sizes = [1 << s for s in range(2, 6)]
        F = DyadicFamily(2, 5, [np.ones(n) for n in sizes],
                         valid=[np.ones(n, dtype=bool) for n in sizes])
        with pytest.raises(ScaleError):
            getattr(F, method)(j)


class TestLineFit:
    def test_matches_polyfit_per_row(self):
        rng = np.random.default_rng(5)
        x = -np.arange(3.0, 15.0)
        Y = rng.normal(size=(300, x.size)) + rng.normal(size=(300, 1)) * x
        Y[rng.random(Y.shape) < 0.3] = np.nan
        Y[rng.random(Y.shape) < 0.05] = -np.inf
        Y[:3] = np.nan
        Y[1, 4] = 2.0                            # one point only
        Y[2, [0, 7]] = [1.0, -3.0]               # exactly two points
        slope, intercept, rms = _line_fit(x, Y)
        n_fitted = 0
        for row, a, b, r in zip(Y, slope, intercept, rms):
            m = np.isfinite(row)
            if m.sum() < 2:
                assert np.isnan(a) and np.isnan(b) and np.isnan(r)
                continue
            coef = np.polyfit(x[m], row[m], 1)
            resid = row[m] - np.polyval(coef, x[m])
            assert a == pytest.approx(coef[0], abs=1e-12)
            assert b == pytest.approx(coef[1], abs=1e-12)
            assert r == pytest.approx(np.sqrt(np.mean(resid ** 2)), abs=1e-12)
            n_fitted += 1
        assert n_fitted >= 290

    def test_residuals_of_huge_values_scale_exactly(self):
        # values near 1e300 square to inf; a fit of Y / 2^1000 scales back
        # exactly, so the residuals must be the same bits times 2^1000
        rng = np.random.default_rng(6)
        x = -np.arange(3.0, 15.0)
        Y = (rng.normal(size=(20, x.size)) + x) * 1e300
        got = _line_fit(x, Y)
        for a, b in zip(got, _line_fit(x, Y / 2.0 ** 1000)):
            np.testing.assert_array_equal(a, b * 2.0 ** 1000)
        assert np.all(np.isfinite(got[2])) and np.all(got[2] > 1e299)


class TestValidationErrors:
    def test_invalid_window(self):
        with pytest.raises(WindowError):
            Window(0.5, 0.5)
        with pytest.raises(WindowError):
            Window(-0.1, 0.5)
        with pytest.raises(WindowError):
            Window(0.2, 1.1)
        with pytest.raises(WindowError):
            Window.ball(0.5, 0.0)

    @pytest.mark.parametrize("x, r", [
        (math.nan, 0.25), (0.5, math.nan), (math.inf, 0.25), (-math.inf, 0.25),
        (0.5, math.inf)])
    def test_non_finite_ball_raises(self, x, r):
        with pytest.raises(WindowError):
            Window.ball(x, r)
