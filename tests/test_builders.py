import math
import tracemalloc

import numpy as np
import pytest

from localmf import builders
from localmf import (
    BinnedMeasure,
    DigitPotential,
    DomainError,
    RangeError,
    ScaleError,
    SignalError,
    birkhoff_family,
    lower_exponent,
    measure_family,
    oscillation_family,
    plain_measure_family,
    read_measure,
    write_measure,
)


def binomial_bins(p, J):
    masses = np.array([1.0])
    for _ in range(J):
        masses = np.column_stack([masses * p, masses * (1 - p)]).ravel()
    return BinnedMeasure(masses)


def per_lag_second_order(x, j_max):
    """Order-2 oscillations one lag at a time, the reading the blocked
    builder replaced: d_h = |x[i+2h] - 2 x[i+h] + x[i]| sits at
    pad[n:2n-2h] and, as lags run downward, -inf fills the rest, so
    pad[n-m:2n+m] is 2^j + 2 rows of m and cube k takes q whole rows and r
    entries of the next from row k on, (q, r) = divmod(3m - 2h, m)."""
    n = x.size
    J = n.bit_length() - 1
    best = [np.zeros(1 << j) for j in range(j_max + 1)]
    pad = np.full(3 * n, -np.inf)
    for h in range((n - 1) // 2, 0, -1):
        np.abs(x[2 * h:] - 2.0 * x[h:n - h] + x[:n - 2 * h], out=pad[n:2 * n - 2 * h])
        for j in range(j_max + 1):
            m = 1 << (J - j)
            if 2 * h > 3 * m - 1:
                break
            rows = pad[n - m:2 * n + m].reshape(-1, m)
            q, r = divmod(3 * m - 2 * h, m)
            row_max = rows.max(axis=1)
            nk = 1 << j
            for s in range(q):
                np.maximum(best[j], row_max[s:s + nk], out=best[j])
            if r:
                np.maximum(best[j], rows[q:q + nk, :r].max(axis=1), out=best[j])
    return best


def order2_signal(kind, J):
    rng = np.random.default_rng(J + 100)
    n = 1 << J
    return {"walk": lambda: np.cumsum(rng.standard_normal(n)),
            "noise": lambda: rng.standard_normal(n),
            "square": lambda: np.arange(n, dtype=float) ** 2,
            "constant": lambda: np.full(n, 3.7)}[kind]()


class TestMeasureFamilies:
    def test_uniform_neighborhood_mass(self):
        m = BinnedMeasure(np.full(1 << 10, 2.0 ** -10))
        F = measure_family(m, 8)
        for j in (4, 6, 8):
            v = F.values_at(j)
            np.testing.assert_allclose(v[1:-1], 3.0 * 2.0 ** -j, rtol=1e-12)
            # clipped edges hold two cubes' worth
            assert v[0] == pytest.approx(2.0 * 2.0 ** -j, rel=1e-12)

    def test_binomial_leftmost(self):
        p = 0.3
        m = binomial_bins(p, 12)
        F3 = measure_family(m, 12)
        F1 = plain_measure_family(m, 12)
        for j in (4, 8, 12):
            # mu(lambda_(j,0)) = p^j; 3-lambda adds the right neighbor mass
            assert F1.values_at(j)[0] == pytest.approx(p ** j, rel=1e-12)
            assert F3.values_at(j)[0] == pytest.approx(
                p ** j + p ** (j - 1) * (1 - p), rel=1e-12)

    def test_probability_total_per_scale(self):
        m = binomial_bins(0.3, 10)
        F = plain_measure_family(m, 10)
        for j in F.scales:
            assert F.values_at(j).sum() == pytest.approx(1.0, abs=1e-12)

    def test_structure_sum_closed_form(self):
        # sum of mu(lambda)^q equals (p^q + (1-p)^q)^j exactly
        p, J = 0.3, 12
        m = binomial_bins(p, J)
        F = plain_measure_family(m, J)
        for q in (-2.0, 0.5, 2.0, 3.0):
            for j in (4, 8, 12):
                S = np.sum(F.values_at(j) ** q)
                assert S == pytest.approx((p ** q + (1 - p) ** q) ** j, rel=1e-9)

    def test_neighborhood_dominates_plain(self):
        m = binomial_bins(0.4, 10)
        F3 = measure_family(m, 10)
        F1 = plain_measure_family(m, 10)
        for j in F1.scales:
            assert np.all(F3.values_at(j) >= F1.values_at(j) - 1e-15)

    def test_scale_errors(self):
        m = binomial_bins(0.4, 8)
        with pytest.raises(ScaleError):
            measure_family(m, 9)
        with pytest.raises(ScaleError):
            plain_measure_family(m, 3)

    def test_binomial_exponent_at_dyadic_point(self):
        # eventually-zero digits: regression recovers -log2(p) exactly
        p = 0.3
        m = binomial_bins(p, 14)
        F = plain_measure_family(m, 14)
        est = lower_exponent(F, 0.25, method="regression")
        assert est.value == pytest.approx(-math.log2(p), abs=1e-9)


def concatenated_neighbor3(a, op, pad):
    """op over {k-1, k, k+1} from two padded copies, the formula the
    slice-based builder replaced."""
    left = np.concatenate(([pad], a[:-1]))
    right = np.concatenate((a[1:], [pad]))
    return op(op(left, a), right)


class TestNeighbor3:
    @pytest.mark.parametrize("op, pad", [(np.add, 0.0), (np.maximum, -np.inf),
                                         (np.minimum, np.inf)],
                             ids=["add", "max", "min"])
    def test_bit_identical_to_the_concatenated_formula(self, op, pad):
        rng = np.random.default_rng(7)
        sizes = [1, 2, *rng.integers(3, 5000, size=8)]
        for n in sizes:
            # signed zeros and ties too, where max and min pick an operand
            for a in (rng.standard_normal(n), rng.choice([-0.0, 0.0, 1.5], n)):
                got = builders._neighbor3(a, op, pad)
                want = concatenated_neighbor3(a, op, pad)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMeasureValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_rejects_non_finite_or_negative_masses(self, bad):
        for k in (0, 9, 15):
            masses = np.full(16, 1.0 / 16)
            masses[k] = bad
            with pytest.raises(DomainError,
                               match=r"^bin masses must be finite and >= 0$"):
                BinnedMeasure(masses)

    def test_validation_allocates_no_copy(self):
        masses = np.full(1 << 20, 2.0 ** -20)
        tracemalloc.start()
        try:
            BinnedMeasure(masses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < masses.nbytes / 64


class TestOscillation:
    def test_linear_ramp(self):
        J = 12
        x = np.arange(1 << J) / float(1 << J)
        F = oscillation_family(x, 1, 9)
        for j in (4, 6, 9):
            v = F.values_at(j)[1:-1]
            np.testing.assert_allclose(v, 3.0 * 2.0 ** -j, atol=2.0 ** -J + 1e-15)

    def test_constant(self):
        F = oscillation_family(np.full(1 << 8, 3.7), 1, 6)
        for j in F.scales:
            assert np.all(F.values_at(j) == 0.0)

    def test_cusp_exponent(self):
        J = 16
        xs = np.arange(1 << J) / float(1 << J)
        f = np.abs(xs - 0.5) ** 0.6
        F = oscillation_family(f, 1, 13)
        est = lower_exponent(F, 0.5, method="regression")
        assert est.value == pytest.approx(0.6, abs=0.05)

    def test_superadditive_refinement(self):
        rng = np.random.default_rng(5)
        f = np.cumsum(rng.standard_normal(1 << 10))
        F = oscillation_family(f, 1, 8)
        for j in range(F.j_min, 8):
            parent = F.values_at(j)
            child = F.values_at(j + 1)
            assert np.all(parent >= np.maximum(child[0::2], child[1::2]) - 1e-12)

    def test_order_error(self):
        with pytest.raises(DomainError):
            oscillation_family(np.zeros(64), 3, 4)

    def test_second_order_brute_force(self):
        rng = np.random.default_rng(11)
        J = 6
        f = rng.standard_normal(1 << J)
        F = oscillation_family(f, 2, 4)
        n = f.size
        for j in (2, 3, 4):
            m = 1 << (J - j)
            for k in range(1 << j):
                a = max(0, (k - 1) * m)
                b = min(n, (k + 2) * m)
                best = 0.0
                for i in range(a, b):
                    for h in range(1, (b - 1 - i) // 2 + 1):
                        best = max(best, abs(f[i + 2 * h] - 2 * f[i + h] + f[i]))
                assert F.values_at(j)[k] == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("J", [6, 7])
    @pytest.mark.parametrize("kind", ["walk", "noise", "square"])
    def test_second_order_exact_at_every_scale(self, J, kind):
        # on i^2 every second difference of lag h is 2 h^2, so each cube
        # shows whether its largest admissible lag was reached
        f = {"walk": np.cumsum(np.random.default_rng(J).standard_normal(1 << J)),
             "noise": np.random.default_rng(J).standard_normal(1 << J),
             "square": np.arange(1 << J, dtype=float) ** 2}[kind]
        F = oscillation_family(f, 2, J)
        n = f.size
        for j in range(J + 1):
            m = 1 << (J - j)
            for k in range(1 << j):
                a = max(0, (k - 1) * m)
                b = min(n, (k + 2) * m)
                best = 0.0
                for h in range(1, (3 * m - 1) // 2 + 1):
                    for i in range(a, b - 2 * h):
                        best = max(best, abs(f[i + 2 * h] - 2.0 * f[i + h] + f[i]))
                assert F.values_at(j)[k] == best, (j, k)

    def test_second_order_annihilates_affine(self):
        x = np.arange(1 << 8) / 256.0
        F = oscillation_family(2.0 * x + 1.0, 2, 5)
        for j in F.scales:
            assert np.all(F.values_at(j) < 1e-12)

    @pytest.mark.parametrize("J", range(12))
    @pytest.mark.parametrize("budget", ["default", "few-blocks", "one-lag"])
    def test_second_order_blocks_equal_the_per_lag_loop(self, monkeypatch, J, budget):
        # "few-blocks" cuts every J >= 5 into at least 3 blocks of several
        # lags, "one-lag" gives each lag its own block (a lag costs at least
        # 2n entries), so the seams between blocks are read at every scale
        n = 1 << J
        if budget == "few-blocks":
            monkeypatch.setattr(builders, "_WORK", max(n, n * n // 4))
        elif budget == "one-lag":
            monkeypatch.setattr(builders, "_WORK", n)
        sizes = []
        runs = builders._runs

        def spy(cost, budget):
            bounds = runs(cost, budget)
            sizes.append(np.diff(bounds))
            return bounds

        monkeypatch.setattr(builders, "_runs", spy)
        for j_max in sorted({0, max(0, J - 3), J}):
            for kind in ("walk", "noise", "square", "constant"):
                x = order2_signal(kind, J)
                F = oscillation_family(x, 2, j_max)
                want = per_lag_second_order(x, j_max)
                for j in F.scales:
                    assert np.array_equal(F.values_at(j), want[j]), (j_max, kind, j)
        if budget == "few-blocks" and J >= 5:
            assert all(s.size >= 3 and s.max() >= 2 for s in sizes)
        if budget == "one-lag":
            assert all(np.all(s == 1) for s in sizes)

    def test_second_order_scratch_stays_under_16_mb(self):
        x = order2_signal("walk", 12)
        oscillation_family(x, 2, 9)         # warm numpy up
        tracemalloc.start()
        try:
            oscillation_family(x, 2, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("x", [np.full(64, 1e308), np.linspace(1e308, 1.7e308, 64)],
                             ids=["constant", "ramp"])
    def test_near_the_largest_double(self, order, x):
        # 2 x[i+h] overflows here; the values are those of x / 4 (an exact
        # copy) scaled back by 4, and 0 on the constant
        F = oscillation_family(x, order, 6)
        if order == 2:
            want = [4.0 * v for v in per_lag_second_order(x / 4.0, 6)]
        else:
            quarter = oscillation_family(x / 4.0, 1, 6)
            want = [4.0 * quarter.values_at(j) for j in quarter.scales]
        for j in F.scales:
            assert np.array_equal(F.values_at(j), want[j]), j
            assert np.all(np.isfinite(F.values_at(j)))
            if x[0] == x[-1]:
                assert np.all(F.values_at(j) == 0.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_oscillation_beyond_the_largest_double_is_range_error(self, order):
        x = np.tile([1e308, -1e308], 32)
        with pytest.raises(RangeError, match="at scale 0 "):
            oscillation_family(x, order, 6)


class TestBirkhoff:
    @pytest.mark.filterwarnings("ignore:digit potential")
    def test_constant_potential(self):
        c = 0.8
        F = birkhoff_family(DigitPotential(c, c), 8)
        for j in (4, 8):
            np.testing.assert_allclose(F.values_at(j), math.exp(-j * c), rtol=1e-12)
        # constant family: tau(p) = p c / ln 2 - 1
        from localmf import scaling_function
        ps = np.arange(-2.0, 2.5, 0.5)
        sf = scaling_function(F, None, ps)
        np.testing.assert_allclose(sf.tau, ps * c / math.log(2) - 1.0, atol=1e-9)

    def test_warns_on_equal_digits(self):
        with pytest.warns(UserWarning):
            birkhoff_family(DigitPotential(0.5, 0.5), 6)

    def test_structure_sum_matches_brute_force(self):
        a, b = 0.4, 1.1
        F = birkhoff_family(DigitPotential(a, b), 12)
        for p in (-2.0, 1.0, 3.0):
            for j in (4, 8, 12):
                brute = sum(
                    math.exp(-p * ((j - bin(k).count("1")) * a
                                   + bin(k).count("1") * b))
                    for k in range(1 << j))
                S = np.sum(F.values_at(j) ** p)
                assert S == pytest.approx(brute, rel=1e-9)
                assert S == pytest.approx(
                    (math.exp(-p * a) + math.exp(-p * b)) ** j, rel=1e-9)

    def test_gamma_must_be_positive(self):
        with pytest.raises(DomainError):
            birkhoff_family(
                DigitPotential(0.2, 0.9, gamma_fn=lambda x: x - 0.5), 6)

    @pytest.mark.parametrize("a, b", [(60.0, 80.0), (-60.0, -80.0)],
                             ids=["underflow", "overflow"])
    def test_exponent_beyond_doubles_is_range_error(self, a, b):
        # exp(-80 j) is below the normal doubles from scale 9 on: stored,
        # its zeros would read as outside the support (tau(0) = -0.47
        # instead of -1 at j_max = 14); exp(80 j) overflows
        with pytest.raises(RangeError, match="at scale 9 "):
            birkhoff_family(DigitPotential(a, b), 14)

    def test_varying_gamma_values(self):
        # with S_j constant per cylinder, e is the two-point sup of the
        # modulated exponential
        gamma = lambda x: 1.0 + x
        theta = lambda x: 0.5 * x
        pot = DigitPotential(0.3, 0.7, gamma, theta)
        F = birkhoff_family(pot, 6)
        j, k = 5, 11
        n_b = bin(k).count("1")
        s = (j - n_b) * 0.3 + n_b * 0.7
        expected = max(
            math.exp(-gamma(x) * s - j * theta(x))
            for x in (k * 2.0 ** -j, (k + 0.5) * 2.0 ** -j))
        assert F.values_at(j)[k] == pytest.approx(expected, rel=1e-12)


class TestMeasureIO:
    def test_round_trip(self, tmp_path):
        m = binomial_bins(0.35, 6)
        path = tmp_path / "measure.txt"
        write_measure(path, m)
        back = read_measure(path)
        assert back.J == m.J
        assert back.total_mass == pytest.approx(m.total_mass, rel=1e-15)
        np.testing.assert_array_equal(back.masses, m.masses)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3,1.0\n0.5\n0.5\n")  # wrong count
        with pytest.raises(Exception):
            read_measure(path)

    @pytest.mark.parametrize("text", ["x,1.0\n0.5\n0.5\n",
                                      "1,1.0\n0.5\nabc\n"],
                             ids=["header", "row"])
    def test_unparsable_text_is_signal_error(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SignalError):
            read_measure(path)

    @pytest.mark.parametrize("text", ["-1,1.0\n1.0\n", "40,1.0\n1.0\n"],
                             ids=["negative", "oversized"])
    def test_header_scale_checked(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(SignalError, match="header scale"):
            read_measure(path)

    def test_total_mass_validated(self):
        with pytest.raises(DomainError):
            BinnedMeasure(np.full(16, 1.0), total_mass=2.0)


class TestBirkhoffLocalPressure:
    def test_varying_gamma_local_tau_matches_pressure_formula(self):
        import localmf as mf

        gamma = lambda x: 0.8 + 0.4 * x
        theta = lambda x: 0.2 * x
        F = birkhoff_family(DigitPotential(0.4, 1.1, gamma, theta), 16)
        ps = np.arange(-2.0, 2.5, 0.5)
        lp = mf.local_profile(F, [0.3, 0.7],
                              np.array([2.0 ** -3, 2.0 ** -4]), ps,
                              mf.FitPolicy(j1=3, j2=15, min_cubes=8))
        for ix, x in enumerate((0.3, 0.7)):
            a_, b_ = -gamma(x) * ps * 0.4, -gamma(x) * ps * 1.1
            pressure = np.logaddexp(a_, b_)
            target = (-pressure + theta(x) * ps) / math.log(2.0)
            assert np.abs(lp.tau_local[ix] - target).max() <= 0.1


def test_big_signal_keeps_exact_values_where_nothing_overflows():
    # x / 4 would round the subnormal samples; only cubes where a
    # difference overflows take their value from it
    x = np.zeros(64)
    x[0] = 1e308
    k = np.arange(32)
    x[32 + k] = 1.5e-323 * k ** 2
    v = oscillation_family(x, 2, 6).values_at(6)
    assert np.all(v[38:46] == 3e-323)
    assert v[1] == 1e308
