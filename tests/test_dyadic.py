import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmf import (
    DomainError,
    DyadicCube,
    DyadicFamily,
    EmptyWindowError,
    OutOfWindowError,
    Window,
    WindowError,
    cube_at,
    lower_exponent,
    neighborhood,
    read_family,
    restrict,
    upper_exponent,
    write_family,
)
from localmf.dyadic import _line_fit


def power_law_family(alpha, j_max=12, c=1.0, window=Window(0.0, 1.0)):
    values = [np.full(window.n_cubes(j), c * 2.0 ** (-alpha * j))
              for j in range(j_max + 1)]
    return DyadicFamily(0, j_max, window, values)


class TestCubeAt:
    def test_examples(self):
        assert cube_at(0.3, 2) == DyadicCube(2, 1)
        assert cube_at(0.0, 5) == DyadicCube(5, 0)
        assert cube_at(0.8125, 4) == DyadicCube(4, 13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cube_at(1.0, 3)
        with pytest.raises(DomainError):
            cube_at(-0.1, 3)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(min_value=0, max_value=20))
    def test_contains_and_child_chain(self, x, j):
        cube = cube_at(x, j)
        assert cube.contains(x)
        child = cube_at(x, j + 1)
        assert child.parent == cube


class TestNeighborhood:
    def test_interior(self):
        assert neighborhood(DyadicCube(3, 4)) == [
            DyadicCube(3, 3), DyadicCube(3, 4), DyadicCube(3, 5)]

    def test_clipped(self):
        assert neighborhood(DyadicCube(3, 0)) == [DyadicCube(3, 0), DyadicCube(3, 1)]
        assert neighborhood(DyadicCube(3, 7)) == [DyadicCube(3, 6), DyadicCube(3, 7)]


class TestRestrict:
    def test_left_half(self):
        F = power_law_family(0.5, j_max=8)
        R = restrict(F, Window(0.0, 0.5))
        for j in range(1, 9):
            assert R.n_cubes(j) == 1 << (j - 1)
            assert R.k_lo(j) == 0

    def test_identity(self):
        F = power_law_family(0.5, j_max=8)
        R = restrict(F, F.window)
        for j in F.scales:
            np.testing.assert_array_equal(R.values_at(j), F.values_at(j))

    def test_too_narrow(self):
        F = power_law_family(0.5, j_max=8)
        with pytest.raises(EmptyWindowError):
            restrict(F, Window(0.1, 0.1 + 2.0 ** -10))

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
        F = DyadicFamily(0, j_max, Window(0.0, 1.0), values)
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
        F = DyadicFamily(0, j_max, Window(0.0, 1.0), values)
        assert lower_exponent(F, 0.4).value == pytest.approx(1.0, abs=1e-12)
        assert upper_exponent(F, 0.4).value == pytest.approx(2.0, abs=1e-12)

    def test_zero_family_is_plus_inf(self):
        j_max = 8
        values = [np.zeros(1 << j) for j in range(j_max + 1)]
        F = DyadicFamily(0, j_max, Window(0.0, 1.0), values)
        assert lower_exponent(F, 0.2).value == math.inf
        assert upper_exponent(F, 0.2).value == math.inf

    def test_out_of_window(self):
        F = power_law_family(0.5, window=Window(0.0, 0.5))
        with pytest.raises(OutOfWindowError):
            lower_exponent(F, 0.75)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=40)
    def test_lower_le_upper(self, x, seed):
        rng = np.random.default_rng(seed)
        j_max = 10
        values = [rng.random(1 << j) + 0.01 for j in range(j_max + 1)]
        F = DyadicFamily(0, j_max, Window(0.0, 1.0), values)
        lo = lower_exponent(F, x)
        hi = upper_exponent(F, x)
        assert lo.value <= hi.value + 1e-12

    def test_estimate_diagnostics(self):
        F = power_law_family(0.7)
        est = lower_exponent(F, 0.3)
        assert est.fit_range == (3, 12)
        assert est.residual == pytest.approx(0.0, abs=1e-10)
        assert est.slope_fit == pytest.approx(0.7, abs=1e-10)


class TestFamilyValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            DyadicFamily(0, 0, Window(0.0, 1.0), [np.array([-1.0])])

    def test_rejects_wrong_length(self):
        with pytest.raises(Exception):
            DyadicFamily(0, 1, Window(0.0, 1.0), [np.ones(1), np.ones(3)])

    def test_point_values_alignment(self):
        F = power_law_family(0.5, j_max=6)
        vals = F.point_values(0.3)
        for i, j in enumerate(F.scales):
            assert vals[i] == F.value(j, cube_at(0.3, j).k)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        F = power_law_family(0.5, j_max=6, window=Window(0.25, 0.75))
        path = tmp_path / "fam.txt"
        write_family(path, F)
        G = read_family(path)
        assert (G.j_min, G.j_max) == (F.j_min, F.j_max)
        assert G.window == F.window
        for j in F.scales:
            np.testing.assert_array_equal(G.values_at(j), F.values_at(j))
        # headers written with the former dim=1 token still load
        header, body = path.read_text().split("\n", 1)
        path.write_text(header.replace(" masked=", " dim=1 masked=") + "\n" + body)
        G = read_family(path)
        for j in F.scales:
            np.testing.assert_array_equal(G.values_at(j), F.values_at(j))

    def test_round_trip_with_mask(self, tmp_path):
        w = Window(0.0, 1.0)
        values = [np.full(1 << j, 0.5 ** j) for j in range(5)]
        valid = [np.ones(1 << j, bool) for j in range(5)]
        valid[3][0] = False
        F = DyadicFamily(0, 4, w, values, valid=valid)
        path = tmp_path / "fam.txt"
        write_family(path, F)
        G = read_family(path)
        assert not G.valid_at(3)[0]
        assert G.valid_at(3)[1]


    @pytest.mark.parametrize("edit", [
        lambda rows: rows + ["2,-1,77.0"],
        lambda rows: rows + ["0,0,1.0"],
        lambda rows: rows + ["7,0,1.0"],
        lambda rows: rows + [rows[5]],
        lambda rows: rows[:5] + rows[6:],
        lambda rows: rows + ["2,x,1.0"],
    ], ids=["negative-offset", "below-j_min", "above-j_max", "twice",
            "missing", "unparsable"])
    def test_rejects_rows_not_stored_once(self, tmp_path, edit):
        F = power_law_family(0.5, j_max=6)
        F = DyadicFamily(1, 6, F.window, [F.values_at(j) for j in range(1, 7)])
        path = tmp_path / "fam.txt"
        write_family(path, F)
        header, columns, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, columns] + edit(rows)) + "\n")
        with pytest.raises(WindowError):
            read_family(path)


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


class TestValidationErrors:
    def test_invalid_cube(self):
        with pytest.raises(DomainError):
            DyadicCube(3, 8)
        with pytest.raises(DomainError):
            DyadicCube(-1, 0)
        with pytest.raises(DomainError):
            DyadicCube(0, 0).parent

    def test_invalid_window(self):
        from localmf import WindowError
        with pytest.raises(WindowError):
            Window(0.5, 0.5)
        with pytest.raises(WindowError):
            Window(-0.1, 0.5)
        with pytest.raises(WindowError):
            Window(0.2, 1.1)
        with pytest.raises(WindowError):
            Window.ball(0.5, 0.0)

    def test_read_family_rejects_foreign_file(self, tmp_path):
        from localmf import WindowError
        path = tmp_path / "junk.txt"
        path.write_text("not a family\n")
        with pytest.raises(WindowError):
            read_family(path)

    def test_no_overlap_restrict(self):
        from localmf import WindowError
        F = power_law_family(0.5, j_max=8, window=Window(0.0, 0.25))
        with pytest.raises(WindowError):
            restrict(F, Window(0.5, 1.0))


class TestRestrictIdempotence:
    def test_double_restrict(self):
        F = power_law_family(0.5, j_max=9)
        w = Window(0.125, 0.625)
        once = restrict(F, w)
        twice = restrict(once, w)
        assert twice.window == once.window
        for j in once.scales:
            np.testing.assert_array_equal(twice.values_at(j), once.values_at(j))
