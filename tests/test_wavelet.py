import math
import time

import numpy as np
import pytest

from localmf import (
    DomainError,
    FILTERS,
    FilterError,
    SignalError,
    WaveletPyramid,
    dwt,
    frac_integrate,
    inverse_dwt,
    leaders,
    lower_exponent,
    p_leaders,
    read_signal,
    write_signal,
)
from localmf.wavelet import _filter_pair


def pyramid_from_details(details, n=None, j_analysis_min=3):
    J = len(details)
    return WaveletPyramid(1 << J, "db3",
                          tuple(np.asarray(d, dtype=float) for d in details),
                          np.zeros(1), j_analysis_min)


def random_pyramid(J, seed, scale=1.0, j_analysis_min=3):
    rng = np.random.default_rng(seed)
    return pyramid_from_details(
        [scale * rng.standard_normal(1 << j) for j in range(J)],
        j_analysis_min=j_analysis_min)


def brute_force_leader(P, j, k):
    """sup |c| over all cubes of scales >= j inside the wrapped 3-lambda."""
    best = 0.0
    for jp in range(j, P.J):
        shift = jp - j
        for base in (k - 1, k, k + 1):
            kk = base % (1 << j)
            lo = kk << shift
            best = max(best, np.abs(P.details[jp][lo:lo + (1 << shift)]).max())
    return best


class TestFilters:
    @pytest.mark.parametrize("name", sorted(FILTERS))
    def test_orthonormal(self, name):
        h, g = _filter_pair(name)
        assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-12)
        for m in range(len(h) // 2):
            target = 1.0 if m == 0 else 0.0
            assert np.dot(h[2 * m:], h[:len(h) - 2 * m]) == pytest.approx(
                target, abs=1e-12)

    @pytest.mark.parametrize("name,n_mom", [("haar", 1), ("db2", 2),
                                            ("db3", 3), ("db4", 4)])
    def test_vanishing_moments(self, name, n_mom):
        g = _filter_pair(name)[1]
        ns = np.arange(len(g), dtype=float)
        for m in range(n_mom):
            assert np.dot(g, ns ** m) == pytest.approx(0.0, abs=1e-10)

    def test_unknown_filter(self):
        with pytest.raises(FilterError):
            dwt(np.zeros(64), "sym7")


class TestTransform:
    def test_length_validation(self):
        with pytest.raises(SignalError):
            dwt(np.zeros(60))
        with pytest.raises(SignalError):
            dwt(np.zeros(8))

    def test_constant_annihilated(self):
        P = dwt(np.ones(256), "db3")
        assert max(np.abs(d).max() for d in P.details) < 1e-12

    def test_ramp_interior_annihilated(self):
        x = np.arange(1 << 10) / float(1 << 10)
        P = dwt(x, "db3")
        L = FILTERS["db3"].size
        for j in range(4, 10):
            d = P.details[j]
            interior = d[: d.size - L]
            assert np.abs(interior).max() < 1e-10
            assert np.abs(d).max() > 1e-4  # the wrap seam does carry energy

    @pytest.mark.parametrize("name", sorted(FILTERS))
    def test_perfect_reconstruction(self, name):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(1 << 10)
        err = np.abs(inverse_dwt(dwt(x, name)) - x).max()
        assert err < 1e-10 * np.abs(x).max()

    def test_pyramid_shape(self):
        P = dwt(np.random.default_rng(0).standard_normal(1 << 8))
        assert P.J == 8
        assert [d.size for d in P.details] == [1 << j for j in range(8)]
        assert list(P.analysis_scales) == [3, 4, 5, 6, 7]


class TestLeaders:
    def test_single_coefficient(self):
        J, j0, k0 = 7, 5, 13
        details = [np.zeros(1 << j) for j in range(J)]
        details[j0][k0] = 1.0
        P = pyramid_from_details(details)
        L = leaders(P, include_boundary=True)
        for j in L.scales:
            anc = k0 >> (j0 - j) if j <= j0 else None
            for k in range(1 << j):
                expect = 1.0 if (j <= j0 and abs(k - anc) <= 1) else 0.0
                assert L.values_at(j)[k] == expect

    def test_pure_power_law(self):
        J, H = 10, 0.4
        details = [np.full(1 << j, 2.0 ** (-H * j)) for j in range(J)]
        P = pyramid_from_details(details)
        L = leaders(P, include_boundary=True)
        for j in L.scales:
            np.testing.assert_allclose(L.values_at(j), 2.0 ** (-H * j), rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_exhaustively(self, seed):
        P = random_pyramid(8, seed)
        L = leaders(P, include_boundary=True)
        for j in L.scales:
            for k in range(1 << j):
                assert L.values_at(j)[k] == pytest.approx(
                    brute_force_leader(P, j, k), rel=1e-14)

    def test_boundary_cubes_flagged(self):
        P = random_pyramid(8, 3)
        L = leaders(P)
        for j in L.scales:
            m = L.valid_at(j)
            assert not m[0] and not m[-1]
            assert np.all(m[1:-1])

    def test_child_leader_dominated(self):
        # 3-lambda of a child is contained in the parent's 3-lambda
        P = random_pyramid(9, 4)
        L = leaders(P, include_boundary=True)
        for j in range(L.j_min, L.j_max):
            parent = L.values_at(j)
            child = L.values_at(j + 1)
            for k in range(1, (1 << j) - 1):
                assert parent[k] >= child[2 * k] - 1e-15
                assert parent[k] >= child[2 * k + 1] - 1e-15

    def test_mbm_style_leader_bounds(self):
        # 2^(Hj) d_lambda within [j^(-3H), 2j] for j >= 8 at a >= 99% rate
        H = 0.6
        total = bad = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            details = [rng.standard_normal(1 << j) * 2.0 ** (-H * j)
                       for j in range(14)]
            P = pyramid_from_details(details)
            L = leaders(P, include_boundary=True)
            for j in range(8, 14):
                scaled = L.values_at(j) * 2.0 ** (H * j)
                bad += np.count_nonzero(
                    (scaled < j ** (-3 * H)) | (scaled > 2.0 * j))
                total += scaled.size
        assert bad / total < 0.01


class TestPLeaders:
    def test_rejects_nonpositive_p(self):
        P = random_pyramid(8, 0)
        with pytest.raises(DomainError):
            p_leaders(P, 0.0)
        with pytest.raises(DomainError):
            p_leaders(P, -2.0)

    def test_single_coefficient_at_own_cube(self):
        J, j0, k0 = 8, 5, 9
        details = [np.zeros(1 << j) for j in range(J)]
        details[j0][k0] = 1.0
        P = pyramid_from_details(details)
        for p in (0.7, 1.0, 2.0):
            E = p_leaders(P, p, include_boundary=True)
            assert E.values_at(j0)[k0] == pytest.approx(1.0, rel=1e-12)

    def test_geometric_column_closed_form(self):
        # |c| = 2^-j' on the full subtree below one cube, zero elsewhere
        J, j0, k0 = 10, 4, 5
        details = [np.zeros(1 << j) for j in range(J)]
        for jp in range(j0, J):
            lo = k0 << (jp - j0)
            details[jp][lo:lo + (1 << (jp - j0))] = 2.0 ** -jp
        P = pyramid_from_details(details)
        for p in (0.5, 1.0, 2.0):
            E = p_leaders(P, p, include_boundary=True)
            brute = sum((2.0 ** -jp) ** p * 2.0 ** (jp - j0) * 2.0 ** -(jp - j0)
                        for jp in range(j0, J))
            closed = 2.0 ** (-p * j0) * (1 - 2.0 ** (-p * (J - j0))) \
                / (1 - 2.0 ** -p)
            assert brute == pytest.approx(closed, rel=1e-12)
            assert E.values_at(j0)[k0] == pytest.approx(closed ** (1.0 / p), rel=1e-12)

    def test_matches_brute_force(self):
        P = random_pyramid(7, 9)
        p = 1.5
        E = p_leaders(P, p, include_boundary=True)
        for j in E.scales:
            for k in range(1 << j):
                acc = 0.0
                for jp in range(j, P.J):
                    shift = jp - j
                    for base in (k - 1, k, k + 1):
                        kk = base % (1 << j)
                        lo = kk << shift
                        block = np.abs(P.details[jp][lo:lo + (1 << shift)])
                        acc += np.sum(block ** p) * 2.0 ** -shift
                assert E.values_at(j)[k] == pytest.approx(acc ** (1 / p), rel=1e-12)

    def test_large_p_approaches_leaders(self):
        P = random_pyramid(8, 17, j_analysis_min=4)
        L = leaders(P, include_boundary=True)
        E = p_leaders(P, 64.0, include_boundary=True)
        for j in L.scales:
            ratio = E.values_at(j) / L.values_at(j)
            assert np.all(np.abs(ratio - 1.0) < 0.05)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(23)
        details = [rng.uniform(0.1, 1.0, 1 << j) for j in range(9)]
        P = pyramid_from_details(details)
        grids = [p_leaders(P, p, include_boundary=True) for p in (1, 2, 4, 8)]
        for j in grids[0].scales:
            stack = np.stack([E.values_at(j) for E in grids])
            assert np.all(np.diff(stack, axis=0) <= 1e-12)


class TestFracIntegrate:
    def test_zero_is_identity(self):
        P = random_pyramid(8, 5)
        Q = frac_integrate(P, 0.0)
        for j in range(P.J):
            np.testing.assert_array_equal(Q.details[j], P.details[j])

    def test_order_additivity(self):
        P = random_pyramid(8, 6)
        Q1 = frac_integrate(frac_integrate(P, 0.25), 0.5)
        Q2 = frac_integrate(P, 0.75)
        for j in range(P.J):
            np.testing.assert_allclose(Q1.details[j], Q2.details[j], rtol=1e-12)

    def test_shifts_power_law_exponent_exactly(self):
        J = 12
        details = [np.full(1 << j, 2.0 ** (-0.25 * j)) for j in range(J)]
        P = pyramid_from_details(details)
        base = lower_exponent(leaders(P, include_boundary=True), 0.3)
        shifted = lower_exponent(
            leaders(frac_integrate(P, 0.5), include_boundary=True), 0.3)
        assert shifted.value - base.value == pytest.approx(0.5, abs=1e-12)
        assert base.value == pytest.approx(0.25, abs=1e-12)


class TestSignalIO:
    def test_text_round_trip(self, tmp_path):
        x = np.random.default_rng(0).standard_normal(128)
        path = tmp_path / "sig.txt"
        write_signal(path, x)
        np.testing.assert_array_equal(read_signal(path), x)

    def test_binary_round_trip(self, tmp_path):
        x = np.random.default_rng(1).standard_normal(256)
        path = tmp_path / "sig.bin"
        write_signal(path, x, binary=True)
        np.testing.assert_array_equal(read_signal(path), x)

    def test_unparsable_text_signal(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("0.5\nabc\n" * 8)
        with pytest.raises(SignalError):
            read_signal(path)

    @pytest.mark.parametrize("tail", [
        b"abc",
        (1 << 62).to_bytes(8, "little") + bytes(64),
        (4).to_bytes(8, "little") + bytes(40),
    ], ids=["short-header", "length-2^62", "trailing-bytes"])
    def test_binary_header_must_match_file(self, tmp_path, tail):
        path = tmp_path / "sig.bin"
        path.write_bytes(b"LMFSIG01" + tail)
        t0 = time.perf_counter()
        with pytest.raises(SignalError):
            read_signal(path)
        assert time.perf_counter() - t0 < 1.0


class TestScaleRequirements:
    def test_leaders_need_four_analysis_scales(self):
        from localmf import ScaleError
        P = random_pyramid(6, 0)  # scales 3..5 only
        with pytest.raises(ScaleError):
            leaders(P)
        with pytest.raises(ScaleError):
            p_leaders(P, 2.0)


class TestBasisRobustness:
    def test_scaling_function_stable_across_filters(self):
        # the leader scaling function barely depends on the analysis basis
        from localmf import ModelSpec, gen_mbm, scaling_function
        qs = np.arange(-2.0, 2.25, 0.5)
        sig, P = gen_mbm(ModelSpec("fbm", {"H": 0.7, "J": 14}, seed=0))
        direct = scaling_function(leaders(P), None, qs).tau
        for filt in ("db2", "db3", "db4"):
            redone = scaling_function(leaders(dwt(sig, filt)), None, qs).tau
            assert np.abs(redone - direct).max() <= 0.1


class TestFracIntegrateExponentExample:
    def test_power_law_03_plus_half(self):
        # |c| = 2^{-0.3 j} integrated by 0.5 carries exponent 0.8 everywhere
        J = 12
        details = [np.full(1 << j, 2.0 ** (-0.3 * j)) for j in range(J)]
        P = pyramid_from_details(details)
        L = leaders(frac_integrate(P, 0.5), include_boundary=True)
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            est = lower_exponent(L, x)
            assert est.value == pytest.approx(0.8, abs=1e-12)


def gather_dwt(x, filter_id):
    """The transform with every tap read by an index array, x[(2k + i) %
    n]: (details, approx), as dwt computes them."""
    h, g = _filter_pair(filter_id)
    J = x.size.bit_length() - 1
    details = [None] * J
    cur = x
    for j in range(J - 1, -1, -1):
        n = cur.size
        ks = np.arange(n // 2)
        a = np.zeros(n // 2)
        d = np.zeros(n // 2)
        for i in range(h.size):
            seg = cur[(2 * ks + i) % n]
            a += h[i] * seg
            d += g[i] * seg
        details[j] = d * 2.0 ** ((j - J) / 2.0)
        cur = a
    return details, cur


def gather_inverse_dwt(pyramid):
    """The inverse with every tap added through an index array."""
    h, g = _filter_pair(pyramid.filter_id)
    J = pyramid.J
    cur = np.array(pyramid.approx, dtype=float)
    for j in range(J):
        d = pyramid.details[j] * 2.0 ** ((J - j) / 2.0)
        n = 2 * cur.size
        ks = np.arange(cur.size)
        x = np.zeros(n)
        for i in range(h.size):
            x[(2 * ks + i) % n] += h[i] * cur + g[i] * d
        cur = x
    return cur


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("J", range(4, 13))
@pytest.mark.parametrize("signal", ["random", "constant"])
def test_sliced_taps_equal_the_gather_formulas(name, J, signal):
    rng = np.random.default_rng(J)
    x = (rng.standard_normal(1 << J) if signal == "random"
         else np.full(1 << J, 0.3))
    P = dwt(x, name)
    details, approx = gather_dwt(x, name)
    for got, want in zip(P.details, details, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(P.approx, approx)
    assert np.array_equal(inverse_dwt(P), gather_inverse_dwt(P))
    # a pyramid no signal produced: random details at every scale
    Q = WaveletPyramid(1 << J, name, tuple(
        rng.standard_normal(1 << j) for j in range(J)), rng.standard_normal(1))
    assert np.array_equal(inverse_dwt(Q), gather_inverse_dwt(Q))
