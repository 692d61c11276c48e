"""Seeded generators for the toolkit's model classes, each paired with its
closed-form oracle spectra.

Models
------
binomial / localized_bernoulli
    Deterministic dyadic cascades: each interval splits its mass with ratio
    p (constant, or p(midpoint) for the localized variant, with p valued in
    (0, 1/2)).
cantor_pair
    Barycenter of the uniform measures on two two-branch Cantor sets: ratio
    1/4 on [0, 1/2) (dimension 1/2) and ratio 1/16 on [1/2, 1) (dimension
    1/4). Cantor cylinders are themselves dyadic intervals, so the dyadic
    realization is exact down to the cylinder depth that fits the bin
    scale; the remaining mass is spread uniformly inside each cylinder.
mbm / fbm
    Reduced wavelet-coefficient model of (multi)fractional Brownian motion:
    c_{j,k} = eps_{j,k} 2^{-H(k 2^-j) j} with independent standard
    Gaussians, H valued in a compact subinterval of (0, 1). The pyramid is
    returned alongside the reconstructed signal so analysis can skip the
    transform round trip.
markov_jump
    Increasing pure-jump Markov process with state-dependent jump measure
    gamma(y) u^{-1-gamma(y)} du on (0, 1]; jumps below a truncation
    threshold are thinned away, at a documented drift cost, and the
    remaining process is simulated exactly with state-wise exponential
    clocks and inverse-CDF jump sizes.

Randomness comes from one counter-based generator (Philox) keyed by the
seed, with one substream per scale (mbm) and per epoch of pre-drawn
variates (markov), so identical specs reproduce outputs bit for bit.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._textio import format_rows
from .builders import BinnedMeasure
from .errors import DomainError, ModelError, RangeError, ScaleError
from .estimators import discrete_legendre
from .wavelet import DEFAULT_FILTER, WaveletPyramid, inverse_dwt

__all__ = [
    "ModelSpec",
    "OracleSpectrum",
    "MarkovPath",
    "gen_localized_bernoulli",
    "gen_cantor_pair",
    "gen_mbm",
    "gen_markov_jump",
    "oracle",
    "synthesize",
    "write_jumps",
]

KINDS = ("binomial", "localized_bernoulli", "cantor_pair", "mbm", "fbm",
         "markov_jump", "birkhoff")

_LN2 = math.log(2.0)


def _as_int(value) -> int:
    """``value`` as an int: an integer (numpy's too) or an integral float."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, np.bool_, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _as_function(param) -> Callable[[np.ndarray], np.ndarray]:
    """Accept a constant, a piecewise-linear table [[x, y], ...], or a
    callable; return a vectorized callable."""
    if callable(param):
        return lambda x: np.asarray(param(np.asarray(x, dtype=float)), dtype=float)
    try:
        if np.isscalar(param):
            c = float(param)
            return lambda x: np.full_like(np.asarray(x, dtype=float), c)
        table = np.asarray(param, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"expected a number, a table [[x, y], ...] or a "
                         f"callable, got {param!r}") from exc
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ModelError("piecewise-linear tables need shape (n >= 2, 2)")
    xs, ys = table[:, 0], table[:, 1]
    if np.any(np.diff(xs) <= 0):
        raise ModelError("table abscissae must be strictly increasing")
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)


def _param(params: dict, key: str, kind: str, convert, default=None):
    """convert(params[key]), or convert(default) when the key is absent and
    a default is given. A missing key, or a value that ``convert`` rejects
    (``_as_int`` a float with a fraction or a string, ``float`` a
    non-numeric string), raises ModelError."""
    if key not in params and default is None:
        raise ModelError(f"model {kind!r} needs parameter {key!r}")
    try:
        return convert(params.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ModelError(f"model {kind!r} parameter {key!r}: {exc}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """Model kind, kind-specific parameters, and a 64-bit seed."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unsupported model kind {self.kind!r}; "
                             f"known kinds: {KINDS}")
        if not 0 <= _as_int(self.seed) < 1 << 64:
            raise ModelError(f"seed must be an unsigned 64-bit integer, "
                             f"got {self.seed}")

    def to_json(self) -> str:
        payload = {"kind": self.kind, "params": self.params, "seed": self.seed}
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        data = json.loads(text)
        if not isinstance(data, dict) or "kind" not in data:
            raise ModelError("model spec JSON must carry a 'kind' field")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ModelError(f"model spec params must be an object, got {params!r}")
        params = dict(params)
        for key in ("J", "N", "T"):
            if key in data:
                params.setdefault(key, data[key])
        try:
            seed = _as_int(data.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ModelError(f"model spec seed must be an integer: {exc}") from exc
        return ModelSpec(data["kind"], params, seed)


def _substream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


# ---------------------------------------------------------------------------
# cascades


def gen_localized_bernoulli(spec: ModelSpec) -> BinnedMeasure:
    """Deterministic localized Bernoulli cascade at bin scale J.

    Generation n splits each interval I of generation n-1 with ratio
    p(midpoint of I): the left child receives mass(I) * p, the right child
    the rest. A constant p recovers the usual binomial measure. A mass
    below 2^-1022, whose bits the doubles lose (to 0 when it underflows,
    which reads as outside the support), raises :class:`RangeError`.
    """
    J = _param(spec.params, "J", spec.kind, _as_int)
    if not 4 <= J <= 24:
        raise ScaleError(f"localized Bernoulli needs 4 <= J <= 24, got {J}")
    p_fn = _param(spec.params, "p", spec.kind, _as_function)
    masses = np.array([1.0])
    bound = 1.0
    for n in range(1, J + 1):
        width = 2.0 ** -(n - 1)
        mids = (np.arange(masses.size) + 0.5) * width
        ratios = p_fn(mids)
        r_min = ratios.min()
        if not (r_min > 0 and ratios.max() < 0.5):     # NaN fails too
            raise DomainError("the splitting map p(.) must take values in (0, 1/2)")
        children = np.empty(2 * masses.size)
        np.multiply(masses, ratios, out=children[0::2])
        np.multiply(masses, 1.0 - ratios, out=children[1::2])
        # no mass is below the product of the smallest ratios, so only a
        # bound near 2^-1022 (2^-1000 covers its rounding) reads the left
        # children, the smaller of each pair as m p(.) < m (1 - p(.))
        bound *= r_min
        if bound < 2.0 ** -1000 and (low := children[0::2].min()) < 2.0 ** -1022:
            raise RangeError(f"localized Bernoulli generation {n} has a mass of "
                             f"{low:.6g}, below the smallest normal double 2^-1022")
        masses = children
    return BinnedMeasure(masses)


def _cantor_component(bins: np.ndarray, start: int, n_bins: int, mass: float,
                      subdiv: int) -> None:
    """Uniform two-branch Cantor measure with contraction 1/subdiv, realized
    exactly on dyadic bins (children at offsets 0 and (subdiv-1)/subdiv)."""
    starts = np.array([start], dtype=np.int64)
    length = n_bins
    while length >= subdiv:
        child = length // subdiv
        starts = np.concatenate([starts, starts + (subdiv - 1) * child])
        starts.sort()
        length = child
    share = mass / starts.size / length
    for s in starts:
        bins[s:s + length] += share


def gen_cantor_pair(J: int) -> BinnedMeasure:
    """Barycenter of uniform Cantor measures of dimensions 1/2 (left half)
    and 1/4 (right half), binned at scale J (J >= 8)."""
    J = _param({"J": J}, "J", "cantor_pair", _as_int)
    if J < 8:
        raise ScaleError(f"the Cantor pair needs J >= 8, got {J}")
    bins = np.zeros(1 << J)
    half = 1 << (J - 1)
    _cantor_component(bins, 0, half, 0.5, 4)
    _cantor_component(bins, half, half, 0.5, 16)
    return BinnedMeasure(bins)


# ---------------------------------------------------------------------------
# multifractional Brownian motion (reduced coefficient model)


def _check_hurst(H_fn) -> None:
    probe = H_fn(np.linspace(0.0, 1.0, 1025))
    if probe.min() < 1e-6 or probe.max() > 1.0 - 1e-6:
        raise DomainError("H(.) must take values in a compact subinterval of (0, 1)")


def gen_mbm(spec: ModelSpec) -> tuple[np.ndarray, WaveletPyramid]:
    """Sampled (multi)fractional Brownian path plus its coefficient pyramid.

    Coefficients are drawn per scale from seeded substreams as c_{j,k} =
    eps_{j,k} 2^{-H(k 2^-j) j}; the signal is the inverse transform of the
    pyramid (zero coarse component). Its 2^J samples are set by the scale
    J, or by a sample count N that must be a power of two; given both, N
    must equal 2^J.
    """
    params = spec.params
    if "J" in params:
        J = _param(params, "J", spec.kind, _as_int)
    elif "N" in params:
        N = _param(params, "N", spec.kind, _as_int)
        if N < 1 or N & (N - 1):
            raise ModelError(f"mbm needs a sample count N that is a power of "
                             f"two, got {N}")
        J = N.bit_length() - 1
    else:
        raise ModelError("mbm needs a scale J or a sample count N")
    if not 7 <= J <= 20:
        raise ScaleError(f"mbm needs 7 <= J <= 20, got {J}")
    N = _param(params, "N", spec.kind, _as_int) if "N" in params else 1 << J
    if N != 1 << J:
        raise ModelError(f"mbm sample count N = {N} disagrees with scale "
                         f"J = {J} (2^J = {1 << J})")
    H_fn = _param(params, "H", spec.kind, _as_function)
    _check_hurst(H_fn)
    details = []
    for j in range(J):
        rng = _substream(spec.seed, j)
        eps = rng.standard_normal(1 << j)
        x = np.arange(1 << j) * 2.0 ** -j
        details.append(eps * 2.0 ** (-H_fn(x) * j))
    pyramid = WaveletPyramid(1 << J, params.get("filter", DEFAULT_FILTER),
                             tuple(details), np.zeros(1))
    return inverse_dwt(pyramid), pyramid


# ---------------------------------------------------------------------------
# increasing pure-jump Markov process


@dataclass(frozen=True)
class MarkovPath:
    """A realization of the truncated jump process: jump times/sizes, the
    path sampled on a uniform grid, and the neglected small-jump drift."""

    T: float
    eps_trunc: float
    times: np.ndarray
    sizes: np.ndarray
    grid_t: np.ndarray
    grid_M: np.ndarray
    drift_bound: float           # integral over [0, T] of the neglected mass rate
    drift_rate_max: float        # sup over visited states of the rate

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.sizes)])

    def value_at(self, t) -> np.ndarray:
        """Path value M_t (right-continuous) at arbitrary times."""
        t = np.asarray(t, dtype=float)
        return self._cum[np.searchsorted(self.times, t, side="right")]


def neglected_mass_rate(gamma: float, eps: float) -> float:
    """Mean drift per unit time of the dropped jumps of size <= eps:
    the integral of u gamma u^{-1-gamma} over (0, eps]."""
    return gamma * eps ** (1.0 - gamma) / (1.0 - gamma)


_CHUNK = 1 << 14          # variates drawn per epoch
_SAME_GAMMA = 8           # single jumps sharing gamma before runs start


def gen_markov_jump(spec: ModelSpec) -> MarkovPath:
    """Exact simulation of the eps-truncated increasing jump process.

    While the state is y, jumps of size > eps arrive at rate
    Lambda(y) = eps^(-gamma(y)) - 1 and sizes follow the inverse CDF of the
    truncated power law on [eps, 1]; the state (hence the rate) only
    changes at jumps, so exponential clocks are exact. Dropped sub-
    threshold jumps contribute the reported drift bound.

    Jump i consumes the i-th exponential and uniform variate of the
    pre-drawn epochs, whatever the grouping below. The loop advances one
    run at a time: the consecutive jumps that share the clock of the state
    they start from. A run computes gamma, the rate and the drift rate
    once, takes its waiting times and sizes as arrays, and accumulates
    time, state and drift with sequential cumulative sums seeded by the
    running values (bit-identical to adding one jump at a time). It ends
    at the first time >= T, after the first jump whose new state has
    another gamma (that crossing jump still belongs to the run), or at the
    end of the epoch. Runs are single jumps at first. Once
    ``_SAME_GAMMA`` single jumps in a row kept gamma, runs take
    ``2 * _SAME_GAMMA`` jumps and double after every full run, up to the
    epoch; they fall back to single jumps when gamma changes. A strictly
    varying gamma thus pays no array overhead. Sizes
    taken by runs may differ from one-jump sizes in the last bit (array
    and scalar ``pow`` round differently); times and drift do not.
    """
    params, kind = spec.params, spec.kind
    T = _param(params, "T", kind, float, 1.0)
    N = _param(params, "N", kind, _as_int, 1 << 12)
    eps = _param(params, "eps_trunc", kind, float, 2.0 ** -20)
    if T <= 0 or N < 2:
        raise ModelError("markov_jump needs T > 0 and N >= 2")
    if not 0 < eps < 1:
        raise DomainError(f"truncation threshold must lie in (0, 1), got {eps}")
    gamma_fn = _param(params, "gamma", kind, _as_function)
    probe_y = np.linspace(0.0, 64.0, 8193)
    probe = gamma_fn(probe_y)
    if probe.min() <= 0 or probe.max() >= 1:
        raise DomainError("gamma(.) must take values inside (0, 1)")
    if np.any(np.diff(probe) < -1e-12):
        raise DomainError("gamma(.) must be nondecreasing (hypothesis on the "
                          "jump kernel)")

    runs_t, runs_s = [], []      # arrays of jumps taken by runs
    times, sizes = [], []        # single jumps since the last run
    t, y = 0.0, 0.0
    drift_int, drift_max = 0.0, 0.0
    epoch = 0
    exp_buf = uni_buf = None
    pos = _CHUNK
    g_prev, same, run = None, 0, 1
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
        drift_max = max(drift_max, rate)
        if run == 1:
            dt = exp_buf[pos] / lam
            if t + dt >= T:
                drift_int += rate * (T - t)
                break
            drift_int += rate * dt
            t += dt
            u = (eg - uni_buf[pos] * lam) ** (-1.0 / g)
            y += u
            times.append(t)
            sizes.append(u)
            pos += 1
            same = same + 1 if g == g_prev else 0
            g_prev = g
            if same >= _SAME_GAMMA:
                run = 2 * _SAME_GAMMA
            continue

        if times:
            runs_t.append(np.asarray(times))
            runs_s.append(np.asarray(sizes))
            times, sizes = [], []
        n = min(run, _CHUNK - pos)
        dts = exp_buf[pos:pos + n] / lam
        ts = np.cumsum(np.concatenate(([t], dts)))[1:]
        m = int(np.searchsorted(ts, T))          # jumps before the first ts >= T
        us = (eg - uni_buf[pos:pos + m] * lam) ** (-1.0 / g)
        ys = np.cumsum(np.concatenate(([y], us)))[1:]
        changed = np.flatnonzero(gamma_fn(ys) != g)
        if changed.size:
            m = int(changed[0]) + 1              # the crossing jump is taken
        if m:
            runs_t.append(ts[:m])
            runs_s.append(us[:m])
            drift_int = float(np.cumsum(np.concatenate(([drift_int],
                                                        rate * dts[:m])))[-1])
            t, y = float(ts[m - 1]), float(ys[m - 1])
            pos += m
        if changed.size:
            g_prev, same, run = g, 0, 1
        elif m < n:
            drift_int += rate * (T - t)
            break
        elif n == run:
            run = min(2 * run, _CHUNK)

    times = np.concatenate(runs_t + [np.asarray(times)])
    sizes = np.concatenate(runs_s + [np.asarray(sizes)])
    grid_t = np.arange(N) * (T / N)
    cum = np.concatenate([[0.0], np.cumsum(sizes)])
    grid_M = cum[np.searchsorted(times, grid_t, side="right")]
    return MarkovPath(T, eps, times, sizes, grid_t, grid_M, drift_int, drift_max)


def write_jumps(path, markov: MarkovPath) -> None:
    """Jump list CSV with rows `t,size`."""
    with open(path, "w") as fh:
        fh.write("t,size\n")
        fh.writelines(format_rows(markov.times, markov.sizes))


# ---------------------------------------------------------------------------
# oracles


def _binomial_tau(p_mass: float):
    lp, lq = math.log(p_mass), math.log(1.0 - p_mass)

    def tau(q):
        q = np.asarray(q, dtype=float)
        return -np.logaddexp(q * lp, q * lq) / _LN2

    return tau


_FINE_Q = np.arange(-40.0, 40.0 + 1e-9, 0.05)


@dataclass(frozen=True)
class OracleSpectrum:
    """Closed-form evaluators for a model's scaling function, Legendre-type
    spectrum, and almost-everywhere pointwise exponent.

    ``tau(x, p)`` and ``spectrum(x, H)`` are the local quantities
    (x-independent for homogeneous models); global variants take the
    x-infimum/supremum. ``pointwise`` is the exponent where the model
    prescribes one (Lebesgue-a.e. value for cascades and the jump process,
    exact for mbm) or None.
    """

    kind: str
    tau: Callable
    spectrum: Callable
    tau_global: Callable
    spectrum_global: Callable
    pointwise: Callable | None = None


def oracle(spec: ModelSpec, realization=None) -> OracleSpectrum:
    """Oracle bundle for a model spec; every theoretical value used by the
    acceptance suite flows through here.

    The ``markov_jump`` oracle is conditional on a realization (the
    generated :class:`MarkovPath`), which must be passed explicitly.
    """
    kind = spec.kind
    params = spec.params

    if kind in ("binomial", "localized_bernoulli"):
        p_fn = _param(params, "p", kind, _as_function)

        def tau(x, q):
            px = float(p_fn(np.asarray(x, dtype=float)))
            return _binomial_tau(px)(q)

        def pointwise(x, zero_digit_freq=0.5):
            px = float(p_fn(np.asarray(x, dtype=float)))
            return (-zero_digit_freq * math.log2(px)
                    - (1.0 - zero_digit_freq) * math.log2(1.0 - px))

        def tau_global(q, x_grid=np.linspace(0.0, 1.0, 513)):
            taus = np.array([tau(x, q) for x in x_grid])
            return taus.min(axis=0)

        def spectrum(x, H):
            return discrete_legendre(_FINE_Q, tau(x, _FINE_Q), np.atleast_1d(H),
                                     floor=-math.inf, endpoint_slope_tol=1e-12)

        def spectrum_global(H, x_grid=np.linspace(0.0, 1.0, 129)):
            per_x = np.stack([spectrum(x, H) for x in x_grid])
            return per_x.max(axis=0)

        return OracleSpectrum(kind, tau, spectrum, tau_global, spectrum_global,
                              pointwise)

    if kind == "cantor_pair":
        dims = (0.5, 0.25)

        def tau(x, q):
            d = dims[0] if x < 0.5 else dims[1]
            return (np.asarray(q, dtype=float) - 1.0) * d

        def spectrum(x, H):
            d = dims[0] if x < 0.5 else dims[1]
            H = np.atleast_1d(np.asarray(H, dtype=float))
            return np.where(np.abs(H - d) <= 1e-12, d, -math.inf)

        def tau_global(q):
            return np.minimum(tau(0.25, q), tau(0.75, q))

        def spectrum_global(H):
            return np.maximum(spectrum(0.25, H), spectrum(0.75, H))

        return OracleSpectrum(kind, tau, spectrum, tau_global, spectrum_global,
                              pointwise=lambda x: dims[0] if x < 0.5 else dims[1])

    if kind in ("mbm", "fbm"):
        H_fn = _param(params, "H", kind, _as_function)
        _check_hurst(H_fn)
        fine_x = np.linspace(0.0, 1.0, 2049)
        H_vals = H_fn(fine_x)

        def tau(x, p):
            Hx = float(H_fn(np.asarray(x, dtype=float)))
            return Hx * np.asarray(p, dtype=float) - 1.0

        def spectrum(x, H):
            Hx = float(H_fn(np.asarray(x, dtype=float)))
            H = np.atleast_1d(np.asarray(H, dtype=float))
            return np.where(np.abs(H - Hx) <= 1e-9, 1.0, -math.inf)

        def tau_global(p):
            p = np.asarray(p, dtype=float)
            return np.where(p >= 0, H_vals.min() * p, H_vals.max() * p) - 1.0

        def spectrum_global(H):
            H = np.atleast_1d(np.asarray(H, dtype=float))
            inside = (H >= H_vals.min() - 1e-9) & (H <= H_vals.max() + 1e-9)
            return np.where(inside, 1.0, -math.inf)

        return OracleSpectrum(kind, tau, spectrum, tau_global, spectrum_global,
                              pointwise=lambda x: float(H_fn(np.asarray(x))))

    if kind == "birkhoff":
        a, b = (_param(params, key, kind, float) for key in ("a", "b"))
        gamma_fn = _param(params, "gamma", kind, _as_function, 1.0)
        theta_fn = _param(params, "theta", kind, _as_function, 0.0)

        def pressure(q):
            return np.logaddexp(np.asarray(q, dtype=float) * a,
                                np.asarray(q, dtype=float) * b)

        def tau(x, p):
            p = np.asarray(p, dtype=float)
            g = float(gamma_fn(np.asarray(x, dtype=float)))
            th = float(theta_fn(np.asarray(x, dtype=float)))
            return (-pressure(-g * p) + th * p) / _LN2

        def tau_global(p, x_grid=np.linspace(0.0, 1.0, 513)):
            return np.array([tau(x, p) for x in x_grid]).min(axis=0)

        def spectrum(x, H):
            return discrete_legendre(_FINE_Q, tau(x, _FINE_Q), np.atleast_1d(H),
                                     floor=-math.inf, endpoint_slope_tol=1e-12)

        def spectrum_global(H, x_grid=np.linspace(0.0, 1.0, 129)):
            return np.stack([spectrum(x, H) for x in x_grid]).max(axis=0)

        return OracleSpectrum(kind, tau, spectrum, tau_global, spectrum_global)

    if kind == "markov_jump":
        if realization is None or not isinstance(realization, MarkovPath):
            raise ModelError("the markov_jump oracle is conditional on a "
                             "generated MarkovPath; pass realization=path")
        gamma_fn = _param(params, "gamma", kind, _as_function)
        path = realization

        def gamma_at(t):
            return float(gamma_fn(path.value_at(t)))

        def spectrum(t, h):
            g = gamma_at(t)
            h = np.atleast_1d(np.asarray(h, dtype=float))
            return np.where((h >= 0) & (h <= 1.0 / g), h * g, -math.inf)

        def tau(t, p):
            # Legendre dual of the local spectrum, valid for p >= 0
            g = gamma_at(t)
            p = np.asarray(p, dtype=float)
            return np.minimum(p / g - 1.0, 0.0)

        def spectrum_global(h, t_grid=None):
            ts = t_grid if t_grid is not None else \
                np.linspace(0.0, path.T, 257, endpoint=False)[1:]
            return np.stack([spectrum(t, h) for t in ts]).max(axis=0)

        def tau_global(p, t_grid=None):
            ts = t_grid if t_grid is not None else \
                np.linspace(0.0, path.T, 257, endpoint=False)[1:]
            return np.stack([tau(t, p) for t in ts]).min(axis=0)

        return OracleSpectrum(kind, tau, spectrum, tau_global, spectrum_global,
                              pointwise=lambda t: 1.0 / gamma_at(t))

    raise ModelError(f"no oracle for model kind {kind!r}")


# ---------------------------------------------------------------------------
# dispatcher


def synthesize(spec: ModelSpec) -> dict:
    """Generate a model realization; returns a dict with kind-specific
    products ('measure', 'signal' + 'pyramid', or 'path')."""
    if spec.kind in ("binomial", "localized_bernoulli"):
        if spec.kind == "binomial" and not np.isscalar(spec.params.get("p")):
            raise ModelError("binomial needs a scalar splitting ratio p")
        return {"measure": gen_localized_bernoulli(spec)}
    if spec.kind == "cantor_pair":
        return {"measure": gen_cantor_pair(
            _param(spec.params, "J", spec.kind, _as_int))}
    if spec.kind in ("mbm", "fbm"):
        signal, pyramid = gen_mbm(spec)
        return {"signal": signal, "pyramid": pyramid}
    if spec.kind == "markov_jump":
        return {"path": gen_markov_jump(spec)}
    raise ModelError(f"model kind {spec.kind!r} has no generator "
                     "(birkhoff families are built by localmf.builders)")
