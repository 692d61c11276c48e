"""Structure functions, scaling functions, Legendre spectra, and the
windowed (local) analysis pipeline.

Conventions
-----------
* S_j(w, p) sums e_lambda^p over the nonzero scale-j cubes contained in
  the window w (invalid/flagged cubes are skipped). Zero-valued cubes add
  nothing for p > 0; for p <= 0 they are excluded and counted, so for
  p = 0 the sum counts the nonzero cubes and tau(0) estimates minus the
  box dimension of the support.
* Sums are taken in the log domain: log2 S_j(p) is computed from log2 e
  with the largest term factored out, so no sum overflows or underflows
  for any finite p. A scale enters a fit when it holds a nonzero cube.
* A fit range defaults to [3, j_max - 1] for scaling functions and to
  [3, j_max] for uniform exponents, is clipped to the family's scales and
  never includes scale 0, where the anchored chord log2 S_j / (-j) is
  undefined. A range left with fewer than 4 scales (scaling functions) or
  2 (exponents) raises ScaleError. Besov membership needs no chord: its
  range may include scale 0 and raises ScaleError only when it holds no
  scale of the family.
* tau(p) is the least-squares slope of log2 S_j against -j over the fit
  range (the liminf-faithful tail-min chord estimate is reported
  alongside); eta(p) = tau(p) - 1. Scaling functions and pointwise and
  uniform exponents share one range rule and one slope/chord routine
  (``dyadic._fit_scales``, ``dyadic._chords``).
* The Legendre spectrum is the discrete transform L(H) = min_p (H p -
  tau(p)) with endpoint and floor handling for the -infinity directions.
* Local values tau(x, p) are taken at the smallest admissible radius; the
  full per-radius sequence is retained so convergence can be judged.

Sums use numpy's pairwise summation over contiguous arrays, so results are
order-stable across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicFamily,
    ExponentEstimate,
    Window,
    _chords,
    _estimate,
    _fit_scales,
    _line_fit,
    restrict,
)
from .errors import (
    CoverageError,
    DomainError,
    EmptyWindowError,
    RadiusError,
    ScaleError,
)

__all__ = [
    "ScalingFunction",
    "LegendreSpectrum",
    "LocalProfile",
    "FitPolicy",
    "MonoHoelderResult",
    "LocalMonoHoelderResult",
    "GlobalLocalReport",
    "BesovResult",
    "structure_function",
    "scaling_function",
    "uniform_exponent",
    "legendre",
    "discrete_legendre",
    "local_profile",
    "global_from_local_check",
    "monohoelder_detect",
    "besov_membership",
    "scaling_to_dict",
]

LEGENDRE_FLOOR = -10.0


# ---------------------------------------------------------------------------
# structure and scaling functions


def _masked_values(family: DyadicFamily, j: int) -> np.ndarray:
    v = family.values_at(j)
    m = family.valid_at(j)
    return v if m is None else v[m]


def _log2_sums(per_scale, p_grid) -> tuple[np.ndarray, np.ndarray]:
    """log2 S_j(p) for every p of the grid (rows) and every value array of
    ``per_scale`` (columns), plus the count of zero cubes left out of each
    sum (nonzero only for p <= 0).

    A scale without a nonzero cube gets -inf. Each sum is formed as
    top + log2 sum exp2(p log2 e - top), top being the largest exponent,
    so every term is at most 1 and no sum can overflow; at p = 0 the
    terms are exactly 1 and the sum is the count of nonzero cubes.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    log2_S = np.full((p_grid.size, len(per_scale)), -np.inf)
    excluded = np.zeros(log2_S.shape, dtype=int)
    for i, v in enumerate(per_scale):
        log2e = v[v > 0]
        excluded[p_grid <= 0, i] = v.size - log2e.size
        if log2e.size == 0:
            continue
        np.log2(log2e, out=log2e)
        lo, hi = log2e.min(), log2e.max()
        work = np.empty_like(log2e)
        for ip, p in enumerate(p_grid):
            top = p * (hi if p > 0 else lo)
            np.multiply(log2e, p, out=work)
            work -= top
            np.exp2(work, out=work)
            log2_S[ip, i] = top + np.log2(work.sum())
    return log2_S, excluded


def structure_function(family: DyadicFamily, window: Window | None, p: float,
                       return_excluded: bool = False):
    """Per-scale sums S_j = sum over scale-j cubes in the window of e^p.

    Returns an array aligned with ``family.scales`` (after restriction to
    the window). With ``return_excluded`` also returns the per-scale count
    of zero-valued cubes left out of the sum (nonzero only for p <= 0).
    """
    f = family if window is None else restrict(family, window)
    log2_S, excluded = _log2_sums([_masked_values(f, j) for j in f.scales], [p])
    S = np.exp2(log2_S[0])
    if return_excluded:
        return S, excluded[0]
    return S


def _max_convexity(x, y) -> float:
    """Largest discrete second difference of the finite samples y(x)."""
    fin = np.isfinite(y)
    x, y = x[fin], y[fin]
    if x.size < 3:
        return 0.0
    second = np.diff(np.diff(y) / np.diff(x)) * 0.5 * (x[2:] - x[:-2])
    return float(second.max())


@dataclass
class ScalingFunction:
    """Sampled scaling function tau(p) with per-p fit diagnostics.

    ``tau`` holds the regression estimates (+inf marks a degenerate fit
    where every structure sum vanished), ``tau_tailmin`` the liminf-style
    chord estimates, ``eta`` = tau - 1, and ``residuals`` the per-p RMS
    regression residual. ``log2_S`` (n_p x n_scales, NaN where undefined)
    and the per-p, per-scale count of excluded zero cubes are kept for
    reports.
    """

    p_grid: np.ndarray
    tau: np.ndarray
    tau_tailmin: np.ndarray
    eta: np.ndarray
    fit_range: tuple[int, int]
    residuals: np.ndarray
    window: Window
    scales: np.ndarray = field(repr=False)
    log2_S: np.ndarray = field(repr=False)
    excluded_counts: np.ndarray = field(repr=False)

    def max_convexity(self) -> float:
        """Largest discrete second difference of tau on the grid (a concave
        sample set keeps this <= fit tolerance)."""
        return _max_convexity(self.p_grid, self.tau)


def scaling_function(family: DyadicFamily, window: Window | None,
                     p_grid, fit_range: tuple[int, int] | None = None,
                     min_cubes: int = 1) -> ScalingFunction:
    """Least-squares scaling function of the family on a window.

    The fit uses the scales of ``fit_range`` (default [3, j_max - 1])
    holding at least ``min_cubes`` cubes, at least one of them nonzero; p
    values whose sums vanish at every usable scale get the +inf marker.
    """
    f = family if window is None else restrict(family, window)
    p_grid = np.ascontiguousarray(p_grid, dtype=float)
    j1, j2 = _fit_scales(f, fit_range, f.j_max - 1, 4)
    per_scale = {j: _masked_values(f, j) for j in range(j1, j2 + 1)}
    scales = np.array([j for j, v in per_scale.items()
                       if v.size >= max(1, min_cubes)])
    if scales.size < 2:
        raise EmptyWindowError(
            f"window [{f.window.lo}, {f.window.hi}) keeps fewer than 2 usable "
            f"scales in ({j1}, {j2})")

    log2_S, excl = _log2_sums([per_scale[j] for j in scales], p_grid)
    log2_S[~np.isfinite(log2_S)] = np.nan
    slope, resid, tail, _ = _chords(scales.astype(float), log2_S)
    fitted = ~np.isnan(slope)
    tau = np.where(fitted, slope, tail)
    residuals = np.where(fitted, resid, 0.0)
    eta = tau - 1.0
    return ScalingFunction(p_grid, tau, tail, eta, (j1, j2), residuals,
                           f.window, scales, log2_S, excl)


def uniform_exponent(family: DyadicFamily, window: Window | None = None,
                     method: str = "tail-min",
                     fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Slope surrogate of log2 (sup_lambda e_lambda) against -j: the uniform
    regularity exponent of the family on the window."""
    f = family if window is None else restrict(family, window)
    j1, j2 = _fit_scales(f, fit_range, f.j_max, 2)
    js, sups = [], []
    for j in range(j1, j2 + 1):
        v = _masked_values(f, j)
        if v.size:
            js.append(j)
            sups.append(v.max())
    if not js:
        raise EmptyWindowError("window keeps no cube in the fit range")
    return _estimate(np.array(js, dtype=float), np.array(sups), method,
                     False, (j1, j2))


# ---------------------------------------------------------------------------
# Legendre transforms


def discrete_legendre(x_grid, f_values, y_grid, floor: float = LEGENDRE_FLOOR,
                      endpoint_slope_tol: float = 1e-6) -> np.ndarray:
    """Discrete transform g(y) = min_x (x y - f(x)) over the sample grid.

    Non-finite f entries are ignored. Where the minimum sits on a grid
    endpoint and the one-sided slope says the objective is still strictly
    decreasing (the unbounded direction), or where the value falls below
    ``floor``, -inf is reported.
    """
    x = np.ascontiguousarray(x_grid, dtype=float)
    fv = np.ascontiguousarray(f_values, dtype=float)
    fin = np.isfinite(fv)
    x, fv = x[fin], fv[fin]
    if x.size < 2:
        raise DomainError("discrete Legendre transform needs >= 2 finite samples")
    order = np.argsort(x)
    x, fv = x[order], fv[order]
    y = np.ascontiguousarray(y_grid, dtype=float)
    obj = np.outer(y, x) - fv[None, :]
    idx = np.argmin(obj, axis=1)
    out = obj[np.arange(y.size), idx]
    slope_lo = (fv[1] - fv[0]) / (x[1] - x[0])
    slope_hi = (fv[-1] - fv[-2]) / (x[-1] - x[-2])
    unbounded = ((idx == x.size - 1) & (y < slope_hi - endpoint_slope_tol)) | \
                ((idx == 0) & (y > slope_lo + endpoint_slope_tol))
    out[unbounded | (out < floor)] = -math.inf
    return out


@dataclass
class LegendreSpectrum:
    """Sampled (H, L(H)) pairs from the discrete Legendre transform; -inf
    marks unbounded directions or values below the reporting floor."""

    H_grid: np.ndarray
    L: np.ndarray
    p_grid: np.ndarray

    def max_point(self) -> tuple[float, float]:
        fin = np.isfinite(self.L)
        if not np.any(fin):
            return math.nan, -math.inf
        i = np.nonzero(fin)[0][np.argmax(self.L[fin])]
        return float(self.H_grid[i]), float(self.L[i])

    def max_convexity(self) -> float:
        return _max_convexity(self.H_grid, self.L)


def legendre(sf: ScalingFunction, H_grid, floor: float = LEGENDRE_FLOOR,
             endpoint_slope_tol: float | None = None) -> LegendreSpectrum:
    """Legendre spectrum L(H) = min over the p grid of (H p - tau(p)).

    By default the unbounded-direction test uses half the H-grid spacing as
    slope tolerance, so that a linear tau (mono-exponent family) keeps a
    finite value at the grid point closest to its slope instead of flagging
    every H.
    """
    fin = np.isfinite(sf.tau)
    if fin.sum() < 2:
        raise DomainError("Legendre transform needs tau finite on >= 2 grid points")
    H = np.ascontiguousarray(H_grid, dtype=float)
    if endpoint_slope_tol is None:
        spacing = np.median(np.diff(np.sort(H))) if H.size > 1 else 0.0
        endpoint_slope_tol = max(1e-6, 0.5 * float(spacing))
    L = discrete_legendre(sf.p_grid, sf.tau, H, floor=floor,
                          endpoint_slope_tol=endpoint_slope_tol)
    return LegendreSpectrum(H, L, sf.p_grid)


# ---------------------------------------------------------------------------
# local pipeline


@dataclass(frozen=True)
class FitPolicy:
    """Scale-selection policy for windowed fits: scales in [j1, j2] holding
    at least ``min_cubes`` cubes inside the window."""

    j1: int = 3
    j2: int | None = None
    min_cubes: int = 8


@dataclass
class LocalProfile:
    """Per-base-point, per-radius scaling functions plus the extrapolated
    local values (taken at the smallest admissible radius)."""

    x_grid: np.ndarray
    radii: np.ndarray
    p_grid: np.ndarray
    profiles: list[list[ScalingFunction]]       # [ix][ir]
    tau_local: np.ndarray                       # (n_x, n_p)
    H_grid: np.ndarray | None = None
    legendre_local: list[LegendreSpectrum] | None = None

    def tau(self, ix: int, ir: int) -> np.ndarray:
        return self.profiles[ix][ir].tau

    def radius_monotone_violation(self, estimate: str = "tailmin") -> float:
        """Max over x, p, and consecutive radii of tau(larger r) - tau(smaller
        r); nonpositive per the shrinking-window monotonicity of scaling
        functions. The default checks the liminf-faithful tail-min estimate,
        which satisfies the monotonicity exactly on a common fit range; the
        regression estimate can exceed it transiently on windows where the
        structure sums are strongly curved in log-log."""
        worst = 0.0
        for per_x in self.profiles:
            if estimate == "tailmin":
                taus = np.array([sf.tau_tailmin for sf in per_x])
            else:
                taus = np.array([sf.tau for sf in per_x])  # radii x p
            fin = np.isfinite(taus[:-1]) & np.isfinite(taus[1:])
            if np.any(fin):
                diffs = (taus[:-1] - taus[1:])[fin]
                worst = max(worst, float(diffs.max()))
        return worst


def local_profile(family: DyadicFamily, x_grid, radii, p_grid,
                  fit_policy: FitPolicy | None = None,
                  H_grid=None) -> LocalProfile:
    """Windowed scaling functions on the balls B(x, r) for every base point
    and every radius; radii must decrease and the smallest one must keep at
    least 64 cubes at the finest analysis scale."""
    policy = fit_policy or FitPolicy()
    x_grid = np.ascontiguousarray(x_grid, dtype=float)
    radii = np.ascontiguousarray(radii, dtype=float)
    if radii.size == 0:
        raise DomainError("at least one radius is required")
    if radii.size > 1 and np.any(np.diff(radii) >= 0):
        raise DomainError("radii must be strictly decreasing")
    if np.any((x_grid < 0) | (x_grid >= 1)):
        raise DomainError("base points must lie in [0, 1)")
    if 2.0 * radii[-1] * 2.0 ** family.j_max < 64:
        raise RadiusError(
            f"radius {radii[-1]} keeps fewer than 64 cubes at scale "
            f"{family.j_max}")
    j2 = policy.j2 if policy.j2 is not None else family.j_max - 1
    p_grid = np.ascontiguousarray(p_grid, dtype=float)

    profiles = []
    tau_local = np.empty((x_grid.size, p_grid.size))
    for ix, x in enumerate(x_grid):
        # anchor the fit range at the smallest radius so the per-radius
        # sequence is fitted over one common scale set (otherwise radius
        # monotonicity is confounded by fit-range changes)
        w_min = Window.ball(float(x), float(radii[-1]))
        j1_eff = policy.j1
        while j1_eff < j2 and w_min.n_cubes(j1_eff) < policy.min_cubes:
            j1_eff += 1
        per_x = []
        for r in radii:
            w = Window.ball(float(x), float(r))
            sf = scaling_function(family, w, p_grid,
                                  fit_range=(j1_eff, j2),
                                  min_cubes=policy.min_cubes)
            per_x.append(sf)
        profiles.append(per_x)
        tau_local[ix] = per_x[-1].tau

    spectra = None
    if H_grid is not None:
        H_grid = np.ascontiguousarray(H_grid, dtype=float)
        spectra = [legendre(per_x[-1], H_grid) for per_x in profiles]
    return LocalProfile(x_grid, radii, p_grid, profiles, tau_local,
                        H_grid, spectra)


@dataclass
class GlobalLocalReport:
    """Comparison of a window's scaling function against the pointwise
    minimum of local scaling functions over the window."""

    p_grid: np.ndarray
    tau_global: np.ndarray
    tau_local_min: np.ndarray
    discrepancy: np.ndarray

    @property
    def max_discrepancy(self) -> float:
        fin = np.isfinite(self.discrepancy)
        return float(self.discrepancy[fin].max()) if np.any(fin) else math.nan


def global_from_local_check(profile: LocalProfile, family: DyadicFamily,
                            window: Window,
                            fit_range: tuple[int, int] | None = None,
                            min_cubes: int = 1) -> GlobalLocalReport:
    """Check tau^w(p) = min over x in w of tau(x, p) on the sampled grids."""
    inside = (profile.x_grid >= window.lo) & (profile.x_grid < window.hi)
    if not np.any(inside):
        raise CoverageError("no base point falls inside the window")
    r_cov = float(profile.radii[0])
    xs = np.sort(profile.x_grid[inside])
    gaps = [xs[0] - window.lo, window.hi - xs[-1]]
    gaps.extend(np.diff(xs) / 2.0)
    if max(gaps) > r_cov + 1e-12:
        raise CoverageError(
            f"base-point grid leaves part of [{window.lo}, {window.hi}) "
            f"beyond the largest radius {r_cov}")
    sf = scaling_function(family, window, profile.p_grid, fit_range=fit_range,
                          min_cubes=min_cubes)
    tau_min = np.nanmin(np.where(np.isfinite(profile.tau_local[inside]),
                                 profile.tau_local[inside], np.nan), axis=0)
    disc = np.abs(sf.tau - tau_min)
    return GlobalLocalReport(profile.p_grid, sf.tau, tau_min, disc)


# ---------------------------------------------------------------------------
# mono-Hoelder detection and Besov membership


@dataclass
class MonoHoelderResult:
    is_linear: bool
    alpha: float
    intercept: float
    residual: float        # max |tau - fit| per p unit


@dataclass
class LocalMonoHoelderResult:
    x_grid: np.ndarray
    alpha: np.ndarray
    is_linear: np.ndarray
    residual: np.ndarray


def _linear_fit(p, tau, tol_lin):
    fin = np.isfinite(tau)
    if fin.sum() < 2:
        raise DomainError("mono-Hoelder detection needs tau finite on >= 2 points")
    slope, intercept, _ = map(float, _line_fit(p, tau))
    resid = np.abs(tau[fin] - (slope * p[fin] + intercept))
    norm = np.maximum(1.0, np.abs(p[fin]))
    residual = float(np.max(resid / norm))
    return MonoHoelderResult(residual <= tol_lin, slope, intercept, residual)


def monohoelder_detect(obj, tol_lin: float = 0.02):
    """Detect a linear scaling function tau(p) = tau(0) + alpha p.

    On a :class:`ScalingFunction` returns a :class:`MonoHoelderResult`; on a
    :class:`LocalProfile` applies the test per base point and returns the
    alpha(x) array (the local exponent when the local formalism holds).
    The residual is normalized per p unit before comparison with
    ``tol_lin``.
    """
    if isinstance(obj, ScalingFunction):
        return _linear_fit(obj.p_grid, obj.tau, tol_lin)
    if isinstance(obj, LocalProfile):
        res = [_linear_fit(obj.p_grid, obj.tau_local[ix], tol_lin)
               for ix in range(obj.x_grid.size)]
        return LocalMonoHoelderResult(
            obj.x_grid,
            np.array([r.alpha for r in res]),
            np.array([r.is_linear for r in res]),
            np.array([r.residual for r in res]),
        )
    raise DomainError("expected a ScalingFunction or a LocalProfile")


@dataclass
class BesovResult:
    member: bool
    constant: float        # best C over the scale range
    growth_rate: float     # slope of log2 c_j against j; <= tol for members


def besov_membership(family: DyadicFamily, s: float, p: float,
                     window: Window | None = None,
                     fit_range: tuple[int, int] | None = None,
                     growth_tol: float = 0.05) -> BesovResult:
    """Discrete Besov membership: 2^{-j} S_j(p) <= C 2^{-s p j} (finite p),
    e_lambda <= C 2^{-s j} (p = infinity).

    The per-scale best constants c_j are computed over the scale range;
    membership requires their log2 growth rate to stay below ``growth_tol``
    (a bounded sequence at the achievable resolution), and the reported
    constant is max c_j. The scale range (default [3, j_max]) is clipped to
    the family and may include scale 0; a range holding no scale raises
    ScaleError.
    """
    if p == 0:
        raise DomainError("Besov membership is undefined for p = 0")
    f = family if window is None else restrict(family, window)
    if fit_range is None:
        fit_range = (max(3, f.j_min), f.j_max)
    j1, j2 = max(int(fit_range[0]), f.j_min), min(int(fit_range[1]), f.j_max)
    if j2 < j1:
        raise ScaleError(f"scale range ({j1}, {j2}) holds no scale of the family")
    js = np.arange(j1, j2 + 1, dtype=float)
    per_scale = [_masked_values(f, j) for j in range(j1, j2 + 1)]
    if math.isinf(p):
        with np.errstate(divide="ignore"):
            log2_c = s * js + np.log2([v.max(initial=0.0) for v in per_scale])
    else:
        log2_c = (s * p - 1.0) * js + _log2_sums(per_scale, [p])[0][0]
    if not np.any(np.isfinite(log2_c)):
        # vacuous bound: the family vanishes on the window
        return BesovResult(True, 0.0, 0.0)
    growth = float(_line_fit(js, log2_c)[0])
    if math.isnan(growth):      # a single scale shows no growth
        growth = 0.0
    cmax = float(np.max(log2_c))
    constant = 2.0 ** cmax if cmax < 1023 else math.inf
    return BesovResult(growth <= growth_tol, constant, growth)


# ---------------------------------------------------------------------------
# report container (JSON schema of the CLI)


def scaling_to_dict(sf: ScalingFunction, spectrum: LegendreSpectrum | None = None,
                    local: list | None = None) -> dict:
    """Result dictionary following the toolkit's JSON schema."""
    out = {
        "window": [sf.window.lo, sf.window.hi],
        "p_grid": sf.p_grid.tolist(),
        "tau": sf.tau.tolist(),
        "eta": sf.eta.tolist(),
        "tau_tailmin": sf.tau_tailmin.tolist(),
        "fit": {
            "j1": sf.fit_range[0],
            "j2": sf.fit_range[1],
            "residuals": sf.residuals.tolist(),
        },
    }
    if spectrum is not None:
        out["legendre"] = {"H": spectrum.H_grid.tolist(), "L": spectrum.L.tolist()}
    if local is not None:
        out["local"] = local
    return out
