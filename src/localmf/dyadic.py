"""Dyadic interval arithmetic, dyadic families, and pointwise exponents.

Everything lives on the unit interval [0, 1). A cube of scale j and offset k
is the half-open interval [k 2^-j, (k+1) 2^-j). A family attaches one
nonnegative value to every cube of [0, 1) at each scale of a range;
pointwise exponents are finite-scale log-log surrogates evaluated along the
valid cubes of the chain containing a point.

Scaling a float by 2^j is exact in binary floating point, so window/cube
containment tests below involve no rounding beyond what is already present
in the window endpoints themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyWindowError,
    OutOfWindowError,
    ScaleError,
    WindowError,
)

__all__ = [
    "Window",
    "DyadicFamily",
    "ExponentEstimate",
    "lower_exponent",
    "upper_exponent",
]


@dataclass(frozen=True)
class Window:
    """Half-open analysis window [lo, hi) with 0 <= lo < hi <= 1."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise WindowError(f"invalid window [{self.lo}, {self.hi})")

    def cube_range(self, j: int) -> tuple[int, int]:
        """Offsets [k_lo, k_hi) of the scale-j cubes contained in the window."""
        k_lo = math.ceil(self.lo * (1 << j))
        k_hi = math.floor(self.hi * (1 << j))
        return k_lo, max(k_lo, k_hi)

    def n_cubes(self, j: int) -> int:
        k_lo, k_hi = self.cube_range(j)
        return k_hi - k_lo

    @staticmethod
    def ball(x: float, r: float) -> "Window":
        """B(x, r) clipped to [0, 1); x must be finite and r finite and
        positive."""
        if not math.isfinite(x):
            raise WindowError(f"ball centre must be finite, got {x}")
        if not (math.isfinite(r) and r > 0):
            raise WindowError(f"ball radius must be positive and finite, got {r}")
        return Window(max(0.0, x - r), min(1.0, x + r))


class DyadicFamily:
    """Nonnegative quantities attached to the dyadic cubes of [0, 1).

    Parameters
    ----------
    j_min, j_max : int
        Inclusive scale range.
    values : sequence of 1-D arrays
        One array of 2^j values per scale j, ``values[j - j_min][k]`` being
        the value of the cube with offset k.
    valid : sequence of 1-D bool arrays, optional
        Per-cube flags shaped like the values; invalid cubes are skipped by
        partition sums, pointwise and uniform exponents and Besov sups (used
        e.g. to exclude wrap-around leader cubes, or the cubes outside the
        part of the domain where data is known).

    All arrays are made read-only; instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, j_min, j_max, values, valid=None):
        j_min, j_max = int(j_min), int(j_max)
        if j_min < 0 or j_max < j_min:
            raise ScaleError(f"invalid scale range [{j_min}, {j_max}]")
        self.j_min, self.j_max = j_min, j_max
        self._values = self._per_scale(values, float, "values")
        for j, a in zip(self.scales, self._values):
            if not np.all(np.isfinite(a)) or a.min() < 0:
                raise DomainError(f"scale {j}: values must be finite and >= 0")
        self._valid = None if valid is None else self._per_scale(
            valid, bool, "valid flags")

    def _per_scale(self, arrays, dtype, what) -> tuple:
        """Read-only copies (or views) of one 1-D array of 2^j entries per
        scale j."""
        if len(arrays) != self.n_scales():
            raise ScaleError(
                f"expected {self.n_scales()} arrays of {what}, got {len(arrays)}")
        out = []
        for j, a in zip(self.scales, arrays):
            a = np.ascontiguousarray(a, dtype=dtype)
            if a.shape != (1 << j,):
                raise ScaleError(
                    f"scale {j}: expected {1 << j} {what}, got shape {a.shape}")
            a.flags.writeable = False
            out.append(a)
        return tuple(out)

    @property
    def scales(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def n_scales(self) -> int:
        return self.j_max - self.j_min + 1

    def _index(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise ScaleError(f"scale {j} outside [{self.j_min}, {self.j_max}]")
        return j - self.j_min

    def n_cubes(self, j: int) -> int:
        return self._values[self._index(j)].size

    def values_at(self, j: int) -> np.ndarray:
        return self._values[self._index(j)]

    def valid_at(self, j: int) -> np.ndarray | None:
        i = self._index(j)
        return None if self._valid is None else self._valid[i]


def _clip_window(family: DyadicFamily, w: Window | None) -> Window:
    """w, which must hold a cube of the family's finest scale; the whole
    domain [0, 1) when w is None."""
    if w is None:
        return Window(0.0, 1.0)
    if w.n_cubes(family.j_max) == 0:
        raise EmptyWindowError(
            f"no cube of scale {family.j_max} fits inside [{w.lo}, {w.hi})")
    return w


def _scale_sups(family: DyadicFamily, scales, cube_range) -> np.ndarray:
    """The largest value of the valid scale-j cubes of offsets
    ``cube_range(j)``, read in place, for each scale j; NaN at a scale
    where none of them is valid."""
    sups = []
    for j in scales:
        a, b = cube_range(j)
        v, m = family.values_at(j)[a:b], family.valid_at(j)
        v = v if m is None else v[m[a:b]]
        sups.append(v.max() if v.size else math.nan)
    return np.array(sups)


@dataclass(frozen=True)
class ExponentEstimate:
    """Finite-scale pointwise exponent estimate.

    ``value`` is the estimate for the selected method (may be +inf when the
    family vanishes along the cube chain); ``slope_fit`` and ``residual``
    are the log-log regression slope and RMS residual, kept as diagnostics
    for both methods.
    """

    value: float
    slope_fit: float
    fit_range: tuple[int, int]
    residual: float


def _line_fit(x, Y):
    """Least-squares lines y = slope x + intercept, one per row of Y.

    Each row is fitted over its finite entries only (x is shared, along
    the last axis). Returns (slopes, intercepts, RMS residuals), each of
    Y's shape without its last axis; rows keeping fewer than 2 points get
    NaN throughout. The residuals are divided by the power of two that
    brings their largest finite magnitude into [1, 2) before squaring, so
    the RMS does not overflow and is otherwise unchanged.
    """
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m = np.isfinite(Y)
    n = m.sum(axis=-1)
    few = n < 2
    nn = np.maximum(n, 1)
    x_mean = (m * x).sum(axis=-1) / nn
    y_mean = np.where(m, Y, 0.0).sum(axis=-1) / nn
    dx = np.where(m, x - x_mean[..., None], 0.0)
    dy = np.where(m, Y - y_mean[..., None], 0.0)
    sxx = (dx * dx).sum(axis=-1)
    slope = (dx * dy).sum(axis=-1) / np.where(few, 1.0, sxx)
    intercept = y_mean - slope * x_mean
    r = dy - slope[..., None] * dx
    scale = np.ldexp(1.0, np.frexp(np.where(np.isfinite(r), np.abs(r), 0.0)
                                   .max(axis=-1, initial=0.0))[1] - 1)
    r /= scale[..., None]
    rms = np.sqrt((r * r).sum(axis=-1) / nn) * scale
    return (np.where(few, np.nan, slope), np.where(few, np.nan, intercept),
            np.where(few, np.nan, rms))


def _fit_scales(family, fit_range, top, min_scales):
    """Scale range (j1, j2) of a log-log fit on the family.

    ``fit_range`` defaults to [3, top]. It is clipped to the family's
    scales and never includes scale 0, where the anchored chord log2 v /
    (-j) is undefined. A range left with fewer than ``min_scales`` scales
    raises ScaleError.
    """
    j1, j2 = (3, top) if fit_range is None else map(int, fit_range)
    j1, j2 = max(j1, family.j_min, 1), min(j2, family.j_max)
    if j2 - j1 + 1 < min_scales:
        raise ScaleError(
            f"fit range ({j1}, {j2}) must contain >= {min_scales} scales")
    return j1, j2


# float64 entries of the rows one fit takes at a time (32 kB), so a fit's
# temporaries do not grow with the number of rows
_FIT_WORK = 1 << 12


def _chords(js, log2v):
    """Log-log estimates of every row of log2v against the scales js, each
    row over its finite entries: the least-squares slope of log2 v against
    -j (NaN below 2 entries), the estimate (that slope, or the smallest
    chord below 2 entries), the slope's RMS residual (0 below 2 entries),
    and the smallest and largest anchored chord log2 v / (-j), both +inf
    in a row without a finite entry (values vanishing at every scale).
    Rows are fitted ``_FIT_WORK`` entries at a time.
    """
    shape = log2v.shape[:-1]
    Y = log2v.reshape(math.prod(shape), js.size)
    out = [np.empty(Y.shape[0]) for _ in range(5)]
    step = max(1, _FIT_WORK // max(1, js.size))
    for a in range(0, Y.shape[0], step):
        y = Y[a:a + step]
        slope, _, resid = _line_fit(-js, y)
        ok = np.isfinite(y)
        chords = y / -js
        lo = np.where(ok, chords, math.inf).min(axis=-1)
        hi = np.where(ok.any(axis=-1),
                      np.where(ok, chords, -math.inf).max(axis=-1), math.inf)
        fitted = ~np.isnan(slope)
        for o, v in zip(out, (slope, np.where(fitted, slope, lo),
                              np.where(fitted, resid, 0.0), lo, hi)):
            o[a:a + step] = v
    return tuple(o.reshape(shape) for o in out)


@dataclass(frozen=True)
class _Exponents:
    """Exponent estimates of a batch of rows over one fit range: the
    estimate, the regression slope and its RMS residual of each row."""

    value: np.ndarray
    slope_fit: np.ndarray
    residual: np.ndarray
    fit_range: tuple[int, int]

    def row(self, i: int) -> ExponentEstimate:
        return ExponentEstimate(float(self.value[i]), float(self.slope_fit[i]),
                                self.fit_range, float(self.residual[i]))


def _sup_exponents(sups, fit_range, method, tail_max) -> _Exponents:
    """The exponent estimates of the rows of sups (n_rows x n_scales), the
    sups at the scales of ``fit_range``, NaN where a scale has no valid
    cube. ``regression`` takes the estimate of :func:`_chords`,
    ``tail-min`` the smallest chord, or the largest with ``tail_max``. NaN
    and zero sups leave the fit, a row of zero sups gets +inf, and a row
    without a valid cube raises EmptyWindowError."""
    j1, j2 = fit_range
    if np.isnan(sups).all(axis=-1).any():
        raise EmptyWindowError(f"no valid cube in the fit range ({j1}, {j2})")
    if method not in ("tail-min", "regression"):
        raise DomainError(f"unknown exponent method {method!r}")
    with np.errstate(divide="ignore"):
        log2v = np.log2(sups)               # v == 0 -> -inf, skipped
    slope, tau, resid, lo, hi = _chords(np.arange(j1, j2 + 1, dtype=float),
                                        log2v)
    value = tau if method == "regression" else hi if tail_max else lo
    return _Exponents(value, slope, resid, fit_range)


def _chain_exponents(family, xs, method, fit_range, tail_max) -> _Exponents:
    """:func:`_sup_exponents` over the chains of the points xs, one row per
    point: at scale j the point's sup is its cube of offset floor(x 2^j),
    NaN if that cube is invalid, gathered for every point at once. The fit
    range defaults to [3, j_max]; a point outside [0, 1) raises
    OutOfWindowError."""
    xs = np.asarray(xs, dtype=float)
    outside = ~((xs >= 0.0) & (xs < 1.0))
    if outside.any():
        raise OutOfWindowError(f"point {xs[outside][0]} outside [0, 1)")
    j1, j2 = _fit_scales(family, fit_range, family.j_max, 2)
    sups = np.empty((xs.size, j2 - j1 + 1))
    for i, j in enumerate(range(j1, j2 + 1)):
        k = (xs * (1 << j)).astype(np.intp)
        sups[:, i] = family.values_at(j)[k]
        m = family.valid_at(j)
        if m is not None:
            sups[~m[k], i] = math.nan
    return _sup_exponents(sups, (j1, j2), method, tail_max)


def lower_exponent(family: DyadicFamily, x: float, method: str = "tail-min",
                   fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Finite-scale surrogate of the lower exponent of the family at x.

    ``tail-min`` takes the minimum of the chord slopes log2 e_{lambda_j(x)}
    / (-j) over the fit range (liminf-faithful on exact cascades);
    ``regression`` fits a least-squares slope to log2 e against -j, which is
    preferable on noisy data. Cubes with value 0 contribute +inf chords and
    are effectively skipped; if the family vanishes at every scale of the
    range the estimate is +inf. Invalid cubes leave the fit; a chain with
    no valid cube in the range raises EmptyWindowError.
    """
    return _chain_exponents(family, [x], method, fit_range, False).row(0)


def upper_exponent(family: DyadicFamily, x: float, method: str = "tail-min",
                   fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Limsup counterpart of :func:`lower_exponent` (tail-max of chords).

    In ``regression`` mode the estimate coincides with the lower one; only
    the tail method distinguishes the two at finite scales.
    """
    return _chain_exponents(family, [x], method, fit_range, True).row(0)
