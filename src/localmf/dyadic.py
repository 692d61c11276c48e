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

    def contains(self, x: float) -> bool:
        return self.lo <= x < self.hi

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


def _cube_values(family: DyadicFamily, j: int, a: int, b: int) -> np.ndarray:
    """Values of the valid scale-j cubes of offsets [a, b), read in place."""
    v, m = family.values_at(j)[a:b], family.valid_at(j)
    return v if m is None else v[m[a:b]]


def _scale_sups(family: DyadicFamily, scales, cube_range) -> np.ndarray:
    """The largest value of the valid scale-j cubes of offsets
    ``cube_range(j)``, for each scale j; NaN at a scale where none of them
    is valid."""
    sups = []
    for j in scales:
        v = _cube_values(family, j, *cube_range(j))
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
    NaN throughout.
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
    rms = np.sqrt((r * r).sum(axis=-1) / nn)
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


def _chords(js, log2v):
    """Log-log summary of every row of log2v against the scales js.

    Rows keep their finite entries only. Returns the least-squares slope
    of log2 v against -j, its RMS residual (both NaN below 2 entries), and
    the smallest and largest anchored chord log2 v / (-j) (+inf and -inf
    for a row without a finite entry).
    """
    slope, _, resid = _line_fit(-js, log2v)
    ok = np.isfinite(log2v)
    chords = log2v / -js
    return (slope, resid, np.where(ok, chords, math.inf).min(axis=-1),
            np.where(ok, chords, -math.inf).max(axis=-1))


def _estimate(js, v, method, tail_max, fit_range):
    """Exponent estimate from the values v >= 0 at the scales js.

    ``regression`` takes the log-log slope, or the single chord when only
    one value is nonzero; ``tail-min`` takes the smallest chord, or the
    largest with ``tail_max``. Zero values leave the fit; if every value
    is zero the estimate is +inf.
    """
    if method not in ("tail-min", "regression"):
        raise DomainError(f"unknown exponent method {method!r}")
    if not np.any(v > 0):
        # support convention: the family vanishes on every scale
        return ExponentEstimate(math.inf, math.nan, fit_range, 0.0)
    with np.errstate(divide="ignore"):
        log2v = np.log2(v)                  # v == 0 -> -inf, skipped
    slope, resid, lo, hi = map(float, _chords(js, log2v))
    if method == "regression" and not math.isnan(slope):
        value = slope
    else:
        value = hi if tail_max else lo
    return ExponentEstimate(value, slope, fit_range,
                            resid if not math.isnan(resid) else 0.0)


def _sup_exponent(family, cube_range, method, fit_range, tail_max):
    """Exponent estimate from the sups of :func:`_scale_sups` over the fit
    range (default [3, j_max]). A scale without a valid cube leaves the
    fit; a range left with none raises EmptyWindowError."""
    j1, j2 = _fit_scales(family, fit_range, family.j_max, 2)
    sups = _scale_sups(family, range(j1, j2 + 1), cube_range)
    keep = ~np.isnan(sups)
    if not keep.any():
        raise EmptyWindowError(f"no valid cube in the fit range ({j1}, {j2})")
    js = np.arange(j1, j2 + 1, dtype=float)
    return _estimate(js[keep], sups[keep], method, tail_max, (j1, j2))


def _exponent(family, x, method, fit_range, tail_max):
    """Estimate over the chain of x: at scale j the cube of offset
    floor(x 2^j)."""
    if family.n_scales() < 4:
        raise ScaleError("pointwise exponents need a family with >= 4 scales")
    if not 0.0 <= x < 1.0:
        raise OutOfWindowError(f"point {x} outside [0, 1)")

    def chain(j):
        k = int(x * (1 << j))
        return k, k + 1
    return _sup_exponent(family, chain, method, fit_range, tail_max)


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
    return _exponent(family, x, method, fit_range, tail_max=False)


def upper_exponent(family: DyadicFamily, x: float, method: str = "tail-min",
                   fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Limsup counterpart of :func:`lower_exponent` (tail-max of chords).

    In ``regression`` mode the estimate coincides with the lower one; only
    the tail method distinguishes the two at finite scales.
    """
    return _exponent(family, x, method, fit_range, tail_max=True)
