"""Dyadic interval arithmetic, dyadic families, and pointwise exponents.

Everything lives on the unit interval [0, 1). A cube of scale j and offset k
is the half-open interval [k 2^-j, (k+1) 2^-j). A family attaches one
nonnegative value to every cube of a scale range that fits inside a window;
pointwise exponents are finite-scale log-log surrogates evaluated along the
chain of cubes containing a point.

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
    "DyadicCube",
    "Window",
    "DyadicFamily",
    "ExponentEstimate",
    "cube_at",
    "neighborhood",
    "restrict",
    "lower_exponent",
    "upper_exponent",
    "write_family",
    "read_family",
    "family_to_csv",
]


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Half-open dyadic interval [k 2^-j, (k+1) 2^-j)."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 0:
            raise DomainError(f"cube scale must be nonnegative, got {self.j}")
        if not 0 <= self.k < (1 << self.j):
            raise DomainError(f"cube offset {self.k} out of range at scale {self.j}")

    @property
    def lo(self) -> float:
        return self.k * 2.0 ** -self.j

    @property
    def hi(self) -> float:
        return (self.k + 1) * 2.0 ** -self.j

    @property
    def width(self) -> float:
        return 2.0 ** -self.j

    def contains(self, x: float) -> bool:
        return self.lo <= x < self.hi

    @property
    def parent(self) -> "DyadicCube":
        if self.j == 0:
            raise DomainError("the root cube has no parent")
        return DyadicCube(self.j - 1, self.k >> 1)

    @property
    def children(self) -> tuple["DyadicCube", "DyadicCube"]:
        return (DyadicCube(self.j + 1, 2 * self.k),
                DyadicCube(self.j + 1, 2 * self.k + 1))


@dataclass(frozen=True)
class Window:
    """Half-open analysis window [lo, hi) with 0 <= lo < hi <= 1."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise WindowError(f"invalid window [{self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

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

    def intersect(self, other: "Window") -> "Window | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Window(lo, hi)

    @staticmethod
    def ball(x: float, r: float) -> "Window":
        """B(x, r) clipped to [0, 1)."""
        if r <= 0:
            raise WindowError(f"ball radius must be positive, got {r}")
        return Window(max(0.0, x - r), min(1.0, x + r))


def cube_at(x: float, j: int) -> DyadicCube:
    """Unique scale-j cube containing x in [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"point {x} outside [0, 1)")
    if j < 0:
        raise DomainError(f"scale must be nonnegative, got {j}")
    k = min(int(math.floor(x * (1 << j))), (1 << j) - 1)
    return DyadicCube(j, k)


def neighborhood(cube: DyadicCube) -> list[DyadicCube]:
    """Same-scale cubes covering 3*cube, clipped to [0, 1) (no wrap)."""
    ks = range(max(0, cube.k - 1), min((1 << cube.j) - 1, cube.k + 1) + 1)
    return [DyadicCube(cube.j, k) for k in ks]


class DyadicFamily:
    """Nonnegative quantities attached to the dyadic cubes of a window.

    Parameters
    ----------
    j_min, j_max : int
        Inclusive scale range.
    window : Window
        Analysis window; at scale j the stored values cover exactly the
        cubes contained in it.
    values : sequence of 1-D arrays
        One array per scale, ``values[j - j_min][i]`` being the value of the
        cube with offset ``window.cube_range(j)[0] + i``.
    valid : sequence of 1-D bool arrays, optional
        Per-cube flags; invalid cubes are skipped by structure-function sums
        (used e.g. to exclude wrap-around leader cubes).

    All arrays are made read-only; instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, j_min, j_max, window, values, valid=None):
        j_min, j_max = int(j_min), int(j_max)
        if j_min < 0 or j_max < j_min:
            raise ScaleError(f"invalid scale range [{j_min}, {j_max}]")
        if len(values) != j_max - j_min + 1:
            raise ScaleError(
                f"expected {j_max - j_min + 1} value arrays, got {len(values)}")
        self.j_min, self.j_max = j_min, j_max
        self.window = window
        vals = []
        for i, j in enumerate(range(j_min, j_max + 1)):
            a = np.ascontiguousarray(values[i], dtype=float)
            n = window.n_cubes(j)
            if a.ndim != 1 or a.size != n:
                raise ScaleError(
                    f"scale {j}: expected {n} values for window "
                    f"[{window.lo}, {window.hi}), got {a.size}")
            if a.size and (not np.all(np.isfinite(a)) or a.min() < 0):
                raise DomainError(f"scale {j}: values must be finite and >= 0")
            a.flags.writeable = False
            vals.append(a)
        self._values = tuple(vals)
        if valid is None:
            self._valid = None
        else:
            masks = []
            for i, j in enumerate(range(j_min, j_max + 1)):
                m = np.ascontiguousarray(valid[i], dtype=bool)
                if m.size != self._values[i].size:
                    raise ScaleError(f"scale {j}: valid mask length mismatch")
                m.flags.writeable = False
                masks.append(m)
            self._valid = tuple(masks)

    @property
    def scales(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def n_scales(self) -> int:
        return self.j_max - self.j_min + 1

    def k_lo(self, j: int) -> int:
        return self.window.cube_range(j)[0]

    def n_cubes(self, j: int) -> int:
        return self._values[j - self.j_min].size

    def values_at(self, j: int) -> np.ndarray:
        if not self.j_min <= j <= self.j_max:
            raise ScaleError(f"scale {j} outside [{self.j_min}, {self.j_max}]")
        return self._values[j - self.j_min]

    def valid_at(self, j: int) -> np.ndarray | None:
        if self._valid is None:
            return None
        return self._valid[j - self.j_min]

    def value(self, j: int, k: int) -> float:
        a = self.values_at(j)
        i = k - self.k_lo(j)
        if not 0 <= i < a.size:
            raise OutOfWindowError(f"cube ({j}, {k}) not stored")
        return float(a[i])

    def point_values(self, x: float) -> np.ndarray:
        """e over the cube chain of x, one entry per scale (NaN if the cube
        at that scale sticks out of the window)."""
        if not self.window.contains(x):
            raise OutOfWindowError(f"point {x} outside window "
                                   f"[{self.window.lo}, {self.window.hi})")
        out = np.full(self.n_scales(), np.nan)
        for i, j in enumerate(self.scales):
            k = cube_at(x, j).k
            k_lo, k_hi = self.window.cube_range(j)
            if k_lo <= k < k_hi:
                out[i] = self._values[i][k - k_lo]
        return out

    def restrict(self, w: Window) -> "DyadicFamily":
        return restrict(self, w)

    def __repr__(self):
        return (f"DyadicFamily(j_min={self.j_min}, j_max={self.j_max}, "
                f"window=[{self.window.lo}, {self.window.hi}))")


def restrict(family: DyadicFamily, w: Window) -> DyadicFamily:
    """Family keeping exactly the cubes contained in w; scale range unchanged."""
    inter = family.window.intersect(w)
    if inter is None:
        raise WindowError(f"window [{w.lo}, {w.hi}) does not overlap the family")
    if inter.n_cubes(family.j_max) == 0:
        raise EmptyWindowError(
            f"no cube of scale {family.j_max} fits inside [{inter.lo}, {inter.hi})")
    values, valid = [], []
    for j in family.scales:
        old_lo, _ = family.window.cube_range(j)
        new_lo, new_hi = inter.cube_range(j)
        sl = slice(new_lo - old_lo, new_hi - old_lo)
        values.append(family.values_at(j)[sl])
        m = family.valid_at(j)
        if m is not None:
            valid.append(m[sl])
    return DyadicFamily(family.j_min, family.j_max, inter, values,
                        valid=valid if family._valid is not None else None)


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


def _exponent(family, x, method, fit_range, tail_max):
    if family.n_scales() < 4:
        raise ScaleError("pointwise exponents need a family with >= 4 scales")
    j1, j2 = _fit_scales(family, fit_range, family.j_max, 2)
    vals = family.point_values(x)
    js = np.array(family.scales)
    sel = (js >= j1) & (js <= j2) & ~np.isnan(vals)
    if not np.any(sel):
        raise OutOfWindowError(
            f"no analysis cube of the fit range lies inside the window at x={x}")
    return _estimate(js[sel], vals[sel], method, tail_max, (j1, j2))


def lower_exponent(family: DyadicFamily, x: float, method: str = "tail-min",
                   fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Finite-scale surrogate of the lower exponent of the family at x.

    ``tail-min`` takes the minimum of the chord slopes log2 e_{lambda_j(x)}
    / (-j) over the fit range (liminf-faithful on exact cascades);
    ``regression`` fits a least-squares slope to log2 e against -j, which is
    preferable on noisy data. Cubes with value 0 contribute +inf chords and
    are effectively skipped; if the family vanishes at every scale of the
    range the estimate is +inf.
    """
    return _exponent(family, x, method, fit_range, tail_max=False)


def upper_exponent(family: DyadicFamily, x: float, method: str = "tail-min",
                   fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Limsup counterpart of :func:`lower_exponent` (tail-max of chords).

    In ``regression`` mode the estimate coincides with the lower one; only
    the tail method distinguishes the two at finite scales.
    """
    return _exponent(family, x, method, fit_range, tail_max=True)


# ---------------------------------------------------------------------------
# serialization

_HEADER = "#dyadic-family"


def write_family(path, family: DyadicFamily) -> None:
    """Textual container: one header line, then one `j,k,value[,valid]` row
    per cube."""
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} j_min={family.j_min} j_max={family.j_max} "
                 f"lo={family.window.lo!r} hi={family.window.hi!r} "
                 f"masked={int(family._valid is not None)}\n")
        fh.write(family_to_csv(family))


def family_to_csv(family: DyadicFamily) -> str:
    """CSV body `j,k,value` (plus a `valid` column when a mask is present)."""
    masked = family._valid is not None
    lines = ["j,k,value,valid" if masked else "j,k,value"]
    for j in family.scales:
        k0 = family.k_lo(j)
        vals = family.values_at(j)
        mask = family.valid_at(j)
        for i, v in enumerate(vals):
            if masked:
                lines.append(f"{j},{k0 + i},{float(v)!r},{int(mask[i])}")
            else:
                lines.append(f"{j},{k0 + i},{float(v)!r}")
    return "\n".join(lines) + "\n"


def read_family(path) -> DyadicFamily:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(_HEADER):
            raise WindowError(f"{path}: not a dyadic-family file")
        meta = dict(tok.split("=") for tok in header.split()[1:])
        j_min, j_max = int(meta["j_min"]), int(meta["j_max"])
        window = Window(float(meta["lo"]), float(meta["hi"]))
        masked = bool(int(meta.get("masked", "0")))
        fh.readline()  # column header
        values = [np.zeros(window.n_cubes(j)) for j in range(j_min, j_max + 1)]
        valid = [np.ones(window.n_cubes(j), bool) for j in range(j_min, j_max + 1)]
        seen = [np.zeros(window.n_cubes(j), bool) for j in range(j_min, j_max + 1)]
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            try:
                j, k, v = int(parts[0]), int(parts[1]), float(parts[2])
                flag = bool(int(parts[3])) if masked else True
            except (ValueError, IndexError) as exc:
                raise WindowError(f"{path}: malformed row {line.strip()!r}") from exc
            if not j_min <= j <= j_max:
                raise WindowError(f"{path}: scale {j} outside [{j_min}, {j_max}]")
            i = k - window.cube_range(j)[0]
            if not 0 <= i < seen[j - j_min].size or seen[j - j_min][i]:
                raise WindowError(
                    f"{path}: cube ({j}, {k}) lies outside the window or is "
                    f"listed twice")
            seen[j - j_min][i] = True
            values[j - j_min][i] = v
            valid[j - j_min][i] = flag
    for j, s in zip(range(j_min, j_max + 1), seen):
        if not s.all():
            raise WindowError(f"{path}: {int((~s).sum())} cubes of scale {j} "
                              f"have no row")
    return DyadicFamily(j_min, j_max, window, values,
                        valid=valid if masked else None)
