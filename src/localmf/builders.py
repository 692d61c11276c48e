"""Build dyadic families from binned measures, sampled signals, and
Birkhoff sums of a two-valued digit potential."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._textio import format_rows, parse_rows
from .dyadic import DyadicFamily
from .errors import DomainError, RangeError, ScaleError, SignalError

__all__ = [
    "BinnedMeasure",
    "DigitPotential",
    "measure_family",
    "plain_measure_family",
    "oscillation_family",
    "birkhoff_family",
    "write_measure",
    "read_measure",
]


def _check_power_of_two(n: int, what: str) -> int:
    if n < 1 or n & (n - 1):
        raise SignalError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class BinnedMeasure:
    """Nonnegative mass per dyadic bin of scale J (2^J bins on [0, 1))."""

    masses: np.ndarray
    total_mass: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = np.ascontiguousarray(self.masses, dtype=float)
        _check_power_of_two(m.size, "bin count")
        if not np.all(np.isfinite(m)) or m.min() < 0:
            raise DomainError("bin masses must be finite and >= 0")
        total = float(m.sum())
        if total <= 0:
            raise DomainError("total mass must be positive")
        if self.total_mass is not None:
            if abs(total - self.total_mass) > 1e-12 * max(1.0, abs(self.total_mass)):
                raise DomainError(
                    f"declared total mass {self.total_mass} does not match "
                    f"bin sum {total}")
        m.flags.writeable = False
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "total_mass", total)

    @property
    def J(self) -> int:
        return self.masses.size.bit_length() - 1


def _pairwise_pyramid(x: np.ndarray, op) -> list[np.ndarray]:
    """Per-cube reduction of the 2^J finest values at scales 0..J (entry j
    of the list), by op over sibling pairs (np.add gives cube masses)."""
    out = [x]
    while out[-1].size > 1:
        out.append(op(out[-1][0::2], out[-1][1::2]))
    return out[::-1]


def _neighbor3(a: np.ndarray, op, pad) -> np.ndarray:
    """op over {k-1, k, k+1} with boundary clipping."""
    left = np.concatenate(([pad], a[:-1]))
    right = np.concatenate((a[1:], [pad]))
    return op(op(left, a), right)


def _cube_masses(measure: BinnedMeasure, j_max: int) -> list[np.ndarray]:
    """mu(lambda) per scale 0..j_max."""
    return _pairwise_pyramid(measure.masses, np.add)[: j_max + 1]


def _require_scales(measure: BinnedMeasure, j_max: int) -> None:
    if j_max < 4:
        raise ScaleError(f"j_max must be >= 4, got {j_max}")
    if j_max > measure.J:
        raise ScaleError(f"j_max={j_max} exceeds the measure's bin scale {measure.J}")


def measure_family(measure: BinnedMeasure, j_max: int) -> DyadicFamily:
    """Family e_lambda = mu(3 lambda), the neighborhood mass (clipped at the
    domain boundary)."""
    _require_scales(measure, j_max)
    return DyadicFamily(0, j_max, [_neighbor3(mu, np.add, 0.0)
                                   for mu in _cube_masses(measure, j_max)])


def plain_measure_family(measure: BinnedMeasure, j_max: int) -> DyadicFamily:
    """Family e_lambda = mu(lambda), the dyadic (non-enlarged) cube mass."""
    _require_scales(measure, j_max)
    return DyadicFamily(0, j_max, _cube_masses(measure, j_max))


# ---------------------------------------------------------------------------
# oscillations


def oscillation_family(signal, order: int = 1, j_max: int | None = None) -> DyadicFamily:
    """Oscillations of a sampled function over the enlarged cubes 3 lambda.

    ``order=1`` uses max - min over the samples of 3 lambda; ``order=2``
    uses the sup of |f(x+2h) - 2 f(x+h) + f(x)| over sampled x, h with both
    endpoints in 3 lambda. Sampling is not refined below the input grid, so
    values converge at the rate of the modulus of continuity. With m =
    2^(J-j) of the n = 2^J samples per scale-j cube, 3 lambda of cube k is
    samples [(k-1)m, (k+2)m) clipped to [0, n), and its order-2 value is the
    max over lags 1 <= h <= (3m - 1)/2 of |x[i+2h] - 2 x[i+h] + x[i]| over
    max((k-1)m, 0) <= i < min((k+2)m, n) - 2h (0 where nothing fits); the
    clipped boundary cubes follow the same rule.
    """
    x = np.ascontiguousarray(signal, dtype=float)
    if x.ndim != 1:
        raise SignalError("signal must be one-dimensional")
    J = _check_power_of_two(x.size, "signal length")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains non-finite samples")
    if order not in (1, 2):
        raise DomainError(f"oscillation order must be 1 or 2, got {order}")
    if j_max is None:
        j_max = max(0, J - 3)
    if j_max > J:
        raise ScaleError(f"j_max={j_max} exceeds the sample scale {J}")

    if order == 1:
        maxs = _pairwise_pyramid(x, np.maximum)
        mins = _pairwise_pyramid(x, np.minimum)
        values = []
        for j in range(0, j_max + 1):
            hi = _neighbor3(maxs[j], np.maximum, -np.inf)
            lo = _neighbor3(mins[j], np.minimum, np.inf)
            values.append(hi - lo)
        return DyadicFamily(0, j_max, values)

    # Order 2, one lag at a time: d_h = |x[i+2h] - 2 x[i+h] + x[i]| sits at
    # pad[n:2n-2h] and, as lags run downward, -inf fills the rest. So
    # pad[n-m:2n+m] is d_h padded with m entries in front and m + 2h behind,
    # 2^j + 2 rows of m, and cube k takes the first 3m - 2h entries from row
    # k on: q whole rows and r entries of the next. The padding stands in
    # for the samples that clipped cubes lack.
    n = x.size
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
    return DyadicFamily(0, j_max, best)


# ---------------------------------------------------------------------------
# Birkhoff families


@dataclass(frozen=True)
class DigitPotential:
    """Two-valued potential on binary digits: a on [0, 1/2), b on [1/2, 1),
    with continuous modulation functions gamma > 0 and theta."""

    a: float
    b: float
    gamma_fn: Callable[[np.ndarray], np.ndarray] | None = None
    theta_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def gamma(self, x: np.ndarray) -> np.ndarray:
        if self.gamma_fn is None:
            return np.ones_like(x)
        return np.asarray(self.gamma_fn(x), dtype=float)

    def theta(self, x: np.ndarray) -> np.ndarray:
        if self.theta_fn is None:
            return np.zeros_like(x)
        return np.asarray(self.theta_fn(x), dtype=float)


def _popcount(k: np.ndarray) -> np.ndarray:
    x = k.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def birkhoff_family(pot: DigitPotential, j_max: int) -> DyadicFamily:
    """Family e_lambda = sup_{x in lambda} exp(-gamma(x) S_j phi(x) - j theta(x)).

    The Birkhoff sum of the digit potential is constant on each scale-j
    cylinder (n_a a + n_b b, with n_a/n_b the digit counts of the cylinder
    word); the sup over the cube of the gamma/theta modulation is
    approximated on a two-point grid (left endpoint and midpoint), which is
    exact when gamma and theta are constant. An exponent whose exp is not
    a normal double (beyond about +-708) raises :class:`RangeError`: it
    would overflow, or underflow to a zero the family reads as outside
    the support.
    """
    if j_max < 4:
        raise ScaleError(f"j_max must be >= 4, got {j_max}")
    if pot.a == pot.b:
        warnings.warn("digit potential with a == b yields a trivial "
                      "(monofractal) family", stacklevel=2)
    probe = pot.gamma(np.linspace(0.0, 1.0, 257))
    if probe.min() <= 0:
        raise DomainError("gamma must be strictly positive on [0, 1]")
    lo, hi = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)
    values = []
    for j in range(0, j_max + 1):
        k = np.arange(1 << j, dtype=np.int64)
        n_b = _popcount(k)
        s = (j - n_b) * pot.a + n_b * pot.b
        width = 2.0 ** -j
        best = None
        for frac in (0.0, 0.5):
            xs = (k + frac) * width
            expo = -pot.gamma(xs) * s - j * pot.theta(xs)
            best = expo if best is None else np.maximum(best, expo)
        if not lo <= best.min() <= best.max() <= hi:
            raise RangeError(
                f"Birkhoff exponent at scale {j} spans [{best.min():.6g}, "
                f"{best.max():.6g}]; exp of it leaves the normal doubles "
                f"[{lo:.6g}, {hi:.6g}]")
        values.append(np.exp(best))
    return DyadicFamily(0, j_max, values)


# ---------------------------------------------------------------------------
# measure file format: header "J,total_mass" then 2^J mass lines


def write_measure(path, measure: BinnedMeasure) -> None:
    with open(path, "w") as fh:
        fh.write(f"{measure.J},{float(measure.total_mass)!r}\n")
        fh.writelines(format_rows(measure.masses))


def read_measure(path) -> BinnedMeasure:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 2:
            raise SignalError(f"{path}: malformed measure header")
        try:
            J, total = int(header[0]), float(header[1])
        except ValueError as exc:
            raise SignalError(f"{path}: unreadable measure header: {exc}") from exc
        size = os.fstat(fh.fileno()).st_size
        if J < 0 or 2 << J > size:
            # each of the 2^J mass lines takes at least 2 bytes
            raise SignalError(f"{path}: header scale {J} is negative or needs "
                              f"more mass lines than {size} bytes can hold")
        masses = parse_rows(fh, [("mass", "f8")], SignalError, path)["mass"]
    if masses.size != 1 << J:
        raise SignalError(f"{path}: expected {1 << J} mass lines, got {masses.size}")
    return BinnedMeasure(masses, total_mass=total)
