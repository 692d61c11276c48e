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


def _popcount(k: np.ndarray) -> np.ndarray:
    x = k.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


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


_WORK = 1 << 19     # float64 entries of one block of lags: its max pyramid and reads
_FLOAT_MAX = np.finfo(float).max


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

    Order 2 runs over blocks of consecutive lags (see
    :func:`_second_order`); a block's scratch is at most ``_WORK`` float64
    entries plus one lag's 2^(J+1), so a call stays under 16 MB up to J =
    14 and the values equal the one-lag-at-a-time reading bit for bit. A
    signal whose largest magnitude exceeds a quarter of the largest double
    is differenced as the copy x / 4 and the values scaled back by 4, so
    no difference overflows (the copy is exact unless a nonzero sample is
    below 2^-1020 in magnitude); an oscillation beyond the largest double
    raises :class:`RangeError`.
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

    # |x[i+2h] - 2 x[i+h] + x[i]| <= 4 max|x|, so below a quarter of the
    # largest double nothing overflows; above it, x / 4 is exact (barring
    # samples below 2^-1020) and so is scaling the values back by 4
    big = np.abs(x).max() > _FLOAT_MAX / 4
    if big:
        x = x / 4.0
    if order == 1:
        maxs = _pairwise_pyramid(x, np.maximum)
        mins = _pairwise_pyramid(x, np.minimum)
        values = []
        for j in range(0, j_max + 1):
            hi = _neighbor3(maxs[j], np.maximum, -np.inf)
            lo = _neighbor3(mins[j], np.minimum, np.inf)
            values.append(hi - lo)
    else:
        values = _second_order(x, J, j_max)
    if big:
        for j, v in enumerate(values):
            if v.max() > _FLOAT_MAX / 4:
                raise RangeError(
                    f"order-{order} oscillation at scale {j} exceeds the "
                    f"largest double {_FLOAT_MAX:.6g}")
            v *= 4.0
    return DyadicFamily(0, j_max, values)


def _second_order(x: np.ndarray, J: int, j_max: int) -> list[np.ndarray]:
    """Order-2 oscillations of the 2^J samples x at scales 0..j_max.

    At lag h, d_h[i] = |x[i+2h] - 2 x[i+h] + x[i]| for i < n - 2h and -inf
    up to n. The window [(k-1)m, (k+2)m - 2h) of cube k is q whole rows of
    m samples from row k - 1 on and the first r samples of the next, (q, r)
    = divmod(3m - 2h, m), and a row outside [0, 2^j) reads -inf. The lags
    run in blocks: a block forms d_h of its lags as one array, builds one
    pairwise max pyramid over positions, and reads every cube of every
    scale in one gather, the whole rows from level J - j and the r-sample
    prefix from the nodes of r's binary expansion. A lag costs its pyramid
    (2n entries) plus its reads, and :func:`_runs` cuts the lags into
    blocks of at most ``_WORK`` entries plus the block's first lag.
    """
    n = x.size
    best = np.zeros((2 << j_max) - 1)       # scale j at [2^j - 1, 2^(j+1) - 1)
    hs = np.arange(1, (n - 1) // 2 + 1)
    js = np.arange(j_max + 1)
    m = n >> js

    def pieces(h):
        """q, r and the pieces lags h read at every scale: bit L < J is the
        prefix node of level L, bit J + s the whole row s."""
        q, r = np.divmod(np.maximum(3 * m - 2 * h[:, None], 0), m)
        return q, r, r + (((1 << q) - 1) << J)

    bounds = _runs(2 * n + _popcount(pieces(hs)[2]) @ (1 << js), _WORK)
    # level L of the pyramid holds n / 2^L nodes from off[L]; node 2n - 1 is -inf
    W = 2 * n
    off = W - (W >> np.arange(J + 2))
    nodes = np.empty((max(np.diff(bounds), default=0), W))
    nodes[:, -1] = -np.inf
    xp = np.concatenate([x, np.zeros(n)])
    # row h of these is x[h:h+n] (2x[h:h+n]), all inside the padded copy
    x_at = np.lib.stride_tricks.sliding_window_view(xp, n)
    twice_at = np.lib.stride_tricks.sliding_window_view(2.0 * xp, n)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        h0, nh = b0 + 1, b1 - b0
        c0 = n - 2 * h0                     # d_h of the block's first lag ends here
        d = nodes[:nh, :c0]
        np.subtract(x_at[2 * h0:2 * (h0 + nh):2, :c0], twice_at[h0:h0 + nh, :c0], out=d)
        np.add(d, x[:c0], out=d)
        np.abs(d, out=d)
        nodes[:nh, c0:n] = -np.inf
        lo = c0 - 2 * (nh - 1)              # each later lag ends 2 samples earlier
        np.copyto(d[:, lo:], -np.inf, where=np.arange(lo, c0) >= c0 - 2 * np.arange(nh)[:, None])
        for L in range(1, J + 1):
            # nodes past the first ceil(c0 / 2^L) of a level cover only -inf
            live = -(-c0 >> L)
            below = nodes[:nh, off[L - 1]:off[L - 1] + 2 * live]
            np.maximum(below[:, 0::2], below[:, 1::2], out=nodes[:nh, off[L]:off[L] + live])
            nodes[:nh, off[L] + live:off[L + 1]] = -np.inf
        q, r, read = pieces(hs[b0:b1])
        t, j, p = np.nonzero(read[..., None] >> np.arange(J + 2) & 1)
        whole = p >= J
        level = np.where(whole, J - j, p)
        row = np.where(whole, p - J, q[t, j])         # cube k reads row k - 1 + row
        step = m[j] >> level
        higher = r[t, j] >> level >> 1 << 1           # bits of r above the piece
        first = t * W + off[level] + (row - 1) * step + higher
        # cube k of the piece reads node first + k step of the block
        count = 1 << j
        start = np.cumsum(count) - count
        e = np.arange(start[-1] + count[-1])
        idx = np.repeat(first - start * step, count) + e * np.repeat(step, count)
        idx[start[row == 0]] = W - 1                  # row -1
        idx[(start + count - 1)[row == 2]] = W - 1    # row 2^j
        np.maximum.at(best, np.repeat(count - 1 - start, count) + e,
                      nodes[:nh].reshape(-1)[idx])
    return np.split(best, (2 << js[:-1]) - 1)


def _runs(cost: np.ndarray, budget: int) -> list[int]:
    """Bounds of runs of consecutive items of the given costs, cut where
    the running cost passes a multiple of budget: a run costs at most
    budget plus its first item."""
    cuts = np.searchsorted(np.cumsum(cost), np.arange(budget, cost.sum(), budget),
                           side="right")
    return np.unique(np.concatenate([[0], cuts, [cost.size]])).tolist()


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
