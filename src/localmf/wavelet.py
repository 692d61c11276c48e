"""Discrete wavelet pyramids, wavelet leaders, p-leaders, and fractional
integration in coefficient space.

The transform is an orthonormal, periodized filter bank over compactly
supported Daubechies filters. Detail coefficients are stored in the
sup-normalization c_{j,k} = 2^{(j-J)/2} w_{j,k} (w being the orthonormal
filter-bank output of the 2^J samples), under which |c_{j,k}| ~ 2^{-h j}
around a point of pointwise regularity h, so the exponent machinery of
:mod:`localmf.dyadic` applies to leader families directly. Scale j carries
2^j coefficients, i.e. the cube (j, k) sits near k 2^-j.

Leader-based exponents are only meaningful when the basis is smoother than
the exponents analyzed: pick a filter whose vanishing-moment count exceeds
the largest expected exponent (the default db3 covers h < 3), and check
that the uniform regularity exponent of the data is positive first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicFamily, Window
from .errors import DomainError, FilterError, ScaleError, SignalError

__all__ = [
    "WaveletPyramid",
    "FILTERS",
    "dwt",
    "inverse_dwt",
    "leaders",
    "p_leaders",
    "frac_integrate",
    "read_signal",
    "write_signal",
    "pyramid_to_csv",
    "pyramid_from_csv",
]


def _daubechies(n_moments: int) -> np.ndarray:
    """Orthonormal Daubechies scaling filter with the given number of
    vanishing moments (length 2 n), by spectral factorization of the
    autocorrelation polynomial; computed at import to machine precision."""
    from math import comb

    acorr = [comb(n_moments - 1 + k, k) for k in range(n_moments)]
    zroots = []
    for y in (np.roots(acorr[::-1]) if n_moments > 1 else []):
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
    poly = np.array([1.0 + 0j])
    for _ in range(n_moments):
        poly = np.convolve(poly, [0.5, 0.5])
    for z in zroots:
        poly = np.convolve(poly, np.array([1.0, -z]) / (1.0 - z))
    h = np.real(poly) * np.sqrt(2.0)
    if abs(h[0]) < abs(h[-1]):        # keep the minimum-phase orientation
        h = h[::-1]
    return h


# Orthonormal scaling filters (sum h = sqrt(2)); the number of vanishing
# moments equals half the filter length.
FILTERS = {
    "haar": _daubechies(1),
    "db2": _daubechies(2),
    "db3": _daubechies(3),
    "db4": _daubechies(4),
}

DEFAULT_FILTER = "db3"
COARSE_DROP = 3  # analysis starts at scale j = 3; coarser scales hold too few cubes


def _filter_pair(filter_id: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        h = FILTERS[filter_id]
    except KeyError:
        raise FilterError(f"unknown wavelet filter {filter_id!r}; "
                          f"available: {sorted(FILTERS)}") from None
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    return h, g


@dataclass(frozen=True)
class WaveletPyramid:
    """Detail coefficients per scale plus the scale-0 approximation.

    ``details[j]`` holds the 2^j sup-normalized coefficients of scale j for
    j = 0 .. J-1; ``approx`` is the single orthonormal scaling coefficient
    left at the coarsest level (kept so the transform stays invertible).
    """

    n_samples: int
    filter_id: str
    details: tuple[np.ndarray, ...]
    approx: np.ndarray
    j_analysis_min: int = COARSE_DROP
    boundary: str = field(default="periodic")

    def __post_init__(self):
        for j, d in enumerate(self.details):
            if d.size != 1 << j:
                raise ScaleError(f"scale {j}: expected {1 << j} coefficients, "
                                 f"got {d.size}")
            if not np.all(np.isfinite(d)):
                raise SignalError(f"scale {j}: non-finite coefficients")
            d.flags.writeable = False

    @property
    def J(self) -> int:
        return self.n_samples.bit_length() - 1

    @property
    def j_max(self) -> int:
        return self.J - 1

    @property
    def analysis_scales(self) -> range:
        return range(self.j_analysis_min, self.J)

    def coefficients(self, j: int) -> np.ndarray:
        return self.details[j]


def _check_signal(x) -> tuple[np.ndarray, int]:
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 1:
        raise SignalError("signal must be one-dimensional")
    n = x.size
    if n < 16 or n & (n - 1):
        raise SignalError(f"signal length must be a power of two >= 16, got {n}")
    if not np.all(np.isfinite(x)):
        raise SignalError("signal contains non-finite samples")
    return x, n.bit_length() - 1


def dwt(signal, filter_id: str = DEFAULT_FILTER,
        boundary: str = "periodic") -> WaveletPyramid:
    """Full periodized orthonormal decomposition of a 2^J-sample signal.

    Detail scales run j = 0 .. J-1 (2^j coefficients at scale j); the
    coarsest ``COARSE_DROP`` scales are excluded from leader/analysis
    families but retained for perfect reconstruction.
    """
    if boundary != "periodic":
        raise FilterError(f"unsupported boundary rule {boundary!r}")
    x, J = _check_signal(signal)
    h, g = _filter_pair(filter_id)
    details: list[np.ndarray] = [None] * J  # type: ignore[list-item]
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
        details[j] = d * 2.0 ** ((j - J) / 2.0)  # orthonormal -> sup normalization
        cur = a
    return WaveletPyramid(1 << J, filter_id, tuple(details), cur)


def inverse_dwt(pyramid: WaveletPyramid) -> np.ndarray:
    """Invert :func:`dwt`; exact up to floating-point roundoff."""
    h, g = _filter_pair(pyramid.filter_id)
    J = pyramid.J
    cur = np.array(pyramid.approx, dtype=float)
    for j in range(J):
        d = pyramid.details[j] * 2.0 ** ((J - j) / 2.0)
        n = 2 * cur.size
        ks = np.arange(cur.size)
        x = np.zeros(n)
        for i in range(h.size):
            # indices are distinct for fixed i, so += accumulates correctly
            x[(2 * ks + i) % n] += h[i] * cur + g[i] * d
        cur = x
    return cur


def _subtree_reduce(pyramid, combine, leaf):
    """Bottom-up pass producing, per scale, the reduction over each cube's
    own subtree (scales >= j); returns arrays for scales j_analysis_min..J-1."""
    J = pyramid.J
    acc = leaf(pyramid.details[J - 1], J - 1)
    per_scale = {J - 1: acc}
    for j in range(J - 2, pyramid.j_analysis_min - 1, -1):
        acc = combine(leaf(pyramid.details[j], j), acc[0::2], acc[1::2])
        per_scale[j] = acc
    return per_scale


def _neighbor3_periodic(a: np.ndarray, op) -> np.ndarray:
    return op(op(np.roll(a, 1), a), np.roll(a, -1))


def _boundary_mask(n: int, include_boundary: bool) -> np.ndarray:
    m = np.ones(n, dtype=bool)
    if not include_boundary and n >= 2:
        m[0] = m[-1] = False
    return m


def leaders(pyramid: WaveletPyramid, include_boundary: bool = False) -> DyadicFamily:
    """Wavelet leaders d_lambda = sup |c| over the cubes of 3 lambda at
    scales >= the cube's own.

    Computed bottom-up in O(total coefficients). The transform is periodic,
    so the two cubes per scale whose 3-lambda wraps around are computed with
    wrap but flagged invalid unless ``include_boundary`` is set; flagged
    cubes are skipped by structure-function sums.
    """
    if pyramid.J - pyramid.j_analysis_min < 4:
        raise ScaleError("leaders need a pyramid with >= 4 analysis scales")
    sub = _subtree_reduce(
        pyramid,
        combine=lambda own, lef, rig: np.maximum(own, np.maximum(lef, rig)),
        leaf=lambda d, j: np.abs(d),
    )
    values, valid = [], []
    for j in pyramid.analysis_scales:
        values.append(_neighbor3_periodic(sub[j], np.maximum))
        valid.append(_boundary_mask(1 << j, include_boundary))
    return DyadicFamily(pyramid.j_analysis_min, pyramid.J - 1, Window(0.0, 1.0),
                        values, valid=valid)


def p_leaders(pyramid: WaveletPyramid, p: float,
              include_boundary: bool = False) -> DyadicFamily:
    """p-leaders e_lambda = (sum over 3 lambda of |c|^p 2^{-(j'-j)})^{1/p}.

    Piecewise-constant discretization of the L^p norm of the local square
    function; it preserves the scaling exponent of the exact p-leader and
    converges to the leader as p -> infinity.
    """
    if not p > 0:
        raise DomainError(f"p-leaders require p > 0, got {p}")
    if pyramid.J - pyramid.j_analysis_min < 4:
        raise ScaleError("p-leaders need a pyramid with >= 4 analysis scales")
    sub = _subtree_reduce(
        pyramid,
        combine=lambda own, lef, rig: own + 0.5 * (lef + rig),
        leaf=lambda d, j: np.abs(d) ** p,
    )
    values, valid = [], []
    for j in pyramid.analysis_scales:
        s = _neighbor3_periodic(sub[j], np.add)
        values.append(s ** (1.0 / p))
        valid.append(_boundary_mask(1 << j, include_boundary))
    return DyadicFamily(pyramid.j_analysis_min, pyramid.J - 1, Window(0.0, 1.0),
                        values, valid=valid)


def frac_integrate(pyramid: WaveletPyramid, s: float) -> WaveletPyramid:
    """Fractional integration of order s, acting diagonally: c'_{j,k} =
    2^{-s j} c_{j,k}. The scale-0 approximation is unchanged."""
    details = tuple(d * 2.0 ** (-s * j) for j, d in enumerate(pyramid.details))
    return WaveletPyramid(pyramid.n_samples, pyramid.filter_id, details,
                          np.array(pyramid.approx), pyramid.j_analysis_min)


# ---------------------------------------------------------------------------
# signal and pyramid files

_MAGIC = b"LMFSIG01"


def write_signal(path, signal, binary: bool = False) -> None:
    """Text: one sample per line. Binary: 16-byte header (8-byte magic,
    little-endian uint64 length) then little-endian float64 samples."""
    x = np.ascontiguousarray(signal, dtype=float)
    if binary:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", x.size))
            fh.write(x.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            for v in x:
                fh.write(f"{float(v)!r}\n")


def read_signal(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == _MAGIC:
            (n,) = struct.unpack("<Q", fh.read(8))
            data = np.frombuffer(fh.read(8 * n), dtype="<f8")
            if data.size != n:
                raise SignalError(f"{path}: truncated binary signal")
            return data.astype(float)
    try:
        return np.loadtxt(path, dtype=float, ndmin=1)
    except ValueError as exc:
        raise SignalError(f"{path}: unreadable signal: {exc}") from exc


def pyramid_to_csv(pyramid: WaveletPyramid) -> str:
    """Rows `j,k,c`; the scale-0 approximation is written with j = -1."""
    lines = ["j,k,c"]
    for i, a in enumerate(pyramid.approx):
        lines.append(f"-1,{i},{float(a)!r}")
    for j, d in enumerate(pyramid.details):
        for k, c in enumerate(d):
            lines.append(f"{j},{k},{float(c)!r}")
    return "\n".join(lines) + "\n"


def pyramid_from_csv(text: str, filter_id: str = DEFAULT_FILTER) -> WaveletPyramid:
    """Inverse of :func:`pyramid_to_csv`: every coefficient, the
    approximation included, must appear exactly once."""
    rows = [ln for ln in text.strip().splitlines()[1:] if ln]
    by_scale: dict[int, dict[int, float]] = {}
    for ln in rows:
        try:
            j_s, k_s, c_s = ln.split(",")
            j, k, c = int(j_s), int(k_s), float(c_s)
        except ValueError as exc:
            raise SignalError(f"malformed pyramid row {ln!r}") from exc
        coeffs = by_scale.setdefault(j, {})
        if k in coeffs:
            raise SignalError(f"pyramid coefficient ({j}, {k}) listed twice")
        coeffs[k] = c
    J = max(by_scale, default=-1) + 1
    if J == 0:
        raise SignalError("pyramid CSV holds no detail coefficients")
    offsets = {j: list(range(1 << max(j, 0))) for j in range(-1, J)}  # -1: approx
    if {j: sorted(coeffs) for j, coeffs in by_scale.items()} != offsets:
        raise SignalError(f"pyramid CSV must list every coefficient of scales "
                          f"-1..{J - 1} exactly once")
    details = [np.array([by_scale[j][k] for k in range(1 << j)]) for j in range(J)]
    return WaveletPyramid(1 << J, filter_id, tuple(details),
                          np.array([by_scale[-1][0]]))
