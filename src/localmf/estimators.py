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
* One kernel (``_window_sums``) takes every partition sum, for a list of
  windows at once. At each scale it cuts the cubes at every window edge
  and at every multiple of ``_BLOCK`` cubes into shared leaves, and sums
  all the leaves of a block of cubes in one pass per p. A pairwise
  log-domain pyramid over the leaf sums then gives each window its sum
  from the O(log) nodes that tile it. Each cube's term is thus computed
  once per (scale, p) however many windows overlap it, a scale costs
  O(n_p) numpy calls per block of cubes, and a window costs O(log) nodes
  per p however many leaves it spans.
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
  (``dyadic._fit_scales``; ``dyadic._chords``, which also takes the
  smallest chord below 2 finite scales). A list of windows is fitted as
  one padded array, NaN at the scales a window does not use.
* The partition sums read a block's values and valid flags in place.
  Every exponent is fitted from rows of per-scale sups of valid cubes
  (``dyadic._sup_exponents``): a window's sups (``dyadic._scale_sups``,
  also read by Besov p = infinity) or a batch of chain cubes floor(x 2^j).
  A scale without a valid cube leaves an exponent fit and gives a Besov
  sup of 0.
* The Legendre spectrum is the discrete transform L(H) = min_p (H p -
  tau(p)) with endpoint and floor handling for the -infinity directions.
* Local values tau(x, p) are taken at the smallest admissible radius; the
  full per-radius sequence is retained so convergence can be judged:
  ``LocalProfile.tau`` and ``tau_tailmin`` are (n_x, n_radii, n_p) arrays,
  and the per-ball ``ScalingFunction`` objects are built only when
  ``profiles`` is read.

The leaves of one block are summed in one pass per p: each leaf's
largest (p > 0) or smallest (p < 0) log2 e is subtracted from its terms,
and one ``np.add.reduceat`` sums the terms of every leaf of the block.
The p of each sign are walked outward from 0 by a ratio recurrence,
t(p + s) = t(p) 2^(s (log2 e - x_top)) with every ratio at most 1, so a p
costs one multiply and one sum per term; the exp2 is paid once per block
for each run of consecutive p reached by one step s (a run of one p takes
its terms directly). A step joins a run when it is within 2^-46 relative
of the run's first step, so a linspace grid, whose steps differ in their
last bits, walks in one run per sign, while a grid of exactly equal steps
keeps its exact runs. Leaf sums and pyramid nodes combine in a fixed
order on one thread, so results are order-stable across repeated runs. A
lone window is a window whose leaves are its blocks: its scratch is a
few blocks, not a copy of its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dyadic import (
    DyadicFamily,
    ExponentEstimate,
    Window,
    _chords,
    _clip_window,
    _fit_scales,
    _line_fit,
    _scale_sups,
    _sup_exponents,
)
from .errors import (
    CoverageError,
    DomainError,
    EmptyWindowError,
    RadiusError,
    RangeError,
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
]

LEGENDRE_FLOOR = -10.0


# ---------------------------------------------------------------------------
# structure and scaling functions


# float64 entries of one kernel block (512 kB): the fastest size from 2^12
# to 2^17 on a 2-core Xeon with 2 MB of L2 per core
_BLOCK = 1 << 16

# a step continues a walk's run while it is within this fraction of the
# run's first step s (64 to 128 ulps of s): a linspace grid, whose steps
# differ in their last bits, walks in one run per sign, and the p a run
# reaches stays within 2^-46 relative of the grid's p
_STEP_TOL = 2.0 ** -46


def _p_walks(p_grid) -> list:
    """The walk of each sign of a p grid, p > 0 then p < 0: the indices of
    its p in order of increasing |p|, cut into runs of consecutive p
    reached by one step s, the first p's step being taken from 0. A run's
    s is its first step, and a later step joins the run while it differs
    from s by at most ``_STEP_TOL`` |s|, so a grid of exactly equal steps
    walks in runs of exactly equal steps. Each run is given as (s,
    indices of its p)."""
    walks = []
    for ips in (np.flatnonzero(p_grid > 0), np.flatnonzero(p_grid < 0)):
        ips = ips[np.argsort(np.abs(p_grid[ips]), kind="stable")]
        runs = []
        for ip, step in zip(ips.tolist(),
                            np.diff(p_grid[ips], prepend=0.0).tolist()):
            if runs and abs(step - runs[-1][0]) <= _STEP_TOL * abs(runs[-1][0]):
                runs[-1][1].append(ip)
            else:
                runs.append((step, [ip]))
        walks.append((ips, runs))
    return walks


def _walk_log2_sums(log2e, p_grid, walks, d, t, starts) -> np.ndarray:
    """log2 sum_i exp2(p log2e_i) for every p of the grid, whose walk
    :func:`_p_walks` gives, over each leaf log2e[starts[k]:starts[k + 1]]
    (the last one to the end; n_p x n_leaves). ``d`` and ``t`` are scratch
    arrays of at least log2e.size entries.

    Each sum is formed as top + log2 sum t_i(p), t_i(p) = exp2(p (log2e_i
    - x_top)), x_top being the leaf's largest log2e for p > 0 and its
    smallest for p < 0 and top = p x_top, so every term is at most 1 and
    no sum can overflow. The p of one sign are walked in order of
    increasing |p|. In a run of p reached by one step s the terms follow
    the recurrence t(p + s) = t(p) r, r = exp2(s (log2e - x_top)) <= 1, so
    terms only shrink: r is formed once in ``d`` and each p of the run
    costs one multiply and one sum per term. A run of one p (an irregular
    grid is all such runs) takes its terms directly, one multiply and one
    exp2, so a grid costs one exp2 per run. A sum differs from a direct
    exp2 by the rounding of the ratios and multiplies, about n eps for the
    n-th p of a sign. Every leaf is walked at once: the leaf tops are
    repeated over their terms (an array the size of log2e; a single leaf
    subtracts its top by broadcasting) and one ``np.add.reduceat`` sums
    the terms of every leaf. At p = 0 the sum is the count of entries.
    """
    starts = np.asarray(starts)
    sizes = np.diff(starts, append=log2e.size)
    dx, tx = d[:log2e.size], t[:log2e.size]
    out = np.empty((p_grid.size, starts.size))
    out[p_grid == 0] = np.log2(sizes.astype(float))
    for (ips, runs), top in zip(walks, (np.maximum.reduceat(log2e, starts),
                                        np.minimum.reduceat(log2e, starts))):
        for k, (s, run) in enumerate(runs):
            # d holds log2e - x_top unless the last run left its ratio
            if k == 0 or len(runs[k - 1][1]) > 1:
                np.subtract(log2e, top if starts.size == 1
                            else np.repeat(top, sizes), out=dx)
            if len(run) == 1:
                np.multiply(dx, p_grid[run[0]], out=tx)
                np.exp2(tx, out=tx)
                out[run[0]] = np.add.reduceat(tx, starts)
                continue
            np.multiply(dx, s, out=dx)
            np.exp2(dx, out=dx)
            for m, ip in enumerate(run):
                np.multiply(tx if k or m else 1.0, dx, out=tx)
                out[ip] = np.add.reduceat(tx, starts)
        out[ips] = p_grid[ips, None] * top + np.log2(out[ips])
    return out


_WORK = 1 << 17     # float64 entries of one work array (1 MB)


def _log2_pyramid_sums(leaf_S, runs) -> np.ndarray:
    """log2 of the sum of the leaf sums 2^leaf_S[:, a:b] over each run
    [a, b) of ``runs`` (n_runs x 2), one row per run.

    The leaf sums are added pairwise into a log-domain pyramid, a node of
    one level being log2(2^left + 2^right) of two nodes of the level
    below. A run reads the O(log) nodes that tile it, and the largest of
    them is factored out, so no term exceeds 1; a run of one leaf gets its
    leaf sum unchanged, and a run without a finite leaf sum gets -inf.
    """
    n_p = leaf_S.shape[0]
    levels = [leaf_S]
    while levels[-1].shape[1] > 1:
        L = levels[-1]
        if L.shape[1] % 2:
            L = np.concatenate([L, np.full((n_p, 1), -np.inf)], axis=1)
        levels.append(np.logaddexp2(L[:, ::2], L[:, 1::2]))
    nodes = np.concatenate(levels + [np.full((n_p, 1), -np.inf)], axis=1)
    pad = nodes.shape[1] - 1
    # the nodes tiling [a, b): at each level take a if odd, b - 1 if b is odd
    a, b = runs[:, 0].copy(), runs[:, 1].copy()
    idx, offset = [], 0
    for L in levels:
        left = (a < b) & (a % 2 == 1)
        idx.append(np.where(left, offset + a, pad))
        a += left
        right = (a < b) & (b % 2 == 1)
        b -= right
        idx.append(np.where(right, offset + b, pad))
        a //= 2
        b //= 2
        offset += L.shape[1]
    idx = np.sort(np.stack(idx, axis=1), axis=1)
    idx = idx[:, :max(1, int((idx < pad).sum(axis=1).max(initial=0)))]
    out = np.empty((runs.shape[0], n_p))
    step = max(1, _WORK // (n_p * idx.shape[1]))
    for a in range(0, runs.shape[0], step):
        N = nodes[:, idx[a:a + step]]               # n_p x runs x nodes
        top = N.max(axis=-1)
        fin = np.isfinite(top)
        top[~fin] = 0.0
        total = np.exp2(N - top[..., None]).sum(axis=-1)
        log2 = np.full(total.shape, -np.inf)
        np.log2(total, out=log2, where=fin)
        out[a:a + step] = (top + log2).T
    return out


def _window_sums(family: DyadicFamily, ends, scales, p_grid):
    """Partition sums of the family on every window [lo, hi) of ``ends``
    (n_windows x 2) at once.

    Returns log2 S_j(w, p) (n_windows x n_p x n_scales; -inf where the
    window holds no nonzero valid cube), the count of zero cubes left out
    of each sum (same shape, nonzero only for p <= 0) and the count of
    valid cubes of each window at each scale (n_windows x n_scales).

    The windows' cube ranges at every scale are array arithmetic on their
    ends. At each scale the cubes are cut into leaves at the edges of
    every window and at every multiple of ``_BLOCK`` cubes, and each group
    of consecutive leaves some window covers inside one block is read in
    one pass: its values, valid flags and nonzero flags, the valid and the
    nonzero count of each leaf (one ``np.add.reduceat`` each), and the
    log2 of its nonzero valid values, at most one block-sized copy.
    :func:`_walk_log2_sums` sums every leaf of the group over one walk of
    the p grid, in two scratch blocks shared by the whole call. So a scale
    costs O(n_p) numpy calls per block of cubes however many leaves it
    has, and its scratch stays within a few blocks however many cubes a
    window holds. Every window then combines its leaves' sums from a
    pyramid (:func:`_log2_pyramid_sums`). A p grid that is empty, not 1-D
    or holds a non-finite p raises DomainError.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or not p_grid.size:
        raise DomainError(
            f"partition sums need a non-empty 1-D p grid, got {p_grid.tolist()}")
    if not np.all(np.isfinite(p_grid)):
        raise DomainError(f"partition sums need finite p, got {p_grid.tolist()}")
    scales = np.asarray(scales, dtype=int)
    # Window.cube_range of every window at every scale: ends * 2^j is exact
    scaled = np.outer(np.reshape(ends, (-1, 2)).T, np.ldexp(1.0, scales))
    n_w = scaled.shape[0] // 2
    k_lo = np.ceil(scaled[:n_w]).astype(np.int64)
    k_hi = np.maximum(k_lo, np.floor(scaled[n_w:]).astype(np.int64))
    log2_S = np.full((n_w, p_grid.size, scales.size), -np.inf)
    n_valid = np.zeros((n_w, scales.size), dtype=int)
    n_pos = np.zeros_like(n_valid)
    block = min(_BLOCK, max((family.n_cubes(j) for j in scales), default=0))
    d, t = np.empty(block), np.empty(block)
    walks = _p_walks(p_grid)
    for i, j in enumerate(scales.tolist()):
        values, valid = family.values_at(j), family.valid_at(j)
        cuts, inverse = np.unique(np.concatenate(
            [k_lo[:, i], k_hi[:, i], np.arange(_BLOCK, values.size, _BLOCK)]),
            return_inverse=True)
        runs = inverse[:2 * n_w].reshape(2, n_w).T     # each window's leaves
        # depth > 0 marks the leaves some window covers
        depth = np.zeros(cuts.size, dtype=int)
        np.add.at(depth, runs[:, 0], 1)
        np.add.at(depth, runs[:, 1], -1)
        covered = np.flatnonzero(np.cumsum(depth)[:-1] > 0)
        leaf_S = np.full((p_grid.size, cuts.size), -np.inf)
        leaf_valid = np.zeros(cuts.size, dtype=int)   # counts of leaf s at s + 1
        leaf_pos = np.zeros_like(leaf_valid)
        # groups of consecutive covered leaves [a, b) inside one block: a
        # group starts after a gap and at each multiple of _BLOCK
        new = (np.diff(covered, prepend=-2) > 1) | (cuts[covered] % _BLOCK == 0)
        groups = np.append(np.flatnonzero(new), covered.size).tolist()
        for u, v in zip(groups[:-1], groups[1:]):
            a, b = covered[u], covered[v - 1] + 1
            lo, hi = cuts[a], cuts[b]
            starts = cuts[a:b] - lo
            x = values[lo:hi]
            keep = x > 0
            if valid is None:
                leaf_valid[a + 1:b + 1] = np.diff(cuts[a:b + 1])
            else:
                leaf_valid[a + 1:b + 1] = np.add.reduceat(
                    valid[lo:hi], starts, dtype=np.intp)
                keep &= valid[lo:hi]
            npos = np.add.reduceat(keep, starts, dtype=np.intp)
            leaf_pos[a + 1:b + 1] = npos
            some = np.flatnonzero(npos)
            if some.size:
                log2e = x[keep]
                np.log2(log2e, out=log2e)
                leaf_S[:, a + some] = _walk_log2_sums(
                    log2e, p_grid, walks, d, t, (np.cumsum(npos) - npos)[some])
        for counts, out in ((leaf_valid, n_valid), (leaf_pos, n_pos)):
            c = np.cumsum(counts)
            out[:, i] = c[runs[:, 1]] - c[runs[:, 0]]
        log2_S[:, :, i] = _log2_pyramid_sums(leaf_S, runs)
    excluded = np.where((p_grid <= 0)[:, None], (n_valid - n_pos)[:, None, :], 0)
    return log2_S, excluded, n_valid


def structure_function(family: DyadicFamily, window: Window | None, p: float,
                       return_excluded: bool = False):
    """Per-scale sums S_j = sum over scale-j cubes in the window of e^p.

    Returns an array aligned with ``family.scales``. With
    ``return_excluded`` also returns the per-scale count of zero-valued
    cubes left out of the sum (nonzero only for p <= 0).
    Sums of 2^1024 or more raise :class:`RangeError`; their logarithms
    stay available through :func:`scaling_function` (``log2_S``).
    """
    w = _clip_window(family, window)
    log2_S, excluded, _ = _window_sums(family, [w.lo, w.hi], family.scales, [p])
    log2_S = log2_S[0, 0]
    too_big = log2_S >= 1024.0
    if np.any(too_big):
        j = family.scales[np.argmax(too_big)]
        raise RangeError(f"structure sum at scale {j} is 2^{log2_S[too_big][0]:.6g}, "
                         f"beyond double precision (p = {p})")
    S = np.exp2(log2_S)
    if return_excluded:
        return S, excluded[0, 0]
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


@dataclass(frozen=True)
class _Fits:
    """The scaling functions of n windows over one p grid, stacked."""

    p_grid: np.ndarray
    ends: np.ndarray            # (n, 2): [lo, hi) of each window
    fit_ranges: np.ndarray      # (n, 2)
    scales: np.ndarray          # the union of the fit ranges
    use: np.ndarray             # (n, n_scales): the scales each window fits
    log2_S: np.ndarray          # (n, n_p, n_scales): NaN off use or at S = 0
    n_excluded: np.ndarray      # (n, n_scales): zero cubes left out at p <= 0
    tau: np.ndarray             # (n, n_p)
    tau_tailmin: np.ndarray     # (n, n_p)
    residuals: np.ndarray       # (n, n_p)

    def scaling_function(self, i: int) -> ScalingFunction:
        """Window i's fit, its per-scale arrays cut to the scales it uses."""
        u = self.use[i]
        excluded = np.where((self.p_grid <= 0)[:, None], self.n_excluded[i, u], 0)
        return ScalingFunction(
            self.p_grid, self.tau[i], self.tau_tailmin[i], self.tau[i] - 1.0,
            tuple(self.fit_ranges[i].tolist()), self.residuals[i],
            Window(*self.ends[i].tolist()), self.scales[u],
            self.log2_S[i][:, u], excluded)


def scaling_function(family: DyadicFamily, window: Window | None,
                     p_grid, fit_range: tuple[int, int] | None = None,
                     min_cubes: int = 1) -> ScalingFunction:
    """Least-squares scaling function of the family on a window.

    The fit uses the scales of ``fit_range`` (default [3, j_max - 1])
    holding at least ``min_cubes`` cubes, at least one of them nonzero; p
    values whose sums vanish at every usable scale get the +inf marker.
    """
    w = _clip_window(family, window)
    return _scaling_functions(family, [w.lo, w.hi], p_grid, [fit_range],
                              min_cubes).scaling_function(0)


def _scaling_functions(family: DyadicFamily, ends, p_grid, fit_ranges,
                       min_cubes: int = 1) -> _Fits:
    """:func:`scaling_function` on every window [lo, hi) of ``ends`` (n x
    2), window i fitted over ``fit_ranges[i]``, as stacked arrays. One
    kernel call takes the sums of all windows over the union of their
    scales; a scale a window does not use (outside its fit range, short of
    ``min_cubes`` valid cubes, or without a nonzero cube) is NaN in its
    row, and :func:`_chords` fits each row over its finite entries."""
    p_grid = np.ascontiguousarray(p_grid, dtype=float)
    ends = np.asarray(ends, dtype=float).reshape(-1, 2)
    ranges = np.array([_fit_scales(family, fr, family.j_max - 1, 4)
                       for fr in fit_ranges], dtype=int).reshape(-1, 2)
    # the union of the fit ranges; none without a window
    scales = (np.arange(ranges[:, 0].min(), ranges[:, 1].max() + 1)
              if ranges.size else np.arange(0))
    log2_S, excluded, n_valid = _window_sums(family, ends, scales, p_grid)
    use = ((scales >= ranges[:, :1]) & (scales <= ranges[:, 1:])
           & (n_valid >= max(1, min_cubes)))
    few = use.sum(axis=1) < 2
    if few.any():
        i = int(np.argmax(few))
        raise EmptyWindowError(
            f"window [{ends[i, 0]}, {ends[i, 1]}) keeps fewer than 2 "
            f"usable scales in ({ranges[i, 0]}, {ranges[i, 1]})")
    log2_S[~use[:, None, :] | np.isneginf(log2_S)] = np.nan
    _, tau, resid, tail, _ = _chords(scales.astype(float), log2_S)
    # every p <= 0 leaves out the same zero cubes, and the smallest p is
    # one of them if any p is
    return _Fits(p_grid, ends, ranges, scales, use, log2_S,
                 excluded[:, np.argmin(p_grid)].copy(), tau, tail, resid)


def uniform_exponent(family: DyadicFamily, window: Window | None = None,
                     method: str = "tail-min",
                     fit_range: tuple[int, int] | None = None) -> ExponentEstimate:
    """Slope surrogate of log2 (sup_lambda e_lambda) against -j: the uniform
    regularity exponent of the family on the window.

    The ``tail-min`` chords log2 sup / (-j) are anchored at scale 0, not
    at the window's own scale, so on a window they carry a bias that a
    smaller radius does not remove: on the J=20 localized Bernoulli with p(x) = 0.2 + 0.25 x and
    fit (8, 20), the balls B(x, 2^-4 .. 2^-8) at x = 0.25, 0.5 and 0.75
    give 0.567, 0.607 and 0.726 at every radius, where h_min(x) =
    -log2(1 - p(x)) is 0.439, 0.567 and 0.707. ``regression`` matches
    h_min to 3 digits there.
    """
    w = _clip_window(family, window)
    j1, j2 = _fit_scales(family, fit_range, family.j_max, 2)
    sups = _scale_sups(family, range(j1, j2 + 1), w.cube_range)
    return _sup_exponents(sups[None], (j1, j2), method, False).row(0)


# ---------------------------------------------------------------------------
# Legendre transforms


def discrete_legendre(x_grid, f_values, y_grid, floor: float = LEGENDRE_FLOOR,
                      endpoint_slope_tol: float = 1e-6) -> np.ndarray:
    """Discrete transform g(y) = min_x (x y - f(x)) over the sample grid.

    Non-finite f entries are ignored; a non-finite y, or an x repeated
    among the samples kept, raises DomainError.
    Where the minimum sits on a grid endpoint and the one-sided slope says
    the objective is still strictly decreasing (the unbounded direction),
    or where the value falls below ``floor``, -inf is reported.
    """
    x = np.ascontiguousarray(x_grid, dtype=float)
    fv = np.ascontiguousarray(f_values, dtype=float)
    fin = np.isfinite(fv)
    x, fv = x[fin], fv[fin]
    if x.size < 2:
        raise DomainError("discrete Legendre transform needs >= 2 finite samples")
    order = np.argsort(x)
    x, fv = x[order], fv[order]
    if np.any(x[1:] == x[:-1]):
        raise DomainError(f"discrete Legendre transform needs distinct x, "
                          f"got {x.tolist()}")
    y = np.ascontiguousarray(y_grid, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("discrete Legendre transform needs a finite y grid")
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


def legendre(sf: ScalingFunction, H_grid) -> LegendreSpectrum:
    """Legendre spectrum L(H) = min over the p grid of (H p - tau(p)).

    The unbounded-direction test uses half the H-grid spacing as slope
    tolerance, so that a linear tau (mono-exponent family) keeps a finite
    value at the grid point closest to its slope instead of flagging every
    H. :func:`discrete_legendre` takes another floor or tolerance.
    """
    return _legendre(sf.p_grid, sf.tau, H_grid)


def _legendre(p_grid, tau, H_grid) -> LegendreSpectrum:
    """:func:`legendre` of the samples tau(p) on the grid."""
    fin = np.isfinite(tau)
    if fin.sum() < 2:
        raise DomainError("Legendre transform needs tau finite on >= 2 grid points")
    H = np.ascontiguousarray(H_grid, dtype=float)
    spacing = np.median(np.diff(np.sort(H))) if H.size > 1 else 0.0
    L = discrete_legendre(p_grid, tau, H,
                          endpoint_slope_tol=max(1e-6, 0.5 * float(spacing)))
    return LegendreSpectrum(H, L, p_grid)


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
    """Scaling functions on the balls B(x, r) of every base point x and
    radius r, as arrays of regression (``tau``) and tail-min
    (``tau_tailmin``) estimates, plus the local values (taken at the
    smallest admissible radius). ``profiles`` gives each ball's
    :class:`ScalingFunction`, [ix][ir], built on first access."""

    x_grid: np.ndarray
    radii: np.ndarray
    p_grid: np.ndarray
    tau: np.ndarray                             # (n_x, n_r, n_p)
    tau_tailmin: np.ndarray                     # (n_x, n_r, n_p)
    tau_local: np.ndarray                       # (n_x, n_p): tau[:, -1]
    _fits: _Fits = field(repr=False, compare=False)
    H_grid: np.ndarray | None = None
    legendre_local: list[LegendreSpectrum] | None = None

    @cached_property
    def profiles(self) -> tuple[tuple[ScalingFunction, ...], ...]:
        n_r = self.radii.size
        return tuple(
            tuple(self._fits.scaling_function(i) for i in range(k, k + n_r))
            for k in range(0, self.x_grid.size * n_r, n_r))

    def radius_monotone_violation(self) -> float:
        """Max over x, p, and consecutive radii of tau(larger r) - tau(smaller
        r); nonpositive per the shrinking-window monotonicity of scaling
        functions. It checks the liminf-faithful tail-min estimate, which
        satisfies the monotonicity exactly on a common fit range; the
        regression estimate can exceed it transiently on windows where the
        structure sums are strongly curved in log-log. Pairs with a
        non-finite estimate are left out, and 0.0 is the floor."""
        taus = self.tau_tailmin
        fin = np.isfinite(taus[:, :-1]) & np.isfinite(taus[:, 1:])
        diffs = np.subtract(taus[:, :-1], taus[:, 1:], where=fin,
                            out=np.zeros(fin.shape))
        return float(diffs.max(initial=0.0))


def local_profile(family: DyadicFamily, x_grid, radii, p_grid,
                  fit_policy: FitPolicy | None = None,
                  H_grid=None) -> LocalProfile:
    """Windowed scaling functions on the balls B(x, r) for every base point
    x in [0, 1) and every radius; radii must be positive, finite and
    strictly decreasing, and the smallest one must keep at least 64 cubes
    at the finest analysis scale."""
    policy = fit_policy or FitPolicy()
    x_grid = np.ascontiguousarray(x_grid, dtype=float)
    radii = np.ascontiguousarray(radii, dtype=float)
    if x_grid.ndim != 1 or radii.ndim != 1:
        raise DomainError("base points and radii must be 1-D grids")
    if radii.size == 0:
        raise DomainError("at least one radius is required")
    if not np.all((radii > 0) & np.isfinite(radii)):
        raise DomainError("radii must be positive and finite")
    if radii.size > 1 and np.any(np.diff(radii) >= 0):
        raise DomainError("radii must be strictly decreasing")
    if np.any(~((x_grid >= 0) & (x_grid < 1))):
        raise DomainError("base points must lie in [0, 1)")
    if 2.0 * radii[-1] * 2.0 ** family.j_max < 64:
        raise RadiusError(
            f"radius {radii[-1]} keeps fewer than 64 cubes at scale "
            f"{family.j_max}")
    j2 = policy.j2 if policy.j2 is not None else family.j_max - 1
    p_grid = np.ascontiguousarray(p_grid, dtype=float)

    # Window.ball(x, r) of every base point x and radius r
    balls = np.stack([np.maximum(x_grid[:, None] - radii, 0.0),
                      np.minimum(x_grid[:, None] + radii, 1.0)], axis=-1)
    # anchor the fit range at the smallest radius so the per-radius
    # sequence is fitted over one common scale set (otherwise radius
    # monotonicity is confounded by fit-range changes): j1 passes the
    # scales where that ball holds fewer than min_cubes cubes, which come
    # first since a window's cube count grows with j
    e = np.multiply.outer(balls[:, -1], np.ldexp(1.0, np.arange(policy.j1, j2)))
    n_cubes = np.maximum(np.floor(e[:, 1]) - np.ceil(e[:, 0]), 0.0)
    j1 = policy.j1 + (n_cubes < policy.min_cubes).sum(axis=1)
    ranges = [(j, j2) for j in np.repeat(j1, radii.size).tolist()]
    fits = _scaling_functions(family, balls, p_grid, ranges, policy.min_cubes)
    shape = (x_grid.size, radii.size, p_grid.size)
    tau = fits.tau.reshape(shape)
    spectra = None
    if H_grid is not None:
        H_grid = np.ascontiguousarray(H_grid, dtype=float)
        spectra = [_legendre(p_grid, t, H_grid) for t in tau[:, -1]]
    return LocalProfile(x_grid, radii, p_grid, tau,
                        fits.tau_tailmin.reshape(shape), tau[:, -1], fits,
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


def monohoelder_detect(obj, tol_lin: float = 0.02):
    """Detect a linear scaling function tau(p) = tau(0) + alpha p.

    On a :class:`ScalingFunction` returns a :class:`MonoHoelderResult`; on a
    :class:`LocalProfile` applies the test per base point and returns the
    alpha(x) array (the local exponent when the local formalism holds).
    The residual is normalized per p unit before comparison with
    ``tol_lin``.
    """
    if isinstance(obj, ScalingFunction):
        taus = obj.tau[None, :]
    elif isinstance(obj, LocalProfile):
        taus = obj.tau_local
    else:
        raise DomainError("expected a ScalingFunction or a LocalProfile")
    p = obj.p_grid
    fin = np.isfinite(taus)
    if np.any(fin.sum(axis=1) < 2):
        raise DomainError("mono-Hoelder detection needs tau finite on >= 2 points")
    slope, intercept, _ = _line_fit(p, taus)
    fit = slope[:, None] * p + intercept[:, None]
    # max over the finite entries; every residual is >= 0
    residual = np.where(fin, np.abs(taus - fit) / np.maximum(1.0, np.abs(p)),
                        0.0).max(axis=1)
    is_linear = residual <= tol_lin
    if isinstance(obj, ScalingFunction):
        return MonoHoelderResult(bool(is_linear[0]), float(slope[0]),
                                 float(intercept[0]), float(residual[0]))
    return LocalMonoHoelderResult(obj.x_grid, slope, is_linear, residual)


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
    ScaleError. p = 0, p = -inf and a non-finite s raise DomainError.
    """
    if p == 0 or p == -math.inf:
        raise DomainError(f"Besov membership is undefined for p = {p}")
    if not math.isfinite(s):
        raise DomainError(f"Besov membership needs a finite s, got {s}")
    w = _clip_window(family, window)
    if fit_range is None:
        fit_range = (max(3, family.j_min), family.j_max)
    j1 = max(int(fit_range[0]), family.j_min)
    j2 = min(int(fit_range[1]), family.j_max)
    if j2 < j1:
        raise ScaleError(f"scale range ({j1}, {j2}) holds no scale of the family")
    js = np.arange(j1, j2 + 1, dtype=float)
    if math.isinf(p):
        # a scale without a valid cube in the window has sup 0
        sups = np.nan_to_num(_scale_sups(family, range(j1, j2 + 1),
                                         w.cube_range), nan=0.0)
        with np.errstate(divide="ignore"):
            log2_c = s * js + np.log2(sups)
    else:
        log2_S = _window_sums(family, [w.lo, w.hi], range(j1, j2 + 1), [p])[0]
        log2_c = (s * p - 1.0) * js + log2_S[0, 0]
    if not np.any(np.isfinite(log2_c)):
        # vacuous bound: the family vanishes on the window
        return BesovResult(True, 0.0, 0.0)
    growth = float(_line_fit(js, log2_c)[0])
    if math.isnan(growth):      # a single scale shows no growth
        growth = 0.0
    cmax = float(np.max(log2_c))
    constant = 2.0 ** cmax if cmax < 1023 else math.inf
    return BesovResult(growth <= growth_tol, constant, growth)
