"""Oracle gates applied to every benchmark job.

Each gate is a pure function of a job's outputs so the benchmark's own
tests can feed it perturbed outputs. Tolerances are those of the
acceptance suite (``tests/test_acceptance.py``), criterion by criterion.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

BINOMIAL_TOL = 1e-6          # criterion 1
LOCAL_TAU_TOL = 0.08         # criterion 3
MONOTONE_TOL = 1e-9          # criterion 3
HIT_TOL = 0.2                # criterion 6: |h_hat - h_oracle| per time
HIT_SHARE = 0.6              # criterion 6: 60 of 100 times
LINEAR_TOL = 0.02            # criterion 4: global leader tau is non-linear


def binomial_tau_dev(tau, p: float, q_grid) -> float:
    """max |tau(q) + log2(p^q + (1-p)^q)| over the grid (criterion 1)."""
    q = np.asarray(q_grid, dtype=float)
    return float(np.abs(np.asarray(tau) + np.log2(p ** q + (1 - p) ** q)).max())


def binomial_ok(dev: float) -> bool:
    return dev <= BINOMIAL_TOL


def local_tau_dev(tau_local_rows, oracle_rows) -> float:
    """max over base points and p of |tau_local - oracle tau(x, p)|.

    A non-finite estimate counts as an infinite deviation."""
    est = np.asarray(tau_local_rows, dtype=float)
    ref = np.asarray(oracle_rows, dtype=float)
    dev = np.abs(est - ref)
    return float(np.where(np.isfinite(dev), dev, np.inf).max())


def local_ok(dev: float, monotone_violation: float) -> bool:
    return dev <= LOCAL_TAU_TOL and monotone_violation <= MONOTONE_TOL


def hits(h_hat, h_oracle) -> int:
    """Number of times whose exponent estimate lies within HIT_TOL."""
    d = np.abs(np.asarray(h_hat, dtype=float) - np.asarray(h_oracle, dtype=float))
    return int(np.count_nonzero(d <= HIT_TOL))


def hits_ok(hit_counts, n_times: int) -> bool:
    """Criterion 6 applied to the hits pooled over a run's jobs.

    One realization can miss 60 of 100 on correct code, so the benchmark
    pools the jobs of a run (see README)."""
    counts = list(hit_counts)
    return bool(counts) and sum(counts) >= HIT_SHARE * n_times * len(counts)


def path_ok(grid_M) -> bool:
    """The Markov path is nondecreasing."""
    return bool(np.all(np.diff(np.asarray(grid_M)) >= 0))


def nonlinear_ok(is_linear: bool, residual: float) -> bool:
    """The global leader scaling function is non-linear (criterion 4)."""
    return (not is_linear) and residual > LINEAR_TOL


def osc_order2_ok(order2_values, order1_values) -> bool:
    """Cube by cube, |a - 2b + c| <= 2 osc: order-2 <= 2 x order-1.

    The relative 1e-12 absorbs the rounding of a - 2b + c."""
    if len(order2_values) != len(order1_values):
        return False
    for o2, o1 in zip(order2_values, order1_values):
        o2, o1 = np.asarray(o2), np.asarray(o1)
        if o2.shape != o1.shape or np.any(o2 > 2.0 * o1 * (1.0 + 1e-12)):
            return False
    return True


def tree_digest(root) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path; a
    --deterministic rerun must reproduce it exactly."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def cli_ok(exit_codes, dev: float) -> bool:
    return all(rc == 0 for rc in exit_codes) and dev <= LOCAL_TAU_TOL
