"""Batch front-end: synthesize models, run global/local analysis pipelines,
and emit JSON/CSV reports.

Subcommands: synth, analyze, local, check-oracle, report. Options can come
from a JSON config file (--config) with command-line flags taking
precedence. Exit codes: 0 success, 2 validation error, 3 runtime error;
every failure prints a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import builders, dyadic, estimators, synth, wavelet
from .dyadic import Window
from .errors import AnalysisError, ScaleError
from .estimators import FitPolicy
from .synth import ModelSpec

__all__ = ["main", "run", "report_plots", "PipelineConfig"]

# Each family kind: the input it analyzes (None: a birkhoff family is built
# from a potential) and the family options it reads.
_FAMILIES = {
    "measure": ("measure", ("j_max",)),
    "plain-measure": ("measure", ("j_max",)),
    "oscillation": ("signal", ("j_max", "osc_order")),
    "leaders": ("signal", ("filter_id", "frac_int")),
    "p-leaders": ("signal", ("filter_id", "frac_int")),
    "birkhoff": (None, ("j_max",)),
}
_FAMILY_OPTIONS = {name for _, names in _FAMILIES.values() for name in names}
# The options synth and report read; they read no family or analysis option.
_COMMAND_OPTIONS = {
    "synth": ("model", "seed", "out_dir", "deterministic"),
    "report": ("input_path", "out_dir", "deterministic"),
}


class ConfigError(AnalysisError):
    """Invalid pipeline configuration."""


# ---------------------------------------------------------------------------
# number formatting: 12 significant digits, infinities as strings


def _fmt_float(x: float):
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _fmt_cell(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(obj), fh, indent=2)
        fh.write("\n")


def _table(header: str, rows) -> str:
    """CSV text: the header line, then one line of formatted cells per row."""
    lines = [header] + [",".join(_fmt_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# option parsing


def _config_value(convert, value, what: str):
    """``convert(value)``, with a malformed value raised as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _parse_grid(text: str) -> np.ndarray:
    """'a:b:step' grid (a, a + step, ... up to b inclusive), or a comma list
    of values; every value must be finite."""
    if ":" not in text:
        return _float_list([float(t) for t in text.split(",") if t])
    a, b, step = _float_list([float(t) for t in text.split(":")])
    if step <= 0 or b < a:
        raise ConfigError(f"grid {text!r} must have b >= a and step > 0")
    return a + step * np.arange(math.floor((b - a) / step + 1e-9) + 1)


def _parse_x_grid(text: str) -> np.ndarray | int:
    """A grid (see :func:`_parse_grid`), or 'auto:j' for one base point per
    scale-j cube, returned as the scale j."""
    if not text.startswith("auto:"):
        return _parse_grid(text)
    j = text[len("auto:"):]
    if not j.isdecimal():
        raise ConfigError(f"x grid {text!r} must be auto:j with an integer j >= 0")
    return int(j)


def _parse_radii(text: str) -> np.ndarray:
    """A grid of radii; an 'a:b:step' grid is listed from b down to a."""
    grid = _parse_grid(text)
    return grid[::-1] if ":" in text else grid


def _parse_windows(text: str) -> list[Window]:
    """'lo,hi;lo,hi;...'."""
    windows = _window_list(chunk.split(",") for chunk in text.split(";") if chunk)
    if not windows:
        raise ConfigError("no windows given")
    return windows


def _int_pair(values) -> tuple[int, int]:
    j1, j2 = (synth._as_int(v) for v in values)
    return j1, j2


def _window_list(pairs) -> list[Window]:
    return [Window(float(lo), float(hi)) for lo, hi in pairs]


def _float_list(values) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError("expected a non-empty list of numbers")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"expected finite numbers, got {grid.tolist()}")
    return grid


def _checked(test, expected: str):
    """A converter that returns any value passing ``test`` unchanged."""
    def check(value):
        if not test(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return value
    return check


_text = _checked(lambda v: isinstance(v, str), "a string")
_switch = _checked(lambda v: isinstance(v, bool), "true or false")
_mode = _checked(lambda v: v in ("global", "local"), "global or local")


def _read_json(path: str, what: str) -> dict:
    """The JSON object in file ``path``; anything else is a ConfigError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path!r} must hold a JSON object")
    return obj


def _read_spec(path) -> ModelSpec:
    return ModelSpec.from_json(json.dumps(_read_json(_text(path), "spec")))


def _option(flag: str, default=None, parse=_text, convert=None, *,
            key=None, factory=None):
    """A PipelineConfig field set by ``flag`` or by the config entry ``key``
    (the flag's name with underscores): text through ``parse``, any other
    JSON value through ``convert`` (``parse`` when not given)."""
    meta = {"flag": flag, "key": key or flag[2:].replace("-", "_"),
            "parse": parse, "convert": convert or parse}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class PipelineConfig:
    """Validated batch-run description (one input source, one family kind).

    Every field declared with :func:`_option` is one CLI option."""

    command: str
    input_path: str | None = _option("--input")
    model: ModelSpec | None = _option("--spec", parse=_read_spec)
    family: str = _option("--family", "plain-measure")
    p_value: float | None = None          # for p-leaders
    osc_order: int = _option("--osc-order", 1, int, synth._as_int)
    frac_int: float = _option("--frac-int", 0.0, float)
    filter_id: str = _option("--filter", wavelet.DEFAULT_FILTER)
    j_max: int | None = _option("--j-max", parse=int, convert=synth._as_int)
    p_grid: np.ndarray = _option("--p-grid", parse=_parse_grid,
                                 convert=_float_list,
                                 factory=lambda: np.arange(-5.0, 5.5, 0.5))
    H_grid: np.ndarray | None = _option("--h-grid", parse=_parse_grid,
                                        convert=_float_list, key="H_grid")
    windows: list[Window] | None = _option("--windows", parse=_parse_windows,
                                           convert=_window_list)
    # an int j: one point per scale-j cube
    x_grid: np.ndarray | int | None = _option("--x-grid", parse=_parse_x_grid,
                                              convert=_float_list)
    radii: np.ndarray | None = _option("--radii", parse=_parse_radii,
                                       convert=_float_list)
    fit_range: tuple[int, int] | None = _option(
        "--fit", parse=lambda text: _int_pair(map(int, text.split(":"))),
        convert=_int_pair)
    min_cubes: int = _option("--min-cubes", 8, int, synth._as_int)
    potential: dict | None = None
    seed: int = _option("--seed", 0, int, synth._as_int)
    out_dir: str = _option("--out", ".")
    deterministic: bool = _option("--deterministic", False, _switch)
    mode: str = _option("--mode", "global", _mode)

    def validate(self):
        base = self.family.split(":")[0]
        if base not in _FAMILIES:
            raise ConfigError(f"unknown family kind {self.family!r}")
        reads, family_options = _FAMILIES[base]
        if base == "birkhoff":
            potential = _potential(self)
            if not isinstance(potential, dict):
                raise ConfigError("a birkhoff family needs digit values a, b: "
                                  "a 'potential' config entry, or on "
                                  "check-oracle its birkhoff spec")
            for digit in "ab":
                _config_value(float, potential.get(digit),
                              f"potential entry {digit!r}")
        # one source rule: the sources this command and family read
        takes = {"synth": ["--spec"], "check-oracle": ["--spec"],
                 "report": ["--input"]}.get(
            self.command, ["--input", "--spec"] if reads else [])
        sources = {"--input": self.input_path, "--spec": self.model}
        given = [flag for flag, value in sources.items() if value is not None]
        if len(given) != min(len(takes), 1) or not set(given) <= set(takes):
            raise ConfigError(f"{self.command} reads " + (" or ".join(takes) or
                              "no input source with a birkhoff family")
                              + f", given {' and '.join(given) or 'none'}")
        if (self.model is not None and self.command != "synth"
                and _FAMILIES[_DEFAULT_FAMILY[self.model.kind]][0] != reads):
            raise ConfigError(f"a {self.model.kind} spec gives no "
                              f"{reads or 'potential'} for a {base} family")
        if base == "p-leaders":
            if self.p_value is None or not self.p_value > 0:
                raise ConfigError("p-leaders requires p > 0 (family 'p-leaders:p')")
        if self.mode == "local" and (self.x_grid is None or self.radii is None):
            raise ConfigError("local mode requires --x-grid and --radii")
        if self.radii is not None and np.any(np.diff(self.radii) >= 0):
            raise ConfigError(f"radii {self.radii.tolist()} must be strictly "
                              f"decreasing")
        if np.unique(self.p_grid).size != self.p_grid.size:
            raise ConfigError(f"p grid {self.p_grid.tolist()} repeats a value")
        if self.osc_order not in (1, 2):
            raise ConfigError(f"oscillation order must be 1 or 2, got "
                              f"{self.osc_order}")
        if self.filter_id not in wavelet.FILTERS:
            raise ConfigError(f"unknown wavelet filter {self.filter_id!r}; "
                              f"available: {sorted(wavelet.FILTERS)}")
        if self.model is not None and self.model.kind in ("mbm", "fbm"):
            name = self.model.params.get("filter", wavelet.DEFAULT_FILTER)
            if not isinstance(name, str) or name not in wavelet.FILTERS:
                raise ConfigError(f"unknown wavelet filter {name!r} in "
                                  f"the model spec; available: "
                                  f"{sorted(wavelet.FILTERS)}")
        if self.potential is not None and (
                base != "birkhoff" or self.command not in ("analyze", "local")):
            raise ConfigError(f"{self.command} reads no 'potential' config "
                              f"entry; only a birkhoff family in analyze or "
                              f"local does")
        if self.command in _COMMAND_OPTIONS:
            checks = [({f.name for f in _options()}
                       - set(_COMMAND_OPTIONS[self.command]), self.command)]
        else:
            unread = ["windows"] if self.command == "check-oracle" else []
            if self.mode != "local":
                unread += ["x_grid", "radii", "min_cubes"]
            where = f"in {self.mode} mode"
            if (self.command == "check-oracle"
                    and getattr(self.model, "kind", None) == "markov_jump"):
                if base != "oscillation" or self.osc_order != 1:
                    raise ConfigError("check-oracle on a markov_jump model "
                                      "analyzes order-1 oscillations only")
                unread += ["mode", "p_grid", "H_grid"]
                where = "on a markov_jump model (pointwise exponents)"
            checks = [(unread, f"{self.command} {where}"),
                      (_FAMILY_OPTIONS - set(family_options), f"a {base} family")]
        defaults = PipelineConfig(self.command)
        for names, who in checks:
            ignored = [f.metadata["flag"] for f in _options()
                       if f.name in names and not np.array_equal(
                           getattr(self, f.name), getattr(defaults, f.name))]
            if ignored:
                raise ConfigError(f"{who} reads no " + ", ".join(ignored))
        if (self.mode == "local" and self.windows
                and not isinstance(self.x_grid, int)):
            outside = ~_inside(self.x_grid, self.windows).any(axis=1)
            if outside.any():
                raise ConfigError(f"base points {self.x_grid[outside].tolist()} "
                                  f"lie outside every window")
        if self.input_path is not None and not Path(self.input_path).exists():
            raise ConfigError(f"unreadable input {self.input_path!r}")


def _potential(cfg: PipelineConfig) -> dict | None:
    """A birkhoff family's potential: the parameters of check-oracle's
    birkhoff spec (which also gives the oracle), else the 'potential'
    config entry."""
    spec = cfg.model if cfg.command == "check-oracle" else None
    if getattr(spec, "kind", None) == "birkhoff":
        return spec.params
    return cfg.potential


def _family_from_config(cfg: PipelineConfig
                        ) -> tuple[dyadic.DyadicFamily, synth.MarkovPath | None]:
    """Build the analysis family; returns (family, path) where path is the
    synthesized Markov path, if any, else None."""
    base = cfg.family.split(":")[0]
    reads = _FAMILIES[base][0]
    if base == "birkhoff":
        pot = _potential(cfg)
        gamma, theta = (synth._as_function(pot[key]) if key in pot else None
                        for key in ("gamma", "theta"))
        pot = builders.DigitPotential(float(pot["a"]), float(pot["b"]),
                                      gamma, theta)
        return builders.birkhoff_family(pot, cfg.j_max or 14), None

    path = None
    if cfg.model is None:
        read = builders.read_measure if reads == "measure" else wavelet.read_signal
        data = read(cfg.input_path)
    else:
        made = synth.synthesize(cfg.model)
        path = made.get("path")
        data = made[reads] if path is None else path.grid_M

    if reads == "measure":
        build = (builders.measure_family if base == "measure"
                 else builders.plain_measure_family)
        return build(data, cfg.j_max or data.J), path

    if base == "oscillation":
        # j_max >= 7 (where the signal allows) leaves the default fit
        # [3, j_max - 1] the 4 scales it needs
        J = np.asarray(data).size.bit_length() - 1
        j_max = cfg.j_max or min(J, max(7, J - 3))
        return builders.oscillation_family(data, cfg.osc_order, j_max), path

    # wavelet families
    pyramid = wavelet.dwt(data, cfg.filter_id)
    if cfg.frac_int:
        pyramid = wavelet.frac_integrate(pyramid, cfg.frac_int)
    if base == "leaders":
        return wavelet.leaders(pyramid), path
    return wavelet.p_leaders(pyramid, cfg.p_value), path


def _inside(xs: np.ndarray, windows: list[Window]) -> np.ndarray:
    """(n_x, n_windows) mask of the base points xs that each window holds."""
    lo, hi = np.array([[w.lo, w.hi] for w in windows]).T
    return (xs[:, None] >= lo) & (xs[:, None] < hi)


def _auto_H_grid(p_grid, tau) -> np.ndarray:
    fin = np.isfinite(tau)
    if fin.sum() < 2:
        raise ConfigError("scaling function is degenerate; pass --h-grid "
                          "explicitly")
    p, t = p_grid[fin], tau[fin]
    slopes = np.diff(t) / np.diff(p)
    lo, hi = float(slopes.min()), float(slopes.max())
    pad = 0.25 * max(hi - lo, 0.2)
    return np.round(np.arange(max(0.0, lo - pad), hi + pad + 1e-9, 0.01), 10)


def _base_points(cfg: PipelineConfig, family: dyadic.DyadicFamily,
                 windows: list[Window]) -> np.ndarray:
    """The configured x grid; a scale j gives the centre of every scale-j
    cube, (k + 0.5) / 2^j, that lies in one of the windows, for j up to the
    family's finest scale."""
    if not isinstance(cfg.x_grid, int):
        return cfg.x_grid
    if cfg.x_grid > family.j_max:
        raise ConfigError(f"x grid auto:{cfg.x_grid} is finer than the "
                          f"family's finest scale {family.j_max}")
    n = 1 << cfg.x_grid
    centres = (np.arange(n) + 0.5) / n
    return centres[_inside(centres, windows).any(axis=1)]


def _window_entry(fits: estimators._Fits, i: int,
                  spectrum: estimators.LegendreSpectrum) -> dict:
    """The ``windows`` entry of results.json of window i of the fits,
    without its local points."""
    j1, j2 = fits.fit_ranges[i].tolist()
    return {
        "window": fits.ends[i].tolist(),
        "p_grid": fits.p_grid.tolist(),
        "tau": fits.tau[i].tolist(),
        "eta": (fits.tau[i] - 1.0).tolist(),
        "tau_tailmin": fits.tau_tailmin[i].tolist(),
        "fit": {"j1": j1, "j2": j2, "residuals": fits.residuals[i].tolist()},
        "legendre": {"H": spectrum.H_grid.tolist(), "L": spectrum.L.tolist()},
    }


def run(cfg: PipelineConfig) -> dict:
    """Execute a validated pipeline; returns the results dictionary and
    writes results.json plus the plot CSVs into cfg.out_dir."""
    t0 = time.time()
    family, path = _family_from_config(cfg)
    windows = [dyadic._clip_window(family, w) for w in cfg.windows or [None]]

    results: dict = {"command": cfg.command, "windows": []}
    if not cfg.deterministic:
        results["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    results["config"] = _config_echo(cfg)

    fits = estimators._scaling_functions(
        family, [[w.lo, w.hi] for w in windows], cfg.p_grid,
        [cfg.fit_range] * len(windows))
    lp = None
    if cfg.mode == "local":
        policy = FitPolicy(*(cfg.fit_range or ()), min_cubes=cfg.min_cubes)
        lp = estimators.local_profile(family, _base_points(cfg, family, windows),
                                      cfg.radii, cfg.p_grid, policy)
        alphas = estimators.monohoelder_detect(lp).alpha
        inside = _inside(lp.x_grid, windows)
    for i, tau in enumerate(fits.tau):
        H_grid = (cfg.H_grid if cfg.H_grid is not None
                  else _auto_H_grid(cfg.p_grid, tau))
        entry = _window_entry(fits, i,
                              estimators._legendre(cfg.p_grid, tau, H_grid))
        if lp is not None:
            # each point under every window holding it, on that window's H grid
            entry["local"] = [
                {"x": float(lp.x_grid[ix]), "tau": lp.tau[ix].tolist(),
                 "legendre": {"L": estimators._legendre(
                     lp.p_grid, lp.tau_local[ix], H_grid).L.tolist()},
                 "alpha": float(alphas[ix])}
                for ix in np.flatnonzero(inside[:, i])]
        results["windows"].append(entry)

    results["runtime_s"] = time.time() - t0 if not cfg.deterministic else None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "results.json", results)
    for name, text in report_plots(results).items():
        (out / name).write_text(text)
    if path is not None:
        _write_jumps(out, path)
    return results


def _write_jumps(out: Path, path: synth.MarkovPath, echo: bool = True) -> None:
    """Write a Markov path's jumps.csv; with ``echo``, print its drift bound."""
    synth.write_jumps(out / "jumps.csv", path)
    if echo:
        print(f"truncation drift bound over [0, {path.T}]: "
              f"{path.drift_bound:.6g} (max rate {path.drift_rate_max:.6g})")


def _config_echo(cfg: PipelineConfig) -> dict:
    echo = {
        "family": cfg.family,
        "p_grid": cfg.p_grid.tolist(),
        "seed": cfg.seed,
        "frac_int": cfg.frac_int,
        "mode": cfg.mode,
    }
    if cfg.input_path:
        echo["input"] = cfg.input_path
    if cfg.model is not None:
        echo["model"] = {"kind": cfg.model.kind, "seed": cfg.model.seed}
    if cfg.fit_range:
        echo["fit"] = list(cfg.fit_range)
    if isinstance(cfg.x_grid, int):
        echo["x_grid"] = f"auto:{cfg.x_grid}"
    elif cfg.x_grid is not None:
        echo["x_grid"] = cfg.x_grid.tolist()
    if cfg.radii is not None:
        echo["radii"] = cfg.radii.tolist()
    return echo


def report_plots(results: dict) -> dict[str, str]:
    """Tidy long-format CSV tables from a results dictionary.

    Windows without local results contribute global rows (empty x column);
    windows with local results contribute one row per base point and grid
    value, every point's spectrum on its window's H grid. Column order is
    fixed; a malformed entry raises ConfigError.
    """
    tau_rows, spec_rows = [], []
    where = "windows"
    try:
        for i, entry in enumerate(results.get("windows", [])):
            where = f"windows[{i}]"
            lo, hi = (float(v) for v in entry["window"])
            leg = entry.get("legendre", {"H": [], "L": []})
            points = [(float(loc["x"]), loc["tau"][-1], loc["legendre"]["L"])
                      for loc in entry.get("local") or []]
            for x, taus, Ls in points or [(None, entry["tau"], leg["L"])]:
                tau_rows += [(lo, hi, x, float(p), float(t))
                             for p, t in zip(entry["p_grid"], taus, strict=True)]
                spec_rows += [(lo, hi, x, float(H), float(L))
                              for H, L in zip(leg["H"], Ls, strict=True)]
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"results entry {where} is malformed: {exc!r}") from exc
    return {
        "tau_long.csv": _table("window_lo,window_hi,x,p,tau", tau_rows),
        "spectrum_long.csv": _table("window_lo,window_hi,x,H,L", spec_rows),
    }


# ---------------------------------------------------------------------------
# oracle comparison


_DEFAULT_FAMILY = {
    "binomial": "plain-measure",
    "localized_bernoulli": "plain-measure",
    "cantor_pair": "plain-measure",
    "mbm": "leaders",
    "fbm": "leaders",
    "markov_jump": "oscillation",
    "birkhoff": "birkhoff",
}


def check_oracle(cfg: PipelineConfig) -> dict:
    """Synthesize a model, analyze it, and compare against its oracle."""
    kind = cfg.model.kind
    if kind == "markov_jump":
        return _check_oracle_markov(cfg)

    results = run(cfg)
    entry = results["windows"][0]
    p_grid = np.asarray(entry["p_grid"], dtype=float)
    orc = synth.oracle(cfg.model)
    out = Path(cfg.out_dir)
    summary: dict = {"kind": kind, "mode": cfg.mode}
    rows = []

    if cfg.mode == "local":
        devs, alpha_rows = [], []
        for loc in entry["local"]:
            x, tau_hat = loc["x"], np.array(loc["tau"][-1])
            tau_o = np.atleast_1d(orc.tau(x, p_grid))
            rows += [(x, p, th, to) for p, th, to in zip(p_grid, tau_hat, tau_o)]
            fin = np.isfinite(tau_hat) & np.isfinite(tau_o)
            devs.append(float(np.abs(tau_hat[fin] - tau_o[fin]).max()))
            if orc.pointwise is not None:
                alpha_rows.append((x, loc["alpha"], float(orc.pointwise(x))))
        summary["max_abs_tau_deviation"] = max(devs)
        summary["per_x_tau_deviation"] = devs
        if alpha_rows:
            summary["median_alpha_deviation"] = float(
                np.median([abs(a - a_o) for _, a, a_o in alpha_rows]))
            (out / "alpha.csv").write_text(
                _table("x,alpha_hat,alpha_oracle", alpha_rows))
    else:
        tau_hat = np.array(entry["tau"])
        tau_o = np.atleast_1d(orc.tau_global(p_grid))
        rows += [(None, p, th, to) for p, th, to in zip(p_grid, tau_hat, tau_o)]
        fin = np.isfinite(tau_hat)
        summary["max_abs_tau_deviation"] = float(np.abs(tau_hat[fin] - tau_o[fin]).max())

    (out / "oracle_vs_estimate.csv").write_text(
        _table("x,p,tau_hat,tau_oracle", rows))
    _write_json(out / "summary.json", summary)
    return summary


def _check_oracle_markov(cfg: PipelineConfig) -> dict:
    path = synth.gen_markov_jump(cfg.model)
    orc = synth.oracle(cfg.model, realization=path)
    n = path.grid_M.size
    j_max = cfg.j_max or (n.bit_length() - 1 - 1)
    # the default (5, min(13, j_max - 1)), with j1 lowered to keep 2 scales
    j2 = min(13, j_max - 1)
    if cfg.fit_range is None and j2 < 2:
        raise ScaleError(f"a markov_jump path of N = {n} samples has "
                         f"oscillation scales 0 to {j_max}, too few for a "
                         f"fit over 2 scales below the finest")
    fit = cfg.fit_range or (min(5, j2 - 1), j2)
    family = builders.oscillation_family(path.grid_M, 1, j_max)
    rng = np.random.default_rng(cfg.seed)
    ts = np.sort(rng.uniform(0.0, path.T, 100))
    h_hat = dyadic._chain_exponents(family, ts / path.T, "regression", fit,
                                    False).value
    h_or = np.array([float(orc.pointwise(float(t))) for t in ts])
    rows = list(zip(ts, h_hat, h_or))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle_vs_estimate.csv").write_text(_table("t,h_hat,h_oracle", rows))
    _write_jumps(out, path, echo=False)
    summary = {
        "kind": "markov_jump",
        "mode": "pointwise",
        "fraction_within_0.2": np.count_nonzero(abs(h_hat - h_or) <= 0.2) / 100.0,
        "monotone": bool(np.all(np.diff(path.grid_M) >= 0)),
        "drift_bound": path.drift_bound,
        "drift_rate_max": path.drift_rate_max,
        "n_jumps": int(path.times.size),
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# synth command


def cmd_synth(cfg: PipelineConfig) -> int:
    made = synth.synthesize(cfg.model)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta: dict = {"kind": cfg.model.kind, "seed": cfg.model.seed, "outputs": []}
    if "measure" in made:
        builders.write_measure(out / "measure.txt", made["measure"])
        meta["outputs"].append("measure.txt")
    if "signal" in made:
        wavelet.write_signal(out / "signal.bin", made["signal"], binary=True)
        meta["outputs"].append("signal.bin")
    if "path" in made:
        path = made["path"]
        wavelet.write_signal(out / "path.txt", path.grid_M)
        _write_jumps(out, path)
        meta["outputs"].extend(["path.txt", "jumps.csv"])
        meta["drift_bound"] = path.drift_bound
        meta["drift_rate_max"] = path.drift_rate_max
    _write_json(out / "meta.json", meta)
    return 0


def cmd_report(cfg: PipelineConfig) -> int:
    results = _read_json(cfg.input_path, "results")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in report_plots(results).items():
        (out / name).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError instead of printing usage."""

    def error(self, message):
        raise ConfigError(message)


def _options() -> list:
    """The PipelineConfig fields that are CLI options."""
    return [f for f in fields(PipelineConfig) if f.metadata]


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="localmf", description="local multifractal analysis")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("synth", "analyze", "local", "check-oracle", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config")
        for f in _options():
            how = ({"action": "store_true"} if f.default is False
                   else {"metavar": f.metadata["key"].upper()})
            p.add_argument(f.metadata["flag"], dest=f.name, default=None, **how)
    return ap


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    """Each option from its flag, else its config entry, else its default;
    flag text and config values go through the same parsers."""
    file_cfg = _read_json(args.config, "config") if args.config else {}
    options = _options()
    unknown = set(file_cfg) - {"model", "potential",
                               *(f.metadata["key"] for f in options)}
    if unknown:
        raise ConfigError(f"unknown config entries {sorted(unknown)}")
    cfg = PipelineConfig(command=args.command)
    for f in options:
        key = f.metadata["key"]
        v, what = getattr(args, f.name), f.metadata["flag"]
        if v is None:
            v, what = file_cfg.get(key), f"config entry {key!r}"
        if v is not None:
            parse = f.metadata["parse" if isinstance(v, str) else "convert"]
            setattr(cfg, f.name, _config_value(parse, v, what))
    if cfg.model is None and file_cfg.get("model") is not None:
        cfg.model = ModelSpec.from_json(json.dumps(file_cfg["model"]))
    if cfg.model is not None and args.seed is not None:
        cfg.model = ModelSpec(cfg.model.kind, cfg.model.params, cfg.seed)
    if cfg.family == "auto" or (args.command == "check-oracle" and (
            args.family or file_cfg.get("family")) is None):
        kind = cfg.model.kind if cfg.model is not None else None
        cfg.family = _DEFAULT_FAMILY.get(kind, "plain-measure")
    if cfg.family.startswith("p-leaders"):
        cfg.p_value = _config_value(float, cfg.family.partition(":")[2],
                                    "p-leaders family must be 'p-leaders:p'")
    cfg.potential = file_cfg.get("potential")
    if args.command == "local":
        cfg.mode = "local"
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _assemble_config(args)
        cfg.validate()
    except SystemExit:  # --help
        return 0
    except AnalysisError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "check-oracle":
            check_oracle(cfg)
            return 0
        run(cfg)
        return 0
    except AnalysisError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
