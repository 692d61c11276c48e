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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import builders, dyadic, estimators, synth, wavelet
from .dyadic import Window
from .errors import AnalysisError
from .estimators import FitPolicy
from .synth import ModelSpec

__all__ = ["main", "run", "report_plots", "PipelineConfig"]

FAMILY_KINDS = ("measure", "plain-measure", "oscillation", "leaders",
                "p-leaders", "birkhoff")


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
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    v = _fmt_float(float(x))
    return v if isinstance(v, str) else f"{v:.12g}"


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


def _parse_grid(text: str) -> np.ndarray:
    """'a:b:step' inclusive grid, or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be a:b:step")
        a, b, step = (float(t) for t in parts)
        if step <= 0 or b < a:
            raise ConfigError(f"grid {text!r} must have b >= a and step > 0")
        n = int(round((b - a) / step))
        return a + step * np.arange(n + 1)
    return np.array([float(t) for t in text.split(",") if t])


def _parse_windows(text: str) -> list[Window]:
    out = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        lo, hi = (float(t) for t in chunk.split(","))
        out.append(Window(lo, hi))
    if not out:
        raise ConfigError("no windows given")
    return out


def _parse_fit(text: str) -> tuple[int, int]:
    j1, j2 = (int(t) for t in text.split(":"))
    return j1, j2


@dataclass
class PipelineConfig:
    """Validated batch-run description (one input source, one family kind)."""

    command: str
    input_path: str | None = None
    model: ModelSpec | None = None
    family: str = "plain-measure"
    p_value: float | None = None          # for p-leaders
    osc_order: int = 1
    frac_int: float = 0.0
    filter_id: str = wavelet.DEFAULT_FILTER
    j_max: int | None = None
    p_grid: np.ndarray = field(default_factory=lambda: np.arange(-5.0, 5.5, 0.5))
    H_grid: np.ndarray | None = None
    windows: list[Window] | None = None
    x_grid: np.ndarray | None = None
    radii: np.ndarray | None = None
    fit_range: tuple[int, int] | None = None
    min_cubes: int = 8
    potential: dict | None = None
    seed: int = 0
    out_dir: str = "."
    deterministic: bool = False
    mode: str = "global"

    def validate(self):
        if (self.input_path is None) == (self.model is None):
            raise ConfigError("exactly one input source is required "
                              "(--input or a model spec)")
        base = self.family.split(":")[0]
        if base not in FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {self.family!r}")
        if base == "p-leaders":
            if self.p_value is None or not self.p_value > 0:
                raise ConfigError("p-leaders requires p > 0 (family 'p-leaders:p')")
        if self.mode == "local" and (self.x_grid is None or self.radii is None):
            raise ConfigError("local mode requires --x-grid and --radii")
        if self.frac_int != 0.0 and base not in ("leaders", "p-leaders"):
            raise ConfigError("fractional integration applies to wavelet "
                              "families only")
        if base == "birkhoff" and not self.potential:
            raise ConfigError("birkhoff families need a 'potential' config "
                              "entry with digit values a, b")
        if (self.model is not None and base != "birkhoff"
                and self.command not in ("synth", "report")):
            makes_measure = self.model.kind in (
                "binomial", "localized_bernoulli", "cantor_pair")
            wants_measure = base in ("measure", "plain-measure")
            if makes_measure != wants_measure:
                raise ConfigError(
                    f"family {self.family!r} does not apply to "
                    f"{self.model.kind!r} output")
        if self.input_path is not None and not Path(self.input_path).exists():
            raise ConfigError(f"unreadable input {self.input_path!r}")


def _family_from_config(cfg: PipelineConfig) -> tuple[dyadic.DyadicFamily, dict]:
    """Build the analysis family; returns (family, extras) where extras may
    carry synthesized artifacts (path, pyramid, measure)."""
    base = cfg.family.split(":")[0]
    extras: dict = {}

    if base == "birkhoff":
        pot = builders.DigitPotential(
            a=float(cfg.potential["a"]), b=float(cfg.potential["b"]),
            gamma_fn=synth._as_function(cfg.potential["gamma"])
            if "gamma" in cfg.potential else None,
            theta_fn=synth._as_function(cfg.potential["theta"])
            if "theta" in cfg.potential else None)
        return builders.birkhoff_family(pot, cfg.j_max or 14), extras

    measure = signal = pyramid = None
    if cfg.model is not None:
        made = synth.synthesize(cfg.model)
        extras.update(made)
        measure = made.get("measure")
        pyramid = made.get("pyramid")
        signal = made.get("signal")
        if "path" in made:
            signal = made["path"].grid_M
    elif base in ("measure", "plain-measure"):
        measure = builders.read_measure(cfg.input_path)
    else:
        signal = wavelet.read_signal(cfg.input_path)

    if base in ("measure", "plain-measure"):
        if measure is None:
            raise ConfigError(f"family {cfg.family!r} needs a binned measure input")
        j_max = cfg.j_max or measure.J
        build = (builders.measure_family if base == "measure"
                 else builders.plain_measure_family)
        return build(measure, j_max), extras

    if base == "oscillation":
        if signal is None:
            raise ConfigError("oscillation families need a signal input")
        n = np.asarray(signal).size
        j_max = cfg.j_max or max(4, n.bit_length() - 1 - 3)
        return builders.oscillation_family(signal, cfg.osc_order, j_max), extras

    # wavelet families
    if pyramid is None:
        if signal is None:
            raise ConfigError(f"family {cfg.family!r} needs a signal input")
        pyramid = wavelet.dwt(signal, cfg.filter_id)
    if cfg.frac_int:
        pyramid = wavelet.frac_integrate(pyramid, cfg.frac_int)
    extras["pyramid"] = pyramid
    if base == "leaders":
        return wavelet.leaders(pyramid), extras
    return wavelet.p_leaders(pyramid, cfg.p_value), extras


def _auto_H_grid(sf: estimators.ScalingFunction) -> np.ndarray:
    fin = np.isfinite(sf.tau)
    if fin.sum() < 2:
        raise ConfigError("scaling function is degenerate; pass --h-grid "
                          "explicitly")
    p, t = sf.p_grid[fin], sf.tau[fin]
    slopes = np.diff(t) / np.diff(p)
    lo, hi = float(slopes.min()), float(slopes.max())
    pad = 0.25 * max(hi - lo, 0.2)
    return np.round(np.arange(max(0.0, lo - pad), hi + pad + 1e-9, 0.01), 10)


def run(cfg: PipelineConfig) -> dict:
    """Execute a validated pipeline; returns the results dictionary and
    writes results.json plus the plot CSVs into cfg.out_dir."""
    t0 = time.time()
    family, extras = _family_from_config(cfg)
    windows = cfg.windows or [family.window]

    results: dict = {"command": cfg.command, "windows": []}
    if not cfg.deterministic:
        results["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    results["config"] = _config_echo(cfg)

    for iw, w in enumerate(windows):
        sf = estimators.scaling_function(family, w, cfg.p_grid,
                                         fit_range=cfg.fit_range)
        H_grid = cfg.H_grid if cfg.H_grid is not None else _auto_H_grid(sf)
        spec_w = estimators.legendre(sf, H_grid)
        entry = estimators.scaling_to_dict(sf, spec_w)
        if cfg.mode == "local" and iw == 0:
            policy = FitPolicy(j1=cfg.fit_range[0] if cfg.fit_range else 3,
                               j2=cfg.fit_range[1] if cfg.fit_range else None,
                               min_cubes=cfg.min_cubes)
            lp = estimators.local_profile(family, cfg.x_grid, cfg.radii,
                                          cfg.p_grid, policy, H_grid=H_grid)
            mono = estimators.monohoelder_detect(lp)
            entry["local"] = [
                {
                    "x": float(lp.x_grid[ix]),
                    "radii": lp.radii.tolist(),
                    "tau": [lp.profiles[ix][ir].tau.tolist()
                            for ir in range(lp.radii.size)],
                    "legendre": {
                        "H": lp.legendre_local[ix].H_grid.tolist(),
                        "L": lp.legendre_local[ix].L.tolist(),
                    },
                    "alpha": float(mono.alpha[ix]),
                }
                for ix in range(lp.x_grid.size)
            ]
            extras["local_profile"] = lp
            extras["monohoelder"] = mono
        results["windows"].append(entry)

    results["runtime_s"] = time.time() - t0 if not cfg.deterministic else None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "results.json", results)
    for name, text in report_plots(results).items():
        (out / name).write_text(text)
    if "path" in extras:
        path = extras["path"]
        synth.write_jumps(out / "jumps.csv", path)
        print(f"truncation drift bound over [0, {path.T}]: "
              f"{path.drift_bound:.6g} (max rate {path.drift_rate_max:.6g})")
    results["_extras"] = extras
    return results


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
    if cfg.x_grid is not None:
        echo["x_grid"] = cfg.x_grid.tolist()
    if cfg.radii is not None:
        echo["radii"] = cfg.radii.tolist()
    return echo


def report_plots(results: dict) -> dict[str, str]:
    """Tidy long-format CSV tables from a results dictionary.

    Windows without local results contribute global rows (empty x column);
    windows with local results contribute one row per base point and grid
    value. Column order is fixed.
    """
    tau_rows, spec_rows = [], []
    for entry in results.get("windows", []):
        lo, hi = entry["window"]
        points = [(loc["x"], loc["tau"][-1], loc["legendre"])
                  for loc in entry.get("local") or []]
        for x, taus, leg in points or [(None, entry["tau"], entry.get("legendre"))]:
            tau_rows += [(lo, hi, x, p, t) for p, t in zip(entry["p_grid"], taus)]
            if leg:
                spec_rows += [(lo, hi, x, H, L) for H, L in zip(leg["H"], leg["L"])]
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
}


def check_oracle(cfg: PipelineConfig) -> dict:
    """Synthesize a model, analyze it, and compare against its oracle."""
    if cfg.model is None:
        raise ConfigError("check-oracle needs a model spec (--spec)")
    kind = cfg.model.kind
    if kind == "markov_jump":
        return _check_oracle_markov(cfg)

    results = run(cfg)
    extras = results["_extras"]
    orc = synth.oracle(cfg.model)
    out = Path(cfg.out_dir)
    summary: dict = {"kind": kind, "mode": cfg.mode}
    rows = []

    if cfg.mode == "local":
        lp = extras["local_profile"]
        mono = extras["monohoelder"]
        devs = []
        alpha_rows = []
        H_fn_dev = []
        for ix, x in enumerate(lp.x_grid):
            tau_o = np.atleast_1d(orc.tau(float(x), lp.p_grid))
            rows += [(x, p, th, to)
                     for p, th, to in zip(lp.p_grid, lp.tau_local[ix], tau_o)]
            fin = np.isfinite(lp.tau_local[ix]) & np.isfinite(tau_o)
            devs.append(float(np.abs(lp.tau_local[ix][fin] - tau_o[fin]).max()))
            if orc.pointwise is not None:
                a_o = float(orc.pointwise(float(x)))
                alpha_rows.append((x, mono.alpha[ix], a_o))
                H_fn_dev.append(abs(mono.alpha[ix] - a_o))
        summary["max_abs_tau_deviation"] = max(devs)
        summary["per_x_tau_deviation"] = devs
        if H_fn_dev:
            summary["median_alpha_deviation"] = float(np.median(H_fn_dev))
            (out / "alpha.csv").write_text(
                _table("x,alpha_hat,alpha_oracle", alpha_rows))
    else:
        entry = results["windows"][0]
        p_grid = np.asarray(entry["p_grid"], dtype=float)
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
    family = builders.oscillation_family(path.grid_M, 1, j_max)
    fit = cfg.fit_range or (5, min(13, j_max - 1))
    rng = np.random.default_rng(cfg.seed)
    ts = rng.uniform(0.0, path.T, 100)
    rows = []
    hits = 0
    for t in np.sort(ts):
        est = dyadic.lower_exponent(family, float(t / path.T),
                                    method="regression", fit_range=fit)
        h_o = float(orc.pointwise(float(t)))
        rows.append((t, est.value, h_o))
        hits += abs(est.value - h_o) <= 0.2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle_vs_estimate.csv").write_text(_table("t,h_hat,h_oracle", rows))
    synth.write_jumps(out / "jumps.csv", path)
    summary = {
        "kind": "markov_jump",
        "mode": "pointwise",
        "fraction_within_0.2": hits / 100.0,
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
    if cfg.model is None:
        raise ConfigError("synth needs a model spec (--spec)")
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
    if "pyramid" in made:
        (out / "pyramid.csv").write_text(wavelet.pyramid_to_csv(made["pyramid"]))
        meta["outputs"].append("pyramid.csv")
    if "path" in made:
        path = made["path"]
        wavelet.write_signal(out / "path.txt", path.grid_M)
        synth.write_jumps(out / "jumps.csv", path)
        meta["outputs"].extend(["path.txt", "jumps.csv"])
        meta["drift_bound"] = path.drift_bound
        meta["drift_rate_max"] = path.drift_rate_max
        print(f"truncation drift bound over [0, {path.T}]: "
              f"{path.drift_bound:.6g} (max rate {path.drift_rate_max:.6g})")
    _write_json(out / "meta.json", meta)
    return 0


def cmd_report(cfg: PipelineConfig) -> int:
    if cfg.input_path is None:
        raise ConfigError("report needs --input pointing at a results.json")
    with open(cfg.input_path) as fh:
        results = json.load(fh)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in report_plots(results).items():
        (out / name).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="localmf",
                                 description="local multifractal analysis")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("synth", "analyze", "local", "check-oracle", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--input", dest="input_path", default=None)
        p.add_argument("--spec", default=None, help="model spec JSON file")
        p.add_argument("--family", default=None)
        p.add_argument("--p-grid", default=None)
        p.add_argument("--h-grid", default=None)
        p.add_argument("--windows", default=None)
        p.add_argument("--x-grid", default=None)
        p.add_argument("--radii", default=None)
        p.add_argument("--fit", default=None)
        p.add_argument("--frac-int", type=float, default=None)
        p.add_argument("--j-max", type=int, default=None)
        p.add_argument("--min-cubes", type=int, default=None)
        p.add_argument("--osc-order", type=int, default=None)
        p.add_argument("--filter", dest="filter_id", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", dest="out_dir", default=None)
        p.add_argument("--deterministic", action="store_true", default=None)
        p.add_argument("--mode", choices=("global", "local"), default=None)
    return ap


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    file_cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    cfg = PipelineConfig(command=args.command)
    cfg.input_path = pick(args.input_path, "input")
    spec_path = pick(args.spec, "spec")
    if spec_path:
        cfg.model = ModelSpec.from_json(Path(spec_path).read_text())
    elif isinstance(file_cfg.get("model"), dict):
        cfg.model = ModelSpec.from_json(json.dumps(file_cfg["model"]))
    family = pick(args.family, "family", "auto" if args.command == "check-oracle"
                  else "plain-measure")
    if family == "auto":
        family = (_DEFAULT_FAMILY.get(cfg.model.kind, "plain-measure")
                  if cfg.model is not None else "plain-measure")
    cfg.family = family
    if family.startswith("p-leaders"):
        try:
            cfg.p_value = float(family.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ConfigError("p-leaders family must be given as 'p-leaders:p'")
    p_grid = pick(args.p_grid, "p_grid")
    if p_grid is not None:
        cfg.p_grid = (_parse_grid(p_grid) if isinstance(p_grid, str)
                      else np.asarray(p_grid, dtype=float))
    h_grid = pick(args.h_grid, "H_grid")
    if h_grid is not None:
        cfg.H_grid = (_parse_grid(h_grid) if isinstance(h_grid, str)
                      else np.asarray(h_grid, dtype=float))
    windows = pick(args.windows, "windows")
    if windows is not None:
        if isinstance(windows, str):
            cfg.windows = _parse_windows(windows)
        else:
            cfg.windows = [Window(float(lo), float(hi)) for lo, hi in windows]
    x_grid = pick(args.x_grid, "x_grid")
    if x_grid is not None:
        cfg.x_grid = (_parse_grid(x_grid) if isinstance(x_grid, str)
                      else np.asarray(x_grid, dtype=float))
    radii = pick(args.radii, "radii")
    if radii is not None:
        if isinstance(radii, str) and ":" in radii:
            cfg.radii = _parse_grid(radii)[::-1]  # grids ascend; radii descend
        elif isinstance(radii, str):
            cfg.radii = np.array([float(t) for t in radii.split(",") if t])
        else:
            cfg.radii = np.asarray(radii, dtype=float)
    fit = pick(args.fit, "fit")
    if fit is not None:
        cfg.fit_range = _parse_fit(fit) if isinstance(fit, str) else tuple(fit)
    cfg.frac_int = float(pick(args.frac_int, "frac_int", 0.0))
    cfg.j_max = pick(args.j_max, "j_max")
    cfg.min_cubes = int(pick(args.min_cubes, "min_cubes", 8))
    cfg.osc_order = int(pick(args.osc_order, "osc_order", 1))
    cfg.filter_id = pick(args.filter_id, "filter", wavelet.DEFAULT_FILTER)
    cfg.seed = int(pick(args.seed, "seed", 0))
    cfg.out_dir = pick(args.out_dir, "out", ".")
    cfg.deterministic = bool(pick(args.deterministic, "deterministic", False))
    cfg.mode = pick(args.mode, "mode",
                    "local" if args.command == "local" else "global")
    cfg.potential = file_cfg.get("potential")
    if cfg.model is not None and args.seed is not None:
        cfg.model = ModelSpec(cfg.model.kind, cfg.model.params, args.seed)
    if args.command == "local":
        cfg.mode = "local"
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _assemble_config(args)
        cfg.validate()
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
