"""localmf benchmark: one seeded workload per process, closed loop, gated.

Usage, from the repository root:

    python3 perfbench/run.py --workload global_cascade --seed 1 --seconds 25 --trace 0

The run sets up (imports localmf from ./src and derives the seeded inputs),
then runs jobs one after another for --seconds, each job one full pipeline
pass, and gates every job's outputs against the models' oracles. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs each
input twice, once with a span around every call into a localmf layer, and
reports the per-layer metrics, the spans going to perfbench/out/ when the
run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("global_cascade", "local_dense", "signal_pointwise", "cli_files")
SETUP_REPEATS = 7

# span name -> per-layer time metric
TIME_METRICS = {
    "synth.synthesize": "synth.s",
    "synth.gen_markov_jump": "synth.s",
    "synth.gen_mbm": "synth.s",
    "builders.plain_measure_family": "builders.s",
    "builders.oscillation_family": "builders.s",
    "wavelet.dwt": "wavelet.s",
    "wavelet.leaders": "wavelet.s",
    "dyadic.lower_exponent": "dyadic.s",
    "estimators.scaling_function": "estimators.scaling_s",
    "estimators.local_profile": "estimators.local_s",
    "estimators.legendre": "estimators.legendre_s",
    "estimators.monohoelder_detect": "estimators.legendre_s",
    "cli.synth": "cli.synth_s",
    "cli.analyze": "cli.analyze_s",
    "cli.local": "cli.local_s",
    "cli.report": "cli.report_s",
    "cli.check-oracle": "cli.check_s",
}
COUNT_METRICS = {
    "synth.jumps": "count",
    "builders.cubes": "count",
    "wavelet.coeffs": "count",
    "dyadic.points": "count",
    "estimators.windows": "count",
    "estimators.fits": "count",
    "estimators.sum_terms": "count",
    "estimators.excluded_cubes": "count",
    "cli.bytes_written": "B",
    "cli.bytes_read": "B",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)   # one set-up sample, then exit
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_localmf():
    """Import localmf from this checkout's src/, never from elsewhere."""
    if not (SRC / "localmf" / "__init__.py").is_file():
        sys.exit(f"error: no localmf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import localmf
    if Path(localmf.__file__).resolve().parent != (SRC / "localmf").resolve():
        sys.exit(f"error: imported localmf from {localmf.__file__}, not {SRC}")


def setup_samples(args, rundir: Path) -> list[float]:
    """Wall time of fresh processes that only set up: interpreter start,
    imports and the workload's seeded inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--setup-only"]
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls with sleeps of up to 50 ms,
        # which would quantize the samples
        subprocess.run(cmd, check=True, cwd=rundir)
        samples.append(time.perf_counter() - t0)
    return samples


def run_jobs(wl, seconds: float, tr, trace: bool) -> list[dict]:
    """Closed loop: the next job starts when the previous one has finished
    and been gated. A job starts only while the run's median job (gate
    included) still fits in the remaining time. A traced run runs each
    input twice, once traced, alternating which goes first so that the
    warm-up of the first job does not bias the overhead."""
    records: list[dict] = []
    t_loop = time.perf_counter()
    while True:
        n = len(records)
        if n >= (2 if trace else 1):
            typical = statistics.median(r["cycle"] for r in records)
            if time.perf_counter() - t_loop + typical > seconds:
                break
        pair, second = divmod(n, 2)
        rec = {"job": n, "input": pair if trace else n,
               "traced": trace and (second == 1) != (pair % 2 == 1),
               "ok": False, "dev": float("inf"), "counts": {}, "input_bytes": 0}
        tr.enabled, tr.job = rec["traced"], n
        start = time.perf_counter()
        try:
            out = wl.pipeline(rec["input"], tr)
            rec["raised"] = False
        except Exception:   # a raising job counts as failed; the run goes on
            traceback.print_exc()
            out, rec["raised"] = None, True
        end = time.perf_counter()
        tr.enabled = False
        if rec["traced"]:
            tr.add_job(n, start, end)
        rec["wall"] = end - start
        if out is not None:
            try:
                checked = wl.check(out)
                rec.update(ok=checked.ok, dev=checked.oracle_dev,
                           counts=checked.counts, input_bytes=checked.input_bytes)
            except Exception:
                traceback.print_exc()
        rec["cycle"] = time.perf_counter() - start
        records.append(rec)
    return records


def layer_times(tr, job: int) -> dict[str, float]:
    out = dict.fromkeys(TIME_METRICS.values(), 0.0)
    for name, t0, t1, _ in tr.job_spans(job):
        out[TIME_METRICS[name]] += t1 - t0
    return out


def end_to_end(records, setup) -> dict:
    walls = [r["wall"] for r in records]
    completed = sum(not r["raised"] for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "jobs_per_s": (completed / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(records, tr, failed: int) -> dict:
    traced = [r for r in records if r["traced"]]
    per_job = [layer_times(tr, r["job"]) for r in traced]
    metrics = {name: (statistics.median(t[name] for t in per_job), "s")
               for name in dict.fromkeys(TIME_METRICS.values())}

    first = records[0]["counts"]        # counts of job 0 repeat per seed
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (first.get(name, 0), unit)
    rates = []
    for r, t in zip(traced, per_job):
        busy = t["estimators.scaling_s"] + t["estimators.local_s"]
        rates.append(r["counts"].get("estimators.sum_terms", 0) / busy if busy else 0.0)
    metrics["estimators.terms_per_s"] = (statistics.median(rates), "1/s")
    slots = first.get("estimators.S_slots", 0)
    metrics["estimators.scale_use_ratio"] = (
        first.get("estimators.finite_S", 0) / slots if slots else 0.0, "ratio")
    metrics["oracle_dev"] = (records[0]["dev"], "abs")
    metrics["failed_frac"] = (failed / len(records), "ratio")
    walls: dict[int, dict[bool, float]] = {}
    for r in records:
        walls.setdefault(r["input"], {})[r["traced"]] = r["wall"]
    metrics["trace.overhead_s"] = (statistics.median(
        w[True] - w[False] for w in walls.values() if len(w) == 2), "s")
    return metrics


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def stamp(args, records) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    largest = max(r["input_bytes"] for r in records)
    l3 = l3_bytes()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "l3_bytes": l3,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "largest_input_bytes_computed": largest,
        "largest_input_fits_l3": bool(l3 and largest <= l3),
    }


def print_self_times(args, records, tr) -> None:
    traced = [r for r in records if r["traced"]]
    per_job = [tr.self_times(r["job"]) for r in traced]
    p50 = statistics.median(r["wall"] for r in traced)
    print(f"self time per job, {args.workload}, median of {len(traced)} traced jobs:")
    for layer in ("synth", "builders", "wavelet", "dyadic", "estimators", "cli",
                  "bench"):
        t = statistics.median(s.get(layer, 0.0) for s in per_job)
        print(f"  {layer:<11} {t:10.4f} s  {100.0 * t / p50:5.1f} %")


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads: the loop is closed, so a
    # second thread would only contend with the job's own Python thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_localmf()
    import workloads
    from spans import Tracer

    wl_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed, Path.cwd() / "inputs")
        return 0

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        setup = setup_samples(args, rundir)
        wl = wl_cls(args.seed, rundir / "inputs")
        tr = Tracer(False)
        t_origin = time.perf_counter()
        records = run_jobs(wl, args.seconds, tr, bool(args.trace))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    if not wl.run_ok():
        failed = len(records)
    if args.trace:
        metrics = per_layer(records, tr, failed)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write(trace_path, t_origin)
        print_self_times(args, records, tr)
        print(f"spans: {trace_path.relative_to(ROOT)} ({len(tr.spans)} spans)")
    else:
        metrics = end_to_end(records, setup)
        print(f"job_p50_s over {len(records)} jobs; setup_s median of "
              f"{len(setup)} fresh processes")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"stamp": stamp(args, records), "result": result,
            "jobs": [{k: r[k] for k in ("job", "traced", "wall", "ok", "dev")}
                     for r in records]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(info, indent=2) + "\n")
    print("stamp " + json.dumps(info["stamp"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
