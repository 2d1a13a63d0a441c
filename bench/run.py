#!/usr/bin/env python3
"""Benchmark of the cpscores pipeline, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload cli_simulate --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced iterations with traced ones and reports
the per-layer metrics.  ``--workload all`` runs each workload in a fresh
process, one after the other.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable table.  The package is imported from
``src/`` of the checkout; the exit code is 0 when every output check passed,
1 when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
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

from tracing import MODULES, Tracer, median_of, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cli_simulate", "cli_analyze", "inmem_large", "replications")

# BLAS/OpenMP threads, capped at the cores this process may use.
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# Metrics of the untraced run printed in the JSON result.  A shared 2-core
# VM switches between speeds 1.6x apart in phases of seconds to minutes,
# which moved medians, tails and mean throughput by up to 47% between runs;
# noise only adds time, so these use the fastest repeat of each unit of work.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_best_s", "s"),
    ("cases_per_s", "cases/s"),
    ("fits_per_s", "fits/s"),
    ("peak_rss_mb", "MB"),
)
# Printed in the table only: they follow the host's speed phases.
END_TO_END_INFO = (
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
)

# Calls whose per-iteration time is reported as the per-layer metric <call>.s
TIMED_CALLS = (
    "io.write_matrix_csv", "io.read_labeled_csv", "io.parse_model_file",
    "simulate.simulate_dataset", "simulate.run_example",
    "model.validate_model", "model.combined_factor_corr",
    "scores.joint_regression_weights", "scores.joint_regression_scores",
    "scores.cp_transform", "scores.cp_scores_from_params",
    "scores.orthogonal_scores",
    "determinacy.determinacy_exo", "determinacy.determinacy_endo",
    "determinacy.closed_form_regression_determinacy",
    "regression.standardized_betas",
)
SUBCOMMANDS = ("simulate", "scores", "transform", "determinacy", "validate", "verify")
PEAK_CALLS = ("io.read_labeled_csv", "scores.joint_regression_scores", "scores.cp_transform")


def per_layer_metrics() -> list[tuple[str, str]]:
    names = [(f"{f}.s", "s") for f in TIMED_CALLS]
    names += [
        ("io.write_matrix_csv.mb_per_s", "MB/s"),
        ("io.read_labeled_csv.mb_per_s", "MB/s"),
        ("io.bytes_written", "bytes"),
        ("io.bytes_read", "bytes"),
        ("io.cells_parsed", "count"),
    ]
    for f in PEAK_CALLS:
        names += [(f"{f}.peak_over_result", "ratio"), (f"{f}.result_bytes", "bytes")]
    for sub in SUBCOMMANDS:
        names += [(f"cli.{sub}.s", "s"), (f"cli.{sub}.self_s", "s")]
    names += [(f"{m}.share", "ratio") for m in MODULES]
    names.append(("trace.overhead_s", "s"))
    return names


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    return p.parse_args(argv)


def pin_threads() -> tuple[int, int]:
    """Pin BLAS/OpenMP threads before numpy loads; returns (pinned, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    pinned = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(pinned)
    return pinned, nproc


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import cpscores; "
                "print(time.perf_counter() - t0)")


def import_package() -> list[float]:
    """Import cpscores (and numpy with it) from ``src/``.

    Returns the seconds the import took here and in ``SETUP_REPEATS - 1``
    fresh interpreters, so set-up time can be reported as a median.
    """
    src = ROOT / "src"
    if not (src / "cpscores" / "__init__.py").is_file():
        raise RuntimeError(f"no cpscores package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import cpscores  # noqa: F401

    times = [time.perf_counter() - t0]
    if Path(cpscores.__file__).resolve().parent != (src / "cpscores").resolve():
        raise RuntimeError(f"cpscores imported from {cpscores.__file__}, not {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(probe.stdout))
    return times


def blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn_name in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
            fn = getattr(dll, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(samples, pct):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(wl, seconds, trace):
    """Run iterations for ``seconds``; iteration 0 warms up untimed.

    With tracing, iteration 1 is the memory probe (tracemalloc on, not
    timed) and later odd iterations are traced, even ones untraced.
    """
    from workloads import instrument  # imports numpy: only after pin_threads

    tracer = Tracer() if trace else None
    walls, keys, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        probe = traced and i == 1
        try:
            if traced:
                with instrument(tracer), tracer.iteration_span(i, probe=probe):
                    out = wl.run_traced(i, tracer)
            else:
                t0 = time.perf_counter()
                out = wl.run(i)
                if i > 0:
                    walls.append(time.perf_counter() - t0)
                    keys.append(wl.repeat_key(i))
            problems = wl.check(i, out)
        except Exception:  # a failing iteration is counted and the run goes on
            problems = [traceback.format_exc(limit=3)]
        attempted += 1
        if problems:
            failures.append({"iteration": i, "problems": problems})
        i += 1
    return {
        "walls": walls,
        "keys": keys,
        "attempted": attempted,
        "failures": failures,
        "tracer": tracer,
    }


def best_of_repeats(walls, keys) -> float:
    """Mean over units of work of the fastest repeat of each."""
    best: dict = {}
    for key, t in zip(keys, walls):
        best[key] = min(t, best.get(key, t))
    return statistics.fmean(best.values()) if best else 0.0


def end_to_end(wl, import_times, setup_times, m):
    import_s = statistics.median(import_times)
    n = len(m["walls"])
    walls = m["walls"] or [0.0]  # no iteration completed: the run is failed
    best = best_of_repeats(m["walls"], m["keys"])
    tail_s, beyond = tail(walls, wl.tail_pct)
    units = len(set(m["keys"]))
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_best_s": best,
        "cases_per_s": wl.cases_per_iteration() / best if best else 0.0,
        "fits_per_s": 1.0 / best if best else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_s,
    }
    details = {
        "setup_s": (f"median import {import_s:.3f} s + median set-up "
                    f"{statistics.median(setup_times):.3f} s, {len(setup_times)} each"),
        "wall_best_s": (f"fastest of {n} iterations" if units == 1 else
                        f"mean over {units} units of the fastest of their "
                        f"{n} iterations"),
        "cases_per_s": f"{wl.cases_per_iteration()} cases / wall_best_s",
        "fits_per_s": "one model pass / wall_best_s",
        "peak_rss_mb": "ru_maxrss of this process",
        "wall_s": f"median of {n} iterations (not gated)",
        "wall_tail_s": f"p{wl.tail_pct} of {n} iterations, {beyond} beyond (not gated)",
    }
    return values, details


def per_layer(m):
    s = summarize(m["tracer"].spans)
    med = lambda key: median_of(s, key)  # noqa: E731
    values = {f"{f}.s": med(f"{f}.s") for f in TIMED_CALLS}
    for f, kind in (("io.write_matrix_csv", "bytes_written"),
                    ("io.read_labeled_csv", "bytes_read")):
        secs = med(f"{f}.s")
        values[f"{f}.mb_per_s"] = med(f"{f}.{kind}") / secs / 1e6 if secs else 0.0
        values[f"io.{kind}"] = med(f"{f}.{kind}")
    values["io.cells_parsed"] = med("io.read_labeled_csv.cells_parsed")
    for f in PEAK_CALLS:
        peak, base = s["peaks"].get(f, (0, 0))
        values[f"{f}.peak_over_result"] = peak / base if base else 0.0
        values[f"{f}.result_bytes"] = base
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.s"] = med(f"cli.{sub}.s")
        values[f"cli.{sub}.self_s"] = med(f"cli.{sub}.self_s")
    total = sum(s["per_iter"].get("iteration.s", []))
    for mod in MODULES:
        own = sum(s["per_iter"].get(f"{mod}.self_s", []))
        values[f"{mod}.share"] = own / total if total else 0.0
    if m["walls"] and s["iterations"]:
        values["trace.overhead_s"] = med("iteration.s") - statistics.median(m["walls"])
    else:
        values["trace.overhead_s"] = 0.0
    details = {
        "io.bytes_written": "computed from file sizes",
        "io.bytes_read": "computed from file sizes",
        "io.cells_parsed": "computed: rows x columns",
        "trace.overhead_s": (
            f"median of {s['iterations']} traced minus median of "
            f"{len(m['walls'])} untraced iterations"),
    }
    for f in PEAK_CALLS:
        details[f"{f}.result_bytes"] = "computed from the result shape"
        details[f"{f}.peak_over_result"] = "tracemalloc peak (probe iteration) / result bytes"
    return values, details, s["iterations"]


def run_workload(args) -> int:
    pinned, nproc = pin_threads()
    try:
        import_times = import_package()
    except (ImportError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, "smoke" if args.smoke else "full",
                                      str(workdir))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        m = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "blas_threads_pinned": pinned,
        "blas_threads_reported": blas_threads_reported(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        values, details, n_traced = per_layer(m)
        units = dict(per_layer_metrics())
        tag = f"spans-{wl.name}-seed{args.seed}.jsonl"
        m["tracer"].write(str(OUT_DIR / tag))
        details["spans"] = f"{n_traced} traced iterations in .bench_out/{tag}"
        info = {}
    else:
        values, details = end_to_end(wl, import_times, setup_times, m)
        units = dict(END_TO_END)
        info = dict(END_TO_END_INFO)
    failed = len(m["failures"])
    rate = failed / m["attempted"]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"cpscores benchmark: {wl.name} ({wl.why})")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'metric':48s} {'value':>14s} {'unit':8s} detail")
    for k, unit in {**units, **info}.items():
        print(f"  {k:48s} {values[k]:14.6g} {unit:8s} {details.get(k, '')}")
    print(f"  {'error_rate':48s} {rate:14.6g} {'ratio':8s} "
          f"{failed} failed / {m['attempted']} attempted")
    if args.trace and m["tracer"].missing:
        print("  not traced, absent from the package: "
              + ", ".join(sorted(m["tracer"].missing)))
    for f in m["failures"][:3]:
        print(f"  failed iteration {f['iteration']}: {f['problems']}", file=sys.stderr)

    record = {"env": env, "metrics": metrics, "details": details,
              "not_gated": {k: {"value": values[k], "unit": u} for k, u in info.items()},
              "error_rate": rate, "failures": m["failures"][:20],
              "untraced_samples_s": m["walls"], "repeat_keys": m["keys"]}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": m["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
            print(f"error: {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
