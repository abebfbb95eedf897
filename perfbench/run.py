#!/usr/bin/env python3
"""uavisac benchmark: two workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload dataset|eval-opt \
        --seed 11 --seconds 40 --trace 0|1

Run from the repository root; the library is imported from ./src.  This
process imports nothing from uavisac: it starts measuring interpreters one
after another and waits for each.  With --trace 0 it starts five.  Each one
sets up (import, one warm-up synthesis, the workload's inputs), prints READY,
then times its fifth of the workload's chunks and runs the output checks on
them.  `setup_s` is the median of the five times from process start to
READY.  With --trace 1 one interpreter runs all chunks traced, then untraced,
and reports the per-layer metrics and the tracing overhead.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it carries run metadata and the figures behind
the metrics; the full record is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
# Work grows linearly with --seconds (see bench_workloads.units), and so does
# the time allowed; at 40 the slowest run, a traced dataset run, takes about
# 90 s on a 2-CPU x86 VM.
DEADLINE_S_PER_40 = 170.0
THREADS = str(min(2, os.cpu_count() or 1))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dataset", "eval-opt"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--share", type=int, nargs=2, metavar=("I", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------- child side


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import uavisac

    if not Path(uavisac.__file__).resolve().is_relative_to(SRC):
        print(f"uavisac was imported from {uavisac.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    print("READY", flush=True)
    record = measure(bench_workloads, workload, args)
    print("RESULT " + json.dumps(record), flush=True)
    return 0


def measure(bw, workload, args) -> dict:
    """Time this interpreter's chunks, then check their outputs untimed."""
    from bench_trace import SKIP_REASONS, Tracer

    share, shares = args.share
    chunk_ids = range(share, workload.chunk_count, shares)
    failures: list[str] = []
    per_layer = None
    info = {}
    if args.trace:
        # the traced pass goes first, so it also pays the warm-up of the
        # allocator that later passes are spared: the overhead errs high
        with Tracer() as tracer:
            run = workload.run(chunk_ids)
        untraced = workload.run(chunk_ids)
        counts = ("attempted", "failed", "skips", "null_dropped")
        if [getattr(run, c) for c in counts] != [getattr(untraced, c) for c in counts]:
            failures.append("the traced and untraced passes did different amounts of work")
        failures += coverage(tracer, run)
        per_layer = {name: value for name, (value, _) in tracer.metrics().items()}
        for reason in SKIP_REASONS:
            per_layer[f"pipeline.skipped.{reason}"] = run.skips.get(reason, 0)
        per_layer["trace.overhead_s"] = run.busy_s - untraced.busy_s
        info["pass_s"] = {"traced": run.busy_s, "untraced": untraced.busy_s}
        per_layer["train.epoch_ms"] = (
            statistics.median(untraced.train_s) * 1e3 / workload.config.epochs if untraced.train_s else 0.0
        )
        info["sites"] = tracer.sites
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        tracer.write_spans(spans)
        info["spans"] = str(spans.relative_to(ROOT))
    else:
        run = workload.run(chunk_ids)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad, outputs = workload.check(run, OUT, src_sha256())
    info.update(outputs)
    return {
        "timings": run.timings(),
        "failures": failures + bad,
        "units": bw.units(workload.name, args.seconds),
        "epochs": workload.config.epochs if hasattr(workload, "config") else None,
        "eval_seed": args.seed + bw.EVAL_SEED_OFFSET,
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
        "info": info,
        "meta": library_metadata(),
    }


def coverage(tracer, run) -> list[str]:
    """Every synthesize call made through pipeline's binding must be traced."""
    out = []
    if "uavisac.pipeline" not in tracer.sites["beampattern.synthesize"]:
        out.append("synthesize is not traced where pipeline looks it up")
    calls = tracer.stats["beampattern.synthesize"].calls
    expected = 2 * tracer.stats["pipeline.synthesize_point"].calls + run.null_dropped
    if calls != expected:
        out.append(f"trace saw {calls} synthesize calls, expected {expected}")
    return out


def library_metadata() -> dict:
    import importlib.util

    import numpy
    import scipy
    from uavisac import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "kernel_backend": _kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def openblas_info() -> dict:
    """Build string and thread count of the OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                return {"library": Path(path).name, "config": config().decode(), "threads": threads()}
    return {"library": None}


# --------------------------------------------------------------- parent side


def run_child(args, share: int, shares: int, deadline: float) -> tuple[float, dict]:
    """Start one measuring interpreter; return (seconds until READY, its record)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--share", str(share), str(shares),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, record = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                record = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or record is None:
        raise RuntimeError(f"measuring interpreter {share} exited with code {code} before finishing")
    return ready, record


def merge(parts: list[dict]) -> dict:
    """Concatenate the timings of several interpreters' chunks."""
    out = {"slot_s": [], "wall_s": 0.0, "points": 0, "train_s": [], "nn_slot_s": [], "attempted": 0,
           "failed": 0, "skips": {}}
    for part in parts:
        for key in ("slot_s", "train_s", "nn_slot_s"):
            out[key] += part[key]
        for key in ("wall_s", "points", "attempted", "failed"):
            out[key] += part[key]
        for reason, count in part["skips"].items():
            out["skips"][reason] = out["skips"].get(reason, 0) + count
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(t: dict, trajectories: int) -> tuple[dict[str, float], dict]:
    ms = [s * 1e3 for s in t["slot_s"]]
    value, percentile, beyond = tail(ms)
    metrics = {
        "slot_ms.p50": statistics.median(ms),
        "slot_ms.tail": value,
        "slots_per_s": len(ms) / t["wall_s"],
        "trajectory_s": t["wall_s"] / trajectories,
    }
    return metrics, {"percentile": percentile, "slots": len(ms), "beyond": beyond}


def workload_figures(workload: str, t: dict, metrics: dict, epochs) -> dict:
    """The failure share and the per-workload figures printed before the result."""
    if workload == "eval-opt":
        out = {"eval.fail_frac": t["failed"] / t["attempted"]}
        out.update({f"eval.{name}": metrics[name] for name in ("slot_ms.p50", "slot_ms.tail", "slots_per_s")
                    if name in metrics})
        return out
    out = {"dataset.skip_frac": sum(t["skips"].values()) / t["points"], "dataset.skip_reasons": t["skips"]}
    if metrics:
        out["dataset.trajectory_s"] = metrics["trajectory_s"]
    if t["train_s"]:
        out["train.epoch_ms"] = statistics.median(t["train_s"]) * 1e3 / epochs
    if t["nn_slot_s"]:
        ms = [s * 1e3 for s in t["nn_slot_s"]]
        out["nn.slot_ms.p50"] = statistics.median(ms)
        out["nn.slot_ms.tail"], percentile, _ = tail(ms)
        out["nn.slot_ms.tail_percentile"] = percentile
    return out


def cpu_steal_s() -> float:
    """Seconds the hypervisor ran something else on this machine's CPUs."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def src_sha256() -> str:
    """Digest of the library sources, which scopes the dataset digest check."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(args, loadavg: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "blas_threads_env": THREADS,
        "git_commit": commit,
        "src_sha256": src_sha256(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavisac" / "__init__.py").is_file():
        print(f"no uavisac sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.share:
        return child_main(args)
    deadline = time.monotonic() + DEADLINE_S_PER_40 * max(1.0, args.seconds / 40)
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().strip()
    steal = cpu_steal_s()
    OUT.mkdir(exist_ok=True)
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    shares = 1 if args.trace else SETUPS
    setups, records = [], []
    try:
        for share in range(shares):
            ready, record = run_child(args, share, shares, deadline)
            setups.append(ready)
            records.append(record)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    timings = merge([r["timings"] for r in records])
    if args.trace:
        values = records[0]["per_layer"]
        e2e = {}
    else:
        e2e, tail_info = end_to_end(timings, records[0]["units"])
        values = dict(e2e, setup_s=statistics.median(setups),
                      peak_rss_mb=max(r["peak_rss_mb"] for r in records))
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    failures = [f for r in records for f in r["failures"]]
    info = workload_figures(args.workload, timings, e2e, records[0]["epochs"])
    info.update({
        "seeds": {"dataset": args.seed, "evaluation": records[0]["eval_seed"]},
        "units": records[0]["units"],
        "setup_samples_s": setups,
        "interpreters": [r["info"] for r in records],
        "failures": failures[:20],
    })
    meta = dict(records[-1]["meta"], **run_metadata(args, loadavg))
    meta["cpu_steal_s"] = cpu_steal_s() - steal
    if not args.trace:
        meta["tail_percentile"] = tail_info
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": timings["attempted"], "failed": timings["failed"],
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, meta=meta, info=info, timings=timings), indent=1, default=str))
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in info.items():
        if name.startswith(("dataset.", "eval.", "train.", "nn.")):
            print(f"{name} = {value}")
    print(json.dumps({"meta": meta, "info": info}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
