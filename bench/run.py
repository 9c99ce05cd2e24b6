"""kahlersym benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dense_points,high_dim,experiments}
                         --seed N --seconds S --trace 0|1

kahlersym is a batch tool with no request stream, so each workload is a
closed loop: one process, one client, one call at a time.  A run starts
WORKERS fresh workload processes (``worker.py``) one after another.  Each
times its own set-up, then runs timed passes for S / WORKERS seconds and
checks every output.  A fixed host-speed probe runs before and after
set-up and every pass.  Throughput and set-up time are medians of times
taken against the probes around them, given in seconds of a host on which
the probe takes PROBE_REFERENCE_S; the raw wall-clock figures are printed
too and kept in the record.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of an outside-in traced run.  Human-readable lines come
first; the last line of output is one JSON object.  A record of the run
(environment, every pass time, host-speed probe) and the spans of traced
runs are written under ``.bench_out/``.  ``BENCHMARK.json`` lists the
workloads and metrics; ``bench/README.md`` maps each layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kahlersym")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKERS = 5
# The probe's time in a fast phase of the 2-core virtual machine the
# benchmark was defined on.  It only scales the figures; a change to it
# changes every figure of every commit alike.
PROBE_REFERENCE_S = 0.062
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="kahlersym benchmark")
    p.add_argument("--workload", required=True,
                   choices=("dense_points", "high_dim", "experiments"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def run_workers(args) -> list[dict]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    start = time.monotonic()
    results = []
    for index in range(WORKERS):
        cmd = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--index", str(index), "--out", OUT_DIR]
        remaining = TIME_LIMIT_S - (time.monotonic() - start)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker {index} exited with {proc.returncode}:\n{proc.stderr}"
            )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _one_value(values, what: str, problems: list[str]):
    """The single value an exact counter must take everywhere; ``None``
    stands for a value that is missing."""
    distinct = set(values)
    if len(distinct) != 1:
        problems.append(f"{what} is not exact: {sorted(map(repr, distinct))}")
    return values[0]


def end_to_end(workers: list[dict], attempted: int, failed: int) -> dict:
    # A shared host runs in slow phases (about 1.7x on a 2-core virtual
    # machine) that last seconds to minutes, so raw wall-clock figures of
    # two runs of the same code can differ by half.  A pass or set-up over
    # the mean of the probes just before and after it keeps its ratio in
    # either phase; the median of those ratios is scaled back to seconds by
    # the probe's reference time.
    pass_s = PROBE_REFERENCE_S * statistics.median(
        r for w in workers for r in w["pass_ratio"])
    return {
        "points_per_s": (workers[0]["points_per_pass"] / pass_s, "1/s"),
        "setup_s": (PROBE_REFERENCE_S * statistics.median(
            w["setup_ratio"] for w in workers), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(workers: list[dict], problems: list[str]) -> dict:
    passes = [stats for w in workers for stats in w["trace"]]
    setups = [w["setup_trace"] for w in workers]
    metrics = {}
    for layer in passes[0]["layers"]:
        # JetSpace tables are built once per process, during set-up.
        source = setups if layer == "jets.JetSpace.build" else passes
        metrics[f"{layer}.self_s"] = (
            statistics.median(p["layers"][layer]["self_s"] for p in source), "s")
        metrics[f"{layer}.calls"] = (
            _one_value([p["layers"][layer]["calls"] for p in source],
                       f"{layer}.calls", problems), "count")
    metrics["kernel.einsum.calls"] = (
        _one_value([p["einsum_calls"] for p in passes], "kernel.einsum.calls",
                   problems), "count")
    metrics["metrics.evals_per_point"] = (
        _one_value([p["metric_evals"] / max(p["distinct_points"], 1) for p in passes],
                   "metrics.evals_per_point", problems), "ratio")
    # Each traced pass over the untraced pass just before it, so both share
    # the host's speed at that moment.
    metrics["trace.overhead_ratio"] = (statistics.median(
        traced / untraced for w in workers
        for untraced, traced in zip(w["pass_s"], w["traced_pass_s"])), "ratio")
    probe_ms, probe_spread = probe_summary(workers)
    metrics["host.probe_ms"] = (probe_ms, "ms")
    metrics["host.probe_spread"] = (probe_spread, "ratio")
    # The raw wall-clock counterparts of the end-to-end times, over the
    # untraced passes.
    metrics["wall.points_per_s"] = (workers[0]["points_per_pass"] / statistics.median(
        t for w in workers for t in w["pass_s"]), "1/s")
    metrics["wall.setup_s"] = (statistics.median(w["setup_s"] for w in workers), "s")
    return metrics


def probe_summary(workers: list[dict]) -> tuple[float, float]:
    """Median of the host-speed probe in ms, and its quartile distance over
    the median."""
    q1, med, q3 = quartiles([t * 1e3 for w in workers for t in w["probe_s"]])
    return med, (q3 - q1) / med


def environment(args, workers: list[dict]) -> dict:
    return {
        **workers[0]["versions"],
        "threads": {var: "1" for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": WORKERS,
        "probe_reference_s": PROBE_REFERENCE_S,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from .git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"no kahlersym sources under {PACKAGE}\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        workers = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1

    failures = [f for w in workers for f in w["failures"]]
    attempted = sum(w["attempted"] for w in workers)
    problems = []
    for name in sorted({name for w in workers for name in w["digests"]}):
        _one_value([w["digests"].get(name) for w in workers],
                   f"output digest of {name}", problems)
    warnings = []
    if args.trace:
        metrics = per_layer(workers, problems)
        if workers[0]["missing_layers"]:
            # A refactor moved a traced function; outputs are still checked.
            warnings.append(f"layers not found, reported as 0: {workers[0]['missing_layers']}")
    else:
        metrics = end_to_end(workers, attempted, len(failures))

    env = environment(args, workers)
    pass_s = [t for w in workers for t in w["pass_s"]]
    q1, med, q3 = quartiles(pass_s)
    r_q1, r_med, r_q3 = quartiles([r for w in workers for r in w["pass_ratio"]])
    probe_ms, probe_spread = probe_summary(workers)
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}",
        f"untraced pass, wall clock: median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s  "
        f"n = {len(pass_s)}  fastest {min(pass_s):.4f} s  "
        f"({workers[0]['points_per_pass']} points per pass)",
        f"untraced pass over probe: median {r_med:.3f}  quartiles {r_q1:.3f} .. {r_q3:.3f}",
        "set-up, wall clock: " + "  ".join(f"{w['setup_s']:.3f}" for w in workers) + " s",
        "set-up over probe: " + "  ".join(f"{w['setup_ratio']:.2f}" for w in workers),
        f"host probe: median {probe_ms:.3f} ms  quartile spread {probe_spread:.3f}",
    ]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"FAILED {f}" for f in failures[:20]]
    lines += [f"CHECK {p}" for p in problems]
    lines += [f"WARNING {w}" for w in warnings]
    sys.stdout.write("\n".join(lines) + "\n")

    summary = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "result": summary, "failures": failures,
              "problems": problems, "warnings": warnings, "workers": workers}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
