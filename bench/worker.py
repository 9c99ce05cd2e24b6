"""One workload process of the benchmark; ``run.py`` starts several in turn.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
                               --trace 0|1 --index K --out DIR

Times its own set-up (from just before ``import kahlersym`` to the end of
one untimed warm-up pass), then runs timed passes for ``--seconds`` and
prints one JSON object as its last line of output.  A host-speed probe
runs before set-up and after set-up and every pass; each set-up and
untraced pass is also reported as a ratio to the mean of the two probes
around it.  With ``--trace 1`` it alternates untraced and traced passes,
so the traced run also measures the tracing overhead; the first worker
(``--index 0``) writes the spans of its set-up and of its first traced
pass to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

MIN_PASSES = 2
PROBE_ROUNDS = 40000  # about 62 ms in a fast phase of a 2-core virtual machine


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)  # validated by run.py
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def host_probe(np) -> float:
    """Seconds taken by a fixed numpy and Python loop that uses no kahlersym
    code.  A shared host changes speed for seconds to minutes at a time;
    a pass timed against the probes on either side of it reads the same in
    a slow phase as in a fast one, and a change to kahlersym cannot move
    the probe."""
    a = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        acc += float((a @ a)[0, 0]) + sum(range(50))
    return time.perf_counter() - start


class Session:
    """Runs passes over a workload's calls and checks every output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run_pass(self) -> float:
        """Wall time of the calls of one pass; checks run outside it."""
        total = 0.0
        for index, call in enumerate(self.workload.calls):
            if self.tracer is not None:
                self.tracer.call_id = index
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = call.run()
            except Exception as err:  # a raising call counts as failed
                total += time.perf_counter() - start
                self.failures.append(f"{call.name}: {type(err).__name__}: {err}")
                continue
            total += time.perf_counter() - start
            problems = call.check(out)
            digest = call.digest(out)
            if self.digests.setdefault(call.name, digest) != digest:
                problems.append("output differs from the previous pass")
            if problems:
                self.failures.append(f"{call.name}: {'; '.join(problems)}")
        return total


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)

    import numpy as np  # for the probe; kahlersym imports it too

    setup_probe = host_probe(np)
    start = time.perf_counter()
    import kahlersym

    if not os.path.abspath(kahlersym.__file__).startswith(src + os.sep):
        sys.stderr.write(f"kahlersym imported from {kahlersym.__file__}, not {src}\n")
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    session = Session(WORKLOADS[args.workload](args.seed), tracer)
    session.run_pass()
    setup_s = time.perf_counter() - start

    probe = host_probe(np)
    result = {"setup_s": setup_s, "setup_ratio": setup_s / ((setup_probe + probe) / 2),
              "pass_s": [], "pass_ratio": [], "traced_pass_s": [],
              "probe_s": [setup_probe, probe]}
    spans_out = {}  # phase -> spans, kept by the first worker only
    keep_spans = tracer is not None and args.index == 0
    if tracer is not None:
        tracer.uninstall()
        result["setup_trace"], spans = tracer.take()
        if keep_spans:
            spans_out["setup"] = spans
        result["trace"] = []
        result["missing_layers"] = tracer.missing

    deadline = time.perf_counter() + args.seconds
    passes = 0
    last = 0.0  # wall time of the previous pass and probe
    while passes < MIN_PASSES or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        elapsed = session.run_pass()
        if traced:
            tracer.uninstall()
            stats, spans = tracer.take()
            result["trace"].append(stats)
            result["traced_pass_s"].append(elapsed)
            if keep_spans:
                spans_out.setdefault("pass", spans)
        probe_before, probe = probe, host_probe(np)
        if not traced:
            result["pass_s"].append(elapsed)
            result["pass_ratio"].append(elapsed / ((probe_before + probe) / 2))
        result["probe_s"].append(probe)
        passes += 1
        last = time.perf_counter() - began

    result.update(
        attempted=session.attempted,
        failures=session.failures,
        digests=session.digests,
        points_per_pass=session.workload.points_per_pass,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_name(np),
        },
    )
    if spans_out:
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}-w{args.index}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for phase, spans in spans_out.items():
                for span in spans:
                    fh.write(json.dumps([phase] + span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
