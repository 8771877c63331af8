"""Closed-loop benchmark of the krtorus CLI, one workload per process.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One client, one process, one thread: each op is an in-process call of
``krtorus.cli.main`` and the next op starts when the previous returns.
With ``--trace 0`` the run times whole passes over the workload's ops
and prints the end-to-end metrics; with ``--trace 1`` it runs one pass
untraced and one traced and prints the per-module metrics. Without
``--workload`` every workload runs in a fresh process of its own. The
last line of standard output is one JSON object with the results.

Times are reported at reference speed. While a pass runs, a timer
signal times a short fixed pure-Python loop every PROBE_INTERVAL_S; an
op's wall time, less the time spent in those samples, is scaled by
REF_NOMINAL_S over the mean loop time sampled during and around the op.
A shared machine can change speed by up to 1.8x for seconds at a time
(bench/README.md); the loop tracks that, so the scaled times move with
the program and much less with the machine. The plain wall times are
printed next to them.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# workloads puts src/ on sys.path, so it is imported before krtorus
from workloads import (DEFAULT_SEED, WORKLOADS, build_ops, check, check_ownership, run_op,
                       sha256)

import krtorus.cli  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # so every run compares the bytes of two passes
COLD_STARTS_PER_PASS = 3  # before each pass and after the last: spread over the run
PROBE_INTERVAL_S = 0.1
REF_LOOPS = 12_000
REF_NOMINAL_S = 0.001  # about the loop's time on an unloaded 2.1 GHz x86-64 vCPU, Python 3.11
UNITS = {"pass_s": "s", "max_op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def reference_seconds() -> float:
    """Time one fixed pure-Python loop: how fast the machine runs right now.

    It allocates no containers, so it never starts a garbage collection
    of the program's objects.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for k in range(REF_LOOPS):
        acc += k
        table[k & 1023] = acc
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


class SpeedProbe:
    """Samples reference_seconds() on a SIGALRM timer and at op boundaries."""

    def __init__(self):
        self.samples = []  # (start, end) of each sample; the loop time is end - start
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_seconds()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def timed(self, start: float, end: float) -> tuple:
        """(wall, scaled) seconds of [start, end], less the samples taken inside it."""
        inside = [e - s for s, e in self.samples if start <= s and e <= end]
        wall = end - start - sum(inside)
        near = [e - s for s, e in self.samples
                if start - PROBE_INTERVAL_S <= s and e <= end + PROBE_INTERVAL_S]
        return wall, wall * REF_NOMINAL_S / statistics.fmean(near)


def cold_starts(runs: int) -> list:
    """(wall, scaled) seconds from spawning a fresh interpreter to the end of
    ``import krtorus.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import krtorus.cli, time; print(time.monotonic())"
    samples = []
    ref = reference_seconds()
    for _ in range(runs):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        wall = float(out.stdout) - t0
        after = reference_seconds()
        samples.append((wall, at_reference_speed(wall, ref, after)))
        ref = after
    return samples


def run_pass(ops, tracer=None, reeb_graphs=None) -> tuple:
    """Run every op once; returns (results, each op's wall and reference-speed seconds).

    reeb_graphs, when given, collects each op's ReebGraph for the
    ownership check, through a pass-through wrapper on the CLI's
    compute_reeb binding; the check itself runs after the pass.
    """
    orig = krtorus.cli.compute_reeb
    current = None
    if reeb_graphs is not None:
        def tap(s):
            g = orig(s)
            reeb_graphs[current] = (g, s.triangle_count)
            return g
        krtorus.cli.compute_reeb = tap
    results, walls, scaled, spans = [], [], [], []
    try:
        with SpeedProbe() as probe:
            for op in ops:
                current = op.id
                if tracer is not None:
                    tracer.op = op.id
                probe.sample()
                t0 = time.perf_counter()
                results.append(run_op(op))
                t1 = time.perf_counter()
                probe.sample()
                spans.append((t0, t1))
            for t0, t1 in spans:
                wall, at_ref = probe.timed(t0, t1)
                walls.append(wall)
                scaled.append(at_ref)
    finally:
        krtorus.cli.compute_reeb = orig
    return results, walls, scaled


class Checker:
    """Counts failed ops: wrong result, or bytes that differ from the first pass."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.attempted = 0
        self.failures = []

    def add(self, label, results, reeb_graphs=None):
        digests = [sha256(r.output) for r in results]
        for i, (op, res) in enumerate(zip(self.ops, results)):
            problems = check(op, res)
            if self.first is not None and digests[i] != self.first[i]:
                problems.append("output bytes differ from the first pass")
            if reeb_graphs is not None and op.kind == "reeb":
                if op.id in reeb_graphs:
                    problems += check_ownership(op, *reeb_graphs[op.id])
                else:
                    problems.append("compute_reeb was not called")
            self.attempted += 1
            if problems:
                self.failures.append(f"{label} {op.id}: {'; '.join(problems)}")
        if self.first is None:
            self.first = digests


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}"
    ops = build_ops(workload, seed, work)
    checker = Checker(ops)
    passes = []  # per pass: (wall seconds of each op, scaled seconds of each op)

    def one_pass(label, tracer=None, own=False):
        graphs = {} if own and workload == "reeb-random" else None
        gc.collect()
        results, walls, scaled = run_pass(ops, tracer, graphs)
        checker.add(label, results, graphs)
        passes.append((walls, scaled))

    if trace:
        one_pass("untraced pass", own=True)
        tracer = Tracer()
        tracer.install()
        try:
            one_pass("traced pass", tracer)
        finally:
            tracer.remove()
        tracer.dump(ROOT / ".bench_work" / f"trace-{workload}-seed{seed}.jsonl")
        untraced, traced = (sum(p[1]) for p in passes)
        return {"ops": len(ops), "passes": passes, "checker": checker,
                "metrics": tracer.metrics(traced / untraced - 1.0)}

    cold_starts(1)  # writes the bytecode cache, which a user pays once
    setup = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or \
            time.perf_counter() - t0 + statistics.median(sum(p[0]) for p in passes) <= seconds:
        setup += cold_starts(COLD_STARTS_PER_PASS)
        one_pass(f"pass {len(passes) + 1}", own=not passes)
    setup += cold_starts(COLD_STARTS_PER_PASS)
    metrics = {"pass_s": statistics.median(sum(p[1]) for p in passes),
               "max_op_s": statistics.median(max(p[1]) for p in passes),
               "setup_s": statistics.median(s for _, s in setup),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    wall = {"pass_s": statistics.median(sum(p[0]) for p in passes),
            "max_op_s": statistics.median(max(p[0]) for p in passes),
            "setup_s": statistics.median(w for w, _ in setup)}
    return {"ops": len(ops), "passes": passes, "checker": checker, "metrics": metrics,
            "wall": wall, "cold_starts": len(setup)}


def run_workload(args) -> int:
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    checker, metrics, passes = res["checker"], res["metrics"], res["passes"]
    units = dict(PER_LAYER) if args.trace else UNITS

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {res['ops']} ops, closed loop, 1 client")
    for line in checker.failures:
        print(f"FAILED {line}")
    for name, unit in units.items():
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        plain = f" (wall {res['wall'][name]:.6g} {unit})" if name in res.get("wall", {}) else ""
        print(f"  {name} = {shown} {unit}{plain}")
    if not args.trace:
        print(f"  times at reference speed; pass_s and max_op_s: median of {len(passes)} "
              f"passes; setup_s: median of {res['cold_starts']} cold starts")
    print("  pass wall times: " + " ".join(f"{sum(p[0]):.3f}" for p in passes) + " s")
    failed = len(checker.failures)
    print(f"  failed_ops_ratio = {failed / checker.attempted:.6g} "
          f"({failed} failed of {checker.attempted} ops attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints their results and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the generated inputs")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; at least two passes always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one untraced and one traced pass, per-module metrics")
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
