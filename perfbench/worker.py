"""Benchmark worker: one interpreter that imports tribcount from the checkout.

It makes the first calls (which run the lazy segment-formula self-check),
prints ``ready``, then reads one JSON job from stdin, runs it and prints one
JSON result line.  An empty stdin makes it exit after start-up, which is how
start-up is timed on its own.

One op is in flight at a time (a closed loop with one client).  Checking
happens after each op or round, outside the timed region.
"""

from __future__ import annotations

import importlib.metadata
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import tribcount

import layers
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
TRACE_SHARE = 0.1  # of --seconds, for the untraced part of a trace run
MAX_FAILURE_MESSAGES = 5
# With at least QUIET_MIN_ROUNDS rounds in a run, the timing metrics come
# from its fastest tenth of rounds: op_ms_p50 is the median of their
# per-round median op latencies.  Where cores are shared with other
# tenants, the speed of pure-Python code swings up to 2x within seconds;
# every round holds the same op mix, so the fastest rounds measure the code
# rather than the neighbours.  Runs of few, long rounds (the CLI workloads)
# use all of them: picking one of a handful only adds sampling noise.
QUIET_MIN_ROUNDS = 100
# Start-up is timed every few seconds through a run, between rounds, so
# that setup_s samples the same stretch of machine time as the ops.
SETUP_PROBE_INTERVAL_S = 4.0


class Phase:
    """What one stretch of rounds produced.  Per op only the current
    round's latencies are kept, so the worker's own memory does not grow
    with the number of ops."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.items = 0
        self.wall = 0.0
        self.latencies = []  # of the round in progress
        self.rounds = []  # (wall, items, median latency, p90 or None)
        self.setups = []  # seconds from spawning a worker to its ready line
        self.trace = None  # {"spans", "counts", "roots", "lines"} when traced
        self.peak_rss_mb = 0.0

    def close_round(self, wall, items):
        lat = sorted(self.latencies)
        p90 = quantiles(lat, n=10)[-1] if len(lat) >= 100 else None
        self.rounds.append((wall, items, median(lat), p90))
        self.latencies = []

    def summary(self) -> dict:
        quiet = self.rounds
        if len(quiet) >= QUIET_MIN_ROUNDS:
            quiet = sorted(quiet)[:len(quiet) // 10]
        out = {"attempted": self.attempted, "failed": len(self.failures),
               "failures": self.failures[:MAX_FAILURE_MESSAGES],
               "items": self.items, "wall_s": self.wall, "setups": self.setups,
               "op_ms_p50": median(r[2] for r in self.rounds) * 1e3,
               "quiet": {"rounds": len(quiet), "of_rounds": len(self.rounds),
                         "items": sum(r[1] for r in quiet),
                         "wall_s": sum(r[0] for r in quiet),
                         "op_ms_p50": median(r[2] for r in quiet) * 1e3}}
        if self.rounds[0][3] is not None:
            out["op_ms_p90"] = median(r[3] for r in self.rounds) * 1e3
        return out


class Launcher:
    """The small process that starts the measured CLI commands."""

    def __init__(self, root):
        scratch = root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.out = scratch / f"out-{os.getpid()}.txt"
        self.err = scratch / f"err-{os.getpid()}.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(self.out),
             str(self.err)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root)

    def run(self, argv):
        """(seconds, returncode or None on timeout, stdout, stderr)"""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["seconds"], reply["returncode"], self.out.read_text(),
                self.err.read_text())

    def close(self) -> float:
        """Stop the launcher; returns the peak RSS of the commands it ran."""
        self.proc.stdin.close()
        peak = json.loads(self.proc.stdout.readline())["peak_rss_mb"]
        self.proc.wait()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)
        return peak

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def time_worker_start(root) -> float:
    """Seconds from spawning a worker until it reports ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, cwd=root)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("worker start-up probe failed")
    return elapsed


def run_rounds(workload, round_iter, seconds, tracer=None, root=None,
               probe_setup=False):
    """Run whole rounds until the timed wall reaches ``seconds`` (at least
    one), timing a worker start-up between rounds if ``probe_setup``."""
    phase = Phase()
    last_probe = -math.inf
    if tracer is not None:
        phase.trace = {"spans": [], "counts": {}, "roots": {}, "lines": 0}
    launcher = None if workload == "point" else Launcher(root)
    try:
        for ops in round_iter:
            wall, items = phase.wall, phase.items
            if launcher is None:
                _point_round(phase, ops, tracer)
            else:
                for op in ops:
                    _cli_op(phase, op, launcher, tracer is not None, root)
            phase.close_round(phase.wall - wall, phase.items - items)
            due = perf_counter() - last_probe >= SETUP_PROBE_INTERVAL_S
            if probe_setup and due:
                phase.setups.append(time_worker_start(root))
                last_probe = perf_counter()
            if phase.wall >= seconds:
                break
        if launcher is None:  # ru_maxrss is in KiB on Linux
            phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            phase.peak_rss_mb = launcher.close()
    finally:
        if launcher is not None:
            launcher.kill()
    return phase


def _point_round(phase, ops, tracer):
    fns = {name: getattr(tribcount, name) for name in workloads.POINT_FUNCS}
    lat = phase.latencies
    results = []
    if tracer is not None:
        tracer.on = True
    start = perf_counter()
    for op_id, (name, n) in enumerate(ops, phase.attempted):
        if tracer is not None:
            tracer.op = op_id
        t0 = perf_counter()
        try:
            value = fns[name](n)
        except Exception as exc:  # counted as a failed op
            value = exc
        lat.append(perf_counter() - t0)
        results.append(value)
    phase.wall += perf_counter() - start
    if tracer is not None:
        tracer.on = False
        got = tracer.take()
        layers.merge(phase.trace, got)
    phase.attempted += len(ops)
    phase.items += len(ops)
    phase.failures += workloads.check_point_round(tribcount, ops, results)


def _cli_op(phase, op, launcher, traced, root):
    op_id = phase.attempted
    phase.attempted += 1
    command = " ".join(op.argv)
    if traced:
        spans_file = root / ".perfbench" / f"child-{os.getpid()}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file),
                *op.argv]
    else:
        argv = [sys.executable, "-m", "tribcount.cli", *op.argv]
    seconds, code, out, err = launcher.run(argv)
    phase.wall += seconds
    phase.latencies.append(seconds)
    if code is None:
        phase.failures.append(f"{command} timed out")
        return
    if traced and spans_file.exists():
        with open(spans_file) as fh:
            layers.merge(phase.trace, json.load(fh), op_id)
        spans_file.unlink()
        phase.trace["lines"] += out.count("\n")
    if code != 0:
        phase.failures.append(f"{command} exited {code}: {err.strip()[-200:]}")
        return
    try:
        message, items = workloads.check_cli(tribcount, op, out)
    except (ValueError, KeyError) as exc:
        message, items = f"{command}: unparsable output ({exc})", 0
    if message:
        phase.failures.append(message)
    else:
        phase.items += items


def run_job(job) -> dict:
    workload, seed, seconds = job["workload"], job["seed"], job["seconds"]
    sizes = workloads.SMOKE if job["smoke"] else workloads.FULL
    root = Path(job["root"])

    def stream(name=workload):
        return workloads.rounds(name, random.Random(seed), sizes)

    if not job["trace"]:
        phase = run_rounds(workload, stream(), seconds, root=root,
                           probe_setup=True)
        return {**phase.summary(), "peak_rss_mb": phase.peak_rss_mb}

    # Trace run: the workload untraced, the same ops again traced (their
    # rate ratio is the tracing overhead), then one traced round of each
    # other workload that feeds a per-layer metric.
    plain = run_rounds(workload, stream(), seconds * TRACE_SHARE, root=root)
    tracer = Tracer()
    tracer.install()
    try:
        traced = {workload: run_rounds(
            workload, itertools.islice(stream(), len(plain.rounds)), math.inf,
            tracer, root)}
        for home in layers.HOME_WORKLOADS:
            if home not in traced:
                traced[home] = run_rounds(home, stream(home), 0, tracer, root)
    finally:
        tracer.uninstall()
    startup = layers.startup_probes(root, sizes.startup_probes)
    metrics = layers.layer_metrics({w: p.trace for w, p in traced.items()},
                                   startup)
    t = traced[workload]
    metrics["trace.overhead_ratio"] = (t.items / t.wall) / (plain.items / plain.wall)
    layers.write_spans(root / ".perfbench" / f"spans-{workload}.jsonl",
                       {w: p.trace for w, p in traced.items()})
    phases = [plain, *traced.values()]
    failures = [f for p in phases for f in p.failures]
    return {"attempted": sum(p.attempted for p in phases),
            "failed": len(failures),
            "failures": failures[:MAX_FAILURE_MESSAGES],
            "layers": metrics,
            "traced": {w: p.summary() for w, p in traced.items()}}


def environment() -> dict:
    versions = {}
    for package in ("numpy", "numba"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": sys.version.split()[0], **versions}


def main() -> int:
    # the first calls run the lazy self-check of the segment formulas
    tribcount.algorithm_B(workloads.N_MAX)
    tribcount.algorithm_D(workloads.N_MAX)
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    result = run_job(json.loads(line))
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
