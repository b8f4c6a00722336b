#!/usr/bin/env python3
"""tribcount benchmark.

    python3 perfbench/run.py --workload {point,sweep,verify,cold} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a checkout: tribcount is imported from its ``src/``
(``PYTHONPATH=src``), never from an installed copy, with
``TRIBCOUNT_BACKEND`` and ``TRIB_ORACLE_CAP`` cleared so the defaults are
measured.  setup_s is the time from spawning the worker interpreter until
it is ready for the first op; it is sampled when the run starts and every
few seconds during it.  The worker then runs the workload for S seconds
of timed work.

Prints a readable report, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at a tiny size in both modes and checks that
each metric named in BENCHMARK.json is reported with its unit and that no op
failed.  BENCHMARK.json lists ``point`` and ``cold``; ``sweep`` and ``verify``
run on request, and one traced round of each feeds every trace run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from layers import UNITS as LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms",
             "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRIBCOUNT_BACKEND", None)
    env.pop("TRIB_ORACLE_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _start_worker(env):
    """Spawn a worker and wait for it to report ready; returns (proc, seconds)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, elapsed


def run_once(workload, seed, seconds, trace, smoke=False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details for the report)."""
    proc, elapsed = _start_worker(child_env())
    try:
        job = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": bool(trace), "smoke": smoke, "root": str(ROOT)}
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit {proc.returncode})")
    res = json.loads(out.strip().splitlines()[-1])
    setups = [elapsed, *res.get("setups", ())]
    if trace:
        metrics = {name: (value, LAYER_UNITS[name])
                   for name, value in res["layers"].items()}
    else:
        quiet = res["quiet"]
        values = {"setup_s": median(setups),
                  "items_per_s": quiet["items"] / quiet["wall_s"],
                  "op_ms_p50": quiet["op_ms_p50"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: (v, E2E_UNITS[name]) for name, v in values.items()}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return line, {**res, "setups": setups}


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def report(args, line, details):
    env = {"commit": commit(), "seed": args.seed,
           "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
           **details["environment"]}
    print(f"tribcount benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    attempted, failed = line["attempted"], line["failed"]
    if args.trace:
        samples = {}
        for w, s in details["traced"].items():
            print(f"traced {w}: {s['attempted']} ops, {s['items']} items "
                  f"in {s['wall_s']:.3f} s")
    else:
        quiet = details["quiet"]
        rounds = f"{quiet['rounds']} of {quiet['of_rounds']} rounds"
        samples = {"setup_s": f"{len(details['setups'])} starts",
                   "items_per_s": f"{quiet['items']} items, {rounds}",
                   "op_ms_p50": f"median of {rounds}",
                   "peak_rss_mb": ("1 process" if args.workload == "point"
                                   else f"{attempted} processes")}
    print(f"{'metric':<46}{'value':>16}  {'unit':<7}samples")

    def row(name, value, unit, count=""):
        print(f"{name:<46}{value:>16.6g}  {unit:<7}{count}")

    for name, m in line["metrics"].items():
        row(name, m["value"], m["unit"], samples.get(name, ""))
    if not args.trace and quiet["rounds"] < quiet["of_rounds"]:
        every = f"{quiet['of_rounds']} rounds"
        row("items_per_s (all rounds)", details["items"] / details["wall_s"],
            "1/s", every)
        row("op_ms_p50 (all rounds)", details["op_ms_p50"], "ms", every)
        if "op_ms_p90" in details:
            row("op_ms_p90 (all rounds)", details["op_ms_p90"], "ms", every)
    row("failed_ratio", failed / attempted, "ratio", f"{attempted} ops")
    for message in details["failures"]:
        print(f"FAILED: {message}")


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, _ = run_once(workload, seed=1, seconds=0, trace=trace,
                               smoke=True)
            got = line["metrics"]
            where = f"{workload} trace={trace}"
            for metric in spec[key]:
                m = got.get(metric["name"])
                if (m is None or m["unit"] != metric["unit"]
                        or not math.isfinite(m["value"])):
                    problems.append(f"{where}: {metric['name']} {m}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: unlisted {sorted(extra)}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{where}: {line['failed']} failed ops")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"{line['attempted']} ops, {line['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tribcount" / "__init__.py").is_file():
        print(f"error: no tribcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        line, details = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report(args, line, details)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
