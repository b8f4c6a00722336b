"""Per-layer metrics from traced runs.

Each layer is measured on the workload it feeds (its home workload), so a
trace run of any workload reports every layer:

- ``startup.*`` (interpreter start, import): separate probe processes;
  they feed ``op_ms_p50`` on ``cold`` and ``setup_s`` everywhere.
- ``cli.*``: ``sweep``, where per-row formatting and output dominate.
- ``fast_count.*``, ``closed_forms.*``, ``core_word`` call counts:
  ``point``, one library call per op.
- ``core_word.prefix_ms``, ``oracle.*``, ``kernels.*`` (module
  ``_kernels``): ``verify``, one CLI process per op.

Times are self times: a span's duration minus its child spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

from tracing import self_times
from workloads import VERIFY_CASES

HOME_WORKLOADS = ("point", "sweep", "verify")

FAST_COUNT = ("algorithm_B", "algorithm_D", "b_at", "d_at")
CLOSED_FORMS = ("distinct_squares", "distinct_cubes")
KERNEL_CASES = tuple(f"{'exhaustive' if ex else 'restricted'}_{n}"
                     for n, ex in VERIFY_CASES)

UNITS = {
    "startup.interp_ms": "ms",
    "startup.import_tribcount_ms": "ms",
    "startup.import_numpy_ms": "ms",
    "cli.self_ms_per_op": "ms",
    "cli.lines_emitted": "count",
    **{f"fast_count.{f}_us": "us" for f in FAST_COUNT},
    "fast_count.gamma_calls_per_call": "count",
    **{f"closed_forms.{f}_us": "us" for f in CLOSED_FORMS},
    "closed_forms.boundaries_calls_per_call": "count",
    "core_word.trib_number_calls_per_call": "count",
    "core_word.exact_div_calls_per_call": "count",
    "core_word.prefix_ms": "ms",
    "oracle.scan_ms": "ms",
    "oracle.self_ms": "ms",
    "oracle.records": "count",
    "kernels.find_repetitions_ms": "ms",
    "kernels.roots_scanned": "count",
    "kernels.bytes_compared_computed": "bytes",
    **{f"kernels.find_repetitions_ms.{c}": "ms" for c in KERNEL_CASES},
    "trace.overhead_ratio": "ratio",
}


def merge(dst, src, op_id=None):
    """Append one recording to a phase trace.  Spans from a CLI child all
    belong to ``op_id``; library spans (``op_id`` None) keep their own."""
    base = len(dst["spans"])
    for name, t0, t1, parent, op, tag in src["spans"]:
        dst["spans"].append((name, t0, t1, parent + base if parent >= 0 else -1,
                             op if op_id is None else op_id, tag))
    for root, counts in src["counts"].items():
        total = dst["counts"].setdefault(root, defaultdict(int))
        for key, calls in counts.items():
            total[key] += calls
    for root, calls in src["roots"].items():
        dst["roots"][root] = dst["roots"].get(root, 0) + calls


def _op_totals(trace, value):
    """Per op, the sum of ``value(span, self_time)`` (None skips a span);
    every op of the trace appears, with 0 when nothing matched."""
    spans = trace["spans"]
    totals = {s[4]: 0.0 for s in spans if s[3] < 0}
    for span, st in zip(spans, self_times(spans)):
        v = value(span, st)
        if v is not None:
            totals[span[4]] += v
    return totals


def _median(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _per_call(trace, roots, counted):
    calls = sum(trace["roots"].get(r, 0) for r in roots)
    made = sum(trace["counts"].get(r, {}).get(c, 0) for r in roots for c in counted)
    return made / calls if calls else 0.0


def _point_metrics(trace) -> dict:
    spans = trace["spans"]
    selfs = self_times(spans)
    root_self = defaultdict(list)
    root_of_op = {}
    for span, st in zip(spans, selfs):
        if span[3] < 0:
            root_self[span[0]].append(st)
            root_of_op[span[4]] = span[0]
    out = {}
    for f in FAST_COUNT:
        out[f"fast_count.{f}_us"] = _median(root_self[f"fast_count.{f}"]) * 1e6
    fc_roots = [f"fast_count.{f}" for f in FAST_COUNT]
    out["fast_count.gamma_calls_per_call"] = _per_call(
        trace, fc_roots, ("fast_count.square_gamma", "fast_count.cube_gamma"))
    for f in CLOSED_FORMS:
        out[f"closed_forms.{f}_us"] = _median(root_self[f"closed_forms.{f}"]) * 1e6
    cf_roots = {f"closed_forms.{f}" for f in CLOSED_FORMS}
    boundaries = sum(1 for s in spans
                     if s[0] in ("closed_forms.square_boundaries",
                                 "closed_forms.cube_boundaries")
                     and root_of_op.get(s[4]) in cf_roots)
    cf_calls = sum(len(root_self[r]) for r in cf_roots)
    out["closed_forms.boundaries_calls_per_call"] = (
        boundaries / cf_calls if cf_calls else 0.0)
    all_roots = list(trace["roots"])
    out["core_word.trib_number_calls_per_call"] = _per_call(
        trace, all_roots, ("core_word.trib_number",))
    out["core_word.exact_div_calls_per_call"] = _per_call(
        trace, all_roots, ("core_word.exact_div",))
    return out


def _sweep_metrics(trace) -> dict:
    ops = _op_totals(trace, lambda s, st: st if s[0].startswith("cli.") else None)
    return {"cli.self_ms_per_op": sum(ops.values()) / len(ops) * 1e3,
            "cli.lines_emitted": trace["lines"] / len(ops)}


def _verify_metrics(trace) -> dict:
    scan, find = "oracle.scan_repetitions", "_kernels.find_repetitions"

    def ms(name, self_only=False):
        return lambda s, st: ((st if self_only else s[2] - s[1]) * 1e3
                              if s[0] == name else None)

    def tag(name, key):
        return lambda s, st: s[5][key] if s[0] == name else None

    per_op = {
        "core_word.prefix_ms": ms("core_word.prefix"),
        "oracle.scan_ms": ms(scan),
        "oracle.self_ms": ms(scan, self_only=True),
        "oracle.records": tag(scan, "records"),
        "kernels.find_repetitions_ms": ms(find),
        "kernels.roots_scanned": tag(find, "roots"),
        "kernels.bytes_compared_computed": tag(find, "bytes"),
    }
    out = {name: _median(_op_totals(trace, value).values())
           for name, value in per_op.items()}
    # kernel time inside each scan, by the scan cases that
    # benchmarks/compare_backends.py times
    spans = trace["spans"]
    in_scan = defaultdict(float)
    for s in spans:
        if s[0] == find and s[3] >= 0 and spans[s[3]][0] == scan:
            in_scan[s[3]] += s[2] - s[1]
    per_case = defaultdict(list)
    for parent, seconds in in_scan.items():
        per_case[spans[parent][5]["case"]].append(seconds * 1e3)
    for case in KERNEL_CASES:
        out[f"kernels.find_repetitions_ms.{case}"] = _median(per_case[case])
    return out


def layer_metrics(traces, startup) -> dict:
    return {**startup, **_point_metrics(traces["point"]),
            **_sweep_metrics(traces["sweep"]), **_verify_metrics(traces["verify"])}


def startup_probes(root, repeats) -> dict:
    """Median wall time of a bare interpreter, and import times of tribcount
    and numpy as ``-X importtime`` reports them (cumulative, in ms)."""
    interp, tc, np_ = [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=root)
        interp.append(perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tribcount"],
            check=True, cwd=root, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        tc.append(cumulative["tribcount"])
        np_.append(cumulative.get("numpy", 0.0))  # 0 once numpy loads lazily
    return {"startup.interp_ms": median(interp) * 1e3,
            "startup.import_tribcount_ms": median(tc),
            "startup.import_numpy_ms": median(np_)}


def write_spans(path, traces):
    """One JSON line per span: workload, name, start, end, parent, op, tag."""
    with open(path, "w") as fh:
        for workload, trace in traces.items():
            for span in trace["spans"]:
                fh.write(json.dumps([workload, *span]) + "\n")
