"""Seeded benchmark of the treefield library.

    python3 perfbench/run.py --workload {npoint,staircase,transformed,all}
                             --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  One process, one client, closed loop: the
next op starts when the previous one returns.  The pool of inputs is built
from the seed before timing; the loop makes whole passes over it until
`--seconds` have elapsed (and, outside quick mode, at least 100 ops ran, so
that ten or more latency samples lie beyond p90).  Op times are reported at
a reference host speed (see hostspeed.py); the raw ones go into the record.
An untimed census of requests known to overflow runs once per run (see
workloads.npoint_pool).  Every output is then checked against an
independent reference (see workloads.py).

`--trace 0` reports the end-to-end metrics; `--trace 1` repeats the same ops
with layer spans recorded (see tracer.py) and reports per-layer metrics.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report and a JSON
record of the seed, input statistics and environment.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported (here or in children).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("npoint", "staircase", "transformed")
MIN_SAMPLES = 100
WARMUP_OPS = 20
SETUP_PROBES = 7      # fresh processes timed per run for setup_s
CHUNK_S = 1.0        # op time between two host-speed readings
SMOOTH = 4           # readings on each side in a stretch's scale factor
SETUP_REPEATS = 3     # in-process set-ups traced per run

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SHARE_MODULES = ("dyadic", "correlator", "treestate", "fusion", "thompson")
SETUP_SPANS = ("spectral.eigendecompose", "models.preset")


def per_layer_units() -> Dict[str, str]:
    from tracer import SPAN_NAMES
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        per = "setup" if name in SETUP_SPANS else "op"
        units[f"{name}.self_ms"] = f"ms/{per}"
        units[f"{name}.calls"] = f"calls/{per}"
    units["dyadic.leaves_per_insertion"] = "ratio"
    units["fusion.carets_per_insertion"] = "ratio"
    units["thompson.compose_per_generator"] = "ratio"
    for mod in SHARE_MODULES:
        units[f"{mod}.self_share"] = "%"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Failure:
    """An op that raised; kept in place of its output."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.text!r})"


@dataclass
class Timed:
    outs: list           # one output (or Failure) per op
    lat_ns: List[int]    # raw latency per op
    scaled_ns: List[float]  # latency per op at the reference host speed
    busy_s: float        # raw op time
    scaled_s: float      # op time at the reference host speed
    factors: List[float]  # host-speed readings (hostspeed.py), one per stretch


def timed_loop(op, items: list, seconds: float, min_ops: int,
               n_ops: Optional[int] = None, on_op=None) -> Timed:
    """Whole passes over `items` until `seconds` and `min_ops` are reached
    (or exactly `n_ops` ops).  The host speed is read after every CHUNK_S of
    op time; each stretch's latencies are scaled by the median of the
    readings within SMOOTH stretches of it, which follows the host's drifts
    but not the jitter of a single reading."""
    outs: list = []
    lat: List[int] = []
    stretches: List[Tuple[int, int]] = []   # (first op, op time in ns)
    factors: List[float] = []
    clock = time.perf_counter_ns
    chunk_start, chunk_ns = 0, 0
    t_start = clock()
    while True:
        for item in items:
            if n_ops is not None and len(outs) == n_ops:
                break
            if on_op is not None:
                on_op(len(outs))
            t0 = clock()
            try:
                out = op(item)
            except Exception as exc:  # an op failure is data, not a crash
                out = Failure(exc)
            dt = clock() - t0
            lat.append(dt)
            outs.append(out)
            chunk_ns += dt
            if chunk_ns >= CHUNK_S * 1e9:
                stretches.append((chunk_start, chunk_ns))
                factors.append(hostspeed.speed_factor())
                chunk_start, chunk_ns = len(lat), 0
        done = len(outs) == n_ops if n_ops is not None else (
            clock() - t_start >= seconds * 1e9 and len(outs) >= min_ops)
        if done:
            break
    if chunk_ns:
        stretches.append((chunk_start, chunk_ns))
        factors.append(hostspeed.speed_factor())
    scaled: List[float] = []
    scaled_ns = 0.0
    for i, (first, ns) in enumerate(stretches):
        f = statistics.median(factors[max(0, i - SMOOTH):i + SMOOTH + 1])
        end = stretches[i + 1][0] if i + 1 < len(stretches) else len(lat)
        scaled.extend(x * f for x in lat[first:end])
        scaled_ns += ns * f
    return Timed(outs, lat, scaled, sum(lat) / 1e9, scaled_ns / 1e9, factors)


def run_once(op, items: list) -> list:
    """Each item once, untimed (the overflow census)."""
    outs = []
    for item in items:
        try:
            outs.append(op(item))
        except Exception as exc:
            outs.append(Failure(exc))
    return outs


def _failure_kind(out) -> str:
    if isinstance(out, Failure):
        return out.text
    vals = [out] if isinstance(out, complex) else [complex(r[1], r[2]) for r in out]
    finite = all(cmath.isfinite(v) for v in vals)
    return "mismatch" if finite else "non-finite"


def measure_setup(probes: int) -> Tuple[List[float], List[float]]:
    """Set-up times of `probes` fresh processes, and host-speed readings
    taken before each."""
    raw, factors = [], []
    for _ in range(probes):
        factors.append(hostspeed.speed_factor())
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
    return raw, factors


def environment() -> dict:
    import numpy as np
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": 1,
        "clients": 1,
        "loop": "closed",
    }


def trace_layers(op, items: list, untraced: Timed):
    """Repeat the first `n_ops` ops with spans recorded, then three library
    set-ups.  Returns (per-layer metrics, traced outputs, span count)."""
    from setup_probe import library_setup
    from tracer import SPAN_NAMES, Tracer, layer_metrics

    tracer = Tracer()

    def mark(k: int):
        tracer.current_op = k

    n_ops = len(untraced.outs)
    with tracer.installed():
        traced = timed_loop(op, items, 0, 0, n_ops=n_ops, on_op=mark)
        tracer.current_op = -1
    setup_tracer = Tracer()
    with setup_tracer.installed():
        for _ in range(SETUP_REPEATS):
            library_setup()

    totals = tracer.totals()
    layer = layer_metrics(totals, n_ops, tuple(n for n in SPAN_NAMES if n not in SETUP_SPANS))
    layer.update(layer_metrics(setup_tracer.totals(), SETUP_REPEATS, SETUP_SPANS))
    c = tracer.counters
    ins, gens = c.get("insertions", 0), c.get("generators", 0)
    layer["dyadic.leaves_per_insertion"] = c.get("leaves", 0) / ins if ins else 0.0
    layer["fusion.carets_per_insertion"] = totals["fusion.fuse_batch"][0] / ins if ins else 0.0
    layer["thompson.compose_per_generator"] = (
        totals["thompson.compose"][0] / gens if gens else 0.0)
    for mod in SHARE_MODULES:
        ns = sum(s for name, (_, s) in totals.items() if name.startswith(mod + "."))
        layer[f"{mod}.self_share"] = 100.0 * ns / (traced.busy_s * 1e9)
    # untraced / traced ops_per_s, both at the reference host speed
    layer["trace.overhead_ratio"] = traced.scaled_s / untraced.scaled_s
    return layer, traced.outs, tracer.span_count()


def gate(workload: str, ctx, items: list, outs: list, census: list,
         census_outs: list) -> dict:
    """Check every distinct input once against its reference; every repeat
    must reproduce the first output exactly.  Runs outside the timed loop."""
    import workloads as wl

    P = len(items)
    verdicts = [wl.CHECKS[workload](ctx, items[k], outs[k]) for k in range(P)]
    census_verdicts = [wl.CHECKS[workload](ctx, c, o) for c, o in zip(census, census_outs)]
    repeat_mismatch = {k for k in range(P, len(outs)) if repr(outs[k]) != repr(outs[k % P])}
    refs = sum(v.references for v in verdicts)
    census_failed = sum(1 for v in census_verdicts if not v.ok)
    failed_outs = [o for o, v in zip(outs, verdicts) if not v.ok] + [
        o for o, v in zip(census_outs, census_verdicts) if not v.ok]
    return {
        "failed": census_failed + sum(1 for k in range(len(outs))
                                      if not verdicts[k % P].ok or k in repeat_mismatch),
        "census_failed": census_failed,
        # tolerated only where magnitudes leave double range (known overflow)
        "failures_in_double_range": sum(1 for v in verdicts + census_verdicts
                                        if not v.ok and v.in_range),
        "failure_kinds": dict(Counter(_failure_kind(o) for o in failed_outs)),
        "repeat_mismatches": len(repeat_mismatch),
        "zero_reference_share": sum(v.zero_references for v in verdicts) / refs,
        "at_rounding_floor_share": sum(v.floor_references for v in verdicts) / refs,
        "reference_kinds": dict(Counter(v.reference for v in verdicts)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    import workloads as wl

    phase = {}
    t_phase = time.perf_counter()

    def lap(name: str):
        nonlocal t_phase
        now = time.perf_counter()
        phase[name] = now - t_phase
        t_phase = now

    ctx = wl.make_context()
    pool = wl.POOLS[workload](seed, quick)
    items = pool.items
    lap("inputs")

    def op(item):
        return wl.run_op(workload, ctx, item)

    timed_loop(op, items, 0, 0, n_ops=min(len(items), WARMUP_OPS))  # untimed
    lap("warmup")
    run = timed_loop(op, items, seconds, 1 if quick else MIN_SAMPLES)
    lap("timed_loop")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    census_outs = run_once(op, pool.census)
    attempted = len(run.outs) + len(census_outs)
    lap("census")
    if trace:
        layer, traced_outs, spans = trace_layers(op, items, run)
        lap("traced_loop")
    checked = gate(workload, ctx, items, run.outs, pool.census, census_outs)
    lap("gate")

    lat = run.scaled_ns
    p90_ns = statistics.quantiles(lat, n=10)[8]
    raw_p90_ns = statistics.quantiles(run.lat_ns, n=10)[8]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "inputs": {**pool.summary, **{k: checked.pop(k) for k in (
            "zero_reference_share", "at_rounding_floor_share", "reference_kinds")}},
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90_ns),
        "passes": len(lat) / len(items),
        "census_ops": len(census_outs),
        "op_time_s": run.busy_s,
        "host_speed_factor": {"median": statistics.median(run.factors),
                              "min": min(run.factors), "max": max(run.factors),
                              "readings": len(run.factors)},
        "raw": {"ops_per_s": len(lat) / run.busy_s,
                "latency_p50_ms": statistics.median(run.lat_ns) / 1e6,
                "latency_p90_ms": raw_p90_ns / 1e6},
        "failed_ratio": checked["failed"] / attempted,
        "phase_s": phase,
        **checked,
        "environment": environment(),
    }
    correct = record["failures_in_double_range"] == 0 and record["repeat_mismatches"] == 0
    if trace:
        record["traced_outputs_equal_untraced"] = (
            [repr(o) for o in traced_outs] == [repr(o) for o in run.outs])
        record["spans"] = spans
        record["wait_and_queue"] = "none: the library is synchronous and single-threaded"
        correct = correct and record["traced_outputs_equal_untraced"]
        metrics, units = layer, per_layer_units()
    else:
        raw_setup, setup_factors = measure_setup(2 if quick else SETUP_PROBES)
        record["raw"]["setup_probes_s"] = raw_setup
        record["setup_host_speed_factors"] = setup_factors
        # a single reading next to a fresh process jitters; the run's
        # readings together give the host speed of the run
        setup_s = statistics.median(raw_setup) * statistics.median(
            run.factors + setup_factors)
        lap("setup_probes")
        metrics = {
            "ops_per_s": len(lat) / run.scaled_s,
            "latency_p50_ms": statistics.median(lat) / 1e6,
            "latency_p90_ms": p90_ns / 1e6,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return {
        "record": record,
        "result": {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": record["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report(out: dict) -> None:
    rec, res = out["record"], out["result"]
    print(f"# workload {rec['workload']}  seed {rec['seed']}  "
          f"samples {rec['samples']} ({rec['samples_beyond_p90']} beyond p90)  "
          f"correct {res['correct']}  failed {res['failed']}/{res['attempted']}")
    print(f"  {'failed_ratio':<44} {rec['failed_ratio']:.6g} ratio")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": rec}, sort_keys=True, default=str))


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small pools and no minimum sample count (self-test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "treefield" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'treefield'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.quick)
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
