#!/usr/bin/env python3
"""Run one benchmark workload of the twinloop simulator and print its metrics.

    python3 perfbench/run.py --workload train_reverb --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file sits in; the
run stops with exit code 2 and prints no result when it is not there. One
process runs one workload, serially, with one BLAS thread and without
``TWINLOOP_WORKERS``.

``--trace 0`` measures the end-to-end metrics; the only instrumentation is a
clock read around each operation and the host-speed gauge between
operations (``gauge.py``), which scales every timing to the reference host.
``--trace 1`` runs each repetition's
inputs twice, uninstrumented and traced, reports the per-layer metrics of
the traced runs and checks that tracing left the outputs unchanged. Metric
names and units must match ``BENCHMARK.json``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_PARENT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_reverb", "eval_modes", "channel_validate")
WARMUP_REPS = 1                 # every workload's min_reps is larger


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Put the checkout's ``src`` first on the path; False if it has no package."""
    if not (SRC / "twinloop" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import twinloop
    return Path(twinloop.__file__).resolve().is_relative_to(SRC)


def measure(workload, probe, seconds):
    """Untraced repetitions, each after its own timed set-ups, until the next
    one would overrun ``seconds``. A set-up is scaled by the scalar gauge
    samples taken just before and after it."""
    from gauge import Gauge
    from spans import patched

    reps, setup_s = [], []
    setup_gauge = Gauge("scalar")
    clock = time.perf_counter
    start = clock()
    with patched(probe.replacements(workload.loop_workload)):
        while True:
            for _ in range(workload.setups_per_rep):
                first = len(setup_gauge.samples_ns)
                setup_gauge.sample()
                setup_gauge.sample()
                t0 = clock()
                workload.setup()
                elapsed = clock() - t0
                setup_gauge.sample()
                setup_gauge.sample()
                setup_s.append(elapsed * setup_gauge.scale(first, first + 4))
            t0 = clock()
            raw = workload.run(len(reps))
            wall = clock() - t0
            reps.append(workload.collect(raw))
            if len(reps) >= workload.min_reps and clock() - start + wall > seconds:
                break
    return reps, setup_s, clock() - start


def measure_traced(workload, tracer, counter, seconds):
    """Pairs of one plain and one traced repetition of the same inputs; the
    order alternates so that warm-up does not bias the overhead."""
    import workloads as wl
    from spans import patched

    reps, pairs = [], []
    traced_run = tracer.wrap(wl.ROOT_SPAN, workload.run)
    replacements = wl.span_replacements(tracer, counter)
    clock = time.perf_counter
    start = clock()
    workload.setup()
    while True:
        index = len(pairs)
        walls, outputs = {}, {}
        for traced in (index % 2 == 1, index % 2 == 0):
            with patched(replacements if traced else []):
                t0 = clock()
                raw = (traced_run if traced else workload.run)(index)
                walls[traced] = clock() - t0
            outputs[traced] = workload.collect(raw)
        if outputs[False].fingerprint != outputs[True].fingerprint:
            outputs[True].errors.append(
                f"repetition {index} gave different outputs when traced")
        reps.append(outputs[True])
        pairs.append((walls[False], walls[True]))
        if (len(pairs) >= workload.min_reps
                and clock() - start + sum(pairs[-1]) > seconds):
            break
    return reps, pairs, clock() - start


def weighted_percentile(samples, weights, quantile):
    import numpy as np

    order = np.argsort(samples, kind="stable")
    values = np.asarray(samples, dtype=float)[order]
    cumulative = np.cumsum(np.asarray(weights)[order])
    return float(values[np.searchsorted(cumulative, quantile * cumulative[-1])])


def end_to_end_metrics(reps, setup_s):
    """Throughput and latency on the reference host, every kind of chunk
    weighted equally; set-up as the median over set-ups. Also the raw
    host-time throughput and the latency sample count, for the info line.
    The first WARMUP_REPS repetitions fill caches and are not timed; their
    outputs are checked.

    Latency is reported as mean and p99, not median: a training QI's latency
    is bimodal (the scheduler's iterations vary from QI to QI), and the
    median sits in the trough between the modes, where it jumps when either
    mode's share moves by a few percent.
    """
    import numpy as np

    # Read before the arrays below are built: peak RSS is the run's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = reps[WARMUP_REPS:] or reps
    by_kind = {}
    for rep in timed:
        for chunk in rep.chunks:
            if chunk.work:
                by_kind.setdefault(chunk.kind, []).append(chunk)
    ns_per_unit, raw_ns_per_unit, mean_ns, samples, weights = [], [], [], [], []
    for chunks in by_kind.values():
        work = sum(c.work for c in chunks)
        ns_per_unit.append(sum(c.scaled_ns for c in chunks) / work)
        raw_ns_per_unit.append(sum(c.wall_ns for c in chunks) / work)
        latencies = np.concatenate([np.asarray(c.latencies_ns) for c in chunks])
        mean_ns.append(latencies.mean())
        samples.append(latencies)
        weights.append(np.full(len(latencies), 1.0 / len(latencies)))
    if by_kind:
        throughput = 1e9 * len(by_kind) / sum(ns_per_unit)
        raw_throughput = 1e9 * len(by_kind) / sum(raw_ns_per_unit)
        mean_us = statistics.fmean(mean_ns) / 1e3
        p99_us = weighted_percentile(np.concatenate(samples),
                                     np.concatenate(weights), 0.99) / 1e3
    else:                         # every operation failed: nothing to time
        throughput = raw_throughput = mean_us = p99_us = 0.0
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "op_latency_mean_us": (mean_us, "us"),
        "op_latency_p99_us": (p99_us, "us"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, sum(map(len, samples)), raw_throughput


def per_layer_metrics(reps, pairs, tracer, counter):
    import workloads as wl

    summary, root_ns = tracer.summary()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    metrics = {}
    for name in [name for name, _, _ in wl.SPAN_TARGETS] + [wl.ROOT_SPAN]:
        s = summary.get(name, empty)
        metrics[f"{name}.calls"] = (s["calls"] / len(reps), "count")  # per rep
        metrics[f"{name}.self_us_per_call"] = (
            s["self_ns"] / s["calls"] / 1e3 if s["calls"] else 0.0, "us")
        metrics[f"{name}.share_pct"] = (100.0 * s["self_ns"] / root_ns, "%")

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def calls(name):
        return summary.get(name, empty)["calls"]

    mc = summary.get("channel.outage_probability_mc", empty)
    self_ns = sum(s["self_ns"] for s in summary.values())
    overhead = statistics.median(traced / plain for plain, traced in pairs)
    metrics.update({
        "scheduler.iterations_per_qi": (per(counter.iterations, counter.calls), "count/qi"),
        "scheduler.selected_per_qi": (per(counter.selected, counter.calls), "count/qi"),
        "scheduler.caps_met_ratio": (per(counter.caps_met, counter.calls), "ratio"),
        "estimator.posterior_cov.calls_per_qi": (
            per(calls("estimator.posterior_cov"), calls("loop.step")), "count/qi"),
        "sensing.observe.calls_per_qi": (
            per(calls("sensing.observe"), calls("loop.step")), "count/qi"),
        "harness.export_traces.bytes": (
            per(sum(r.export_bytes for r in reps), calls("harness.export_traces")),
            "bytes"),
        "channel.ns_per_draw": (
            per(mc["total_ns"], mc["calls"] * wl.CHANNEL_TRIALS), "ns"),
        "trace_overhead_pct": (100.0 * (overhead - 1.0), "%"),
        "trace.accounted_pct": (
            100.0 * self_ns / 1e9 / sum(traced for _, traced in pairs), "%"),
    })
    return metrics


def outcome(workload, reps):
    """(correct, attempted, failed, problems) of a run's repetitions."""
    problems = [e for rep in reps for e in rep.errors] + workload.check(reps)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return failed == 0 and not problems, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TWINLOOP_WORKERS", None)
    if not import_package():
        print(f"perfbench: no twinloop package under {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    import workloads as wl
    from gauge import Gauge
    from spans import Tracer

    spec = json.loads(SPEC_PATH.read_text())
    counter = wl.ScheduleCounter()
    gauge = Gauge(wl.WORKLOADS[args.workload].gauge_kind)
    probe = wl.QiProbe(counter, gauge)
    OUT_PARENT.mkdir(exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT_PARENT)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, probe, out_root)
        if args.trace:
            tracer = Tracer()
            reps, pairs, measured_s = measure_traced(workload, tracer, counter,
                                                     args.seconds)
            metrics = per_layer_metrics(reps, pairs, tracer, counter)
            latency_samples, raw_throughput = 0, None
            expected = spec["per_layer"]
        else:
            reps, setup_s, measured_s = measure(workload, probe, args.seconds)
            metrics, latency_samples, raw_throughput = end_to_end_metrics(
                reps, setup_s)
            expected = spec["end_to_end"]
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):      # left in place if not empty
            OUT_PARENT.rmdir()

    produced = {name: unit for name, (_, unit) in metrics.items()}
    expected = {m["name"]: m["unit"] for m in expected}
    if produced != expected:
        print(f"perfbench: metrics do not match {SPEC_PATH.name}: "
              f"{sorted(set(produced.items()) ^ set(expected.items()))}",
              file=sys.stderr)
        return 3

    correct, attempted, failed, problems = outcome(workload, reps)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__,
        "repetitions": len(reps), "measured_s": measured_s,
        "qis": sum(r.qis for r in reps),
        "episodes": sum(r.episodes for r in reps),
        "fading_draws": sum(r.draws for r in reps),
        "scheduler_iterations": counter.iterations,
        "latency_samples": latency_samples,
        "gauge_samples": len(gauge.samples_ns),
        "host_speed": (gauge.nominal_ns * len(gauge.samples_ns)
                       / sum(gauge.samples_ns) if gauge.samples_ns else None),
        "raw_throughput_per_s": raw_throughput,
        "first_inputs_digest": hashlib.sha256(reps[0].fingerprint).hexdigest(),
        "problems": problems[:10],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
