"""Calibrated benchmark of funspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures one workload
closed-loop for S seconds and reports the end-to-end metrics; ``--trace 1``
runs a fixed, seed-determined op list of every workload twice per op
(untraced, and with spans around each funspace call, in alternating order)
and reports the per-layer metrics, with the trace overhead measured on NAME.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata and raw (uncalibrated) values.  A full record, spans
included, is written to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
#: A run ends at the first round boundary after this many times
#: ``--seconds`` of wall time even when its calibrated op time is still
#: short, so that a slow machine cannot stretch it far beyond ``--seconds``.
WALL_LIMIT = 1.8


def import_funspace():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("funspace")


def timed_setup(wl, tracer=None):
    """Import funspace and run the workload's preparation.

    Returns ``(fs, prepared, wall_s, kernel_s)``, with the kernel run
    right before and right after.
    """
    bracket = calib.Bracket()
    t0 = time.perf_counter()
    fs = import_funspace()
    prepared = wl.prepare(fs, tracer)
    wall = time.perf_counter() - t0
    return fs, prepared, wall, bracket.next()


def setup_samples(name):
    """Calibrated set-up seconds from fresh interpreters, one per probe."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), "--workload", name],
            capture_output=True, text=True, timeout=60, check=True,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((rec["wall_s"], rec["kernel_s"]))
    return samples


def tail_percentile(wl, seconds):
    """Highest percentile leaving at least 10 samples beyond it, at the run
    length, assuming a machine 25% slower than the nominal rate."""
    expected = 0.75 * wl.nominal_ops_per_s * seconds
    return max(50, min(99, math.floor(100 * (1 - 10 / expected))))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Spans ``(name, start, end, parent, op)`` kept in memory.

    Span ids are list positions; an op's call spans name the op span as
    their parent.
    """

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.parent = None

    def begin_op(self, name):
        self.parent = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, None, self.op_id])

    def end_op(self):
        self.spans[self.parent][2] = time.perf_counter()
        self.parent = None

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, t0, time.perf_counter(), self.parent, self.op_id])


def execute(wl, fs, prepared, op, bracket, tracer=None):
    """One timed op, the reference kernel from ``bracket``, the untimed check.

    Returns ``(wall_s, kernel_s, result, problems)``; an op that raises
    counts as failed, with the traceback on stderr.
    """
    if tracer is not None:
        tracer.begin_op(f"op.{wl.name}")
    t0 = time.perf_counter()
    try:
        result = wl.run(fs, prepared, op, tracer)
    except Exception:
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    kernel = bracket.next()
    if result is None:
        return wall, kernel, None, ["op raised"]
    return wall, kernel, result, wl.check(prepared, op, result)


def measure(wl, seed, seconds):
    """End-to-end run: closed loop over the op list until the calibrated op
    time reaches ``seconds``, so every run does about the same work.

    A run ends only on a round boundary, so it covers whole rounds and the
    same mix of op kinds however fast the program is.
    """
    ops = wl.generate(seed)
    fs, prepared, setup_wall, setup_kernel = timed_setup(wl)
    probes = setup_samples(wl.name)
    walls, kernels, cal, failed, problems = [], [], [], 0, []
    t_end = time.perf_counter() + WALL_LIMIT * seconds
    i = 0
    total = 0.0
    bracket = calib.Bracket()
    while i % wl.round_len or (total < seconds and time.perf_counter() < t_end):
        wall, kernel, result, found = execute(wl, fs, prepared, ops[i % len(ops)], bracket)
        # Not alive during the next op, whose peak memory it would add to.
        del result
        walls.append(wall)
        kernels.append(kernel)
        cal.append(calib.calibrate(wall, kernel))
        total += cal[-1]
        if found:
            failed += 1
            problems.append({"op": i, "problems": found[:5]})
        i += 1
    q = tail_percentile(wl, seconds)
    setup_cal = [calib.calibrate(w, k) for w, k in probes]
    metrics = {
        "setup_s": statistics.median(setup_cal),
        "ops_per_s": (i - failed) / sum(cal),
        "op_ms.p50": 1000 * statistics.median(cal),
        "op_ms.tail": 1000 * percentile(cal, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(w for w, _ in probes),
        "ops_per_s": (i - failed) / sum(walls),
        "op_ms.p50": 1000 * statistics.median(walls),
        "op_ms.tail": 1000 * percentile(walls, q),
    }
    meta = {
        "tail_percentile": q,
        "samples": i,
        "rounds": i // wl.round_len,
        "samples_beyond_tail": sum(c > metrics["op_ms.tail"] / 1000 for c in cal),
        "calib_ms": 1000 * statistics.median(kernels),
        "raw": raw,
        "setup_main_s": {"wall": setup_wall,
                         "calibrated": calib.calibrate(setup_wall, setup_kernel)},
        "setup_probes_s": setup_cal,
        "problems": problems[:20],
        "op_times": [walls, kernels],
    }
    return i, failed, metrics, meta


def trace_ops(wl, seconds):
    """Ops per workload in a traced run: each is run twice, and the four
    workloads share the run length at their nominal rates."""
    return max(3, round(wl.nominal_ops_per_s * seconds / (2 * len(WORKLOADS))))


def trace_workload(wl, seed, seconds, fs):
    """Per-layer metrics of one workload over its fixed traced op list.

    Returns ``(attempted, failed, metrics, overhead, spans)``.
    """
    tracer = Tracer()
    ops = wl.generate(seed)[:trace_ops(wl, seconds)]
    tracer.op_id = -1
    tracer.begin_op(f"setup.{wl.name}")
    _, prepared, _, kernel = timed_setup(wl, tracer)
    tracer.end_op()
    factors = {-1: calib.NOMINAL_KERNEL_S / kernel}
    acc, failed, untraced, traced = {}, 0, 0.0, 0.0
    bracket = calib.Bracket()
    for i, op in enumerate(ops):
        tracer.op_id = i
        # Alternate which run goes first, so that warm caches favour neither.
        for run_tracer in (None, tracer) if i % 2 == 0 else (tracer, None):
            wall, kernel, result, found = execute(wl, fs, prepared, op, bracket, run_tracer)
            failed += bool(found)
            if run_tracer is None:
                untraced += calib.calibrate(wall, kernel)
                continue
            traced += calib.calibrate(wall, kernel)
            factors[i] = calib.NOMINAL_KERNEL_S / kernel
            if result is not None:
                wl.count(fs, prepared, op, result, acc)
    span_ms = {}
    for name, start, end, parent, op_id in tracer.spans:
        if parent is None:
            continue
        total, calls = span_ms.get(name, (0.0, 0))
        span_ms[name] = (total + 1000 * (end - start) * factors[op_id], calls + 1)
    spans = [s + [factors[s[4]]] for s in tracer.spans]
    overhead = 100 * (traced - untraced) / untraced
    return 2 * len(ops), failed, wl.layer_metrics(span_ms, acc), overhead, spans


def trace(name, seed, seconds):
    """Traced run of every workload; overhead reported for ``name``."""
    fs = import_funspace()
    attempted = failed = 0
    metrics, meta = {}, {"overhead_pct": {}, "trace_ops": {}}
    spans = []
    for wl in WORKLOADS.values():
        a, f, m, overhead, s = trace_workload(wl, seed, seconds, fs)
        attempted += a
        failed += f
        metrics.update(m)
        meta["overhead_pct"][wl.name] = overhead
        meta["trace_ops"][wl.name] = a // 2
        spans += [[wl.name] + span for span in s]
    metrics["trace.overhead_pct"] = meta["overhead_pct"][name]
    meta["spans"] = spans
    return attempted, failed, metrics, meta


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_metadata(args):
    sloc = sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "funspace").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nominal_kernel_ms": 1000 * calib.NOMINAL_KERNEL_S,
        "src_funspace_lines": sloc,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "funspace" / "__init__.py").is_file():
        print(f"perfbench: no funspace sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    if args.trace:
        attempted, failed, values, extra = trace(args.workload, args.seed, args.seconds)
    else:
        attempted, failed, values, extra = measure(WORKLOADS[args.workload], args.seed,
                                                   args.seconds)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    bulky = {k: extra.pop(k) for k in ("spans", "op_times") if k in extra}
    meta = run_metadata(args) | extra | {"run_wall_s": time.perf_counter() - started}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": values} | bulky
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
