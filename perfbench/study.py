"""Repeated-run study: the spread the end-to-end bounds rest on.

    python3 perfbench/study.py

Runs ``run.py`` for every workload of BENCHMARK.json with seeds 1-10 and
its ``run_seconds``, one run at a time, and reports for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, for calibrated values next to raw
wall-clock ones.  Writes the table to STUDY.md and every value to
STUDY.json, beside this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    study = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            meta, result = one_run(workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} ops failed")
            runs.append({"seed": seed, "calib_ms": meta["calib_ms"],
                         "run_wall_s": meta["run_wall_s"], "samples": meta["samples"],
                         "rounds": meta["rounds"],
                         "calibrated": {k: v["value"] for k, v in result["metrics"].items()},
                         "raw": meta["raw"]})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        study["workloads"][workload] = runs
        for metric, bound in bounds.items():
            cal = summary([r["calibrated"][metric] for r in runs])
            raw = summary([r["raw"][metric] for r in runs]) if metric in runs[0]["raw"] else None
            rows.append((workload, metric, bound, cal, raw))

    lines = [
        f"{len(SEEDS)} runs per workload, seeds {SEEDS[0]}-{SEEDS[-1]}, "
        f"{seconds:g} s runs, one at a time; Python {study['python']}, "
        f"nproc {study['nproc']}.  Spread is (q3 - q1) / median; raw values are "
        "wall-clock, uncalibrated.  Every value is in STUDY.json.",
        "",
        f"| workload | metric | bound | calibrated median [q1, q3] | spread | "
        f"raw median [q1, q3] | raw spread |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, metric, bound, cal, raw in rows:
        raw_cells = (f"{raw['median']:.4g} [{raw['q1']:.4g}, {raw['q3']:.4g}] | "
                     f"{100 * raw['spread']:.1f}%") if raw else "- | -"
        lines.append(f"| {workload} | {metric} | {bound} | {cal['median']:.4g} "
                     f"[{cal['q1']:.4g}, {cal['q3']:.4g}] | {100 * cal['spread']:.1f}% | "
                     f"{raw_cells} |")
    table = "\n".join(lines)
    print(table)
    (HERE / "STUDY.md").write_text(table + "\n", encoding="utf-8")
    (HERE / "STUDY.json").write_text(json.dumps(study, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
