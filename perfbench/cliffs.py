"""Measure the cliffs the workloads stop short of.

    python3 perfbench/cliffs.py [NAME ...]

Each cliff is one call that takes seconds to minutes at this commit, so it
is left out of the workloads; a change that removes a cliff adds the
matching workload to the benchmark.  Prints one JSON line per cliff with
the wall time, the reference kernel time measured around it and the
calibrated time.  With no NAME every cliff runs (about ten minutes).
"""

from __future__ import annotations

import argparse
import json
import random
import time

import calib
from run import import_funspace
from workloads import WORKLOADS, random_antichain

STATE_SAMPLES = 20000


def walk7(fs):
    path = fs.random_path(7, 1)
    ctx = fs.RegulatorContext.all_positive(7)
    for shape in path:
        fs.shape_transition_counts(shape, ctx)
        fs.true_count(shape)
    return {"path_len": len(path), "clauses_max": max(s.n_clauses for s in path)}


def children_majority_8_4(fs):
    return {"children": len(fs.children(fs.majority_rule(8, 4)))}


def siblings_majority_8_4(fs):
    return {"siblings": len(fs.siblings(fs.majority_rule(8, 4)))}


def children_majority_10_5(fs):
    return {"children": len(fs.children(fs.majority_rule(10, 5)))}


def neighbors_p7_wide(fs):
    """The slowest of 20 p = 7 shapes with 19-22 clauses, beyond the
    workload's cap of 18, with ``via`` parents."""
    pool = [m for m in range(1, 1 << 7) if m.bit_count() in (3, 4)]
    rng = random.Random("cliff-p7")
    worst = 0.0
    for _ in range(20):
        clauses = ()
        while not 19 <= len(clauses) <= 22:
            clauses = random_antichain(rng, pool, rng.randint(2, 35), 7)
        t0 = time.perf_counter()
        WORKLOADS["neighbors"].run(fs, None, (7, clauses, "parents"), None)
        worst = max(worst, time.perf_counter() - t0)
    return {"shapes": 20, "slowest_op_s": worst}


def stable_states_th_model(fs):
    """``step_sync`` on sampled states, extrapolated to all 2^23."""
    bn = fs.th_model()
    rng = random.Random(1)
    for _ in range(STATE_SAMPLES):
        bn.step_sync(rng.randrange(1 << bn.n))
    return {"extrapolate": (1 << bn.n) / STATE_SAMPLES}


def build_hasse_5(fs):
    d = fs.build_hasse(5)
    return {"nodes": len(d.shapes), "edges": len(d.edges)}


def verify_rules_5(fs):
    return {"discrepancies": len(fs.verify_rules(5))}


CLIFFS = {f.__name__: f for f in (
    walk7, children_majority_8_4, siblings_majority_8_4, children_majority_10_5,
    neighbors_p7_wide, stable_states_th_model, build_hasse_5, verify_rules_5,
)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=", ".join(CLIFFS))
    args = parser.parse_args()
    unknown = set(args.names) - set(CLIFFS)
    if unknown:
        parser.error(f"unknown cliffs {sorted(unknown)}")
    fs = import_funspace()
    for name in args.names or CLIFFS:
        bracket = calib.Bracket()
        t0 = time.perf_counter()
        info = CLIFFS[name](fs)
        wall = time.perf_counter() - t0
        kernel = bracket.next()
        scale = info.pop("extrapolate", 1)
        print(json.dumps({"cliff": name, "wall_s": scale * wall, "kernel_ms": 1000 * kernel,
                          "calibrated_s": scale * calib.calibrate(wall, kernel),
                          "extrapolated": scale != 1} | info), flush=True)


if __name__ == "__main__":
    main()
