"""Command-line interface.

Exit codes: 0 success, 1 property violation found by `verify`,
2 model/expression parse error, 3 validation or size-limit error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import sys

from . import __version__
from .dynamics import (
    DEFAULT_STATE_LIMIT,
    attractors,
    path_trace,
    stg_async,
    stg_sync,
    transition_bounds,
)
from .errors import ArityTooLarge, FunspaceError, InvalidArgument, ModelError
from .modelio import (
    load_model,
    parse_expression,
    render_expression,
    slice_to_dot,
    stg_dot_lines,
)
from .neighborhood import (
    build_hasse,
    count_consistent,
    enumerate_all,
    hasse_slice,
    random_path,
    verify_rules,
)
from .pbn import (
    EXPERIMENTS,
    classify_phenotype,
    randomized_network,
    simulate,
    th_initial_state,
    th_model,
)
from .shapes import (
    MAX_ARITY,
    RegulatorContext,
    _state_text,
    level,
    state_from_string,
    state_to_string,
    true_count,
)


def _print_steps(title: str, steps, ctx, names) -> None:
    print(f"{title} ({len(steps)}):")
    for st in steps:
        expr = render_expression(st.shape, ctx, names)
        print(f"  [{st.rule} d{st.delta}] {st.shape}  =  {expr}")


def cmd_neighbors(args) -> int:
    sources = [s for s in (args.expression, args.expression_opt) if s is not None]
    if len(sources) != 1:
        print("error: give exactly one expression (positionally or via -e)", file=sys.stderr)
        return 2
    pf = parse_expression(sources[0], normalize=args.normalize)
    sl = hasse_slice(pf.shape, sibling_via=args.siblings_via)
    if args.format == "dot":
        print(slice_to_dot(sl), end="")
        return 0
    if args.format == "json":
        def enc(shape):
            return {
                "clauses": [list(s) for s in shape.index_sets()],
                "expression": render_expression(shape, pf.ctx, pf.names),
            }
        out = {
            "center": enc(pf.shape),
            "regulators": list(pf.names),
            "signs": str(pf.ctx),
            "level": list(level(pf.shape)),
            "parents": [enc(st.shape) | {"rule": st.rule, "delta": st.delta}
                        for st in sl.parents],
            "children": [enc(st.shape) | {"rule": st.rule, "delta": st.delta}
                         for st in sl.children],
            "siblings": [enc(s) for s in sl.siblings],
        }
        print(json.dumps(out, indent=2))
        return 0
    print(f"center: {pf.shape}  =  {render_expression(pf.shape, pf.ctx, pf.names)}")
    print(f"regulators: {', '.join(pf.names)}  signs: {pf.ctx}")
    print(f"level: {level(pf.shape)}  |T| = {true_count(pf.shape)}")
    _print_steps("parents", sl.parents, pf.ctx, pf.names)
    _print_steps("children", sl.children, pf.ctx, pf.names)
    print(f"siblings via {args.siblings_via} ({len(sl.siblings)}):")
    for s in sl.siblings:
        print(f"  {s}  =  {render_expression(s, pf.ctx, pf.names)}")
    return 0


def cmd_enumerate(args) -> int:
    p = args.p
    total = count_consistent(p)  # raises DedekindUnknown beyond the table
    if args.count_only or p > 6:
        print(json.dumps({"arity": p, "count": total}) if args.format == "json"
              else f"arity {p}: {total} functions")
        return 0
    # streamed: p = 6 yields 7.8M shapes, one line (or JSON element) each
    out = sys.stdout
    if args.format == "json":
        items = (json.dumps(sh.index_sets()) for sh in enumerate_all(p))
        out.write(f'{{"arity": {p}, "count": {total}, "shapes": [{next(items)}')
        out.writelines(", " + item for item in items)
        out.write("]}\n")
        return 0
    out.writelines(f"{sh}\n" for sh in enumerate_all(p))
    print(f"arity {p}: {total} functions")
    return 0


def cmd_walk(args) -> int:
    # P counts the regulators besides the target; --autoreg adds the target itself
    lo, hi = (1, MAX_ARITY) if args.autoreg == "none" else (0, MAX_ARITY - 1)
    if not lo <= args.p <= hi:
        raise ArityTooLarge(f"P = {args.p} outside {lo}..{hi}"
                            + ("" if args.autoreg == "none" else " with --autoreg"))
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    if args.autoreg == "none":
        arity = args.p
        ctx = RegulatorContext.all_positive(arity)
    else:
        arity = args.p + 1
        sign = "+" if args.autoreg == "pos" else "-"
        ctx = RegulatorContext.from_str("+" * args.p + sign, self_index=arity)
    path = random_path(arity, seed)
    bounds = transition_bounds(ctx)
    print(f"# seed={seed} autoreg={args.autoreg} arity={arity} n={bounds.n}")
    print(
        f"# case {bounds.case}: total in [{bounds.total_min}, {bounds.total_max}], "
        f"increasing <= {bounds.max_increasing}, decreasing >= {bounds.min_decreasing}"
    )
    writer = csv.writer(sys.stdout) if args.format == "csv" else None
    if writer:
        writer.writerow(["step", "shape", "true_size", "increasing", "decreasing", "total"])
    for k, row in enumerate(path_trace(ctx, path)):
        if writer:
            writer.writerow([k, str(row.shape), row.true_size, row.increasing,
                             row.decreasing, row.total])
        else:
            print(
                f"{k:3d}  {str(row.shape):40s} |T|={row.true_size:4d} "
                f"inc={row.increasing:4d} dec={row.decreasing:4d} total={row.total:4d}"
            )
    return 0


def cmd_stg(args) -> int:
    bn = load_model(args.model, normalize=args.normalize)
    build = stg_async if args.mode == "async" else stg_sync
    graph = build(bn, limit=args.limit)
    names = bn.names()
    if args.format == "dot":
        sys.stdout.writelines(stg_dot_lines(graph, names))
        return 0
    stable = graph.stable_states()
    attr = attractors(graph)
    if args.format == "json":
        out = {
            "components": list(names),
            "mode": graph.mode,
            "n_states": 1 << graph.n,
            "n_edges": graph.n_edges,
            "stable_states": [state_to_string(s, graph.n) for s in stable],
            "attractors": [
                sorted(state_to_string(s, graph.n) for s in a) for a in attr
            ],
        }
        print(json.dumps(out, indent=2))
        return 0
    print(f"components: {', '.join(names)}")
    print(f"{graph.mode} graph: {1 << graph.n} states, {graph.n_edges} transitions")
    print(f"stable states ({len(stable)}): "
          + " ".join(state_to_string(s, graph.n) for s in stable))
    for a in attr:
        kind = "stable" if len(a) == 1 else f"cyclic({len(a)})"
        print(f"attractor [{kind}]: "
              + " ".join(sorted(state_to_string(s, graph.n) for s in a)))
    if args.edges:
        text = _state_text(graph.n)
        sys.stdout.writelines(f"  {text(s)} -> {text(t)}\n" for s, t in graph.edges())
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.arity <= 5:
        raise InvalidArgument("verify handles arities 1..5")
    failed = False
    for p in range(1, args.arity + 1):
        hd = build_hasse(p)
        problems = verify_rules(p, hd)
        nodes, edges = len(hd.shapes), len(hd.edges)
        if problems:
            failed = True
            print(f"arity {p}: {nodes} nodes / {edges} edges — "
                  f"{len(problems)} discrepancies")
            for msg in problems[: args.show]:
                print(f"  {msg}")
        else:
            print(f"arity {p}: {nodes} nodes / {edges} edges checked — "
                  f"rules match the brute-force diagram")
    return 1 if failed else 0


def cmd_pbn(args) -> int:
    if args.runs < 1:
        raise InvalidArgument("--runs must be at least 1")
    if args.max_steps < 1:
        raise InvalidArgument("--max-steps must be at least 1")
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    if args.experiment:  # a preset, which ignores the flags it fixes
        label = f"experiment {args.experiment}"
        names, mode = EXPERIMENTS[args.experiment]
        bn, initial, phenotypes = th_model(), th_initial_state(), True
    else:
        if args.th_preset:
            bn = th_model()
            label = "Th preset"
        elif args.model:
            bn = load_model(args.model, normalize=args.normalize)
            label = f"model {args.model}"
        else:
            print("error: one of --experiment, --th-preset, --model is required",
                  file=sys.stderr)
            return 2
        names = (None if args.randomize == "all"
                 else [nm.strip() for nm in args.randomize.split(",")] if args.randomize else [])
        mode, phenotypes = args.mode, args.phenotypes or args.th_preset
        active = [nm.strip() for nm in args.active.split(",")] if args.active else []
        initial = sum({1 << i for i in bn.indices(active)})
        if args.initial:
            if len(args.initial) != bn.n:
                raise InvalidArgument(f"--initial has {len(args.initial)} values for "
                                      f"{bn.n} components")
            initial = state_from_string(args.initial)
        elif args.th_preset and not active:
            initial = th_initial_state()
    pnet = randomized_network(bn, components=names, mode=mode, ref_prob=args.ref_prob)
    classifier = (lambda s: classify_phenotype(bn, s)) if phenotypes \
        else (lambda s: state_to_string(s, bn.n))
    with contextlib.ExitStack() as files:  # unwritable paths fail before simulating
        ledger = files.enter_context(
            open(args.csv, "w", newline="", encoding="utf-8")) if args.csv else None
        summary_file = files.enter_context(
            open(args.json, "w", encoding="utf-8")) if args.json else None
        report = simulate(pnet, initial, runs=args.runs, seed=seed,
                          max_steps=args.max_steps, classifier=classifier)
        absorbed = sum(1 for o in report.outcomes if o.absorbed)
        mean_steps = sum(o.steps for o in report.outcomes) / len(report.outcomes)
        print(f"# {label}  seed={seed}  runs={report.runs}  max_steps={report.max_steps}")
        print(f"absorbed: {absorbed}/{report.runs}   mean steps: {mean_steps:.1f}")
        for lab, frac in report.proportions.items():
            print(f"  {lab:8s} {frac * 100:6.2f}%  ({report.count(lab)})")
        if args.csv:
            w = csv.writer(ledger)
            w.writerow(["run", "seed", "steps", "absorbed", "final_state", "phenotype"])
            for o in report.outcomes:
                w.writerow([
                    o.run, o.seed, o.steps, int(o.absorbed),
                    state_to_string(o.final_state, bn.n), o.label,
                ])
            print(f"run ledger written to {args.csv}")
        if args.json:
            summary = {
                "seed": seed,
                "runs": report.runs,
                "max_steps": report.max_steps,
                "absorbed": absorbed,
                "mean_steps": mean_steps,
                "proportions": report.proportions,
            }
            if args.experiment:
                summary["experiment"] = args.experiment
            json.dump(summary, summary_file, indent=2)
            summary_file.write("\n")
            print(f"summary written to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funspace",
        description="Consistent regulatory Boolean functions: neighborhoods, "
                    "enumeration, dynamics, ensemble simulation.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("-o", "--output", metavar="PATH",
                    help="write stdout output to PATH instead")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("neighbors", help="parents/children/siblings of one function")
    p.add_argument("expression", nargs="?",
                   help="DNF expression, e.g. 'a | (b & !c)'")
    p.add_argument("-e", "--expression", dest="expression_opt", metavar="EXPR",
                   help="alternative way to pass the expression")
    p.add_argument("--normalize", action="store_true",
                   help="rewrite arbitrary and/or/not structure into DNF first")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.add_argument("--siblings-via", choices=["parents", "children", "both"],
                   default="parents")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("enumerate", help="list or count all functions of one arity")
    p.add_argument("p", type=int, help="number of regulators")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("walk", help="random upward path with transition counts")
    p.add_argument("p", type=int, help="number of regulators besides the target")
    p.add_argument("--autoreg", choices=["none", "pos", "neg"], default="none")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("stg", help="state-transition graph of a model file")
    p.add_argument("model", help="path to a 'targets, factors' model file")
    p.add_argument("--mode", choices=["async", "sync"], default="async")
    p.add_argument("--format", choices=["text", "dot", "json"], default="text")
    p.add_argument("--edges", action="store_true", help="list every transition")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--limit", type=int, default=DEFAULT_STATE_LIMIT,
                   help="largest component count to accept")
    p.set_defaults(func=cmd_stg)

    p = sub.add_parser("verify", help="check neighbor rules against brute force")
    p.add_argument("arity", nargs="?", type=int, default=4,
                   help="verify arities 1..ARITY (default 4, max 5)")
    p.add_argument("--show", type=int, default=10,
                   help="discrepancies to print per arity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pbn", help="probabilistic ensemble simulation")
    p.add_argument("--experiment", type=str.upper, choices=sorted(EXPERIMENTS),
                   help="built-in T-helper experiment (any case)")
    p.add_argument("--th-preset", action="store_true",
                   help="use the built-in T-helper model (implied by --experiment)")
    p.add_argument("--model", help="custom model file")
    p.add_argument("--randomize",
                   help="comma-separated component names, or 'all'; without it "
                        "--th-preset and --model run deterministically")
    p.add_argument("--mode", choices=["parents_children", "with_siblings"],
                   default="parents_children")
    p.add_argument("--initial", help="initial state as a 0/1 string")
    p.add_argument("--active", help="comma-separated component names that start on")
    p.add_argument("--phenotypes", action="store_true",
                   help="classify outcomes via Tbet/GATA3 markers")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--ref-prob", type=float, default=0.8)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--csv", help="write the per-run ledger to this path")
    p.add_argument("--json", help="write the aggregate summary to this path")
    p.set_defaults(func=cmd_pbn)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                return args.func(args)
        return args.func(args)
    except ModelError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
        return 2
    except FunspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
