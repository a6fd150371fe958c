"""The four workloads: input generation, the timed op, checks and counts.

Inputs are generated here from the workload seed with the stdlib only;
funspace receives only the finished inputs.  ``generate`` must not import
funspace, because set-up time is measured from the moment funspace is
imported.  Each op is one closed-loop request from a single client.

A workload class provides:

* ``generate(seed)``: the op list as plain data (no funspace objects), in
  rounds of ``round_len`` ops; every round holds the same mix of op kinds;
* ``prepare(fs, tracer)``: the program's own preparation, counted in
  set-up time;
* ``run(fs, prepared, op, tracer)``: the timed op;
* ``check(prepared, op, result)``: problems found by ``checks`` (untimed);
* ``count(fs, prepared, op, result, acc)``: per-layer counts read from the
  result and from untimed extra calls, for the traced run;
* ``layer_metrics(span_ms, acc)``: the per-layer metrics of this workload;
* ``nominal_ops_per_s``: the calibrated op rate measured at commit 01b410b,
  which sets the tail percentile and the length of the traced run.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from contextlib import contextmanager
from math import comb

import checks

VIAS = ("parents", "children", "both")


def call(tracer, name, fn, *args, **kwargs):
    """Call ``fn``, inside a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


@contextmanager
def recording(owner, name):
    """Record the arguments of every call of ``owner.name`` within the block.

    The program reaches a function through every module that imported it,
    so each funspace module attribute bound to the same object is replaced
    by the recording wrapper too; all are restored afterwards.  Only for
    untimed passes: the wrapper slows every call down.
    """
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    owners = [owner] + [m for key, m in list(sys.modules.items())
                        if key.split(".")[0] == "funspace" and m is not owner
                        and getattr(m, name, None) is original]
    for o in owners:
        setattr(o, name, wrapper)
    try:
        yield calls
    finally:
        for o in owners:
            setattr(o, name, original)


def _mean_ms(span_ms, name):
    total, calls = span_ms.get(name, (0.0, 0))
    return total / calls if calls else 0.0


def random_antichain(rng, pool, width, p):
    """Absorption-free cover of {1..p} from ``width`` masks drawn from ``pool``.

    Uncovered regulators are added to one kept clause.  The enlarged clause
    contains no other kept clause, since that one would have to lie inside
    the original clause, having no uncovered regulator.
    """
    drawn = sorted(rng.sample(pool, width), key=lambda m: (m.bit_count(), m))
    kept = []
    for m in drawn:
        if not any(k & m == k for k in kept):
            kept.append(m)
    union = 0
    for m in kept:
        union |= m
    missing = ((1 << p) - 1) ^ union
    if missing:
        kept[rng.randrange(len(kept))] |= missing
    return tuple(sorted(kept))


def relabel(clauses, perm):
    """Clauses with regulator k renamed to ``perm[k]`` (0-based bits)."""
    return tuple(sorted(sum(1 << perm[k] for k in range(len(perm)) if c >> k & 1)
                        for c in clauses))


class Neighbors:
    """What ``funspace neighbors`` computes, on generated shapes.

    Arity 5-7.  A shape draws 2 to C(p, p//2) masks from the two middle
    layers and absorbs them.  Op cost grows steeply with the clause count
    left after absorption, is 5x higher for ``via`` parents than for
    children, and still varies 2-3x between shapes of one clause count.
    So the shapes form a fixed pool, drawn once: every round holds one
    shape for each (arity, clause count, via) stratum, drawn by rejection.
    The seed relabels the regulators of every shape, which leaves the work
    unchanged, so different seeds give different inputs of equal cost.
    Clause counts stop at 7 / 13 / 18 for p = 5 / 6 / 7, which leaves out
    0.2% / 0.7% / 5.6% of the draws; see README.md for what those cost.
    """

    name = "neighbors"
    rounds = 5
    nominal_ops_per_s = 16.0
    max_clauses = {5: 7, 6: 13, 7: 18}
    round_len = len(VIAS) * sum(top - 1 for top in max_clauses.values())

    def generate(self, seed):
        pool_rng = random.Random(f"{self.name}-pool")
        rng = random.Random(f"{self.name}-{seed}")
        pools = {
            p: [m for m in range(1, 1 << p) if m.bit_count() in (p // 2, p // 2 + 1)]
            for p in self.max_clauses
        }
        strata = [(p, nc, via) for p, top in self.max_clauses.items()
                  for nc in range(2, top + 1) for via in VIAS]
        ops = []
        for _ in range(self.rounds):
            pool_rng.shuffle(strata)
            for p, nc, via in strata:
                clauses = ()
                while len(clauses) != nc:
                    width = pool_rng.randint(2, comb(p, p // 2))
                    clauses = random_antichain(pool_rng, pools[p], width, p)
                ops.append((p, relabel(clauses, rng.sample(range(p), p)), via))
        return ops

    def prepare(self, fs, tracer):
        return None

    def run(self, fs, prepared, op, tracer):
        p, clauses, via = op
        shape = call(tracer, "shapes.FunctionShape", fs.FunctionShape, p, clauses)
        return (
            shape,
            call(tracer, "neighborhood.parents", fs.parents, shape),
            call(tracer, "neighborhood.children", fs.children, shape),
            call(tracer, "neighborhood.siblings", fs.siblings, shape, via=via),
            call(tracer, "shapes.true_count", fs.true_count, shape),
            call(tracer, "shapes.level", fs.level, shape),
        )

    def check(self, prepared, op, result):
        p, clauses, _ = op
        shape, ps, cs, sib, tc, lv = result
        return checks.check_neighbors(
            shape.clauses, p,
            [(st.shape.clauses, st.delta) for st in ps],
            [(st.shape.clauses, st.delta) for st in cs],
            [s.clauses for s in sib], tc, lv,
        )

    def count(self, fs, prepared, op, result, acc):
        shape, ps, cs, sib, _, _ = result
        for st in ps:
            acc[st.rule] = acc.get(st.rule, 0) + 1
        acc["children"] = acc.get("children", 0) + len(cs)
        acc["siblings"] = acc.get("siblings", 0) + len(sib)
        outside = fs.max_outside(shape)
        acc["max_outside"] = acc.get("max_outside", 0) + len(outside)

    def layer_metrics(self, span_ms, acc):
        return {
            "neighborhood.parents.ms": _mean_ms(span_ms, "neighborhood.parents"),
            "neighborhood.children.ms": _mean_ms(span_ms, "neighborhood.children"),
            "neighborhood.siblings.ms": _mean_ms(span_ms, "neighborhood.siblings"),
            "neighborhood.rule.r1": acc.get("parent-r1", 0),
            "neighborhood.rule.r2": acc.get("parent-r2", 0),
            "neighborhood.rule.r3": acc.get("parent-r3", 0),
            "neighborhood.children.found": acc.get("children", 0),
            "neighborhood.siblings.found": acc.get("siblings", 0),
            "neighborhood.max_outside.size": acc.get("max_outside", 0),
        }


class Walk:
    """What ``funspace walk P --autoreg {none,pos,neg}`` computes.

    Shape arity 5-6 (P = 5-6 without autoregulation, P = 4-5 with it);
    ``walk 7`` takes about 44 s.  At arity 6 the cost of a walk varies with
    its path (coefficient of variation 1.4, 4 ms to 1.5 s), so walks drawn
    afresh per seed spread ``ops_per_s`` by 8% between seeds.  The walk
    seeds therefore form a fixed pool, drawn once; the run seed orders each
    round and picks which autoregulated walk of a pair is positive and
    which negative, which does not change its cost.  A round holds six
    arity-5 walks and three arity-6 walks, so the median op is an arity-5
    walk, where ``random_path`` dominates, and not the gap between arities.
    """

    name = "walk"
    rounds = 200
    nominal_ops_per_s = 50.0
    round_cases = ((5, "none"), (4, "auto"), (4, "auto")) * 2 + ((6, "none"), (5, "auto"), (5, "auto"))
    round_len = len(round_cases)

    def generate(self, seed):
        pool_rng = random.Random(f"{self.name}-pool")
        rng = random.Random(f"{self.name}-{seed}")
        ops = []
        for _ in range(self.rounds):
            # The "auto" cases come in pairs of one arity: one of each sign.
            signs = iter([sign for _ in range(3) for sign in rng.sample(("pos", "neg"), 2)])
            walks = [(P, next(signs) if kind == "auto" else kind, pool_rng.randrange(1 << 32))
                     for P, kind in self.round_cases]
            rng.shuffle(walks)
            ops += walks
        return ops

    def prepare(self, fs, tracer):
        ctxs = {}
        for P in (4, 5, 6):
            ctxs[P, "none"] = fs.RegulatorContext.all_positive(P)
            for autoreg, sign in (("pos", "+"), ("neg", "-")):
                ctxs[P, autoreg] = fs.RegulatorContext.from_str("+" * P + sign,
                                                                self_index=P + 1)
        return ctxs

    def run(self, fs, ctxs, op, tracer):
        P, autoreg, walk_seed = op
        ctx = ctxs[P, autoreg]
        path = call(tracer, "neighborhood.random_path", fs.random_path, ctx.arity, walk_seed)
        rows = []
        for shape in path:
            inc, dec, n = call(tracer, "dynamics.shape_transition_counts",
                               fs.shape_transition_counts, shape, ctx)
            rows.append((inc, dec, n, call(tracer, "shapes.true_count", fs.true_count, shape)))
        return path, rows

    def check(self, ctxs, op, result):
        ctx = ctxs[op[0], op[1]]
        path, rows = result
        self_bit = 0 if ctx.self_index is None else 1 << (ctx.self_index - 1)
        return checks.check_walk([s.clauses for s in path], ctx.arity, self_bit,
                                 ctx.neg_mask, rows)

    def count(self, fs, ctxs, op, result, acc):
        path, _ = result
        acc["path_len"] = acc.get("path_len", 0) + len(path)
        # The op again, counting every true_count call: the benchmark's own
        # and those the program makes inside shape_transition_counts.
        with recording(fs.shapes, "true_count") as calls:
            self.run(fs, ctxs, op, None)
        acc["true_count_calls"] = acc.get("true_count_calls", 0) + len(calls)
        acc["clauses_max"] = max(acc.get("clauses_max", 0),
                                 max(args[0].n_clauses for args in calls))

    def layer_metrics(self, span_ms, acc):
        return {
            "neighborhood.random_path.ms": _mean_ms(span_ms, "neighborhood.random_path"),
            "walk.path_len": acc.get("path_len", 0),
            "shapes.true_count.ms": _mean_ms(span_ms, "shapes.true_count"),
            "shapes.true_count.calls": acc.get("true_count_calls", 0),
            "shapes.true_count.clauses_max": acc.get("clauses_max", 0),
            "dynamics.shape_transition_counts.ms":
                _mean_ms(span_ms, "dynamics.shape_transition_counts"),
        }


def random_model(rng, n):
    """A ``targets, factors`` model of n components and its DNF spec.

    About 10% constant inputs; every other component has 1-4 signed
    regulators (itself allowed) and an absorption-free DNF using all of them.
    Regulator counts cycle through 1-4 in a shuffled order, so that models
    of one size differ less in cost.
    """
    names = [f"x{i}" for i in range(n)]
    constants = set(rng.sample(range(n), max(1, round(n / 10))))
    arities = [1 + j % 4 for j in range(n - len(constants))]
    rng.shuffle(arities)
    spec, lines = [], ["targets, factors"]
    for i in range(n):
        if i in constants:
            value = rng.random() < 0.5
            spec.append(value)
            lines.append(f"{names[i]}, {'true' if value else 'false'}")
            continue
        k = arities.pop()
        regs = rng.sample(range(n), k)
        positive = [rng.random() < 0.6 for _ in regs]
        if k == 1:
            local = (1,)
        else:
            pool = list(range(1, 1 << k))
            local = random_antichain(rng, pool, rng.randint(1, min(4, len(pool))), k)
        clauses = [[(regs[b], positive[b]) for b in range(k) if c >> b & 1] for c in local]
        spec.append(clauses)
        terms = [" & ".join(("" if pos else "!") + names[r] for r, pos in cl) for cl in clauses]
        expr = " | ".join(f"({t})" if "&" in t and len(terms) > 1 else t for t in terms)
        lines.append(f"{names[i]}, {expr}")
    return "\n".join(lines) + "\n", spec


class States:
    """Model parsing, both state-transition graphs, attractors, stable states.

    Generated networks of 8-12 components; a round holds each size once.
    ``step_sync`` over the whole state space is about 90% of op time.
    """

    name = "states"
    rounds = 40
    nominal_ops_per_s = 7.0
    sizes = (8, 9, 10, 11, 12)
    round_len = len(sizes)
    samples_per_op = 32

    def generate(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        ops = []
        for _ in range(self.rounds):
            sizes = list(self.sizes)
            rng.shuffle(sizes)
            for n in sizes:
                text, spec = random_model(rng, n)
                samples = tuple(rng.randrange(1 << n) for _ in range(self.samples_per_op))
                ops.append((text, spec, samples))
        return ops

    def prepare(self, fs, tracer):
        return None

    def run(self, fs, prepared, op, tracer):
        bn = call(tracer, "modelio.parse_model", fs.parse_model, op[0])
        g_async = call(tracer, "dynamics.stg_async", fs.stg_async, bn)
        a_async = call(tracer, "dynamics.attractors", fs.attractors, g_async)
        g_sync = call(tracer, "dynamics.stg_sync", fs.stg_sync, bn)
        a_sync = call(tracer, "dynamics.attractors", fs.attractors, g_sync)
        stable = call(tracer, "dynamics.stable_states", fs.stable_states, bn)
        return bn, g_async, a_async, g_sync, a_sync, stable

    def check(self, prepared, op, result):
        _, spec, samples = op
        bn, g_async, a_async, g_sync, a_sync, stable = result
        if bn.names() != tuple(f"x{i}" for i in range(len(spec))):
            return [f"parsed components {bn.names()} out of order"]
        return checks.check_states(spec, stable, g_async.successors, g_sync.successors,
                                   a_async, a_sync, samples)

    def count(self, fs, prepared, op, result, acc):
        bn, g_async, a_async, _, a_sync, _ = result
        # The three state-space sweeps again, counting the states stepped.
        with recording(type(bn), "step_sync") as steps:
            fs.stg_async(bn)
            fs.stg_sync(bn)
            fs.stable_states(bn)
        acc["scanned"] = acc.get("scanned", 0) + len(steps)
        acc["edges_async"] = acc.get("edges_async", 0) + g_async.n_edges
        acc["attractors"] = acc.get("attractors", 0) + len(a_async) + len(a_sync)
        tracemalloc.start()
        try:
            fs.stg_async(bn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        acc["peak_mb"] = max(acc.get("peak_mb", 0.0), peak / 2**20)

    def layer_metrics(self, span_ms, acc):
        return {
            "modelio.parse_model.ms": _mean_ms(span_ms, "modelio.parse_model"),
            "dynamics.stg_async.ms": _mean_ms(span_ms, "dynamics.stg_async"),
            "dynamics.stg_sync.ms": _mean_ms(span_ms, "dynamics.stg_sync"),
            "dynamics.attractors.ms": _mean_ms(span_ms, "dynamics.attractors"),
            "dynamics.stable_states.ms": _mean_ms(span_ms, "dynamics.stable_states"),
            "dynamics.states_scanned": acc.get("scanned", 0),
            "dynamics.edges_async": acc.get("edges_async", 0),
            "dynamics.attractors.found": acc.get("attractors", 0),
            "dynamics.stg_async.peak_mb": acc.get("peak_mb", 0.0),
        }


class Ensemble:
    """The paper's application: T-helper ensembles of experiments A-F.

    Set-up builds all six experiment networks.  One op simulates 200 runs
    of one experiment from the IFNg-pulse state; a round holds each
    experiment once.  A/B randomize every component and cost about 4x C-F.
    """

    name = "ensemble"
    rounds = 150
    experiments = "ABCDEF"
    round_len = len(experiments)
    nominal_ops_per_s = 40.0
    runs = 200
    max_steps = 1000

    def generate(self, seed):
        rng = random.Random(f"{self.name}-{seed}")
        ops = []
        for _ in range(self.rounds):
            experiments = list(self.experiments)
            rng.shuffle(experiments)
            ops += [(x, rng.randrange(1 << 31)) for x in experiments]
        return ops

    def prepare(self, fs, tracer):
        pnets = {x: call(tracer, "pbn.experiment_network", fs.experiment_network, x)
                 for x in self.experiments}
        bn = pnets["A"].network
        return {
            "pnets": pnets,
            "initial": fs.th_initial_state(),
            "classifier": lambda s: fs.classify_phenotype(bn, s),
        }

    def run(self, fs, prepared, op, tracer):
        which, sim_seed = op
        return call(tracer, "pbn.simulate", fs.simulate, prepared["pnets"][which],
                    prepared["initial"], runs=self.runs, seed=sim_seed,
                    max_steps=self.max_steps, classifier=prepared["classifier"])

    def _candidates(self, prepared, which):
        key = "candidates-" + which
        if key not in prepared:
            pnet = prepared["pnets"][which]
            cands = []
            for comp, ens in zip(pnet.network.components, pnet.ensembles):
                if comp.shape is None:
                    cands.append(bool(comp.constant))
                    continue
                shapes = [comp.shape] if ens is None else [s for s, _ in ens.entries]
                cands.append((comp.regulators, comp.ctx.neg_mask,
                              [s.clauses for s in shapes]))
            names = pnet.network.names()
            prepared[key] = (cands, (names.index("Tbet"), names.index("GATA3")))
        return prepared[key]

    def check(self, prepared, op, result):
        cands, markers = self._candidates(prepared, op[0])
        outcomes = [(o.steps, o.final_state, o.absorbed, o.label) for o in result.outcomes]
        return checks.check_ensemble(outcomes, self.runs, self.max_steps, cands, markers)

    def count(self, fs, prepared, op, result, acc):
        acc["runs"] = acc.get("runs", 0) + len(result.outcomes)
        acc["steps"] = acc.get("steps", 0) + sum(o.steps for o in result.outcomes)
        acc["absorbed"] = acc.get("absorbed", 0) + sum(o.absorbed for o in result.outcomes)

    def layer_metrics(self, span_ms, acc):
        sim_total = span_ms.get("pbn.simulate", (0.0, 0))[0]
        return {
            "pbn.experiment_network.ms": _mean_ms(span_ms, "pbn.experiment_network"),
            "pbn.simulate.ms": _mean_ms(span_ms, "pbn.simulate"),
            "pbn.runs": acc.get("runs", 0),
            "pbn.steps": acc.get("steps", 0),
            "pbn.absorbed_share": acc.get("absorbed", 0) / max(acc.get("runs", 0), 1),
            "pbn.steps_per_ms": acc.get("steps", 0) / sim_total if sim_total else 0.0,
        }


WORKLOADS = {w.name: w for w in (Neighbors(), Walk(), States(), Ensemble())}
