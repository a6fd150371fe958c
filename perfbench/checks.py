"""Output checks written independently of funspace.

Each checker takes plain data (clause bitmasks, state ints, tuples) that
the workload copied out of funspace's results, recomputes what it can with
its own code, and returns a list of problems; an empty list means the op's
output is correct.  Truth sets are bitsets: bit ``s`` of ``truth_bits``
is set when state ``s`` (bit k-1 = regulator k) satisfies some clause.
"""

from __future__ import annotations

from functools import cache


@cache
def _up_set(clause: int, p: int) -> int:
    """Bitset of the states of B^p that contain ``clause``."""
    free = ((1 << p) - 1) ^ clause
    bits = 0
    sub = free
    while True:
        bits |= 1 << (clause | sub)
        if sub == 0:
            return bits
        sub = (sub - 1) & free


def truth_bits(clauses, p: int) -> int:
    bits = 0
    for c in clauses:
        bits |= _up_set(c, p)
    return bits


def shape_problems(clauses, p: int) -> list[str]:
    """Is ``clauses`` a strictly increasing antichain cover of {1..p}?"""
    full = (1 << p) - 1
    if not clauses or list(clauses) != sorted(set(clauses)):
        return [f"clauses {clauses} not strictly increasing"]
    union = 0
    for c in clauses:
        if not 0 < c <= full:
            return [f"clause {c:#x} outside 1..{full:#x}"]
        union |= c
    if union != full:
        return [f"clauses {clauses} do not cover {full:#x}"]
    for i, a in enumerate(clauses):
        for b in clauses[i + 1:]:
            if a & b in (a, b):
                return [f"clauses {a:#x} and {b:#x} are comparable"]
    return []


def _is_shape_set(bits: int, p: int) -> bool:
    """Is the state bitset the true set of some shape of arity p?

    It must be a nonempty up-set whose minimal states (the clauses) cover
    every regulator and do not include the empty state.
    """
    union = 0
    for s in range(1, 1 << p):
        if not bits >> s & 1:
            continue
        below = [s ^ (1 << k) for k in range(p) if s >> k & 1]
        if any(not bits >> t & 1 for t in (s | (1 << k) for k in range(p))):
            return False
        if not any(bits >> t & 1 for t in below):
            union |= s
    return not bits & 1 and union == (1 << p) - 1


def covering_problem(lower, upper, p: int, delta: int | None = None) -> str | None:
    """Why ``upper`` does not cover ``lower`` in the order, or None.

    T must grow by one or two states (by ``delta`` when given); a two-state
    step covers only when adding either state alone gives no valid shape.
    """
    tl, tu = truth_bits(lower, p), truth_bits(upper, p)
    if tl & tu != tl:
        return f"T of {upper} does not contain T of {lower}"
    grown = tu ^ tl
    size = grown.bit_count()
    if size not in (1, 2) or (delta is not None and size != delta):
        return f"{lower} -> {upper}: T grows by {size}, delta {delta}"
    if size == 2:
        low = grown & -grown
        if _is_shape_set(tl | low, p) or _is_shape_set(tl | (grown ^ low), p):
            return f"{lower} -> {upper}: a valid shape lies between them"
    return None


def check_neighbors(center, p: int, parents, children, siblings,
                    true_count: int, level) -> list[str]:
    """``parents``/``children`` are (clauses, delta) pairs, ``siblings`` clauses."""
    problems = shape_problems(center, p)
    for clauses, _ in parents + children:
        problems += shape_problems(clauses, p)
    for clauses in siblings:
        problems += shape_problems(clauses, p)
    if truth_bits(center, p).bit_count() != true_count:
        problems.append(f"true_count {true_count} != |T| of {center}")
    want_level = tuple(sorted((p - c.bit_count() for c in center), reverse=True))
    if tuple(level) != want_level:
        problems.append(f"level {level} != {want_level}")
    for lower, upper, delta in ([(center, c, d) for c, d in parents]
                                + [(c, center, d) for c, d in children]):
        problem = covering_problem(lower, upper, p, delta)
        if problem:
            problems.append(problem)
    near = {tuple(center)} | {tuple(c) for c, _ in parents + children}
    if len(near) != 1 + len(parents) + len(children):
        problems.append("repeated or self neighbour")
    if len(set(map(tuple, siblings))) != len(siblings):
        problems.append("repeated sibling")
    for clauses in siblings:
        if tuple(clauses) in near:
            problems.append(f"sibling {clauses} is the centre or a neighbour")
    return problems


def check_walk(path, p: int, self_bit: int, neg_mask: int, rows) -> list[str]:
    """``path`` is a list of clause tuples of arity ``p``; ``rows`` holds
    ``(inc, dec, n, true_count)`` per shape.  ``self_bit`` is 0 without
    autoregulation, else the mask of the target's own regulator."""
    full = (1 << p) - 1
    problems = []
    if not path or tuple(path[0]) != (full,):
        problems.append("path does not start at the bottom shape")
    if not path or tuple(path[-1]) != tuple(1 << k for k in range(p)):
        problems.append("path does not end at the top shape")
    if len(rows) != len(path):
        return problems + [f"{len(rows)} rows for {len(path)} shapes"]
    for lower, upper in zip(path, path[1:]):
        problem = covering_problem(lower, upper, p)
        if problem:
            problems.append(problem)
    states = range(1 << p)
    self_one = sum(1 << s for s in states if s & self_bit)
    for clauses, (inc, dec, n, tc) in zip(path, rows):
        problems += shape_problems(clauses, p)
        lit_true = truth_bits(clauses, p)
        if tc != lit_true.bit_count():
            problems.append(f"true_count {tc} != |T| of {clauses}")
        if not self_bit:
            want = (tc, (1 << p) - tc, p + 1)
        else:
            signed = sum(1 << s for s in states if lit_true >> (s ^ neg_mask) & 1)
            want = ((signed & ~self_one).bit_count(), (~signed & self_one).bit_count(), p)
        if (inc, dec, n) != want:
            problems.append(f"{clauses}: (inc, dec, n) = {(inc, dec, n)}, want {want}")
    return problems


def eval_dnf(spec, state: int) -> int:
    """Synchronous successor of ``state`` under a generated model.

    ``spec[i]`` is a bool for a constant component, else a list of clauses,
    each a list of ``(regulator index, positive)`` literals.
    """
    nxt = 0
    for i, comp in enumerate(spec):
        if isinstance(comp, bool):
            on = comp
        else:
            on = any(all(bool(state >> r & 1) == pos for r, pos in clause)
                     for clause in comp)
        if on:
            nxt |= 1 << i
    return nxt


def check_states(spec, stable, async_succ, sync_succ, async_att, sync_att,
                 samples) -> list[str]:
    """Stable states against both graphs and attractors; sampled successors
    against ``eval_dnf``."""
    n = len(spec)
    problems = []
    if len(async_succ) != 1 << n or len(sync_succ) != 1 << n:
        return [f"graphs do not have 2^{n} states"]
    stable = tuple(stable)
    for what, succ in (("async", async_succ), ("sync", sync_succ)):
        free = tuple(s for s in range(1 << n) if not succ[s])
        if free != stable:
            problems.append(f"stable states {stable} != successor-free {what} nodes {free}")
    for what, att in (("async", async_att), ("sync", sync_att)):
        singles = tuple(sorted(min(a) for a in att if len(a) == 1))
        if singles != stable:
            problems.append(f"stable states {stable} != {what} singleton attractors {singles}")
    for s in samples:
        t = eval_dnf(spec, s)
        got = sync_succ[s][0] if sync_succ[s] else s
        if got != t:
            problems.append(f"sync successor of {s} is {got}, model gives {t}")
        flips = tuple(sorted(s ^ (1 << i) for i in range(n) if (s ^ t) >> i & 1))
        if tuple(sorted(async_succ[s])) != flips:
            problems.append(f"async successors of {s} differ from the model")
    return problems


def local_value(regulators, neg_mask: int, clauses, state: int) -> bool:
    """Evaluate one signed shape on a network state."""
    local = 0
    for k, r in enumerate(regulators):
        if state >> r & 1:
            local |= 1 << k
    lits = local ^ neg_mask
    return any(c & lits == c for c in clauses)


def check_ensemble(outcomes, runs: int, max_steps: int, candidates,
                   markers) -> list[str]:
    """``outcomes`` are ``(steps, final, absorbed, label)``.

    A label must be the phenotype the Tbet/GATA3 bits of the final state
    give (Th0, Th1, Th2 or Other).  ``candidates[i]`` is a bool for a constant component, else
    ``(regulators, neg_mask, [clauses, ...])`` listing every function of
    component i's ensemble.  ``markers`` are the Tbet and GATA3 indices.
    """
    problems = []
    if len(outcomes) != runs:
        problems.append(f"{len(outcomes)} outcomes for {runs} runs")
    tbet, gata3 = markers
    for steps, final, absorbed, label in outcomes:
        t, g = final >> tbet & 1, final >> gata3 & 1
        want = {(1, 0): "Th1", (0, 1): "Th2", (0, 0): "Th0"}.get((t, g), "Other")
        if label != want:
            problems.append(f"final state {final} labelled {label!r}, markers say {want}")
        if not 1 <= steps <= max_steps:
            problems.append(f"{steps} steps outside 1..{max_steps}")
    for final in {final for _, final, absorbed, _ in outcomes if absorbed}:
        for i, cand in enumerate(candidates):
            if isinstance(cand, bool):
                reachable = {cand}
            else:
                regs, neg, shapes = cand
                reachable = {local_value(regs, neg, cl, final) for cl in shapes}
            if bool(final >> i & 1) not in reachable:
                problems.append(f"absorbed state {final} is no fixed point of any realization")
                break
    return problems
