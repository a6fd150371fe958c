from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from funspace import (
    BooleanNetwork,
    Component,
    FunctionShape,
    RegulatorContext,
    evaluate,
    load_model,
    th_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def toy_bn():
    return load_model(FIXTURES / "toy.bnet")


@pytest.fixture(scope="session")
def th_bn():
    return th_model()


def reference_step(bn, state):
    """The synchronous update of one state: ``evaluate`` on each component's
    projected state, or its constant."""
    nxt = 0
    for i, c in enumerate(bn.components):
        if c.shape is None:
            value = c.constant
        else:
            local = sum(1 << k for k, r in enumerate(c.regulators) if state >> r & 1)
            value = evaluate(c.shape, c.ctx, local)
        nxt |= value << i
    return nxt


@st.composite
def shapes(draw, p):
    """A valid arity-p shape: the minimal elements of some random masks,
    plus a singleton clause for every regulator they leave out."""
    masks = set(draw(st.lists(st.integers(1, (1 << p) - 1), min_size=1, max_size=12)))
    kept = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    union = 0
    for m in kept:
        union |= m
    kept += [1 << k for k in range(p) if not union >> k & 1]
    return FunctionShape(p, tuple(sorted(kept)))


def contexts(p, self_index):
    signs = st.lists(st.sampled_from("+-"), min_size=p, max_size=p)
    return signs.map(lambda s: RegulatorContext.from_str("".join(s), self_index))


@st.composite
def shapes_with_contexts(draw, max_arity=8):
    """(shape, ctx) with mixed signs, autoregulated or not."""
    p = draw(st.integers(1, max_arity))
    self_index = draw(st.none() | st.integers(1, p))
    return draw(shapes(p)), draw(contexts(p, self_index))


@st.composite
def networks(draw, max_n=6, min_n=1, constants=None):
    """Networks of random signed shapes over random regulators, some constant:
    each with odds 1 in 5, or ``constants`` of them (at most n) at random
    positions."""
    n = draw(st.integers(min_n, max_n))
    if constants is not None:
        inputs = set(draw(st.lists(st.integers(0, n - 1), min_size=min(constants, n),
                                   max_size=min(constants, n), unique=True)))
    comps = []
    for i in range(n):
        if i in inputs if constants is not None else draw(st.integers(0, 4)) == 0:
            comps.append(Component(name=f"x{i}", constant=draw(st.booleans())))
            continue
        regs = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=min(n, 4), unique=True)))
        self_index = regs.index(i) + 1 if i in regs else None
        comps.append(Component(name=f"x{i}", regulators=regs,
                               shape=draw(shapes(len(regs))),
                               ctx=draw(contexts(len(regs), self_index))))
    return BooleanNetwork(tuple(comps))
