"""Reading and writing networks as text.

Model files use the two-column ``targets, factors`` format: a header line,
then one ``NAME, EXPRESSION`` line per component, ``#`` comments and blank
lines ignored.  Expressions use ``|``/``OR``, ``&``/``AND``, ``!``/``NOT``
(case-insensitive keywords) and parentheses; the constants ``false`` and
``true`` declare input components, and in any case are refused as a
component or regulator name.

One walk of the parse tree reads the clauses in both modes.  By default
expressions must already be disjunctions of literal conjunctions, and the
walk refuses any other structure; with ``normalize=True`` it accepts
arbitrary and/or/not structure, pushing negations down to the variables and
distributing ``and`` over ``or``.  Either way the resulting clause family
is minimized and validated: a variable mentioned only redundantly (or with
both polarities) is rejected, because the functions this package deals in
have every regulator essential with a fixed sign.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dynamics import BooleanNetwork, Component, STG
from .errors import (
    DualRegulation,
    DuplicateComponent,
    ExpansionTooLarge,
    InvalidArgument,
    ModelSyntaxError,
    NotCover,
    NotDNFAfterNormalization,
    UnknownVariable,
)
from .neighborhood import HasseSlice
from .shapes import (
    FunctionShape,
    NEGATIVE,
    POSITIVE,
    RegulatorContext,
    _minimal_cover,
    _minimal_shape,
    _state_text,
)

#: One token after optional whitespace: a name or an operator, else the one
#: character that starts neither (an error).  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[|&!()])|(\S))")

_KEYWORDS = {"or": "|", "and": "&", "not": "!"}

#: Right-hand sides that declare a constant component, in any case; never
#: a regulator or component name.
_CONSTANTS = ("false", "true")


def _tokenize(text: str, line: int | None = None) -> list[str]:
    tokens = []
    for tok, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ModelSyntaxError(f"unexpected character {bad!r}", line)
        tokens.append(_KEYWORDS.get(tok.lower(), tok))
    return tokens


# AST nodes: ("var", name) | ("not", node) | ("and", [nodes]) | ("or", [nodes])


class _Parser:
    """Recursive descent over EXPR := TERM ('|' TERM)*, TERM := FACTOR ('&' FACTOR)*,
    FACTOR := '!'? (IDENT | '(' EXPR ')').  The token list ends in "", which
    no rule consumes."""

    def __init__(self, tokens: list[str], line: int | None):
        self.tokens = tokens + [""]
        self.i = 0
        self.line = line

    def parse(self) -> tuple:
        node = self.expr()
        tok = self.tokens[self.i]
        if tok:
            raise ModelSyntaxError(f"trailing input at {tok!r}", self.line)
        return node

    def expr(self) -> tuple:
        terms = [self.term()]
        while self.tokens[self.i] == "|":
            self.i += 1
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else ("or", terms)

    def term(self) -> tuple:
        factors = [self.factor()]
        while self.tokens[self.i] == "&":
            self.i += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("and", factors)

    def factor(self) -> tuple:
        tok = self.tokens[self.i]
        if not tok:
            raise ModelSyntaxError("unexpected end of expression", self.line)
        self.i += 1
        if tok == "!":
            return ("not", self.factor())
        if tok == "(":
            node = self.expr()
            tok = self.tokens[self.i]
            if tok != ")":
                raise ModelSyntaxError(
                    "expected ')'" if tok else "unexpected end of expression", self.line
                )
            self.i += 1
            return node
        if tok in ("|", "&", ")"):
            raise ModelSyntaxError(f"unexpected {tok!r}", self.line)
        return ("var", tok)


#: Most clauses normalizing one expression may form: an ``and`` whose
#: operands' clause counts multiply past it is refused before the product
#: is built.
MAX_DNF_CLAUSES = 4096


def _distinct(clauses: Iterable[tuple]) -> list[tuple]:
    """The clauses less each one repeating an earlier one as a set."""
    first: dict[frozenset, tuple] = {}
    for c in clauses:
        first.setdefault(frozenset(c), c)
    return list(first.values())


def _clauses(node: tuple, line: int | None, normalize: bool,
             negate: bool = False) -> list[tuple]:
    """The clauses of a parse tree, each a tuple of ``(name, negated)`` literals.

    ``negate`` is pushed down to the variables, swapping and/or on the way;
    a disjunction joins its operands' clauses and a conjunction multiplies
    them.  Without ``normalize`` the tree must already be DNF, so a ``not``
    over anything but a variable, or an ``or`` operand of an ``and``, is
    refused where the walk meets it, operands left to right.

    With ``normalize`` repeated literals and clauses are dropped as they are
    formed, so ``(a | b) & (a | b) & …`` stays at three clauses; dropping only
    later repeats keeps the order in which regulators first appear.  A strict
    read skips this (it would cost about a fifth of a parse): its product is
    one clause, and the clause masks absorb repeats anyway.
    """
    kind = node[0]
    if kind == "var":
        return [((node[1], negate),)]
    if kind == "not":
        if not normalize and node[1][0] != "var":
            raise NotDNFAfterNormalization(
                "negation applies to a whole subexpression; pass --normalize to rewrite it",
                line)
        return _clauses(node[1], line, normalize, not negate)
    if (kind == "or") != negate:
        joined = [c for k in node[1] for c in _clauses(k, line, normalize, negate)]
        return _distinct(joined) if normalize else joined
    prod: list[tuple] = [()]
    for k in node[1]:
        if not normalize and k[0] == "or":
            raise NotDNFAfterNormalization(
                "a disjunction inside a conjunction; pass --normalize to rewrite it", line)
        kid = _clauses(k, line, normalize, negate)
        if not normalize:
            prod = [a + b for a in prod for b in kid]
            continue
        if len(prod) * len(kid) > MAX_DNF_CLAUSES:
            raise ExpansionTooLarge(
                f"normalizing needs {len(prod)} x {len(kid)} clauses, "
                f"more than {MAX_DNF_CLAUSES}", line)
        prod = _distinct(tuple(dict.fromkeys(a + b)) for a in prod for b in kid)
    return prod


@dataclass(frozen=True)
class ParsedFunction:
    """A shape with its sign context and regulator names (appearance order)."""

    shape: FunctionShape
    ctx: RegulatorContext
    names: tuple[str, ...]


def parse_expression(
    text: str, normalize: bool = False, line: int | None = None,
    self_name: str | None = None,
) -> ParsedFunction:
    """Parse one expression into (shape, context, regulator names).

    Regulators are numbered by first appearance in the clauses the walk
    reads: the text's order for a strict read, and with ``normalize`` the
    order of the distributed clauses, so ``(a | b) & c`` numbers a, c, b.
    Rejects dual regulation (a variable both plain and negated) and
    redundancy (a variable whose every clause is absorbed), since either
    would break consistency, and the constant names ``true``/``false`` in
    any case.  ``self_name`` marks autoregulation in the context.
    """
    return ParsedFunction(*_read_expression(text, normalize, line, self_name))


def _read_expression(text: str, normalize: bool, line: int | None, self_name: str | None
                     ) -> tuple[FunctionShape, RegulatorContext, tuple[str, ...]]:
    """:func:`parse_expression`'s (shape, context, names), as a tuple.  The
    clause masks are packed as the literals are read, and the shape and
    context are built without the constructors' checks, which the parse
    itself guarantees."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise ModelSyntaxError("empty expression", line)
    clauses = _clauses(_Parser(tokens, line).parse(), line, normalize)

    index: dict[str, int] = {}  # name -> regulator bit (0-based)
    signs: list[int] = []
    neg_mask = 0
    masks: list[int] = []
    for clause in clauses:
        mask = 0
        for name, neg in clause:
            k = index.get(name)
            if k is None:
                if name.lower() in _CONSTANTS:
                    raise ModelSyntaxError(f"{name} is a constant, not a regulator name", line)
                k = index[name] = len(signs)
                signs.append(NEGATIVE if neg else POSITIVE)
                neg_mask |= neg << k
            elif neg_mask >> k & 1 != neg:
                raise DualRegulation(
                    f"{name} is used both plain and negated", line
                )
            mask |= 1 << k
        masks.append(mask)
    try:
        shape = _minimal_shape(masks, len(signs))
    except NotCover:  # name, as typed, each regulator held by no unabsorbed clause
        _, missing = _minimal_cover(sorted(set(masks)), len(signs))
        names = ", ".join(nm for k, nm in enumerate(index) if missing >> k & 1)
        where = "" if line is None else f"line {line}: "
        raise NotCover(f"{where}regulator(s) {names} appear only in absorbed clauses") from None
    self_index = index[self_name] + 1 if self_name in index else None
    ctx = RegulatorContext._unchecked(tuple(signs), self_index, neg_mask)
    return shape, ctx, tuple(index)


_HEADER_RE = re.compile(r"^\s*targets\s*,\s*factors\s*$", re.IGNORECASE)
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_model(text: str, normalize: bool = False) -> BooleanNetwork:
    """Parse a whole ``targets, factors`` model into a network.

    The parse refuses all that the constructors would: names are unique
    and declared, and each function is minimized and checked as a cover.
    So the components and the network are built without those checks.
    """
    entries: list[tuple[int, str, str]] = []  # (line number, name, rhs)
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if not header_seen:
            if not _HEADER_RE.match(line):
                raise ModelSyntaxError("expected 'targets, factors' header", lineno)
            header_seen = True
            continue
        name, comma, rhs = line.partition(",")
        if not comma:
            raise ModelSyntaxError("expected 'name, expression'", lineno)
        name = name.rstrip()
        if not _NAME_RE.match(name):
            raise ModelSyntaxError(f"bad component name {name!r}", lineno)
        if name.lower() in _CONSTANTS:
            raise ModelSyntaxError(f"{name} is a constant, not a component name", lineno)
        entries.append((lineno, name, rhs.lstrip()))
    if not header_seen:
        raise ModelSyntaxError("empty model: no 'targets, factors' header")

    order: dict[str, int] = {}
    for lineno, name, _ in entries:
        if name in order:
            raise DuplicateComponent(f"{name} declared twice", lineno)
        order[name] = len(order)

    comps: list[Component] = []
    for lineno, name, rhs in entries:
        lowered = rhs.lower()
        if lowered in _CONSTANTS:
            comps.append(Component._unchecked(name, (), None, None, lowered == "true"))
            continue
        shape, ctx, names = _read_expression(rhs, normalize, lineno, name)
        try:
            regs = tuple(map(order.__getitem__, names))
        except KeyError as exc:
            raise UnknownVariable(
                f"{exc.args[0]} is not a declared component", lineno
            ) from None
        comps.append(Component._unchecked(name, regs, shape, ctx, None))
    return BooleanNetwork._unchecked(tuple(comps))


def load_model(path: str, normalize: bool = False) -> BooleanNetwork:
    """Parse a model file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # decoded whole, so the offset is the file's
        raise ModelSyntaxError(
            f"byte {data[exc.start]:#04x} at offset {exc.start} is not UTF-8 text",
            data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return parse_model(text, normalize=normalize)


# ---------------------------------------------------------------------------
# Rendering


def render_expression(
    shape: FunctionShape, ctx: RegulatorContext, names: tuple[str, ...] | None = None
) -> str:
    """Expression text for a shape: clauses &-joined, |-separated.

    Multi-literal clauses are parenthesized when there are several clauses.
    Default names are s1..sp.
    """
    if names is None:
        names = tuple(f"s{k + 1}" for k in range(shape.arity))
    if len(names) != shape.arity:
        raise InvalidArgument("one name per regulator required")
    parts = []
    many = len(shape.clauses) > 1
    for idxs in shape.index_sets():
        lits = [
            ("!" if ctx.signs[i - 1] == NEGATIVE else "") + names[i - 1]
            for i in idxs
        ]
        body = " & ".join(lits)
        parts.append(f"({body})" if many and len(lits) > 1 else body)
    return " | ".join(parts)


def render_model(bn: BooleanNetwork) -> str:
    """Model text for a network; parses back to an equal network."""
    lines = ["targets, factors"]
    for c in bn.components:
        if c.shape is None:
            rhs = "true" if c.constant else "false"
        else:
            names = tuple(bn.components[r].name for r in c.regulators)
            rhs = render_expression(c.shape, c.ctx, names)
        lines.append(f"{c.name}, {rhs}")
    return "\n".join(lines) + "\n"


def network_to_json(bn: BooleanNetwork) -> str:
    """Deterministic JSON description of a network."""
    comps = []
    for c in bn.components:
        if c.shape is None:
            comps.append(
                {"name": c.name, "regulators": [], "function": str(bool(c.constant)).lower()}
            )
            continue
        names = tuple(bn.components[r].name for r in c.regulators)
        comps.append(
            {
                "name": c.name,
                "regulators": [{"name": nm, "sign": sign}
                               for nm, sign in zip(names, str(c.ctx))],
                "function": render_expression(c.shape, c.ctx, names),
                "clauses": [list(s) for s in c.shape.index_sets()],
            }
        )
    return json.dumps({"components": comps}, indent=2)


def stg_dot_lines(stg: STG, names: Iterable[str] | None = None) -> Iterator[str]:
    """GraphViz text for a transition graph, line by line; stable states get double circles."""
    n = stg.n
    text = _state_text(n)
    label = ", ".join(names) if names else None
    yield "digraph stg {\n"
    if label:
        yield f'  label="components: {label}";\n'
    yield "  node [shape=circle];\n"
    stable = set(stg.stable_states())
    for s in range(1 << n):
        shape = "doublecircle" if s in stable else "circle"
        yield f'  "{text(s)}" [shape={shape}];\n'
    for s, t in stg.edges():
        yield f'  "{text(s)}" -> "{text(t)}";\n'
    yield "}\n"


def stg_to_dot(stg: STG, names: Iterable[str] | None = None) -> str:
    """The lines of :func:`stg_dot_lines` as one string."""
    return "".join(stg_dot_lines(stg, names))


def slice_to_dot(sl: HasseSlice) -> str:
    """GraphViz text for a local neighborhood (edges point upward)."""
    lines = ["digraph neighborhood {", "  rankdir=BT;", "  node [shape=box];"]
    center = str(sl.center)
    lines.append(f'  "{center}" [style=bold];')
    for st in sl.parents:
        lines.append(f'  "{center}" -> "{st.shape}" [label="{st.rule} d{st.delta}"];')
    for st in sl.children:
        lines.append(f'  "{st.shape}" -> "{center}" [label="{st.rule} d{st.delta}"];')
    for sib in sl.siblings:
        lines.append(f'  "{sib}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
