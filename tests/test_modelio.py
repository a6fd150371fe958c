from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funspace import (
    BooleanNetwork,
    Component,
    FunctionShape,
    RegulatorContext,
    attractors,
    enumerate_all,
    evaluate,
    hasse_slice,
    load_model,
    make_shape,
    network_to_json,
    parse_expression,
    parse_model,
    render_expression,
    render_model,
    slice_to_dot,
    stable_states,
    stg_async,
    stg_sync,
    stg_to_dot,
)
from funspace.errors import (
    DualRegulation,
    DuplicateComponent,
    ExpansionTooLarge,
    ModelSyntaxError,
    NotCover,
    NotDNFAfterNormalization,
    UnknownVariable,
)
from funspace.modelio import MAX_DNF_CLAUSES, stg_dot_lines
from funspace.shapes import bits_of
from tests.conftest import FIXTURES, networks


# ---------------------------------------------------------------------------
# Expressions


def test_parse_expression_worked_example():
    pf = parse_expression("s1 | (s2 & !s3)")
    assert pf.shape == make_shape([[1], [2, 3]], 3)
    assert str(pf.ctx) == "++-"
    assert pf.names == ("s1", "s2", "s3")


def test_names_by_first_appearance():
    pf = parse_expression("b & !a")
    assert pf.names == ("b", "a")
    assert str(pf.ctx) == "+-"


def test_keyword_operators_and_precedence():
    # AND binds tighter than OR; keywords are case-insensitive
    pf = parse_expression("s1 OR s2 AND NOT s3")
    assert pf.shape == make_shape([[1], [2, 3]], 3)
    assert parse_expression("s1 or s2 and not s3").shape == pf.shape
    assert parse_expression("s1 Or s2 And Not s3").shape == pf.shape
    # a keyword is a whole name; any whitespace separates tokens
    assert parse_expression("ORs1 | ands2 & Nots3").names == ("ORs1", "ands2", "Nots3")
    same = parse_expression("  s1\t|\n( s2 &\u00a0!s3 )  ")
    assert (same.shape, same.ctx, same.names) == (pf.shape, pf.ctx, pf.names)


def test_dual_regulation_rejected():
    with pytest.raises(DualRegulation):
        parse_expression("a | !a")
    with pytest.raises(DualRegulation):
        parse_expression("a | (b & !a)")


def test_redundant_clause_rejected():
    # absorption strips (a & b) then b covers nothing
    with pytest.raises(NotCover):
        parse_expression("a | (a & b)")


def test_redundant_regulators_are_named_as_typed():
    with pytest.raises(NotCover) as err:
        parse_expression("a | (a & b)")
    assert str(err.value) == "regulator(s) b appear only in absorbed clauses"
    with pytest.raises(NotCover) as err:  # in the order they first appear
        parse_expression("(c & a) | a | (a & b & !d)")
    assert str(err.value) == "regulator(s) c, b, d appear only in absorbed clauses"
    with pytest.raises(NotCover) as err:
        parse_model("targets, factors\na, a | (a & b)\nb, a\n")
    assert str(err.value) == "line 2: regulator(s) b appear only in absorbed clauses"


def test_non_dnf_needs_normalize():
    with pytest.raises(NotDNFAfterNormalization):
        parse_expression("!(a & b)")
    pf = parse_expression("!(a & b)", normalize=True)
    assert pf.shape == make_shape([[1], [2]], 2)
    assert str(pf.ctx) == "--"


def test_normalize_distributes():
    pf = parse_expression("(a | b) & c", normalize=True)
    # distribution yields (a & c) | (b & c); indices follow first
    # appearance in the distributed form, so c becomes regulator 2
    assert pf.names == ("a", "c", "b")
    assert pf.shape == make_shape([[1, 2], [2, 3]], 3)
    assert str(pf.ctx) == "+++"


def test_normalize_drops_repeats_as_it_distributes():
    # 2^20 clauses if repeats were kept; three, numbered by first appearance
    pf = parse_expression(" & ".join(["(b | a)"] * 20), normalize=True)
    assert pf.names == ("b", "a")
    assert pf.shape == make_shape([[1], [2]], 2)


def test_normalize_refuses_a_large_expansion():
    # 2^12 clauses fit; the thirteenth factor would double them past the bound
    factors = [f"(a{k} | b{k})" for k in range(13)]
    assert 2 ** 12 == MAX_DNF_CLAUSES
    with pytest.raises(ExpansionTooLarge, match="line 3: .* more than 4096"):
        parse_model("targets, factors\nx, y\ny, " + " & ".join(factors) + "\n",
                    normalize=True)
    pf = parse_expression(" & ".join(factors[:6]), normalize=True)
    assert pf.shape.n_clauses == 2 ** 6


def test_strict_parser_merges_parenthesized_groups():
    for text, want in [("(a | b) | c", [[1], [2], [3]]),
                       ("(a & b) & c", [[1, 2, 3]]),
                       ("a | ((b & (c & !d)) | e)", [[1], [2, 3, 4], [5]])]:
        pf = parse_expression(text)
        assert pf.shape == make_shape(want, len(pf.names))
        assert pf.names == tuple("abcde"[:len(pf.names)])
        assert parse_expression(text, normalize=True) == pf


def test_strict_parser_names_what_is_not_dnf():
    for text, cause in [("a & (b | c)", "a disjunction inside a conjunction"),
                        ("(a | b) & c", "a disjunction inside a conjunction"),
                        ("!(a & b)", "negation applies to a whole subexpression"),
                        ("(a | b) | !(c & d)", "negation applies to a whole subexpression")]:
        with pytest.raises(NotDNFAfterNormalization, match=cause):
            parse_expression(text)
    pf = parse_expression("a & (b | c)", normalize=True)
    assert pf.shape == make_shape([[1, 2], [1, 3]], 3)
    assert pf.names == ("a", "b", "c")


def test_syntax_errors():
    for text in ("", "a |", "a & (b", "a b", "| a", "!"):
        with pytest.raises(ModelSyntaxError):
            parse_expression(text)


# Random and/or/not trees over at most five names, and their text.
READER_NAMES = "abcde"


def _tree_value(tree, values) -> bool:
    kind = tree[0]
    if kind == "var":
        return values[tree[1]]
    if kind == "not":
        return not _tree_value(tree[1], values)
    kids = (_tree_value(k, values) for k in tree[1])
    return all(kids) if kind == "and" else any(kids)


@st.composite
def expression_trees(draw):
    """(tree, text): at most 12 leaves, so no product nears MAX_DNF_CLAUSES;
    operators as symbols or keywords, optional parentheses wherever the
    precedence allows them."""
    names = READER_NAMES[:draw(st.integers(1, len(READER_NAMES)))]
    leaf = st.sampled_from(names).map(lambda n: ("var", n))
    tree = draw(st.recursive(
        leaf,
        lambda kids: st.one_of(
            kids.map(lambda k: ("not", k)),
            st.tuples(st.sampled_from(["and", "or"]), st.lists(kids, min_size=2, max_size=3))),
        max_leaves=12))

    def text(node, parent=None) -> str:
        kind = node[0]
        if kind == "var":
            return node[1]
        if kind == "not":
            return draw(st.sampled_from(["!", "NOT ", "not "])) + text(node[1], "not")
        op = draw(st.sampled_from({"and": [" & ", " AND ", "&"], "or": [" | ", " or ", "|"]}[kind]))
        body = op.join(text(k, kind) for k in node[1])
        needed = parent == "not" or parent == "and" and kind == "or"
        return f"({body})" if needed or parent and draw(st.booleans()) else body

    return tree, text(tree)


@settings(max_examples=300, deadline=None)
@given(expression_trees())
def test_the_reader_keeps_each_trees_value(case):
    tree, text = case
    try:
        strict = parse_expression(text)
    except (NotDNFAfterNormalization, NotCover, DualRegulation):
        strict = None
    try:
        pf = parse_expression(text, normalize=True)
    except (NotCover, DualRegulation):  # not a consistent function
        assert strict is None, text
        return
    # what the strict reading accepts, normalizing reads the same
    assert strict is None or strict == pf, text
    for bits in range(1 << len(READER_NAMES)):
        values = {n: bool(bits >> k & 1) for k, n in enumerate(READER_NAMES)}
        state = sum(values[n] << k for k, n in enumerate(pf.names))
        assert evaluate(pf.shape, pf.ctx, state) == _tree_value(tree, values), text


# The exact message a user reads for each malformed expression (line=4).
PARSER_ERRORS = [
    ("", ModelSyntaxError, "line 4: empty expression"),
    ("a |", ModelSyntaxError, "line 4: unexpected end of expression"),
    ("a & (b", ModelSyntaxError, "line 4: unexpected end of expression"),
    ("!", ModelSyntaxError, "line 4: unexpected end of expression"),
    ("(a", ModelSyntaxError, "line 4: unexpected end of expression"),
    ("(a b", ModelSyntaxError, "line 4: expected ')'"),
    ("a b", ModelSyntaxError, "line 4: trailing input at 'b'"),
    ("a )", ModelSyntaxError, "line 4: trailing input at ')'"),
    ("| a", ModelSyntaxError, "line 4: unexpected '|'"),
    ("a & )", ModelSyntaxError, "line 4: unexpected ')'"),
    ("a&&b", ModelSyntaxError, "line 4: unexpected '&'"),
    ("a $ b", ModelSyntaxError, "line 4: unexpected character '$'"),
    ("a\u00e9", ModelSyntaxError, "line 4: unexpected character '\u00e9'"),
    ("1a", ModelSyntaxError, "line 4: unexpected character '1'"),
    ("a |\t$", ModelSyntaxError, "line 4: unexpected character '$'"),
    ("a & (b | c)", NotDNFAfterNormalization,
     "line 4: a disjunction inside a conjunction; pass --normalize to rewrite it"),
    ("!(a & b)", NotDNFAfterNormalization,
     "line 4: negation applies to a whole subexpression; pass --normalize to rewrite it"),
    ("a | !a", DualRegulation, "line 4: a is used both plain and negated"),
]


@pytest.mark.parametrize("text, error, message", PARSER_ERRORS)
def test_parser_error_texts_are_pinned(text, error, message):
    with pytest.raises(error) as exc:
        parse_expression(text, line=4)
    assert type(exc.value) is error
    assert (str(exc.value), exc.value.line) == (message, 4)


def test_render_expression():
    pf = parse_expression("s1 | (s2 & !s3)")
    assert render_expression(pf.shape, pf.ctx, pf.names) == "s1 | (s2 & !s3)"
    # default names: s1..sp
    assert render_expression(pf.shape, pf.ctx) == "s1 | (s2 & !s3)"
    maj = make_shape([[1, 2], [1, 3], [2, 3]], 3)
    assert render_expression(maj, RegulatorContext.from_str("++-")) == \
        "(s1 & s2) | (s1 & !s3) | (s2 & !s3)"


def test_expression_render_parse_fixpoint():
    # re-parsing a rendered expression may relabel regulators (indices
    # follow first appearance), but the rendered string is a fixpoint
    # and the shape is stable once names are carried along
    for p in (1, 2, 3):
        for bits in range(1 << p):
            ctx = RegulatorContext.from_str(
                "".join("-" if bits & (1 << k) else "+" for k in range(p))
            )
            for s in enumerate_all(p):
                pf = parse_expression(render_expression(s, ctx))
                text = render_expression(pf.shape, pf.ctx, pf.names)
                pf2 = parse_expression(text)
                assert pf2.shape == pf.shape
                assert pf2.ctx == pf.ctx
                assert pf2.names == pf.names
                # and the canonical string no longer moves
                assert render_expression(pf2.shape, pf2.ctx, pf2.names) == text


# ---------------------------------------------------------------------------
# Model files


def test_load_toy(toy_bn):
    assert toy_bn.names() == ("g1", "g2", "g3")
    g1 = toy_bn.components[0]
    assert g1.regulators == (0, 1, 2)
    assert g1.ctx.self_index == 1
    assert g1.shape == make_shape([[1], [2, 3]], 3)
    g2 = toy_bn.components[1]
    assert g2.regulators == (2,)
    assert str(g2.ctx) == "-"


def test_model_round_trip(toy_bn):
    text = render_model(toy_bn)
    again = parse_model(text)
    assert render_model(again) == text
    for a, b in zip(toy_bn.components, again.components):
        assert (a.name, a.regulators, a.shape, a.ctx, a.constant) == \
            (b.name, b.regulators, b.shape, b.ctx, b.constant)


@settings(max_examples=100, deadline=None)
@given(networks())
def test_rendered_networks_parse_back_to_the_same_dynamics(bn):
    # regulators are renumbered by first appearance in the text, so the
    # parsed components may differ; their tables on the state space may not
    again = parse_model(render_model(bn))
    assert again.names() == bn.names()
    assert stg_async(again).tables == stg_async(bn).tables
    assert stable_states(again) == stable_states(bn)
    for build in (stg_async, stg_sync):
        assert attractors(build(again)) == attractors(build(bn))


def test_th_fixture_matches_builtin(th_bn):
    from_file = load_model(FIXTURES / "th_cell.bnet")
    assert render_model(from_file) == render_model(th_bn)


def test_header_required_and_case_insensitive():
    with pytest.raises(ModelSyntaxError):
        parse_model("a, b\nb, a\n")
    bn = parse_model("TARGETS, FACTORS\na, b\nb, !a\n")
    assert bn.names() == ("a", "b")


def test_comments_blanks_crlf():
    text = "targets, factors\n\n# comment line\na, b\nb, !a\n"
    bn = parse_model(text)
    assert bn.names() == ("a", "b")
    bn2 = parse_model(text.replace("\n", "\r\n"))
    assert render_model(bn2) == render_model(bn)


def test_constants():
    bn = parse_model("targets, factors\nx, false\ny, true\nz, x | y\n")
    assert bn.components[0].constant is False
    assert bn.components[1].constant is True
    assert bn.components[2].shape == make_shape([[1], [2]], 2)


def test_model_errors_carry_line_numbers():
    with pytest.raises(UnknownVariable) as err:
        parse_model("targets, factors\na, b | c\nb, a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DuplicateComponent) as err:
        parse_model("targets, factors\na, b\na, !b\nb, a\n")
    assert "line 3" in str(err.value)


# The exact message and line a user reads for each malformed model.
MODEL_ERRORS = [
    ("targets, factors\na b\n", ModelSyntaxError, "line 2: expected 'name, expression'", 2),
    ("targets, factors\na, b\nb, a\nb\n", ModelSyntaxError,
     "line 4: expected 'name, expression'", 4),
    ("targets, factors\n1a, b\n", ModelSyntaxError, "line 2: bad component name '1a'", 2),
    ("targets, factors\na b, c\n", ModelSyntaxError, "line 2: bad component name 'a b'", 2),
    ("targets, factors\né, a\n", ModelSyntaxError, "line 2: bad component name 'é'", 2),
    ("targets, factors\n, b\n", ModelSyntaxError, "line 2: bad component name ''", 2),
    ("targets, factors\nx, true\ntrue, x\n", ModelSyntaxError,
     "line 3: true is a constant, not a component name", 3),
    ("targets, factors\na,\n", ModelSyntaxError, "line 2: empty expression", 2),
    ("targets, factors\na,   # b\n", ModelSyntaxError, "line 2: empty expression", 2),
    ("targets, factors\na, b, c\nb, a\n", ModelSyntaxError,
     "line 2: unexpected character ','", 2),
    ("a, b\n", ModelSyntaxError, "line 1: expected 'targets, factors' header", 1),
    ("targets factors\n", ModelSyntaxError, "line 1: expected 'targets, factors' header", 1),
    ("targets, factors, x\n", ModelSyntaxError, "line 1: expected 'targets, factors' header", 1),
    ("", ModelSyntaxError, "empty model: no 'targets, factors' header", None),
    ("# only\n\n", ModelSyntaxError, "empty model: no 'targets, factors' header", None),
    ("targets, factors\na, b\na, !b\nb, a\n", DuplicateComponent, "line 3: a declared twice", 3),
    ("targets, factors\na, b | c\nb, a\n", UnknownVariable,
     "line 2: c is not a declared component", 2),
    # every line is read before any expression, and names before regulators
    ("targets, factors\na, (\n1b, a\n", ModelSyntaxError, "line 3: bad component name '1b'", 3),
    ("targets, factors\na, (\na, b\n", DuplicateComponent, "line 3: a declared twice", 3),
    ("targets, factors\na, c\nb, (\n", UnknownVariable, "line 2: c is not a declared component", 2),
]


@pytest.mark.parametrize("text, error, message, line", MODEL_ERRORS)
def test_model_error_texts_are_pinned(text, error, message, line):
    with pytest.raises(error) as exc:
        parse_model(text)
    assert type(exc.value) is error
    assert (str(exc.value), exc.value.line) == (message, line)


@pytest.mark.parametrize("text", [
    "targets, factors\na,b\nb,!a\n",  # no spaces
    "targets, factors\na, b  # a, b\nb, !a # ,\n",  # a comment holding a comma
    "targets, factors\r\na, b\r\nb, !a\r\n",  # CRLF
    "# header next\n\n  targets ,factors  \n\ta\t,\tb\nb, !a",  # tabs, no final newline
])
def test_model_line_forms_parse(text):
    assert render_model(parse_model(text)) == "targets, factors\na, b\nb, !a\n"


@pytest.mark.parametrize("text, name", [("true", "true"), ("a | TRUE", "TRUE"),
                                        ("False & !c", "False"), ("!x | (y & fAlSe)", "fAlSe")])
def test_constant_names_are_not_regulators(text, name):
    with pytest.raises(ModelSyntaxError) as err:
        parse_expression(text, line=4)
    assert str(err.value) == f"line 4: {name} is a constant, not a regulator name"
    with pytest.raises(ModelSyntaxError, match=f"^line 2: {name} is a constant, not a regulator"):
        parse_model(f"targets, factors\nx, b | {text}\na, x\nb, a\nc, b\ny, b\n")


@pytest.mark.parametrize("name", ["true", "FALSE", "True"])
def test_constant_names_are_not_components(name):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"targets, factors\na, b\n{name}, a\nb, TRUE\n")
    assert str(err.value) == f"line 3: {name} is a constant, not a component name"


@st.composite
def model_texts(draw):
    """A strict-DNF model of a random network with constant inputs: clauses
    and literals in any order, some clauses repeated or absorbed, names of
    constants in any case."""
    bn = draw(networks(max_n=7))
    inputs = draw(st.lists(st.booleans(), min_size=1, max_size=2))
    bn = BooleanNetwork(bn.components + tuple(
        Component(name=f"k{j}", constant=v) for j, v in enumerate(inputs)))
    lines = ["targets, factors"]
    for c in bn.components:
        if c.shape is None:
            word = "true" if c.constant else "false"
            lines.append(f"{c.name}, {draw(st.sampled_from([word, word.upper(), word.title()]))}")
            continue
        names = [bn.components[r].name for r in c.regulators]
        masks = list(c.shape.clauses)
        masks += draw(st.lists(st.sampled_from(masks), max_size=2))  # repeated
        extra = draw(st.integers(0, (1 << c.shape.arity) - 1))
        masks += [m | extra for m in draw(st.lists(st.sampled_from(masks), max_size=2))]
        terms = []
        for m in draw(st.permutations(masks)):
            lits = [("!" if c.ctx.neg_mask >> k & 1 else "") + names[k] for k in bits_of(m)]
            term = " & ".join(draw(st.permutations(lits)))
            terms.append(f"({term})" if len(lits) > 1 and draw(st.booleans()) else term)
        lines.append(f"{c.name}, {' | '.join(terms)}")
    return "\n".join(lines) + "\n", bn


def _validated_copy(bn):
    """The network rebuilt field by field through the checking constructors."""
    comps = []
    for c in bn.components:
        if c.shape is None:
            comps.append(Component(name=c.name, constant=c.constant))
            continue
        comps.append(Component(
            name=c.name, regulators=c.regulators,
            shape=FunctionShape(c.shape.arity, c.shape.clauses),
            ctx=RegulatorContext(c.ctx.signs, c.ctx.self_index)))
    return BooleanNetwork(tuple(comps))


@settings(max_examples=200, deadline=None)
@given(model_texts())
def test_parsed_networks_equal_their_validated_copies(case):
    # the parser builds without the constructors' checks; what it builds
    # must pass them and equal, hash and mask as the checked build does
    text, source = case
    parsed = parse_model(text)
    copy = _validated_copy(parsed)
    assert parsed == copy and hash(parsed) == hash(copy)
    for a, b, c in zip(parsed.components, copy.components, source.components):
        assert hash(a) == hash(b) and a.constant is c.constant
        if a.ctx is not None:
            assert a.ctx.neg_mask == b.ctx.neg_mask
            assert (a.ctx, hash(a.ctx), a.shape) == (b.ctx, hash(b.ctx), b.shape)
    assert stg_async(parsed).tables == stg_async(source).tables


def test_model_normalize_flag():
    text = "targets, factors\na, !(b & c)\nb, a\nc, a\n"
    with pytest.raises(NotDNFAfterNormalization):
        parse_model(text)
    bn = parse_model(text, normalize=True)
    assert bn.components[0].shape == make_shape([[1], [2]], 2)


# ---------------------------------------------------------------------------
# Exports


def test_network_json_schema(toy_bn, th_bn):
    doc = json.loads(network_to_json(toy_bn))
    assert [c["name"] for c in doc["components"]] == ["g1", "g2", "g3"]
    g1 = doc["components"][0]
    assert g1["regulators"] == [
        {"name": "g1", "sign": "+"},
        {"name": "g2", "sign": "+"},
        {"name": "g3", "sign": "-"},
    ]
    assert g1["function"] == "g1 | (g2 & !g3)"
    assert g1["clauses"] == [[1], [2, 3]]
    ifng = next(c for c in json.loads(network_to_json(th_bn))["components"]
                if c["name"] == "IFNg")
    assert len(ifng["regulators"]) == 5
    stat3 = next(r for r in ifng["regulators"] if r["name"] == "STAT3")
    assert stat3["sign"] == "-"
    # deterministic output
    assert network_to_json(toy_bn) == network_to_json(toy_bn)


def test_stg_dot(toy_bn):
    dot = stg_to_dot(stg_async(toy_bn), toy_bn.names())
    assert dot.startswith("digraph")
    assert dot.count("doublecircle") == 3  # the three stable states
    assert '"000" -> "010";' in dot
    assert dot == stg_to_dot(stg_async(toy_bn), toy_bn.names())


def test_stg_dot_lines_stream_the_dot_text(toy_bn):
    for build in (stg_async, stg_sync):
        lines = list(stg_dot_lines(build(toy_bn), toy_bn.names()))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == stg_to_dot(build(toy_bn), toy_bn.names())
        assert len(lines) == 3 + 8 + build(toy_bn).n_edges + 1  # head, nodes, edges, "}"


def test_slice_dot():
    sl = hasse_slice(make_shape([[1], [2, 3]], 3), sibling_via="both")
    dot = slice_to_dot(sl)
    assert "rankdir=BT" in dot
    assert "parent-r3" in dot
    assert "dashed" in dot  # siblings drawn dashed
    assert dot == slice_to_dot(sl)
