"""The evaluator's observable behaviour, pinned.

Random expressions and random statement bodies run on a fixture project with
their variables bound to every kind of value. Each outcome, the value's repr
or the error with its position plus whatever was printed, goes into one
digest, recorded when expressions were still interpreted node by node; any
change of value, error text, error position or evaluation order changes it.
"""

import hashlib
import random
import re
from collections import Counter as Tally

import pytest

from craql import (
    Environment,
    Evaluator,
    OutputSink,
    QueryRuntimeError,
    bundled_query_path,
    parse_query_document,
)
from craql.engine.runtime import Counter, NodeList, NodeRef
from craql.fixtures import generate_random_source
from craql.minilang import load_project
from craql.query.ast import (
    Assign,
    BoolLit,
    Call,
    CallQuery,
    CountStar,
    ExprStmt,
    If,
    IncrDecr,
    Infix,
    InputSpec,
    INPUT_DEFAULT,
    INPUT_DIRECTLY_IN,
    INPUT_IN,
    IntLit,
    MOD_INMOST,
    MOD_NONE,
    MOD_OUTMOST,
    Pattern,
    Prefix,
    PrintStmt,
    PropAccess,
    QueryDocument,
    SINGLE,
    STAR,
    SelectQuery,
    SelectStmt,
    StrLit,
    TypeLit,
    VarRef,
    While,
    _PRECEDENCE,
    unparse_document,
    unparse_expr,
)

from conftest import find_node, load_fixture_project, run_document
from test_engine_expr import eval_expr
from test_query_frontend import random_expr

EXPRESSION_DIGEST = "df61cb699d723d2bf86cabb19117982ff995af74fb6df504c965138589ec0857"
BODY_DIGEST = "def792ba3712c4ab409676712277a015d57121ac295c056f0be74c8d29d4df89"

VARIABLES = ("a", "count", "x1")
FUNCTIONS = (
    "max", "min", "print", "parent", "position", "linenumber", "filename", "depth",
    "nodetype", "isnodetype", "methodbinding", "typebinding", "isparent", "contains",
    "directly_contains", "nope",
)
TYPES = ("Block", "Statement", "NumberLiteral", "ClassDeclaration", "MethodInvocation", "Nope")
PROPERTIES = ("name", "body", "statements", "expression", "token", "Block", "Expression", "nope")


@pytest.fixture(scope="module")
def project():
    return load_fixture_project("pin", "Sample.mj", "Fact.mj", "Linked.mj")


def binding_sets(project):
    """Six variable bindings; across them each variable holds a node, a node
    list, an int, a string, a boolean and nothing."""
    def node(type_name, text=None):
        return NodeRef(find_node(project, type_name, text).id)

    method = node("MethodDeclaration", "fact")
    number = node("NumberLiteral", "1")
    call = node("MethodInvocation", "fact")
    block = node("Block", "i = i + 1")
    blocks = NodeList(tuple(n.id for n in project.nodes if n.type == "Block")[:3])
    return [
        {"a": method, "count": blocks, "x1": 2},
        {"a": "s", "count": True, "x1": number},
        {"a": blocks, "count": call, "x1": "t"},
        {"a": 7, "x1": block},
        {"a": False, "count": "", "x1": NodeList(())},
        {},
    ]


def rich_expr(rng: random.Random, depth: int):
    """A random expression that calls every builtin, with any arity, and
    reads properties and children by name."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.randrange(7)
        if leaf == 0:
            return IntLit(rng.randrange(4))
        if leaf == 1:
            return StrLit(rng.choice(["", "a", "1"]))
        if leaf == 2:
            return BoolLit(rng.random() < 0.5)
        if leaf == 3:
            return TypeLit(rng.choice(TYPES))
        if leaf == 4:
            return CountStar()
        return VarRef(rng.choice(VARIABLES + ("u",)))
    kind = rng.randrange(6)
    if kind <= 1:
        op = rng.choice(sorted(_PRECEDENCE))
        return Infix(op, rich_expr(rng, depth - 1), rich_expr(rng, depth - 1))
    if kind == 2:
        return Prefix(rng.choice("!-"), rich_expr(rng, depth - 1))
    if kind == 3:
        return PropAccess(VarRef(rng.choice(VARIABLES)), rng.choice(PROPERTIES), rng.random() < 0.5)
    name = rng.choice(FUNCTIONS)
    # `print` is a keyword, so it takes no receiver.
    receiver = rich_expr(rng, depth - 1) if name != "print" and rng.random() < 0.7 else None
    args = [rich_expr(rng, depth - 1) for _ in range(rng.choice((0, 1, 1, 1, 2)))]
    return Call(name, receiver, args)


def reparsed(expr):
    """`expr` as the parser builds it from its text, with real positions."""
    text = f"select ({{Block}} b) where {unparse_expr(expr)} {{ }}"
    return parse_query_document(text, "<pin>").entry.where


def outcome(run) -> str:
    try:
        return repr(run())
    except QueryRuntimeError as exc:
        return f"error {exc}"
    except Exception as exc:  # pinned too: a change of crash is a change
        return f"crash {type(exc).__name__}: {exc}"


def expression_outcomes(project) -> list[str]:
    rng = random.Random(20240)
    exprs = [random_expr(rng, 4) for _ in range(400)]
    rng = random.Random(7)
    exprs += [rich_expr(rng, 4) for _ in range(400)]
    lines = []
    for i, expr in enumerate(map(reparsed, exprs)):
        for seed in binding_sets(project):
            env, sink = Environment(seed), OutputSink()
            if i % 2:
                env.count_stack.append(Counter())
                env.count_stack[-1].count = 3
            result = outcome(lambda: Evaluator(project, env, sink, "<pin>").eval(expr))
            lines.append(f"{result} {sink.prints}")
    return lines


def random_body(rng: random.Random, depth: int, bound: tuple = (), loops: int = 0) -> list:
    """Up to three random statements; `bound` names the pattern variables of
    the enclosing selects, which a nested select may not bind again."""
    body = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(10 if depth else 6)
        target = rng.choice(VARIABLES + ("y",))
        if kind == 0:
            body.append(Assign(target, rng.choice(["=", "+=", "-="]), rich_expr(rng, 2)))
        elif kind == 1:
            body.append(IncrDecr(target, rng.choice(["++", "--"])))
        elif kind == 2:
            body.append(PrintStmt(rich_expr(rng, 2)))
        elif kind == 3:
            value = rich_expr(rng, 2)
            while unparse_expr(value).startswith("print"):  # would parse as a print statement
                value = rich_expr(rng, 2)
            body.append(ExprStmt(value))
        elif kind == 4:
            body.append(CallQuery("q2", rng.choice([None, InputSpec(INPUT_IN, VarRef(target))])))
        elif kind == 5:
            body.append(Assign(target, "=", rng.choice([IntLit(1), StrLit("s"), VarRef("cu")])))
        elif kind <= 7:
            els = random_body(rng, depth - 1, bound, loops) if rng.random() < 0.5 else None
            body.append(If(rich_expr(rng, 2), random_body(rng, depth - 1, bound, loops), els))
        elif kind == 8:
            # A bounded loop: no generated statement writes the counter.
            counter = f"i{loops}"
            inner = random_body(rng, depth - 1, bound, loops + 1) + [IncrDecr(counter, "++")]
            body += [Assign(counter, "=", IntLit(0)),
                     While(Infix("<", VarRef(counter), IntLit(rng.randrange(4))), inner)]
        else:
            free = [v for v in VARIABLES if v not in bound]
            if free:
                body.append(SelectStmt(random_select(rng, depth - 1, bound, free, loops)))
    return body


def random_select(rng: random.Random, depth: int, bound: tuple, free: list,
                  loops: int) -> SelectQuery:
    if len(free) > 1 and rng.random() < 0.2:
        pattern = Pattern(STAR, "MethodDeclaration", free[0], rng.choice(TYPES[:3]), free[1])
    else:
        pattern = Pattern(SINGLE, rng.choice(TYPES), rng.choice(free))
    spec = rng.choice([InputSpec(INPUT_DEFAULT), InputSpec(INPUT_IN, VarRef("cu")),
                       InputSpec(INPUT_DIRECTLY_IN, VarRef(rng.choice(VARIABLES)))])
    modifier = rng.choice([MOD_NONE, MOD_NONE, MOD_OUTMOST, MOD_INMOST])
    if pattern.kind != SINGLE:
        modifier = MOD_NONE
    where = rich_expr(rng, 3) if rng.random() < 0.7 else None
    bound += tuple(pattern.variables())
    return SelectQuery(pattern, modifier, spec, where, random_body(rng, depth, bound, loops))


def body_outcomes(project) -> list[str]:
    rng = random.Random(11)
    seeds = binding_sets(project)
    lines = []
    for i in range(300):
        entry = SelectQuery(Pattern(SINGLE, "CompilationUnit", "cu"), MOD_NONE,
                            InputSpec(INPUT_DEFAULT), None, random_body(rng, 2, ("cu",)))
        called = SelectQuery(Pattern(SINGLE, "ReturnStatement", "r"), MOD_NONE,
                             InputSpec(INPUT_DEFAULT), None, [IncrDecr("hits", "++")])
        text = unparse_document(QueryDocument([(None, entry), ("q2", called)]))
        env, sink = Environment(seeds[i % len(seeds)]), OutputSink()

        def run():
            doc = parse_query_document(text, "<pin>")
            ev = Evaluator(project, env, sink, "<pin>")
            ev.execute_document(doc)
            return sorted(env.variables.items()), ev.stats.nodes_visited

        result = outcome(run)
        rows = [r.to_line() for r in sink.rows]
        lines.append(f"{result} {sink.prints} {rows}")
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPinnedOutcomes:
    def test_expressions(self, project):
        lines = expression_outcomes(project)
        # Enough cases get past their first error to pin values, not only errors.
        assert sum(not line.startswith(("error", "crash")) for line in lines) > 1400
        assert digest(lines) == EXPRESSION_DIGEST

    def test_statement_bodies(self, project):
        lines = body_outcomes(project)
        assert sum(not line.startswith(("error", "crash")) for line in lines) > 60
        assert digest(lines) == BODY_DIGEST


class TestEvaluationOrder:
    @pytest.mark.parametrize("text, seed, expected", [
        ("false && {Nope}", {}, False),
        ("true || {Nope}.name", {}, True),
        ("1 < 2 || x.position()", {"x": "s"}, True),
        ("false && count(*) > 0", {}, False),
        ("false && nope(1)", {}, False),
        ("false && x.parent(1)", {"x": "s"}, False),
        ("false && depth()", {}, False),
        ("!(true || max(1))", {}, False),
    ])
    def test_errors_wait_until_evaluation_reaches_them(self, project, text, seed, expected):
        assert eval_expr(project, text, Environment(seed)) is expected

    @pytest.mark.parametrize("text, error", [
        ("true && {Nope}", "<query>:1:9: unknown node type Nope"),
        ("1 > 2 || x.position()", "<query>:1:12: position() receiver is a string, not a node"),
        ("true && count(*) > 0", "<query>:1:9: count(*) outside a select"),
        ("x.nope(1)", "<query>:1:3: unknown function nope"),
        ("x.parent(1)", "<query>:1:3: parent() receiver is a string, not a node"),
        ("u.parent(1)", "<query>:1:3: parent() takes 0 arguments, got 1"),
    ])
    def test_reached_errors_keep_their_text_and_position(self, project, text, error):
        with pytest.raises(QueryRuntimeError, match=f"^{re.escape(error)}$"):
            eval_expr(project, text, Environment({"x": "s"}))

    @pytest.mark.parametrize("text, prints", [
        ('print("r").contains(print("a"))', ["r", "a"]),
        ('print("l") + print("r")', ["l", "r"]),
        ('false && print("r")', []),
        ('print("l") || print("r")', ["l", "r"]),
    ])
    def test_receiver_then_arguments_then_operands_in_order(self, project, text, prints):
        sink = OutputSink()
        eval_expr(project, text, sink=sink)
        assert sink.prints == prints

    def test_both_operands_run_before_either_is_coerced(self, project):
        sink = OutputSink()
        with pytest.raises(QueryRuntimeError, match="arithmetic on a string"):
            eval_expr(project, '"s" < print("r")', sink=sink)
        assert sink.prints == ["r"]


def test_nested_selects_compile_each_node_once(monkeypatch):
    compiled = Tally()
    compile_, block = Evaluator._compile, Evaluator._block

    def counted_compile(evaluator, e):
        compiled[id(e)] += 1
        return compile_(evaluator, e)

    def counted_block(evaluator, body):
        compiled[id(body)] += 1
        return block(evaluator, body)

    monkeypatch.setattr(Evaluator, "_compile", counted_compile)
    monkeypatch.setattr(Evaluator, "_block", counted_block)
    rng = random.Random(3)
    sources = [(f"G{i}.mj", generate_random_source(rng, classes=2, max_depth=4))
               for i in range(4)]
    project, _ = load_project("once", sources)
    text = bundled_query_path("blocktop_declarations.craql").read_text()
    env, _, _ = run_document(project, text)
    # The innermost select ran once per declaration of many blocks.
    assert env.variables["num_blocktops"] + env.variables["num_inlines"] > 20
    assert len(compiled) > 20 and max(compiled.values()) == 1
