"""Generated selects, checked three ways (McKeeman, "Differential Testing
for Software", 1998).

A seeded generator writes query documents over generated MiniLang projects:
single patterns under each modifier, `*` and `...` patterns; default, `in` and
`directly in` inputs holding a node or a node list; where clauses mixing
link keys, invariant probes and conjuncts on the pattern variable; nested
selects and callquery. Each document runs

* untraced and traced, which must agree on everything;
* with every where clause `W` rewritten to `true && (W)`, which no plan can
  split, so the run takes neither a link key nor a hoisted conjunct: it must
  agree too, errors included;
* select by select against the oracle: each traced capture replays to the
  same rows, and the captures' reference walks add up to `nodes_visited`.

The same checks run on projects whose default input falls back from one
region to a walk per root, and every run of the default input as merged
regions must agree with a walk of each root's region on its own.
"""

import json
import random
import re

import pytest

import craql.engine.evaluator as evaluator_module
from craql import (
    MINILANG_SCHEMA,
    Environment,
    Evaluator,
    OutputSink,
    ProjectAst,
    deserialize_project,
    load_project,
    parse_query_document,
    serialize_project,
)
from craql.engine.evaluator import QueryRuntimeError
from craql.engine.runtime import NodeRef
from craql.fixtures import STATIC_FIXTURES, fixture_text, generate_random_source
from craql.oracle import compare, replay_capture
from craql.query.ast import SINGLE
from craql.query.parser import _Parser
from craql.query.tokens import tokenize

from test_engine_select import walk_visits

DOCUMENTS_PER_PROJECT = 90
PATTERN_TYPES = ("Statement", "Block", "Expression", "MethodInvocation", "TypeDeclaration",
                 "MethodDeclaration", "IfStatement", "ReturnStatement", "Name")
PROBED_TYPES = ("BreakStatement", "ReturnStatement", "ContinueStatement", "Block",
                "IfStatement", "TryStatement", "MethodInvocation")
CONTAINERS = ("TypeDeclaration", "MethodDeclaration", "Block", "IfStatement", "WhileStatement")


class QueryGenerator:
    """Random query documents. Where clauses read only pattern variables,
    `x` (a node list), `y` (a node) and `u` (undefined). Unless `hazard`
    is set, no body writes them, so a capture's environment snapshot
    replays its select. `<<` and `>>` bracket each where clause for
    `render`."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.called = self.hazard = False

    def document(self) -> str:
        self.called = self.hazard = False
        text = self.select(0, [])
        if self.called:
            text += "\nq2 : " + self.select(4, [])
        return text

    def select(self, level: int, outer: list[str]) -> str:
        rng = self.rng
        a, b, t1 = f"a{level}", f"b{level}", rng.choice(PATTERN_TYPES)
        kind = rng.choice(("single", "single", "single", "star", "ellipsis"))
        if kind == "single":
            pattern, names = f"{{{t1}}} {a}", [a]
        else:
            mark = "*" if kind == "star" else "..."
            pattern, names = f"{{{t1}}} {a} {mark} {{{rng.choice(PATTERN_TYPES)}}} {b}", [a, b]
        modifier = rng.choice(("", "", "outmost ", "inmost ")) if kind == "single" else ""
        source = rng.choice(["", "x", "y"] + outer[-1:] * 3)
        given = f" {rng.choice(('in', 'directly in'))} {source}" if source else ""
        conjuncts = [self.conjunct(names, outer)
                     for _ in range(rng.choice((0, 1, 2, 2, 3)))]
        where = f" where <<{' && '.join(conjuncts)}>>" if conjuncts else ""
        return f"select {modifier}({pattern}){given}{where} {{ {self.body(level, names, outer)} }}"

    def conjunct(self, names: list[str], outer: list[str]) -> str:
        rng = self.rng
        p, o = rng.choice(names), rng.choice(outer + ["y"])
        fixed = rng.choice(outer + ["y", "y", "u"] + ["x"] * (rng.random() < 0.1))
        t, t2 = rng.choice(PROBED_TYPES), rng.choice(PROBED_TYPES)
        roll = rng.random()
        if roll < 0.35:
            forms = [f"{fixed}.isnodetype({{{t}}})", f"!{fixed}.isnodetype({{{t}}})",
                     f"({fixed}.isnodetype({{{t}}}) || {fixed}.isnodetype({{{t2}}}))",
                     f"{fixed}.contains({{{t}}})", f"!{fixed}.directly_contains({{{t}}})"]
        elif roll < 0.6:
            forms = [f"{o} == {p}.parent()", f"{o}.isparent({p})", f"{p}.parent() == {o}",
                     f"{o} == {p}.methodbinding()"]
        elif roll < 0.88:
            forms = [f"{p}.depth() > {rng.randint(2, 9)}", f"!{p}.isnodetype({{{t}}})",
                     f"{p}.isnodetype({{{t}}})", f"{p}.position() > {rng.randint(0, 600)}",
                     f"{o}.position() < {p}.position()", f"{o}.contains({p})",
                     f"!{o}.directly_contains({p})", f"count(*) < {rng.randint(1, 6)}"]
        else:
            forms = ['(print("w") || true)', f"{fixed}.position() >= 0"]
        return rng.choice(forms)

    def body(self, level: int, names: list[str], outer: list[str]) -> str:
        rng, p = self.rng, names[-1]
        steps = [rng.choice((f"hits{level}++;", f"total += {p}.depth();",
                             f'print({p}.linenumber() + " " + count(*));'))]
        if level < 2 and rng.random() < 0.8:
            steps.append(self.select(level + 1, outer + [names[0]]))
        if rng.random() < 0.15:
            # The body writes a variable where clauses read: the capture's
            # snapshot no longer replays the select.
            self.hazard = True
            steps.append(rng.choice((f"y = {p};", f"y = {p};", 'y = "s";', "u = y;")))
        if level == 0 and rng.random() < 0.15:
            self.called = True
            steps.append(f"callquery(q2) {rng.choice(('in', 'directly in'))} {names[0]};")
        return " ".join(steps)


def render(text: str, plain: bool) -> str:
    """The document with its where clauses as written, or each `W` as
    `true && (W)`."""
    opening, closing = ("true && (", ")") if plain else ("", "")
    return text.replace("<<", opening).replace(">>", closing)


def run(project, text, seed, traced=False):
    """What a run of the document shows, and its captures."""
    env, sink = Environment(dict(seed)), OutputSink()
    evaluator = Evaluator(project, env, sink)
    captures = []
    if traced:
        evaluator.trace = captures.append
    try:
        evaluator.execute_document(parse_query_document(text))
        error = None
    except QueryRuntimeError as exc:
        # The rewrite moves where-clause positions.
        error = re.sub(r":\d+:\d+:", ":", str(exc))
    stats = evaluator.stats
    return (error, sink.prints, sink.rows, env.variables, stats.nodes_visited,
            stats.rows_yielded), captures


def check_document(project, text, seed, hazard):
    """Run the document the three ways; return its outcome and how many
    selects it ran."""
    outcome, _ = run(project, render(text, False), seed)
    traced, captures = run(project, render(text, False), seed, traced=True)
    assert traced == outcome, text
    assert run(project, render(text, True), seed)[0] == outcome, text
    if outcome[0] is not None or hazard:
        return outcome, len(captures)
    visits = 0
    for capture in captures:
        label = (text, capture.query.pattern)
        assert compare(project, capture.rows, replay_capture(project, capture)).empty, label
        pat = capture.query.pattern
        accepted = {row[pat.var1] for row in capture.rows} if pat.kind == SINGLE else set()
        visits += walk_visits(project, capture.query, capture.input_nodes,
                              capture.include_root, capture.directly, accepted.__contains__)
    assert visits == outcome[4], text
    assert sum(len(c.rows) for c in captures) == outcome[5], text
    return outcome, len(captures)


@pytest.fixture(scope="module")
def generated_projects():
    rng = random.Random(1109)
    projects = []
    for i, extra in enumerate((("Unreachable.mj",), ("AB.mj", "Fact.mj"), ())):
        sources = [(f"G{i}_{j}.mj", generate_random_source(rng, classes=2, max_depth=4))
                   for j in range(3)]
        sources += [(name, fixture_text(name)) for name in extra]
        project, diagnostics = load_project(f"generated{i}", sources)
        assert not diagnostics
        containers = [n.id for n in project.nodes if n.type in CONTAINERS]
        picked = rng.sample(containers, 5)
        # One node twice.
        seed = {"x": tuple(picked + picked[:1]), "y": NodeRef(picked[1])}
        projects.append((project, seed))
    return projects


def test_generated_documents_agree(generated_projects, monkeypatch):
    splits = {"invariant": 0, "link": 0}
    split_where = evaluator_module.split_where

    def counted(q, directly):
        split = split_where(q, directly)
        if split is not None:
            splits["invariant"] += split.invariant is not None
            splits["link"] += split.link is not None
        return split

    monkeypatch.setattr(evaluator_module, "split_where", counted)
    rng = random.Random(11)
    generator = QueryGenerator(rng)
    selects = errors = 0
    for project, seed in generated_projects:
        for _ in range(DOCUMENTS_PER_PROJECT):
            text = generator.document()
            outcome, ran = check_document(project, text, seed, generator.hazard)
            errors += outcome[0] is not None
            selects += ran
    # The documents reach every plan: link keys, hoists, errors, many selects.
    print(splits)
    assert splits["link"] >= 20 and splits["invariant"] >= 50, splits
    assert 0 < errors < DOCUMENTS_PER_PROJECT and selects > 1000, (errors, selects)


def rerooted(project, roots):
    """`project` loaded again from its column document, with `roots` as
    its default input."""
    doc = json.loads(serialize_project(project))
    doc["roots"] = roots
    return deserialize_project(json.dumps(doc))


def root_orders(project):
    """Default inputs that a run of adjacent regions cannot merge whole:
    the roots out of rank order, a root listed twice, each way, and a
    node of another root's tree, after that root and later."""
    roots = project.roots
    own = next(n for n in range(len(project.type))
               if project.type[n] == "MethodDeclaration"
               and project.index.pre[roots[0]] < project.index.pre[n] < project.index.end[roots[0]])
    return {"reversed": roots[::-1], "twice after the rest": roots + roots[:1],
            "twice in a row": roots[:1] + roots, "nested": roots[:1] + [own] + roots[1:],
            "nested later": roots + [own]}


# Every modifier and both pair patterns over the default input; the body
# prints each row and count(*), so the order of the rows shows.
BODY = 'hits++; print(a.linenumber() + " " + count(*));'
DEFAULT_FORMS = [
    *(f"select {modifier}({{{t}}} a){where} {{ {BODY} }}"
      for modifier in ("", "outmost ", "inmost ")
      for t in ("Statement", "CompilationUnit")
      for where in ("", " where <<a.depth() != 3>>")),
    *(f"select ({{{t1}}} a {mark} {{{t2}}} b){where} {{ {BODY} }}"
      for mark in ("*", "...")
      for t1, t2 in (("Block", "Statement"), ("CompilationUnit", "Block"))
      for where in ("", " where <<b.depth() > 4>>")),
]


def test_default_input_regions_agree_with_per_root_walks(generated_projects, monkeypatch):
    """A MiniLang project's roots are one region, and roots out of rank
    order, listed twice or nested fall back to more. Either way each
    document passes the three checks, and runs as it runs when the
    default input walks each root's region on its own: prints, rows,
    variables and counters."""
    root_regions = evaluator_module._root_regions

    def per_root(project):
        pre, end = project.index.pre, project.index.end
        return [(pre[root], end[root]) for root in project.roots]

    rng = random.Random(12)
    generator = QueryGenerator(rng)
    fallbacks = 0
    for base, seed in generated_projects:
        assert len(root_regions(base)) == 1 and len(base.roots) >= 3
        for roots in [base.roots, *root_orders(base).values()]:
            project = rerooted(base, roots)
            assert project.roots == roots
            fallbacks += len(root_regions(project)) > 1
            documents = [(text, False) for text in DEFAULT_FORMS]
            for _ in range(8):
                documents.append((generator.document(), generator.hazard))
            for text, hazard in documents:
                outcome, _ = check_document(project, text, seed, hazard)
                with monkeypatch.context() as patch:
                    patch.setattr(evaluator_module, "_root_regions", per_root)
                    walked = run(project, render(text, False), seed)[0]
                if outcome[0] is not None:
                    # A region counts its visits as the walk enters it, so an
                    # error's count depends on the regions; a batch counts no
                    # document that fails.
                    walked, outcome = walked[:4] + walked[5:], outcome[:4] + outcome[5:]
                assert walked == outcome, (roots, text)
    assert fallbacks == 5 * len(generated_projects)


def test_literal_type_probes_agree_with_matches_type(generated_projects, monkeypatch):
    """`n.isnodetype({T})` of a type the schema knows compiles to one set
    test, which gives `ProjectAst.matches_type(n, T)` for every type name,
    concrete, abstract and virtual, on every node."""
    names = sorted(MINILANG_SCHEMA.types | MINILANG_SCHEMA.virtuals.keys())
    assert {"Statement", "ClassDeclaration", "Block"} <= set(names)
    projects = [project for project, _ in generated_projects]
    projects += [load_project(name, [(name, fixture_text(name))])[0] for name in STATIC_FIXTURES]
    matches_type = ProjectAst.matches_type
    matched = 0
    for project in projects:
        ids = range(len(project.type))
        expected = {name: [matches_type(project, n, name) for n in ids] for name in names}
        env = Environment()
        evaluator = Evaluator(project, env)
        with monkeypatch.context() as patch:
            # The folded probe never calls matches_type.
            patch.setattr(ProjectAst, "matches_type", None)
            for name in names:
                probe = _Parser(tokenize(f"n.isnodetype({{{name}}})"), "<probe>").parse_expr()
                test, got = evaluator._compile(probe), []
                for n in ids:
                    env.variables["n"] = NodeRef(n)
                    got.append(test())
                assert got == expected[name], (project.name, name)
                matched += sum(got)
    assert 0 < matched < len(names) * sum(len(p.type) for p in projects)
