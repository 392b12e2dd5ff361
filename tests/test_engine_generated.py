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
"""

import random
import re

import pytest

import craql.engine.evaluator as evaluator_module
from craql import Environment, Evaluator, OutputSink, load_project, parse_query_document
from craql.engine.evaluator import QueryRuntimeError
from craql.engine.runtime import NodeList, NodeRef
from craql.fixtures import fixture_text, generate_random_source
from craql.oracle import compare, replay_capture
from craql.query.ast import SINGLE

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
        conjuncts = [self.conjunct(names, outer, source == "x")
                     for _ in range(rng.choice((0, 1, 2, 2, 3)))]
        where = f" where <<{' && '.join(conjuncts)}>>" if conjuncts else ""
        return f"select {modifier}({pattern}){given}{where} {{ {self.body(level, names, outer)} }}"

    def conjunct(self, names: list[str], outer: list[str], listed: bool) -> str:
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
                     f"!{o}.directly_contains({p})"]
            if not listed:
                # A duplicate of a list input runs the clause again, under
                # another count(*): the oracle does not model that.
                forms.append(f"count(*) < {rng.randint(1, 6)}")
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
        seed = {"x": NodeList(tuple(picked + picked[:1])), "y": NodeRef(picked[1])}
        projects.append((project, seed))
    return projects


def test_generated_documents_agree(generated_projects, monkeypatch):
    splits = {"find_link_key": 0, "find_hoist": 0}
    for name in splits:
        def counted(q, schema, find=getattr(evaluator_module, name), name=name):
            found = find(q, schema)
            splits[name] += found is not None
            return found

        monkeypatch.setattr(evaluator_module, name, counted)
    rng = random.Random(11)
    generator = QueryGenerator(rng)
    selects = errors = 0
    for project, seed in generated_projects:
        for _ in range(DOCUMENTS_PER_PROJECT):
            text = generator.document()
            outcome, _ = run(project, render(text, False), seed)
            traced, captures = run(project, render(text, False), seed, traced=True)
            assert traced == outcome, text
            assert run(project, render(text, True), seed)[0] == outcome, text
            errors += outcome[0] is not None
            selects += len(captures)
            if outcome[0] is not None or generator.hazard:
                continue
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
    # The documents reach every plan: link keys, hoists, errors, many selects.
    assert splits["find_link_key"] >= 20 and splits["find_hoist"] >= 50, splits
    assert 0 < errors < DOCUMENTS_PER_PROJECT and selects > 1000, (errors, selects)
