"""The record classes' semantics, pinned: constructor order and defaults,
which fields equality reads, which records hash and refuse assignment,
`repr` text and the query walk's field table."""

from __future__ import annotations

import copy
import pickle

import pytest

from craql.astcore import BindingTable, FileInfo, VirtualType
from craql.diagnostics import Diagnostic
from craql.engine.evaluator import SelectionCapture
from craql.engine.runtime import ExecutionStats, NodeRef, TypeName
from craql.query import ast
from craql.query.ast import (
    Assign, BoolLit, Call, CallQuery, CountStar, ExprStmt, If, IncrDecr, Infix,
    InputSpec, IntLit, Pattern, Prefix, PropAccess, QueryDocument,
    SelectQuery, StrLit, TypeLit, VarRef, While,
)
from craql.query.parser import parse_query_document
from craql.query.tokens import Token
from craql.results import RunConfig

# Every field of each record class, in constructor order.
IR_FIELDS = {
    IntLit: ("value", "pos"),
    StrLit: ("value", "pos"),
    BoolLit: ("value", "pos"),
    VarRef: ("name", "pos"),
    TypeLit: ("name", "pos"),
    CountStar: ("pos",),
    PropAccess: ("base", "name", "braced", "pos"),
    Call: ("name", "receiver", "args", "pos"),
    Infix: ("op", "lhs", "rhs", "pos"),
    Prefix: ("op", "operand", "pos"),
    Assign: ("target", "op", "value", "pos"),
    IncrDecr: ("target", "op", "pos"),
    If: ("cond", "then_body", "else_body", "pos"),
    While: ("cond", "body", "pos"),
    InputSpec: ("kind", "expr", "pos"),
    Pattern: ("kind", "type1", "var1", "type2", "var2", "pos"),
    SelectQuery: ("pattern", "modifier", "input", "where", "body", "pos"),
    CallQuery: ("label", "input", "pos"),
    ExprStmt: ("value", "pos"),
    QueryDocument: ("queries", "source"),
}
FROZEN_FIELDS = {
    NodeRef: ("id",),
    TypeName: ("name",),
    Token: ("kind", "value", "line", "col"),
    VirtualType: ("base", "prop", "token"),
}
MUTABLE_FIELDS = {
    Diagnostic: ("file", "line", "column", "message", "severity"),
    ExecutionStats: ("nodes_visited", "rows_yielded", "files_parsed"),
    FileInfo: ("name", "text"),
    BindingTable: ("method", "type"),
    SelectionCapture: ("query", "input_nodes", "include_root", "directly", "env_snapshot", "rows"),
    RunConfig: ("root", "project_list", "query_list"),
}
ALL_FIELDS = {**IR_FIELDS, **FROZEN_FIELDS, **MUTABLE_FIELDS}

# The fields each IR class's walk reads, last first.
WALK_FIELDS = {
    IntLit: (), StrLit: (), BoolLit: (), VarRef: (), TypeLit: (), CountStar: (),
    PropAccess: ("base",),
    Call: ("args", "receiver"),
    Infix: ("rhs", "lhs"),
    Prefix: ("operand",),
    Assign: ("value",),
    IncrDecr: (),
    If: ("else_body", "then_body", "cond"),
    While: ("body", "cond"),
    InputSpec: ("expr",),
    Pattern: (),
    SelectQuery: ("body", "where", "input", "pattern"),
    CallQuery: ("input",),
    ExprStmt: ("value",),
    QueryDocument: ("queries",),
}


@pytest.mark.parametrize("cls", ALL_FIELDS, ids=lambda cls: cls.__name__)
def test_positional_order(cls):
    names = ALL_FIELDS[cls]
    values = [object() for _ in names]
    record = cls(*values)
    assert all(getattr(record, name) is value for name, value in zip(names, values))
    with pytest.raises(TypeError):
        cls(*values, object())


def test_defaults():
    assert VarRef("x").pos == (0, 0)
    assert CountStar().pos == (0, 0)
    assert InputSpec("default").expr is None
    pattern = Pattern("single", "Block", "b")
    assert (pattern.type2, pattern.var2, pattern.pos) == (None, None, (0, 0))
    assert QueryDocument([]).source == "<string>"
    assert Diagnostic("f", 1, 2, "m").severity == "error"
    assert (ExecutionStats().nodes_visited, ExecutionStats().rows_yielded,
            ExecutionStats().files_parsed) == (0, 0, 0)
    assert FileInfo("A.mj").text is None
    first, second = BindingTable(), BindingTable()
    assert first.method == first.type == {} and first.method is not second.method


def test_keyword_arguments():
    assert Pattern("star", "A", "a", var2="b", type2="B") == Pattern("star", "A", "a", "B", "b")
    assert InputSpec(kind="in", expr=VarRef("x")).expr == VarRef("x")
    assert Diagnostic("f", 1, 2, "m", severity="warning").severity == "warning"
    with pytest.raises(TypeError):
        VarRef()
    with pytest.raises(TypeError):
        VarRef("x", name="y")
    with pytest.raises(TypeError):
        VarRef("x", nmae="y")


def test_position_takes_no_part_in_equality():
    assert VarRef("x", (1, 2)) == VarRef("x", (3, 4))
    assert Infix("+", IntLit(1, (1, 1)), VarRef("x")) == Infix("+", IntLit(1), VarRef("x", (9, 9)), (5, 5))
    assert QueryDocument([], "a.craql") == QueryDocument([], "b.craql")
    assert VarRef("x") != VarRef("y")
    assert VarRef("x") != StrLit("x")
    assert IntLit(1) != 1
    text = "select ({Block} b) where b.parent == x { n += 1; }\n"
    assert parse_query_document(text, "a") == parse_query_document("\n\n  " + text, "b")


def test_equality_reads_every_other_field():
    assert Diagnostic("f", 1, 2, "m") != Diagnostic("f", 1, 2, "m", "warning")
    assert Diagnostic("f", 1, 2, "m") == Diagnostic("f", 1, 2, "m")
    assert Diagnostic("f", 1, 2, "m") != Diagnostic("f", 1, 3, "m")
    assert NodeRef(1) == NodeRef(1) and NodeRef(1) != NodeRef(2) and NodeRef(1) != 1


def test_equality_compares_nested_fields_without_a_frame_per_level():
    def chain(leaf, depth=5000):
        for _ in range(depth):
            leaf = Prefix("-", leaf)
        return leaf

    assert chain(IntLit(1)) == chain(IntLit(1, (7, 7)))
    assert chain(IntLit(1)) != chain(IntLit(2))
    assert chain(IntLit(1)) != chain(StrLit(1))
    assert Call("f", None, [IntLit(1)]) != Call("f", None, [IntLit(1), IntLit(2)])
    assert Call("f", None, [IntLit(1)]) != Call("f", None, (IntLit(1),))
    assert Call("f", None, [NodeRef(1)]) == Call("f", None, [NodeRef(1)])
    assert Call("f", None, [NodeRef(1)]) != Call("f", None, [NodeRef(2)])


@pytest.mark.parametrize("cls", {**IR_FIELDS, **MUTABLE_FIELDS}, ids=lambda cls: cls.__name__)
def test_mutable_records_are_unhashable_and_assignable(cls):
    record = cls(*range(len(ALL_FIELDS[cls])))
    with pytest.raises(TypeError):
        hash(record)
    name = ALL_FIELDS[cls][0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls", FROZEN_FIELDS, ids=lambda cls: cls.__name__)
def test_frozen_values_hash_by_value_and_refuse_assignment(cls):
    values = tuple(range(len(FROZEN_FIELDS[cls])))
    record = cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(values)
    assert len({record, cls(*values)}) == 1
    name = FROZEN_FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, 7)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 7
    assert getattr(record, name) == 0


@pytest.mark.parametrize("cls", ALL_FIELDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle(cls):
    record = cls(*range(len(ALL_FIELDS[cls])))
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin is not record
        assert [getattr(twin, name) for name in ALL_FIELDS[cls]] == list(range(len(ALL_FIELDS[cls])))


def test_repr():
    assert repr(NodeRef(3)) == "NodeRef(id=3)"
    assert repr(TypeName("Block")) == "TypeName(name='Block')"
    assert repr(Diagnostic("A.mj", 1, 2, "bad")) == (
        "Diagnostic(file='A.mj', line=1, column=2, message='bad', severity='error')")
    assert repr(Infix("+", IntLit(1, (1, 2)), VarRef("x"))) == (
        "Infix(op='+', lhs=IntLit(value=1, pos=(1, 2)), rhs=VarRef(name='x', pos=(0, 0)), pos=(0, 0))")


def test_walk_field_table():
    assert ast._FIELDS == WALK_FIELDS
