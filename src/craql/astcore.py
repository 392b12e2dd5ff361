"""Language-agnostic AST store: node-type schemas, node arenas, traversal,
and a JSON serialization format for ingesting externally produced trees.

A loaded :class:`ProjectAst` is immutable after construction and may be read
from any number of concurrent evaluators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Union

PropValue = Union[int, list, str]


class SchemaError(Exception):
    """Raised for unknown type names or malformed schema definitions."""


class AstFormatError(Exception):
    """Raised when a serialized AST document violates the format."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} ({location})" if location else message)


# Property kinds.
SINGLE = "single-child"
CHILD_LIST = "child-list"
TOKEN = "token"


@dataclass(frozen=True)
class VirtualType:
    """A matchable type that never appears as a node's concrete type.

    A node matches when its concrete type is under `base` and its `prop`
    token equals `token`.
    """

    base: str
    prop: str
    token: str


class NodeTypeSchema:
    """Node-type lattice for one target language.

    Single-inheritance supertype edges; each type declares an ordered list of
    (property, kind) pairs and inherits its supertypes' properties. `validate`
    compiles the lattice into the lookup tables `ancestry` (type name, virtual
    ones included, to itself and all its supertypes) and `prop_kinds`.
    """

    def __init__(self, name: str):
        self.name = name
        self.types: set[str] = set()
        self.supertype: dict[str, str] = {}
        self.properties: dict[str, list[tuple[str, str]]] = {}
        self.abstract: dict[str, bool] = {}
        self.virtuals: dict[str, VirtualType] = {}
        self.ancestry: dict[str, frozenset[str]] = {}
        self.prop_kinds: dict[str, dict[str, str]] = {}

    def add_type(
        self,
        name: str,
        *,
        supertype: str | None = None,
        props: list[tuple[str, str]] | None = None,
        abstract: bool = False,
    ) -> None:
        if name in self.types:
            raise SchemaError(f"duplicate type {name}")
        props = props or []
        seen = set()
        for pname, kind in props:
            if pname in seen:
                raise SchemaError(f"duplicate property {pname} on {name}")
            if kind not in (SINGLE, CHILD_LIST, TOKEN):
                raise SchemaError(f"bad property kind {kind} on {name}.{pname}")
            seen.add(pname)
        self.types.add(name)
        if supertype is not None:
            self.supertype[name] = supertype
        self.properties[name] = list(props)
        self.abstract[name] = abstract

    def add_virtual(self, name: str, base: str, prop: str, token: str) -> None:
        if name in self.types or name in self.virtuals:
            raise SchemaError(f"duplicate type {name}")
        self.virtuals[name] = VirtualType(base, prop, token)

    def validate(self) -> None:
        """Check the lattice and compile it into `ancestry` and `prop_kinds`."""
        for t, sup in self.supertype.items():
            if sup not in self.types:
                raise SchemaError(f"supertype {sup} of {t} is not registered")
        self.ancestry, self.prop_kinds = {}, {}
        for t in self.types:
            chain = [t]
            while chain[-1] in self.supertype:
                sup = self.supertype[chain[-1]]
                if sup in chain:
                    raise SchemaError(f"supertype cycle through {t}")
                chain.append(sup)
            self.ancestry[t] = frozenset(chain)
            # Root first, so a subtype's redeclaration of a property wins.
            kinds: dict[str, str] = {}
            for cur in reversed(chain):
                kinds.update(self.properties[cur])
            self.prop_kinds[t] = kinds
        for name, v in self.virtuals.items():
            if v.base not in self.types:
                raise SchemaError(f"virtual base {v.base} is not registered")
            self.ancestry[name] = self.ancestry[v.base] | {name}
            self.prop_kinds[name] = self.prop_kinds[v.base]

    def knows(self, name: str) -> bool:
        return name in self.types or name in self.virtuals

    def require(self, name: str) -> None:
        if not self.knows(name):
            raise SchemaError(f"unknown node type {name}")

    def prop_kind(self, t: str, prop: str) -> str | None:
        """Kind of `prop` on type t or its supertypes, or None."""
        self.require(t)
        return self.prop_kinds[t].get(prop)

    def declares_property(self, prop: str) -> bool:
        return any(prop == p for plist in self.properties.values() for p, _ in plist)


_REGISTRY: dict[str, NodeTypeSchema] = {}


def register_schema(schema: NodeTypeSchema) -> NodeTypeSchema:
    schema.validate()
    _REGISTRY[schema.name] = schema
    return schema


def lookup_schema(name: str) -> NodeTypeSchema:
    if name not in _REGISTRY:
        raise SchemaError(f"no registered schema named {name}")
    return _REGISTRY[name]


def is_subtype(schema: NodeTypeSchema, t: str, ancestor: str) -> bool:
    """True iff t equals ancestor or reaches it via supertype edges."""
    schema.require(t)
    schema.require(ancestor)
    return ancestor in schema.ancestry[t]


@dataclass
class Span:
    """Source extent: 0-based character offsets, 1-based start line."""

    file: int
    start: int
    end: int
    line: int


@dataclass
class AstNode:
    id: int
    type: str
    span: Span
    props: dict[str, PropValue] = field(default_factory=dict)
    parent: int | None = None


@dataclass
class FileInfo:
    name: str
    text: str | None = None


@dataclass
class BindingTable:
    """Statically resolved use→declaration links; unresolvable uses absent."""

    method: dict[int, int] = field(default_factory=dict)
    type: dict[int, int] = field(default_factory=dict)


class ProjectAst:
    """One project's parsed trees: a node arena, query-input roots, bindings.

    `roots` lists the compilation units that form the default query input.
    The arena may contain additional parentless trees (e.g. built-in type
    surrogates) that are reachable through bindings but never enumerated by
    default.
    """

    def __init__(self, name: str, schema: NodeTypeSchema):
        self.name = name
        self.schema = schema
        self.files: list[FileInfo] = []
        self.nodes: list[AstNode] = []
        self.roots: list[int] = []
        self.bindings = BindingTable()
        # Number of source files actually parsed or loaded; set by frontends.
        self.files_parsed = 0
        # Set when source_text had to fall back to a placeholder.
        self.degraded_output = False

    # -- construction helpers (single-threaded, before first read) --

    def add_file(self, name: str, text: str | None = None) -> int:
        self.files.append(FileInfo(name, text))
        return len(self.files) - 1

    def new_node(self, type_name: str, span: Span) -> AstNode:
        self.schema.require(type_name)
        node = AstNode(id=len(self.nodes), type=type_name, span=span)
        self.nodes.append(node)
        return node

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def link_parents(self) -> None:
        """Materialize parent links from props. Call once after construction."""
        for n in self.nodes:
            for child in child_ids(n):
                self.nodes[child].parent = n.id

    # -- queries over the arena --

    def matches_type(self, node_id: int, type_name: str) -> bool:
        """Subtype-aware type test, including virtual types."""
        node = self.nodes[node_id]
        ancestry = self.schema.ancestry[node.type]
        v = self.schema.virtuals.get(type_name)
        if v is not None:
            return v.base in ancestry and node.props.get(v.prop) == v.token
        self.schema.require(type_name)
        return type_name in ancestry

    def check_invariants(self) -> None:
        for n in self.nodes:
            for child in child_ids(n):
                if child >= len(self.nodes):
                    raise AstFormatError(f"dangling node id {child}", f"node {n.id}")
        for inv, decl in self.bindings.method.items():
            if self.nodes[decl].type != "MethodDeclaration":
                raise AstFormatError(
                    "binding target type mismatch", f"method binding {inv} -> {decl}"
                )
        for expr, decl in self.bindings.type.items():
            if self.nodes[decl].type != "TypeDeclaration":
                raise AstFormatError(
                    "binding target type mismatch", f"type binding {expr} -> {decl}"
                )


def child_ids(node: AstNode) -> Iterator[int]:
    """Node-valued property contents in declaration order."""
    for value in node.props.values():
        if isinstance(value, int):
            yield value
        elif isinstance(value, list):
            yield from value


def descendants_preorder(
    project: ProjectAst, root: int, prune: Callable[[int], bool] | None = None
) -> Iterator[int]:
    """Depth-first pre-order walk from root; children in property declaration order.

    `prune(node)` is asked when the caller resumes the walk after `node`, so
    it may depend on what the caller did with it; a true answer skips the
    nodes below `node`.
    """
    nodes = project.nodes
    stack = [root]
    while stack:
        cur = stack.pop()
        yield cur
        if prune is None or not prune(cur):
            stack.extend(reversed(list(child_ids(nodes[cur]))))


def node_depth(project: ProjectAst, node_id: int) -> int:
    depth = 0
    cur = project.node(node_id)
    while cur.parent is not None:
        depth += 1
        cur = project.node(cur.parent)
    return depth


def source_text(project: ProjectAst, node_id: int) -> str:
    """Exact source slice for the node, or a placeholder if text is gone."""
    node = project.node(node_id)
    info = project.files[node.span.file]
    if info.text is None:
        project.degraded_output = True
        return f"<{node.type}@{info.name}:{node.span.line}>"
    return info.text[node.span.start : node.span.end]


# ---------------------------------------------------------------------------
# Serialized AST format (one JSON document per project).
# ---------------------------------------------------------------------------


def serialize_project(project: ProjectAst) -> str:
    files = []
    for f in project.files:
        entry: dict[str, Any] = {"name": f.name}
        if f.text is not None:
            entry["text"] = f.text
        files.append(entry)
    nodes = []
    for n in project.nodes:
        props: dict[str, Any] = {}
        for pname, value in n.props.items():
            if isinstance(value, str):
                props[pname] = {"token": value}
            else:
                props[pname] = value
        nodes.append(
            {
                "id": n.id,
                "type": n.type,
                "file": n.span.file,
                "span": [n.span.start, n.span.end, n.span.line],
                "props": props,
            }
        )
    doc = {
        "schema": project.schema.name,
        "project": project.name,
        "files": files,
        "nodes": nodes,
        "roots": list(project.roots),
        "bindings": {
            "method": {str(k): v for k, v in sorted(project.bindings.method.items())},
            "type": {str(k): v for k, v in sorted(project.bindings.type.items())},
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _expect_key(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise AstFormatError(f"missing key {key!r}", where)
    return obj[key]


def deserialize_project(document: str) -> ProjectAst:
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AstFormatError(f"malformed JSON: {exc.msg}", f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise AstFormatError("top level must be an object")

    try:
        schema = lookup_schema(_expect_key(doc, "schema", "top level"))
    except SchemaError as exc:
        raise AstFormatError(str(exc), "schema") from exc
    project = ProjectAst(_expect_key(doc, "project", "top level"), schema)

    for i, f in enumerate(_expect_key(doc, "files", "top level")):
        project.add_file(_expect_key(f, "name", f"files[{i}]"), f.get("text"))

    raw_nodes = _expect_key(doc, "nodes", "top level")
    count = len(raw_nodes)
    by_id: dict[int, dict] = {}
    for i, rec in enumerate(raw_nodes):
        nid = _expect_key(rec, "id", f"nodes[{i}]")
        if not isinstance(nid, int) or nid < 0 or nid >= count:
            raise AstFormatError("node ids must be dense integers from 0", f"nodes[{i}]")
        if nid in by_id:
            raise AstFormatError(f"duplicate node id {nid}", f"nodes[{i}]")
        by_id[nid] = rec

    for nid in range(count):
        rec = by_id[nid]
        where = f"node {nid}"
        tname = _expect_key(rec, "type", where)
        if tname in schema.virtuals:
            raise AstFormatError(f"virtual type {tname} cannot be concrete", where)
        if tname not in schema.types:
            raise AstFormatError(f"unknown node type {tname}", where)
        fidx = _expect_key(rec, "file", where)
        if not 0 <= fidx < len(project.files):
            raise AstFormatError(f"bad file index {fidx}", where)
        span = _expect_key(rec, "span", where)
        if not (isinstance(span, list) and len(span) == 3):
            raise AstFormatError("span must be [start, end, line]", where)
        node = project.new_node(tname, Span(fidx, span[0], span[1], span[2]))
        for pname, value in _expect_key(rec, "props", where).items():
            if isinstance(value, dict):
                node.props[pname] = _expect_key(value, "token", f"{where}.{pname}")
            elif isinstance(value, int):
                if not 0 <= value < count:
                    raise AstFormatError(f"dangling node id {value}", f"{where}.{pname}")
                node.props[pname] = value
            elif isinstance(value, list):
                for v in value:
                    if not (isinstance(v, int) and 0 <= v < count):
                        raise AstFormatError(f"dangling node id {v}", f"{where}.{pname}")
                node.props[pname] = list(value)
            else:
                raise AstFormatError(f"bad prop value for {pname}", where)

    for rid in _expect_key(doc, "roots", "top level"):
        if not (isinstance(rid, int) and 0 <= rid < count):
            raise AstFormatError(f"dangling root id {rid}", "roots")
        project.roots.append(rid)

    bindings = doc.get("bindings", {})
    for kind, table in (("method", project.bindings.method), ("type", project.bindings.type)):
        for key, target in bindings.get(kind, {}).items():
            if not key.isdecimal():
                raise AstFormatError(f"non-integer key in {kind} bindings", f"{key} -> {target}")
            src = int(key)
            if not (0 <= src < count and isinstance(target, int) and 0 <= target < count):
                raise AstFormatError(f"dangling node id in {kind} bindings", f"{key} -> {target}")
            table[src] = target

    # Parents derive from props; a node owned twice is structurally invalid.
    seen_child: dict[int, int] = {}
    for n in project.nodes:
        for child in child_ids(n):
            if child in seen_child:
                raise AstFormatError(
                    f"node {child} is owned by both {seen_child[child]} and {n.id}"
                )
            seen_child[child] = n.id
    # With single ownership, a node no parentless node reaches is on or under
    # an ownership cycle, where every walk would go round forever.
    reached = [False] * count
    for nid in range(count):
        if nid not in seen_child:
            for d in descendants_preorder(project, nid):
                reached[d] = True
    if not all(reached):
        nid = reached.index(False)
        raise AstFormatError("node is on or under an ownership cycle", f"node {nid}")
    project.link_parents()
    project.check_invariants()
    project.files_parsed = len(project.files)
    return project
