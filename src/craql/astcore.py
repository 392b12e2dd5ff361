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
        # Built by link_parents once the arena is complete.
        self.index: RegionIndex

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
        """Materialize parent links from props and build the region index.

        Call once, after the last node is added. Raises AstFormatError when
        a node is owned twice or lies on or under an ownership cycle.
        """
        nodes = self.nodes
        for n in nodes:
            for child in child_ids(n):
                c = nodes[child]
                if c.parent is not None:
                    raise AstFormatError(f"node {child} is owned by both {c.parent} and {n.id}")
                c.parent = n.id
        self.index = RegionIndex(self)
        # With single ownership, a node no parentless node reaches is on or
        # under an ownership cycle, where every walk would go round forever;
        # the index leaves exactly those nodes without a rank.
        if -1 in self.index.pre:
            nid = self.index.pre.index(-1)
            raise AstFormatError("node is on or under an ownership cycle", f"node {nid}")

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

    def type_ranks(self, type_name: str) -> list[int]:
        """Sorted pre-order ranks of the nodes that match `type_name`.

        Built on first use from the index's concrete-type buckets, then kept
        in the index for the life of the project. Whether a node matches
        depends only on its concrete type, except for a virtual type's
        token, so one `matches_type` test decides a whole bucket and only a
        virtual type tests each node.
        """
        index = self.index
        ranks = index.ranks.get(type_name)
        if ranks is None:
            self.schema.require(type_name)
            match, order = self.matches_type, index.order
            virtual = type_name in self.schema.virtuals
            ranks = []
            for bucket in index.by_type.values():
                if virtual:
                    ranks += [r for r in bucket if match(order[r], type_name)]
                elif match(order[bucket[0]], type_name):
                    ranks += bucket
            ranks.sort()
            index.ranks[type_name] = ranks
        return ranks

    def bound_ranks(self, table: str, target: int) -> list[int]:
        """Sorted pre-order ranks of the nodes whose `table` binding
        ("method" or "type") resolves to `target`.

        The reverse of the binding table, built on first use and kept in the
        index: call it only once the bindings are complete.
        """
        reverse = self.index.bound.get(table)
        if reverse is None:
            pre = self.index.pre
            reverse = {}
            for source, decl in getattr(self.bindings, table).items():
                reverse.setdefault(decl, []).append(pre[source])
            for ranks in reverse.values():
                ranks.sort()
            self.index.bound[table] = reverse
        return reverse.get(target, [])


def child_ids(node: AstNode) -> list[int]:
    """Node-valued property contents in declaration order."""
    # A list rather than a generator: walks call this once per node.
    out: list[int] = []
    for value in node.props.values():
        if isinstance(value, int):
            out.append(value)
        elif isinstance(value, list):
            out += value
    return out


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
            stack.extend(reversed(child_ids(nodes[cur])))


class RegionIndex:
    """Pre-order region encoding of a project's arena.

    This is the pre/post plane of Grust's XPath accelerator (SIGMOD 2002),
    after Dietz's (1982) numbering. Ranks number the nodes of each parentless
    tree in pre-order, trees in id order: `order[rank]` is a node id, and the
    subtree of node `n` is exactly the ranks `[pre[n], end[n])`. `depth[n]`
    counts the edges up to n's tree root. `by_type` maps each concrete type
    to the sorted ranks of its nodes; `ranks` caches, per matched type name,
    the sorted ranks of the nodes that match it (`ProjectAst.type_ranks`), and
    `bound`, per binding table, the sorted ranks of the nodes bound to each
    target (`ProjectAst.bound_ranks`).

    A node on or under an ownership cycle is reached by no walk from a
    parentless node, so it gets no rank: its `pre` stays -1. The index holds
    no reference to its project, so a finished project is freed by reference
    counting alone.
    """

    def __init__(self, project: ProjectAst):
        nodes = project.nodes
        order: list[int] = []
        for nid, node in enumerate(nodes):
            if node.parent is None:
                order.extend(descendants_preorder(project, nid))
        pre = [-1] * len(nodes)
        depth = [0] * len(nodes)
        by_type: dict[str, list[int]] = {}
        for rank, nid in enumerate(order):
            node = nodes[nid]
            pre[nid] = rank
            if node.parent is not None:
                depth[nid] = depth[node.parent] + 1
            by_type.setdefault(node.type, []).append(rank)
        # A child's region ends no later than its parent's, and the last
        # child's end is the parent's end, so one reverse pass suffices.
        end = [rank + 1 for rank in pre]
        for nid in reversed(order):
            parent = nodes[nid].parent
            if parent is not None and end[nid] > end[parent]:
                end[parent] = end[nid]
        self.order, self.pre, self.end, self.depth = order, pre, end, depth
        self.by_type = by_type
        self.ranks: dict[str, list[int]] = {}
        self.bound: dict[str, dict[int, list[int]]] = {}


def node_depth(project: ProjectAst, node_id: int) -> int:
    return project.index.depth[node_id]


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


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(value: Any, kind: type, what: str, where: str) -> Any:
    """`value` if it is of JSON kind `kind`, else an AstFormatError.

    Decoded JSON holds exact builtin types, so `true` is not an integer.
    """
    if type(value) is not kind:
        raise AstFormatError(f"{what} must be {_KIND_NAMES[kind]}", where)
    return value


def _expect_key(obj: dict, key: str, where: str, kind: type) -> Any:
    if key not in obj:
        raise AstFormatError(f"missing key {key!r}", where)
    value = obj[key]
    if type(value) is not kind:  # checked here too: this runs for every field
        _expect(value, kind, repr(key), where)
    return value


def _node_id(value: Any, count: int, what: str, where: str) -> int:
    if not 0 <= _expect(value, int, what, where) < count:
        raise AstFormatError(f"dangling {what} {value}", where)
    return value


def deserialize_project(document: str) -> ProjectAst:
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AstFormatError(f"malformed JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except RecursionError:
        raise AstFormatError("malformed JSON: nested too deeply", "top level") from None
    _expect(doc, dict, "the top level", "top level")

    try:
        schema = lookup_schema(_expect_key(doc, "schema", "top level", str))
    except SchemaError as exc:
        raise AstFormatError(str(exc), "schema") from exc
    project = ProjectAst(_expect_key(doc, "project", "top level", str), schema)

    for i, f in enumerate(_expect_key(doc, "files", "top level", list)):
        where = f"files[{i}]"
        _expect(f, dict, "a file entry", where)
        text = f.get("text")
        if text is not None:
            _expect(text, str, "'text'", where)
        project.add_file(_expect_key(f, "name", where, str), text)

    raw_nodes = _expect_key(doc, "nodes", "top level", list)
    count = len(raw_nodes)
    by_id: dict[int, dict] = {}
    for i, rec in enumerate(raw_nodes):
        _expect(rec, dict, "a node record", f"nodes[{i}]")
        nid = _expect_key(rec, "id", f"nodes[{i}]", int)
        if not 0 <= nid < count:
            raise AstFormatError("node ids must be dense integers from 0", f"nodes[{i}]")
        if nid in by_id:
            raise AstFormatError(f"duplicate node id {nid}", f"nodes[{i}]")
        by_id[nid] = rec

    for nid in range(count):
        rec = by_id[nid]
        where = f"node {nid}"
        tname = _expect_key(rec, "type", where, str)
        if tname in schema.virtuals:
            raise AstFormatError(f"virtual type {tname} cannot be concrete", where)
        if schema.abstract.get(tname):
            raise AstFormatError(f"abstract type {tname} cannot be concrete", where)
        if tname not in schema.types:
            raise AstFormatError(f"unknown node type {tname}", where)
        fidx = _expect_key(rec, "file", where, int)
        if not 0 <= fidx < len(project.files):
            raise AstFormatError(f"bad file index {fidx}", where)
        span = _expect_key(rec, "span", where, list)
        if len(span) != 3:
            raise AstFormatError("span must be [start, end, line]", where)
        start, end, line = span
        if not type(start) is type(end) is type(line) is int:
            raise AstFormatError("each span value must be an integer", where)
        text = project.files[fidx].text
        if not 0 <= start <= end <= (end if text is None else len(text)):
            raise AstFormatError(f"span [{start}, {end}] is not a range in its file", where)
        node = project.new_node(tname, Span(fidx, start, end, line))
        for pname, value in _expect_key(rec, "props", where, dict).items():
            pwhere = f"{where}.{pname}"
            kind = schema.prop_kinds[tname].get(pname)
            if kind == TOKEN:
                token = _expect(value, dict, "a token property", pwhere)
                node.props[pname] = _expect_key(token, "token", pwhere, str)
            elif kind == SINGLE:
                node.props[pname] = _node_id(value, count, "node id", pwhere)
            elif kind == CHILD_LIST:
                ids = _expect(value, list, "a child-list property", pwhere)
                node.props[pname] = [_node_id(v, count, "node id", pwhere) for v in ids]
            else:
                raise AstFormatError(f"{tname} has no property {pname}", where)

    for rid in _expect_key(doc, "roots", "top level", list):
        project.roots.append(_node_id(rid, count, "root id", "roots"))

    bindings = _expect(doc.get("bindings", {}), dict, "'bindings'", "bindings")
    for kind, table, decl_type in (
        ("method", project.bindings.method, "MethodDeclaration"),
        ("type", project.bindings.type, "TypeDeclaration"),
    ):
        entries = _expect(bindings.get(kind, {}), dict, f"{kind} bindings", "bindings")
        for key, target in entries.items():
            if not key.isdecimal():
                raise AstFormatError(f"non-integer key in {kind} bindings", f"{key} -> {target}")
            src = int(key)
            if type(target) is not int or not (0 <= src < count and 0 <= target < count):
                # One of these raises; the check above keeps the common case cheap.
                where = f"{key} -> {target}"
                _node_id(src, count, f"{kind} binding source", where)
                _node_id(target, count, f"{kind} binding target", where)
            if project.nodes[target].type != decl_type:
                raise AstFormatError(
                    "binding target type mismatch", f"{kind} binding {src} -> {target}"
                )
            table[src] = target

    project.link_parents()
    project.files_parsed = len(project.files)
    return project
