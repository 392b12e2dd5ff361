"""Language-agnostic AST store: node-type schemas, columnar node arenas with
a pre-order region index, and JSON documents for ingesting externally
produced trees. `serialize_project` writes a column document, one array per
node column; `deserialize_project` reads it and the record format, one
object per node, through one check of the columns.

A loaded :class:`ProjectAst` keeps its node columns, roots and bindings as
loaded. Reading it still writes: `type_ranks` and `bound_ranks` build their
rank lists on first use and keep them in the project's `RegionIndex`, and
`source_text` sets `degraded_output` when a file's text is gone.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from collections.abc import Iterator, Sequence
from importlib import import_module
from itertools import chain
from operator import itemgetter, le
from typing import Any, NamedTuple, Union

from craql import Frozen, Record

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


class VirtualType(Frozen):
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
    ones included, to itself and all its supertypes), `prop_kinds` and
    `children`: each type a node may have to its child-valued properties, in
    declaration order, the order of the node's kids.
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
        self.children: dict[str, tuple[str, ...]] = {}

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
        """Check the lattice and compile it into its lookup tables."""
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
        self.children = {t: tuple(p for p, kind in self.prop_kinds[t].items() if kind != TOKEN)
                         for t in self.types if not self.abstract[t]}

    def knows(self, name: str) -> bool:
        return name in self.types or name in self.virtuals

    def require(self, name: str) -> None:
        if not self.knows(name):
            raise SchemaError(f"unknown node type {name}")

    def declares_property(self, prop: str) -> bool:
        return any(prop == p for plist in self.properties.values() for p, _ in plist)


_REGISTRY: dict[str, NodeTypeSchema] = {}

# Bundled schemas by name, with the module whose import registers each, so
# that deserializing a document loads its schema without `import craql`
# having loaded any frontend.
_BUILTIN_SCHEMAS = {"minilang": "craql.minilang.schema"}


def register_schema(schema: NodeTypeSchema) -> NodeTypeSchema:
    schema.validate()
    _REGISTRY[schema.name] = schema
    return schema


def lookup_schema(name: str) -> NodeTypeSchema:
    if name not in _REGISTRY and name in _BUILTIN_SCHEMAS:
        import_module(_BUILTIN_SCHEMAS[name])
    if name not in _REGISTRY:
        raise SchemaError(f"no registered schema named {name}")
    return _REGISTRY[name]


def is_subtype(schema: NodeTypeSchema, t: str, ancestor: str) -> bool:
    """True iff t equals ancestor or reaches it via supertype edges."""
    schema.require(t)
    schema.require(ancestor)
    return ancestor in schema.ancestry[t]


class NodeView(NamedTuple):
    """One node's columns, read together: what `ProjectAst.node` returns.

    Built when read and never stored: the project keeps only its columns.
    """

    id: int
    type: str
    file: int
    start: int
    end: int
    line: int
    parent: int | None
    props: dict[str, PropValue]


class FileInfo(Record):
    name: str
    text: str | None = None


class BindingTable(Record):
    """Statically resolved use→declaration links; unresolvable uses absent."""

    method: dict[int, int]
    type: dict[int, int]

    def __init__(self, method: dict[int, int] | None = None, type: dict[int, int] | None = None):
        self.method = {} if method is None else method
        self.type = {} if type is None else type


class ProjectAst:
    """One project's parsed trees: a node arena, query-input roots, bindings.

    The arena is a set of parallel lists, one per node field, after the
    pre/size/level storage of MonetDB/XQuery (Boncz et al., SIGMOD 2006):
    node n's fields are the n-th entries of `type`, `file`, `start`, `end`
    and `line` (its source extent: 0-based character offsets into file
    `file`, 1-based start line), `props` (its property values by name:
    tokens as text, children as ids), `kids` (its child ids, in the order
    its type declares its properties; leaves share one empty tuple) and
    `parent` (None for a tree's root; filled by `link_parents`).

    A column document holds the first six of these columns as they are, one
    JSON array each; loading derives `kids` from `props`, and `link_parents`
    the `parent` column.

    `roots` lists the compilation units that form the default query input.
    The arena may contain additional parentless trees (e.g. built-in type
    surrogates) that are reachable through bindings but never enumerated by
    default.
    """

    def __init__(self, name: str, schema: NodeTypeSchema):
        self.name = name
        self.schema = schema
        self.files: list[FileInfo] = []
        self.type: list[str] = []
        self.file: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.line: list[int] = []
        self.props: list[dict[str, PropValue]] = []
        self.kids: list[list[int] | tuple[()]] = []
        self.parent: list[int | None] = []
        self.roots: list[int] = []
        self.bindings = BindingTable()
        # Set when source_text had to fall back to a placeholder.
        self.degraded_output = False
        # Built by link_parents once the arena is complete.
        self.index: RegionIndex

    # -- construction helpers (single-threaded, before first read) --

    def add_file(self, name: str, text: str | None = None) -> int:
        self.files.append(FileInfo(name, text))
        return len(self.files) - 1

    def add_node(self, type_name: str, file: int, start: int, end: int, line: int,
                 props: dict[str, PropValue]) -> int:
        """Append a node of concrete type `type_name` and return its id.

        The node keeps `props`, less any child given as None, which is
        absent. Its kids are the child ids in `props`, in the order the
        schema declares the type's properties.
        """
        children = self.schema.children.get(type_name)
        if children is None:
            raise SchemaError(f"{type_name} is not a concrete node type")
        kids: list[int] = []
        for name in children:
            value = props.get(name)
            if type(value) is int:
                kids.append(value)
            elif value is not None:
                kids += value
            elif name in props:
                del props[name]
        self.type.append(type_name)
        self.file.append(file)
        self.start.append(start)
        self.end.append(end)
        self.line.append(line)
        self.props.append(props)
        self.kids.append(kids or ())
        return len(self.type) - 1

    def truncate(self, nodes: int, files: int) -> None:
        """Drop the nodes from id `nodes` on and the files from index
        `files` on; call it before `link_parents`."""
        for column in (self.type, self.file, self.start, self.end, self.line, self.props,
                       self.kids):
            del column[nodes:]
        del self.files[files:]

    def link_parents(self) -> None:
        """Set each node's parent and build the region index.

        Both loaders call this once, last, after the last node is added. One
        loop over `kids` sets the children's parents, raising AstFormatError
        when a node is owned twice, and `RegionIndex` numbers the nodes from
        the same lists. A node on or under an ownership cycle gets no rank
        and is an AstFormatError too.
        """
        kids = self.kids
        parent: list[int | None] = [None] * len(kids)
        for nid, ids in enumerate(kids):
            for child in ids:
                if parent[child] is not None:
                    raise AstFormatError(f"node {child} is owned by both {parent[child]} and {nid}")
                parent[child] = nid
        self.parent = parent
        self.index = RegionIndex(self.type, parent, kids)
        # With single ownership, a node no parentless node reaches is on or
        # under an ownership cycle, where every walk would go round forever;
        # the index leaves exactly those nodes without a rank.
        if -1 in self.index.pre:
            nid = self.index.pre.index(-1)
            raise AstFormatError("node is on or under an ownership cycle", f"node {nid}")

    @property
    def files_parsed(self) -> int:
        """The number of source files parsed or loaded: one per root."""
        return len(self.roots)

    # -- a read-only view of the arena, for callers outside the program --

    def node(self, node_id: int) -> NodeView:
        """Node `node_id`'s columns; call it once the parents are linked."""
        return NodeView(node_id, self.type[node_id], self.file[node_id], self.start[node_id],
                        self.end[node_id], self.line[node_id], self.parent[node_id],
                        self.props[node_id])

    @property
    def nodes(self) -> Sequence[NodeView]:
        """The arena as a sequence of `NodeView`s, each built when read."""
        return _NodeSequence(self)

    # -- queries over the arena --

    def matches_type(self, node_id: int, type_name: str) -> bool:
        """Subtype-aware type test, including virtual types."""
        ancestry = self.schema.ancestry[self.type[node_id]]
        v = self.schema.virtuals.get(type_name)
        if v is not None:
            return v.base in ancestry and self.props[node_id].get(v.prop) == v.token
        if type_name in ancestry:
            return True
        if type_name not in self.schema.ancestry:  # it holds every known name
            raise SchemaError(f"unknown node type {type_name}")
        return False

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


class _NodeSequence(Sequence):
    """`ProjectAst.nodes`: node views built on access, none of them kept."""

    __slots__ = ("_project",)

    def __init__(self, project: ProjectAst):
        self._project = project

    def __len__(self) -> int:
        return len(self._project.type)

    def __getitem__(self, node_id: int) -> NodeView:
        return self._project.node(range(len(self))[node_id])

    def __iter__(self) -> Iterator[NodeView]:
        return map(self._project.node, range(len(self)))


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

    `ProjectAst.link_parents` builds it from the `kids` column it has just
    linked, and leaves that column as it was. A node on or under an
    ownership cycle is reached by no walk from a parentless node, so it gets
    no rank: its `pre` stays -1. The index holds no reference to its
    project, so a finished project is freed by reference counting alone.
    """

    def __init__(self, types: list[str], parent: list[int | None],
                 kids: list[list[int] | tuple[()]]):
        """Index the nodes of the `types`, `parent` and `kids` columns: one
        iterative pre-order pass numbers the nodes and fills `order`, `pre`,
        `depth` and `by_type`, and a reverse pass over `order` fills `end`."""
        order: list[int] = []
        pre = [-1] * len(types)
        depth = [0] * len(types)
        by_type: defaultdict[str, list[int]] = defaultdict(list)
        for root, up in enumerate(parent):
            if up is not None:
                continue
            stack = [root]
            while stack:
                nid = stack.pop()
                rank = pre[nid] = len(order)
                order.append(nid)
                by_type[types[nid]].append(rank)
                ids = kids[nid]
                if ids:
                    below = depth[nid] + 1
                    for child in ids:
                        depth[child] = below
                    stack += reversed(ids)
        # A child's region ends no later than its parent's, and the last
        # child's end is the parent's end, so one reverse pass suffices.
        end = [rank + 1 for rank in pre]
        for nid in reversed(order):
            up = parent[nid]
            if up is not None and end[nid] > end[up]:
                end[up] = end[nid]
        self.order, self.pre, self.end, self.depth = order, pre, end, depth
        self.by_type = dict(by_type)
        self.ranks: dict[str, list[int]] = {}
        self.bound: dict[str, dict[int, list[int]]] = {}


def node_depth(project: ProjectAst, node_id: int) -> int:
    return project.index.depth[node_id]


def source_text(project: ProjectAst, node_id: int) -> str:
    """Exact source slice for the node, or a placeholder if text is gone."""
    info = project.files[project.file[node_id]]
    if info.text is None:
        project.degraded_output = True
        return f"<{project.type[node_id]}@{info.name}:{project.line[node_id]}>"
    return info.text[project.start[node_id] : project.end[node_id]]


# ---------------------------------------------------------------------------
# Serialized AST format (one JSON document per project).
# ---------------------------------------------------------------------------


def serialize_project(project: ProjectAst) -> str:
    """`project` as a column document: one JSON array per node column."""
    files = []
    for f in project.files:
        entry: dict[str, Any] = {"name": f.name}
        if f.text is not None:
            entry["text"] = f.text
        files.append(entry)
    doc = {
        "schema": project.schema.name,
        "project": project.name,
        "files": files,
        "columns": {"type": project.type, "file": project.file, "start": project.start,
                    "end": project.end, "line": project.line, "props": project.props},
        "roots": list(project.roots),
        "bindings": {
            "method": {str(k): v for k, v in sorted(project.bindings.method.items())},
            "type": {str(k): v for k, v in sorted(project.bindings.type.items())},
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
# A key a node record lacks: JSON decodes to no such value.
_ABSENT = object()
# The node columns of a column document, in the order `_fill_columns` takes them.
_COLUMNS = ("type", "file", "start", "end", "line", "props")


def _expect(value: Any, kind: type, what: str, where: str) -> Any:
    """`value` if it is of JSON kind `kind`, else an AstFormatError.

    Decoded JSON holds exact builtin types, so `true` is not an integer.
    """
    if type(value) is not kind:
        raise AstFormatError(f"{what} must be {_KIND_NAMES[kind]}", where)
    return value


def _field(value: Any, kind: type, key: str, where: str) -> Any:
    """`value`, the entry `key` of an object, if it is of JSON kind `kind`;
    an entry the object lacks is `_ABSENT`."""
    if value is _ABSENT:
        raise AstFormatError(f"missing key {key!r}", where)
    return _expect(value, kind, repr(key), where)


def _expect_key(obj: dict, key: str, where: str, kind: type) -> Any:
    return _field(obj.get(key, _ABSENT), kind, key, where)


def _node_id(value: Any, count: int, what: str, where: str) -> int:
    if not 0 <= _expect(value, int, what, where) < count:
        raise AstFormatError(f"dangling {what} {value}", where)
    return value


# A lone surrogate, which UTF-8 cannot encode, reaches a decoded string only
# through a \uD800-\uDFFF escape.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _require_utf8(project: ProjectAst) -> None:
    """Raise at the first string of `project` that UTF-8 cannot encode:
    its name, a file's name or text, or a token."""
    strings = [(project.name, "top level", "the project name")]
    for i, f in enumerate(project.files):
        strings += [(f.name, f"files[{i}]", "the file name"),
                    (f.text or "", f"files[{i}]", "the text")]
    strings += [(value, f"node {nid}.{name}", "the token")
                for nid, props in enumerate(project.props)
                for name, value in props.items() if type(value) is str]
    for value, where, what in strings:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise AstFormatError(
                f"{what} holds a lone surrogate at {exc.start}, which UTF-8 cannot encode",
                where) from None


def _column_lists(columns: Any) -> list[list]:
    """The node columns of a column document: a list each, of one length."""
    _expect(columns, dict, "'columns'", "top level")
    lists = [_expect_key(columns, name, "columns", list) for name in _COLUMNS]
    count = len(lists[0])
    for name, column in zip(_COLUMNS, lists):
        if len(column) != count:
            raise AstFormatError(f"column {name!r} has {len(column)} entries, not {count}",
                                 "columns")
    return lists


def _record_lists(records: list, schema: NodeTypeSchema) -> list[list]:
    """The node columns of a record document's `nodes`, in id order.

    Checks only what records alone have: each record an object, the ids
    dense and unique, each `span` a triple and each token an object, which
    becomes its text. A field a record lacks is `_ABSENT` in its column.
    """
    count = len(records)
    by_id: list[Any] = [None] * count
    for i, rec in enumerate(records):
        nid = rec.get("id") if type(rec) is dict else None
        if type(nid) is not int or not 0 <= nid < count or by_id[nid] is not None:
            where = f"nodes[{i}]"
            nid = _expect_key(_expect(rec, dict, "a node record", where), "id", where, int)
            if not 0 <= nid < count:
                raise AstFormatError("node ids must be dense integers from 0", where)
            raise AstFormatError(f"duplicate node id {nid}", where)
        by_id[nid] = rec
    types, files, spans, props = ([rec.get(key, _ABSENT) for rec in by_id]
                                  for key in ("type", "file", "span", "props"))
    tokens = {t: [p for p, kind in kinds.items() if kind == TOKEN]
              for t, kinds in schema.prop_kinds.items()}
    for nid, (tname, raw_props) in enumerate(zip(types, props)):
        if type(tname) is str and type(raw_props) is dict:
            for pname in tokens.get(tname, ()):
                value = raw_props.get(pname, _ABSENT)
                if type(value) is dict and type(value.get("token")) is str:
                    raw_props[pname] = value["token"]
                elif value is not _ABSENT:
                    where = f"node {nid}.{pname}"
                    _expect_key(_expect(value, dict, "a token property", where), "token", where,
                                str)
    if not (set(map(type, spans)) <= {list} and set(map(len, spans)) <= {3}):
        nid = next(n for n, span in enumerate(spans) if type(span) is not list or len(span) != 3)
        _field(spans[nid], list, "span", f"node {nid}")
        raise AstFormatError("span must be [start, end, line]", f"node {nid}")
    return [types, files, *(list(map(itemgetter(i), spans)) for i in range(3)), props]


def _fill_columns(project: ProjectAst, types: list, files: list, starts: list, ends: list,
                  lines: list, props: list) -> None:
    """Check the node columns of either document format and make them the
    project's, with the `kids` column they imply.

    Each column is checked whole first, in C; a Python scan runs only to find
    and word the first fault, at `node N`.
    """
    schema = project.schema
    children, prop_kinds = schema.children, schema.prop_kinds
    if not (set(map(type, types)) <= {str} and set(types) <= children.keys()):
        nid, tname = next((n, t) for n, t in enumerate(types)
                          if type(t) is not str or t not in children)
        where = f"node {nid}"
        _field(tname, str, "type", where)
        if tname in schema.virtuals:
            raise AstFormatError(f"virtual type {tname} cannot be concrete", where)
        if tname in schema.types:
            raise AstFormatError(f"abstract type {tname} cannot be concrete", where)
        raise AstFormatError(f"unknown node type {tname}", where)
    nfiles = len(project.files)
    if not (set(map(type, files)) <= {int}
            and (not files or 0 <= min(files) and max(files) < nfiles)):
        nid, fidx = next((n, f) for n, f in enumerate(files)
                         if type(f) is not int or not 0 <= f < nfiles)
        _field(fidx, int, "file", f"node {nid}")
        raise AstFormatError(f"bad file index {fidx}", f"node {nid}")
    # A file without text bounds no span.
    limits = [math.inf if f.text is None else len(f.text) for f in project.files]
    if not (set(map(type, chain(starts, ends, lines))) <= {int}
            and 0 <= min(starts, default=0) and all(map(le, starts, ends))
            and all(map(le, ends, map(limits.__getitem__, files)))):
        for nid, (start, end, line) in enumerate(zip(starts, ends, lines)):
            if not type(start) is type(end) is type(line) is int:
                raise AstFormatError("each span value must be an integer", f"node {nid}")
            if not 0 <= start <= end <= limits[files[nid]]:
                raise AstFormatError(f"span [{start}, {end}] is not a range in its file",
                                     f"node {nid}")

    # Kids go in schema declaration order, as `add_node` orders them, so
    # walks see a node's children in the same order whichever loader made
    # it: the document's key order carries no meaning.
    count = len(types)
    kids_column: list[list[int] | tuple[()]] = []
    for nid, (tname, raw_props) in enumerate(zip(types, props)):
        if type(raw_props) is not dict:
            _field(raw_props, dict, "props", f"node {nid}")
        kids: list[int] = []
        found = 0
        for pname, kind in prop_kinds[tname].items():
            value = raw_props.get(pname, _ABSENT)
            if value is _ABSENT:
                continue
            found += 1
            if kind == CHILD_LIST and type(value) is list:
                for child in value:
                    if type(child) is not int or not 0 <= child < count:
                        _node_id(child, count, "node id", f"node {nid}.{pname}")
                kids += value
            elif kind == SINGLE and type(value) is int and 0 <= value < count:
                kids.append(value)
            elif kind != TOKEN or type(value) is not str:  # a fault
                where = f"node {nid}.{pname}"
                if kind == TOKEN:
                    _expect(value, str, "a token property", where)
                elif kind == SINGLE:
                    _node_id(value, count, "node id", where)
                else:
                    _expect(value, list, "a child-list property", where)
        if found != len(raw_props):
            pname = next(p for p in raw_props if p not in prop_kinds[tname])
            raise AstFormatError(f"{tname} has no property {pname}", f"node {nid}")
        kids_column.append(kids or ())
    project.type, project.file, project.start, project.end = types, files, starts, ends
    project.line, project.props, project.kids = lines, props, kids_column


def deserialize_project(document: str) -> ProjectAst:
    """Load a column or a record document, whichever key, `columns` or
    `nodes`, it has; a document with both or neither is an AstFormatError."""
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

    if ("columns" in doc) == ("nodes" in doc):
        raise AstFormatError("a document needs exactly one of 'columns' and 'nodes'", "top level")
    if "columns" in doc:
        columns = _column_lists(doc["columns"])
    else:
        columns = _record_lists(_expect(doc["nodes"], list, "'nodes'", "top level"), schema)
    _fill_columns(project, *columns)
    count, types = len(project.type), project.type

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
            if types[target] != decl_type:
                raise AstFormatError(
                    "binding target type mismatch", f"{kind} binding {src} -> {target}"
                )
            table[src] = target

    if _SURROGATE_ESCAPE.search(document):
        _require_utf8(project)
    project.link_parents()
    return project
