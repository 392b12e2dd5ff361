"""Static name and type binding for MiniLang projects.

Resolution is project-local and arity-based: an invocation binds to the
unique declaration with the same name and parameter count in the receiver's
type (or the enclosing type for unqualified calls). Anything unresolvable is
simply absent from the binding table.
"""

from __future__ import annotations

from craql.astcore import BindingTable, ProjectAst, Span
from craql.minilang.schema import BUILTIN_TYPE_NAMES

BUILTINS_FILE = "<builtins>"


def ensure_builtins(project: ProjectAst) -> dict[str, int]:
    """Create surrogate TypeDeclarations for primitive types (idempotent).

    The surrogate compilation unit lives in the arena but is deliberately
    absent from project.roots, so default query input never enumerates it.
    """
    existing = {
        n.props["name"]: n.id
        for n in project.nodes
        if n.type == "TypeDeclaration"
        and project.files[n.span.file].name == BUILTINS_FILE
    }
    if existing:
        return existing

    text = " ".join(BUILTIN_TYPE_NAMES)
    file_id = project.add_file(BUILTINS_FILE, text)
    surrogates: dict[str, int] = {}
    offset = 0
    for name in BUILTIN_TYPE_NAMES:
        start = text.index(name, offset)
        span = Span(file_id, start, start + len(name), 1)
        props = {"interface": "false", "name": name, "bodyDeclarations": []}
        surrogates[name] = project.new_node("TypeDeclaration", span, props).id
        offset = start + len(name)
    unit_span = Span(file_id, 0, len(text), 1)
    project.new_node("CompilationUnit", unit_span, {"types": list(surrogates.values())})
    return surrogates


class _Binder:
    def __init__(self, project: ProjectAst):
        self.project = project
        self.surrogates = ensure_builtins(project)
        # User-declared types; a duplicated name is unresolvable.
        self.type_decls: dict[str, int] = {}
        dupes: set[str] = set()
        for n in project.nodes:
            if n.type == "TypeDeclaration" and project.files[n.span.file].name != BUILTINS_FILE:
                name = n.props["name"]
                if name in self.type_decls:
                    dupes.add(name)
                else:
                    self.type_decls[name] = n.id
        for name in dupes:
            del self.type_decls[name]
        self.methods = self._index_methods()
        self.fields = self._index_fields()
        self._invocation_cache: dict[int, int | None] = {}

    def _index_methods(self) -> dict[int, dict[tuple[str, int], list[int]]]:
        out: dict[int, dict[tuple[str, int], list[int]]] = {}
        for tname, tid in self.type_decls.items():
            table: dict[tuple[str, int], list[int]] = {}
            for mid in self.project.node(tid).props["bodyDeclarations"]:
                m = self.project.node(mid)
                if m.type == "MethodDeclaration":
                    key = (m.props["name"], len(m.props["parameters"]))
                    table.setdefault(key, []).append(mid)
            out[tid] = table
        return out

    def _index_fields(self) -> dict[int, dict[str, str]]:
        out: dict[int, dict[str, str]] = {}
        for tid in self.type_decls.values():
            table: dict[str, str] = {}
            for fid in self.project.node(tid).props["bodyDeclarations"]:
                f = self.project.node(fid)
                if f.type == "FieldDeclaration":
                    for frag in f.props["fragments"]:
                        table[self.project.node(frag).props["name"]] = f.props["type"]
            out[tid] = table
        return out

    # -- scope walk --

    def enclosing(self, node_id: int, type_name: str) -> int | None:
        cur = self.project.node(node_id).parent
        while cur is not None:
            if self.project.node(cur).type == type_name:
                return cur
            cur = self.project.node(cur).parent
        return None

    def variable_type(self, use_id: int, name: str) -> str | None:
        """Declared type of the local, parameter, or field `name` visible at use_id."""
        use_start = self.project.node(use_id).span.start
        cur = self.project.node(use_id).parent
        while cur is not None:
            node = self.project.node(cur)
            if node.type == "Block":
                for sid in node.props["statements"]:
                    stmt = self.project.node(sid)
                    if stmt.type != "VariableDeclarationStatement":
                        continue
                    if stmt.span.start >= use_start:
                        break
                    for frag in stmt.props["fragments"]:
                        if self.project.node(frag).props["name"] == name:
                            return stmt.props["type"]
            elif node.type == "ForStatement":
                for init in node.props.get("initializers", []):
                    stmt = self.project.node(init)
                    if stmt.type == "VariableDeclarationStatement":
                        for frag in stmt.props["fragments"]:
                            if self.project.node(frag).props["name"] == name:
                                return stmt.props["type"]
            elif node.type == "CatchClause":
                exc = self.project.node(node.props["exception"])
                if exc.props["name"] == name:
                    return exc.props["type"]
            elif node.type == "MethodDeclaration":
                for pid in node.props["parameters"]:
                    p = self.project.node(pid)
                    if p.props["name"] == name:
                        return p.props["type"]
            elif node.type == "TypeDeclaration":
                ftype = self.fields.get(node.id, {}).get(name)
                if ftype is not None:
                    return ftype
            cur = node.parent
        return None

    # -- static expression types --

    def static_type(self, expr_id: int) -> str | None:
        node = self.project.node(expr_id)
        t = node.type
        if t == "NumberLiteral":
            return "int"
        if t == "StringLiteral":
            return "String"
        if t == "BooleanLiteral":
            return "boolean"
        if t == "Name":
            name = node.props["identifier"]
            vtype = self.variable_type(expr_id, name)
            if vtype is not None:
                return vtype
            if name in self.type_decls or name in self.surrogates:
                return name
            return None
        if t == "FieldAccess":
            base = self.static_type(node.props["expression"])
            tid = self.type_decls.get(base) if base else None
            if tid is None:
                return None
            return self.fields.get(tid, {}).get(node.props["name"])
        if t == "MethodInvocation":
            decl = self.resolve_invocation(expr_id)
            if decl is None:
                return None
            return self.project.node(decl).props["returnType"]
        if t == "ClassInstanceCreation":
            return node.props["type"]
        if t == "Assignment":
            return self.static_type(node.props["leftHandSide"])
        if t == "InfixExpression":
            op = node.props["operator"]
            return "boolean" if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||") else "int"
        if t == "PrefixExpression":
            return "boolean" if node.props["operator"] == "!" else "int"
        return None

    def resolve_invocation(self, inv_id: int) -> int | None:
        if inv_id in self._invocation_cache:
            return self._invocation_cache[inv_id]
        self._invocation_cache[inv_id] = None  # cut recursive resolution cycles
        node = self.project.node(inv_id)
        key = (node.props["name"], len(node.props["arguments"]))
        receiver = node.props.get("expression")
        if receiver is None:
            tid = self.enclosing(inv_id, "TypeDeclaration")
        else:
            rtype = self.static_type(receiver)
            tid = self.type_decls.get(rtype) if rtype else None
        decl: int | None = None
        if tid is not None:
            matches = self.methods.get(tid, {}).get(key, [])
            if len(matches) == 1:  # same-name same-arity twins are not resolvable
                decl = matches[0]
        self._invocation_cache[inv_id] = decl
        return decl

    def type_decl_node(self, type_name: str | None) -> int | None:
        if type_name is None:
            return None
        if type_name in self.type_decls:
            return self.type_decls[type_name]
        return self.surrogates.get(type_name)

    def run(self) -> BindingTable:
        table = BindingTable()
        for node in self.project.nodes:
            if node.type == "MethodInvocation":
                decl = self.resolve_invocation(node.id)
                if decl is not None:
                    table.method[node.id] = decl
                rt = self.static_type(node.id)
                target = self.type_decl_node(rt)
                if target is not None:
                    table.type[node.id] = target
            elif node.type == "Name":
                vtype = self.variable_type(node.id, node.props["identifier"])
                target = self.type_decl_node(vtype)
                if target is not None:
                    table.type[node.id] = target
            elif node.type == "ClassInstanceCreation":
                target = self.type_decl_node(node.props["type"])
                if target is not None:
                    table.type[node.id] = target
            elif node.type in ("NumberLiteral", "StringLiteral", "BooleanLiteral"):
                lit_type = {"NumberLiteral": "int", "StringLiteral": "String", "BooleanLiteral": "boolean"}[node.type]
                table.type[node.id] = self.surrogates[lit_type]
        return table


def bind_project(project: ProjectAst) -> BindingTable:
    """Compute and install the project's binding table (parents must be linked)."""
    table = _Binder(project).run()
    project.bindings = table
    return table
