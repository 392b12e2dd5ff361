"""Static name and type binding for MiniLang projects.

Resolution is project-local and arity-based: an invocation binds to the
unique declaration with the same name and parameter count in the receiver's
type (or the enclosing type for unqualified calls). Anything unresolvable is
simply absent from the binding table.
"""

from __future__ import annotations

from craql.astcore import BindingTable, ProjectAst
from craql.minilang.schema import BUILTIN_TYPE_NAMES

BUILTINS_FILE = "<builtins>"
# The built-in type of each literal node type.
_LITERAL_TYPES = {"NumberLiteral": "int", "StringLiteral": "String", "BooleanLiteral": "boolean"}


def ensure_builtins(project: ProjectAst) -> None:
    """Add surrogate TypeDeclarations for primitive types to a project that
    has none yet; call it before `link_parents`.

    The surrogate compilation unit lives in the arena but is deliberately
    absent from project.roots, so default query input never enumerates it.
    """
    text = " ".join(BUILTIN_TYPE_NAMES)
    file_id = project.add_file(BUILTINS_FILE, text)
    types: list[int] = []
    offset = 0
    for name in BUILTIN_TYPE_NAMES:
        start = text.index(name, offset)
        props = {"interface": "false", "name": name, "bodyDeclarations": []}
        types.append(project.add_node(
            "TypeDeclaration", file_id, start, start + len(name), 1, props))
        offset = start + len(name)
    project.add_node("CompilationUnit", file_id, 0, len(text), 1, {"types": types})


class _Binder:
    def __init__(self, project: ProjectAst):
        self.project = project
        self.types, self.props, self.parent = project.type, project.props, project.parent
        # Declared types, from the index's TypeDeclaration bucket: those in
        # the builtins file are the surrogates, and a user type whose name
        # is declared twice is unresolvable.
        self.surrogates: dict[str, int] = {}
        self.type_decls: dict[str, int] = {}
        dupes: set[str] = set()
        order = project.index.order
        for rank in project.index.by_type.get("TypeDeclaration", ()):
            n = order[rank]
            name = self.props[n]["name"]
            if project.files[project.file[n]].name == BUILTINS_FILE:
                self.surrogates[name] = n
            elif name in self.type_decls:
                dupes.add(name)
            else:
                self.type_decls[name] = n
        for name in dupes:
            del self.type_decls[name]
        self.methods = self._index_methods()
        self.fields = self._index_fields()
        self._invocation_cache: dict[int, int | None] = {}

    def _index_methods(self) -> dict[int, dict[tuple[str, int], list[int]]]:
        out: dict[int, dict[tuple[str, int], list[int]]] = {}
        types, props = self.types, self.props
        for tid in self.type_decls.values():
            table: dict[tuple[str, int], list[int]] = {}
            for mid in props[tid]["bodyDeclarations"]:
                if types[mid] == "MethodDeclaration":
                    key = (props[mid]["name"], len(props[mid]["parameters"]))
                    table.setdefault(key, []).append(mid)
            out[tid] = table
        return out

    def _index_fields(self) -> dict[int, dict[str, str]]:
        out: dict[int, dict[str, str]] = {}
        types, props = self.types, self.props
        for tid in self.type_decls.values():
            table: dict[str, str] = {}
            for fid in props[tid]["bodyDeclarations"]:
                if types[fid] == "FieldDeclaration":
                    for frag in props[fid]["fragments"]:
                        table[props[frag]["name"]] = props[fid]["type"]
            out[tid] = table
        return out

    # -- scope walk --

    def enclosing(self, node_id: int, type_name: str) -> int | None:
        cur = self.parent[node_id]
        while cur is not None:
            if self.types[cur] == type_name:
                return cur
            cur = self.parent[cur]
        return None

    def variable_type(self, use_id: int, name: str) -> str | None:
        """Declared type of the local, parameter, or field `name` visible at use_id."""
        types, props, starts = self.types, self.props, self.project.start
        use_start = starts[use_id]
        cur = self.parent[use_id]
        while cur is not None:
            t = types[cur]
            if t == "Block":
                for sid in props[cur]["statements"]:
                    if types[sid] != "VariableDeclarationStatement":
                        continue
                    if starts[sid] >= use_start:
                        break
                    for frag in props[sid]["fragments"]:
                        if props[frag]["name"] == name:
                            return props[sid]["type"]
            elif t == "ForStatement":
                for init in props[cur].get("initializers", []):
                    if types[init] == "VariableDeclarationStatement":
                        for frag in props[init]["fragments"]:
                            if props[frag]["name"] == name:
                                return props[init]["type"]
            elif t == "CatchClause":
                exc = props[props[cur]["exception"]]
                if exc["name"] == name:
                    return exc["type"]
            elif t == "MethodDeclaration":
                for pid in props[cur]["parameters"]:
                    if props[pid]["name"] == name:
                        return props[pid]["type"]
            elif t == "TypeDeclaration":
                ftype = self.fields.get(cur, {}).get(name)
                if ftype is not None:
                    return ftype
            cur = self.parent[cur]
        return None

    # -- static expression types --

    def static_type(self, expr_id: int) -> str | None:
        t, props = self.types[expr_id], self.props[expr_id]
        if t in _LITERAL_TYPES:
            return _LITERAL_TYPES[t]
        if t == "Name":
            name = props["identifier"]
            vtype = self.variable_type(expr_id, name)
            if vtype is not None:
                return vtype
            if name in self.type_decls or name in self.surrogates:
                return name
            return None
        if t == "FieldAccess":
            base = self.static_type(props["expression"])
            tid = self.type_decls.get(base) if base else None
            if tid is None:
                return None
            return self.fields.get(tid, {}).get(props["name"])
        if t == "MethodInvocation":
            decl = self.resolve_invocation(expr_id)
            if decl is None:
                return None
            return self.props[decl]["returnType"]
        if t == "ClassInstanceCreation":
            return props["type"]
        if t == "Assignment":
            return self.static_type(props["leftHandSide"])
        if t == "InfixExpression":
            op = props["operator"]
            return "boolean" if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||") else "int"
        if t == "PrefixExpression":
            return "boolean" if props["operator"] == "!" else "int"
        return None

    def resolve_invocation(self, inv_id: int) -> int | None:
        if inv_id in self._invocation_cache:
            return self._invocation_cache[inv_id]
        self._invocation_cache[inv_id] = None  # cut recursive resolution cycles
        props = self.props[inv_id]
        key = (props["name"], len(props["arguments"]))
        receiver = props.get("expression")
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
        for n, t in enumerate(self.types):
            if t == "MethodInvocation":
                decl = self.resolve_invocation(n)
                if decl is not None:
                    table.method[n] = decl
                rt = self.static_type(n)
                target = self.type_decl_node(rt)
                if target is not None:
                    table.type[n] = target
            elif t == "Name":
                vtype = self.variable_type(n, self.props[n]["identifier"])
                target = self.type_decl_node(vtype)
                if target is not None:
                    table.type[n] = target
            elif t == "ClassInstanceCreation":
                target = self.type_decl_node(self.props[n]["type"])
                if target is not None:
                    table.type[n] = target
            elif t in _LITERAL_TYPES:
                target = self.surrogates.get(_LITERAL_TYPES[t])
                if target is not None:
                    table.type[n] = target
        return table


def bind_project(project: ProjectAst) -> BindingTable:
    """Compute and install the project's binding table (parents must be
    linked). Literals bind to the surrogates `ensure_builtins` made before
    linking; a project without them leaves literals unbound."""
    table = _Binder(project).run()
    project.bindings = table
    return table
