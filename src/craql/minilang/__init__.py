"""MiniLang frontend for the bundled Java subset: `load_project` parses
(`craql.minilang.parser`) and binds (`craql.minilang.binder`) a project."""

from __future__ import annotations

from craql.astcore import ProjectAst
from craql.diagnostics import Diagnostic
from craql.minilang.binder import bind_project, ensure_builtins
from craql.minilang.parser import MiniLangParseError, parse_minilang
from craql.minilang.schema import MINILANG_SCHEMA


def load_project(name: str, sources: list[tuple[str, str]]) -> tuple[ProjectAst, list[Diagnostic]]:
    """Parse and bind a whole project from (file name, text) pairs.

    Files with unrecoverable syntax errors are skipped and reported as
    diagnostics; recovered statement-level problems are reported the same
    way beside a best-effort tree.
    """
    project = ProjectAst(name, MINILANG_SCHEMA)
    diagnostics: list[Diagnostic] = []
    for file_name, text in sources:
        try:
            root, recovered = parse_minilang(project, file_name, text)
        except MiniLangParseError as exc:
            diagnostics.append(exc.diagnostic)
            continue
        project.roots.append(root)
        diagnostics.extend(recovered)
    ensure_builtins(project)
    project.link_parents()
    bind_project(project)
    return project, diagnostics
