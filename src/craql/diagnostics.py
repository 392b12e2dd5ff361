"""Shared diagnostic record for frontends and validators."""

from __future__ import annotations

from craql import Record


class Diagnostic(Record):
    file: str
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.severity}: {self.message}"
