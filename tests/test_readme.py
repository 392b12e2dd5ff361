"""The README's library example runs and prints what its comments say, and
its column document loads."""

import json
import re
from pathlib import Path

from craql import deserialize_project, serialize_project

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_commented_values(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 2
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_column_document_loads_and_serializes_back_unchanged():
    # The example is the format's spec, so it must be a document the
    # reader takes whole and the writer gives back.
    text = README.read_text()
    section = text[text.index("## Serialized AST format"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    project = deserialize_project(example)
    assert json.loads(serialize_project(project)) == json.loads(example)
