"""Only `core` reads input files: every other module reads through
`core.read_json` or `core.read_jsonl`, so a missing, unreadable or
malformed file is reported in one wording. `segments` is exempt: it owns
the judge cache's binary layout.

Calls are found in the syntax tree: builtin `open` or `<path>.open`
(`os.open`, which takes the run lock, is not a read), `.read_text`,
`.read_bytes` and `json.load`.
"""

import ast
from pathlib import Path

import feedbacklab

SRC = Path(feedbacklab.__file__).parent
EXEMPT = {"core", "segments"}


def read_call(call: ast.Call) -> str | None:
    """The kind of file read `call` makes, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" else None
    if not isinstance(func, ast.Attribute):
        return None
    on = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr in ("read_text", "read_bytes"):
        return func.attr
    if (func.attr == "open" and on != "os") or (func.attr == "load" and on == "json"):
        return func.attr
    return None


def test_only_core_reads_files():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (kind := read_call(node)):
                found.append(f"{path.stem}.py:{node.lineno}: {kind}")
    assert found == []
